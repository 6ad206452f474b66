"""Command line surface: file formats, instance generators, subcommands.

File formats
    MatrixFile      first line "R C", then R rows of C integers.
    VectorListFile  first line "M N", then M lattice vectors, one per
                    line.  Weight files are vector lists with a single
                    row whose entries may be rational, written p/q.

Vectors are written with positive and negative parts combined: the
binomial x^u - x^v is stored as the single line u - v.  The --pretty
flag switches to a human-readable binomial rendering (1-based variable
names, no header).

Flags
    --out, --pretty and --max-degree belong to the subcommands that
    print a vector block (groebner, graver, circuits, universal); gen
    takes --out.  --weight is required by solve and fan triangulate,
    optional on groebner and fan cones, and refused by fan count.
    --tiebreak refines a weight order, so it is taken by groebner and
    fan cones, and only together with --weight.  A flag given where it
    would be ignored exits 1.

Exit codes
    0  success
    1  usage or parse failure
    2  domain error (not pointed, rank deficient, infeasible, ...)
    3  weight vector not generic
    4  resource limit hit

Resource limits fill one Budget (toricgb.errors) that each loop reads,
so a guard stops the work while it runs: --max-degree (degree, in the
grading of the configuration, of any element computed, default
unlimited) on groebner, graver, circuits and universal; --max-fiber
(work budget of solve: search nodes (reduce) or S-pairs (eliminate),
default 200000) on solve only; --max-graver-bits (Graver size cap for
sign-pattern enumeration, default 22) on universal, fan count and fan
cones without --weight only.  Each cap is a nonnegative integer; a
negative one exits 1.
universal's only Buchberger runs are graver's, so --max-degree trips on
both at the same point, read on the Lawrence lifting in the grading
that gives each lifted element (u, -u) the degree of u.  Exit 4 prints
the guard, its limit and how far the work got.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .errors import (
    Budget,
    LimitExceeded,
    NonGenericOmega,
    ToricError,
)
from .exactmath import IntMatrix
from .fan import groebner_cone, groebner_fan, regular_triangulation
from .ip import IPInstance, solve_ip, solve_ip_elimination
from .orders import term_order
from .toric import (
    ConfigMatrix,
    circuits,
    graver,
    lawrence_lifting,
    toric_groebner,
    universal_gb,
)


class ParseFailure(Exception):
    """Malformed input file or bad generator parameters."""


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------


def _tokenize(text, what):
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseFailure(f"line 1: missing {what} header")
    return lines


def _parse_grid(text, what, value):
    lines = _tokenize(text, what)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseFailure(f"line 1: {what} header must be two integers")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError:
        raise ParseFailure(f"line 1: {what} header must be two integers")
    if nrows < 0 or ncols < 0:
        raise ParseFailure(f"line 1: {what} header must be nonnegative")
    rows = []
    for k in range(nrows):
        lineno = k + 2
        if lineno > len(lines):
            raise ParseFailure(f"line {lineno}: expected {nrows} rows, file ends early")
        toks = lines[lineno - 1].split()
        if len(toks) != ncols:
            raise ParseFailure(
                f"line {lineno}: expected {ncols} entries, found {len(toks)}"
            )
        try:
            rows.append(tuple(value(t) for t in toks))
        except (ValueError, ZeroDivisionError):
            raise ParseFailure(f"line {lineno}: malformed entry")
    for extra in lines[nrows + 1:]:
        if extra.split():
            raise ParseFailure(f"line {len(rows) + 2}: trailing data after {nrows} rows")
    return rows


def parse_matrix(text) -> IntMatrix:
    rows = _parse_grid(text, "matrix", int)
    if not rows or not rows[0]:
        raise ParseFailure("line 1: matrix must have rows and columns")
    return IntMatrix(tuple(rows))


def write_matrix(M: IntMatrix) -> str:
    lines = [f"{M.nrows} {M.ncols}"]
    lines += [" ".join(str(x) for x in row) for row in M.entries]
    return "\n".join(lines) + "\n"


def parse_vectors(text, rational: bool = False):
    value = Fraction if rational else int
    return _parse_grid(text, "vector list", value)


def write_vectors(vectors) -> str:
    vectors = list(vectors)
    width = len(vectors[0]) if vectors else 0
    lines = [f"{len(vectors)} {width}"]
    lines += [" ".join(str(x) for x in v) for v in vectors]
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise ParseFailure(f"cannot read {path}: {e.strerror}")


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_weight(path, n: int):
    rows = parse_vectors(_read(path), rational=True)
    if len(rows) != 1 or len(rows[0]) != n:
        raise ParseFailure(f"weight file must hold one row of {n} entries")
    return tuple(rows[0])


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _monomial_str(u) -> str:
    parts = []
    for i, e in enumerate(u):
        if e:
            parts.append(f"x{i + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"


def _binomial_str(v) -> str:
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    return f"{_monomial_str(plus)} - {_monomial_str(minus)}"


def _emit_vectors(vectors, args):
    if args.pretty:
        text = "".join(_binomial_str(v) + "\n" for v in vectors)
    else:
        text = write_vectors(vectors)
    _write(args.out, text)


def _emit_report(report: dict, json_flag: bool):
    if json_flag:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return
    for key, value in report.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(str(x) for x in value)
        sys.stdout.write(f"{key}: {value}\n")


# ---------------------------------------------------------------------------
# Instance generators.
# ---------------------------------------------------------------------------


def _gen_segre(dims):
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ParseFailure("segre needs at least two positive dimensions")
    d = sum(dims)
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    cols = []
    for combo in itertools.product(*(range(m) for m in dims)):
        col = [0] * d
        for off, i in zip(offsets, combo):
            col[off + i] = 1
        cols.append(col)
    return IntMatrix(tuple(tuple(c[r] for c in cols) for r in range(d)))


def _gen_hypersimplex2(d):
    if d < 2:
        raise ParseFailure("hypersimplex2 needs dimension at least 2")
    cols = []
    for i in range(d):
        for j in range(i + 1, d):
            col = [0] * d
            col[i] = col[j] = 1
            cols.append(col)
    return IntMatrix(tuple(tuple(c[r] for c in cols) for r in range(d)))


def _gen_monomial_curve(exps):
    if not exps or any(e < 1 for e in exps):
        raise ParseFailure("monomial-curve needs positive exponents")
    return IntMatrix((tuple(exps),))


def tt_graph_edges(s: int, l: int):
    """Edge list of the cycle of length s with an l-cycle hung on each vertex."""
    edges = [(i, (i + 1) % s) for i in range(s)]
    nv = s
    for i in range(s):
        chain = list(range(nv, nv + l - 1))
        nv += l - 1
        cyc = [i] + chain
        edges += list(zip(cyc, cyc[1:]))
        edges.append((cyc[-1], i))
    return nv, edges


def _gen_tt_graph(s, l):
    if s < 3 or l < 3:
        raise ParseFailure("tt-graph needs cycle lengths of at least 3")
    if l % 2 == 0:
        raise ParseFailure("tt-graph needs an odd attached cycle length")
    nv, edges = tt_graph_edges(s, l)
    rows = [[0] * len(edges) for _ in range(nv)]
    for j, (a, b) in enumerate(edges):
        rows[a][j] += 1
        rows[b][j] += 1
    return IntMatrix(tuple(tuple(r) for r in rows))


def _int_params(params, count, kind):
    if len(params) != count:
        raise ParseFailure(f"{kind} takes {count} parameter(s)")
    try:
        return [int(p) for p in params]
    except ValueError:
        raise ParseFailure(f"{kind} parameters must be integers")


def generate(kind: str, params) -> IntMatrix:
    if kind == "segre":
        if len(params) < 2:
            raise ParseFailure("segre takes at least two dimensions")
        try:
            dims = [int(p) for p in params]
        except ValueError:
            raise ParseFailure("segre dimensions must be integers")
        return _gen_segre(dims)
    if kind == "hypersimplex2":
        return _gen_hypersimplex2(_int_params(params, 1, kind)[0])
    if kind == "lawrence":
        if len(params) != 1:
            raise ParseFailure("lawrence takes one matrix file")
        return lawrence_lifting(parse_matrix(_read(params[0])))
    if kind == "monomial-curve":
        if not params:
            raise ParseFailure("monomial-curve takes exponents")
        try:
            exps = [int(p) for p in params]
        except ValueError:
            raise ParseFailure("monomial-curve exponents must be integers")
        return _gen_monomial_curve(exps)
    if kind == "tt-graph":
        s, l = _int_params(params, 2, kind)
        return _gen_tt_graph(s, l)
    if kind == "transport":
        r, c = _int_params(params, 2, kind)
        if r < 1 or c < 1:
            raise ParseFailure("transport needs positive side lengths")
        # the r x c transportation polytope's matrix is that of Segre r x c
        return _gen_segre((r, c))
    raise ParseFailure(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _load_config(args) -> ConfigMatrix:
    return ConfigMatrix(parse_matrix(_read(args.matrix)))


def _emit_block(args, A: ConfigMatrix, vectors, **extra) -> int:
    """Print a vector block, then its report: size, degree and extra."""
    _emit_vectors(vectors, args)
    report = {
        "command": args.command,
        "elements": len(vectors),
        "max_degree": max((A.degree(v) for v in vectors), default=0),
        **extra,
    }
    _emit_report(report, args.json)
    return 0


def cmd_groebner(args) -> int:
    A = _load_config(args)
    order = None
    if args.weight is not None:
        w = _load_weight(args.weight, A.n)
        order = term_order(A.n, weight=w, tiebreak=args.tiebreak or "degrevlex")
    elif args.tiebreak is not None:
        raise ParseFailure("--tiebreak needs --weight")
    G = toric_groebner(A, order, Budget(degree=args.max_degree, grading=A.grading))
    return _emit_block(args, A, list(G.vectors),
                       initial_ideal=sorted(_monomial_str(g.lead) for g in G.elements))


def _lifted_budget(args, A: ConfigMatrix, **caps) -> Budget:
    # the lifted elements are (u, -u); this grading gives them the A-degree of u
    lifted = A.grading and A.grading + (0,) * A.n
    return Budget(degree=args.max_degree, grading=lifted, **caps)


def cmd_graver(args) -> int:
    A = _load_config(args)
    return _emit_block(args, A, sorted(graver(A, _lifted_budget(args, A))))


def cmd_circuits(args) -> int:
    A = _load_config(args)
    cs = sorted(circuits(A, Budget(degree=args.max_degree)), key=lambda c: c.vector)
    return _emit_block(args, A, [c.vector for c in cs],
                       max_true_degree=max((c.true_degree for c in cs), default=0))


def _graver_cap(args):
    # the flag defaults to None so that fan can tell whether it was given
    return Budget.graver if args.max_graver_bits is None else args.max_graver_bits


def cmd_universal(args) -> int:
    A = _load_config(args)
    budget = _lifted_budget(args, A, graver=_graver_cap(args))
    ugb, ideals, _, _ = universal_gb(A, budget)
    return _emit_block(args, A, ugb, initial_ideals=len(ideals))


def _parse_rhs(text, d):
    toks = text.replace(",", " ").split()
    if len(toks) != d:
        raise ParseFailure(f"right-hand side needs {d} entries")
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise ParseFailure("right-hand side entries must be integers")


def cmd_solve(args) -> int:
    A = _load_config(args)
    if args.weight is None:
        raise ParseFailure("solve needs --weight")
    w = _load_weight(args.weight, A.n)
    b = _parse_rhs(args.rhs, A.original.nrows)
    inst = IPInstance(A, w, b)
    if args.method == "eliminate":
        point = solve_ip_elimination(inst, Budget(pairs=args.max_fiber))
    else:
        point = solve_ip(inst, Budget(nodes=args.max_fiber))
    if point is None:
        if args.json:
            _emit_report({"command": "solve", "status": "infeasible"}, True)
        else:
            sys.stdout.write("INFEASIBLE\n")
        return 2
    cost = sum(Fraction(wi) * x for wi, x in zip(w, point))
    cost_repr = int(cost) if cost.denominator == 1 else str(cost)
    if args.json:
        _emit_report(
            {
                "command": "solve",
                "status": "optimal",
                "point": list(point),
                "cost": cost_repr,
            },
            True,
        )
    else:
        sys.stdout.write(
            "(" + ",".join(str(x) for x in point) + f") cost {cost_repr}\n"
        )
    return 0


def cmd_fan(args) -> int:
    A = _load_config(args)
    if args.mode == "count" and args.weight is not None:
        raise ParseFailure("count mode takes no --weight")
    if args.tiebreak is not None:
        if args.mode != "cones":
            raise ParseFailure(f"{args.mode} mode takes no --tiebreak")
        if args.weight is None:
            raise ParseFailure("--tiebreak needs --weight")
    if args.max_graver_bits is not None:
        if args.mode == "triangulate":
            raise ParseFailure("triangulate mode takes no --max-graver-bits")
        if args.weight is not None:
            raise ParseFailure("cones mode takes no --max-graver-bits with --weight")
    if args.mode == "triangulate":
        if args.weight is None:
            raise ParseFailure("triangulate mode needs --weight")
        w = _load_weight(args.weight, A.n)
        delta = regular_triangulation(A, w)
        report = {
            "command": "fan",
            "facets": [
                ",".join(str(i + 1) for i in f) for f in delta.facets
            ],
        }
        _emit_report(report, args.json)
        return 0
    if args.mode == "cones" and args.weight is not None:
        # single cone at the given weight; enumeration would be wasteful
        w = _load_weight(args.weight, A.n)
        order = term_order(A.n, weight=w, tiebreak=args.tiebreak or "degrevlex")
        G = toric_groebner(A, order)
        witnesses = [(groebner_cone(G), tuple(w))]
    else:
        budget = Budget(graver=_graver_cap(args))
        if args.mode == "count":
            _, ideals, _, _ = universal_gb(A, budget)
            _emit_report({"command": "fan", "initial_ideals": len(ideals)}, args.json)
            return 0
        witnesses = groebner_fan(A, budget)
    cones = [
        {"facets": cone.facet_count, "witness": ",".join(str(x) for x in w)}
        for cone, w in witnesses
    ]
    if args.json:
        _emit_report({"command": "fan", "cones": cones}, True)
    else:
        for c in cones:
            sys.stdout.write(f"facets {c['facets']} witness {c['witness']}\n")
    return 0


def cmd_gen(args) -> int:
    M = generate(args.kind, args.params)
    _write(args.out, write_matrix(M))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------


def _cap(text) -> int:
    """A guard's limit: a nonnegative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="toricgb",
        description="Exact toric ideal computations: Gröbner, Graver and "
        "universal bases, circuits, integer programming, Gröbner fans and "
        "regular triangulations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, weight=False):
        p.add_argument("matrix", help="configuration MatrixFile")
        if weight:
            p.add_argument("--weight", help="weight VectorListFile (one row)")
        p.add_argument("--json", action="store_true", help="JSON report")

    def vector_block(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--pretty", action="store_true", help="binomial rendering"
        )
        p.add_argument(
            "--max-degree",
            type=_cap,
            default=Budget.degree,
            help="largest degree of any element computed (default: unlimited)",
        )

    def tiebreak(p):
        p.add_argument(
            "--tiebreak",
            choices=("degrevlex", "lex"),
            default=None,
            help="tie-break order refining --weight (default degrevlex)",
        )

    def graver_cap(p):
        p.add_argument(
            "--max-graver-bits",
            type=_cap,
            default=None,
            help=f"Graver size cap for sign enumeration (default {Budget.graver})",
        )

    p = sub.add_parser("groebner", help="reduced Gröbner basis")
    common(p, weight=True)
    tiebreak(p)
    vector_block(p)
    for name, text in (("graver", "Graver basis"),
                       ("circuits", "circuits with true degrees")):
        p = sub.add_parser(name, help=text)
        common(p)
        vector_block(p)
    p = sub.add_parser("universal", help="universal Gröbner basis")
    common(p)
    vector_block(p)
    graver_cap(p)

    p = sub.add_parser("solve", help="integer program over a fiber")
    common(p, weight=True)
    p.add_argument("--rhs", required=True, help="right-hand side, comma separated")
    p.add_argument(
        "--max-fiber",
        type=_cap,
        default=Budget.points,  # the fiber-size default
        help="work budget of solve: search nodes (reduce) or S-pairs "
        f"(eliminate) (default {Budget.points})",
    )
    p.add_argument(
        "--method",
        choices=("reduce", "eliminate"),
        default="reduce",
        help="normal-form reduction or the elimination pipeline",
    )

    p = sub.add_parser("fan", help="Gröbner fan and triangulations")
    p.add_argument("mode", choices=("count", "cones", "triangulate"))
    common(p, weight=True)
    tiebreak(p)
    graver_cap(p)

    p = sub.add_parser("gen", help="write a generated configuration")
    p.add_argument(
        "kind",
        choices=(
            "segre",
            "hypersimplex2",
            "lawrence",
            "monomial-curve",
            "tt-graph",
            "transport",
        ),
    )
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--out", help="output path (default: stdout)")
    return top


# the flag that sets each guard a subcommand exposes
_LIMIT_FLAGS = {"degree": "--max-degree", "graver": "--max-graver-bits",
                "nodes": "--max-fiber", "pairs": "--max-fiber"}

_DISPATCH = {
    "groebner": cmd_groebner,
    "graver": cmd_graver,
    "circuits": cmd_circuits,
    "universal": cmd_universal,
    "solve": cmd_solve,
    "fan": cmd_fan,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return _DISPATCH[args.command](args)
    except ParseFailure as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except NonGenericOmega as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except LimitExceeded as e:
        flag = _LIMIT_FLAGS.get(e.guard)
        sys.stderr.write(f"error: {e}" + (f" ({flag})" if flag else "") + "\n")
        return 4
    except ToricError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
