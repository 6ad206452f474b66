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
    Each subcommand, and each fan mode (count, cones, triangulate),
    declares in build_parser the flags it reads and no others; fan's
    flags follow its mode.  --out, --pretty and --max-degree belong to
    the subcommands that print a vector block (groebner, graver,
    circuits, universal); gen takes --out.  --weight is required by
    solve and fan triangulate and optional on groebner and fan cones.
    --tiebreak refines a weight order, so it is taken by groebner and
    fan cones, and only together with --weight.  On fan cones, --weight
    names one cone, so it excludes --max-walk.  Any other flag
    gets argparse's refusal, which names it, and exits 1.

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
default 200000) on solve only; --max-walk (nodes the Groebner-fan walk
enters in the sign tree of the Graver arrangement, default 100000) on
universal, fan count and fan cones without --weight only.  Each cap is
a nonnegative integer; a negative one exits 1.
universal's only Buchberger runs are graver's, so --max-degree trips on
both at the same point, read on the Lawrence lifting in the grading
that gives each lifted element (u, -u) the degree of u.  Exit 4 prints
the guard, its limit and how far the work got.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
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
    _sign_tree,
    circuits,
    graver,
    lawrence_lifting,
    toric_groebner,
)


class ParseFailure(Exception):
    """Malformed input file, bad generator parameters, or a file that
    cannot be read or written."""


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
    return write_vectors(M.entries)


def parse_vectors(text):
    return _parse_grid(text, "vector list", Fraction)


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
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise ParseFailure(f"cannot write {path}: {e.strerror}")


def _load_weight(path, n: int):
    rows = parse_vectors(_read(path))
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


def _segre(*dims):
    d = sum(dims)
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    cols = []
    for combo in itertools.product(*(range(m) for m in dims)):
        col = [0] * d
        for off, i in zip(offsets, combo):
            col[off + i] = 1
        cols.append(col)
    return IntMatrix(tuple(zip(*cols)))


def _hypersimplex2(d):
    cols = [[int(r in (i, j)) for r in range(d)]
            for i in range(d) for j in range(i + 1, d)]
    return IntMatrix(tuple(zip(*cols)))


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


def _tt_graph(s, l):
    if l % 2 == 0:
        raise ParseFailure("tt-graph needs an odd attached cycle length")
    nv, edges = tt_graph_edges(s, l)
    rows = [[0] * len(edges) for _ in range(nv)]
    for j, (a, b) in enumerate(edges):
        rows[a][j] += 1
        rows[b][j] += 1
    return IntMatrix(tuple(tuple(r) for r in rows))


# kind -> (least parameter count, most or None for no bound, least value
# of each integer parameter or None for a file name, builder); gen's
# parser takes its choices from here
GENERATORS = {
    "segre": (2, None, 1, _segre),
    "hypersimplex2": (1, 1, 2, _hypersimplex2),
    "lawrence": (1, 1, None, lambda path: lawrence_lifting(parse_matrix(_read(path)))),
    "monomial-curve": (1, None, 1, lambda *exps: IntMatrix((exps,))),
    "tt-graph": (2, 2, 3, _tt_graph),
    # the r x c transportation polytope's matrix is that of Segre r x c
    "transport": (2, 2, 1, _segre),
}


def generate(kind: str, params) -> IntMatrix:
    """The matrix of a GENERATORS kind, after one check of its parameters."""
    least, most, floor, build = GENERATORS[kind]
    if len(params) < least or most is not None and len(params) > most:
        count = least if least == most else f"at least {least}"
        raise ParseFailure(f"{kind} takes {count} parameter(s)")
    if floor is not None:
        try:
            params = [int(p) for p in params]
        except ValueError:
            raise ParseFailure(f"{kind} parameters must be integers")
        if min(params) < floor:
            raise ParseFailure(f"{kind} parameters must be at least {floor}")
    return build(*params)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _load_config(args) -> ConfigMatrix:
    return ConfigMatrix(parse_matrix(_read(args.matrix)))


def _weight_order(args, A: ConfigMatrix):
    """The --weight and its term order refined by --tiebreak, or (None, None)."""
    if args.weight is None:
        if args.tiebreak is not None:
            raise ParseFailure("--tiebreak needs --weight")
        return None, None
    w = _load_weight(args.weight, A.n)
    return w, term_order(A.n, weight=w, tiebreak=args.tiebreak or "degrevlex")


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
    _, order = _weight_order(args, A)
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


def cmd_universal(args) -> int:
    A = _load_config(args)
    budget = _lifted_budget(args, A, walk=args.max_walk)
    # the walk alone gives both: no witness or basis is built
    ugb, cells, _ = _sign_tree(A, budget)
    return _emit_block(args, A, ugb, initial_ideals=len(cells))


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
        report = {"command": "solve", "status": "optimal", "point": list(point),
                  "cost": cost_repr}
        _emit_report(report, True)
    else:
        sys.stdout.write("(" + ",".join(str(x) for x in point) + f") cost {cost_repr}\n")
    return 0


def cmd_fan_count(args) -> int:
    _, cells, _ = _sign_tree(_load_config(args), Budget(walk=args.max_walk))
    _emit_report({"command": "fan", "initial_ideals": len(cells)}, args.json)
    return 0


def cmd_fan_cones(args) -> int:
    A = _load_config(args)
    w, order = _weight_order(args, A)
    if order is None:
        witnesses = groebner_fan(A, Budget(walk=args.max_walk))
    else:
        # single cone at the given weight; enumeration would be wasteful
        witnesses = [(groebner_cone(toric_groebner(A, order)), w)]
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


def cmd_fan_triangulate(args) -> int:
    A = _load_config(args)
    delta = regular_triangulation(A, _load_weight(args.weight, A.n))
    facets = [",".join(str(i + 1) for i in f) for f in delta.facets]
    _emit_report({"command": "fan", "facets": facets}, args.json)
    return 0


def cmd_gen(args) -> int:
    _write(args.out, write_matrix(generate(args.kind, args.params)))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, in which each subcommand and fan mode declares its flags.

    It is built on the first call and shared by every later one: parsing
    leaves it unchanged.
    """
    top = argparse.ArgumentParser(
        prog="toricgb",
        description="Exact toric ideal computations: Gröbner, Graver and "
        "universal bases, circuits, integer programming, Gröbner fans and "
        "regular triangulations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def weight(p, required=False):
        p.add_argument("--weight", required=required, help="weight VectorListFile (one row)")

    def needs_weight(p):
        weight(p, required=True)

    def tiebreak(p):
        p.add_argument(
            "--tiebreak",
            choices=("degrevlex", "lex"),
            help="tie-break order refining --weight (default degrevlex)",
        )

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

    def walk_cap(p):
        p.add_argument(
            "--max-walk",
            type=_cap,
            default=Budget.walk,
            help=f"nodes the Gröbner-fan walk may enter (default {Budget.walk})",
        )

    def command(parent, name, run, text, *flags):
        p = parent.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("matrix", help="configuration MatrixFile")
        p.add_argument("--json", action="store_true", help="JSON report")
        for flag in flags:
            flag(p)
        return p

    command(sub, "groebner", cmd_groebner, "reduced Gröbner basis",
            weight, tiebreak, vector_block)
    command(sub, "graver", cmd_graver, "Graver basis", vector_block)
    command(sub, "circuits", cmd_circuits, "circuits with true degrees", vector_block)
    command(sub, "universal", cmd_universal, "universal Gröbner basis",
            vector_block, walk_cap)

    p = command(sub, "solve", cmd_solve, "integer program over a fiber", needs_weight)
    p.add_argument("--rhs", required=True, help="right-hand side, comma separated")
    # argparse reads a word that starts with "-" as a flag unless the
    # whole word is one number; a right-hand side such as -1,2 is a value
    p._negative_number_matcher = re.compile(r"^-\d")
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

    modes = sub.add_parser("fan", help="Gröbner fan and triangulations").add_subparsers(
        dest="mode", required=True)
    command(modes, "count", cmd_fan_count, "number of initial ideals", walk_cap)
    p = command(modes, "cones", cmd_fan_cones, "facet count and witness of each cone",
                tiebreak)
    # a weight names one cone, so no walk runs for the cap to limit
    one_or_all = p.add_mutually_exclusive_group()
    weight(one_or_all)
    walk_cap(one_or_all)
    command(modes, "triangulate", cmd_fan_triangulate, "regular triangulation at a weight",
            needs_weight)

    p = sub.add_parser("gen", help="write a generated configuration")
    p.set_defaults(run=cmd_gen)
    p.add_argument("kind", choices=GENERATORS)
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--out", help="output path (default: stdout)")
    return top


# the flag that sets each guard a subcommand exposes
_LIMIT_FLAGS = {"degree": "--max-degree", "nodes": "--max-fiber", "pairs": "--max-fiber",
                "walk": "--max-walk"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.run(args)
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
