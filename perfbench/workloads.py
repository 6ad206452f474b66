"""The three benchmark workloads: inputs from a seed, one pass, answer checks.

Each workload has three steps:

    prepare(tg, rng)  untimed: draw the inputs as plain tuples and work
                      out the reference answers the checks compare with;
    build(tg, spec)   timed as set-up: turn the plain inputs into the
                      objects the program takes (ConfigMatrix, files);
    run_pass(tg, inputs, out)
                      one pass; times each job, checks each answer and
                      records it in ``out``.

``tg`` holds the imported toricgb modules.  The program only ever sees
the generated inputs; the reference answers come from brute force
(fiber enumeration) or from values pinned below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from collections import Counter

# Elimination-pipeline pair budget for small-batch IP jobs.  A job that
# exceeds it ends in LimitExceeded and counts as failed, not as wrong.
PAIR_BUDGET = 20_000

# Facet-count multiset of the 108 maximal cones of the Segre 3x3 Groebner
# fan, as printed by `toricgb fan cones --json`.
SEGRE33_FACETS = {4: 102, 6: 6}

# Sorted oriented vectors of the reduced degrevlex basis of Segre 3x3x3.
SEGRE333_SHA256 = "5501130e3384b44855cd2feab715f45aec7a7fe7205e4753d79ed2e94e830096"


class Record:
    """What one run observed: job latencies by kind, failures, wrong answers."""

    def __init__(self, now):
        self.now = now  # the clock jobs are timed by
        self.latency = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        # a traced run swaps in Tracer.root, giving each job its own span
        self.span = lambda name: contextlib.nullcontext()

    def job(self, kind, seconds, ok, failed=False, detail=""):
        self.attempted += 1
        if failed:
            self.failed += 1
        else:
            self.latency.setdefault(kind, []).append(seconds)
            if not ok:
                self.wrong.append(f"{kind}: {detail}")


# ---------------------------------------------------------------------------
# Inputs.  Generators live here, not in the program, so the program only
# receives the generated matrices.


def segre(dims):
    """Columns e_i (+) e_j (+) ... of the Segre embedding, as matrix rows."""
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    cols = []
    for combo in itertools.product(*(range(m) for m in dims)):
        col = [0] * sum(dims)
        for off, i in zip(offsets, combo):
            col[off + i] = 1
        cols.append(col)
    return tuple(tuple(c[r] for c in cols) for r in range(sum(dims)))


def row_transform(rows, rng):
    """Same configuration written differently: the row space is unchanged.

    Shuffles the rows, adds +-1 multiples of rows to other rows and
    appends a dependent row.  The kernel lattice, the grading and every
    answer stay the same; only the matrix the program parses changes.
    """
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    for _ in range(len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        k = rng.choice((-1, 1))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    i, j = rng.sample(range(len(rows)), 2)
    rows.append([a + b for a, b in zip(rows[i], rows[j])])
    return tuple(tuple(r) for r in rows)


def _matrix_text(rows):
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(x) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fan-segre33: `toricgb fan cones --json` on Segre 3x3, in process.


class FanSegre33:
    name = "fan-segre33"

    def __init__(self, workdir):
        self.workdir = workdir

    def prepare(self, tg, rng):
        return row_transform(segre((3, 3)), rng)

    def build(self, tg, rows):
        path = os.path.join(self.workdir, "segre33.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_matrix_text(rows))
        return path

    def run_pass(self, tg, path, out):
        buf = io.StringIO()
        t0 = out.now()
        with contextlib.redirect_stdout(buf):
            rc = tg.cli.main(["fan", "cones", "--json", path])
        dt = out.now() - t0
        ok, detail = False, f"exit code {rc}"
        if rc == 0:
            cones = json.loads(buf.getvalue())["cones"]
            facets = Counter(c["facets"] for c in cones)
            ok = len(cones) == 108 and dict(facets) == SEGRE33_FACETS
            detail = f"{len(cones)} cones, facet counts {dict(sorted(facets.items()))}"
        out.job("pass", dt, ok, detail=detail)


# ---------------------------------------------------------------------------
# gb-segre333: toric_groebner on Segre 3x3x3.


def basis_digest(vectors):
    text = "\n".join(" ".join(map(str, v)) for v in sorted(vectors))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class GbSegre333:
    name = "gb-segre333"

    def __init__(self, workdir):
        self.workdir = workdir

    def prepare(self, tg, rng):
        return row_transform(segre((3, 3, 3)), rng)

    def build(self, tg, rows):
        return tg.toric.ConfigMatrix(rows)

    def run_pass(self, tg, A, out):
        t0 = out.now()
        G = tg.toric.toric_groebner(A)
        dt = out.now() - t0
        vectors = list(G.vectors)
        quadrics = all(sum(x for x in v if x > 0) == 2 for v in vectors)
        digest = basis_digest(vectors)
        ok = len(vectors) == 162 and quadrics and digest == SEGRE333_SHA256
        out.job("pass", dt, ok,
                detail=f"{len(vectors)} elements, quadrics {quadrics}, sha256 {digest}")


# ---------------------------------------------------------------------------
# small-batch: IP and triangulation jobs drawn like acceptance criteria 6
# and 8, in fixed quotas per shape so that the cost of a pass does not
# hinge on how many large shapes a seed happens to draw.
#
# Shapes whose cost has a heavy tail are left out, because one draw of
# them can take longer than the rest of a pass together (see
# perfbench/README.md): 3x3 transports (the Segre 3x3 configuration,
# which fan-segre33 covers), the elimination pipeline on one-row
# matrices of three or more columns, and 3x6 triangulations.

# (kind, rows, columns, with an elimination job)
IP_SHAPES = (("transport", 2, 2, True), ("transport", 2, 3, True),
             ("transport", 3, 2, True), ("row", 1, 2, True), ("row", 1, 3, False),
             ("row", 1, 4, False), ("row", 1, 5, False))
# (rows, columns)
TRI_SHAPES = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5))


IP_PER_SHAPE = 48
TRI_PER_SHAPE = 32
FIBER_CAP = 5000


def fiber_points(rows, b):
    """All x >= 0 with rows . x = b, for a nonnegative matrix; None past FIBER_CAP."""
    n = len(rows[0])
    cols = [tuple(r[j] for r in rows) for j in range(n)]
    points = []

    def walk(j, rest, x):
        if j == n:
            if not any(rest):
                points.append(tuple(x))
            return len(points) <= FIBER_CAP
        top = min((r // c for r, c in zip(rest, cols[j]) if c > 0), default=0)
        for v in range(top + 1):
            x.append(v)
            ok = walk(j + 1, tuple(r - v * c for r, c in zip(rest, cols[j])), x)
            x.pop()
            if not ok:
                return False
        return True

    return points if walk(0, tuple(b), []) else None


def degrevlex_key(omega):
    """Sort key of the order (omega, degrevlex): cost, then degree, then revlex."""
    def key(u):
        return (sum(w * x for w, x in zip(omega, u)), sum(u),
                tuple(-x for x in reversed(u)))
    return key


class SmallBatch:
    name = "small-batch"

    def __init__(self, workdir):
        self.workdir = workdir

    def prepare(self, tg, rng):
        jobs = []
        for shape in IP_SHAPES:
            for _ in range(IP_PER_SHAPE):
                rows, omega, b, best = self._draw_ip(rng, shape)
                jobs.append(("ip_reduce", rows, omega, b, best))
                if shape[3]:
                    jobs.append(("ip_elim", rows, omega, b, best))
        for shape in TRI_SHAPES:
            for _ in range(TRI_PER_SHAPE):
                rows, omega = self._draw_tri(tg, rng, *shape)
                jobs.append(("tri", rows, omega, None, True))
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _draw_ip(rng, shape):
        # criterion 6: cost in [-4, 6], feasible right-hand side from a
        # point in [0, 3]^n, fibers of at most 5000 points; the answer
        # is the fiber minimum, found by brute force
        kind, r, c, _ = shape
        while True:
            if kind == "transport":
                rows = segre((r, c))
            else:
                rows = (tuple(rng.randint(1, 8) for _ in range(c)),)
            x = tuple(rng.randint(0, 3) for _ in range(c if kind == "row" else r * c))
            b = tuple(sum(a * v for a, v in zip(row, x)) for row in rows)
            omega = tuple(rng.randint(-4, 6) for _ in x)
            points = fiber_points(rows, b)
            if points is not None:
                return rows, omega, b, min(points, key=degrevlex_key(omega))

    @staticmethod
    def _draw_tri(tg, rng, d, n):
        # criterion 8: all-ones row over random rows in [0, 4], the first
        # of up to eight weights in [-6, 6]^n that is generic
        while True:
            rows = ((1,) * n,) + tuple(
                tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d - 1))
            A = tg.toric.ConfigMatrix(rows)
            if A.d != d:
                continue
            for _ in range(8):
                omega = tuple(rng.randint(-6, 6) for _ in range(n))
                try:
                    tg.fan.check_radical_triangulation(A, omega)
                except tg.errors.NonGenericOmega:
                    continue
                return rows, omega

    def build(self, tg, jobs):
        built = []
        for kind, rows, omega, b, expect in jobs:
            A = tg.toric.ConfigMatrix(rows)
            arg = A if kind == "tri" else tg.ip.IPInstance(A, omega, b)
            built.append((kind, arg, omega, expect))
        return built

    def run_pass(self, tg, jobs, out):
        limit = tg.errors.LimitExceeded
        ip, fan = tg.ip, tg.fan
        for kind, arg, omega, expect in jobs:
            failed = False
            with out.span(f"job.{kind}"):
                t0 = out.now()
                try:
                    if kind == "ip_reduce":
                        got = ip.solve_ip(arg)
                    elif kind == "ip_elim":
                        got = ip.solve_ip_elimination(arg, max_pairs=PAIR_BUDGET)
                    else:
                        got = fan.check_radical_triangulation(arg, omega)
                except limit:
                    failed, got = True, None
                dt = out.now() - t0
            out.job(kind, dt, got == expect, failed=failed,
                    detail=f"got {got}, expected {expect}")


WORKLOADS = {w.name: w for w in (FanSegre33, GbSegre333, SmallBatch)}
