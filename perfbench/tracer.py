"""Span tracing of toricgb from outside the package.

The tracer wraps a fixed set of public functions of each toricgb module
in the benchmark process; no source file changes.  The modules import
names directly (``from .exactmath import strict_feasible``), so a
wrapper is installed in every module namespace that bound the original
object, and ``TermOrder.key`` and ``ConfigMatrix.__init__`` are patched
on their classes.

Each call records one span: name, start, end and the index of the span
open when it began (its parent), in flat arrays kept in memory until the
run ends.  The benchmark opens root spans around the set-up, the pass
and each small-batch job, so every span leads back to what caused it.  A few wrappers also
count facts about their arguments or results (constraints fed to
Fourier-Motzkin, generators in and basis elements out of Buchberger,
S-pairs that reduce to nothing, ...).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from collections import defaultdict

# (module, attribute, span name).  "Class.method" patches the class.
TRACED = (
    ("exactmath", "feasible_witness", "exactmath.feasible_witness"),
    ("exactmath", "strict_feasible", "exactmath.strict_feasible"),
    ("exactmath", "is_irredundant", "exactmath.is_irredundant"),
    ("exactmath", "solve_affine", "exactmath.solve_affine"),
    ("exactmath", "hnf", "exactmath.hnf"),
    ("exactmath", "kernel_lattice_basis", "exactmath.kernel_lattice_basis"),
    ("orders", "TermOrder.key", "orders.key"),
    ("buchberger", "buchberger", "buchberger.buchberger"),
    ("buchberger", "s_binomial", "buchberger.s_binomial"),
    ("buchberger", "normal_form", "buchberger.normal_form"),
    ("toric", "ConfigMatrix.__init__", "toric.ConfigMatrix"),
    ("toric", "saturate_variable", "toric.saturate_variable"),
    ("toric", "toric_generators", "toric.toric_generators"),
    ("toric", "graver", "toric.graver"),
    ("toric", "universal_gb", "toric.universal_gb"),
    ("fan", "groebner_cone", "fan.groebner_cone"),
    ("fan", "regular_triangulation", "fan.regular_triangulation"),
    ("fan", "stanley_reisner", "fan.stanley_reisner"),
    ("ip", "solve_ip", "ip.solve_ip"),
    ("ip", "solve_ip_elimination", "ip.solve_ip_elimination"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans in flat arrays plus named counters, for one process."""

    def __init__(self, now):
        self.now = now  # the clock spans are timed by
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self._bases = set()  # (universal_gb span, basis) pairs seen

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself, around a set-up, pass or job."""
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.now())
        try:
            yield
        finally:
            self.end[i] = self.now()
            self.stack.pop()

    def wrap(self, span, fn, observe=None):
        nid = self._id(span)
        stack, names, parents = self.stack, self.name, self.parent
        starts, ends, now = self.start, self.end, self.now

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = now()
                stack.pop()
                if observe is not None:
                    observe(self, i, args, None, exc)
                raise
            ends[i] = now()
            stack.pop()
            if observe is not None:
                observe(self, i, args, result, None)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every function in TRACED; returns a callable that undoes it."""
        modules = [m for k, m in sys.modules.items() if k.startswith("toricgb.")]
        undo = []
        for mod_name, attr, span in TRACED:
            owner = sys.modules[f"toricgb.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, original, OBSERVERS.get(span)))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span, original, OBSERVERS.get(span))
            for m in modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, original))

        def uninstall():
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

        return uninstall

    def totals(self):
        """Per span name: (calls, self seconds)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        own = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            own[name] += dur[i] - child[i]
        return {k: (calls[k], own[k]) for k in calls}

    def write(self, path):
        """All spans as gzipped tab-separated lines, start times relative."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for i, (nid, p, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{self.names[nid]}\t{p}\t{s - t0:.9f}\t{e - t0:.9f}\n")


# ---------------------------------------------------------------------------
# Counters recorded at the span boundaries.


def _feasible_witness(t, i, args, result, exc):
    t.counts["exactmath.feasible_witness.constraints_in"] += len(args[0])


def _strict_feasible(t, i, args, result, exc):
    if result is not None:
        t.counts["exactmath.strict_feasible.feasible"] += 1


def _buchberger(t, i, args, result, exc):
    t.counts["buchberger.buchberger.gens_in"] += len(args[0])
    if result is None:
        return
    t.counts["buchberger.buchberger.elements_out"] += len(result)
    parent = t.parent[i]
    if parent >= 0 and t.names[t.name[parent]] == "toric.universal_gb":
        t.counts["toric.universal_gb.cells"] += 1
        # the same basis comes back sorted differently under each order
        t._bases.add((parent, tuple(sorted(result.vectors))))
        t.counts["toric.universal_gb.distinct"] = len(t._bases)


def _s_binomial(t, i, args, result, exc):
    if result is None:
        t.counts["buchberger.s_binomial.zero"] += 1


def _solve_ip_elimination(t, i, args, result, exc):
    # by name: each set-up round imports the package, and its classes, afresh
    if exc is not None and type(exc).__name__ == "LimitExceeded":
        t.counts["ip.solve_ip_elimination.limit"] += 1


OBSERVERS = {
    "exactmath.feasible_witness": _feasible_witness,
    "exactmath.strict_feasible": _strict_feasible,
    "buchberger.buchberger": _buchberger,
    "buchberger.s_binomial": _s_binomial,
    "ip.solve_ip_elimination": _solve_ip_elimination,
}


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics: name -> (value, unit)."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0))[0]

    def self_s(name):
        return tot.get(name, (0, 0.0))[1]

    m = {}
    for _, _, span in TRACED:
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_s"] = (self_s(span), "s")
    m["exactmath.feasible_witness.constraints_in"] = (
        c["exactmath.feasible_witness.constraints_in"], "count")
    m["exactmath.strict_feasible.feasible_frac"] = (
        _frac(c["exactmath.strict_feasible.feasible"],
              calls("exactmath.strict_feasible")), "frac")
    m["buchberger.buchberger.gens_in"] = (c["buchberger.buchberger.gens_in"], "count")
    m["buchberger.buchberger.elements_out"] = (
        c["buchberger.buchberger.elements_out"], "count")
    m["buchberger.s_binomial.zero_frac"] = (
        _frac(c["buchberger.s_binomial.zero"], calls("buchberger.s_binomial")), "frac")
    m["toric.universal_gb.cells"] = (c["toric.universal_gb.cells"], "count")
    m["toric.universal_gb.distinct_frac"] = (
        _frac(c["toric.universal_gb.distinct"], c["toric.universal_gb.cells"]), "frac")
    m["ip.solve_ip_elimination.limit_frac"] = (
        _frac(c["ip.solve_ip_elimination.limit"],
              calls("ip.solve_ip_elimination")), "frac")
    return m
