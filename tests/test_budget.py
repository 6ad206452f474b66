"""The run's Budget: each guard trips while the work runs, and names itself.

The last tests read the source: two keep the limits in one Budget
instead of spreading back into keyword arguments, one keeps every
Budget field checked by some loop and every limit flag declared, one
keeps every parameter read, so that no flag is silently ignored, two
keep every import in use and at module level, one keeps toric from
importing fan, which imports it, two keep the reference
implementations of toricgb.oracle, Fourier-Motzkin elimination among
them, out of the production modules, one keeps every function the
benchmark's tracer wraps in place, one keeps every private function
and private-class method called from production code, and one keeps
every public exactmath function and IntMatrix member called from
production code or wrapped by the tracer.
"""

import argparse
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import toricgb
from toricgb import cli, toric
from toricgb.buchberger import buchberger
from toricgb.cli import generate
from toricgb.errors import Budget, DimensionMismatch, LimitExceeded
from toricgb.fan import check_radical_triangulation
from toricgb.ip import IPInstance, fiber, solve_ip, solve_ip_elimination
from toricgb.orders import degrevlex, term_order
from toricgb.toric import (
    ConfigMatrix,
    circuits,
    graver,
    is_unimodular,
    toric_generators,
    toric_groebner,
    true_degree,
    universal_gb,
)

from test_toric import record_calls

TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
LINE = ConfigMatrix(((1, 1),))
FROBENIUS = ConfigMatrix(((5, 7),))
# the B matrix of tests/test_cli.py; its grading is (5, 15, 20, 15, 3)
B = ConfigMatrix(((1, 3, 4, 6, 0), (0, 0, 0, -5, 1)))


def tripped(run):
    with pytest.raises(LimitExceeded) as exc:
        run()
    e = exc.value
    return e.guard, e.limit, e.reached


@pytest.mark.parametrize("run, expected", [
    (lambda: buchberger(toric_generators(TWISTED), degrevlex(4), Budget(elements=1)),
     ("elements", 1, 2)),
    (lambda: buchberger(toric_generators(TWISTED), degrevlex(4), Budget(pairs=1)),
     ("pairs", 1, 2)),
    # the kernel basis holds an element of degree 3; the reduced basis does not
    (lambda: toric_groebner(TWISTED, None, Budget(degree=1)), ("degree", 1, 3)),
    (lambda: fiber(LINE, (100,), Budget(points=10)), ("points", 10, 11)),
    # 23 is the Frobenius number of 5 and 7, so the fiber is empty and
    # the start-point search cannot stop early
    (lambda: solve_ip(IPInstance(FROBENIUS, (1, 0), (23,)), Budget(nodes=3)),
     ("nodes", 3, 4)),
    (lambda: circuits(TWISTED, Budget(subsets=3)), ("subsets", 3, 4)),
    # the twisted cubic's walk enters 31 nodes
    (lambda: universal_gb(TWISTED, Budget(walk=4)), ("walk", 4, 5)),
], ids=["elements", "pairs", "degree", "points", "nodes", "subsets", "walk"])
def test_each_field_trips_with_guard_limit_and_reach(run, expected):
    assert tripped(run) == expected


def test_limit_exceeded_prints_its_three_fields():
    e = LimitExceeded("pairs", 1, 2)
    assert str(e) == "pairs guard exceeded: reached 2, capped at 1"


def test_subset_scans_check_their_size_first():
    # C(4, 3) = 4 column triples for the circuit scans, C(4, 2) = 6 bases
    budget = Budget(subsets=3)
    assert tripped(lambda: circuits(TWISTED, budget)) == ("subsets", 3, 4)
    assert tripped(lambda: true_degree((1, -2, 1, 0), TWISTED, budget)) == ("subsets", 3, 4)
    assert tripped(lambda: is_unimodular(TWISTED, budget)) == ("subsets", 3, 6)
    assert tripped(lambda: check_radical_triangulation(TWISTED, (0, 1, 3, 0), budget)) == (
        "subsets", 3, 6)


def test_circuit_degree_is_checked_as_each_circuit_is_found():
    # the twisted cubic's circuits have degrees 2, 3, 3, 2
    assert len(circuits(TWISTED, Budget(degree=3))) == 4
    assert tripped(lambda: circuits(TWISTED, Budget(degree=2))) == ("degree", 2, 3)


def test_graver_degree_cap_stops_the_first_lifted_run(monkeypatch):
    # a check on the output would let all 8 lifted runs finish first
    runs = record_calls(monkeypatch, toric, "_groebner")
    budget = Budget(degree=2, grading=B.grading + (0,) * 5)
    assert tripped(lambda: graver(B, budget))[:2] == ("degree", 2)
    assert len(runs) == 1


def test_the_y_run_measures_the_substituted_degree(monkeypatch):
    # the saturation of Segre 3x3 runs on a tenth variable y that stands
    # for x2 x5 x6 x7; budget.grading gains y's degree, the sum of the
    # grading over those columns, for that run only, and the canonical
    # run gets it back unchanged.  A first run by x8 came before it
    A = ConfigMatrix(generate("segre", (3, 3)))
    g = tuple(range(1, 10))
    runs = record_calls(monkeypatch, toric, "_groebner")
    toric_generators(A, Budget(degree=10**6, grading=g))
    assert [args[2].grading for args in runs] == [g + (3 + 6 + 7 + 8,), g]
    # degree 5 is first reached in the y-run, the first run.  Measured in
    # A's grading it is the degree of the substituted lead, which the
    # order's top row also gives when no grading is named.  The trip is
    # the one two runs made, in their second run
    for grading in (A.grading, None):
        runs.clear()
        budget = Budget(degree=4, grading=grading)
        assert tripped(lambda: toric_generators(A, budget)) == ("degree", 4, 5)
        assert len(runs) == 1


def test_degree_without_a_grading_is_the_first_weight_row():
    # the twisted cubic's basis under (2, -1, 0, 3) refining degrevlex
    # has leads (0, 1, 0, 1), (1, 0, 1, 0) and (1, 0, 0, 1): total degree
    # 2 each, but 2, 2 and 5 in the weight row, which the run measures
    gens = toric_generators(TWISTED)
    order = term_order(4, weight=(2, -1, 0, 3))
    assert tripped(lambda: buchberger(gens, order, Budget(degree=2))) == ("degree", 2, 5)
    assert tripped(lambda: buchberger(gens, order, Budget(degree=-1))) == ("degree", -1, 2)


def test_grading_of_the_wrong_length_is_refused():
    with pytest.raises(DimensionMismatch):
        graver(B, Budget(degree=100, grading=B.grading))


def test_universal_gb_budget_reaches_its_graver_step(monkeypatch):
    raised = []
    real = toric.graver

    def watching(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except LimitExceeded as e:
            raised.append(e)
            raise

    monkeypatch.setattr(toric, "graver", watching)
    with pytest.raises(LimitExceeded) as exc:
        universal_gb(TWISTED, Budget(elements=1))
    assert raised == [exc.value]


def test_universal_gb_budget_reaches_every_buchberger_run(monkeypatch):
    # every run is graver's, on the Lawrence lifting in 8 variables: the
    # saturation through y and the canonical run.  A saturation by one
    # column came first when the saturation took two runs ([8, 9, 8]),
    # and before the cells read their bases off the Graver basis, A's own
    # pipeline and one run per cell came on top
    runs = record_calls(monkeypatch, toric, "_groebner")
    universal_gb(TWISTED, Budget(elements=99))
    assert [args[1].n for args in runs] == [9, 8]
    assert all(args[2].elements == 99 for args in runs)


def test_the_walk_guard_trips_in_the_walk():
    # Segre 2x2x3 has 129 Graver vectors and a walk of more than 788,970
    # nodes; the guard stops it at the 1,001st, after graver has answered
    A = ConfigMatrix(generate("segre", ("2", "2", "3")))
    with pytest.raises(LimitExceeded) as exc:
        universal_gb(A, Budget(walk=1000))
    e = exc.value
    assert (e.guard, e.limit, e.reached) == ("walk", 1000, 1001)
    assert [entry.name for entry in exc.traceback[-2:]] == ["descend", "check"]


def test_start_point_search_takes_the_budget():
    # the fiber search caps its nodes as well as its points
    assert tripped(lambda: fiber(LINE, (100,), Budget(nodes=10)))[:2] == ("nodes", 10)
    assert tripped(lambda: solve_ip(IPInstance(TWISTED, (2, 1, 1, 3), (4, 5)),
                                    Budget(elements=1)))[:2] == ("elements", 1)


def test_elimination_keeps_its_pair_keyword():
    inst = IPInstance(TWISTED, (2, 1, 1, 3), (4, 5))
    assert solve_ip_elimination(inst) == (0, 3, 1, 0)
    assert tripped(lambda: solve_ip_elimination(inst, Budget(pairs=1)))[:2] == ("pairs", 1)
    # the keyword replaces the budget's pair cap
    assert tripped(lambda: solve_ip_elimination(inst, Budget(pairs=10**6), max_pairs=1))[:2] == (
        "pairs", 1)


# -- the budget stays in one place ------------------------------------------

PRODUCTION = sorted(
    p for p in Path(toricgb.__file__).parent.glob("*.py") if p.name != "oracle.py"
)


def test_no_limit_keyword_outside_the_budget():
    found = []
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg.startswith("max_"):
                        found.append((path.name, node.name, arg.arg))
    # perfbench/workloads.py still passes max_pairs
    assert found == [("ip.py", "solve_ip_elimination", "max_pairs")]


def test_every_guard_is_checked_and_every_limit_flag_is_declared():
    # a field that no budget.check names, or a flag mapped to a guard
    # that nothing checks, is a knob that limits no work
    checked = set()
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "check"
                    and getattr(node.func.value, "id", None) == "budget"):
                checked.add(ast.literal_eval(node.args[0]))
    fields = {field.name for field in dataclasses.fields(Budget)} - {"grading"}
    assert checked == fields
    declared, parsers = set(), [cli.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            declared.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    assert set(cli._LIMIT_FLAGS) <= fields
    assert set(cli._LIMIT_FLAGS.values()) <= declared


def test_every_parameter_is_read():
    # a parameter that no body reads, nested functions included, is an
    # ignored flag
    functions, ignored = 0, []
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            functions += 1
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            ignored += [(path.name, getattr(node, "name", "<lambda>"), p)
                        for p in params if p not in read]
    assert functions > 100 and ignored == []


def test_every_limit_is_raised_with_its_three_fields():
    sites = []
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc if isinstance(node.exc, ast.Call) else None
            if getattr(call.func if call else node.exc, "id", None) != "LimitExceeded":
                continue
            assert call is not None and len(call.args) == 3 and not call.keywords, (
                path.name, node.lineno)
            sites.append(path.name)
    # Budget.check alone
    assert sorted(sites) == ["errors.py"]


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(Path(toricgb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(Path(toricgb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [(path.name, node.name, inner.lineno)
                           for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_production_module_imports_the_oracle():
    found = []
    for path in PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("oracle" in m.split(".") for m in modules):
                found.append((path.name, node.lineno))
    assert found == []


def test_toric_does_not_import_fan():
    # fan imports toric, so an import back would make a cycle
    tree = ast.parse((Path(toricgb.__file__).parent / "toric.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("fan" in m.split(".") for m in modules):
            found.append(node.lineno)
    assert found == []


FOURIER_MOTZKIN = {"_normalize_constraint", "_dedupe", "_eliminate",
                   "feasible_witness_by_elimination", "strict_feasible_by_elimination"}


def test_fourier_motzkin_lives_in_the_oracle_only():
    def defined(name):
        tree = ast.parse((Path(toricgb.__file__).parent / name).read_text())
        return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    assert FOURIER_MOTZKIN <= defined("oracle.py")
    assert not FOURIER_MOTZKIN & defined("exactmath.py")


def test_every_traced_function_exists():
    # perfbench/tracer.py wraps these by name; a deletion would break --trace
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    traced = ast.literal_eval(next(
        node.value for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]))
    missing = []
    for module, attr, _ in traced:
        owner = importlib.import_module(f"toricgb.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append((module, attr))
    assert len(traced) >= 20 and missing == []


def test_every_private_function_has_a_production_caller():
    # a private helper that only the oracle or the tests call is dead
    # weight in the engine; it belongs in toricgb.oracle
    trees = {path.name: ast.parse(path.read_text()) for path in PRODUCTION}
    named, read = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    checked, unused, anywhere = 0, [], named | read
    for name, tree in trees.items():
        # a method of a private class is used when read as an attribute
        methods = {id(method): f"{node.name}.{method.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name.startswith("_")
                   for method in node.body if isinstance(method, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            if id(node) in methods:
                used = node.name in read
            elif node.name.startswith("_"):
                used = node.name in anywhere
            else:
                continue
            checked += 1
            if not used:
                unused.append((name, methods.get(id(node), node.name)))
    assert checked > 40 and unused == []


def test_every_public_exactmath_function_has_a_production_caller():
    # exactmath's public functions and IntMatrix's members are used by
    # production code outside the oracle, or kept only because the
    # benchmark's tracer wraps them (kernel_lattice_basis, solve_affine)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    traced = {attr for module, attr, _ in ast.literal_eval(next(
        node.value for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]))
        if module == "exactmath"}
    named, read = set(), set()
    for production in PRODUCTION:
        for node in ast.walk(ast.parse(production.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    tree = ast.parse((Path(toricgb.__file__).parent / "exactmath.py").read_text())
    functions = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    matrix = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "IntMatrix")
    members = [name for name in (node.name if isinstance(node, ast.FunctionDef) else node.target.id
                                 for node in matrix.body
                                 if isinstance(node, (ast.FunctionDef, ast.AnnAssign)))
               if not name.startswith("__")]
    unused = [name for name in functions if name not in named | read | traced]
    unused += [f"IntMatrix.{name}" for name in members
               if name not in read and f"IntMatrix.{name}" not in traced]
    assert len(functions) > 10 and len(members) > 5 and unused == []
