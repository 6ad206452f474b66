"""End-to-end checks of the command line interface.

Every test drives main() in process and inspects stdout plus the exit
code, so the file formats, report rendering, and error mapping are all
exercised exactly as a shell user would see them.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricgb.cli import (
    generate,
    main,
    parse_matrix,
    parse_vectors,
    write_matrix,
    write_vectors,
    ParseFailure,
)
from toricgb import toric
from toricgb.buchberger import buchberger
from toricgb.exactmath import IntMatrix
from toricgb.fan import groebner_cone
from toricgb.orders import term_order

TWISTED_TEXT = "2 4\n1 1 1 1\n0 1 2 3\n"
QUARTIC_TEXT = "2 5\n1 1 1 1 1\n0 1 2 3 4\n"
LINE_TEXT = "1 2\n1 1\n"
B_TEXT = "2 5\n1 3 4 6 0\n0 0 0 -5 1\n"


@pytest.fixture
def twisted(tmp_path):
    p = tmp_path / "twisted.mat"
    p.write_text(TWISTED_TEXT)
    return str(p)


def wfile(tmp_path, entries, name="w.vec"):
    p = tmp_path / name
    p.write_text(f"1 {len(entries)}\n" + " ".join(str(x) for x in entries) + "\n")
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- file formats -----------------------------------------------------------


def test_matrix_round_trip():
    M = IntMatrix(((1, -2, 3), (0, 5, -7)))
    assert parse_matrix(write_matrix(M)).entries == M.entries


def test_vector_list_round_trip_with_rationals():
    rows = [(Fraction(1, 2), Fraction(-3), Fraction(7, 3))]
    parsed = parse_vectors(write_vectors(rows))
    assert parsed == [tuple(rows[0])]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseFailure, match="line 3: expected 3 entries, found 2"):
        parse_matrix("2 3\n1 2 3\n4 5\n")
    with pytest.raises(ParseFailure, match="line 4: trailing data"):
        parse_matrix("2 2\n1 2\n3 4\n5 6\n")
    with pytest.raises(ParseFailure, match="line 3: expected 2 rows, file ends early"):
        parse_matrix("2 2\n1 2\n")
    with pytest.raises(ParseFailure, match="line 1: matrix header"):
        parse_matrix("2\n1 2\n")
    with pytest.raises(ParseFailure, match="line 2: malformed entry"):
        parse_matrix("1 2\n1 x\n")


def test_cli_reports_parse_failure_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 3\n1 2 3\n4 5\n")
    rc, _, err = run(capsys, ["graver", str(bad)])
    assert rc == 1
    assert "line 3: expected 3 entries, found 2" in err


def test_cli_missing_file(capsys):
    rc, _, err = run(capsys, ["graver", "/nonexistent/path.mat"])
    assert rc == 1
    assert "cannot read" in err


# -- groebner ---------------------------------------------------------------


def test_groebner_with_unit_weight(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 1, 1, 1])
    rc, out, _ = run(capsys, ["groebner", twisted, "--weight", w])
    assert rc == 0
    assert out.startswith("3 4\n")
    assert "elements: 3" in out
    assert "max_degree: 2" in out


def test_groebner_pretty_rendering(twisted, tmp_path, capsys):
    rc, out, _ = run(capsys, ["groebner", twisted, "--pretty", "--out",
                              str(tmp_path / "gb.txt")])
    assert rc == 0
    text = (tmp_path / "gb.txt").read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert all(" - " in ln and ln.count("x") >= 2 for ln in lines)


def test_groebner_json_matches_text_report(twisted, tmp_path, capsys):
    sink = str(tmp_path / "v.out")
    rc, out_t, _ = run(capsys, ["groebner", twisted, "--out", sink])
    rc2, out_j, _ = run(capsys, ["groebner", twisted, "--out", sink, "--json"])
    assert rc == rc2 == 0
    report = json.loads(out_j)
    text = dict(
        ln.split(": ", 1) for ln in out_t.strip().splitlines()
    )
    assert report["elements"] == int(text["elements"])
    assert report["max_degree"] == int(text["max_degree"])
    assert " ".join(report["initial_ideal"]) == text["initial_ideal"]


def test_groebner_rational_weight(twisted, tmp_path, capsys):
    w = wfile(tmp_path, ["1/2", "1/2", "1/2", "1/2"])
    rc, out, _ = run(capsys, ["groebner", twisted, "--weight", w])
    assert rc == 0
    assert "elements: 3" in out


def test_groebner_weight_length_mismatch(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 2, 3])
    rc, _, err = run(capsys, ["groebner", twisted, "--weight", w])
    assert rc == 1
    assert "one row of 4 entries" in err


def test_groebner_non_pointed_is_domain_error(tmp_path, capsys):
    p = tmp_path / "np.mat"
    p.write_text("1 2\n1 -1\n")
    rc, _, err = run(capsys, ["groebner", str(p)])
    assert rc == 2
    assert "pointed" in err


def test_output_is_byte_deterministic(twisted, capsys):
    rc1, out1, _ = run(capsys, ["universal", twisted])
    rc2, out2, _ = run(capsys, ["universal", twisted])
    assert rc1 == rc2 == 0
    assert out1 == out2


# -- graver, circuits, universal --------------------------------------------


def test_graver_of_short_line(tmp_path, capsys):
    p = tmp_path / "line.mat"
    p.write_text("1 2\n1 2\n")
    rc, out, _ = run(capsys, ["graver", str(p)])
    assert rc == 0
    assert out.startswith("1 2\n2 -1\n")


def test_graver_of_lawrence_lifted_matrix(tmp_path, capsys):
    b = tmp_path / "B.mat"
    b.write_text(B_TEXT)
    lifted = tmp_path / "LB.mat"
    rc, _, _ = run(capsys, ["gen", "lawrence", str(b), "--out", str(lifted)])
    assert rc == 0
    M = parse_matrix(lifted.read_text())
    assert (M.nrows, M.ncols) == (7, 10)
    rc, out, _ = run(capsys, ["graver", str(lifted)])
    assert rc == 0
    assert "elements: 16" in out


def test_graver_degree_cap_is_resource_limit(tmp_path, capsys):
    b = tmp_path / "B.mat"
    b.write_text(B_TEXT)
    rc, _, err = run(capsys, ["graver", str(b), "--max-degree", "2"])
    assert rc == 4
    assert "max-degree" in err


def test_universal_degree_cap_trips_where_graver_does(twisted, tmp_path, capsys):
    # universal's only Buchberger work is its Graver step, so --max-degree
    # stops both subcommands at the same point, with the same message
    transport = str(tmp_path / "transport.mat")
    assert main(["gen", "transport", "2", "3", "--out", transport]) == 0
    codes = set()
    for path in (twisted, transport):
        for k in range(1, 9):
            cap = ["--max-degree", str(k)]
            rc, _, err = run(capsys, ["universal", path, *cap])
            assert (rc, err) == run(capsys, ["graver", path, *cap])[::2], (path, k)
            codes.add(rc)
    assert codes == {0, 4}


def test_circuits_of_twisted_cubic(twisted, capsys):
    rc, out, _ = run(capsys, ["circuits", twisted, "--json"])
    assert rc == 0
    vectors, report = out.split("\n{", 1)
    report = json.loads("{" + report)
    assert report["elements"] == 4
    assert report["max_true_degree"] == 3
    assert vectors.splitlines()[0] == "4 4"


def test_universal_of_twisted_cubic(twisted, capsys):
    rc, out, _ = run(capsys, ["universal", twisted])
    assert rc == 0
    assert out.startswith("5 4\n")
    assert "initial_ideals: 8" in out


def test_walk_cap_only_where_the_walk_runs(twisted, tmp_path, capsys):
    # the twisted cubic's walk enters 31 nodes
    for argv in (["universal", twisted], ["fan", "count", twisted],
                 ["fan", "cones", twisted]):
        rc, out, err = run(capsys, argv + ["--max-walk", "4"])
        assert (rc, out) == (4, "")
        assert err == "error: walk guard exceeded: reached 5, capped at 4 (--max-walk)\n"
        assert run(capsys, argv + ["--max-walk", "31"])[0] == 0
    w = wfile(tmp_path, [3, 0, 1, 7])
    for argv in (["groebner", twisted], ["graver", twisted],
                 ["circuits", twisted], ["solve", twisted, "--weight", w, "--rhs", "1,1"]):
        rc, _, err = run(capsys, argv + ["--max-walk", "4"])
        assert rc == 1
        assert "unrecognized arguments: --max-walk" in err
    # with --weight, fan walks nothing, so it refuses the cap
    for mode, message in (("triangulate", "unrecognized arguments: --max-walk"),
                          ("cones", "argument --max-walk: not allowed with "
                                    "argument --weight")):
        rc, _, err = run(capsys, ["fan", mode, twisted, "--weight", w, "--max-walk", "4"])
        assert rc == 1
        assert message in err
        assert run(capsys, ["fan", mode, twisted, "--weight", w])[0] == 0


def test_walk_cap_stops_a_walk_that_would_run_on(tmp_path, capsys):
    # Segre 2x2x3: 129 Graver vectors, then more than 788,970 nodes
    segre = str(tmp_path / "segre223.mat")
    assert main(["gen", "segre", "2", "2", "3", "--out", segre]) == 0
    rc, out, err = run(capsys, ["universal", segre, "--max-walk", "1000"])
    assert (rc, out) == (4, "")
    assert err == "error: walk guard exceeded: reached 1001, capped at 1000 (--max-walk)\n"


def test_the_default_walk_cap_admits_a_thirty_vector_arrangement(tmp_path, capsys):
    # the 30 Graver vectors of hypersimplex2 5 make a walk of 63,567 nodes
    path = str(tmp_path / "hypersimplex5.mat")
    assert main(["gen", "hypersimplex2", "5", "--out", path]) == 0
    rc, out, err = run(capsys, ["fan", "count", path])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5e545a7b874219e6d1a0d1b3d3a58ef1264c24af804c99cae4a59489605b9635")


@pytest.mark.parametrize("argv", [
    ["groebner", "{m}", "--max-degree"],
    ["universal", "{m}", "--max-degree"],
    ["fan", "count", "{m}", "--max-walk"],
    ["solve", "{m}", "--weight", "{w}", "--rhs", "1,0,1,0,0", "--max-fiber"],
])
def test_negative_cap_is_usage_error(tmp_path, capsys, argv):
    # a negative cap is a bad flag (exit 1), not a guard that tripped (exit 4)
    segre = str(tmp_path / "segre23.mat")
    assert main(["gen", "segre", "2", "3", "--out", segre]) == 0
    argv = [word.format(m=segre, w=wfile(tmp_path, [1] * 6)) for word in argv]
    rc, out, err = run(capsys, argv + ["-1"])
    assert (rc, out) == (1, "")
    assert f"argument {argv[-1]}: must be nonnegative, got -1" in err
    # 0 is a cap like any other
    rc, _, err = run(capsys, argv + ["0"])
    assert rc == 4 and f"capped at 0 ({argv[-1]})" in err


# -- solve ------------------------------------------------------------------


def test_solve_reports_optimum(tmp_path, capsys):
    p = tmp_path / "line.mat"
    p.write_text(LINE_TEXT)
    w = wfile(tmp_path, [1, 0])
    rc, out, _ = run(capsys, ["solve", str(p), "--weight", w, "--rhs", "5"])
    assert rc == 0
    assert out == "(0,5) cost 0\n"
    rc, out, _ = run(
        capsys,
        ["solve", str(p), "--weight", w, "--rhs", "5", "--method", "eliminate"],
    )
    assert rc == 0
    assert out == "(0,5) cost 0\n"


def test_solve_json_report(tmp_path, capsys):
    p = tmp_path / "line.mat"
    p.write_text(LINE_TEXT)
    w = wfile(tmp_path, [1, 0])
    rc, out, _ = run(
        capsys, ["solve", str(p), "--weight", w, "--rhs", "5", "--json"]
    )
    assert rc == 0
    assert json.loads(out) == {
        "command": "solve",
        "status": "optimal",
        "point": [0, 5],
        "cost": 0,
    }


def test_solve_infeasible_exit_code(tmp_path, capsys):
    p = tmp_path / "even.mat"
    p.write_text("1 2\n2 4\n")
    w = wfile(tmp_path, [1, 1])
    rc, out, _ = run(capsys, ["solve", str(p), "--weight", w, "--rhs", "5"])
    assert rc == 2
    assert out == "INFEASIBLE\n"
    rc, out, _ = run(
        capsys, ["solve", str(p), "--weight", w, "--rhs", "5", "--json"]
    )
    assert rc == 2
    assert json.loads(out)["status"] == "infeasible"


def test_solve_methods_agree_on_a_dependent_row(tmp_path, capsys):
    # the 2x2 transport: its column sums total its row sums, so the last
    # row depends on the others and the rhs must honour it
    p = tmp_path / "transport.mat"
    p.write_text("4 4\n1 1 0 0\n0 0 1 1\n1 0 1 0\n0 1 0 1\n")
    w = wfile(tmp_path, [3, 1, 2, 5])
    for method in ("reduce", "eliminate"):
        argv = ["solve", str(p), "--weight", w, "--method", method]
        rc, out, _ = run(capsys, argv + ["--rhs", "3,4,5,2"])
        assert (rc, out) == (0, "(1,2,4,0) cost 13\n"), method
        rc, out, _ = run(capsys, argv + ["--rhs", "3,4,5,3"])
        assert (rc, out) == (2, "INFEASIBLE\n"), method
        rc, out, _ = run(capsys, argv + ["--rhs", "3,4,5,3", "--json"])
        assert rc == 2, method
        assert json.loads(out) == {"command": "solve", "status": "infeasible"}


def test_solve_fiber_budget_exit_code(tmp_path, capsys):
    # 23 is the Frobenius number of 5 and 7: the fiber is empty, so the
    # start-point search cannot stop early
    p = tmp_path / "frobenius.mat"
    p.write_text("1 2\n5 7\n")
    w = wfile(tmp_path, [1, 0])
    rc, _, err = run(
        capsys,
        ["solve", str(p), "--weight", w, "--rhs", "23", "--max-fiber", "3"],
    )
    assert rc == 4
    assert "exceeded" in err


def test_eliminate_honours_the_fiber_budget_as_a_pair_cap(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [2, 1, 1, 3])
    argv = ["solve", twisted, "--weight", w, "--rhs", "4,5", "--method", "eliminate"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == "(0,3,1,0) cost 4\n"
    rc, out, err = run(capsys, argv + ["--max-fiber", "1"])
    assert rc == 4 and out == ""
    assert "exceeded" in err
    assert err == "error: pairs guard exceeded: reached 2, capped at 1 (--max-fiber)\n"


def test_prose_defaults_match_the_budget():
    # the cli docstring and the README write two defaults as literals;
    # each "default N" is read back in the text that follows its flag
    import toricgb.cli as cli
    from toricgb.errors import Budget

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    expected = {"--max-fiber": Budget.points, "--max-walk": Budget.walk}
    for text in (cli.__doc__, readme):
        flat = " ".join(text.split())
        flags = list(re.finditer(r"--max-[a-z-]+", flat))
        found = {}
        for here, after in zip(flags, flags[1:] + [None]):
            tail = flat[here.end():after.start() if after else len(flat)]
            default = re.search(r"default (\d+)", tail)
            if default and here.group() in expected:
                found.setdefault(here.group(), set()).add(int(default.group(1)))
        assert found == {flag: {value} for flag, value in expected.items()}


def test_fiber_budget_only_on_solve(twisted, capsys):
    for argv in (["groebner", twisted], ["graver", twisted],
                 ["circuits", twisted], ["universal", twisted],
                 ["fan", "count", twisted]):
        rc, _, err = run(capsys, argv + ["--max-fiber", "5"])
        assert rc == 1
        assert "unrecognized arguments: --max-fiber" in err


def test_solve_bad_rhs(tmp_path, capsys):
    p = tmp_path / "line.mat"
    p.write_text(LINE_TEXT)
    w = wfile(tmp_path, [1, 0])
    rc, _, err = run(capsys, ["solve", str(p), "--weight", w, "--rhs", "1,2"])
    assert rc == 1
    assert "right-hand side needs 1" in err


def test_solve_reads_a_negative_rhs_as_a_value(tmp_path, capsys):
    # argparse takes a word such as -1,2 for a flag unless it is told not to
    w = wfile(tmp_path, [1, 2, 3])
    for text, rhs, expected in (("2 3\n1 1 1\n0 1 -2\n", "-1,2", (2, "INFEASIBLE\n")),
                                ("2 3\n0 1 -2\n1 1 1\n", "-2,1", (0, "(0,0,1) cost 3\n"))):
        p = tmp_path / "neg.mat"
        p.write_text(text)
        head = ["solve", str(p), "--weight", w]
        assert run(capsys, head + ["--rhs", rhs]) == (*expected, "")
        assert run(capsys, head + [f"--rhs={rhs}"]) == (*expected, "")


# -- fan --------------------------------------------------------------------


def test_fan_count_twisted(twisted, capsys):
    rc, out, _ = run(capsys, ["fan", "count", twisted])
    assert rc == 0
    assert out == "command: fan\ninitial_ideals: 8\n"


def test_fan_count_rejects_weight(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 0, 0, 1])
    rc, out, err = run(capsys, ["fan", "count", twisted, "--weight", w])
    assert rc == 1
    assert out == ""
    assert "unrecognized arguments: --weight" in err


def test_fan_cones_enumerates_all_cells(twisted, capsys):
    rc, out, _ = run(capsys, ["fan", "cones", twisted])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(ln.startswith("facets ") and " witness " in ln for ln in lines)


def test_fan_single_cone_at_weight(tmp_path, capsys):
    m = tmp_path / "curve.mat"
    m.write_text("1 4\n15 247 248 345\n")
    w = wfile(tmp_path, [111, 0, 341, 1])
    rc, out, _ = run(capsys, ["fan", "cones", str(m), "--weight", w])
    assert rc == 0
    assert out == "facets 5 witness 111,0,341,1\n"


def test_fan_single_cone_honours_tiebreak(tmp_path, capsys):
    # the weight is not generic, so the tie-break decides the cone
    m = tmp_path / "quartic.mat"
    m.write_text(QUARTIC_TEXT)
    w = (0, 1, 1, 0, 0)
    A = toric.ConfigMatrix(((1, 1, 1, 1, 1), (0, 1, 2, 3, 4)))
    gens = toric.toric_generators(A)
    facets = {}
    for tie in ("degrevlex", "lex"):
        G = buchberger(gens, term_order(5, weight=w, tiebreak=tie))
        facets[tie] = groebner_cone(G).facet_count
    assert facets["degrevlex"] != facets["lex"]
    for tie in ("degrevlex", "lex"):
        rc, out, _ = run(capsys, ["fan", "cones", str(m), "--weight", wfile(tmp_path, w),
                                  "--tiebreak", tie])
        assert rc == 0
        assert out == f"facets {facets[tie]} witness 0,1,1,0,0\n"


def test_fan_cones_reuses_the_enumerated_bases(twisted, capsys, monkeypatch):
    calls = 0
    original = toric.toric_generators

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(toric, "toric_generators", counting)
    toric.universal_gb(toric.ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3))))
    by_universal, calls = calls, 0
    rc, _, _ = run(capsys, ["fan", "cones", twisted])
    assert rc == 0
    assert 0 < calls <= by_universal


def test_fan_triangulate(tmp_path, capsys):
    m = tmp_path / "seg.mat"
    m.write_text("2 3\n1 1 1\n0 1 2\n")
    w = wfile(tmp_path, [0, 0, 1])
    rc, out, _ = run(capsys, ["fan", "triangulate", str(m), "--weight", w])
    assert rc == 0
    assert out == "command: fan\nfacets: 1,2 2,3\n"


def test_fan_triangulate_degenerate_weight(tmp_path, capsys):
    m = tmp_path / "seg.mat"
    m.write_text("2 3\n1 1 1\n0 1 2\n")
    w = wfile(tmp_path, [0, 0, 0])
    rc, _, err = run(capsys, ["fan", "triangulate", str(m), "--weight", w])
    assert rc == 3
    assert "not generic" in err


def test_fan_triangulate_rejects_the_uncovered_square(tmp_path, capsys):
    # heights x^2 + y^2 lift the corners of the square onto one plane;
    # every edge of the square is shared with a triangle
    m = tmp_path / "square.mat"
    m.write_text("3 8\n1 1 1 1 1 1 1 1\n0 2 2 0 1 4 1 -2\n0 0 2 2 -2 1 4 1\n")
    w = wfile(tmp_path, [0, 4, 8, 4, 5, 17, 17, 5])
    rc, out, err = run(capsys, ["fan", "triangulate", str(m), "--weight", w])
    assert rc == 3
    assert out == ""
    assert "not generic" in err


def test_fan_triangulate_needs_weight(twisted, capsys):
    rc, _, err = run(capsys, ["fan", "triangulate", twisted])
    assert rc == 1
    assert "the following arguments are required: --weight" in err


# -- flags taken only where they are read ----------------------------------


# each parser as a valid argv, {m} standing for the matrix file and {w}
# for a weight file, with the flags it declares
PARSERS = {
    ("groebner", "{m}"): {"--json", "--weight", "--tiebreak", "--out", "--pretty",
                          "--max-degree"},
    ("graver", "{m}"): {"--json", "--out", "--pretty", "--max-degree"},
    ("circuits", "{m}"): {"--json", "--out", "--pretty", "--max-degree"},
    ("universal", "{m}"): {"--json", "--out", "--pretty", "--max-degree", "--max-walk"},
    ("solve", "{m}", "--weight", "{w}", "--rhs", "4,5"): {"--json", "--weight", "--rhs",
                                                          "--max-fiber", "--method"},
    ("fan", "count", "{m}"): {"--json", "--max-walk"},
    ("fan", "cones", "{m}"): {"--json", "--weight", "--tiebreak", "--max-walk"},
    ("fan", "triangulate", "{m}", "--weight", "{w}"): {"--json", "--weight"},
    ("gen", "segre", "2", "2"): {"--out"},
}

# every flag of the command line, with a value it takes; {o} is a path
# that no refused run may write.  --max-graver-bits, the Graver-size cap
# that --max-walk replaced, is declared by no parser, so each refuses it
FLAGS = {"--json": (), "--pretty": (), "--weight": ("{w}",), "--tiebreak": ("lex",),
         "--out": ("{o}",), "--max-degree": ("3",), "--max-walk": ("9",),
         "--max-graver-bits": ("9",), "--max-fiber": ("5",), "--rhs": ("4,5",),
         "--method": ("reduce",)}

REFUSALS = [(head + (flag, *FLAGS[flag]), f"unrecognized arguments: {flag}")
            for head, declared in PARSERS.items() for flag in FLAGS if flag not in declared]
REFUSALS += [
    (("fan", "cones", "{m}", "--weight", "{w}", "--max-walk", "9"),
     "argument --max-walk: not allowed with argument --weight"),
    (("fan", "cones", "{m}", "--max-walk", "9", "--weight", "{w}"),
     "argument --weight: not allowed with argument --max-walk"),
    (("fan", "cones", "{m}", "--weight", "{w}", "--max-graver-bits", "9"),
     "unrecognized arguments: --max-graver-bits"),
    (("solve", "{m}", "--rhs", "4,5"), "the following arguments are required: --weight"),
    (("fan", "triangulate", "{m}"), "the following arguments are required: --weight"),
    (("fan", "{m}"), "argument mode: invalid choice"),
]


@pytest.mark.parametrize("argv, message", REFUSALS,
                         ids=["-".join(w.strip("{-}") for w in argv) for argv, _ in REFUSALS])
def test_each_parser_refuses_every_flag_it_does_not_declare(twisted, tmp_path, capsys,
                                                            argv, message):
    words = {"m": twisted, "w": wfile(tmp_path, [1, 0, 0, 1]), "o": str(tmp_path / "o.txt")}
    rc, out, err = run(capsys, [word.format(**words) for word in argv])
    assert (rc, out) == (1, "")
    assert message in err
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("parser", [
    (), ("groebner",), ("graver",), ("circuits",), ("universal",), ("solve",), ("fan",),
    ("fan", "count"), ("fan", "cones"), ("fan", "triangulate"), ("gen",),
], ids=lambda parser: " ".join(parser) or "toricgb")
def test_each_parser_prints_its_help(capsys, parser):
    rc, out, err = run(capsys, [*parser, "--help"])
    assert (rc, err) == (0, "")
    assert out.startswith(" ".join(("usage: toricgb", *parser)))


def test_report_only_subcommands_refuse_vector_flags(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 0, 0, 1])
    sink = str(tmp_path / "sink.txt")
    for argv in (["solve", twisted, "--weight", w, "--rhs", "4,5"],
                 ["fan", "count", twisted],
                 ["fan", "cones", twisted],
                 ["fan", "triangulate", twisted, "--weight", w]):
        for flag in (["--max-degree", "0"], ["--pretty"], ["--out", sink]):
            rc, out, err = run(capsys, argv + flag)
            assert rc == 1, argv + flag
            assert out == ""
            assert f"unrecognized arguments: {flag[0]}" in err
    assert not (tmp_path / "sink.txt").exists()


def test_solve_refuses_tiebreak_and_needs_weight(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 0, 0, 1])
    rc, out, err = run(capsys, ["solve", twisted, "--weight", w, "--rhs", "4,5",
                                "--tiebreak", "lex"])
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --tiebreak" in err
    rc, out, err = run(capsys, ["solve", twisted, "--rhs", "4,5"])
    assert rc == 1 and out == ""
    assert "the following arguments are required: --weight" in err


def test_tiebreak_only_refines_a_weight(twisted, tmp_path, capsys):
    w = wfile(tmp_path, [1, 0, 0, 1])
    for argv, message in (
        (["fan", "count", twisted], "unrecognized arguments: --tiebreak"),
        (["fan", "triangulate", twisted, "--weight", w],
         "unrecognized arguments: --tiebreak"),
        (["fan", "cones", twisted], "--tiebreak needs --weight"),
        (["groebner", twisted], "--tiebreak needs --weight"),
    ):
        for tie in ("degrevlex", "lex"):
            rc, out, err = run(capsys, argv + ["--tiebreak", tie])
            assert rc == 1 and out == ""
            assert message in err


def test_groebner_honours_tiebreak(tmp_path, capsys):
    # the weight is not generic, so the tie-break decides the basis
    m = tmp_path / "quartic.mat"
    m.write_text(QUARTIC_TEXT)
    w = (0, 1, 1, 0, 0)
    gens = toric.toric_generators(toric.ConfigMatrix(parse_matrix(QUARTIC_TEXT)))
    blocks = {}
    for tie in ("degrevlex", "lex"):
        G = buchberger(gens, term_order(5, weight=w, tiebreak=tie))
        blocks[tie] = write_vectors(G.vectors)
    assert blocks["degrevlex"] != blocks["lex"]
    for tie in ("degrevlex", "lex"):
        rc, out, _ = run(capsys, ["groebner", str(m), "--weight", wfile(tmp_path, w),
                                  "--tiebreak", tie])
        assert rc == 0
        assert out.startswith(blocks[tie])


# -- gen --------------------------------------------------------------------


def test_gen_segre_shape(capsys):
    rc, out, _ = run(capsys, ["gen", "segre", "3", "3"])
    assert rc == 0
    M = parse_matrix(out)
    assert (M.nrows, M.ncols) == (6, 9)
    assert all(sum(M.col(j)) == 2 for j in range(9))


def test_gen_hypersimplex_shape(capsys):
    rc, out, _ = run(capsys, ["gen", "hypersimplex2", "4"])
    assert rc == 0
    M = parse_matrix(out)
    assert (M.nrows, M.ncols) == (4, 6)
    assert all(sum(M.col(j)) == 2 for j in range(6))


def test_gen_transport_shape(capsys):
    rc, out, _ = run(capsys, ["gen", "transport", "2", "3"])
    assert rc == 0
    M = parse_matrix(out)
    assert (M.nrows, M.ncols) == (5, 6)


def test_gen_tt_graph_shape_and_degrees(capsys):
    rc, out, _ = run(capsys, ["gen", "tt-graph", "3", "3"])
    assert rc == 0
    M = parse_matrix(out)
    assert (M.nrows, M.ncols) == (9, 12)
    # each column is an edge, so every column sums to two
    assert all(sum(M.col(j)) == 2 for j in range(12))
    # central-cycle vertices carry two cycle edges plus two attachment edges
    degrees = [sum(row) for row in M.entries]
    assert degrees[:3] == [4, 4, 4]
    assert all(d == 2 for d in degrees[3:])


def test_gen_tt_graph_rejects_even_attached_cycle(capsys):
    rc, _, err = run(capsys, ["gen", "tt-graph", "3", "4"])
    assert rc == 1
    assert "odd" in err


def test_gen_monomial_curve(capsys):
    rc, out, _ = run(capsys, ["gen", "monomial-curve", "1", "2", "3"])
    assert rc == 0
    assert parse_matrix(out).entries == ((1, 2, 3),)


def test_gen_bad_parameters(capsys):
    rc, _, err = run(capsys, ["gen", "transport", "2"])
    assert rc == 1
    assert "takes 2 parameter" in err


@pytest.mark.parametrize("gen, message", [
    (("segre", "2"), "segre takes at least 2 parameter(s)"),
    (("segre", "2", "0"), "segre parameters must be at least 1"),
    (("hypersimplex2", "1"), "hypersimplex2 parameters must be at least 2"),
    (("hypersimplex2", "4", "5"), "hypersimplex2 takes 1 parameter(s)"),
    (("monomial-curve",), "monomial-curve takes at least 1 parameter(s)"),
    (("monomial-curve", "3", "x"), "monomial-curve parameters must be integers"),
    (("tt-graph", "3", "2"), "tt-graph parameters must be at least 3"),
    (("transport", "2", "3", "4"), "transport takes 2 parameter(s)"),
    (("lawrence",), "lawrence takes 1 parameter(s)"),
    (("lawrence", "/nonexistent/path.mat"), "cannot read"),
])
def test_each_generator_checks_its_parameters_once(capsys, gen, message):
    with pytest.raises(ParseFailure, match=re.escape(message)):
        generate(*gen[:1], gen[1:])
    rc, out, err = run(capsys, ["gen", *gen])
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {message}")


# -- golden outputs ---------------------------------------------------------

# SHA-256 of stdout on the matrix from `gen segre 3 3`, pinned on the
# sign-pattern enumeration that ran Buchberger in every cell.
SEGRE33_GOLDEN = {
    ("fan", "cones", "--json"): "ad7d57fdb76d7242abd4c29ad7577fc30aff61a786c3265a7cce93dbe1471afa",
    ("fan", "cones"): "2ae17aca8d3c12f4e20fc31286f147fe8d501fb7fa1c8571871a5bf1bb0e685c",
    ("universal",): "27d3208abbe418a3f79d7dce61167f4a42af767182766b1433b38e7f78ed2fdd",
}


@pytest.fixture(scope="module")
def segre33(tmp_path_factory):
    p = tmp_path_factory.mktemp("golden") / "segre33.mat"
    assert main(["gen", "segre", "3", "3", "--out", str(p)]) == 0
    return str(p)


@pytest.mark.parametrize("command", sorted(SEGRE33_GOLDEN))
def test_segre33_output_is_pinned(segre33, capsys, command):
    rc, out, _ = run(capsys, [*command, segre33])
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == SEGRE33_GOLDEN[command]


# -- dispatch ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [("gen", "segre", "2", "2"), ("graver", "{m}")])
def test_unwritable_out_is_an_error_line(twisted, tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.mat"
    rc, out, err = run(capsys, [w.format(m=twisted) for w in argv] + ["--out", str(path)])
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_calls_in_one_process_print_what_fresh_processes_print(twisted, tmp_path, capsys):
    # main builds its parser once and reuses it, so each call must print
    # the bytes a process of its own prints, a refusal included
    w = wfile(tmp_path, [1, 0, 0, 1])
    calls = [["groebner", twisted, "--weight", w, "--tiebreak", "lex", "--json"],
             ["fan", "cones", "--json", twisted],
             ["fan", "count", twisted, "--weight", w],
             ["graver", twisted, "--pretty"]]
    env = {**os.environ, "PYTHONPATH": str(Path(toric.__file__).parents[1])}
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "toricgb.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert run(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_generator_kind(capsys):
    assert main(["gen", "mystery", "3"]) == 1
    capsys.readouterr()


def test_gen_refuses_json(capsys):
    rc, out, err = run(capsys, ["gen", "segre", "2", "2", "--json"])
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --json" in err


def test_threads_flag_is_gone(twisted, capsys):
    assert main(["graver", twisted, "--threads", "2"]) == 1
    capsys.readouterr()
