"""Byte-for-byte pins of CLI output on a table of generated inputs.

Each case runs one command in process and pins the SHA-256 of its
stdout, the SHA-256 of its stderr, and its exit code, so a change to
any printed basis, initial ideal, facet count, witness, triangulation,
integer-program optimum, refusal or generated matrix fails here.  A
change that moves a digest on purpose says which, and why, in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from toricgb.cli import main, parse_matrix

# gen arguments of each input configuration
INPUTS = {
    "segre23": ("segre", "2", "3"),
    "segre33": ("segre", "3", "3"),
    "transport23": ("transport", "2", "3"),
    "curve345": ("monomial-curve", "3", "4", "5"),
    "hypersimplex4": ("hypersimplex2", "4"),
}


def weight(n):
    """A weight with ties, so that the tie-break decides some leads."""
    return tuple((3 * j) % 5 for j in range(n))


def square_weight(n):
    """The weight j^2, generic for fan triangulate on every input."""
    return tuple(j * j for j in range(n))


# {m} stands for the matrix file, {w} and {s} for the weight files of
# weight and square_weight, and {b} for the right-hand side A.(1, ..., 1)
COMMANDS = {
    "groebner": ("groebner", "{m}"),
    "groebner-w": ("groebner", "{m}", "--weight", "{w}"),
    "groebner-w-lex": ("groebner", "{m}", "--weight", "{w}", "--tiebreak", "lex"),
    "cones-w": ("fan", "cones", "{m}", "--weight", "{w}"),
    "cones-w-lex": ("fan", "cones", "{m}", "--weight", "{w}", "--tiebreak", "lex"),
    "triangulate-w": ("fan", "triangulate", "{m}", "--weight", "{w}"),
    "triangulate-sq": ("fan", "triangulate", "{m}", "--weight", "{s}"),
    "solve-reduce": ("solve", "{m}", "--weight", "{w}", "--rhs", "{b}", "--method", "reduce"),
    "solve-eliminate": ("solve", "{m}", "--weight", "{w}", "--rhs", "{b}",
                        "--method", "eliminate"),
}

# (input, command) -> (stdout SHA-256, stderr SHA-256, exit code)
GOLDEN = {
    ("segre23", "groebner"): (
        "a46183969ec957723af88a54482d7d3c09de3ef14f60922ddfb82c233c4d16f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "groebner-w"): (
        "a46183969ec957723af88a54482d7d3c09de3ef14f60922ddfb82c233c4d16f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "groebner-w-lex"): (
        "8042d4362f9b7963f172143724a62ecf72a16cb9c310196eb1883e2bfa36c304",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3da8499bfcc3a8c5831633ee1a8c7aff40c1b82002f2060050ea7da8aecbdca4", 3),
    ("segre23", "triangulate-sq"): (
        "229cd4de7260cae4305f229a2bf59ac4a18412c3e769d2e9bdab98b3804eeb73",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "solve-reduce"): (
        "9134777e841a90a495af392295eb5a5c4f90fd7f08f93a44dc5a1be83f65d529",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "solve-eliminate"): (
        "9134777e841a90a495af392295eb5a5c4f90fd7f08f93a44dc5a1be83f65d529",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "groebner"): (
        "7a0325e28ed6bf6aaff0e0b1a94443491f8b569f951e70788b638edaf6d958a7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "groebner-w"): (
        "58d9ce1a77e33c06dc813a53fe4308fad572b5b0c73dee935d07a2391f5cb763",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "groebner-w-lex"): (
        "c252fbad61f9e4a00046cc95a342fccb11dd176e47301113b2f5aca80f15a95f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w"): (
        "9e3c280c718bedadf8452ce2b9849cef123eaf04858384393fb186731adadc0a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w-lex"): (
        "d44d8a7eb88dd79cdccd01df761018ef24412104a80f3b95bf38aa9d9ce6fe0e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5886b040d5fd9afd2491f7362d7050d890d67b7c0962d0053a4541a34e2e75f8", 3),
    ("segre33", "triangulate-sq"): (
        "1a049a7a824e474fe03f38eddd98c776c2817a62632318c4eb9ab1d745b5513d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "solve-reduce"): (
        "c2f6e450c4753a4d69f952d5c156c6196430962eb775f82ebbdc47ad408d682b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "solve-eliminate"): (
        "c2f6e450c4753a4d69f952d5c156c6196430962eb775f82ebbdc47ad408d682b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "groebner"): (
        "a46183969ec957723af88a54482d7d3c09de3ef14f60922ddfb82c233c4d16f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "groebner-w"): (
        "a46183969ec957723af88a54482d7d3c09de3ef14f60922ddfb82c233c4d16f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "groebner-w-lex"): (
        "8042d4362f9b7963f172143724a62ecf72a16cb9c310196eb1883e2bfa36c304",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3da8499bfcc3a8c5831633ee1a8c7aff40c1b82002f2060050ea7da8aecbdca4", 3),
    ("transport23", "triangulate-sq"): (
        "229cd4de7260cae4305f229a2bf59ac4a18412c3e769d2e9bdab98b3804eeb73",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "solve-reduce"): (
        "9134777e841a90a495af392295eb5a5c4f90fd7f08f93a44dc5a1be83f65d529",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "solve-eliminate"): (
        "9134777e841a90a495af392295eb5a5c4f90fd7f08f93a44dc5a1be83f65d529",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "groebner"): (
        "8473716d50347dd917c4af42db47076b7d0da4ef081b22225850bb6447f9762f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "groebner-w"): (
        "3a1cd6f65e6b803eea5c23ac89a70e083529318ba6a2c897cd8bf8a714177aeb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "groebner-w-lex"): (
        "3a1cd6f65e6b803eea5c23ac89a70e083529318ba6a2c897cd8bf8a714177aeb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w"): (
        "01d960dbcbf41fae225840d82b62467d4741f185c25970d3fed155632f063a0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w-lex"): (
        "01d960dbcbf41fae225840d82b62467d4741f185c25970d3fed155632f063a0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "triangulate-w"): (
        "db2e74417912c53528d1f9b90c2f1a295adb18bc6953a09d0572016aa94b520d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "triangulate-sq"): (
        "db2e74417912c53528d1f9b90c2f1a295adb18bc6953a09d0572016aa94b520d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "solve-reduce"): (
        "0ab23f4d3874056640b15d465c43211da54cb441df1e4f61798b91ef8679fb58",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "solve-eliminate"): (
        "0ab23f4d3874056640b15d465c43211da54cb441df1e4f61798b91ef8679fb58",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "groebner"): (
        "887457c5e41ca560527b6e9a89c58cf37459d4aecc4b8081380f4b69d6ca64e1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "groebner-w"): (
        "887457c5e41ca560527b6e9a89c58cf37459d4aecc4b8081380f4b69d6ca64e1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "groebner-w-lex"): (
        "fd60158765cf521c1899838980454c40729d3029cbc2ede664e4e275b8361b27",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "triangulate-w"): (
        "fb5af3f66fdadc6894848d5af7de4f545640d0a8ac09cb74db899b78030efd24",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "triangulate-sq"): (
        "2ba3ab8460ec27ff88bde7cd2eb6c62808137111c729523183fe0d479fc8cc47",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "solve-reduce"): (
        "2fd0f1d43b533995290cb754d69a8b2aa31ee976ed912545ae2c11427453c768",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "solve-eliminate"): (
        "2fd0f1d43b533995290cb754d69a8b2aa31ee976ed912545ae2c11427453c768",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}

# gen arguments -> (stdout SHA-256, stderr SHA-256, exit code)
GEN_GOLDEN = {
    ("segre", "1", "1"): (
        "15acaca8db8effd834952f77f3216ce9a8c0c67c649a3c87b2d5a0044486b916",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre", "2", "3"): (
        "4e531ef8cd961605b5609d13eb39b6718575b190bb28960093d8c292673af2b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre", "3", "2"): (
        "2436b6e7c82fcabc4ccd3ce4bc55ae04099b511614ca0c791faa8b3b0c31aaa3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre", "3", "3"): (
        "7f3a6612968528a1d914d1f3bbdb7af03b7aaf4e45f0c59e144ca815550d15cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport", "1", "1"): (
        "15acaca8db8effd834952f77f3216ce9a8c0c67c649a3c87b2d5a0044486b916",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport", "2", "3"): (
        "4e531ef8cd961605b5609d13eb39b6718575b190bb28960093d8c292673af2b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport", "3", "2"): (
        "2436b6e7c82fcabc4ccd3ce4bc55ae04099b511614ca0c791faa8b3b0c31aaa3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport", "3", "3"): (
        "7f3a6612968528a1d914d1f3bbdb7af03b7aaf4e45f0c59e144ca815550d15cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(capsys, argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return digest(out.out), digest(out.err), rc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, gen in INPUTS.items():
        mat = root / f"{name}.mat"
        assert main(["gen", *gen, "--out", str(mat)]) == 0
        rows = parse_matrix(mat.read_text()).entries
        n = len(rows[0])
        words = {"m": str(mat), "b": ",".join(str(sum(row)) for row in rows)}
        for key, w in (("w", weight(n)), ("s", square_weight(n))):
            vec = root / f"{name}.{key}.vec"
            vec.write_text(f"1 {n}\n" + " ".join(map(str, w)) + "\n")
            words[key] = str(vec)
        paths[name] = words
    return paths


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_command_output_is_pinned(inputs, capsys, case):
    name, command = case
    argv = [word.format(**inputs[name]) for word in COMMANDS[command]]
    assert run(capsys, argv) == GOLDEN[case]


@pytest.mark.parametrize("gen", sorted(GEN_GOLDEN), ids="-".join)
def test_generated_matrix_is_pinned(capsys, gen):
    assert run(capsys, ["gen", *gen]) == GEN_GOLDEN[gen]


def test_table_covers_every_case():
    assert set(GOLDEN) == {(i, c) for i in INPUTS for c in COMMANDS}
    assert set(GEN_GOLDEN) == {(kind, str(r), str(c)) for kind in ("segre", "transport")
                               for r, c in ((1, 1), (2, 3), (3, 2), (3, 3))}
