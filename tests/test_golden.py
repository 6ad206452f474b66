"""Byte-for-byte pins of CLI output on a table of generated inputs.

Each case runs one command in process and pins the SHA-256 of its
stdout, the SHA-256 of its stderr, and its exit code, so a change to
any printed basis, initial ideal, facet count, witness, triangulation,
integer-program optimum, refusal or generated matrix fails here.  A
change that moves a digest on purpose says which, and why, in
CHANGES.md.  Every case runs again on each input with its rows
rewritten by additions, and every case whose command takes negative
entries runs a third time with rows subtracted as well; neither
rewrite may change a byte.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from toricgb.cli import generate, main, parse_matrix, write_vectors
from toricgb.toric import ConfigMatrix, degree_bound

# gen arguments of each input configuration
INPUTS = {
    "segre23": ("segre", "2", "3"),
    "segre33": ("segre", "3", "3"),
    "transport23": ("transport", "2", "3"),
    "curve345": ("monomial-curve", "3", "4", "5"),
    "hypersimplex4": ("hypersimplex2", "4"),
    "segre222": ("segre", "2", "2", "2"),
    "segre24": ("segre", "2", "4"),
    "curve3_7_8_11": ("monomial-curve", "3", "7", "8", "11"),
    "ttgraph33": ("tt-graph", "3", "3"),
    # {segre23} stands for the matrix file of that input
    "lawrence23": ("lawrence", "{segre23}"),
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
    "graver": ("graver", "{m}"),
    "circuits": ("circuits", "{m}"),
    "universal": ("universal", "{m}"),
    "count": ("fan", "count", "{m}"),
    "cones": ("fan", "cones", "{m}"),
    "cones-json": ("fan", "cones", "--json", "{m}"),
    "cones-w": ("fan", "cones", "{m}", "--weight", "{w}"),
    "cones-w-lex": ("fan", "cones", "{m}", "--weight", "{w}", "--tiebreak", "lex"),
    "cones-w-json": ("fan", "cones", "--json", "{m}", "--weight", "{w}"),
    "cones-w-lex-json": ("fan", "cones", "--json", "{m}", "--weight", "{w}",
                         "--tiebreak", "lex"),
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
    ("segre23", "universal"): (
        "06c5ac84fd0212f70b97942eb1fc2010c6a608c4007ce19838734ef614dc7596",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "count"): (
        "29ea4f6f6619c60300006f29b6e63be3aa04ed6f5fb66e8ba827948f995c0d50",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones"): (
        "77215c8e87d696ba6c60bec76b18e637938cc0325f3e46ed15798551d3b6a9cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-json"): (
        "f48a199f11b601ec1b7803f51c25f4598713bcf599b3439b184eab9e68ed7ead",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "cones-w-lex-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
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
    ("segre33", "universal"): (
        "27d3208abbe418a3f79d7dce61167f4a42af767182766b1433b38e7f78ed2fdd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "count"): (
        "206d00f15a0ebe325f0e0e09129faf1fcc4101c471fd2a550fe49edb05ef781b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones"): (
        "2ae17aca8d3c12f4e20fc31286f147fe8d501fb7fa1c8571871a5bf1bb0e685c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-json"): (
        "ad7d57fdb76d7242abd4c29ad7577fc30aff61a786c3265a7cce93dbe1471afa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w"): (
        "9e3c280c718bedadf8452ce2b9849cef123eaf04858384393fb186731adadc0a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w-lex"): (
        "d44d8a7eb88dd79cdccd01df761018ef24412104a80f3b95bf38aa9d9ce6fe0e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w-json"): (
        "c0debb5df9ebf77442f86ab90fcfaaf08179da73f7535f7eb2ef66efcbb2feb2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "cones-w-lex-json"): (
        "378aa9927f84ca7887ef2b2ecef4b5a0df951f537ef234498b71e8eb1c2aee87",
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
    ("transport23", "universal"): (
        "06c5ac84fd0212f70b97942eb1fc2010c6a608c4007ce19838734ef614dc7596",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "count"): (
        "29ea4f6f6619c60300006f29b6e63be3aa04ed6f5fb66e8ba827948f995c0d50",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones"): (
        "77215c8e87d696ba6c60bec76b18e637938cc0325f3e46ed15798551d3b6a9cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-json"): (
        "f48a199f11b601ec1b7803f51c25f4598713bcf599b3439b184eab9e68ed7ead",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "cones-w-lex-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
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
    ("curve345", "universal"): (
        "f4294d58f644dce0189862f20938aac5365f448402b1d7bf4226c78f2e5294ff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "count"): (
        "d3036e2fe11f2ec0e1c0ea7a9c68aa84a1c1973ff084a77370584403cb83d264",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones"): (
        "2f3c5d03fc38430ef5fc00abcf0df31d38b4f9a5c52d3fba957597bc4c71c38c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-json"): (
        "4072887b1d16ce35a014ee07c2c9c16adc596173c84dc6ca14fe3afe3abd7dc7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w"): (
        "01d960dbcbf41fae225840d82b62467d4741f185c25970d3fed155632f063a0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w-lex"): (
        "01d960dbcbf41fae225840d82b62467d4741f185c25970d3fed155632f063a0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w-json"): (
        "e0890b795e89e5fafef3786207be0449325ede25db1ec66c0597bbda99ee6e92",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "cones-w-lex-json"): (
        "e0890b795e89e5fafef3786207be0449325ede25db1ec66c0597bbda99ee6e92",
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
    ("hypersimplex4", "universal"): (
        "25f14846c50718ec2a7b2c454ff6f53c83bda4e52b99e748f81afa912e2bc9d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "count"): (
        "b11a69a84793e8355e4f27978630a1feb7e05296dfa7b986b90dd2d8749a992b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones"): (
        "4a0c9399b40a5a9f50753d5741faf40accb848eac88b3e8c17625a26b65bbf2b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-json"): (
        "22714585afdbd229ea958ce06358fd116c8fc7e5f654538f611faf02ff275243",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w-lex"): (
        "1caef08051165f13e7fae96c2242de5318a2c727ef646cd39c15eda89fe8f2e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "cones-w-lex-json"): (
        "ef79d6bade7edbf9e2604868adf3d58f7068f31ab4aa2a599eda2161ea5cc837",
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
    ("segre222", "groebner"): (
        "4995125f545622060a067eb612fef9e650a5fd05aac5fb4c75d3dc1b309cb7f4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "groebner-w"): (
        "608692582168eba15c6857de751c7f5221360a3fae8bf254d2cf02ea4203d710",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "groebner-w-lex"): (
        "3d796544353988112a98dfcc053aafb6ab9539b19fae88e4f7af52c5c3564d6e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "universal"): (
        "1a3680ca6c0df45753cee7648dd284e68f85b331579e1d548c063b65f8ef5bc8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "count"): (
        "3e1d093964fcb7460704458335e977a01eaa8834c57cdc067af66c89f941a6a7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones"): (
        "7b70c0963fd167310df72390542bd314a095a68b8088933aac62e26f02a62dc2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones-json"): (
        "09370f0aa2470db30c770cca014cb4856db793c89f2549e068d05c5d269e5d6b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones-w"): (
        "b1558fabb190c81439820ec9789b720352c9f2274e05c3bf5b21020de45ae1e2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones-w-lex"): (
        "b1558fabb190c81439820ec9789b720352c9f2274e05c3bf5b21020de45ae1e2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones-w-json"): (
        "c501c170874ac3f137abb5bd8abf86bc64bb15d90d043694200311989dc30c2a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "cones-w-lex-json"): (
        "c501c170874ac3f137abb5bd8abf86bc64bb15d90d043694200311989dc30c2a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9d8ed3e8299bd76dbb42b023794abf19f18845bd30aef8e1e0a9eb0b37d298d3", 3),
    ("segre222", "triangulate-sq"): (
        "45c6b5ca3c6b6e57a5840e239e83999593ccc76ad6cc45d4083acc5a25474721",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "solve-reduce"): (
        "dd6b34792e317bd528e524f9a3a9804de50c5580749d454db916c1a521bfddc0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "solve-eliminate"): (
        "dd6b34792e317bd528e524f9a3a9804de50c5580749d454db916c1a521bfddc0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "groebner"): (
        "e20cd885d7b728cefdd6377e3cf9ba6bf860660bc46ff834ae6b0034b67088a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "groebner-w"): (
        "182b462214b79d59510adf0936eeaeff3b718bc7175442c0a4528424aaabac78",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "groebner-w-lex"): (
        "159681db8eadd638a02f6d8bb1225ac9ceb1de2df6cc790023a86072f02a53d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "universal"): (
        "ad4ba069bdb83d809838eda6e7158e07f28562edc6b5b60d3de5d7a8801ce65a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "count"): (
        "c853249dfe99ecc132ca6a80b8d061b5f79281e7189214333bc87b3028615ca4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones"): (
        "55c50da019116d2e87624eea9d4666c57e2ea9e517785fc4aa5ff7c70c652ef8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones-json"): (
        "596d5b4b79e0037c9a07b20c17116ddc9d40608dbf87da0408360cc0d22869e7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones-w"): (
        "03cb6124ae6c4ada49a0e4f64c496250dcc9827882f3a5d022cd1b1316595b29",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones-w-lex"): (
        "03cb6124ae6c4ada49a0e4f64c496250dcc9827882f3a5d022cd1b1316595b29",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones-w-json"): (
        "c116498921a67557fbcb44116cedf1d626789693e7ef9dfde478748f0557b407",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "cones-w-lex-json"): (
        "c116498921a67557fbcb44116cedf1d626789693e7ef9dfde478748f0557b407",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1c561b97f9bcddc94d5d388927128d7db817b70c8feb604bd61cf1e20ce2584d", 3),
    ("segre24", "triangulate-sq"): (
        "986b9435d2793cb541cd2b8384d9cf28145c271edb45d255e7af87de183aa890",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "solve-reduce"): (
        "581a837fdd9db41141e4561ddf113854e11a2581d8283eabe7513d4a50f56b15",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "solve-eliminate"): (
        "581a837fdd9db41141e4561ddf113854e11a2581d8283eabe7513d4a50f56b15",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "graver"): (
        "0436fced2452e283107016080fd9d3a09ae1b3af6224d8450dab7b7dca43de6e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre23", "circuits"): (
        "e29b9e1d62c840225c5a63c6387bc77d4a3690e796bff27423894079f9747654",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "graver"): (
        "0add49f387edb881b623b2de1c2dae3d764c8b4fceec35aa9b807d9ca0aec451",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre33", "circuits"): (
        "18388bf821640b53cf7f5e9e5bc799c2682a2ed1e958481f8b8c8744740f4a4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "graver"): (
        "0436fced2452e283107016080fd9d3a09ae1b3af6224d8450dab7b7dca43de6e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("transport23", "circuits"): (
        "e29b9e1d62c840225c5a63c6387bc77d4a3690e796bff27423894079f9747654",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "graver"): (
        "083f7e31854ff502593e995bfd6833e6a0d2751f8cdc5b307c888f961e83d558",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve345", "circuits"): (
        "c1f01af52f653bcd3a15a1fd7190a362e1ddd49f7150635aabea408228587ecf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "graver"): (
        "c7168ddf5811be56cb39b9ab13fb52c86143733618efc68e1aa0fb69990bef14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex4", "circuits"): (
        "708acc6edbd460da5888137809bcd2e06afba3fec475dfd7c2db044506a28fc1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "graver"): (
        "8ee7a0a82046e27ea4f297d2bbddc56a063400330d9595eaad178e22b9e0e966",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre222", "circuits"): (
        "37144e0d261799b8f50f93a705d5d198f0a62212af073df43a28a4068e6bb45c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "graver"): (
        "82621dabeb8520fc8e69933737c5eb3400eb79b64be6cdd8119c430dd30e880e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre24", "circuits"): (
        "0d4248e8201a8af800dee843f3e4f9d1cf184382f23156a0751a96652e321f1c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "groebner"): (
        "699f1c8702ec61c958e521be3333bb001750735b8d87ef4b874717b8e86fe631",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "groebner-w"): (
        "2dd5929dea35820e7c130494acc1ba287eac1f6698e731db28d8d1c19c51d8dc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "groebner-w-lex"): (
        "2dd5929dea35820e7c130494acc1ba287eac1f6698e731db28d8d1c19c51d8dc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "graver"): (
        "f9d8e835144f441c3136c392c475d0208d8f83f715264e3df39b19376f0b9a87",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "circuits"): (
        "2ab94d698a686b7318f1ad45fc93f7bfc196f2d294261dae28daaa30cd18b1b7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "universal"): (
        "52f1a102dcd16ae7a1257cf315bf7e818ce178ca0869d5a19b8d1d858cea3eed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "count"): (
        "d69b4ecc279dd93008d8d15aef6115023f57f3c8f757d99de309c3d0d1a89230",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones"): (
        "fe725f8e491962d3cb30b4f51cb6b9ae5bd55a395438fce3ac33eb4e76d9df19",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones-json"): (
        "89b3043cab2b91c06940b4dce0651b9f875a508510415c8bc47bb4b98ad69e64",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones-w"): (
        "ad701423f01803a58392f55e1e6abf0e85f9fe1467d235b18ddf60467ffe67ca",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones-w-lex"): (
        "ad701423f01803a58392f55e1e6abf0e85f9fe1467d235b18ddf60467ffe67ca",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones-w-json"): (
        "38ed413377bff2e615c2a8a72d90c955c86f0de0467628fa6ad0435ab991f6ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "cones-w-lex-json"): (
        "38ed413377bff2e615c2a8a72d90c955c86f0de0467628fa6ad0435ab991f6ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "triangulate-w"): (
        "db2e74417912c53528d1f9b90c2f1a295adb18bc6953a09d0572016aa94b520d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "triangulate-sq"): (
        "db2e74417912c53528d1f9b90c2f1a295adb18bc6953a09d0572016aa94b520d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "solve-reduce"): (
        "612b3f9b3b03a4df2304a497d368b9ccf3a9c5604d4d44a509f08126ca9e2ba9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("curve3_7_8_11", "solve-eliminate"): (
        "612b3f9b3b03a4df2304a497d368b9ccf3a9c5604d4d44a509f08126ca9e2ba9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "groebner"): (
        "1b6fd9fb38b21248da61c3c284a70e6736cf111522c2656a7d0b4f0e73188b52",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "groebner-w"): (
        "ef004b0b7a20d811ed23df6b549bd78db31682a2f641133e5347d67c788d5767",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "groebner-w-lex"): (
        "ef004b0b7a20d811ed23df6b549bd78db31682a2f641133e5347d67c788d5767",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "graver"): (
        "9743590add53ff2fafa5139b9f65f7b4dcd5405ddfb53c9251c81d39bfa382f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "circuits"): (
        "43ee4ab147cd9f898693fe4c861f5190f2300d00b87b48ec0e47eedc283cda61",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "universal"): (
        "90e373ab25e0cc30fd3c3e65c391a1c1d56c2701cc71fcf7096c011c9fcebb8a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "count"): (
        "608f7c97c98d3f62f5c13c54136716b3643de2f166e2b5da1950c1afba52cf95",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones"): (
        "999c543baf681ee5a98322b9a759550d17e622160f81c7562aec22c4ce17809a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones-json"): (
        "032412191845a902d433562fe41c24c25db060f3a14d9c8f8d6984513495f9dc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones-w"): (
        "f40d3986939c376506f12b8cd9f7401665b11e7865d0d4c9f1a5afb118fb1325",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones-w-lex"): (
        "f40d3986939c376506f12b8cd9f7401665b11e7865d0d4c9f1a5afb118fb1325",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones-w-json"): (
        "35a9129ed39148f08e0e79db142601c360e26f6ebb53f532e2b269de13567923",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "cones-w-lex-json"): (
        "35a9129ed39148f08e0e79db142601c360e26f6ebb53f532e2b269de13567923",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "triangulate-w"): (
        "739179d310fe1b9fcb1bebde253107706d108e58bbab72b4415a3cf9de86aceb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "triangulate-sq"): (
        "739179d310fe1b9fcb1bebde253107706d108e58bbab72b4415a3cf9de86aceb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "solve-reduce"): (
        "76212c76b629c3b8fc6a1722a09af4fd100cb290fc0cfd779e062fdf41457a87",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("ttgraph33", "solve-eliminate"): (
        "76212c76b629c3b8fc6a1722a09af4fd100cb290fc0cfd779e062fdf41457a87",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "groebner"): (
        "ceffbd78c6ca1ec631a36f020a02d18377dbb8e7758d053afbd0b8d089075e2a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "groebner-w"): (
        "387b5c64f5e969ee2c52c72b5868f6cdf6e4cff3b2837ec0c58416e473e03e14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "groebner-w-lex"): (
        "387b5c64f5e969ee2c52c72b5868f6cdf6e4cff3b2837ec0c58416e473e03e14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "graver"): (
        "1985621e915e8ab45bce77111fb2cebe38baf0d9dd6e4420838c11b2aa3ea2ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "circuits"): (
        "a864f01c61dd7da8edbbb9caafb5113e7ba69240c1e1d2207915b8f6260e99bc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "universal"): (
        "a44a763ce5851a707b606aa625f43c9ca76b9c99b377ca0073b4f4cbb638e3b3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "count"): (
        "29ea4f6f6619c60300006f29b6e63be3aa04ed6f5fb66e8ba827948f995c0d50",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones"): (
        "0dc3ae7bd1bc4d8e4a01c4dae09a7ecbad1a3946c570c013edbbdb6e2bc6050e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones-json"): (
        "787e35135aa9462f5ab6ef0f5b16ed070831d38b1a2d7f876d4ecc06d8732927",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones-w"): (
        "dc2b2310c2bb16efc71589af237b8aaa50d1230c25389651412547f0542b491d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones-w-lex"): (
        "dc2b2310c2bb16efc71589af237b8aaa50d1230c25389651412547f0542b491d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones-w-json"): (
        "29ee63eb5a741330cbbf92153b46137be5e753b6b823b2e54ad37e115c1bb511",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "cones-w-lex-json"): (
        "29ee63eb5a741330cbbf92153b46137be5e753b6b823b2e54ad37e115c1bb511",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "triangulate-w"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "83b7eceb4b0dda7b19b7ac5e3731e2df211883542da301e0f5191d4596283276", 3),
    ("lawrence23", "triangulate-sq"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e2786a84d9e5108092ce9d8af8bf2f4202b784631ccea44daf150e8e39c87aaa", 3),
    ("lawrence23", "solve-reduce"): (
        "1be5ed30b63b97bfc3e19577d44fb37aa3f6f9163819903bd5d2d1dd64374d9b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence23", "solve-eliminate"): (
        "1be5ed30b63b97bfc3e19577d44fb37aa3f6f9163819903bd5d2d1dd64374d9b",
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
    ("monomial-curve", "3", "4", "5"): (
        "2bc9e46431e405db50bb9374d95eda0830bd5249006db5bf90b3cbbe21e4b428",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("hypersimplex2", "4"): (
        "44dfc52e3ec019c15f07795ea0f08c801f6836307b2958acaa944fa94d6ab090",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre", "2", "2", "2"): (
        "40dcc5eea0b4c7ec8abee3a541e52af9e8bf70d03b0b8a8a72c417d39b618542",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("segre", "2", "4"): (
        "2086cc98e4c9ee1062b56074a2ef6a3d691ac58c2c871bbbd9750b2658a22134",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("monomial-curve", "3", "7", "8", "11"): (
        "c9c2eec87ff3248dc21fba7e2a6c85759ef96638aea7fa9f147b2d5436fe86f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("tt-graph", "3", "3"): (
        "d03218197177434adb6847ca6628679abcfb908e44ff3e4a09ef666988cc5c9a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("lawrence", "{segre23}"): (
        "8df3cb1455feb4d7a1fcd3a8a73cdee7c380125491ab4df69315d6c5f34652de",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(capsys, argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return digest(out.out), digest(out.err), rc


def fill(gen, paths):
    """gen arguments with each {name} replaced by that input's matrix file."""
    files = {name: words["m"] for name, words in paths.items()}
    return [word.format(**files) for word in gen]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, gen in INPUTS.items():
        mat = root / f"{name}.mat"
        assert main(["gen", *fill(gen, paths), "--out", str(mat)]) == 0
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


def rewrite_rows(rows, rng, subtract=False):
    """The same configuration written with other rows.

    Shuffles the rows, adds each of len(rows) drawn rows to another one
    (or, with subtract, adds or subtracts it, by a drawn sign) and
    appends the sum of two drawn rows, as perfbench/workloads.row_transform
    does, so the row lattice and the kernel stay the same.  Without
    subtract no entry turns negative, which the elimination route of
    solve refuses.  A one-row matrix has no other row to add to, and may
    get its double appended.
    """
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    if len(rows) > 1:
        for _ in range(len(rows)):
            i, j = rng.sample(range(len(rows)), 2)
            k = rng.choice((-1, 1)) if subtract else 1
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    i, j = rng.choice(range(len(rows))), rng.choice(range(len(rows)))
    rows.append([a + b for a, b in zip(rows[i], rows[j])])
    return rows


def rewrite_inputs(inputs, root, subtract):
    """inputs, with each matrix file rewritten by rewrite_rows."""
    paths = {}
    for name, words in inputs.items():
        rows = parse_matrix(open(words["m"]).read()).entries
        rows = rewrite_rows(rows, random.Random(name), subtract)
        mat = root / f"{name}.mat"
        mat.write_text(write_vectors(rows))
        paths[name] = {**words, "m": str(mat), "b": ",".join(str(sum(r)) for r in rows)}
    return paths


@pytest.fixture(scope="module")
def rewritten(inputs, tmp_path_factory):
    return rewrite_inputs(inputs, tmp_path_factory.mktemp("rewritten"), subtract=False)


@pytest.fixture(scope="module")
def subtracted(inputs, tmp_path_factory):
    return rewrite_inputs(inputs, tmp_path_factory.mktemp("subtracted"), subtract=True)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_rewritten_rows_print_the_same_bytes(rewritten, capsys, case):
    name, command = case
    argv = [word.format(**rewritten[name]) for word in COMMANDS[command]]
    assert run(capsys, argv) == GOLDEN[case]


# the commands that refuse a matrix with a negative entry, by design
REFUSE_NEGATIVE = {"solve-eliminate"}


@pytest.mark.parametrize("case", sorted(c for c in GOLDEN if c[1] not in REFUSE_NEGATIVE),
                         ids="-".join)
def test_subtracted_rows_print_the_same_bytes(subtracted, capsys, case):
    # rows subtracted as well as added give negative entries, in the
    # matrix and in the right-hand side
    name, command = case
    argv = [word.format(**subtracted[name]) for word in COMMANDS[command]]
    assert run(capsys, argv) == GOLDEN[case]


def test_rewritten_rows_keep_the_circuits_true_degrees(tmp_path, capsys):
    # rewrite_rows of the Segre 2x2 matrix under random.Random(0): the three
    # rows kept span a sublattice of index 3, on whose minors the true
    # degree 2 read 6
    rows = generate("segre", ("2", "2")).entries
    paths = []
    for name, written in (("plain", rows), ("rewritten", rewrite_rows(rows, random.Random(0)))):
        paths.append(tmp_path / f"{name}.mat")
        paths[-1].write_text(write_vectors(written))
    assert run(capsys, ["circuits", str(paths[1])]) == run(capsys, ["circuits", str(paths[0])])


def test_rewritten_rows_keep_the_degree_bound():
    # the same rewrite: the minors of the three rows kept would give 12
    rows = generate("segre", ("2", "2")).entries
    for written in (rows, rewrite_rows(rows, random.Random(0))):
        assert degree_bound(ConfigMatrix(written)) == 4


@pytest.mark.parametrize("gen", sorted(GEN_GOLDEN), ids="-".join)
def test_generated_matrix_is_pinned(inputs, capsys, gen):
    assert run(capsys, ["gen", *fill(gen, inputs)]) == GEN_GOLDEN[gen]


def test_table_covers_every_case():
    assert set(GOLDEN) == {(i, c) for i in INPUTS for c in COMMANDS}
    assert set(GEN_GOLDEN) == {(kind, str(r), str(c)) for kind in ("segre", "transport")
                               for r, c in ((1, 1), (2, 3), (3, 2), (3, 3))} | set(INPUTS.values())
