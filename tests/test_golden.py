"""Byte-for-byte seeded output of the `forge` subcommands.

Each file under tests/golden holds the exact stdout of one command.  The
texts pin the random draw protocol, the term order of every printed
polynomial and the basis-element and raw-relation counts of the --protocol
lines; a change to any of them is a contract change and must regenerate
these files on purpose.
"""

from pathlib import Path

import pytest

from brforge.cli import main

from conftest import fixture

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "br_p3_seed11": [
        "br", "--t", "1", "--r", "3", "--entry-deg", "1", "--sec-deg", "2", "--n", "3",
        "--seed", "11", "--verify", "--protocol",
    ],
    "br_p6_seed1_protocol": [
        "br", "--t", "1", "--r", "5", "--entry-deg", "1", "--sec-deg", "2", "--n", "6",
        "--seed", "1", "--verify", "--protocol",
    ],
    "br_linear_row_p5_seed1_protocol": [
        "br", "--matrix", fixture("linear_row_p5.mat"), "--sec-deg", "1", "--seed", "1", "--protocol",
    ],
    "section_koszul_p3": ["section", "--matrix", fixture("koszul_p3.mat"), "--deg", "1", "--seed", "1"],
    "top_points5": ["top", "--ideal", fixture("points5.id"), "--seed", "1"],
    "res_points5": ["res", "--ideal", fixture("points5.id"), "--minimal"],
    "res_points5_protocol": ["res", "--ideal", fixture("points5.id"), "--minimal", "--protocol"],
    "res_ci_quadrics_p4_protocol": [
        "res", "--ideal", fixture("ci_quadrics_p4.id"), "--minimal", "--protocol",
    ],
    "link_veronese_seed5": [
        "link", "--phi", fixture("linear_row_p5.mat"), "--ideal", fixture("veronese.id"),
        "--deg", "0", "--seed", "5",
    ],
    "section_koszul_p3_protocol": [
        "section", "--matrix", fixture("koszul_p3.mat"), "--deg", "1", "--seed", "1", "--protocol",
    ],
    "top_points5_protocol": ["top", "--ideal", fixture("points5.id"), "--seed", "1", "--protocol"],
    "link_veronese_seed5_protocol": [
        "link", "--phi", fixture("linear_row_p5.mat"), "--ideal", fixture("veronese.id"),
        "--deg", "0", "--seed", "5", "--protocol",
    ],
    "genbr_points5_seed1_protocol": [
        "genbr", "--gorenstein", fixture("points5.id"), "--ci", "3,3,3", "--d", "6",
        "--seed", "1", "--protocol",
    ],
    "minors_det_2x4_protocol": [
        "minors", "--matrix", fixture("standard_det_2x4.mat"), "--size", "2", "--protocol",
    ],
    "pfaffians_skew5_protocol": ["pfaffians", "--matrix", fixture("skew5.mat"), "--protocol"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_is_unchanged(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_every_case_has_exactly_one_text():
    assert sorted(CASES) == sorted(path.stem for path in GOLDEN.glob("*.txt"))
