"""Command line driver: exit codes, JSON summaries, reproducibility."""

import json
import sys
from pathlib import Path

import pytest

import brforge.hilbert
from brforge.cli import main
from brforge.ideals import Ideal, InvariantError
from brforge.io import read_ideal, read_matrix, write_ideal, write_matrix
from brforge.poly import PolyRing
from brforge.protocol import note, recording
from brforge.resolution import GradedMatrix, free_resolution

from conftest import fixture


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(out):
    lines = [line for line in out.splitlines() if line]
    return json.loads(lines[-1])


def check_layout(out):
    """Everything before the final JSON line is '//' protocol text."""
    lines = out.splitlines()
    assert lines, "no output"
    json.loads(lines[-1])
    for line in lines[:-1]:
        assert line.startswith("// ") or line == "//", line


class TestHilb:
    def test_saved_curve(self, capsys):
        code, out, _ = run(["hilb", "--ideal", fixture("deg21_curve.id")], capsys)
        assert code == 0
        check_layout(out)
        s = summary_of(out)
        assert s["command"] == "hilb"
        assert s["degree"] == 21
        assert s["h_vector"] == [1, 5, 9, 5, 1]
        assert s["codimension"] == 5

    def test_saved_points(self, capsys):
        code, out, _ = run(["hilb", "--ideal", fixture("points5.id")], capsys)
        assert code == 0
        s = summary_of(out)
        assert s["degree"] == 5
        assert s["h_vector"] == [1, 3, 1]


class TestRes:
    def test_minimal_resolution(self, capsys):
        code, out, _ = run(
            ["res", "--ideal", fixture("points5.id"), "--minimal"], capsys
        )
        assert code == 0
        check_layout(out)
        s = summary_of(out)
        assert s["minimal"] is True
        assert s["betti"] == ["0 2 5", "1 3 5", "2 5 1"]
        assert s["regularity"] == 3
        assert s["gorenstein"]["arithmetically_gorenstein"] is True

    def test_certificate_on_non_gorenstein(self, capsys, tmp_path, ring3):
        I = Ideal(
            ring3,
            [
                ring3.parse("z1^2-z0*z2"),
                ring3.parse("z1*z2-z0*z3"),
                ring3.parse("z2^2-z1*z3"),
            ],
        )
        path = tmp_path / "cubic.id"
        write_ideal(path, I)
        code, out, _ = run(["res", "--ideal", str(path), "--minimal"], capsys)
        assert code == 0
        s = summary_of(out)
        assert s["gorenstein"]["arithmetically_gorenstein"] is False
        assert s["gorenstein"]["last_rank"] == 2

    def test_broken_invariant_exits_3(self, capsys, monkeypatch):
        import brforge.cli

        def broken(I, **kwargs):
            raise InvariantError("resolution exceeded the global bound")

        monkeypatch.setattr(brforge.cli, "free_resolution", broken)
        code, out, err = run(["res", "--ideal", fixture("points5.id")], capsys)
        assert code == 3
        assert out == ""
        assert err == "forge res: resolution exceeded the global bound\n"


    def test_constant_generators(self, capsys, tmp_path, ring2):
        path = tmp_path / "unit.id"
        write_ideal(path, Ideal(ring2, [ring2.parse("3"), ring2.parse("1"), ring2.parse("z1")]))
        code, out, err = run(["res", "--ideal", str(path)], capsys)
        assert (code, err) == (0, "")
        write_ideal(path, Ideal(ring2, [ring2.parse("1"), ring2.parse("2")]))
        code, out, _ = run(["res", "--ideal", str(path), "--minimal"], capsys)
        assert code == 0
        s = summary_of(out)
        assert s["description"] == "R <- R(-0) <- 0"
        assert s["minimal"] is True
        # the unit ideal has no Gorenstein certificate
        assert "gorenstein" not in s

    def test_undercounted_standard_terms_exits_3(self, capsys, monkeypatch):
        import brforge.engine

        count = brforge.engine._standard_count
        monkeypatch.setattr(brforge.engine, "_standard_count", lambda *args: count(*args) - 1)
        code, out, err = run(
            ["res", "--ideal", fixture("ci_quadrics_p4.id"), "--minimal"], capsys
        )
        assert code == 3
        assert out == ""
        assert err == "forge res: syzygy candidates do not span degree 8\n"


class TestMinorsAndPfaffians:
    def test_minors(self, capsys):
        code, out, _ = run(
            ["minors", "--matrix", fixture("standard_det_2x4.mat"), "--size", "2"],
            capsys,
        )
        assert code == 0
        s = summary_of(out)
        assert s["count"] == 6
        assert s["generator_degrees"] == [[2, 6]]

    def test_minors_bad_size(self, capsys):
        code, _, err = run(
            ["minors", "--matrix", fixture("standard_det_2x4.mat"), "--size", "9"],
            capsys,
        )
        assert code == 1
        assert "minors" in err

    def test_pfaffians(self, capsys):
        code, out, _ = run(
            ["pfaffians", "--matrix", fixture("skew5.mat")], capsys
        )
        assert code == 0
        s = summary_of(out)
        assert s["count"] == 5
        assert s["generator_degrees"] == [[2, 5]]
        want = read_ideal(fixture("skew5_pfaffians.id"))
        got = Ideal(want.ring, [want.ring.parse(g) for g in s["generators"]])
        assert got.equals(want)


class TestPredict:
    def test_kernel_config(self, capsys):
        code, out, _ = run(
            ["predict", "--spec", fixture("predict_kernel.cfg")], capsys
        )
        assert code == 0
        check_layout(out)
        s = summary_of(out)
        assert s["kind"] == "kernel"
        assert s["c1"] == 9
        assert s["r"] == 5
        assert s["expected_degree"] == 21
        assert "4 9 1" in s["shape"]

    def test_aci_config(self, capsys):
        code, out, _ = run(
            ["predict", "--spec", fixture("predict_aci.cfg")], capsys
        )
        assert code == 0
        s = summary_of(out)
        assert s["kind"] == "aci"
        assert s["alpha"] == 9
        assert s["b"] == 8
        assert s["shape"] == ["0 2 1", "0 3 3", "1 5 8", "1 6 1", "2 5 1", "2 6 5"]

    def test_json_config(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"a": [2, 2, 2, 2], "b": [3], "n": 3}')
        code, out, _ = run(["predict", "--spec", str(path)], capsys)
        assert code == 0
        s = summary_of(out)
        assert s["expected_degree"] == 5
        assert s["shape"] == ["0 2 5", "1 3 5", "2 5 1"]

    def test_unusable_config(self, capsys, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("q = 1\n")
        code, _, err = run(["predict", "--spec", str(path)], capsys)
        assert code == 1
        assert "config" in err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("kernel.cfg", "a = 2,2,2,2\nb = 3\n", "config is missing n"),
            ("kernel.json", '{"a": 3, "b": [2], "n": 3}', "a must be a list of integers, got 3"),
            (
                "aci.cfg",
                "e1 = 2,2,2,2,2\ne2 = 3,3,3,3,3\nci = 3,3,3\nd = 6\n",
                "config is missing l",
            ),
            (
                "float.json",
                '{"a": [2, 2, 2, 2], "b": [3], "n": 3.9}',
                "n must hold integers, got 3.9",
            ),
            (
                "floats.json",
                '{"a": [2.7, 2, 2, 2], "b": [3], "n": 3}',
                "a must hold integers, got [2.7, 2, 2, 2]",
            ),
            (
                "bool.json",
                '{"a": [2, 2, 2, 2], "b": [3], "n": 3, "p": [true]}',
                "p must hold integers, got [True]",
            ),
            ("float.cfg", "a = 2,2,2,2\nb = 3\nn = 3.9\n", "n must hold integers, got '3.9'"),
        ],
    )
    def test_malformed_config_fails_in_one_line(self, capsys, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(["predict", "--spec", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"forge predict: {message}\n"


class TestSection:
    def test_bottom_twist_never_regular(self, capsys):
        code, out, _ = run(
            ["section", "--matrix", fixture("koszul_p3.mat"), "--deg", "0", "--seed", "1"],
            capsys,
        )
        assert code == 2
        s = summary_of(out)
        assert s["regular"] is False
        assert out.splitlines()[0] == "// seed = 1"

    def test_regular_section(self, capsys):
        code, out, _ = run(
            ["section", "--matrix", fixture("koszul_p3.mat"), "--deg", "1", "--seed", "1"],
            capsys,
        )
        assert code == 0
        s = summary_of(out)
        assert s["regular"] is True
        assert s["degree"] == 3
        assert s["entry_degrees"] == [[2, 4]]

    def test_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            [
                "section",
                "--matrix",
                fixture("koszul_p3.mat"),
                "--deg",
                "1",
                "--seed",
                "1",
                "--out",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        written = read_ideal(out_dir / "section.id")
        assert [str(g) for g in written.gens] == summary_of(out)["generators"]
        saved = json.loads((out_dir / "summary.json").read_text())
        assert saved == summary_of(out)


class TestTop:
    def test_already_pure(self, capsys):
        code, out, _ = run(
            ["top", "--ideal", fixture("points5.id"), "--seed", "1"], capsys
        )
        assert code == 0
        s = summary_of(out)
        assert s["degree"] == 5
        assert s["h_vector"] == [1, 3, 1]
        assert s["codimension"] == 3

    def test_strips_lower_dimensional_junk(self, capsys, tmp_path, ring3):
        # a conic with an embedded point: the top part is the plane conic
        conic = Ideal(ring3, [ring3.parse("z3"), ring3.parse("z0*z1-z2^2")])
        point = Ideal(
            ring3, [ring3.parse("z1"), ring3.parse("z2"), ring3.parse("z3-z0")]
        )
        from brforge.ideals import ideal_intersection

        path = tmp_path / "mixed.id"
        write_ideal(path, ideal_intersection(conic, point))
        code, out, _ = run(
            ["top", "--ideal", str(path), "--codim", "2", "--seed", "2"], capsys
        )
        assert code == 0
        s = summary_of(out)
        assert s["degree"] == 2
        assert s["h_vector"] == [1, 1]


class TestBr:
    def test_five_points(self, capsys):
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.splitlines()[0] == "// seed = 11"
        check_layout(out)
        s = summary_of(out)
        assert s["degree"] == 5
        assert s["predicted_degree"] == 5
        assert s["degree_matches"] is True
        assert s["h_vector"] == [1, 3, 1]
        assert s["codimension"] == 3
        assert s["section_twist"] == 3
        assert s["escalations"] == 0

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11",
        ]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_matrix_input(self, capsys):
        argv = [
            "br", "--matrix", fixture("koszul_p3.mat"),
            "--sec-deg", "2", "--seed", "11",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        s = summary_of(out)
        assert (s["t"], s["r"], s["n"], s["entry_degree"]) == (1, 3, 3, 1)
        assert s["degree"] == 5

    def test_linear_row_without_last_variable_saturates(self, capsys):
        # every linear form of this row (entries z1..z4 in P^5) lacks z5;
        # the saturation exchanges its last variable with z5, and the top
        # part is the one the double quotient gives (the golden text's JSON)
        argv = [
            "br", "--matrix", fixture("linear_row_p5.mat"),
            "--sec-deg", "1", "--seed", "1", "--protocol",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        assert "// top part: saturated by a linear form of the degeneracy locus" in lines
        assert not any("cutting instead" in line for line in lines)
        golden = Path(__file__).parent / "golden" / "br_linear_row_p5_seed1_protocol.txt"
        assert lines[-1] == golden.read_text().splitlines()[-1]

    def test_matrix_contradiction(self, capsys):
        argv = [
            "br", "--matrix", fixture("koszul_p3.mat"), "--t", "2",
            "--sec-deg", "2", "--seed", "1",
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "--t" in err

    def test_missing_shape_flags(self, capsys):
        code, _, err = run(["br", "--sec-deg", "2", "--seed", "1"], capsys)
        assert code == 1
        assert "--t" in err

    def test_missing_seed(self, capsys):
        code, _, err = run(
            ["br", "--t", "1", "--r", "3", "--entry-deg", "1",
             "--sec-deg", "2", "--n", "3"],
            capsys,
        )
        assert code == 1
        assert "--seed" in err

    def test_verify_block(self, capsys):
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11", "--verify",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        v = summary_of(out)["verification"]
        assert v["ok"] is True
        assert v["betti_matches"] is True
        assert v["gorenstein"] is True

    def test_out_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "points"
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11", "--out", str(out_dir),
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        M = read_matrix(out_dir / "matrix.mat")
        assert (M.rows, M.cols) == (1, 4)
        K = read_matrix(out_dir / "kernel.mat")
        assert K.rows == 4
        top = read_ideal(out_dir / "top.id")
        assert [str(g) for g in top.gens] == summary_of(out)["generators"]
        assert (out_dir / "section.id").exists()


    def test_impossible_section_degree_is_refused_before_drawing(self, capsys, monkeypatch):
        # the kernel of a 1x4 matrix of quadrics sits at twist 4, so a
        # section at twist 3 has nothing to combine
        drawn = []
        sparse_form = PolyRing.sparse_form
        monkeypatch.setattr(
            PolyRing, "sparse_form", lambda ring, d, rng: drawn.append(d) or sparse_form(ring, d, rng)
        )
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "2",
            "--sec-deg", "1", "--n", "3", "--seed", "4", "--protocol",
        ]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err == "forge br: no kernel column has twist at most 3 (the smallest is 4)\n"
        assert out.splitlines()[-1] == "// kernel has 6 generators of degrees [4]"
        assert drawn == []

    def test_predictions_follow_an_escalated_twist(self, capsys):
        # seed 1 escalates the section from twist 4 to 5; the predictions
        # must describe the twist actually used
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "2",
            "--sec-deg", "2", "--n", "4", "--seed", "1", "--verify",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        s = summary_of(out)
        assert s["escalations"] == 1
        assert s["section_twist"] == 5
        assert s["predicted_degree"] == 13
        assert s["degree"] == 13
        assert s["degree_matches"] is True
        v = s["verification"]
        assert v["predicted_degree"] == 13
        assert v["degree_matches"] is True
        assert v["ok"] is True


class TestEnvironmentCharacteristic:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FORGE_CHAR", "23")
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert summary_of(out)["characteristic"] == 23

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("FORGE_CHAR", "23")
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11", "--char", "32003",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert summary_of(out)["characteristic"] == 32003

    def test_env_read_per_call_with_one_parser(self, capsys, monkeypatch):
        import brforge.cli

        # the parser is built once per process; the default must still
        # follow FORGE_CHAR at the time of each call
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11",
        ]
        seen = []
        for char in ("23", "31"):
            monkeypatch.setenv("FORGE_CHAR", char)
            code, out, _ = run(argv, capsys)
            assert code == 0
            seen.append(summary_of(out)["characteristic"])
        assert seen == [23, 31]
        assert brforge.cli._build_parser() is brforge.cli._build_parser()


class TestLink:
    def setup_files(self, tmp_path, ring3):
        phi = GradedMatrix(
            ring3,
            [[ring3.variables()[0], ring3.variables()[1], ring3.variables()[2]]],
            (0,),
            (1, 1, 1),
        )
        IV = Ideal(ring3, [ring3.variables()[0], ring3.variables()[1]])
        write_matrix(tmp_path / "phi.mat", phi)
        write_ideal(tmp_path / "line.id", IV)
        return str(tmp_path / "phi.mat"), str(tmp_path / "line.id")

    def test_line_self_link(self, capsys, tmp_path, ring3):
        phi, line = self.setup_files(tmp_path, ring3)
        code, out, _ = run(
            ["link", "--phi", phi, "--ideal", line, "--deg", "0", "--seed", "5"],
            capsys,
        )
        assert code == 0
        check_layout(out)
        s = summary_of(out)
        assert s["section_regular"] is True
        assert s["gorenstein_degree"] == 1
        assert s["gorenstein_h"] == [1]
        assert s["certificate"]["arithmetically_gorenstein"] is True
        assert s["residual_generators"] == ["1"]

    def test_out_artifacts(self, capsys, tmp_path, ring3):
        phi, line = self.setup_files(tmp_path, ring3)
        out_dir = tmp_path / "link"
        code, out, _ = run(
            ["link", "--phi", phi, "--ideal", line, "--deg", "0",
             "--seed", "5", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        X = read_ideal(out_dir / "gorenstein.id")
        assert X.equals(Ideal(ring3, [ring3.variables()[0], ring3.variables()[1]]))
        assert (out_dir / "residual.id").exists()
        assert (out_dir / "section.id").exists()

    def test_broken_invariant_exits_3(self, capsys, monkeypatch, tmp_path, ring3):
        import brforge.liaison

        def unit(I, r, rng, **kwargs):
            return Ideal(I.ring, [I.ring.one])

        monkeypatch.setattr(brforge.liaison, "top_dimensional_part", unit)
        phi, line = self.setup_files(tmp_path, ring3)
        code, _, err = run(
            ["link", "--phi", phi, "--ideal", line, "--deg", "0", "--seed", "5"],
            capsys,
        )
        assert code == 3
        assert err == "forge link: the linking scheme does not contain V\n"


class TestOneReportPerIdeal:
    """A command computes each ideal's Hilbert report once, however many of
    its readers (the summary, the verification, the certificate) ask."""

    @staticmethod
    def reported(monkeypatch, capsys, argv):
        original = brforge.hilbert.hilbert_report
        ideals = []

        def counting(I):
            ideals.append(I)
            return original(I)

        for name, module in list(sys.modules.items()):
            if name == "brforge" or name.startswith("brforge."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, _, _ = run(argv, capsys)
        assert code == 0
        return ideals

    def test_br_verify(self, monkeypatch, capsys):
        argv = [
            "br", "--t", "1", "--r", "3", "--entry-deg", "1",
            "--sec-deg", "2", "--n", "3", "--seed", "11", "--verify",
        ]
        ideals = self.reported(monkeypatch, capsys, argv)
        assert ideals
        assert len({id(I) for I in ideals}) == len(ideals)

    def test_link(self, monkeypatch, capsys):
        argv = [
            "link", "--phi", fixture("linear_row_p5.mat"), "--ideal", fixture("veronese.id"),
            "--deg", "0", "--seed", "5",
        ]
        ideals = self.reported(monkeypatch, capsys, argv)
        assert len(ideals) >= 3  # the section, X and the residual
        assert len({id(I) for I in ideals}) == len(ideals)


class TestGenBr:
    def test_five_points_base(self, capsys):
        argv = [
            "genbr", "--gorenstein", fixture("points5.id"),
            "--ci", "3,3,3", "--d", "6", "--seed", "11",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        check_layout(out)
        s = summary_of(out)
        assert s["l"] == -1
        assert s["alpha"] == 9
        assert s["b"] == 8
        assert s["aci_type"] == [2, 3, 3, 3]
        assert s["shape_matches"] is True
        assert s["expected_shape"] == ["0 2 1", "0 3 3", "1 5 8", "1 6 1", "2 5 1", "2 6 5"]

    def test_l_mismatch(self, capsys):
        argv = [
            "genbr", "--gorenstein", fixture("points5.id"),
            "--ci", "3,3,3", "--l", "0", "--d", "6", "--seed", "11",
        ]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "l = -1" in err

    def test_wrong_ci_count(self, capsys):
        argv = [
            "genbr", "--gorenstein", fixture("points5.id"),
            "--ci", "3,3", "--d", "6", "--seed", "11",
        ]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "three" in err

    def test_bad_ci_value(self, capsys):
        argv = [
            "genbr", "--gorenstein", fixture("points5.id"),
            "--ci", "3,x,3", "--d", "6", "--seed", "11",
        ]
        code, _, _ = run(argv, capsys)
        assert code == 1


OUT_CASES = {
    "br": (
        ["br", "--t", "1", "--r", "3", "--entry-deg", "1", "--sec-deg", "2", "--n", "3", "--seed", "11"],
        {"matrix.mat", "kernel.mat", "section.id", "top.id"},
    ),
    "section": (
        ["section", "--matrix", fixture("koszul_p3.mat"), "--deg", "1", "--seed", "1"],
        {"section.id"},
    ),
    "top": (["top", "--ideal", fixture("points5.id"), "--seed", "1"], {"top.id"}),
    "hilb": (["hilb", "--ideal", fixture("points5.id")], set()),
    "res": (["res", "--ideal", fixture("points5.id"), "--minimal"], set()),
    "minors": (
        ["minors", "--matrix", fixture("standard_det_2x4.mat"), "--size", "2"],
        {"minors.id"},
    ),
    "pfaffians": (["pfaffians", "--matrix", fixture("skew5.mat")], {"pfaffians.id"}),
    "predict": (["predict", "--spec", fixture("predict_kernel.cfg")], set()),
    "link": (
        ["link", "--phi", fixture("linear_row_p5.mat"), "--ideal", fixture("veronese.id"),
         "--deg", "0", "--seed", "5"],
        {"section.id", "gorenstein.id", "residual.id"},
    ),
    "genbr": (
        ["genbr", "--gorenstein", fixture("points5.id"), "--ci", "3,3,3", "--d", "6", "--seed", "11"],
        {"ci.id", "linked.id", "section.id", "top.id"},
    ),
}


class TestOutDirectory:
    """Every subcommand's --out DIR holds summary.json, equal to the printed
    summary, and exactly the objects the subcommand names."""

    @pytest.mark.parametrize("command", sorted(OUT_CASES))
    def test_named_files_and_summary(self, capsys, tmp_path, command):
        argv, names = OUT_CASES[command]
        out_dir = tmp_path / "out"
        code, out, err = run(argv + ["--out", str(out_dir)], capsys)
        assert (code, err) == (0, "")
        assert {path.name for path in out_dir.iterdir()} == names | {"summary.json"}
        saved = json.loads((out_dir / "summary.json").read_text())
        assert saved == json.loads(out.splitlines()[-1])
        assert saved["command"] == command
        assert ("seed" in saved) == ("--seed" in argv)
        for name in names:
            read = read_matrix if name.endswith(".mat") else read_ideal
            read(out_dir / name)

    @pytest.mark.parametrize("command", ["br", "hilb"])
    def test_unusable_out_path_exits_1_in_one_line(self, capsys, tmp_path, command):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        argv, _ = OUT_CASES[command]
        code, out, err = run(argv + ["--out", str(blocker)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"forge {command}: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(["conjure"], capsys)
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(["hilb", "--ideal", "/nonexistent/nope.id"], capsys)
        assert code == 1


class TestProtocol:
    def test_protocol_lines(self, capsys):
        code, out, _ = run(
            ["top", "--ideal", fixture("points5.id"), "--seed", "1", "--protocol"],
            capsys,
        )
        assert code == 0
        check_layout(out)
        body = out.splitlines()
        assert any(line.startswith("// ") for line in body[:-1])

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["res", "--ideal", fixture("points5.id")], 0),
            (["section", "--matrix", fixture("koszul_p3.mat"), "--deg", "0", "--seed", "1"], 2),
            (["top", "--ideal", fixture("points5.id"), "--codim", "2", "--seed", "1"], 2),
        ],
        ids=["success", "refusal", "raised-refusal"],
    )
    def test_sink_does_not_outlive_main(self, capsys, argv, code):
        assert run(argv + ["--protocol"], capsys)[0] == code
        free_resolution(read_ideal(fixture("points5.id")))
        assert capsys.readouterr().out == ""

    def test_sink_does_not_outlive_a_broken_invariant(self, capsys, monkeypatch):
        import brforge.cli

        def broken(I, **kwargs):
            note("resolving")
            raise InvariantError("resolution exceeded the global bound")

        monkeypatch.setattr(brforge.cli, "free_resolution", broken)
        code, out, _ = run(["res", "--ideal", fixture("points5.id"), "--protocol"], capsys)
        assert code == 3
        assert out == "// resolving\n"
        free_resolution(read_ideal(fixture("points5.id")))
        assert capsys.readouterr().out == ""

    def test_library_caller_records_the_protocol(self, capsys):
        outer: list[str] = []
        inner: list[str] = []
        with recording(outer.append):
            note("before")
            with recording(inner.append):
                free_resolution(read_ideal(fixture("points5.id")))
            note("after")
        assert outer == ["before", "after"]
        golden = (Path(__file__).parent / "golden" / "res_points5_protocol.txt").read_text()
        assert [f"// {line}\n" for line in inner] == golden.splitlines(True)[: len(inner)]
        assert inner[0] == "syzygy pass: 6 basis elements, 9 raw relations"
        assert capsys.readouterr().out == ""

    def test_unseeded_commands_are_stable(self, capsys):
        argv = ["res", "--ideal", fixture("points5.id"), "--minimal"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second
