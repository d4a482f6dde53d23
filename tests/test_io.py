"""File formats: ideal and matrix round trips, malformed input."""

import pytest

from brforge.construct import random_graded_matrix
from brforge.ideals import Ideal
from brforge.io import (
    ideal_text,
    matrix_text,
    read_ideal,
    read_matrix,
    write_ideal,
    write_matrix,
)
from brforge.poly import PolyRing
from brforge.ring import Rng

from conftest import fixture


class TestIdealFiles:
    def test_roundtrip(self, ring3, tmp_path):
        I = Ideal(ring3, [ring3.parse("z1^2-z0*z2"), ring3.parse("z2^3+5*z0*z1*z3")])
        path = tmp_path / "i.id"
        write_ideal(path, I)
        J = read_ideal(path)
        assert J.ring == ring3
        assert [str(g) for g in J.gens] == [str(g) for g in I.gens]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "i.id"
        path.write_text(
            "# header comment\nring 23 2\n\nz0^2 + z1*z2  # trailing note\n\n"
        )
        I = read_ideal(path)
        assert I.ring.p == 23
        assert len(I.gens) == 1

    def test_ring_check(self, ring3, ring2, tmp_path):
        path = tmp_path / "i.id"
        write_ideal(path, Ideal(ring3, [ring3.parse("z0")]))
        assert read_ideal(path, ring3).ring == ring3
        with pytest.raises(ValueError):
            read_ideal(path, ring2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "i.id"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            read_ideal(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "i.id"
        path.write_text("field 32003 3\nz0\n")
        with pytest.raises(ValueError):
            read_ideal(path)

    def test_text_parses_back(self, ring2):
        I = Ideal(ring2, [ring2.parse("z0^2-z1*z2")])
        text = ideal_text(I)
        assert text.startswith("ring 32003 2\n")
        assert text.endswith("\n")

    def test_fixture_headers(self):
        I = read_ideal(fixture("veronese.id"))
        assert I.ring == PolyRing(32003, 5)
        assert len(I.gens) == 6


class TestMatrixFiles:
    def test_roundtrip(self, ring3, tmp_path):
        M = random_graded_matrix(ring3, (0, 1), (1, 2, 2), Rng(2))
        path = tmp_path / "m.mat"
        write_matrix(path, M)
        N = read_matrix(path)
        assert N.ring == ring3
        assert N.row_twists == M.row_twists
        assert N.col_twists == M.col_twists
        assert all(
            str(N.entries[i][j]) == str(M.entries[i][j])
            for i in range(M.rows)
            for j in range(M.cols)
        )

    def test_text_layout(self, ring3):
        M = random_graded_matrix(ring3, (0,), (1, 1), Rng(2))
        text = matrix_text(M)
        lines = text.splitlines()
        assert lines[0] == "ring 32003 3"
        assert lines[1] == "matrix 1 2"
        assert lines[2] == "rowtwists 0"
        assert lines[3] == "coltwists 1 1"
        assert " | " in lines[4]

    def test_ring_check(self, ring3, ring2):
        path = fixture("koszul_p3.mat")
        assert read_matrix(path, ring3).rows == 1
        with pytest.raises(ValueError):
            read_matrix(path, ring2)

    def test_missing_headers(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("ring 32003 3\nmatrix 1 1\nrowtwists 0\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_twist_count_mismatch(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text(
            "ring 32003 3\nmatrix 2 1\nrowtwists 0\ncoltwists 1\nz0\nz1\n"
        )
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text(
            "ring 32003 3\nmatrix 1 2\nrowtwists 0\ncoltwists 1 1\nz0\n"
        )
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text(
            "ring 32003 3\nmatrix 2 1\nrowtwists 0 0\ncoltwists 1\nz0\n"
        )
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_entry_degree_enforced(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text(
            "ring 32003 3\nmatrix 1 1\nrowtwists 0\ncoltwists 2\nz0\n"
        )
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_fixture_zero_entries(self):
        M = read_matrix(fixture("skew5.mat"))
        assert M.rows == M.cols == 5
        assert all(M.entries[i][i].is_zero() for i in range(5))
