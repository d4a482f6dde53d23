"""Free resolutions: complexes, exactness via Hilbert data, minimality."""

from collections import Counter

import pytest

from brforge import engine
from brforge.engine import ModuleGB, vec_degree
from brforge.hilbert import hilbert_numerator
from brforge.ideals import Ideal, InvariantError
from brforge.io import read_ideal
from brforge.poly import PolyRing
from brforge.protocol import recording
from brforge.resolution import (
    BettiTable,
    GradedMatrix,
    Resolution,
    free_resolution,
    gorenstein_certificate,
    regularity,
    syzygy_matrix,
)
from brforge.ring import COMP_BITS, Rng, key_degree

import oracles
from conftest import fixture, random_ideal


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def euler_numerator(res):
    """1 - B_0(t) + B_1(t) - ... as an integer coefficient list; equals the
    Hilbert series numerator of R/I when the complex is exact."""
    top = max(max(t, default=0) for t in res.twists)
    out = [0] * (top + 1)
    out[0] = 1
    for k, twists in enumerate(res.twists):
        sign = -1 if k % 2 == 0 else 1
        for d in twists:
            out[d] += sign
    return _strip(out)


def assert_is_complex(res):
    for k in range(len(res.matrices) - 1):
        prod = oracles.compose(res.matrices[k], res.matrices[k + 1])
        assert prod.is_zero(), f"composition at step {k} is nonzero"


class TestKnownResolutions:
    def test_koszul_complex_of_variables(self, ring3):
        I = Ideal(ring3, list(ring3.variables()))
        res = free_resolution(I)
        assert res.betti().as_dict() == {(0, 1): 4, (1, 2): 6, (2, 3): 4, (3, 4): 1}
        assert res.is_minimal()
        assert regularity(res) == 1
        assert_is_complex(res)
        cert = gorenstein_certificate(I, resolution=res)
        assert cert.arithmetically_gorenstein
        assert cert.codimension == 4

    def test_twisted_cubic(self, ring3):
        I = Ideal(
            ring3,
            [
                ring3.parse("z1^2-z0*z2"),
                ring3.parse("z1*z2-z0*z3"),
                ring3.parse("z2^2-z1*z3"),
            ],
        )
        res = free_resolution(I)
        assert res.betti().as_dict() == {(0, 2): 3, (1, 3): 2}
        cert = gorenstein_certificate(I, resolution=res)
        assert cert.cohen_macaulay
        assert cert.last_rank == 2
        assert not cert.arithmetically_gorenstein

    def test_complete_intersection_regularity(self, ring3):
        rng = Rng(61)
        I = Ideal(ring3, [ring3.random_form(2, rng), ring3.random_form(3, rng)])
        res = free_resolution(I)
        assert res.betti().as_dict() == {(0, 2): 1, (0, 3): 1, (1, 5): 1}
        assert regularity(res) == 4
        assert_is_complex(res)

    def test_describe_layout(self, ring3):
        I = Ideal(ring3, [ring3.variables()[0], ring3.variables()[1]])
        res = free_resolution(I)
        assert res.describe() == "R <- 2R(-1) <- R(-2) <- 0"


class TestExactnessViaHilbert:
    def test_euler_characteristic_random(self, ring2):
        rng = Rng(62)
        for _ in range(10):
            I = random_ideal(ring2, rng, 2, 3)
            res = free_resolution(I)
            assert_is_complex(res)
            assert euler_numerator(res) == _strip(
                hilbert_numerator([g.terms[0][0] for g in I.groebner()], ring2.nvars)
            )

    def test_euler_characteristic_p3(self, ring3):
        rng = Rng(63)
        for _ in range(5):
            I = random_ideal(ring3, rng, 3, 2)
            res = free_resolution(I)
            assert euler_numerator(res) == _strip(
                hilbert_numerator([g.terms[0][0] for g in I.groebner()], ring3.nvars)
            )


def _stage_counts(monkeypatch):
    """Per (pass, degree): the candidates each pruning pass takes and the
    ModuleGB.add_remainder calls it makes.  Pass k (k >= 2) is the one whose
    terms sit at shift (k - 1) * COMP_BITS."""
    taken, reduced = Counter(), Counter()
    stage_pass = engine._stage_pass
    add_remainder = ModuleGB.add_remainder

    def counted_pass(p, nvars, frame, twists, shift, candidates, image):
        for vec in candidates if image is not None else ():
            taken[(1 + shift // COMP_BITS, key_degree(next(iter(vec)), shift))] += 1
        return stage_pass(p, nvars, frame, twists, shift, candidates, image)

    def counted_add(self, vec, value=None):
        reduced[(1 + self.shift // COMP_BITS, key_degree(next(iter(vec)), self.shift))] += 1
        return add_remainder(self, vec, value)

    monkeypatch.setattr(engine, "_stage_pass", counted_pass)
    monkeypatch.setattr(ModuleGB, "add_remainder", counted_add)
    return taken, reduced


def _quadrics(ring, rng, count):
    out = []
    while len(out) < count:
        f = ring.random_form(2, rng)
        if not f.is_zero():
            out.append(f)
    return out


class TestAgainstStepwise:
    """free_resolution against the stepwise route it replaced, on random
    ideals over small primes, where random forms often degenerate."""

    def check(self, I):
        ring = I.ring
        p = ring.p
        res = free_resolution(I, minimize=False)
        ref = oracles.stepwise_resolution(I)
        assert res.betti() == ref.betti()
        assert res.matrices[0].entries == ref.matrices[0].entries
        row = GradedMatrix(ring, [list(I.gens)], (0,), res.twists[0])
        assert oracles.compose(row, res.matrices[0]).is_zero()
        assert_is_complex(res)
        top = max(max(t) for t in res.twists)
        assert euler_numerator(res) == _strip(
            oracles.hilbert_numerator_dense(I.gens, ring.nvars, p, top)
        )
        # the generator pass left I the basis it completed
        assert I.groebner() == Ideal(ring, I.gens).groebner()
        assert free_resolution(I).betti() == oracles.cancel_units(ref)[0].betti()

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_ideals(self, p, n):
        ring = PolyRing(p, n)
        rng = Rng(1000 * p + n)
        for _ in range(3):
            self.check(random_ideal(ring, rng, 2 + rng.below(3), 3))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_five_variables(self, p):
        ring = PolyRing(p, 4)
        rng = Rng(1000 * p + 4)
        for _ in range(2):
            self.check(random_ideal(ring, rng, 2 + rng.below(2), 2))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_redundant_generators(self, p):
        ring = PolyRing(p, 3)
        rng = Rng(1000 * p + 5)
        for _ in range(3):
            I = random_ideal(ring, rng, 2 + rng.below(2), 2)
            f = I.gens[0]
            extra = [ring.parse("2") * f, ring.variables()[rng.below(4)] * f]
            extra.extend(f + g for g in I.gens[1:] if g.degree() == f.degree())
            self.check(Ideal(ring, list(I.gens) + extra))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_constant_generators(self, p):
        ring = PolyRing(p, 2)
        self.check(Ideal(ring, [ring.parse("3"), ring.parse("1"), ring.parse("z1")]))
        self.check(Ideal(ring, [ring.parse("1"), ring.parse("2")]))
        with pytest.raises(ValueError, match="unit ideal"):
            gorenstein_certificate(Ideal(ring, [ring.parse("1"), ring.parse("2")]))
        rng = Rng(1000 * p + 7)
        for _ in range(3):
            constants = [ring.parse(str(1 + rng.below(p - 1))) for _ in range(1 + rng.below(2))]
            self.check(Ideal(ring, constants + list(random_ideal(ring, rng, 2, 2).gens)))

    @pytest.mark.parametrize("p", [5, 7, 32003])
    def test_degrees_that_fill_partway(self, p, monkeypatch):
        ring = PolyRing(p, 3)
        rng = Rng(1000 * p + 6)
        taken, reduced = _stage_counts(monkeypatch)
        for _ in range(3):
            self.check(Ideal(ring, _quadrics(ring, rng, 2 + rng.below(3))))
        # some degree ran out of room after some of its candidates, and
        # the rest were dropped unreduced
        assert any(0 < reduced[key] < taken[key] for key in taken)


class TestStagePasses:
    def test_complete_intersection_reduces_no_redundant_degree(self, monkeypatch):
        """Four generic quadrics in P^4: every relation above the Koszul
        degree 4 of the generators' relations is redundant, and the pass
        pruning them reduces none of them."""
        I = read_ideal(fixture("ci_quadrics_p4.id"))
        taken, reduced = _stage_counts(monkeypatch)
        res = free_resolution(I)
        assert res.betti().as_dict() == {(0, 2): 4, (1, 4): 6, (2, 6): 4, (3, 8): 1}
        assert taken == {(2, 4): 9, (2, 5): 11, (2, 6): 3, (3, 6): 4, (3, 7): 2, (4, 8): 1}
        assert reduced == {(2, 4): 7, (3, 6): 4, (4, 8): 1}

    def test_generator_pass_leaves_the_ideal_its_basis(self, monkeypatch):
        I = read_ideal(fixture("ci_quadrics_p4.id"))
        want = Ideal(I.ring, I.gens).groebner()
        free_resolution(I)

        def no_engine(*args, **kwargs):
            raise AssertionError("the basis was completed again")

        monkeypatch.setattr(ModuleGB, "__init__", no_engine)
        assert I.groebner() == want

    def test_count_below_the_image_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_standard_count", lambda *args: 0)
        with pytest.raises(InvariantError, match="fell below the image in degree 4"):
            free_resolution(read_ideal(fixture("ci_quadrics_p4.id")))


class TestMinimize:
    def test_cancels_redundant_generator(self, ring3):
        I = Ideal(ring3, [ring3.parse("z0"), ring3.parse("z1"), ring3.parse("z0+z1")])
        raw = free_resolution(I, minimize=False)
        assert not raw.is_minimal()
        res = raw.minimize()
        assert res.is_minimal()
        assert res.betti().as_dict() == {(0, 1): 2, (1, 2): 1}
        assert_is_complex(res)

    def test_minimize_preserves_euler(self, ring3):
        rng = Rng(64)
        gens = [ring3.random_form(2, rng) for _ in range(2)]
        gens.append(gens[0] + gens[1])
        I = Ideal(ring3, gens)
        raw = free_resolution(I, minimize=False)
        mini = raw.minimize()
        assert euler_numerator(raw) == euler_numerator(mini)

    def test_minimize_of_minimal_is_identity(self, ring3):
        I = Ideal(ring3, [ring3.parse("z1^2-z0*z2")])
        res = free_resolution(I)
        assert res.is_minimal()
        assert res.minimize() is res

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_against_unit_cancellation(self, p):
        """minimize() against the unit-cancellation route it replaced, on
        ideals padded with redundant generators: scalar and monomial
        multiples, sums, and constants."""
        ring = PolyRing(p, 3)
        rng = Rng(2000 + p)
        for k in range(4):
            I = random_ideal(ring, rng, 2 + rng.below(2), 2)
            f, g = I.gens[0], I.gens[-1]
            extra = [ring.parse("2") * f, ring.variables()[rng.below(4)] * g]
            if f.degree() == g.degree():
                extra.append(f + g)
            if k == 3:
                extra.append(ring.parse(str(1 + rng.below(p - 1))))
            J = Ideal(ring, list(I.gens) + extra)
            raw = free_resolution(J, minimize=False)
            assert not raw.is_minimal()
            lines = []
            with recording(lines.append):
                res = raw.minimize()
            ref, cancelled = oracles.cancel_units(raw)
            assert lines == [f"minimization cancelled {cancelled} unit pairs"]
            assert res.is_minimal()
            assert res.betti() == ref.betti()
            assert euler_numerator(res) == euler_numerator(ref) == euler_numerator(raw)
            assert_is_complex(res)

    def test_regularity_requires_minimal(self, ring3):
        I = Ideal(ring3, [ring3.parse("z0"), ring3.parse("z1"), ring3.parse("z0+z1")])
        raw = free_resolution(I, minimize=False)
        with pytest.raises(ValueError):
            regularity(raw)


class TestSyzygyMatrix:
    def test_koszul_row(self, ring3):
        phi = GradedMatrix(
            ring3,
            [[ring3.variables()[i] for i in range(4)]],
            (0,),
            (1, 1, 1, 1),
        )
        B = syzygy_matrix(phi)
        assert B.cols == 6
        assert set(B.col_twists) == {2}
        assert oracles.compose(phi, B).is_zero()

    @pytest.mark.parametrize("p", [3, 7, 32003])
    def test_generator_row_is_the_first_matrix(self, p):
        """A kernel is the first stage of a resolution: the syzygies of an
        ideal's generator row are its resolution's first matrix."""
        ring = PolyRing(p, 3)
        rng = Rng(4000 + p)
        for _ in range(4):
            I = random_ideal(ring, rng, 2 + rng.below(3), 2)
            row = GradedMatrix(ring, [list(I.gens)], (0,), [g.degree() for g in I.gens])
            first = free_resolution(I, minimize=False).matrices[0]
            B = syzygy_matrix(row)
            assert (B.row_twists, B.col_twists) == (first.row_twists, first.col_twists)
            assert B.entries == first.entries

    def test_fixture_syzygies_are_relations(self):
        from brforge.io import read_matrix

        from conftest import fixture

        phi = read_matrix(fixture("linear_row_p5.mat"))
        B = read_matrix(fixture("linear_row_p5_syz.mat"))
        assert oracles.compose(phi, B).is_zero()
        ours = syzygy_matrix(phi)
        assert ours.cols == B.cols
        assert sorted(ours.col_twists) == sorted(B.col_twists)


def _random_matrix(ring, rng, row_twists, col_twists):
    """Random forms of the degrees the twists ask for, a third of them set
    to zero, so that columns also lead in rows of higher twist; an entry of
    negative degree is zero, one of degree zero a constant."""
    grid = [
        [ring.random_form(c - r, rng) if c >= r and rng.below(3) else ring.zero for c in col_twists]
        for r in row_twists
    ]
    return GradedMatrix(ring, grid, row_twists, col_twists)


class TestKernelAgainstTermOverPosition:
    """syzygy_matrix, the engine's stage passes, against the term over
    position route it replaced, which the oracles keep."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_matrices(self, p):
        ring = PolyRing(p, 2)
        rng = Rng(3000 + p)
        for _ in range(24):
            row_twists = sorted(rng.below(3) for _ in range(1 + rng.below(3)))
            col_twists = [row_twists[0] + rng.below(4) for _ in range(2 + rng.below(4))]
            phi = _random_matrix(ring, rng, row_twists, col_twists)
            if rng.bit():
                zero = rng.below(phi.cols)
                grid = [[ring.zero if j == zero else e for j, e in enumerate(row)] for row in phi.entries]
                phi = GradedMatrix(ring, grid, row_twists, col_twists)
            B = syzygy_matrix(phi)
            ref = oracles.term_over_position_syzygies(phi.columns(), p, phi.row_twists)
            degrees = [vec_degree(s, phi.col_twists) for s in ref]
            assert B.col_twists == tuple(degrees)
            assert B.entries == GradedMatrix.from_columns(ring, phi.col_twists, ref, degrees).entries
            assert oracles.compose(phi, B).is_zero()

    def test_constant_entries(self):
        ring = PolyRing(5, 2)
        phi = GradedMatrix(ring, [[ring.parse("1"), ring.parse("2"), ring.parse("z0")]], (0,), (0, 0, 1))
        B = syzygy_matrix(phi)
        assert B.col_twists == (0, 1)
        assert oracles.compose(phi, B).is_zero()


class TestGradedMatrix:
    def test_rejects_wrong_degrees(self, ring3):
        with pytest.raises(ValueError):
            GradedMatrix(ring3, [[ring3.parse("z0^2")]], (0,), (1,))
        with pytest.raises(ValueError):
            GradedMatrix(ring3, [[ring3.parse("z0+z0^2")]], (0,), (2,))

    def test_rejects_ragged(self, ring3):
        with pytest.raises(ValueError):
            GradedMatrix(ring3, [[ring3.variables()[0], ring3.variables()[1]]], (0,), (1,))

    def test_compose_twist_mismatch(self, ring3):
        A = GradedMatrix(ring3, [[ring3.variables()[0]]], (0,), (1,))
        B = GradedMatrix(ring3, [[ring3.variables()[0]]], (0,), (1,))
        with pytest.raises(ValueError):
            oracles.compose(A, B)

    def test_column_roundtrip(self, ring3):
        A = GradedMatrix(
            ring3,
            [[ring3.variables()[0], ring3.variables()[1]], [ring3.variables()[2], ring3.zero]],
            (0, 0),
            (1, 1),
        )
        again = GradedMatrix.from_columns(ring3, A.row_twists, A.columns(), A.col_twists)
        assert again.entries == A.entries


class TestBettiTable:
    def test_roundtrip(self):
        d = {(0, 2): 3, (1, 3): 2}
        t = BettiTable.from_dict(d)
        assert t.as_dict() == d
        assert t.lines() == ["0 2 3", "1 3 2"]

    def test_from_twists(self):
        t = BettiTable.from_twists([(2, 2, 3), (4,)])
        assert t.as_dict() == {(0, 2): 2, (0, 3): 1, (1, 4): 1}

    def test_zero_ranks_dropped(self):
        t = BettiTable.from_dict({(0, 1): 0, (0, 2): 1})
        assert t.as_dict() == {(0, 2): 1}
