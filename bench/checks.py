"""Checks of the program's outputs against closed forms and properties the
method must have.

Nothing here compares against a saved copy of earlier output.  Degrees and
shapes come from the twist data through ``brforge.chern`` (integer
combinatorics, no Groebner work); Betti tables of complete intersections
come from the Koszul complex;
links are checked by the symmetry of linkage.  Every ``*_problems`` function
returns a list of messages, empty when the output passed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

Betti = dict[tuple[int, int], int]


# ----------------------------------------------------------------- series


def strip(coeffs: Sequence[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def euler_numerator(betti: Betti) -> list[int]:
    """1 - B_0(t) + B_1(t) - ... of R/I, from the Betti table of I (step 0
    holds the generators), trailing zeros stripped."""
    top = max((d for _, d in betti), default=0)
    out = [0] * (top + 1)
    out[0] = 1
    for (k, d), rank in betti.items():
        out[d] += (-1) ** (k + 1) * rank
    return strip(out)


def h_vector_of(betti: Betti, codim: int) -> Optional[tuple[int, ...]]:
    """The h-vector a Betti table implies for a scheme of the given
    codimension: its Euler numerator divided by (1 - t)^codim, or None when
    the division leaves a remainder."""
    q = euler_numerator(betti)
    for _ in range(codim):
        quotient = []
        acc = 0
        for c in q[:-1]:
            acc += c
            quotient.append(acc)
        if not q or acc + q[-1] != 0:
            return None
        q = quotient
    return tuple(q)


def is_self_dual(betti: Betti, codim: int) -> bool:
    """The Betti table of a Gorenstein ideal of codimension c ends in one
    twist s at step c-1, and step k mirrors step c-2-k about s."""
    last = [(d, r) for (k, d), r in betti.items() if k == codim - 1]
    if len(last) != 1 or last[0][1] != 1:
        return False
    s = last[0][0]
    for (k, d), r in betti.items():
        if k >= codim or (k < codim - 1 and betti.get((codim - 2 - k, s - d)) != r):
            return False
    return True


# ----------------------------------------------------------- closed forms


def koszul_betti(degrees: Sequence[int]) -> Betti:
    """Betti table of a complete intersection of forms of these degrees."""
    out: Betti = {}
    for k in range(len(degrees)):
        for combo in combinations(degrees, k + 1):
            key = (k, sum(combo))
            out[key] = out.get(key, 0) + 1
    return out


def betti_of_lines(lines: Sequence[str]) -> Betti:
    """Parse the ``"k d rank"`` lines the command line prints."""
    out: Betti = {}
    for line in lines:
        k, d, r = (int(x) for x in line.split())
        out[(k, d)] = r
    return out


# ------------------------------------------------------------- constructions


def construction_problems(
    bf,
    *,
    t: int,
    r: int,
    entry_degree: int,
    n: int,
    twist: int,
    escalations: int,
    degree: int,
    h_vector: Sequence[int],
    codimension: int,
    section_in_result: bool,
    betti: Optional[Betti] = None,
) -> list[str]:
    """A kernel-section construction against the predictions for the twist
    it used: Chern degree (and the closed r=3 formula), a symmetric h-vector
    equal to the one the predicted Betti shape implies, codimension r, the
    section ideal inside the result, no escalation, and, when given, the
    Betti table equal to the predicted shape."""
    problems = []
    # a section of the kernel of a t x (t+r) matrix with entries of degree e,
    # at module twist D: a = (D - e) over the source, b = D over the target
    spec = bf.chern.TwistSpec(a=(twist - entry_degree,) * (t + r), b=(twist,) * t, n=n)
    predicted = bf.chern.chern_coefficients(spec).expected_degree
    if escalations != 0:
        problems.append(f"section degree escalated {escalations} time(s)")
    if degree != predicted:
        problems.append(f"degree {degree}, Chern prediction {predicted}")
    if r == 3:
        closed = bf.chern.degree_formula_r3(spec.a, spec.b)
        if degree != closed:
            problems.append(f"degree {degree}, closed r=3 formula {closed}")
    h = tuple(h_vector)
    if h != h[::-1]:
        problems.append(f"h-vector {h} is not symmetric")
    shape = bf.chern.expected_resolution(spec).as_betti_dict()
    implied = h_vector_of(shape, r)
    if h != implied:
        problems.append(f"h-vector {h}, predicted shape implies {implied}")
    if codimension != r:
        problems.append(f"codimension {codimension}, expected {r}")
    if not section_in_result:
        problems.append("the section ideal is not inside the result")
    if betti is not None and betti != shape:
        problems.append(f"Betti table {sorted(betti.items())}, predicted {sorted(shape.items())}")
    return problems


# -------------------------------------------------------------- resolutions


def resolution_problems(
    betti: Betti, expected: Betti, first_series: Sequence[int], gorenstein: bool
) -> list[str]:
    problems = []
    if betti != expected:
        problems.append(f"Betti table {sorted(betti.items())}, closed form {sorted(expected.items())}")
    if euler_numerator(betti) != strip(first_series):
        problems.append(
            f"Euler numerator {euler_numerator(betti)}, Hilbert series {list(first_series)}"
        )
    if not gorenstein:
        problems.append("certificate is not Gorenstein")
    return problems


# ------------------------------------------------------------------ liaison


def section_problems(phi, IV, section) -> list[str]:
    """A common section must lie in the kernel of phi with entries in I_V."""
    problems = []
    image = phi.ring.zero
    for f, entry in zip(phi.entries[0], section.vector.entries):
        image = image + f * entry
    if not image.is_zero():
        problems.append("the section is not in the kernel")
    if not all(IV.contains(e) for e in section.vector.entries):
        problems.append("a section entry is not in I_V")
    return problems


def link_problems(bf, V, X, residual, betti: Betti, certificate) -> list[str]:
    """X links V to the residual: X is Gorenstein (symmetric h, self-dual
    Betti table ending in rank 1), I_X lies in I_V, degrees add up, and
    linkage is symmetric, (I_X : I_residual) = I_V."""
    problems = []
    hv = bf.hilbert.hilbert_report(V)
    hx = bf.hilbert.hilbert_report(X)
    hr = bf.hilbert.hilbert_report(residual)
    codim = hx.codimension
    if not certificate.arithmetically_gorenstein:
        problems.append("X is not certified Gorenstein")
    if hx.second_series != hx.second_series[::-1]:
        problems.append(f"h-vector of X {hx.second_series} is not symmetric")
    if not is_self_dual(betti, codim):
        problems.append(f"Betti table of X {sorted(betti.items())} is not self-dual")
    if not V.contains_ideal(X):
        problems.append("I_X is not inside I_V")
    if hx.degree != hv.degree + hr.degree:
        problems.append(f"deg X = {hx.degree}, deg V + deg residual = {hv.degree + hr.degree}")
    if not bf.ideals.ideal_quotient(X, residual).equals(V):
        problems.append("(I_X : I_residual) is not I_V")
    return problems


def generalized_problems(bf, IG, ci_degrees: Sequence[int], d: int, run) -> list[str]:
    """The section's top part must be an almost complete intersection of the
    predicted type, whose Betti table embeds in the predicted shape."""
    problems = []
    base = bf.resolution.free_resolution(IG)
    n = IG.ring.n
    ell = n + 1 - base.twists[2][0]
    spec = bf.chern.GenBRSpec(
        e1=tuple(base.twists[0]), e2=tuple(base.twists[1]),
        ci_degrees=tuple(ci_degrees), ell=ell, d=d, n=n,
    )
    expected_type = tuple(sorted([d - dk for dk in ci_degrees] + [spec.b - d]))
    X = run.section_top
    betti = run.betti.as_dict()
    gens = tuple(sorted(deg for (k, deg), r in betti.items() if k == 0 for _ in range(r)))
    if gens != expected_type:
        problems.append(f"generator degrees {gens}, almost complete intersection {expected_type}")
    rep = bf.hilbert.hilbert_report(X)
    if rep.codimension != 3:
        problems.append(f"codimension {rep.codimension}, expected 3")
    if euler_numerator(betti) != strip(rep.first_series):
        problems.append("Betti table disagrees with the Hilbert series")
    if bf.chern.expected_resolution_aci(spec).ghost_difference(betti) is None:
        problems.append(f"Betti table {sorted(betti.items())} does not embed in the predicted shape")
    return problems


def saturation_problems(bf, J, sat) -> list[str]:
    """Saturation contains the ideal, keeps its degree and is idempotent."""
    problems = []
    if not sat.contains_ideal(J):
        problems.append("the ideal is not inside its saturation")
    if bf.hilbert.hilbert_report(sat).degree != bf.hilbert.hilbert_report(J).degree:
        problems.append("saturation changed the degree")
    if not bf.ideals.saturation(sat).equals(sat):
        problems.append("saturation is not idempotent")
    return problems
