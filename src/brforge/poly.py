"""Graded polynomials over GF(p) in variables z0..zn under degrevlex.

A Polynomial stores its terms as a tuple of (key, coeff) pairs, the keys
packed monomials from ring.monomial_key, sorted descending (the integer
order is the ring order), coefficients canonical in [1, p).  Exponents and
total degrees are at most ring.MAX_DEGREE.  Instances are immutable; all
arithmetic returns fresh objects.  Construction goes through a PolyRing,
which owns the coefficient field (the odd prime p, checked once), parsing,
printing, and every random draw: random_form and sparse_form are the only
two ways a form is drawn from an Rng.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .ring import MAX_DEGREE, MAX_N, Rng, key_degree, key_exponents, monomial_key

__all__ = ["PolyRing", "Polynomial", "FreeModuleElement"]

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|z(?P<var>\d+)|(?P<op>[\^*+-]))")


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    # Deterministic Miller-Rabin; these witnesses cover everything below 2**31.
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class PolyRing:
    """Coefficient field GF(p), p an odd prime below 2**31, and variables
    z0..zn, degrevlex order only.  Coefficients are canonical ints in
    [0, p); printing uses the symmetric representative in (-p/2, p/2]."""

    __slots__ = ("p", "n", "nvars", "_mon_cache", "zero", "one", "_vars")

    def __init__(self, p: int, n: int):
        if not (0 <= n <= MAX_N):
            raise ValueError(f"variable index bound n must be in [0, {MAX_N}]: {n}")
        if not isinstance(p, int) or not (2 < p < 2**31):
            raise ValueError(f"characteristic must be an int in (2, 2**31): {p!r}")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime: {p}")
        self.p = p
        self.n = n
        self.nvars = n + 1
        self._mon_cache: dict[int, tuple[int, ...]] = {}
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((0, 1),))
        self._vars = tuple(
            Polynomial(self, ((monomial_key((0,) * i + (1,)), 1),)) for i in range(self.nvars)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and other.p == self.p and other.n == self.n

    def __hash__(self) -> int:
        return hash(("PolyRing", self.p, self.n))

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, n={self.n})"

    def variables(self) -> tuple["Polynomial", ...]:
        return self._vars

    def exponents(self, key: int) -> tuple[int, ...]:
        """Exponent tuple (z0..zn) of a key."""
        return key_exponents(key, self.nvars)

    def from_terms(self, acc: Mapping[int, int]) -> "Polynomial":
        """Build a polynomial from {key: coefficient}, any integer coefficients."""
        p = self.p
        terms = [(k, c % p) for k, c in acc.items() if c % p]
        terms.sort(reverse=True)
        return Polynomial(self, tuple(terms))

    def from_dict(self, d: Mapping[tuple[int, ...], int]) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}."""
        acc: dict[int, int] = {}
        for exps, c in d.items():
            if len(exps) != self.nvars:
                raise ValueError(f"{tuple(exps)} needs {self.nvars} exponents")
            acc[monomial_key(exps)] = c
        return self.from_terms(acc)

    def _keys_of_degree(self, d: int) -> tuple[int, ...]:
        """Keys of all monomials of degree d, descending in the ring order."""
        if d < 0:
            return ()
        cached = self._mon_cache.get(d)
        if cached is None:
            combos = combinations_with_replacement(range(self.nvars), d)
            keys = [monomial_key([c.count(v) for v in range(self.nvars)]) for c in combos]
            cached = tuple(sorted(keys, reverse=True))
            self._mon_cache[d] = cached
        return cached

    def random_form(self, d: int, rng: Rng) -> "Polynomial":
        """Form of degree d with an independent uniform coefficient (0 allowed)
        drawn for every monomial, in descending ring order.  A negative
        degree has no monomials: the form is zero and nothing is drawn."""
        terms = []
        for k in self._keys_of_degree(d):
            c = rng.below(self.p)
            if c:
                terms.append((k, c))
        return Polynomial(self, tuple(terms))

    def sparse_form(self, d: int, rng: Rng) -> "Polynomial":
        """Form of degree d where each monomial, taken in descending ring
        order, is kept with probability 1/2 (one bit drawn) and, if kept,
        receives a uniform nonzero coefficient (one draw below p-1).  A
        negative degree has no monomials: the form is zero and nothing is
        drawn."""
        terms = []
        for k in self._keys_of_degree(d):
            if rng.bit():
                terms.append((k, 1 + rng.below(self.p - 1)))
        return Polynomial(self, tuple(terms))

    # ---- parsing and printing ----------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse sums of integer/variable-power products: 3*z0^2*z1 - z2 + 7."""
        tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ValueError(f"bad token at {text[pos:pos + 20]!r}")
            pos = m.end()
            if m.group("int") is not None:
                tokens.append(("int", int(m.group("int"))))
            elif m.group("var") is not None:
                v = int(m.group("var"))
                if v > self.n:
                    raise ValueError(f"variable z{v} out of range (n = {self.n})")
                tokens.append(("var", v))
            else:
                tokens.append((m.group("op"), 0))

        acc: dict[tuple[int, ...], int] = {}
        i = 0

        def parse_term(i: int, sign: int) -> int:
            coeff = sign
            exps = [0] * self.nvars
            expect_factor = True
            while True:
                if expect_factor:
                    if i >= len(tokens):
                        raise ValueError("dangling operator at end of input")
                    kind, val = tokens[i]
                    if kind == "int":
                        coeff *= val
                        i += 1
                    elif kind == "var":
                        e = 1
                        i += 1
                        if i < len(tokens) and tokens[i][0] == "^":
                            i += 1
                            if i >= len(tokens) or tokens[i][0] != "int":
                                raise ValueError("exponent must be an integer")
                            e = tokens[i][1]
                            i += 1
                        exps[val] += e
                    else:
                        raise ValueError(f"expected a factor, got {kind!r}")
                    expect_factor = False
                else:
                    if i < len(tokens) and tokens[i][0] == "*":
                        i += 1
                        expect_factor = True
                    else:
                        break
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + coeff
            return i

        if not tokens:
            raise ValueError("empty polynomial text")
        sign = 1
        while i < len(tokens) and tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        i = parse_term(i, sign)
        while i < len(tokens):
            kind = tokens[i][0]
            if kind not in ("+", "-"):
                raise ValueError(f"expected + or - between terms, got {kind!r}")
            sign = 1
            while i < len(tokens) and tokens[i][0] in ("+", "-"):
                if tokens[i][0] == "-":
                    sign = -sign
                i += 1
            i = parse_term(i, sign)
        return self.from_dict(acc)

    def format(self, f: "Polynomial") -> str:
        if not f.terms:
            return "0"
        p = self.p
        parts: list[str] = []
        for idx, (k, c) in enumerate(f.terms):
            cs = c % p
            if cs > p // 2:
                cs -= p
            mag = abs(cs)
            factors = []
            for v, e in enumerate(self.exponents(k)):
                if e == 1:
                    factors.append(f"z{v}")
                elif e > 1:
                    factors.append(f"z{v}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if idx == 0:
                parts.append("-" + body if cs < 0 else body)
            else:
                parts.append((" - " if cs < 0 else " + ") + body)
        return "".join(parts)


class Polynomial:
    """Immutable element of a PolyRing; terms descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple[tuple[int, int], ...]):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  The order is graded,
        so the leading term has the largest degree."""
        if not self.terms:
            return -1
        return key_degree(self.terms[0][0])

    def is_homogeneous(self) -> tuple[bool, int | None]:
        """(True, d) for a nonzero form of degree d; (True, None) for zero,
        meaning any degree; (False, None) otherwise."""
        if not self.terms:
            return (True, None)
        d = key_degree(self.terms[0][0])
        if key_degree(self.terms[-1][0]) != d:
            return (False, None)
        return (True, d)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {self.ring.exponents(k): c for k, c in self.terms}

    def swap_last(self, var: int) -> "Polynomial":
        """self with z_n and the variable of key var exchanged.  A key is
        additive in the exponents, so a term with exponent a of that
        variable and b of z_n moves by (b - a) times var's key minus z_n's."""
        ring = self.ring
        j = ring.exponents(var).index(1)
        step = var - ring.variables()[-1].terms[0][0]
        terms = []
        for k, c in self.terms:
            e = ring.exponents(k)
            terms.append((k + (e[-1] - e[j]) * step, c))
        return Polynomial(ring, tuple(sorted(terms, reverse=True)))

    def substitute_last(self, form: "Polynomial") -> "Polynomial":
        """self with the last variable z_n replaced by form: the sum over e
        of (the z_n^e part of self, divided by z_n^e) * form^e."""
        self._check(form)
        ring = self.ring
        zn = ring.variables()[-1].terms[0][0]
        parts: dict[int, dict[int, int]] = {}
        for k, c in self.terms:
            e = ring.exponents(k)[-1]
            parts.setdefault(e, {})[k - e * zn] = c
        return sum((ring.from_terms(part) * form**e for e, part in parts.items()), ring.zero)

    def divide_out_last(self) -> "Polynomial":
        """self divided by the largest power of z_n that divides it.  A key
        is additive in the exponents, so dividing a term by z_n^e subtracts
        e times z_n's key, which keeps the terms' order."""
        if not self.terms:
            return self
        ring = self.ring
        e = min(ring.exponents(k)[-1] for k, _ in self.terms)
        if not e:
            return self
        shift = e * ring.variables()[-1].terms[0][0]
        return Polynomial(ring, tuple((k - shift, c) for k, c in self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) + c
        return self.ring.from_terms(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) - c
        return self.ring.from_terms(acc)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, tuple((k, p - c) for k, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        if self.degree() + other.degree() > MAX_DEGREE:
            raise ValueError(f"product degree exceeds {MAX_DEGREE}")
        acc: dict[int, int] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return self.ring.from_terms(acc)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        return reduce(lambda a, b: a * b, [self] * k, self.ring.one)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

    def __str__(self) -> str:
        return self.ring.format(self)

    def __repr__(self) -> str:
        return f"<{self.ring.format(self)}>"

    def _check(self, other: "Polynomial") -> None:
        if other.ring != self.ring:
            raise ValueError("mixed polynomial rings")


class FreeModuleElement:
    """Element of a graded free module with generator degrees `twists`.

    The j-th summand is R(-twists[j]); a homogeneous element of degree D has
    entry j either zero or a form of degree D - twists[j].
    """

    __slots__ = ("ring", "entries", "twists")

    def __init__(self, ring: PolyRing, entries: Sequence[Polynomial], twists: Sequence[int]):
        if len(entries) != len(twists):
            raise ValueError("entry/twist length mismatch")
        self.ring = ring
        self.entries = tuple(entries)
        self.twists = tuple(twists)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeModuleElement)
            and other.ring == self.ring
            and other.entries == self.entries
            and other.twists == self.twists
        )

    def __repr__(self) -> str:
        inner = ", ".join(self.ring.format(e) for e in self.entries)
        return f"FreeModuleElement[{inner}]"

