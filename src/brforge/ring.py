"""Packed monomial keys and a seeded RNG.

A monomial z0^e0 * ... * zn^en and a module term m*e_comp are each one
Python int, so multiplying by a monomial is adding ints and comparing terms
is comparing ints:

    key(e)          = R * (deg(e) * B**(MAX_N + 1) - sum_i e_i * B**i)
    term(comp, e)   = key(e) - comp

with B = 2**EXP_BITS and R = 2**COMP_BITS = MAX_RANK.  Every variable up to
z_MAX_N owns one field of EXP_BITS bits whatever the ring, so a key means
the same in every ring and the engine needs no ring to read it.  Integer
order is degrevlex (higher degree first, then the smaller exponent on the
last differing variable), and on module terms it is term over position with
the lower component winning ties; key(1) = 0.  A polynomial's keys are its
component-0 terms.

A free module whose basis maps to columns c_0, c_1, ... can instead order
its terms by the Schreyer order those columns induce: m*e_j compares by
m*lead(c_j) in the columns' own module, then by the lower j.  That term is

    (((key(m) << s) + lead(c_j)) << COMP_BITS) - j  =  (key(m) << shift) + unit_j

where s is the shift of the columns' module, shift = s + COMP_BITS, and
unit_j = frame_unit(lead(c_j), j) is the term of e_j.  Term over position
is shift 0 with unit_j = -j.  Below the key sit `shift` bits of nested
components, so multiplying is still adding key(m) << shift, and degree,
divisibility and lcm read the fields `shift` bits further up.  The degree
such a term reads is that of the monomial of m*lead(c_j), and so on down to
a polynomial: its degree in a resolution of an ideal.

The top bit of each field is a guard bit that exponents never reach, so an
exponent is at most MAX_DEGREE = B/2 - 1 = 2047, and so is a total degree
(ValueError beyond it): one subtraction then tells divisibility by which
guard bits survive.  Exponent
tuples are decoded only where text, tuples or exponent data cross the
boundary of the program.

The coefficient field GF(p) is the prime int p a poly.PolyRing holds, and
every random form is drawn from an Rng by PolyRing.random_form or
PolyRing.sparse_form; no other module draws from one.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "MAX_N",
    "MAX_DEGREE",
    "MAX_RANK",
    "COMP_BITS",
    "Rng",
    "monomial_key",
    "key_degree",
    "key_component",
    "key_exponents",
    "key_divides",
    "key_lcm",
    "divisor_masks",
    "frame_unit",
]

# Variables are z0..zn with n at most MAX_N.
MAX_N = 16

EXP_BITS = 12
COMP_BITS = 16
_FIELDS = MAX_N + 1
_B = 1 << EXP_BITS
MAX_DEGREE = (_B >> 1) - 1
MAX_RANK = 1 << COMP_BITS
_COMP_MASK = MAX_RANK - 1
_DEG_SHIFT = COMP_BITS + EXP_BITS * _FIELDS
_GUARD = sum(1 << (COMP_BITS + EXP_BITS * i + EXP_BITS - 1) for i in range(_FIELDS))
_DIV_MASK = _GUARD | _COMP_MASK

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic 64-bit stream (splitmix64).

    The exact draw protocol is part of the output contract: identical seeds
    must reproduce identical objects everywhere, so no platform RNG is used.

        next64():  state += 0x9E3779B97F4A7C15
                   z = state
                   z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                   z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                   return z ^ (z >> 31)          (all mod 2**64)
        below(m):  next64() % m
        bit():     next64() & 1
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next64() % m

    def bit(self) -> int:
        return self.next64() & 1


def monomial_key(exps: Sequence[int]) -> int:
    """Key of the monomial with these exponents (z0 first)."""
    if len(exps) > _FIELDS:
        raise ValueError(f"more than {_FIELDS} variables: {tuple(exps)}")
    deg = 0
    packed = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        deg += e
        packed |= e << (EXP_BITS * i)
    if deg > MAX_DEGREE:
        raise ValueError(f"degree {deg} of {tuple(exps)} exceeds {MAX_DEGREE}")
    return ((deg << (EXP_BITS * _FIELDS)) - packed) << COMP_BITS


def key_degree(t: int, shift: int = 0) -> int:
    """Total degree of the monomial of a key or term."""
    return -((-t) >> (_DEG_SHIFT + shift))


def key_component(t: int) -> int:
    """Component of a term; 0 for a plain key."""
    return -t & _COMP_MASK


def _fields(t: int, shift: int = 0) -> int:
    """The exponent fields above the components: (R * sum_i e_i * B**i) << shift
    plus the components below."""
    return (key_degree(t, shift) << (_DEG_SHIFT + shift)) - t


def key_exponents(t: int, nvars: int) -> tuple[int, ...]:
    """Exponents of z0..z(nvars-1) in the monomial of a key or term."""
    packed = _fields(t) >> COMP_BITS
    mask = _B - 1
    return tuple((packed >> (EXP_BITS * i)) & mask for i in range(nvars))


def divisor_masks(shift: int = 0) -> tuple[int, int]:
    """(guard, mask) with which term a divides term b exactly when
    (a - b + guard) & mask == guard, for terms `shift` bits up."""
    return _GUARD << shift, (_DIV_MASK << shift) | _COMP_MASK


def key_divides(a: int, b: int, shift: int = 0) -> bool:
    """True when term a divides term b: same component, and no exponent of
    a exceeds b's, so every guard bit survives b's fields minus a's.  Equal
    low COMP_BITS mean equal components, and then equal nested components."""
    guard, mask = divisor_masks(shift)
    return (a - b + guard) & mask == guard


def key_lcm(a: int, b: int, shift: int = 0) -> int:
    """Least common multiple of two terms of the same component."""
    fa = _fields(a, shift)
    fb = _fields(b, shift)
    # a guard bit survives where a's exponent is at least b's; spread each
    # surviving guard bit over its whole field
    guard = _GUARD << shift
    wider = (((fa - fb + guard) & guard) >> (EXP_BITS - 1)) * (_B - 1)
    f = (fa & wider) | (fb & ~wider)
    # B = 1 (mod B - 1), so the fields sum to their value mod B - 1; the sum
    # is at most 2 * MAX_DEGREE < B - 1
    deg = (f >> (COMP_BITS + shift)) % (_B - 1)
    return (deg << (_DEG_SHIFT + shift)) - f


def frame_unit(lead: int, comp: int) -> int:
    """The term of e_comp in the order induced by columns whose comp-th
    lead is `lead`; its module's shift is the columns' shift + COMP_BITS."""
    return (lead << COMP_BITS) - comp
