"""Scalar reference for the four-case construction, one case per branch.

These are written case by case over the four parity classes and the mod-m
residues, defined here, so that the broadcasting rule in
``gyrogroups.construct`` is compared against an independent statement of the
same definitions.
"""

from dataclasses import dataclass
from enum import Enum

from gyrogroups import CyclicParams


class ParityClass(Enum):
    """One of the four parity-by-half classes partitioning the carrier."""

    EVEN_LOW = "even-low"
    ODD_LOW = "odd-low"
    EVEN_HIGH = "even-high"
    ODD_HIGH = "odd-high"

    @property
    def is_odd(self) -> bool:
        return self in (ParityClass.ODD_LOW, ParityClass.ODD_HIGH)

    @property
    def is_high(self) -> bool:
        return self in (ParityClass.EVEN_HIGH, ParityClass.ODD_HIGH)


def classify(p: CyclicParams, i: int) -> ParityClass:
    """Parity class of element i: (odd/even) x (lower/upper half)."""
    if not 0 <= i < p.order:
        raise ValueError(f"element {i} out of range 0..{p.order - 1}")
    if i < p.m:
        return ParityClass.ODD_LOW if i % 2 else ParityClass.EVEN_LOW
    return ParityClass.ODD_HIGH if i % 2 else ParityClass.EVEN_HIGH


@dataclass(frozen=True)
class Residues:
    """The mod-m residues the construction is written in, all in {0..m-1}."""

    t: int  # i + j (mod m)
    s: int  # i + j + m/2 (mod m)
    r: int  # i + m/2 (mod m)


def residues(p: CyclicParams, i: int, j: int) -> Residues:
    classify(p, i)  # range checks
    classify(p, j)
    return Residues(t=(i + j) % p.m, s=(i + j + p.half) % p.m, r=(i + p.half) % p.m)


def ref_oplus(p: CyclicParams, i: int, j: int) -> int:
    res = residues(p, i, j)
    ci = classify(p, i)
    cj = classify(p, j)
    if ci is ParityClass.EVEN_HIGH and cj is ParityClass.ODD_HIGH:
        return res.s
    if ci is ParityClass.EVEN_HIGH and cj is ParityClass.ODD_LOW:
        return res.s + p.m
    if ci.is_high == cj.is_high:
        return res.t
    return res.t + p.m


def ref_half_shift(p: CyclicParams, i: int) -> int:
    cls = classify(p, i)
    r = (i + p.half) % p.m
    if cls is ParityClass.ODD_LOW:
        return r
    if cls is ParityClass.ODD_HIGH:
        return r + p.m
    return i


def ref_gyration_selector(p: CyclicParams, a: int, b: int) -> bool:
    ca = classify(p, a)
    cb = classify(p, b)
    if ca is ParityClass.ODD_LOW:
        return cb.is_high
    if ca is ParityClass.ODD_HIGH:
        return cb is ParityClass.ODD_LOW or cb is ParityClass.EVEN_HIGH
    if ca is ParityClass.EVEN_HIGH:
        return cb.is_odd
    return False


def ref_inverse_element(p: CyclicParams, x: int) -> int:
    classify(p, x)  # range check
    if x < p.m:
        return (-x) % p.m
    return (-(x - p.m)) % p.m + p.m
