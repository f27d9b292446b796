"""Closed-form construction of gyrogroups of order 2**n from cyclic 2-groups.

The carrier is Z_{2**n} split into a lower half {0..m-1} (m = 2**(n-1)),
which is a cyclic subgroup under the operation, and its shifted copy
{m..2m-1}.  Everything is driven by a four-way parity partition of the
carrier: the operation, the unique nontrivial gyration (the "half-shift"
map, which adds m/2 to odd residues), and the selector that decides which
pairs gyrate nontrivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FiniteGyrogroup, Permutation

__all__ = [
    "CyclicParams",
    "DEFAULT_MAX_N",
    "ParityClass",
    "Residues",
    "build_cyclic_gyrogroup",
    "classify",
    "gyration_selector",
    "half_shift",
    "half_shift_permutation",
    "inverse_element",
    "oplus",
    "residues",
]

# Cayley tables grow quadratically (n=12 is 4096x4096, ~16.7M entries); the
# cap is a guard rail, not a hard limit.
DEFAULT_MAX_N = 12


@dataclass(frozen=True)
class CyclicParams:
    """Sizes of the order-2**n construction: half size m = 2**(n-1)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(
                f"n >= 3 required (got {self.n}): the half-shift offset m/2 must be even"
            )

    @property
    def m(self) -> int:
        return 1 << (self.n - 1)

    @property
    def order(self) -> int:
        return 1 << self.n

    @property
    def half(self) -> int:
        return self.m // 2


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


def _check_element(p: CyclicParams, i) -> None:
    """Raise ValueError unless i, an int or an integer array, lies in 0..2**n - 1."""
    low, high = (i.min(), i.max()) if isinstance(i, np.ndarray) else (i, i)
    if low < 0 or high >= p.order:
        raise ValueError(f"element {low if low < 0 else high} out of range 0..{p.order - 1}")


def classify(p: CyclicParams, i: int) -> ParityClass:
    """Parity class of element i: (odd/even) x (lower/upper half)."""
    _check_element(p, i)
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
    _check_element(p, i)
    _check_element(p, j)
    return Residues(
        t=(i + j) % p.m,
        s=(i + j + p.half) % p.m,
        r=(i + p.half) % p.m,
    )


def oplus(p: CyclicParams, i, j):
    """The four-case binary operation on {0..2**n - 1}.

    Residues are reduced into {0..m-1} first and m is added afterwards, so
    each case lands in exactly one half:

    * even-high i with odd-high j  ->  s            (lower half)
    * even-high i with odd-low j   ->  s + m        (upper half)
    * i, j in the same half        ->  t            (lower half)
    * i, j in different halves     ->  t + m        (upper half)

    i and j are ints or broadcastable integer arrays; ints give an int.
    """
    _check_element(p, i)
    _check_element(p, j)
    i_high, j_high = i >= p.m, j >= p.m
    shifted = i_high & (i % 2 == 0) & (j % 2 == 1)
    return (i + j + p.half * shifted) % p.m + p.m * (i_high != j_high)


def half_shift(p: CyclicParams, i):
    """The nontrivial gyration: add m/2 (mod m) to odd elements, fix even ones.

    i is an int or an integer array; an int gives an int.
    """
    _check_element(p, i)
    return (i + p.half * (i % 2 == 1)) % p.m + p.m * (i >= p.m)


def half_shift_permutation(p: CyclicParams) -> Permutation:
    return Permutation(tuple(half_shift(p, np.arange(p.order)).tolist()))


def gyration_selector(p: CyclicParams, a, b):
    """True when the pair (a, b) gyrates by the half-shift map, False for identity.

    The nontrivial pairs are exactly: odd-low with anything high, odd-high
    with odd-low or even-high, and even-high with anything odd.  a and b are
    ints or broadcastable integer arrays; ints give a bool.
    """
    _check_element(p, a)
    _check_element(p, b)
    a_low, a_high, b_high = a < p.m, a >= p.m, b >= p.m
    a_odd, a_even, b_odd = a % 2 == 1, a % 2 == 0, b % 2 == 1
    return (
        (a_odd & a_low & b_high)
        | (a_odd & a_high & (b_odd != b_high))
        | (a_even & a_high & b_odd)
    )


def inverse_element(p: CyclicParams, x):
    """Closed-form inverse: -x mod m in the lower half, shifted likewise above.

    x is an int or an integer array; an int gives an int.
    """
    _check_element(p, x)
    return (-x) % p.m + p.m * (x >= p.m)


def build_cyclic_gyrogroup(n: int, *, max_n: int = DEFAULT_MAX_N) -> FiniteGyrogroup:
    """Materialize the full order-2**n gyrogroup tables.

    The Cayley table comes from :func:`oplus`, the gyration table from
    :func:`gyration_selector`, and the two image rows are the identity
    followed by the half-shift map.
    """
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the cap of {max_n} (tables grow as 4**n); raise max_n to override"
        )
    p = CyclicParams(n)
    i = np.arange(p.order, dtype=np.int64)[:, None]
    j = np.arange(p.order, dtype=np.int64)[None, :]
    images = (np.arange(p.order), half_shift(p, np.arange(p.order)))
    return FiniteGyrogroup(
        oplus(p, i, j), gyration_selector(p, i, j).astype(np.uint16), images
    )
