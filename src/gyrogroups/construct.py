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

import numpy as np

from .core import FiniteGyrogroup, Permutation, _element_type, _row_blocks

__all__ = [
    "CyclicParams",
    "DEFAULT_MAX_N",
    "build_cyclic_gyrogroup",
    "gyration_selector",
    "half_shift",
    "half_shift_permutation",
    "inverse_element",
    "oplus",
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


def _check_element(p: CyclicParams, i) -> None:
    """Raise ValueError unless i, an int or an integer array, lies in 0..2**n - 1."""
    low, high = (i.min(), i.max()) if isinstance(i, np.ndarray) else (i, i)
    if low < 0 or high >= p.order:
        raise ValueError(f"element {low if low < 0 else high} out of range 0..{p.order - 1}")


def oplus(p: CyclicParams, i, j):
    """The four-case binary operation on {0..2**n - 1}.

    With t = i + j and s = i + j + m/2, both reduced into {0..m-1} before m
    is added, each case lands in exactly one half:

    * even-high i with odd-high j  ->  s            (lower half)
    * even-high i with odd-low j   ->  s + m        (upper half)
    * i, j in the same half        ->  t            (lower half)
    * i, j in different halves     ->  t + m        (upper half)

    i and j are ints or broadcastable integer arrays; ints give an int, and
    arrays an array of their integer type.
    """
    _check_element(p, i)
    _check_element(p, j)
    # the case terms are integers 0 or 1, not bools, which would widen an
    # array to int64 when multiplied by an int
    i_high, j_high = i // p.m, j // p.m
    shift = p.half * i_high * (1 - i % 2)
    return (i + j + shift * (j % 2)) % p.m + ((p.m * i_high) ^ (p.m * j_high))


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
    followed by the half-shift map.  Both tables are filled a block of rows
    at a time, so no temporary is as large as a table.
    """
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the cap of {max_n} (tables grow as 4**n); raise max_n to override"
        )
    p = CyclicParams(n)
    cayley = np.empty((p.order, p.order), dtype=_element_type(p.order))
    gyr = np.empty((p.order, p.order), dtype=np.uint16)
    j = np.arange(p.order, dtype=np.int32)
    # an eighth of a block at a time, so that the few int32 temporaries of
    # `oplus` stay under 1 MiB beside the tables the instance adopts
    for rows in _row_blocks(p.order, 8 * p.order):
        i = j[rows, None]
        cayley[rows] = oplus(p, i, j)
        gyr[rows] = gyration_selector(p, i, j)
    return FiniteGyrogroup._adopt(cayley, gyr, (j, half_shift(p, j)))
