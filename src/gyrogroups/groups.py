"""Reference group tables and group invariants used for identification.

Tables are plain 0-based Cayley tables with 0 as the identity, the same
convention as the gyrogroup carrier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import FiniteGyrogroup, _close, check_left_gyroassociativity

__all__ = [
    "GroupInvariants",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "element_orders",
    "first_group_axiom_violation",
    "group_invariants",
    "semidirect_cyclic_z2",
]


def cyclic_group(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("order must be positive")
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def direct_product(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Product table on pairs encoded as a * len(second) + b."""
    first = np.asarray(first)
    second = np.asarray(second)
    k = second.shape[0]
    a1, b1 = np.divmod(np.arange(first.shape[0] * k)[:, None], k)
    a2, b2 = np.divmod(np.arange(first.shape[0] * k)[None, :], k)
    return first[a1, a2] * k + second[b1, b2]


def dihedral_group(sides: int) -> np.ndarray:
    """Dihedral group of order 2*sides; element r**a f**e encoded as a + sides*e."""
    if sides < 1:
        raise ValueError("sides must be positive")
    return semidirect_cyclic_z2(sides, sides - 1)


def semidirect_cyclic_z2(m: int, k: int) -> np.ndarray:
    """Z_m extended by an order-2 element acting as x -> k*x (mod m).

    Element (a, e) with a in Z_m, e in {0, 1} is encoded as a + m*e.
    Requires k*k = 1 (mod m) so the action has order dividing 2.
    """
    if (k * k - 1) % m:
        raise ValueError(f"action x -> {k}x is not an involution mod {m}")
    n = 2 * m
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        a, e = x % m, x // m
        for y in range(n):
            b, f = y % m, y // m
            table[x, y] = (a + (b * k if e else b)) % m + m * ((e + f) % 2)
    return table


def first_group_axiom_violation(table: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """First failing group axiom (identity 0, two-sided inverses, associativity)."""
    T = np.asarray(table)
    n = T.shape[0]
    idx = np.arange(n)
    bad = np.argwhere(T[0] != idx)
    if bad.size:
        return "left_identity", (int(bad[0][0]),)
    bad = np.argwhere(T[:, 0] != idx)
    if bad.size:
        return "right_identity", (int(bad[0][0]),)
    for a in range(n):
        has = np.nonzero((T[a] == 0) & (T[:, a] == 0))[0]
        if has.size == 0:
            return "inverse", (a,)
    associativity = check_left_gyroassociativity(FiniteGyrogroup.from_group(T))
    if not associativity.passed:
        return "associativity", associativity.witness
    return None


def element_orders(table: np.ndarray) -> list[int]:
    T = np.asarray(table)
    orders = []
    for a in range(T.shape[0]):
        x = a
        k = 1
        while x != 0:
            x = int(T[x, a])
            k += 1
        orders.append(k)
    return orders


@dataclass(frozen=True)
class GroupInvariants:
    """Cheap isomorphism invariants used to tell small groups apart."""

    order: int
    abelian: bool
    order_multiset: tuple[tuple[int, int], ...]  # (element order, count) pairs
    center_size: int
    derived_size: int

    def describe(self) -> str:
        orders = ", ".join(f"{k}:{v}" for k, v in self.order_multiset)
        return (
            f"order={self.order} abelian={self.abelian} element_orders={{{orders}}} "
            f"center={self.center_size} derived={self.derived_size}"
        )


def group_invariants(table: np.ndarray) -> GroupInvariants:
    T = np.asarray(table)
    n = T.shape[0]
    violation = first_group_axiom_violation(T)
    if violation is not None:
        raise ValueError(f"not a group table: {violation[0]} fails at {violation[1]}")
    orders = element_orders(T)
    center = sum(1 for e in range(n) if np.array_equal(T[e], T[:, e]))
    inv = np.empty(n, dtype=np.int64)
    for a in range(n):
        inv[a] = int(np.nonzero(T[a] == 0)[0][0])
    commutators = {
        int(T[T[a, b], inv[T[b, a]]]) for a in range(n) for b in range(n)
    }
    return GroupInvariants(
        order=n,
        abelian=bool(np.array_equal(T, T.T)),
        order_multiset=tuple(sorted(Counter(orders).items())),
        center_size=center,
        derived_size=len(_close(FiniteGyrogroup.from_group(T), frozenset(commutators))),
    )
