"""Reference group tables and group invariants used for identification.

Tables are plain 0-based Cayley tables with 0 as the identity, the same
convention as the gyrogroup carrier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import FiniteGyrogroup, _close, _distinct, _first_false, check_left_gyroassociativity

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
    """Product table on pairs encoded as a * len(second) + b, in intp."""
    first = np.asarray(first)
    second = np.asarray(second)
    k = second.shape[0]
    a1, b1 = np.divmod(np.arange(first.shape[0] * k)[:, None], k)
    a2, b2 = np.divmod(np.arange(first.shape[0] * k)[None, :], k)
    return np.multiply(first[a1, a2], k, dtype=np.intp) + second[b1, b2]


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
    e, a = np.divmod(np.arange(2 * m), m)
    scale = np.where(e, k, 1)[:, None]
    return (a[:, None] + scale * a[None, :]) % m + m * (e[:, None] ^ e[None, :])


def first_group_axiom_violation(table: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """First failing group axiom (identity 0, two-sided inverses, associativity)."""
    T = np.asarray(table)
    idx = np.arange(T.shape[0])
    for name, ok in (
        ("left_identity", T[0] == idx),
        ("right_identity", T[:, 0] == idx),
        ("inverse", ((T == 0) & (T.T == 0)).any(axis=1)),
    ):
        witness = _first_false(ok)
        if witness is not None:
            return name, witness
    associativity = check_left_gyroassociativity(FiniteGyrogroup.from_group(T))
    if not associativity.passed:
        return "associativity", associativity.witness
    return None


def element_orders(table: np.ndarray) -> list[int]:
    """The least k >= 1 with a^k = 0 under right powers a^(k+1) = a^k · a, for
    each a; 0 when the powers do not reach 0 within n steps (they cycle then)."""
    T = np.asarray(table)
    n = T.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    power = idx = np.arange(n)
    for k in range(1, n + 1):
        orders[(power == 0) & (orders == 0)] = k
        power = T[power, idx]
    return orders.tolist()


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
    violation = first_group_axiom_violation(T)
    if violation is not None:
        raise ValueError(f"not a group table: {violation[0]} fails at {violation[1]}")
    return _invariants(T)


def _invariants(T: np.ndarray) -> GroupInvariants:
    """`group_invariants` of a table already known to be a group's."""
    n = T.shape[0]
    orders = element_orders(T)
    inv = np.argmax(T == 0, axis=1)
    commutators = _distinct(T[T, inv[T.T]])
    return GroupInvariants(
        order=n,
        abelian=bool(np.array_equal(T, T.T)),
        order_multiset=tuple(sorted(Counter(orders).items())),
        center_size=int((T == T.T).all(axis=1).sum()),
        derived_size=len(_close(FiniteGyrogroup.from_group(T), frozenset(commutators.tolist()))),
    )
