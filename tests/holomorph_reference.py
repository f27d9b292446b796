"""Element-at-a-time reference for Γ, the gyroholomorph and group invariants.

Γ is closed by composing every pair of known permutations in both orders
until nothing new appears, the holomorph table is filled one entry at a
time from the image tuples, and the group invariants come from
per-element loops, the derived subgroup from ``ref_close``.  These serve
only to check the array versions in ``gyrogroups.analyze`` and
``gyrogroups.groups`` on small inputs.
"""

from collections import Counter

import numpy as np

from gyrogroups import FiniteGyrogroup, GroupInvariants

from lattice_reference import ref_close


def compose(p, q):
    """The images of p∘q, applying q first, from the image tuples of p and q."""
    return tuple(p[y] for y in q)


def ref_gyroautomorphism_group(G):
    """Pairwise closure of the distinct gyrations, as image tuples; identity
    first, then by images."""
    elems = {G.perms[int(k)].images for k in np.unique(G.gyr_table)}
    frontier = list(elems)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(elems):
                for r in (compose(p, q), compose(q, p)):
                    if r not in elems:
                        elems.add(r)
                        fresh.append(r)
        frontier = fresh
    ident = tuple(range(G.order))
    return (ident,) + tuple(sorted(elems - {ident}))


def ref_holomorph_table(G):
    """(x, X)(y, Y) = (x ⊕ X(y), gyr[x, X(y)] ∘ X ∘ Y), entry by entry."""
    gamma = ref_gyroautomorphism_group(G)
    k = len(gamma)
    index = {p: i for i, p in enumerate(gamma)}
    n = G.order * k
    table = np.empty((n, n), dtype=np.int64)
    for x in range(G.order):
        for xi, X in enumerate(gamma):
            for y in range(G.order):
                xy = X[y]
                twist = compose(G.gyration(x, xy).images, X)
                for yi, Y in enumerate(gamma):
                    table[x * k + xi, y * k + yi] = G.oplus(x, xy) * k + index[compose(twist, Y)]
    return table


def ref_first_unit_violation(T):
    """First failure of identity 0 or of two-sided inverses, one element at a time."""
    n = T.shape[0]
    for a in range(n):
        if T[0, a] != a:
            return "left_identity", (a,)
    for a in range(n):
        if T[a, 0] != a:
            return "right_identity", (a,)
    for a in range(n):
        if not any(T[a, b] == 0 and T[b, a] == 0 for b in range(n)):
            return "inverse", (a,)
    return None


def ref_element_orders(T):
    """Right-power orders a^(k+1) = a^k · a; 0 when 0 is not reached in n steps."""
    n = T.shape[0]
    orders = []
    for a in range(n):
        x, k = a, 1
        while x != 0 and k <= n:
            x = int(T[x, a])
            k += 1
        orders.append(k if x == 0 else 0)
    return orders


def ref_left_orders(G):
    """Left-power orders x^(k+1) = x ⊕ x^k; 0 if no return."""
    C = G.cayley
    out = []
    for x in range(G.order):
        acc, k = x, 1
        while acc != 0 and k <= G.order:
            acc = int(C[x, acc])
            k += 1
        out.append(k if acc == 0 else 0)
    return out


def ref_group_invariants(T):
    n = T.shape[0]
    inv = [next(b for b in range(n) if T[a, b] == 0) for a in range(n)]
    commutators = {int(T[T[a, b], inv[T[b, a]]]) for a in range(n) for b in range(n)}
    return GroupInvariants(
        order=n,
        abelian=bool(np.array_equal(T, T.T)),
        order_multiset=tuple(sorted(Counter(ref_element_orders(T)).items())),
        center_size=sum(1 for e in range(n) if np.array_equal(T[e], T[:, e])),
        derived_size=len(ref_close(FiniteGyrogroup.from_group(T), commutators)),
    )


def ref_semidirect_cyclic_z2(m, k):
    """Z_m extended by x -> k*x, element (a, e) encoded as a + m*e."""
    n = 2 * m
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        a, e = x % m, x // m
        for y in range(n):
            b, f = y % m, y // m
            table[x, y] = (a + (b * k if e else b)) % m + m * ((e + f) % 2)
    return table
