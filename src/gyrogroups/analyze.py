"""Subgyrogroup structure, gyroautomorphisms, the gyroholomorph, and isomorphism.

A subgyrogroup is a subset containing 0 that is closed under the operation,
under left inverses, and under its internal gyrations; in a verified
gyrogroup every set closed under ⊕ holding 0 is one (see ``core._close``).
Enumeration works on any verified gyrogroup in one pass over the lattice,
smallest sets first:
each closed set is joined with every cyclic subgyrogroup outside it, and
those joins yield the whole lattice, its covers, and the canonical generators
by dynamic programming.  The closed-form classifier is specific to the cyclic
construction and provides the independent cross-check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construct import CyclicParams, gyration_selector, oplus
from .core import (
    FiniteGyrogroup,
    GyrogroupDataError,
    Permutation,
    _close,
    _distinct,
    _integral,
    _referenced_gyrations,
    _row_keys,
    _row_positions,
    check_left_gyroassociativity,
)
from .groups import (
    GroupInvariants,
    _invariants,
    cyclic_group,
    direct_product,
    element_orders,
    first_group_axiom_violation,
    group_invariants,
    semidirect_cyclic_z2,
)

__all__ = [
    "GyroholomorphGroup",
    "Subgyrogroup",
    "SubgyrogroupLattice",
    "classify_subgyrogroups",
    "closure",
    "enumerate_subgyrogroups",
    "gyroautomorphism_group",
    "gyroholomorph",
    "holomorph_structure_matches",
    "is_degenerate_group",
    "isomorphic",
    "restrict",
]


@dataclass(frozen=True)
class Subgyrogroup:
    """A closed subset with its canonical generators.

    ``generators`` is the smallest generating list under (size, lexicographic)
    order, so labels are stable.  ``is_group`` records whether every internal
    gyration fixes the subset pointwise, which makes the restriction an
    ordinary group.  ``closed_form`` carries the family label when the subset
    came from the closed-form classifier.
    """

    elements: tuple[int, ...]
    generators: tuple[int, ...]
    is_group: bool
    closed_form: str | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def label(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class SubgyrogroupLattice:
    """All subgyrogroups ordered by inclusion, with covers as the Hasse edges."""

    nodes: tuple[Subgyrogroup, ...]
    covers: tuple[tuple[int, int], ...]  # (child index, parent index)

    @property
    def bottom(self) -> Subgyrogroup:
        return self.nodes[0]

    @property
    def top(self) -> Subgyrogroup:
        return self.nodes[-1]


def _gyrations_fix_pointwise(G: FiniteGyrogroup, members: frozenset[int]) -> bool:
    S = np.fromiter(members, dtype=np.int64)
    return bool((G.perm_matrix[_distinct(G.gyr_table[S[:, None], S])][:, S] == S).all())


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _cyclic_closures(G: FiniteGyrogroup, pool: Sequence[int]) -> dict[int, frozenset[int]]:
    """close({x}) for every x in ``pool``, one walk per distinct set.

    In a gyrogroup gyr[mx, kx] = I, so close({x}) is the cyclic group of the
    powers mx, walked as x, x ⊕ x, … up to its order d, where it returns to
    0; each mx with gcd(m, d) = 1 generates the same group.  A walk that
    does not return to 0 within N steps is on tables that are not a
    gyrogroup, and x is closed as any set is.
    """
    cyclic: dict[int, frozenset[int]] = {}
    for x in pool:
        if x in cyclic:
            continue
        row = G.cayley[x].tolist()
        powers = [0]
        p = x
        while p != 0 and len(powers) < G.order:
            powers.append(p)
            p = row[p]  # (m + 1)x = x ⊕ mx
        if p != 0:
            cyclic[x] = _close(G, frozenset((x,)))
            continue
        members = frozenset(powers)
        for m, power in enumerate(powers):
            if math.gcd(m, len(powers)) == 1:
                cyclic[power] = members
    return cyclic


def _join_pass(G: FiniteGyrogroup, pool: Sequence[int]) -> tuple[dict, dict]:
    """Every closed set generated inside ``pool``, by one pass of joins.

    Closed sets T are taken smallest first, in (size, sorted elements) order,
    and joined with close({x}) for each x in ``pool`` outside T, once per
    distinct cyclic subgyrogroup, at its smallest x; that join is
    close(T ∪ {x}).  When |S|/|T| is prime for a join S, Lagrange's theorem
    leaves no closed set strictly between T and S, so every y in S ∖ T
    joins T to S too, and is skipped.  Returns each set's canonical
    generators (empty for the bottom) and, keyed in that order, the sets its
    joins reach.

    gen(S) is the (size, lex) minimum of sorted(gen(T) + (x,)) over the joins
    that reach S.  Dropping an element x from the minimal tuple of S leaves
    the minimal tuple of its closure T, since inserting x keeps lex order;
    and x is the smallest of its cyclic class outside T, or a smaller one
    would give a smaller tuple.  A skipped y comes after x in ``pool``,
    which is increasing, so its label is never smaller.
    """
    bottom = _close(G, frozenset())
    cyclic = _cyclic_closures(G, pool)
    gens: dict[frozenset[int], tuple[int, ...]] = {bottom: ()}
    reached: dict[frozenset[int], set[frozenset[int]]] = {}
    heap = [(len(bottom), tuple(sorted(bottom)), bottom)]
    while heap:
        T = heapq.heappop(heap)[2]
        joins: dict[frozenset[int], frozenset[int]] = {}
        done = set(T)
        for x in pool:
            if x in done or cyclic[x] in joins:
                continue
            S = joins[cyclic[x]] = _close(G, T | cyclic[x])
            if _is_prime(len(S) // len(T)):
                # Lagrange: no subgyrogroup lies strictly between T and S,
                # so close(T ∪ {y}) = S for every y in S ∖ T
                done |= S
            label = tuple(sorted(gens[T] + (x,)))
            if S not in gens:
                heapq.heappush(heap, (len(S), tuple(sorted(S)), S))
            elif (len(gens[S]), gens[S]) <= (len(label), label):
                continue
            gens[S] = label
        reached[T] = set(joins.values())
    return gens, reached


def _subgyrogroup(
    G: FiniteGyrogroup, members: frozenset[int], generators: tuple[int, ...]
) -> Subgyrogroup:
    # the bottom is labelled by its smallest nonzero member, <0> when it is {0}
    return Subgyrogroup(
        elements=tuple(sorted(members)),
        generators=generators or (min(members - {0}, default=0),),
        is_group=_gyrations_fix_pointwise(G, members),
    )


def closure(G: FiniteGyrogroup, gens) -> Subgyrogroup:
    """Close a generator set under ⊕, which on a verified gyrogroup gives the
    subgyrogroup it generates, and package it with canonical generators,
    which like `enumerate_subgyrogroups` need ``G`` to be one."""
    gens = frozenset(int(g) for g in _integral(np.asarray(list(gens)), "generator"))
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"generator {g} out of range 0..{G.order - 1}")
    members = _close(G, gens)
    return _subgyrogroup(G, members, _join_pass(G, sorted(members))[0][members])


def enumerate_subgyrogroups(G: FiniteGyrogroup) -> SubgyrogroupLattice:
    """All subgyrogroups, in (size, sorted elements) order, from one pass of joins.

    The upper covers of each T are the minimal sets among its joins
    close(T ∪ {x}): a cover S of T is close(T ∪ {x}) for every x in S ∖ T.
    ``G`` must be a verified gyrogroup: there each ⊕-closure is a
    subgyrogroup and joins are pruned by Lagrange's theorem for finite
    gyrogroups; on tables that fail the axioms the lattice may be wrong.
    """
    gens, reached = _join_pass(G, range(G.order))
    index = {S: i for i, S in enumerate(reached)}
    covers = sorted(
        (index[T], index[S]) for T, up in reached.items() for S in up if not any(R < S for R in up)
    )
    return SubgyrogroupLattice(
        nodes=tuple(_subgyrogroup(G, S, gens[S]) for S in reached), covers=tuple(covers)
    )


def _lower_half_subgroup(p: CyclicParams, step: int) -> frozenset[int]:
    if step == 0:
        return frozenset({0})
    return frozenset(range(0, p.m, step))


def _formula_is_group(p: CyclicParams, members: frozenset[int]) -> bool:
    # the half-shift moves exactly the odd elements, so a subset is fixed
    # pointwise iff it has no odd member or no nontrivially-gyrating pair;
    # every such pair has an odd member, so the second condition covers both
    S = np.fromiter(members, dtype=np.int64)
    return not gyration_selector(p, S[:, None], S[None, :]).any()


def _translate(p: CyclicParams, g: int, members: frozenset[int]) -> frozenset[int]:
    """The left translate g ⊕ members."""
    return frozenset(oplus(p, g, np.fromiter(members, dtype=np.int64)).tolist())


def classify_subgyrogroups(n: int) -> list[Subgyrogroup]:
    """The three closed-form families of subgyrogroups, deduplicated.

    Powers of two are read modulo m when they index the lower half, so the
    degenerate instances collapse the way the lattice expects (for example
    step 2**(n-1) gives the trivial subgroup).
    """
    p = CyclicParams(n)
    m = p.m
    out: list[Subgyrogroup] = []
    seen: set[frozenset[int]] = set()

    def add(members: frozenset[int], gens: tuple[int, ...], form: str) -> None:
        if members in seen:
            return
        seen.add(members)
        out.append(
            Subgyrogroup(
                elements=tuple(sorted(members)),
                generators=gens,
                is_group=_formula_is_group(p, members),
                closed_form=form,
            )
        )

    for s in range(n):  # cyclic subgroups of the lower half
        g = (1 << s) % m
        add(_lower_half_subgroup(p, g), (g,), f"<2^{s}>")
    for s in range(n):  # lower-half subgroup joined with its shifted coset
        g = (1 << s) % m
        low = _lower_half_subgroup(p, g)
        members = low | _translate(p, m, low)
        gens = (g, m) if g else (m,)
        add(members, gens, f"<2^{s}, m>")
    for s in range(n - 1):  # single generator from the upper half
        g = m + (1 << s)
        low = _lower_half_subgroup(p, (1 << (s + 1)) % m)
        members = low | _translate(p, g, low)
        add(members, (g,), f"<m + 2^{s}>")
    return out


def gyroautomorphism_group(G: FiniteGyrogroup) -> np.ndarray:
    """The group Γ generated under composition by the distinct gyrations.

    Γ can be far larger than the set of gyrations (two gyrations of an
    order-8 table may generate all 40320 permutations).  It is closed from
    the identity by composing each new element with the generators only,
    since in a finite group the monoid they generate is the group.  Returned
    as a read-only |Γ|×N image matrix sorted by images, identity first.
    """
    gens = G.perm_matrix[_referenced_gyrations(G)]
    frontier = np.arange(G.order, dtype=gens.dtype)[None, :]
    # Γ so far as sorted raw-bytes keys, which each round's new products are
    # searched in and inserted into without sorting the known rows again
    known = _row_keys(frontier)
    while len(frontier):
        products = frontier[:, gens].reshape(-1, G.order)
        keys, first = np.unique(_row_keys(products), return_index=True)
        at = np.searchsorted(known, keys)
        new = known[np.minimum(at, len(known) - 1)] != keys
        known = np.insert(known, at[new], keys[new])
        frontier = products[first[new]]
    # raw-bytes keys do not sort by images; one lexsort does
    gamma = known.view(gens.dtype).reshape(-1, G.order)
    gamma = gamma[np.lexsort(gamma.T[::-1])]
    gamma.setflags(write=False)
    return gamma


@dataclass(frozen=True, eq=False)
class GyroholomorphGroup:
    """Group on pairs (element, gyroautomorphism) under the twisted product."""

    order: int
    cayley: np.ndarray
    element_order_multiset: tuple[tuple[int, int], ...]
    invariants: GroupInvariants


def _holomorph_table(G: FiniteGyrogroup) -> np.ndarray:
    """The gyroholomorph's Cayley table, unchecked.  The pair (x, Γ_i) is
    element x·k + i with k = |Γ|, and the table is one broadcast over
    (x, X, y, Y) through the composition table of Γ."""
    gamma = gyroautomorphism_group(G)
    k, N = gamma.shape
    # comp[i, j] is the index of Γ_i ∘ Γ_j; gyr[x, y] is the index of gyr[x, y] in Γ
    comp = _row_positions(gamma, gamma[:, gamma].reshape(-1, N)).reshape(k, k)
    gyr = _row_positions(gamma, G.perm_matrix)[G.gyr_table]
    x = np.arange(N)[:, None, None]
    Xy = gamma[None, :, :]  # X(y), over (x, X, y)
    twist = comp[gyr[x, Xy], np.arange(k)[None, :, None]]
    # x·k in intp, as the table's own type wraps once N·k passes its range
    xk = np.multiply(G.cayley[x, Xy][..., None], k, dtype=np.intp)
    table = xk + comp[twist[..., None], np.arange(k)]
    return table.reshape(N * k, N * k)


def gyroholomorph(G: FiniteGyrogroup) -> GyroholomorphGroup:
    """Build the group on pairs (x, X) with

        (x, X)(y, Y) = (x ⊕ X(y), gyr[x, X(y)] ∘ X ∘ Y)

    where composition applies right-to-left, and verify the group axioms
    exhaustively.  A violation means the input tables are corrupt and raises.
    """
    table = _holomorph_table(G)
    violation = first_group_axiom_violation(table)
    if violation is not None:
        raise GyrogroupDataError(
            f"gyroholomorph table fails group axiom {violation[0]} at {violation[1]}"
        )
    invariants = _invariants(table)
    table.setflags(write=False)
    return GyroholomorphGroup(
        order=table.shape[0],
        cayley=table,
        element_order_multiset=invariants.order_multiset,
        invariants=invariants,
    )


def _action_nickname(m: int, k: int) -> str:
    if k == m - 1:
        return "dihedral"
    if k == m // 2 + 1:
        return "modular"
    if k == m // 2 - 1:
        return "quasidihedral"
    return f"x->{k}x"


def holomorph_structure_matches(hol: GyroholomorphGroup) -> list[tuple[str, GroupInvariants]]:
    """Candidates Z2 x (Z_m : Z2), of order 4m = |hol|, over every nontrivial
    involutive action whose invariant vector equals the holomorph's.  Exactly
    one match is the expected outcome for the order-16 construction."""
    m = hol.order // 4
    z2 = cyclic_group(2)
    matches = []
    for k in range(2, m):
        try:
            action = semidirect_cyclic_z2(m, k)
        except ValueError:  # x -> kx is not an involution
            continue
        inv = group_invariants(direct_product(z2, action))
        name = f"Z2 x (Z{m} : Z2, x -> {k}x) [{_action_nickname(m, k)} action]"
        if inv == hol.invariants:
            matches.append((name, inv))
    return matches


# `isomorphic` refuses larger orders: at order 64, Z4×Z4×Z2×Z2 against
# (Z4⋊Z4)×Z2×Z2, with equal profiles, took 7.3 s on a 2-core x86 host
_ISO_ORDER_CAP = 32


def _element_profiles(G: FiniteGyrogroup) -> list[tuple[int, int, int]]:
    nontrivial = (G.perm_matrix != np.arange(G.order)).any(axis=1)[G.gyr_table]
    rows = nontrivial.sum(axis=1)
    cols = nontrivial.sum(axis=0)
    orders = element_orders(G.cayley.T)  # left powers x ⊕ x^k
    return [(orders[x], int(rows[x]), int(cols[x])) for x in range(G.order)]


def _carry(CG: np.ndarray, CH: np.ndarray, phi: np.ndarray) -> bool:
    """Extend ``phi`` (-1 where unset, φ(0) = 0) in place by φ(a ⊕ b) = φ(a) ⊕ φ(b)
    until its domain is closed; False when a sum gets two images (the pair
    (0, s) carries the image s has) or two elements one image."""
    while True:
        S = np.flatnonzero(phi >= 0)
        sums = CG[S[:, None], S].ravel()
        images = CH[phi[S][:, None], phi[S]].ravel()
        phi[sums] = images
        mapped = phi[phi >= 0]
        if (phi[sums] != images).any() or np.bincount(mapped).max() > 1:
            return False
        if len(mapped) == len(S):
            return True


def isomorphic(G: FiniteGyrogroup, H: FiniteGyrogroup) -> Permutation | None:
    """The lexicographically smallest isomorphism φ: G → H, or None.

    φ is fixed by its images of generators g_1 < g_2 < …, each the smallest
    element outside the closure of those before it, over which `_carry`
    carries φ; by Lagrange each at least doubles the closure, so there are
    at most log2 N.  Their images are tried depth first in ascending order,
    among the unused elements of H with the same profile (left order and
    nontrivial-gyration counts per row and column).  Maps that agree on
    g_1..g_{k-1} agree on every element below g_k and first differ at g_k,
    so the first map found is the lexicographically smallest.  Both inputs
    must be verified gyrogroups, where a ⊕-closure is a subgyrogroup and the
    profiles are invariants; on other tables None may come back where a map
    exists, but a map is checked in full before it is returned.
    """
    if G.order != H.order:
        return None
    if G.order > _ISO_ORDER_CAP:
        raise ValueError(f"exhaustive search capped at order {_ISO_ORDER_CAP}")
    pg, ph = _element_profiles(G), _element_profiles(H)
    if sorted(pg) != sorted(ph) or pg[0] != ph[0]:
        return None

    def search(phi: np.ndarray) -> np.ndarray | None:
        unmapped = np.flatnonzero(phi < 0)
        if not unmapped.size:
            return phi
        g, used = unmapped[0], set(phi.tolist())
        for w in (y for y, p in enumerate(ph) if p == pg[g] and y not in used):
            trial = phi.copy()
            trial[g] = w
            if _carry(G.cayley, H.cayley, trial) and (found := search(trial)) is not None:
                return found
        return None

    phi = search(np.array([0] + [-1] * (G.order - 1)))
    if phi is None or (phi[G.cayley] != H.cayley[phi[:, None], phi]).any():
        return None
    return Permutation(tuple(phi.tolist()))


def is_degenerate_group(G: FiniteGyrogroup) -> bool:
    """True when the gyrogroup is a plain group in disguise.

    Checks both signals, all-identity gyrations and associativity of ⊕, and
    raises when they disagree, since that marks corrupted tables.
    """
    all_identity = bool((G.perm_matrix[_referenced_gyrations(G)] == np.arange(G.order)).all())
    associative = check_left_gyroassociativity(FiniteGyrogroup.from_group(G.cayley)).passed
    if all_identity != associative:
        raise GyrogroupDataError(
            "identity-gyration and associativity signals disagree; tables are corrupt"
        )
    return all_identity


def restrict(G: FiniteGyrogroup, elements) -> FiniteGyrogroup:
    """Relabel a closed subset as a standalone gyrogroup on 0..k-1.

    Raises ValueError at the first pair (a, b), in row-major order, whose sum
    escapes the subset or whose gyration, where it first appears, maps a
    member out of it; the sum is checked first.
    """
    subset = np.unique(_integral(np.asarray(list(elements)), "subset")).astype(np.int64)
    if subset[:1].tolist() != [0] or subset[-1] >= G.order:
        raise ValueError(f"subset must contain the identity 0 and lie in 0..{G.order - 1}")
    k = len(subset)
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[subset] = np.arange(k)
    sub_cayley = pos[G.cayley[subset[:, None], subset]]
    gyrations, first, index = np.unique(
        G.gyr_table[subset[:, None], subset], return_index=True, return_inverse=True
    )
    images = pos[G.perm_matrix[gyrations][:, subset]]
    escapes = np.flatnonzero(sub_cayley < 0)[:1].tolist()
    leaks = np.sort(first[(images < 0).any(axis=1)])[:1].tolist()
    if escapes or leaks:
        at = min(escapes + leaks)
        a, b = (int(subset[i]) for i in divmod(at, k))
        if at in escapes:
            raise ValueError(f"subset not closed: {a} ⊕ {b} = {G.oplus(a, b)} escapes")
        gyr = G.perm_matrix[G.gyr_index(a, b)].tolist()
        e = next(e for e in subset.tolist() if pos[gyr[e]] < 0)
        raise ValueError(f"subset not closed under gyr[{a},{b}]: {e} -> {gyr[e]}")
    # the sub-table numbers its gyrations by first appearance
    order = np.argsort(first)
    return FiniteGyrogroup(sub_cayley, np.argsort(order)[index].reshape(k, k), images[order])
