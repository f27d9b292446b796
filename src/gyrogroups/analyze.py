"""Subgyrogroup structure, gyroautomorphisms, the gyroholomorph, and isomorphism.

A subgyrogroup is a subset containing 0 that is closed under the operation,
under left inverses, and under its internal gyrations.  Enumeration works on
any verified gyrogroup by fixpoint over generator extensions; the closed-form
classifier is specific to the cyclic construction and provides the
independent cross-check.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .construct import CyclicParams, gyration_selector, oplus
from .core import FiniteGyrogroup, GyrogroupDataError, Permutation, check_left_gyroassociativity
from .groups import (
    GroupInvariants,
    cyclic_group,
    direct_product,
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


def _close(G: FiniteGyrogroup, seed: frozenset[int]) -> frozenset[int]:
    """Smallest superset of seed ∪ {0} closed under ⊕, ⊖, and internal gyrations."""
    C = G.cayley
    Gy = G.gyr_table
    P = G.perm_matrix
    inv = G.left_inverse_map()
    members = set(seed) | {0}
    while True:
        S = np.fromiter(members, dtype=np.int64)
        new = set(C[np.ix_(S, S)].ravel().tolist())
        inv_s = inv[S]
        if (inv_s < 0).any():
            missing = int(S[int(np.argmax(inv_s < 0))])
            raise GyrogroupDataError(f"element {missing} has no left inverse; cannot close")
        new.update(inv_s.tolist())
        for k in np.unique(Gy[np.ix_(S, S)]):
            new.update(P[k][S].tolist())
        if new <= members:
            return frozenset(members)
        members |= new


def _gyrations_fix_pointwise(G: FiniteGyrogroup, members: frozenset[int]) -> bool:
    S = np.fromiter(members, dtype=np.int64)
    for k in np.unique(G.gyr_table[np.ix_(S, S)]):
        if not (G.perm_matrix[k][S] == S).all():
            return False
    return True


def _canonical_generators(
    G: FiniteGyrogroup,
    members: frozenset[int],
    cache: dict[frozenset[int], frozenset[int]] | None = None,
) -> tuple[int, ...]:
    """Smallest generating list under (size, lexicographic) order."""
    if members == {0}:
        return (0,)
    if cache is None:
        cache = {}

    def close(seed: tuple[int, ...]) -> frozenset[int]:
        key = frozenset(seed)
        if key not in cache:
            cache[key] = _close(G, key)
        return cache[key]

    candidates = sorted(members - {0})
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if close(combo) == members:
                return combo
    raise AssertionError("a closed set is generated by itself")


def closure(G: FiniteGyrogroup, gens) -> Subgyrogroup:
    """Close a generator set and package it with canonical generators."""
    gens = frozenset(int(g) for g in gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"generator {g} out of range 0..{G.order - 1}")
    members = _close(G, gens)
    return Subgyrogroup(
        elements=tuple(sorted(members)),
        generators=_canonical_generators(G, members),
        is_group=_gyrations_fix_pointwise(G, members),
    )


def enumerate_subgyrogroups(G: FiniteGyrogroup) -> SubgyrogroupLattice:
    """All subgyrogroups by fixpoint over closures of extended generator sets."""
    cache: dict[frozenset[int], frozenset[int]] = {}

    def close(seed: frozenset[int]) -> frozenset[int]:
        if seed not in cache:
            cache[seed] = _close(G, seed)
        return cache[seed]

    known: set[frozenset[int]] = {close(frozenset())}
    known.update(close(frozenset((x,))) for x in range(G.order))
    work = deque(known)
    while work:
        S = work.popleft()
        for x in range(G.order):
            if x in S:
                continue
            T = close(S | {x})
            if T not in known:
                known.add(T)
                work.append(T)

    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    nodes = tuple(
        Subgyrogroup(
            elements=tuple(sorted(members)),
            generators=_canonical_generators(G, members, cache),
            is_group=_gyrations_fix_pointwise(G, members),
        )
        for members in ordered
    )

    covers = []
    sets = [frozenset(node.elements) for node in nodes]
    for i, child in enumerate(sets):
        for j, parent in enumerate(sets):
            if not child < parent:
                continue
            if any(child < mid < parent for mid in sets):
                continue
            covers.append((i, j))
    return SubgyrogroupLattice(nodes=nodes, covers=tuple(sorted(covers)))


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


def gyroautomorphism_group(G: FiniteGyrogroup) -> tuple[Permutation, ...]:
    """The group generated under composition by every gyration in the table.

    For arbitrary inputs this is the generated closure, which here coincides
    with the set of distinct gyrations; identity first, then by images.
    """
    gens = [G.perms[int(k)] for k in np.unique(G.gyr_table)]
    elems = {p.images: p for p in gens}
    frontier = list(elems.values())
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(elems.values()):
                for r in (p.compose(q), q.compose(p)):
                    if r.images not in elems:
                        elems[r.images] = r
                        fresh.append(r)
        frontier = fresh
    ident = Permutation.identity(G.order)
    if ident.images not in elems:  # powers always reach it; guard tiny tables
        elems[ident.images] = ident
    rest = sorted((img for img in elems if img != ident.images))
    return (ident,) + tuple(elems[img] for img in rest)


@dataclass(frozen=True, eq=False)
class GyroholomorphGroup:
    """Group on pairs (element, gyroautomorphism) under the twisted product."""

    order: int
    cayley: np.ndarray
    element_order_multiset: tuple[tuple[int, int], ...]
    invariants: GroupInvariants


def gyroholomorph(G: FiniteGyrogroup) -> GyroholomorphGroup:
    """Build the group on pairs (x, X) with

        (x, X)(y, Y) = (x ⊕ X(y), gyr[x, X(y)] ∘ X ∘ Y)

    where composition applies right-to-left, and verify the group axioms
    exhaustively.  A violation means the input tables are corrupt and raises.
    """
    gamma = gyroautomorphism_group(G)
    k = len(gamma)
    index = {p.images: i for i, p in enumerate(gamma)}
    n = G.order * k
    table = np.empty((n, n), dtype=np.int64)
    for x in range(G.order):
        for xi, X in enumerate(gamma):
            row = x * k + xi
            for y in range(G.order):
                xy = X(y)
                z = G.oplus(x, xy)
                twist = G.gyration(x, xy).compose(X)
                for yi, Y in enumerate(gamma):
                    table[row, y * k + yi] = z * k + index[twist.compose(Y).images]

    violation = first_group_axiom_violation(table)
    if violation is not None:
        raise GyrogroupDataError(
            f"gyroholomorph table fails group axiom {violation[0]} at {violation[1]}"
        )
    invariants = group_invariants(table)
    table.setflags(write=False)
    return GyroholomorphGroup(
        order=n,
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


def holomorph_structure_matches(
    hol: GyroholomorphGroup, *, m: int = 8
) -> list[tuple[str, GroupInvariants]]:
    """Candidates Z2 x (Z_m : Z2) over every nontrivial involutive action
    whose invariant vector equals the holomorph's.  Exactly one match is the
    expected outcome for the order-16 construction."""
    z2 = cyclic_group(2)
    matches = []
    for k in range(2, m):
        if (k * k) % m != 1:
            continue
        candidate = direct_product(z2, semidirect_cyclic_z2(m, k))
        inv = group_invariants(candidate)
        name = f"Z2 x (Z{m} : Z2, x -> {k}x) [{_action_nickname(m, k)} action]"
        if inv == hol.invariants:
            matches.append((name, inv))
    return matches


def _left_orders(G: FiniteGyrogroup) -> list[int]:
    """Order of each element under left powers x^(k+1) = x ⊕ x^k; 0 if no return."""
    C = G.cayley
    out = []
    for x in range(G.order):
        acc = x
        k = 1
        while acc != 0 and k <= G.order:
            acc = int(C[x, acc])
            k += 1
        out.append(k if acc == 0 else 0)
    return out


def _element_profiles(G: FiniteGyrogroup) -> list[tuple[int, int, int]]:
    nontrivial = np.array([not p.is_identity for p in G.perms])[G.gyr_table]
    rows = nontrivial.sum(axis=1)
    cols = nontrivial.sum(axis=0)
    orders = _left_orders(G)
    return [(orders[x], int(rows[x]), int(cols[x])) for x in range(G.order)]


def isomorphic(
    G: FiniteGyrogroup, H: FiniteGyrogroup, *, max_order: int = 32
) -> Permutation | None:
    """Search for a bijection with φ(a ⊕ b) = φ(a) ⊕ φ(b), or None.

    Exhaustive backtracking pruned by per-element profiles (left order plus
    nontrivial-gyration counts per row and column); both inputs are expected
    to be verified gyrogroups, where those profiles are isomorphism
    invariants.  Any map found is re-verified in full before it is returned.
    """
    if G.order != H.order:
        return None
    if G.order > max_order:
        raise ValueError(f"exhaustive search capped at order {max_order}")

    pg = _element_profiles(G)
    ph = _element_profiles(H)
    if sorted(pg) != sorted(ph):
        return None

    n = G.order
    CG = G.cayley
    CH = H.cayley
    targets: dict[tuple[int, int, int], list[int]] = {}
    for y, prof in enumerate(ph):
        targets.setdefault(prof, []).append(y)

    phi = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    phi[0] = 0
    used[0] = True
    if pg[0] != ph[0]:
        return None

    def consistent() -> bool:
        # partial homomorphism check over every assigned pair whose product
        # is also assigned; the final full check still runs before returning
        assigned = np.nonzero(phi >= 0)[0]
        for a in assigned:
            for b in assigned:
                img = phi[CG[a, b]]
                if img >= 0 and img != CH[phi[a], phi[b]]:
                    return False
        return True

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in targets.get(pg[v], ()):
            if used[w]:
                continue
            phi[v] = w
            used[w] = True
            if consistent() and extend(v + 1):
                return True
            phi[v] = -1
            used[w] = False
        return False

    if not extend(1):
        return None
    if not (phi[CG] == CH[phi[:, None], phi[None, :]]).all():
        return None
    return Permutation(tuple(int(v) for v in phi))


def is_degenerate_group(G: FiniteGyrogroup) -> bool:
    """True when the gyrogroup is a plain group in disguise.

    Checks both signals, all-identity gyrations and associativity of ⊕, and
    raises when they disagree, since that marks corrupted tables.
    """
    all_identity = all(G.perms[int(k)].is_identity for k in np.unique(G.gyr_table))
    associative = check_left_gyroassociativity(FiniteGyrogroup.from_group(G.cayley)).passed
    if all_identity != associative:
        raise GyrogroupDataError(
            "identity-gyration and associativity signals disagree; tables are corrupt"
        )
    return all_identity


def restrict(G: FiniteGyrogroup, elements) -> FiniteGyrogroup:
    """Relabel a closed subset as a standalone gyrogroup on 0..k-1."""
    subset = sorted(int(e) for e in elements)
    pos = {e: i for i, e in enumerate(subset)}
    if 0 not in pos:
        raise ValueError("subset must contain the identity 0")
    k = len(subset)
    sub_cayley = np.empty((k, k), dtype=np.int64)
    sub_gyr = np.empty((k, k), dtype=np.int64)
    perm_cache: dict[int, int] = {}
    sub_perms: list[Permutation] = []
    for i, a in enumerate(subset):
        for j, b in enumerate(subset):
            value = G.oplus(a, b)
            if value not in pos:
                raise ValueError(f"subset not closed: {a} ⊕ {b} = {value} escapes")
            sub_cayley[i, j] = pos[value]
            gk = G.gyr_index(a, b)
            if gk not in perm_cache:
                images = []
                for e in subset:
                    img = G.perms[gk](e)
                    if img not in pos:
                        raise ValueError(
                            f"subset not closed under gyr[{a},{b}]: {e} -> {img}"
                        )
                    images.append(pos[img])
                perm_cache[gk] = len(sub_perms)
                sub_perms.append(Permutation(tuple(images)))
            sub_gyr[i, j] = perm_cache[gk]
    return FiniteGyrogroup(sub_cayley, sub_gyr, sub_perms)
