"""Exhaustive reference for the subgyrogroup lattice.

A subgyrogroup is a set holding 0 that is closed under ⊕, ⊖ and its internal
gyrations; ``ref_close`` closes a set under all three, one element at a time,
through the public ``oplus``, ``inverse_of`` and ``gyration``.  The closed
sets are found by a fixpoint over every one-element extension, the canonical
generators by trying every combination of members in (size, lexicographic)
order against the closed sets, and the covers by testing every pair of closed
sets against every third one.  These searches are exponential or cubic, and serve only to check
the single pass in ``gyrogroups.analyze`` on small inputs.  ``ref_restrict``
is the pair-by-pair restriction that ``restrict`` replaced.
"""

import functools
import itertools

import numpy as np

from gyrogroups import FiniteGyrogroup, Permutation, inverse_of


def ref_operations(G):
    """⊕, ⊖ and the gyration of a pair in G, each entry read through G once and kept."""
    return (
        functools.cache(G.oplus),
        functools.cache(functools.partial(inverse_of, G)),
        functools.cache(G.gyration),
    )


def ref_close(G, seed, ops=None):
    """The smallest superset of seed ∪ {0} closed under ⊕, ⊖ and the gyrations.

    Each member, once taken, is added to every member taken before it and to
    itself on both sides, and its left inverse and its images under the
    gyrations met so far join; each gyration met for the first time is
    applied to every member.  A caller that closes many sets in G passes
    ``ops = ref_operations(G)`` to read each entry once.
    """
    oplus, inverse, gyration = ops or ref_operations(G)
    members = {0, *seed}
    todo, done, gyrations = sorted(members), [], []

    def meet(values):
        for v in values:
            if v not in members:
                members.add(v)
                todo.append(v)

    # a set holding every element is closed: nothing is left to add
    while todo and len(members) < G.order:
        x = todo.pop()
        done.append(x)
        meet([inverse(x), *(g(x) for g in gyrations)])
        for y in done:
            meet((oplus(x, y), oplus(y, x)))
            for g in (gyration(x, y), gyration(y, x)):
                if g not in gyrations:
                    gyrations.append(g)
                    meet([g(z) for z in members])
    return frozenset(members)


def ref_closed_sets(G):
    """Every closed set, in (size, sorted elements) order."""
    ops = ref_operations(G)
    known = {ref_close(G, (), ops)} | {ref_close(G, (x,), ops) for x in range(G.order)}
    work = list(known)
    while work:
        S = work.pop()
        for x in range(G.order):
            if x in S:
                continue
            T = ref_close(G, S | {x}, ops)
            if T not in known:
                known.add(T)
                work.append(T)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def ref_canonical_generators(sets, members):
    """Smallest generating tuple of a closed set, by exhaustive search.

    ``sets`` are all the closed sets.  They are closed under intersection, so
    the closure of a tuple is the smallest closed set holding it, and the
    tuple generates ``members`` when no closed set strictly inside
    ``members`` holds it.
    """
    members = frozenset(members)
    if members == {0}:
        return (0,)
    below = [s for s in sets if s < members]
    candidates = sorted(members - {0})
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if not any(s.issuperset(combo) for s in below):
                return combo
    raise AssertionError("a closed set is generated by itself")


def ref_is_group(G, members):
    """Every internal gyration fixes every member, one element at a time."""
    return all(
        G.gyration(a, b)(x) == x for a in members for b in members for x in members
    )


def ref_covers(sets):
    """Sorted (child, parent) index pairs with nothing strictly between."""
    sets = [frozenset(s) for s in sets]
    covers = []
    for i, child in enumerate(sets):
        for j, parent in enumerate(sets):
            if child < parent and not any(child < mid < parent for mid in sets):
                covers.append((i, j))
    return tuple(sorted(covers))


def ref_restrict(G: FiniteGyrogroup, elements) -> FiniteGyrogroup:
    """Relabel a closed subset on 0..k-1, one pair at a time, row-major."""
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
