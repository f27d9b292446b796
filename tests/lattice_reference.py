"""Exhaustive reference for the subgyrogroup lattice.

The closed sets are found by a fixpoint over every one-element extension, the
canonical generators by trying every combination of members in (size,
lexicographic) order, and the covers by testing every pair of closed sets
against every third one.  These searches are exponential or cubic, and serve
only to check the single pass in ``gyrogroups.analyze`` on small inputs.
``ref_restrict`` is the pair-by-pair restriction that ``restrict`` replaced.
"""

import itertools

import numpy as np

from gyrogroups.core import FiniteGyrogroup, Permutation, _close


def ref_closed_sets(G):
    """Every closed set, in (size, sorted elements) order."""
    known = {_close(G, frozenset())} | {_close(G, frozenset((x,))) for x in range(G.order)}
    work = list(known)
    while work:
        S = work.pop()
        for x in range(G.order):
            T = _close(G, S | {x})
            if T not in known:
                known.add(T)
                work.append(T)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def ref_canonical_generators(G, members):
    """Smallest generating tuple of a closed set, by exhaustive search."""
    members = frozenset(members)
    if members == {0}:
        return (0,)
    candidates = sorted(members - {0})
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if _close(G, frozenset(combo)) == members:
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
