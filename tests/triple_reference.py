"""Generic row scan for the two triple laws, one row a at a time.

Each law is evaluated on its own over every triple, with the Cayley lookups
written as plain two-dimensional fancy indexing and the smallest failure taken
by ``np.argwhere``.  This serves only to check the triple scans, the row
derivation and the gyrator shortcut in ``gyrogroups.core``;
``ref_class_minima`` gives the pair classes that some of those checks plant
their witnesses at, and ``ref_class_scan_witness`` scans only their minima.
"""

import itertools

import numpy as np


def _first_false(ok):
    bad = np.argwhere(~ok)
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def _first_triple_violation(G, law):
    """Smallest (a, b, c) where law(a ⊕ b, a ⊕ (b ⊕ c), gyr[a,b]c) fails."""
    C = G.cayley
    P = G.perm_matrix
    Gy = G.gyr_table
    for a in range(G.order):
        row = C[a]
        bad = _first_false(law(row[:, None], row[C], P[Gy[a]]))
        if bad is not None:
            return (a, *bad)
    return None


def ref_gyroassoc_witness(G):
    """Smallest (a, b, c) with a ⊕ (b ⊕ c) != (a ⊕ b) ⊕ gyr[a,b]c, or None."""
    C = G.cayley
    return _first_triple_violation(G, lambda ab, a_bc, gyr_c: a_bc == C[ab, gyr_c])


def ref_gyrator_witness(G):
    """(x,) for the smallest x without a left inverse; otherwise the smallest
    (a, b, c) with gyr[a,b]c != ⊖(a ⊕ b) ⊕ (a ⊕ (b ⊕ c)), or None."""
    C = G.cayley
    inv = G.left_inverse_map()
    missing = _first_false(inv >= 0)
    if missing is not None:
        return missing
    return _first_triple_violation(G, lambda ab, a_bc, gyr_c: gyr_c == C[inv[ab], a_bc])


def ref_sampled_witnesses(G, seed, size):
    """The first failing draw of each triple law in a seeded sample of
    ``size`` triples, as (draw, (a, b, c)), or None where the law holds at
    every draw: left gyroassociativity, then the gyrator identity, which needs
    every element to have a left inverse.  The whole sample is one int64 draw,
    and each law is evaluated on its own."""
    C = G.cayley
    P = G.perm_matrix
    Gy = G.gyr_table
    abc = np.random.default_rng(seed).integers(0, G.order, size=(size, 3))
    a, b, c = abc.T
    zero = C == 0
    assert zero.any(axis=0).all(), "an element has no left inverse"
    inv = np.argmax(zero, axis=0)  # the smallest b with b ⊕ x = 0
    ab = C[a, b]
    a_bc = C[a, C[b, c]]
    gyr_c = P[Gy[a, b], c]
    witnesses = []
    for ok in (a_bc == C[ab, gyr_c], gyr_c == C[inv[ab], a_bc]):
        bad = np.flatnonzero(~ok)
        witnesses.append((int(bad[0]), tuple(int(v) for v in abc[bad[0]])) if bad.size else None)
    return tuple(witnesses)


def ref_class_minima(G):
    """The smallest pair (a, b) of each class, found by a union-find over
    tuples: p = (a, b) is joined to σ1(p) = (⊖a, a ⊕ b) when σ1(σ1(p)) = p,
    and to σ2(p) = (a ⊕ b, ⊖gyr[a,b]b) when (a ⊕ b) ⊕ ⊖gyr[a,b]b = a, in
    each case only if gyr[σi(p)] is the stored inverse of gyr[p] and the
    same holds at σi(p).  For tables with left inverses."""
    N = G.order
    C = G.cayley.tolist()
    gyr = G.gyr_table.tolist()
    perms = [tuple(p) for p in G.perm_matrix.tolist()]
    index = {p: k for k, p in enumerate(perms)}
    inverse = [index.get(tuple(sorted(range(N), key=p.__getitem__))) for p in perms]
    inv = [min(b for b in range(N) if C[b][x] == 0) for x in range(N)]

    def sigma1(a, b):
        return inv[a], C[a][b]

    def sigma2(a, b):
        return C[a][b], inv[perms[gyr[a][b]][b]]

    def facts(p, sigma):
        q = sigma(*p)
        if gyr[q[0]][q[1]] != inverse[gyr[p[0]][p[1]]]:
            return False
        if sigma is sigma1:
            return sigma1(*q) == p
        return C[q[0]][q[1]] == p[0]

    parent = {}

    def root(p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    for p in itertools.product(range(N), repeat=2):
        for sigma in (sigma1, sigma2):
            q = sigma(*p)
            if facts(p, sigma) and facts(q, sigma):
                r, s = root(p), root(q)
                parent[max(r, s)] = min(r, s)
    return {p for p in itertools.product(range(N), repeat=2) if root(p) == p}


def ref_class_scan_witness(G):
    """Smallest (a, b, c) with a ⊕ (b ⊕ c) != (a ⊕ b) ⊕ gyr[a,b]c over the
    class minima (a, b) only, or None.  On tables with left cancellation whose
    gyrations are automorphisms the law fails at every pair of a class or at
    none, so this is `ref_gyroassoc_witness` there."""
    C = G.cayley
    P = G.perm_matrix
    Gy = G.gyr_table
    for a, b in sorted(ref_class_minima(G)):
        bad = np.flatnonzero(C[a, C[b]] != C[C[a, b], P[Gy[a, b]]])
        if bad.size:
            return (a, b, int(bad[0]))
    return None
