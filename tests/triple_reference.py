"""Generic row scan for the two triple laws, one row a at a time.

Each law is evaluated on its own over every triple, with the Cayley lookups
written as plain two-dimensional fancy indexing and the smallest failure taken
by ``np.argwhere``.  This serves only to check the row-gather kernel and the
gyrator shortcut in ``gyrogroups.core``.
"""

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
