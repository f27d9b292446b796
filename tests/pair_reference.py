"""The O(N²) pair checks as whole-table two-dimensional fancy indexing.

Each check reads the whole table at once and takes the row-major first
failure with ``np.argwhere``.  The block-wise flat gathers in
``gyrogroups.core`` must give the same results and witnesses.
"""

import numpy as np

from gyrogroups.core import CheckResult


def _first_false(ok):
    bad = np.argwhere(~ok)
    return None if bad.size == 0 else tuple(int(v) for v in bad[0])


def ref_gyr_automorphisms(G):
    """Every referenced gyration respects ⊕; witness (k, x, y) for perms[k]."""
    C = G.cayley
    for k in np.unique(G.gyr_table).tolist():
        p = G.perm_matrix[k]
        bad = _first_false(p[C] == C[p[:, None], p[None, :]])
        if bad is not None:
            return CheckResult("gyrations_are_automorphisms", False, (k, *bad))
    return CheckResult("gyrations_are_automorphisms", True)


def ref_loop_property(G):
    """gyr[a, b] = gyr[a ⊕ b, b]; witness (a, b)."""
    Gy = G.gyr_table
    bad = _first_false(Gy == Gy[G.cayley, np.arange(G.order)[None, :]])
    return CheckResult("loop_property", bad is None, bad)


def ref_gyrocommutative(G):
    """a ⊕ b = gyr[a,b](b ⊕ a); witness (a, b)."""
    C = G.cayley
    bad = _first_false(C == G.perm_matrix[G.gyr_table, C.T])
    return CheckResult("gyrocommutativity", bad is None, bad)


def ref_left_cancellation(G):
    """⊖x ⊕ (x ⊕ y) = y for all x, y, with ⊖x the smallest left inverse."""
    C = G.cayley
    zero = C == 0
    if not zero.any(axis=0).all():
        return False
    inv = np.argmax(zero, axis=0)
    return bool((C[inv[:, None], C] == np.arange(G.order)).all())
