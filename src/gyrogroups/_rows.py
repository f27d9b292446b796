"""The one loop over rows of every exhaustive triple scan, `first_violation`.
It scans rows directly with `core._row_violation`, and where it may, derives
most rows of left gyroassociativity from two passing rows by the identity
that the `gyrogroups.core` docstring proves.  `core` imports it only when a
triple law is scanned."""

from __future__ import annotations

import numpy as np

from . import core
from .core import FiniteGyrogroup, _FlatTable, _row_blocks, _row_violation


def _failures(G: FiniteGyrogroup, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For rows t = x ⊕ y of passing rows x and y: the smallest b at which
    row t fails the identity of the `core` docstring, or N where none does.

    Column b' stands for b = g(b'), and holds its four gyrations g, gyr[x,
    y ⊕ b'], gyr[y,b'] and gyr[t,b] as one code; each distinct code's two
    composites are compared once."""
    N, K = G.order, len(G.perm_matrix)
    P, Gy = _FlatTable(G.perm_matrix), _FlatTable(G.gyr_table)
    g = G.gyr_table[x, y]
    # at least 16 bits, which numpy sorts many times faster than 8
    code = np.empty((len(t), N), np.result_type(np.uint16, np.min_scalar_type(K**4 - 1)))
    code[:] = g[:, None]
    # fancy indexing casts the index in pieces, where np.take would cast it whole
    code *= K
    code += Gy.flat[Gy.cell(x[:, None], G.cayley[y])]  # gyr[x, y ⊕ b']
    code *= K
    code += G.gyr_table[y]  # gyr[y, b']
    code *= K
    code += Gy.flat[Gy.cell(t[:, None], G.perm_matrix[g])]  # gyr[t, b], b = g(b')
    # the distinct codes, without np.unique, which imports numpy.ma
    codes = np.sort(code, axis=None)
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    rest, kt = np.divmod(codes, K)
    rest, k2 = np.divmod(rest, K)
    kg, k1 = np.divmod(rest, K)
    # gyr[t,b] g against gyr[x, y ⊕ b'] gyr[y,b'], a quarter block at a time
    holds = np.empty(len(codes), dtype=bool)
    for q in _row_blocks(len(codes), 4 * N):
        left = P.flat[P.cell(kt[q, None], G.perm_matrix[kg[q]])]
        holds[q] = (left == P.flat[P.cell(k1[q, None], G.perm_matrix[k2[q]])]).all(axis=1)
    failing = np.full(len(t), N, dtype=np.int32)
    bad = codes[~holds]
    if bad.size:
        # each cell's place among the failing codes, a sixteenth of a block
        # of intp at a time; np.isin can import numpy.ma
        for rows in _row_blocks(len(t), 16 * N):
            place = np.searchsorted(bad, code[rows])
            cells = bad[np.minimum(place, len(bad) - 1, out=place)] == code[rows]
            failing[rows] = np.where(cells, G.perm_matrix[g[rows]], N).min(axis=1)
    return failing


def first_violation(
    G: FiniteGyrogroup, holds, derive: bool, budget: int
) -> tuple[int, ...] | None:
    """Smallest (a, b, c) where the triple law ``holds`` fails (as
    `_row_violation` takes it), deciding whole rows, none of them twice.

    Row 0 is scanned directly (`_row_violation`); with ``derive`` (left
    gyroassociativity on a `core._derivable` table), every row a1 ⊕ a2 of
    passing rows a1 and a2 is then derived, in rounds; then the smallest
    undecided row is scanned, and so on, until no row below the smallest
    failing one is undecided.  The smallest failing b of a derived row comes
    from the identity, and its smallest c from `_row_violation`.  At most
    ``budget`` rows are scanned directly; ``()`` stands for the law left
    undecided once they are spent.
    """
    N = G.order
    decided = np.zeros(N, dtype=bool)
    passing = np.zeros(N, dtype=bool)
    first: tuple[int, ...] = (N,)  # the smallest failing (a, b) so far

    def derive_from(new: np.ndarray) -> np.ndarray:
        """Decide the undecided rows below ``first`` that are x ⊕ y of
        passing rows x and y, one of them in ``new``; the rows that pass."""
        nonlocal first
        passed = [np.empty(0, dtype=np.int32)]
        S = np.flatnonzero(passing).astype(np.int32)
        step = max(1, core._BLOCK_CELLS // 4 // len(S))
        for lo in range(0, len(new), step):
            X = new[lo : lo + step]
            for xs, ys in ((X, S), (S, X)):
                t = G.cayley[xs[:, None], ys].ravel()
                pair = np.flatnonzero((t < first[0]) & ~decided[t])
                if not pair.size:
                    continue
                t, i = np.unique(t[pair], return_index=True)  # one pair per row
                x, y = np.divmod(pair[i], len(ys))
                x, y = xs[x], ys[y]
                decided[t] = True
                for rows in _row_blocks(len(t), 4 * N):
                    failing = _failures(G, t[rows], x[rows], y[rows])
                    ok = failing == N
                    passed.append(t[rows][ok])
                    if not ok.all():  # t ascends, so its first failing row is the smallest
                        j = np.argmin(ok)
                        first = min(first, (int(t[rows][j]), int(failing[j])))
        new = np.concatenate(passed)
        passing[new] = True
        return new

    scans = 0
    while not decided[: first[0]].all():
        if scans == budget:
            return ()
        scans += 1
        a = int(np.argmin(decided))
        decided[a] = True
        bad = _row_violation(G, holds, a)
        if bad is not None:  # every row below a passes
            return bad
        passing[a] = True
        new = np.array([a], dtype=np.int32)
        while derive and new.size and not decided[: first[0]].all():
            new = derive_from(new)
    if len(first) == 1:
        return None
    return _row_violation(G, holds, *first, first[1] + 1)
