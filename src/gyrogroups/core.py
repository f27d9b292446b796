"""Table-backed finite gyrogroups and the exhaustive axiom-verification engine.

Elements are the canonical integers 0..N-1 and the identity is element 0 by
convention.  A gyrogroup is carried entirely by two tables: the Cayley table
of the binary operation and, for every ordered pair, an index into a
deduplicated list of permutations (the gyrations).  All checks below report
pass/fail with the lexicographically smallest witness, so reports are
deterministic whether a triple law is derived or scanned.  (Above
EXHAUSTIVE_LIMIT, a triple law that the row derivation below leaves undecided
is checked on a seeded sample instead, and reports the first failing draw
with a "sampled" note.)

One triple scan serves both triple laws when the table has left cancellation,
⊖x ⊕ (x ⊕ y) = y for all x, y (an O(N²) test).  Then L_{⊖z} inverts the left
translation L_z, so with z = a ⊕ b, for every single triple

    a ⊕ (b ⊕ c) = z ⊕ gyr[a,b]c  ⟺  ⊖z ⊕ (a ⊕ (b ⊕ c)) = gyr[a,b]c,

that is, left gyroassociativity and the gyrator identity fail at the same
triples and have the same smallest (or first sampled) witness.

Left gyroassociativity is decided a whole row at a time where every row of
the Cayley table is a permutation and every referenced gyration is an
automorphism.  With L_x the left translation c ↦ x ⊕ c, row a passes when
L_a L_b = L_{a⊕b} gyr[a,b] for every b.  Let rows a1 and a2 pass, and let
a = a1 ⊕ a2, g = gyr[a1,a2] and b' = g⁻¹(b).  Row a1 at a2 gives
L_a = L_{a1} L_{a2} g⁻¹, so a ⊕ b = a1 ⊕ (a2 ⊕ b'); g is an automorphism, so
g⁻¹ L_b = L_{b'} g⁻¹; and rows a2 at b' and a1 at a2 ⊕ b' give

    L_a L_b = L_{a1} L_{a2} L_{b'} g⁻¹ = L_{a⊕b} gyr[a1, a2⊕b'] gyr[a2,b'] g⁻¹.

L_{a⊕b} is a bijection, so the law holds at (a, b) for every c exactly when

    gyr[a,b] g = gyr[a1, a2⊕b'] gyr[a2,b'],

and row a passes, or fails at exactly the b's where this fails, from a few
lookups per b and one comparison per distinct composite.

Every exhaustive triple scan is one loop over rows, `_rows.first_violation`,
which scans no row twice for one law; `_assoc_violation` alone sets how many
rows it scans directly for left gyroassociativity.  Where rows may not be
derived (`_derivable`), it scans them in order, so the first failing row
holds the smallest witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "EXHAUSTIVE_LIMIT",
    "FiniteGyrogroup",
    "GyrogroupDataError",
    "Permutation",
    "SAMPLE_SEED",
    "SAMPLE_SIZE",
    "VerificationReport",
    "check_gyr_automorphisms",
    "check_gyrator_identity",
    "check_gyrocommutative",
    "check_left_gyroassociativity",
    "check_left_identity",
    "check_left_inverses",
    "check_left_translations",
    "check_loop_property",
    "check_right_translations",
    "inverse_of",
    "verify",
]

# Above this order `verify` checks a triple law that the row derivation leaves
# undecided on a seeded pseudo-random sample, not on every triple.
EXHAUSTIVE_LIMIT = 512
SAMPLE_SIZE = 10_000_000
SAMPLE_SEED = 1729
# At most this many distinct gyrations: `_rows._failures` codes four in 64 bits.
_GYRATION_LIMIT = 1 << 16
# The triples a sampled scan draws at once.
_SAMPLE_CHUNK = 1 << 15
# The cells a pass over a whole table holds at once where it would otherwise
# need a temporary as large as the table (`_row_blocks`).  `_pair_blocks` and
# the row derivation take a quarter, `_row_violation`, the construction and
# `formats._symbols` and `_block` an eighth: np.take casts its index to intp.
_BLOCK_CELLS = 1 << 19


class GyrogroupDataError(ValueError):
    """Tables are structurally malformed: wrong shape, range, or references."""


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images of 0, 1, ..., n-1."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise GyrogroupDataError(f"not a bijection on 0..{n - 1}: {self.images!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(image == x for x, image in enumerate(self.images))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # a list of permutations reads as the matrix of their images
        return np.asarray(self.images, dtype=dtype)

    def cycle_string(self) -> str:
        """Cycle notation with fixed points omitted, e.g. ``(1 3)(5 7)``."""
        seen: set[int] = set()
        parts = []
        for start in range(self.degree):
            cycle = []
            x = start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = self.images[x]
            if len(cycle) > 1:
                parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) or "()"


def _row_blocks(rows: int, width: int) -> list[slice]:
    """The rows of a table, ``width`` cells to a row, as slices of at most
    _BLOCK_CELLS cells each (at least one row)."""
    height = max(1, _BLOCK_CELLS // width)
    return [slice(lo, min(lo + height, rows)) for lo in range(0, rows, height)]


def _pair_blocks(rows: int) -> list[slice]:
    """The rows of an N×N table as the pair checks take them: a quarter of
    _BLOCK_CELLS cells at a time, so that a block's temporaries stay in
    cache."""
    return _row_blocks(rows, 4 * rows)


def _tiled_copy(view: np.ndarray) -> np.ndarray:
    """A 2-D view copied 128 columns at a time.  Of a transposed view, such a
    tile reads 128 rows of the base; read whole, each row of the view would
    touch a page of the base per cell."""
    out = np.empty(view.shape, view.dtype)
    for j in range(0, view.shape[1], 128):
        out[:, j : j + 128] = view[:, j : j + 128]
    return out


def _element_type(n: int) -> np.dtype:
    """The stored type of every table of values 0..n-1: the narrowest holding n - 1."""
    return np.min_scalar_type(n - 1)


def _integral(array: np.ndarray, name: str) -> np.ndarray:
    """``array`` unchanged, when every entry is a whole number (2.0 is, 1.7 is
    not); otherwise raise, naming the first entry that is not."""
    if array.dtype.kind in "biu":
        return array
    with np.errstate(invalid="ignore"):
        try:
            whole = np.asarray(np.mod(array, 1) == 0, dtype=bool)
        except TypeError:  # entries that are not numbers
            whole = np.zeros(array.shape, dtype=bool)
    if not whole.all():
        cell = tuple(np.argwhere(~whole)[0].tolist())
        raise GyrogroupDataError(f"{name} entry not an integer at {cell}: {array[cell]}")
    return array


def _as_table(values, name: str) -> np.ndarray:
    """``values`` as a square array of whole numbers, in its own dtype, so a
    narrow table is never widened."""
    table = np.asarray(values)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GyrogroupDataError(f"{name} table must be square, got shape {table.shape}")
    return _integral(table, name)


def _image_rows(perms, n: int) -> np.ndarray:
    """``perms``, any K×n integer array-like, checked to be bijections on 0..n-1."""
    try:
        images = np.asarray(perms)
    except ValueError:  # rows of different lengths name the first odd degree
        degrees = [np.size(row) for row in perms if np.size(row) != n]
        if not degrees:
            raise
        images = np.empty((1, degrees[0]))
    if images.ndim != 2 or images.shape[1] != n:
        raise GyrogroupDataError(f"permutation degree {np.size(images[0])} != order {n}")
    _integral(images, "permutation")
    bijective = (np.sort(images, axis=1) == np.arange(n)).all(axis=1)
    if not bijective.all():
        row = tuple(images[np.argmin(bijective)].tolist())
        raise GyrogroupDataError(f"not a bijection on 0..{n - 1}: {row!r}")
    return images.astype(_element_type(n), copy=False)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque raw-bytes value, so ``np.unique``
    deduplicates rows far faster than with ``axis=0``; equal keys are equal
    rows, but keys do not sort in the rows' order."""
    key = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    return np.ascontiguousarray(rows).view(key).ravel()


def _row_positions(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index of each row of ``queries`` among the distinct ``rows``, or -1
    where it is none of them."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    wanted = _row_keys(queries.astype(rows.dtype, copy=False))
    found = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)]
    return np.where(keys[found] == wanted, found, -1)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array of non-negative integers, marked
    _BLOCK_CELLS at a time.  A plain ``np.unique(x)`` imports ``numpy.ma`` on
    its first call."""
    flat = np.ravel(x)
    seen = np.zeros(int(flat.max()) + 1 if flat.size else 0, dtype=bool)
    for cells in _row_blocks(flat.size, 1):
        seen[flat[cells]] = True
    return np.flatnonzero(seen)


def _per_group(compute: Callable[[FiniteGyrogroup], object]):
    """``compute(G)``, computed on the first call for each G and then kept on
    it: its tables never change."""

    @functools.wraps(compute)
    def once(G: FiniteGyrogroup):
        if compute not in G._facts:
            G._facts[compute] = compute(G)
        return G._facts[compute]

    return once


class FiniteGyrogroup:
    """A finite magma with a gyration attached to every ordered pair.

    ``perms`` is a K×N integer array-like whose row k lists the images of
    0..N-1 under permutation k; the gyration table indexes its rows.  The
    constructor validates structure only (shape, entry ranges, valid
    permutation references); whether the tables actually satisfy the
    gyrogroup axioms is the job of :func:`verify`, so deliberately broken
    tables can be built and inspected.  Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, cayley, gyr_table=None, perms=None) -> None:
        self._build(cayley, gyr_table, perms, copy=True)

    @classmethod
    def _adopt(cls, cayley: np.ndarray, gyr_table: np.ndarray, perms) -> "FiniteGyrogroup":
        """The constructor, for a caller that built both tables for the
        instance and keeps no reference to them: a table already in the
        instance's type becomes its own, read-only, without a copy."""
        G = cls.__new__(cls)
        G._build(cayley, gyr_table, perms, copy=False)
        return G

    def _build(self, cayley, gyr_table, perms, copy: bool) -> None:
        table = _as_table(cayley, "cayley")
        n = table.shape[0]
        if n == 0:
            raise GyrogroupDataError("empty element set")
        if table.min() < 0 or table.max() >= n:
            bad = np.argwhere((table < 0) | (table >= n))[0]
            raise GyrogroupDataError(
                f"cayley entry out of range at ({bad[0]}, {bad[1]}): {table[bad[0], bad[1]]}"
            )

        if gyr_table is None:
            gyr_table = np.zeros((n, n), dtype=_element_type(1))
            perms = np.arange(n)[None, :] if perms is None else perms
        gyr = _as_table(gyr_table, "gyration")
        if gyr.shape[0] != n:
            raise GyrogroupDataError("gyration table size differs from cayley table")
        if perms is None:
            raise GyrogroupDataError("gyration table given without a permutation list")
        if gyr.min() < 0 or gyr.max() >= len(perms):
            raise GyrogroupDataError("gyration table references an undefined permutation")
        images = _image_rows(perms, n)

        # Deduplicate so gyration equality is index equality; keep first
        # occurrences in order so emitted documents are stable.
        _, first, index_of = np.unique(_row_keys(images), return_index=True, return_inverse=True)
        if len(first) > _GYRATION_LIMIT:
            raise GyrogroupDataError(
                f"{len(first)} distinct gyrations exceed the limit of {_GYRATION_LIMIT:,}"
            )
        # rank of each row's first occurrence among the first occurrences
        rank = np.argsort(np.argsort(first))[index_of.reshape(-1)].astype(_element_type(len(first)))

        # the instance's own tables, so no caller can change them
        self._cayley = table.astype(_element_type(n), copy=copy)
        self._cayley.setflags(write=False)
        if (rank == np.arange(len(rank))).all():  # the indices stand as they are
            self._gyr = gyr.astype(rank.dtype, copy=copy)
        else:
            self._gyr = np.empty((n, n), dtype=rank.dtype)
            for rows in _row_blocks(n, n):
                self._gyr[rows] = rank[gyr[rows].astype(np.intp)]
        self._gyr.setflags(write=False)
        self._perm_matrix = images[np.sort(first)]
        self._perm_matrix.setflags(write=False)
        self._facts: dict[Callable, object] = {}  # see `_per_group`

    @classmethod
    def from_group(cls, cayley) -> "FiniteGyrogroup":
        """Encode a plain group table as a gyrogroup with all-identity gyrations."""
        return cls(cayley)

    @property
    def order(self) -> int:
        return int(self._cayley.shape[0])

    @property
    def cayley(self) -> np.ndarray:
        return self._cayley

    @property
    def gyr_table(self) -> np.ndarray:
        return self._gyr

    @property
    @_per_group
    def perms(self) -> tuple[Permutation, ...]:
        """The rows of `perm_matrix` as `Permutation` objects, built on first use."""
        return tuple(Permutation(tuple(row)) for row in self._perm_matrix.tolist())

    @property
    def perm_matrix(self) -> np.ndarray:
        """Row k holds the images of permutation k, for vectorized lookups."""
        return self._perm_matrix

    def _element(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range 0..{self.order - 1}")
        return x

    def oplus(self, a: int, b: int) -> int:
        return int(self._cayley[self._element(a), self._element(b)])

    def gyr_index(self, a: int, b: int) -> int:
        return int(self._gyr[self._element(a), self._element(b)])

    def gyration(self, a: int, b: int) -> Permutation:
        return self.perms[self.gyr_index(a, b)]

    @_per_group
    def left_inverse_map(self) -> np.ndarray:
        """For each x the smallest b with b ⊕ x = 0, or -1 when none exists."""
        N = self.order
        inv = np.full(N, -1, dtype=np.int64)
        columns = np.arange(N)
        for rows in _pair_blocks(N):
            zero = self._cayley[rows] == 0
            # the block's first row holding 0 in each column still open
            first = zero.argmax(axis=0)
            new = zero[first, columns] & (inv < 0)
            inv[new] = rows.start + first[new]
        inv.setflags(write=False)
        return inv

    def __repr__(self) -> str:
        return f"FiniteGyrogroup(order={self.order}, gyrations={len(self._perm_matrix)})"


def inverse_of(G: FiniteGyrogroup, x: int) -> int:
    """The unique b with b ⊕ x = 0.

    Raises ValueError when x has no left inverse in the tables.
    """
    b = int(G.left_inverse_map()[G._element(x)])
    if b < 0:
        raise ValueError(f"element {x} has no left inverse")
    return b


def _close(G: FiniteGyrogroup, seed: frozenset[int]) -> frozenset[int]:
    """Smallest superset of seed ∪ {0} closed under ⊕: in a finite gyrogroup,
    the subgyrogroup seed generates.  For a in such a set S, L_a maps S into
    S injectively, so onto, and a ⊕ b = 0 for some b in S, which is ⊖a; and
    gyr[a,b]c = ⊖(a ⊕ b) ⊕ (a ⊕ (b ⊕ c)) keeps the gyrations in S.  A
    subgyrogroup's order divides N (Lagrange), so past N/2 members it is G,
    which is returned there even on tables that fail the axioms."""
    C = G.cayley
    inv = G.left_inverse_map()
    members = set(seed) | {0}
    while True:
        S = np.fromiter(members, dtype=np.int64)
        missing = S[inv[S] < 0]
        if missing.size:
            raise GyrogroupDataError(f"element {missing[0]} has no left inverse; cannot close")
        if 2 * len(members) > G.order:
            return frozenset(range(G.order))
        sums = C[S[:, None], S].ravel()
        if sums.size > 1024:  # from about here a bool mask beats a Python set
            seen = np.zeros(G.order, dtype=bool)
            seen[sums] = True
            sums = np.flatnonzero(seen)
        new = set(sums.tolist())
        if new <= members:
            return frozenset(members)
        members |= new


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    ``witness`` is the lexicographically smallest failing tuple and is always
    reproducible against the tables; its arity depends on the check (see each
    check function).
    """

    name: str
    passed: bool
    witness: tuple[int, ...] | None = None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    sampled: bool = False
    seed: int | None = None
    sample_size: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def gyrocommutative(self) -> bool:
        return self.check("gyrocommutativity").passed

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


class _FlatTable:
    """``table[x, y]`` as one gather at x * width + y from the raveled table, which
    is cheaper than 2-D fancy indexing; the index type holds the table's size,
    so also its width (a one-row table of 128 is no int8 index)."""

    def __init__(self, table: np.ndarray) -> None:
        self.flat = table.ravel()
        self.width = table.shape[1]
        self.index_type = np.min_scalar_type(-table.size - 1)

    def cell(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The flat positions x * width + y."""
        return np.multiply(x, self.width, dtype=self.index_type) + y

    def __getitem__(self, xy: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return np.take(self.flat, self.cell(*xy))


def _first_false(ok: np.ndarray) -> tuple[int, ...] | None:
    if ok.all():
        return None
    return tuple(int(v) for v in np.argwhere(~ok)[0])


def _translations(name: str, rows: np.ndarray) -> CheckResult:
    """Every row of ``rows`` is a permutation; witness (i, j1, j2): the first
    bad row i, the first j2 whose value stood earlier in the row, first at j1."""
    ok = np.empty(len(rows), dtype=bool)
    for block in _pair_blocks(len(rows)):
        sorted_rows = _tiled_copy(rows[block])
        sorted_rows.sort(axis=1)
        ok[block] = (sorted_rows == np.arange(len(rows))).all(axis=1)
    if ok.all():
        return CheckResult(name, True)
    i = int(np.argmin(ok))
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(rows[i], return_index=True)[1]] = False
    j2 = int(np.argmax(repeat))
    return CheckResult(name, False, (i, int(np.argmax(rows[i] == rows[i, j2])), j2))


@_per_group
def check_left_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every row of the Cayley table is a permutation; witness (a, j1, j2)."""
    return _translations("left_translations_bijective", G.cayley)


def check_right_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every column of the Cayley table is a permutation; witness (b, a1, a2)."""
    return _translations("right_translations_bijective", G.cayley.T)


def check_left_identity(G: FiniteGyrogroup) -> CheckResult:
    """0 ⊕ x = x for all x; witness (x,) is the smallest violation."""
    bad = _first_false(G.cayley[0] == np.arange(G.order))
    return CheckResult("left_identity", bad is None, bad)


def check_left_inverses(G: FiniteGyrogroup) -> CheckResult:
    """Each a has some b with b ⊕ a = 0; witness (a,) lacks one."""
    bad = _first_false(G.left_inverse_map() >= 0)
    return CheckResult("left_inverses", bad is None, bad)


@_per_group
def _referenced_gyrations(G: FiniteGyrogroup) -> np.ndarray:
    """The indices of the gyrations the gyration table refers to, ascending."""
    used = _distinct(G.gyr_table)
    used.setflags(write=False)
    return used


@_per_group
def check_gyr_automorphisms(G: FiniteGyrogroup) -> CheckResult:
    """Every referenced gyration respects ⊕; witness (k, x, y) for perms[k]."""
    C = _FlatTable(G.cayley)
    for k in _referenced_gyrations(G):
        if k == _identity_gyration(G):  # the identity respects any ⊕
            continue
        p = G.perm_matrix[k]
        for rows in _pair_blocks(G.order):
            # p(x ⊕ y) = p(x) ⊕ p(y), the right side one flat gather, whose
            # index fancy indexing casts in pieces
            bad = _first_false(np.take(p, G.cayley[rows]) == C.flat[C.cell(p[rows, None], p)])
            if bad is not None:
                return CheckResult(
                    "gyrations_are_automorphisms", False, (int(k), rows.start + bad[0], bad[1])
                )
    return CheckResult("gyrations_are_automorphisms", True)


# The two triple laws, written once over the terms a ⊕ b, a ⊕ (b ⊕ c) and
# gyr[a,b]c; the exhaustive scans and the sampled scan all call them.
def _gyroassoc_holds(C, ab, a_bc, gyr_c) -> np.ndarray:
    """Left gyroassociativity a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ gyr[a,b]c, elementwise."""
    return a_bc == C[ab, gyr_c]


def _gyrator_holds(C, inv, ab, a_bc, gyr_c) -> np.ndarray:
    """Gyrator identity gyr[a,b]c = ⊖(a ⊕ b) ⊕ (a ⊕ (b ⊕ c)), elementwise."""
    return gyr_c == C[inv[ab], a_bc]


@_per_group
def _left_cancellation_holds(G: FiniteGyrogroup) -> bool:
    """⊖x ⊕ (x ⊕ y) = y for all x, y; false when some element has no left inverse."""
    C = _FlatTable(G.cayley)
    inv = G.left_inverse_map()
    # fancy indexing casts the index in pieces, where np.take would cast it whole
    return bool((inv >= 0).all() and all(
        (C.flat[C.cell(inv[rows, None], G.cayley[rows])] == np.arange(G.order)).all()
        for rows in _pair_blocks(G.order)
    ))


@_per_group
def _identity_gyration(G: FiniteGyrogroup) -> int:
    """The index of the identity among the deduplicated gyrations, or -1 where
    it is none: one equality of row keys, with no sort or search."""
    identity = _row_keys(np.arange(G.order, dtype=G.perm_matrix.dtype)[None])
    return next(iter(np.flatnonzero(_row_keys(G.perm_matrix) == identity).tolist()), -1)


def _row_violation(
    G: FiniteGyrogroup, holds, a: int, lo: int = 0, hi: int | None = None
) -> tuple[int, int, int] | None:
    """Smallest failing (a, b, c) of a triple law in row a with lo <= b < hi
    (every b by default), the b's taken _BLOCK_CELLS // 8 cells at a time.
    ``holds(C, ab, a_bc)`` is the law's truth at some pairs: C is the Cayley
    table, ``ab`` holds a ⊕ b by pair, and ``a_bc`` holds a ⊕ (b ⊕ c) with
    c = P⁻¹(w) in column w, P = gyr[a,b]."""
    N = G.order
    C, P, Gy = G.cayley, G.perm_matrix, G.gyr_table
    hi = N if hi is None else hi
    height = max(1, _BLOCK_CELLS // 8 // N)
    identity = _identity_gyration(G)
    w = np.arange(N)
    inverse = np.empty(N, dtype=np.intp)
    for start in range(lo, hi, height):
        end = min(start + height, hi)
        # the b's in order of their gyration, a run of b's per gyration; the
        # sort is stable, so a single run is the b's as they stand
        b = start + np.argsort(Gy[a, start:end], kind="stable")
        gyr = Gy[a, b]
        runs = [0, *(np.flatnonzero(gyr[1:] != gyr[:-1]) + 1).tolist(), len(b)]
        # a ⊕ (b ⊕ c) in column c, one gather whose index np.take casts whole
        a_bc = np.take(C[a], C[start:end] if len(runs) == 2 else C[b])
        for s, e in zip(runs, runs[1:]):
            if gyr[s] != identity:  # column w = P(c) takes c = P⁻¹(w)
                inverse[P[gyr[s]]] = w
                a_bc[s:e] = np.take(a_bc[s:e], inverse, axis=1)
        ok = holds(C, C[a, b], a_bc)
        if not ok.all():
            failing = np.flatnonzero(~ok.all(axis=1))
            j = failing[np.argmin(b[failing])]
            return a, int(b[j]), int(np.argmin(ok[j][P[gyr[j]]]))
    return None


def _gyroassoc_rows(C: np.ndarray, ab: np.ndarray, a_bc: np.ndarray) -> np.ndarray:
    """Left gyroassociativity in the terms of `_row_violation`: (a ⊕ b) ⊕ w
    over every w is the whole Cayley row of a ⊕ b."""
    return _gyroassoc_holds(C, ab, a_bc, slice(None))


def _derivable(G: FiniteGyrogroup) -> bool:
    """Rows of left gyroassociativity may be derived (see the module
    docstring): every Cayley row is a permutation, every gyration used an
    automorphism."""
    return check_left_translations(G).passed and check_gyr_automorphisms(G).passed


def _assoc_violation(G: FiniteGyrogroup, budget: int) -> tuple[int, ...] | None:
    """Smallest (a, b, c) where left gyroassociativity fails, or None where it
    holds; ``()`` where it is left undecided.  Where rows are `_derivable`,
    they are derived, with at most ``budget`` rows scanned directly; where
    they are not, a budget of N scans every row in order, and any smaller
    budget scans none.

    A budget of ``N.bit_length()`` decides every gyrogroup: its passing rows,
    closed under ⊕ by the derivation, are a subgyrogroup, whose order divides
    N (Lagrange), so each row scanned outside them at least doubles them.
    """
    derive = _derivable(G)
    if not derive and budget < G.order:
        return ()
    from . import _rows  # compiled only by the commands that scan a triple law

    return _rows.first_violation(G, _gyroassoc_rows, derive, budget)


def check_left_gyroassociativity(G: FiniteGyrogroup) -> CheckResult:
    """a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ gyr[a,b]c over all triples; witness (a, b, c).

    Decided by `_assoc_violation` with a budget of every row.
    """
    bad = _assoc_violation(G, G.order)
    return CheckResult("left_gyroassociativity", bad is None, bad)


def check_loop_property(G: FiniteGyrogroup) -> CheckResult:
    """gyr[a, b] = gyr[a ⊕ b, b] as deduplicated indices; witness (a, b)."""
    Gy = _FlatTable(G.gyr_table)
    columns = np.arange(G.order, dtype=np.int32)
    for rows in _pair_blocks(G.order):
        bad = _first_false(G.gyr_table[rows] == Gy[G.cayley[rows], columns])
        if bad is not None:
            return CheckResult("loop_property", False, (rows.start + bad[0], bad[1]))
    return CheckResult("loop_property", True)


def check_gyrator_identity(G: FiniteGyrogroup) -> CheckResult:
    """Stored gyrations match ⊖(a⊕b) ⊕ (a ⊕ (b⊕c)); witness (a, b, c).

    Fails outright (witness (x,)) when some element has no left inverse,
    since the formula is then undefined.  When left cancellation holds, it
    has the left gyroassociativity result (see the module docstring), and
    `verify` reuses its own; otherwise the identity gets a scan of its own.
    """
    inv = G.left_inverse_map()
    missing = _first_false(inv >= 0)
    if missing is not None:
        return CheckResult(
            "gyrator_identity", False, missing, note="no left inverse, formula undefined"
        )
    if _left_cancellation_holds(G):
        return replace(check_left_gyroassociativity(G), name="gyrator_identity")
    from . import _rows

    w = np.arange(G.order)
    bad = _rows.first_violation(
        G, lambda C, ab, a_bc: _gyrator_holds(C, inv, ab[:, None], a_bc, w), False, G.order
    )
    return CheckResult("gyrator_identity", bad is None, bad)


def check_gyrocommutative(G: FiniteGyrogroup) -> CheckResult:
    """a ⊕ b = gyr[a,b](b ⊕ a) for all pairs; witness (a, b)."""
    C = G.cayley
    P = _FlatTable(G.perm_matrix)
    for rows in _pair_blocks(G.order):
        # fancy indexing casts the index in pieces, where np.take would cast it whole
        bad = _first_false(C[rows] == P.flat[P.cell(G.gyr_table[rows], _tiled_copy(C.T[rows]))])
        if bad is not None:
            return CheckResult("gyrocommutativity", False, (rows.start + bad[0], bad[1]))
    return CheckResult("gyrocommutativity", True)


def _sampled_triples(
    G: FiniteGyrogroup, seed: int, sample_size: int, names: list[str]
) -> dict[str, CheckResult]:
    """The triple checks ``names`` on a seeded sample, each with its first
    failing draw as its witness and the note "sampled".

    The sample is ``default_rng(seed).integers(0, N, size=(sample_size, 3))``,
    drawn from that one generator _SAMPLE_CHUNK triples at a time, which
    gives the same triples; no chunk is drawn once every check has failed.
    """
    N = G.order
    inv = G.left_inverse_map()
    C = _FlatTable(G.cayley)
    P = _FlatTable(G.perm_matrix)
    Gy = G.gyr_table.ravel()
    laws = {"left_gyroassociativity": lambda *terms: _gyroassoc_holds(C, *terms),
            "gyrator_identity": lambda *terms: _gyrator_holds(C, inv, *terms)}
    witness = dict.fromkeys(names)
    rng = np.random.default_rng(seed)
    for start in range(0, sample_size, _SAMPLE_CHUNK):
        # int32 draws are the int64 ones, in half the memory
        abc = rng.integers(0, N, size=(min(_SAMPLE_CHUNK, sample_size - start), 3),
                           dtype=np.int32)
        a, b, c = abc.T
        ab_cell = C.cell(a, b)
        terms = np.take(C.flat, ab_cell), C[a, C[b, c]], P[np.take(Gy, ab_cell), c]
        for name in names:
            if witness[name] is None:
                bad = np.flatnonzero(~laws[name](*terms))
                if bad.size:
                    witness[name] = tuple(int(v) for v in abc[bad[0]])
        if None not in witness.values():
            break
    return {name: CheckResult(name, w is None, w, note="sampled") for name, w in witness.items()}


_PAIR_CHECKS: tuple[Callable[[FiniteGyrogroup], CheckResult], ...] = (
    check_left_translations,
    check_right_translations,
    check_left_identity,
    check_left_inverses,
    check_gyr_automorphisms,
)

CHECK_NAMES = (
    "left_translations_bijective",
    "right_translations_bijective",
    "left_identity",
    "left_inverses",
    "gyrations_are_automorphisms",
    "left_gyroassociativity",
    "loop_property",
    "gyrator_identity",
    "gyrocommutativity",
)


def verify(
    G: FiniteGyrogroup,
    *,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    sample_size: int = SAMPLE_SIZE,
    seed: int = SAMPLE_SEED,
) -> VerificationReport:
    """Run every check and aggregate the results; nothing short-circuits.

    Left gyroassociativity is decided by `_assoc_violation`, with a budget of
    every row at or below ``exhaustive_limit`` (`check_left_gyroassociativity`)
    and of ``N.bit_length()`` rows above it.  Above it, a law left undecided
    is checked on ``sample_size`` seeded pseudo-random triples, its result
    noted "sampled"; such orders label the report sampled.  One answer serves
    both triple laws when left cancellation holds.  Raises ValueError, before
    any check runs, when ``sample_size`` is below 1: an empty sample would
    pass every law it is given.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    results = [check(G) for check in _PAIR_CHECKS]
    sampled = G.order > exhaustive_limit
    assoc = None if sampled else check_left_gyroassociativity(G)
    if sampled and (bad := _assoc_violation(G, G.order.bit_length())) != ():
        assoc = CheckResult("left_gyroassociativity", bad is None, bad)
    undecided = ["left_gyroassociativity"] if assoc is None else []  # the laws left to the sample
    # the gyrator identity has the associativity result under left
    # cancellation, and is undefined without left inverses
    if sampled and (G.left_inverse_map() >= 0).all() and not _left_cancellation_holds(G):
        undecided.append("gyrator_identity")
    drawn = _sampled_triples(G, seed, sample_size, undecided) if undecided else {}
    assoc = assoc or drawn["left_gyroassociativity"]
    gyrator = (replace(assoc, name="gyrator_identity") if _left_cancellation_holds(G)
               else drawn.get("gyrator_identity") or check_gyrator_identity(G))
    results += [assoc, check_loop_property(G), gyrator, check_gyrocommutative(G)]
    return VerificationReport(
        checks=tuple(results),
        sampled=sampled,
        seed=seed if sampled else None,
        sample_size=sample_size if sampled else None,
    )
