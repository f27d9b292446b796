"""Table-backed finite gyrogroups and the exhaustive axiom-verification engine.

Elements are the canonical integers 0..N-1 and the identity is element 0 by
convention.  A gyrogroup is carried entirely by two tables: the Cayley table
of the binary operation and, for every ordered pair, an index into a
deduplicated list of permutations (the gyrations).  All checks below report
pass/fail with the lexicographically smallest witness, so reports are
deterministic regardless of how the scan is partitioned.  (Sampled scans,
used above EXHAUSTIVE_LIMIT, instead report the first witness in the seeded
sample order and carry a "sampled" note.)

One triple scan serves both triple laws when the table has left cancellation,
⊖x ⊕ (x ⊕ y) = y for all x, y (an O(N²) test).  Then L_{⊖z} inverts the left
translation L_z, so with z = a ⊕ b, for every single triple

    a ⊕ (b ⊕ c) = z ⊕ gyr[a,b]c  ⟺  ⊖z ⊕ (a ⊕ (b ⊕ c)) = gyr[a,b]c,

that is, left gyroassociativity and the gyrator identity fail at the same
triples and have the same smallest (or first sampled) witness.
"""

from __future__ import annotations

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

# Full triple scans run up to this order; beyond it `verify` switches to a
# seeded pseudo-random sample so the report stays reproducible at any size.
EXHAUSTIVE_LIMIT = 512
SAMPLE_SIZE = 10_000_000
SAMPLE_SEED = 1729
# Gyration indices are stored as uint16.
_GYRATION_LIMIT = 1 << 16


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

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition self∘other: apply `other` first, then `self`."""
        if other.degree != self.degree:
            raise GyrogroupDataError("cannot compose permutations of different degrees")
        return Permutation(tuple(self.images[y] for y in other.images))

    def inverse(self) -> "Permutation":
        return Permutation(tuple(np.argsort(self.images).tolist()))

    def order(self) -> int:
        power = self
        k = 1
        while not power.is_identity:
            power = power.compose(self)
            k += 1
        return k

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


def _as_table(values, name: str) -> np.ndarray:
    table = np.asarray(values, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GyrogroupDataError(f"{name} table must be square, got shape {table.shape}")
    return table


def _image_rows(perms, n: int) -> np.ndarray:
    """``perms``, any K×n integer array-like, checked to be bijections on 0..n-1."""
    try:
        images = np.asarray(perms, dtype=np.int64)
    except ValueError:  # rows of different lengths name the first odd degree
        degrees = [np.size(row) for row in perms if np.size(row) != n]
        if not degrees:
            raise
        images = np.empty((1, degrees[0]))
    if images.ndim != 2 or images.shape[1] != n:
        raise GyrogroupDataError(f"permutation degree {np.size(images[0])} != order {n}")
    bijective = (np.sort(images, axis=1) == np.arange(n)).all(axis=1)
    if not bijective.all():
        row = tuple(images[np.argmin(bijective)].tolist())
        raise GyrogroupDataError(f"not a bijection on 0..{n - 1}: {row!r}")
    return images.astype(np.int32)


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
            gyr_table = np.zeros((n, n), dtype=np.int64)
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
        _, first, index_of = np.unique(images, axis=0, return_index=True, return_inverse=True)
        if len(first) > _GYRATION_LIMIT:
            raise GyrogroupDataError(
                f"{len(first)} distinct gyrations exceed the limit of {_GYRATION_LIMIT:,}"
            )
        # rank of each row's first occurrence among the first occurrences
        gyr = np.argsort(np.argsort(first))[index_of.reshape(-1)][gyr]

        self._cayley = table.astype(np.int32)
        self._cayley.setflags(write=False)
        self._gyr = gyr.astype(np.uint16)
        self._gyr.setflags(write=False)
        self._perm_matrix = images[np.sort(first)]
        self._perm_matrix.setflags(write=False)
        self._perms: tuple[Permutation, ...] | None = None
        self._inverse_map: np.ndarray | None = None

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
    def perms(self) -> tuple[Permutation, ...]:
        """The rows of `perm_matrix` as `Permutation` objects, built on first use."""
        if self._perms is None:
            self._perms = tuple(Permutation(tuple(row)) for row in self._perm_matrix.tolist())
        return self._perms

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

    def left_inverse_map(self) -> np.ndarray:
        """For each x the smallest b with b ⊕ x = 0, or -1 when none exists."""
        if self._inverse_map is None:
            zero = self._cayley == 0
            # the first row holding 0 in each column
            inv = np.where(zero.any(axis=0), np.argmax(zero, axis=0), -1).astype(np.int64)
            inv.setflags(write=False)
            self._inverse_map = inv
        return self._inverse_map

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
        new.update(P[np.unique(Gy[np.ix_(S, S)])][:, S].ravel().tolist())
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


def _first_false(ok: np.ndarray) -> tuple[int, ...] | None:
    if ok.all():
        return None
    return tuple(int(v) for v in np.argwhere(~ok)[0])


def _translations(name: str, rows: np.ndarray) -> CheckResult:
    """Every row of ``rows`` is a permutation; witness (i, j1, j2): the first
    bad row i, the first j2 whose value stood earlier in the row, first at j1."""
    ok = (np.sort(rows, axis=1) == np.arange(len(rows))).all(axis=1)
    if ok.all():
        return CheckResult(name, True)
    i = int(np.argmin(ok))
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(rows[i], return_index=True)[1]] = False
    j2 = int(np.argmax(repeat))
    return CheckResult(name, False, (i, int(np.argmax(rows[i] == rows[i, j2])), j2))


def check_left_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every row of the Cayley table is a permutation; witness (a, j1, j2)."""
    return _translations("left_translations_bijective", G.cayley)


def check_right_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every column of the Cayley table is a permutation; witness (b, a1, a2)."""
    return _translations("right_translations_bijective", G.cayley.T)


def check_left_identity(G: FiniteGyrogroup) -> CheckResult:
    """0 ⊕ x = x for all x; witness (x,) is the smallest violation."""
    bad = _first_false(G.cayley[0] == np.arange(G.order))
    if bad is None:
        return CheckResult("left_identity", True)
    return CheckResult("left_identity", False, bad)


def check_left_inverses(G: FiniteGyrogroup) -> CheckResult:
    """Each a has some b with b ⊕ a = 0; witness (a,) lacks one."""
    has_inverse = G.left_inverse_map() >= 0
    bad = _first_false(has_inverse)
    if bad is None:
        return CheckResult("left_inverses", True)
    return CheckResult("left_inverses", False, bad)


def check_gyr_automorphisms(G: FiniteGyrogroup) -> CheckResult:
    """Every referenced gyration respects ⊕; witness (k, x, y) for perms[k]."""
    C = G.cayley
    for k in np.unique(G.gyr_table):
        p = G.perm_matrix[k]
        lhs = p[C]
        rhs = C[p[:, None], p[None, :]]
        bad = _first_false(lhs == rhs)
        if bad is not None:
            return CheckResult("gyrations_are_automorphisms", False, (int(k), *bad))
    return CheckResult("gyrations_are_automorphisms", True)


# The two triple laws, written once over the terms a ⊕ b, a ⊕ (b ⊕ c) and
# gyr[a,b]c; the exhaustive scans and the sampled scan all call them.
def _gyroassoc_holds(C, ab, a_bc, gyr_c) -> np.ndarray:
    """Left gyroassociativity a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ gyr[a,b]c, elementwise."""
    return a_bc == C[ab, gyr_c]


def _gyrator_holds(C, inv, ab, a_bc, gyr_c) -> np.ndarray:
    """Gyrator identity gyr[a,b]c = ⊖(a ⊕ b) ⊕ (a ⊕ (b ⊕ c)), elementwise."""
    return gyr_c == C[inv[ab], a_bc]


def _left_cancellation_holds(G: FiniteGyrogroup) -> bool:
    """⊖x ⊕ (x ⊕ y) = y for all x, y; false when some element has no left inverse."""
    C = G.cayley
    inv = G.left_inverse_map()
    return bool((inv >= 0).all() and (C[inv[:, None], C] == np.arange(G.order)).all())


def _first_gyroassoc_violation(G: FiniteGyrogroup) -> tuple[int, ...] | None:
    """Smallest (a, b, c) where left gyroassociativity fails, one row a at a time.

    a ⊕ (b ⊕ c) is one gather from row a.  For each distinct gyration k in
    row a, the Cayley rows of a ⊕ b for the b with gyr[a,b] = k are gathered
    and their columns permuted by k, which gives (a ⊕ b) ⊕ gyr[a,b]c.  Extra
    memory is O(N²) whatever the number of distinct gyrations.
    """
    N = G.order
    C = G.cayley.astype(np.min_scalar_type(N - 1))
    index = G.cayley.astype(np.intp)
    P = G.perm_matrix
    Gy = G.gyr_table
    ok = np.empty((N, N), dtype=bool)
    for a in range(N):
        a_bc = np.take(C[a], index)
        for k in np.unique(Gy[a]):
            bs = np.flatnonzero(Gy[a] == k)
            # row i of the gathered rows is a ⊕ b_i, so its column c holds
            # (a ⊕ b_i) ⊕ P_k(c) once the columns are indexed by P_k
            ok[bs] = _gyroassoc_holds(C[index[a, bs]], np.s_[:], a_bc[bs], P[k])
        bad = _first_false(ok)
        if bad is not None:
            return (a, *bad)
    return None


def _first_gyrator_violation(G: FiniteGyrogroup, inv: np.ndarray) -> tuple[int, ...] | None:
    """Smallest (a, b, c) where the gyrator identity fails, one row a at a time."""
    C = G.cayley
    P = G.perm_matrix
    Gy = G.gyr_table
    for a in range(G.order):
        row = C[a]
        bad = _first_false(_gyrator_holds(C, inv, row[:, None], row[C], P[Gy[a]]))
        if bad is not None:
            return (a, *bad)
    return None


def check_left_gyroassociativity(G: FiniteGyrogroup) -> CheckResult:
    """a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ gyr[a,b]c over all triples; witness (a, b, c)."""
    bad = _first_gyroassoc_violation(G)
    return CheckResult("left_gyroassociativity", bad is None, bad)


def check_loop_property(G: FiniteGyrogroup) -> CheckResult:
    """gyr[a, b] = gyr[a ⊕ b, b] as deduplicated indices; witness (a, b)."""
    Gy = G.gyr_table
    cols = np.broadcast_to(np.arange(G.order), (G.order, G.order))
    bad = _first_false(Gy == Gy[G.cayley, cols])
    if bad is None:
        return CheckResult("loop_property", True)
    return CheckResult("loop_property", False, bad)


def check_gyrator_identity(G: FiniteGyrogroup) -> CheckResult:
    """Stored gyrations match ⊖(a⊕b) ⊕ (a ⊕ (b⊕c)); witness (a, b, c).

    Fails outright (witness (x,)) when some element has no left inverse,
    since the formula is then undefined.  When left cancellation holds, the
    left gyroassociativity scan decides it, with the same witness:

        ⊖z ⊕ (z ⊕ y) = y for all z, y makes L_{⊖z} the inverse of L_z, so
        with z = a⊕b: z ⊕ gyr[a,b]c = a⊕(b⊕c)  ⟺  gyr[a,b]c = ⊖z ⊕ (a⊕(b⊕c)).

    Otherwise the identity gets a row scan of its own.
    """
    return _gyrator_identity(G, None)


def _gyrator_identity(G: FiniteGyrogroup, assoc: CheckResult | None) -> CheckResult:
    """`check_gyrator_identity`, reusing ``assoc``, a left gyroassociativity
    result over the same triples, when one is at hand."""
    inv = G.left_inverse_map()
    missing = _first_false(inv >= 0)
    if missing is not None:
        return CheckResult(
            "gyrator_identity", False, missing, note="no left inverse, formula undefined"
        )
    if _left_cancellation_holds(G):
        return replace(assoc or check_left_gyroassociativity(G), name="gyrator_identity")
    bad = _first_gyrator_violation(G, inv)
    return CheckResult("gyrator_identity", bad is None, bad)


def check_gyrocommutative(G: FiniteGyrogroup) -> CheckResult:
    """a ⊕ b = gyr[a,b](b ⊕ a) for all pairs; witness (a, b)."""
    C = G.cayley
    rhs = G.perm_matrix[G.gyr_table, C.T]
    bad = _first_false(C == rhs)
    if bad is None:
        return CheckResult("gyrocommutativity", True)
    return CheckResult("gyrocommutativity", False, bad)


class _FlatTable:
    """``table[x, y]`` as one gather at x * width + y from the raveled table, which
    is cheaper than 2-D fancy indexing; the index type holds the table's size."""

    def __init__(self, table: np.ndarray) -> None:
        self.flat = table.ravel()
        self.width = table.shape[1]
        self.index_type = np.min_scalar_type(-table.size)

    def __getitem__(self, xy: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        x, y = xy
        return np.take(self.flat, np.multiply(x, self.width, dtype=self.index_type) + y)


def _sampled_triples(
    G: FiniteGyrogroup, seed: int, sample_size: int
) -> tuple[CheckResult, CheckResult]:
    """Seeded-sample versions of the two triple checks for large orders."""
    C = _FlatTable(G.cayley)
    P = _FlatTable(G.perm_matrix)
    Gy = _FlatTable(G.gyr_table)
    inv = G.left_inverse_map()
    # otherwise the gyrator identity is undefined, or the associativity
    # witness decides it (see the module docstring)
    scan_gyrator = bool((inv >= 0).all()) and not _left_cancellation_holds(G)

    rng = np.random.default_rng(seed)
    assoc_witness: tuple[int, ...] | None = None
    gyrator_witness: tuple[int, ...] | None = None
    remaining = sample_size
    chunk = 1 << 20
    while remaining > 0 and (
        assoc_witness is None or (scan_gyrator and gyrator_witness is None)
    ):
        k = min(chunk, remaining)
        remaining -= k
        # the same draws, held in the narrowest type to keep the chunk small
        abc = rng.integers(0, G.order, size=(k, 3)).astype(np.min_scalar_type(-G.order))
        a, b, c = abc.T
        ab = C[a, b]
        a_bc = C[a, C[b, c]]
        gyr_c = P[Gy[a, b], c]
        if assoc_witness is None:
            bad = np.nonzero(~_gyroassoc_holds(C, ab, a_bc, gyr_c))[0]
            if bad.size:
                assoc_witness = tuple(int(v) for v in abc[bad[0]])
        if gyrator_witness is None and scan_gyrator:
            bad = np.nonzero(~_gyrator_holds(C, inv, ab, a_bc, gyr_c))[0]
            if bad.size:
                gyrator_witness = tuple(int(v) for v in abc[bad[0]])

    note = "sampled"
    assoc = CheckResult(
        "left_gyroassociativity", assoc_witness is None, assoc_witness, note=note
    )
    if not scan_gyrator:
        return assoc, _gyrator_identity(G, assoc)
    gyrator = CheckResult(
        "gyrator_identity", gyrator_witness is None, gyrator_witness, note=note
    )
    return assoc, gyrator


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

    Orders above ``exhaustive_limit`` replace the full triple scans with
    ``sample_size`` seeded pseudo-random triples and label the report sampled.
    One triple scan serves both triple laws when left cancellation holds.
    """
    results = [check(G) for check in _PAIR_CHECKS]
    sampled = G.order > exhaustive_limit
    if sampled:
        assoc, gyrator = _sampled_triples(G, seed, sample_size)
    else:
        assoc = check_left_gyroassociativity(G)
        gyrator = _gyrator_identity(G, assoc)
    results += [assoc, check_loop_property(G), gyrator, check_gyrocommutative(G)]
    return VerificationReport(
        checks=tuple(results),
        sampled=sampled,
        seed=seed if sampled else None,
        sample_size=sample_size if sampled else None,
    )
