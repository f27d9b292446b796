import functools
import itertools
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrogroups import _rows, core
from gyrogroups import (
    CHECK_NAMES,
    FiniteGyrogroup,
    GyrogroupDataError,
    Permutation,
    build_cyclic_gyrogroup,
    check_gyr_automorphisms,
    check_gyrator_identity,
    check_gyrocommutative,
    check_left_gyroassociativity,
    check_left_identity,
    check_left_inverses,
    check_left_translations,
    check_loop_property,
    check_right_translations,
    cyclic_group,
    dihedral_group,
    direct_product,
    emit_tables,
    inverse_of,
    load_tables,
    verify,
)

from formats_reference import ref_left_translations, ref_right_translations
from pair_reference import (
    ref_gyr_automorphisms,
    ref_gyrocommutative,
    ref_left_cancellation,
    ref_loop_property,
)
from triple_reference import (
    ref_class_minima,
    ref_class_scan_witness,
    ref_gyrator_witness,
    ref_gyroassoc_witness,
    ref_sampled_witnesses,
)
from witness_checks import witness_confirms


# ---------------------------------------------------------------- Permutation


def test_permutation_validation():
    with pytest.raises(GyrogroupDataError):
        Permutation((0, 0, 2))
    with pytest.raises(GyrogroupDataError):
        Permutation((1, 2, 3))


def test_permutation_cycle_string():
    q = Permutation((0, 2, 1))  # swap 1, 2
    assert q.cycle_string() == "(1 2)"
    assert Permutation.identity(4).cycle_string() == "()"


# --------------------------------------------------------------- construction


def test_constructor_rejects_bad_tables():
    with pytest.raises(GyrogroupDataError, match="square"):
        FiniteGyrogroup([[0, 1]])
    with pytest.raises(GyrogroupDataError, match="out of range"):
        FiniteGyrogroup([[0, 1], [1, 2]])
    with pytest.raises(GyrogroupDataError, match="without a permutation"):
        FiniteGyrogroup([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    with pytest.raises(GyrogroupDataError, match="degree"):
        FiniteGyrogroup([[0, 1], [1, 0]], [[0, 0], [0, 0]], ((0,),))
    with pytest.raises(GyrogroupDataError, match="undefined permutation"):
        FiniteGyrogroup([[0, 1], [1, 0]], [[0, 1], [0, 0]], ((0, 1),))


def test_constructor_deduplicates_permutations():
    G = FiniteGyrogroup([[0, 1], [1, 0]], [[0, 1], [1, 0]], ((0, 1), (0, 1)))
    assert len(G.perm_matrix) == 1
    assert G.gyr_table.max() == 0


def test_constructor_keeps_first_occurrences_in_order():
    p0, p1, p2 = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    gyr = [[0, 1, 2], [3, 4, 0], [1, 1, 1]]
    G = FiniteGyrogroup(cyclic_group(3), gyr, (p2, p1, p2, p0, p1))
    assert G.perms == (Permutation(p2), Permutation(p1), Permutation(p0))
    assert G.gyr_table.tolist() == [[0, 1, 0], [2, 1, 0], [1, 1, 1]]
    assert G.perm_matrix.tolist() == [[2, 0, 1], [1, 2, 0], [0, 1, 2]]


def test_row_positions_find_each_row_or_minus_one():
    rows = np.array([[2, 0, 1], [0, 1, 2], [1, 2, 0]], dtype=np.int32)
    queries = np.array([[0, 1, 2], [2, 1, 0], [2, 0, 1], [9, 9, 9], [1, 2, 0]])
    assert core._row_positions(rows, queries).tolist() == [1, -1, 0, -1, 2]


def test_left_inverse_map_is_the_smallest_left_inverse():
    rng = np.random.default_rng(11)
    for _ in range(50):
        G = FiniteGyrogroup(rng.integers(0, 3, size=(6, 6)))
        expected = [min((b for b in range(6) if G.oplus(b, x) == 0), default=-1) for x in range(6)]
        assert G.left_inverse_map().tolist() == expected


def test_translation_witnesses_match_reference(g3):
    # every single-entry change of the order-8 table, and random magmas
    cases = []
    for a, b, v in itertools.product(range(8), range(8), range(8)):
        table = g3.cayley.copy()
        table[a, b] = v
        cases.append(FiniteGyrogroup.from_group(table))
    rng = np.random.default_rng(5)
    cases += [FiniteGyrogroup.from_group(rng.integers(0, 5, size=(5, 5))) for _ in range(100)]
    for G in cases:
        assert check_left_translations(G) == ref_left_translations(G)
        assert check_right_translations(G) == ref_right_translations(G)


@pytest.mark.parametrize("check, witness", [
    (check_left_translations, (700, 3, 4)),
    (check_right_translations, (3, 700, 701)),
    (check_gyrocommutative, (3, 700)),
    (check_gyr_automorphisms, (1, 700, 3)),
], ids=["left translations", "right translations", "gyrocommutativity", "automorphisms"])
def test_pair_check_peak_memory_at_order_1024(check, witness):
    # the checks take the table in row blocks; a whole N×N sorted copy or
    # gathered right-hand side alone would be 4 MB, and two block gathers of
    # the automorphism check at 2^19 cells made 4.7 MB
    G = build_cyclic_gyrogroup(10)
    cayley = G.cayley.copy()
    cayley[700, 3] = cayley[700, 4]
    broken = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
    for table, expected in ((G, None), (broken, witness)):
        tracemalloc.start()
        try:
            result = check(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.witness == expected
        assert peak <= 3.5e6


def _pair_check_cases():
    """The constructions of order 8 and 16 and the dihedral group of order 10,
    and 40 copies of each with one Cayley entry changed or one gyration made
    a random permutation."""
    rng = np.random.default_rng(17)
    cases = []
    for G in (build_cyclic_gyrogroup(3), build_cyclic_gyrogroup(4),
              FiniteGyrogroup.from_group(dihedral_group(5))):
        N = G.order
        cases.append((G.cayley, G.gyr_table, G.perm_matrix))
        for _ in range(40):
            cayley, gyr, perms = G.cayley.copy(), G.gyr_table.astype(np.int64), list(G.perm_matrix)
            a, b = rng.integers(0, N, size=2)
            if rng.random() < 0.5:
                cayley[a, b] = rng.integers(0, N)
            else:
                perms.append(rng.permutation(N))
                gyr[a, b] = len(perms) - 1
            cases.append((cayley, gyr, perms))
    return cases


PAIR_CASES = _pair_check_cases()


@pytest.mark.parametrize("height", [1, 3, None], ids=["1-row blocks", "3-row blocks", "one block"])
def test_pair_checks_match_reference(height, monkeypatch):
    # the blocks of the pair checks hold a quarter of _BLOCK_CELLS cells
    for tables in PAIR_CASES:
        if height is not None:
            monkeypatch.setattr(core, "_BLOCK_CELLS", 4 * height * len(tables[0]))
        G = FiniteGyrogroup(*tables)  # fresh, as some checks are kept on G
        assert check_left_translations(G) == ref_left_translations(G)
        assert check_right_translations(G) == ref_right_translations(G)
        assert check_gyr_automorphisms(G) == ref_gyr_automorphisms(G)
        assert check_loop_property(G) == ref_loop_property(G)
        assert check_gyrocommutative(G) == ref_gyrocommutative(G)
        assert core._left_cancellation_holds(G) == ref_left_cancellation(G)
    assert sum(not ref_gyr_automorphisms(FiniteGyrogroup(*t)).passed for t in PAIR_CASES) > 10


def test_constructor_rejects_gyration_index_overflow():
    # gyration indices are stored as uint16; the 65,537th distinct
    # permutation used to wrap around to permutation 0
    perms = list(itertools.islice(itertools.permutations(range(9)), 65537))
    gyr = np.zeros((9, 9), dtype=int)
    gyr[1, 1] = 65536
    with pytest.raises(GyrogroupDataError, match="65537 distinct gyrations exceed the limit of 65,536"):
        FiniteGyrogroup(cyclic_group(9), gyr, perms)
    gyr[1, 1] = 65535
    G = FiniteGyrogroup(cyclic_group(9), gyr, perms[:65536])
    assert G.gyration(1, 1) == Permutation(perms[65535])


def test_tables_are_immutable(g3):
    with pytest.raises(ValueError):
        g3.cayley[0, 0] = 1
    with pytest.raises(ValueError):
        g3.gyr_table[0, 0] = 1


# --------------------------------------------------------------- basic checks


def test_left_identity(g3):
    assert check_left_identity(g3).passed
    assert check_left_identity(FiniteGyrogroup.from_group(cyclic_group(4))).passed
    # row 0 permuted away from the identity row
    broken = cyclic_group(4)
    broken[0] = [0, 2, 1, 3]
    result = check_left_identity(FiniteGyrogroup.from_group(broken))
    assert not result.passed and result.witness == (1,)


def test_left_inverses(g3):
    result = check_left_inverses(g3)
    assert result.passed
    assert inverse_of(g3, 5) == 7 and g3.oplus(7, 5) == 0
    assert inverse_of(g3, 3) == 1 and g3.oplus(1, 3) == 0
    assert inverse_of(g3, 0) == 0
    # every row constant j: no column except 0 contains a zero
    constant = FiniteGyrogroup([[j for j in range(4)] for _ in range(4)])
    result = check_left_inverses(constant)
    assert not result.passed and result.witness == (1,)
    assert witness_confirms(constant, result)
    with pytest.raises(ValueError, match="no left inverse"):
        inverse_of(constant, 1)


def test_gyr_automorphisms(g3):
    assert check_gyr_automorphisms(g3).passed
    assert check_gyr_automorphisms(FiniteGyrogroup.from_group(cyclic_group(8))).passed
    # a transposition moving the identity is never an automorphism here
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    gyr = np.zeros((8, 8), dtype=int)
    gyr[0, 0] = 1
    tainted = FiniteGyrogroup(g3.cayley, gyr, (tuple(range(8)), swap))
    result = check_gyr_automorphisms(tainted)
    assert not result.passed
    assert result.witness[0] == 1
    assert witness_confirms(tainted, result)


def test_left_gyroassociativity(g3, g4, z8):
    assert check_left_gyroassociativity(g3).passed
    assert check_left_gyroassociativity(g4).passed
    assert check_left_gyroassociativity(z8).passed
    suppressed = FiniteGyrogroup(g3.cayley)
    result = check_left_gyroassociativity(suppressed)
    assert not result.passed
    assert witness_confirms(suppressed, result)


def test_loop_property(g3, z8):
    assert check_loop_property(g3).passed
    assert check_loop_property(z8).passed
    flipped = np.array(g3.gyr_table)
    flipped[1, 4] ^= 1
    broken = FiniteGyrogroup(g3.cayley, flipped, g3.perm_matrix)
    result = check_loop_property(broken)
    assert not result.passed
    assert witness_confirms(broken, result)


def test_gyrator_identity(g3, g4, z8):
    assert check_gyrator_identity(g4).passed
    assert check_gyrator_identity(z8).passed
    flipped = np.array(g3.gyr_table)
    flipped[1, 4] = 0
    broken = FiniteGyrogroup(g3.cayley, flipped, g3.perm_matrix)
    result = check_gyrator_identity(broken)
    assert not result.passed
    assert result.witness[:2] == (1, 4)
    assert witness_confirms(broken, result)


def test_gyrator_identity_undefined_without_inverses():
    constant = FiniteGyrogroup([[j for j in range(4)] for _ in range(4)])
    result = check_gyrator_identity(constant)
    assert not result.passed and "undefined" in result.note
    assert witness_confirms(constant, result)


def _cayley_mutations(n):
    G = build_cyclic_gyrogroup(n)
    for a, b in np.ndindex(G.order, G.order):
        for v in range(G.order):
            if v != G.cayley[a, b]:
                cayley = np.array(G.cayley)
                cayley[a, b] = v
                yield FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)


def _gyration_flips(n):
    G = build_cyclic_gyrogroup(n)
    for a, b in np.ndindex(G.order, G.order):
        gyr = np.array(G.gyr_table)
        gyr[a, b] ^= 1
        yield FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)


def _random_gyrations(seed):
    # each row refers to at least three distinct gyrations, in no order
    rng = np.random.default_rng(seed)
    G = build_cyclic_gyrogroup(4)
    perms = [rng.permutation(16) for _ in range(5)]
    gyr = rng.integers(0, 5, size=(16, 16))
    assert min(len(set(row)) for row in gyr.tolist()) >= 3
    return FiniteGyrogroup(G.cayley, gyr, perms)


def _row_repeat_512():
    # row 300 repeats an entry, so that left translation is not a bijection
    G = build_cyclic_gyrogroup(9)
    cayley = G.cayley.copy()
    cayley[300, 7] = cayley[300, 8]
    return FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)


def _distinct_gyrations(cayley, seed):
    """``cayley`` with its own random gyration for every pair."""
    N = len(cayley)
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.broadcast_to(np.arange(N), (N * N, N)), axis=1)
    G = FiniteGyrogroup(cayley, np.arange(N * N).reshape(N, N), perms)
    assert len(G.perm_matrix) == N * N
    return G


def _left_zero_distinct_gyrations():
    # with x ⊕ y = x both sides are a whatever the gyration, so the law holds
    # at every triple, until one entry changes
    left_zero = np.repeat(np.arange(128)[:, None], 128, axis=1)
    G = _distinct_gyrations(left_zero, 3)
    assert ref_gyroassoc_witness(G) is None
    yield G
    left_zero[100, 5] = 7
    yield _distinct_gyrations(left_zero, 3)


TRIPLE_CASES = {
    "n3 cayley mutations": (lambda: _cayley_mutations(3), False),
    "n3 gyration flips": (lambda: _gyration_flips(3), True),
    "n4 gyration flips": (lambda: _gyration_flips(4), True),
    "order 16, random gyrations": (lambda: map(_random_gyrations, range(8)), True),
    "constant table": (lambda: [FiniteGyrogroup([list(range(4))] * 4)], False),
    "order 512, a non-bijective left translation": (lambda: [_row_repeat_512()], False),
    "order 128, a gyration per pair, x + y = x": (_left_zero_distinct_gyrations, False),
    "order 128, a gyration per pair, construction": (
        lambda: [_distinct_gyrations(build_cyclic_gyrogroup(7).cayley, 4)], True
    ),
}


def _assert_triple_witnesses(G):
    """Both exhaustive triple checks give the reference witness, confirmed
    from the tables when there is one."""
    for check, reference in ((check_left_gyroassociativity, ref_gyroassoc_witness),
                             (check_gyrator_identity, ref_gyrator_witness)):
        result = check(G)
        assert result.witness == reference(G)
        assert result.passed == (result.witness is None)
        if not result.passed:
            assert witness_confirms(G, result)


@pytest.mark.parametrize("case", list(TRIPLE_CASES))
def test_triple_witnesses_match_reference(case):
    tables, cancels = TRIPLE_CASES[case]
    for G in tables():
        # with left cancellation the gyrator identity takes the shortcut,
        # otherwise its own row scan
        assert core._left_cancellation_holds(G) == cancels
        _assert_triple_witnesses(G)


def _counting_laws(monkeypatch):
    """The number of triples each call of a triple law evaluates, as a list."""
    counted = []
    for name in ("_gyroassoc_holds", "_gyrator_holds"):
        law = getattr(core, name)

        def counting(*args, law=law):
            ok = law(*args)
            counted.append(ok.size)
            return ok

        monkeypatch.setattr(core, name, counting)
    return counted


def test_verify_scans_the_triples_once_with_left_cancellation(monkeypatch):
    counted = _counting_laws(monkeypatch)
    G = build_cyclic_gyrogroup(5)
    assert verify(G).passed
    # rows 0, 1 and 16 are scanned directly, all of their b's and c's, and
    # the other rows derived from them; the gyrator identity adds none
    assert counted == [32 * 32] * 3
    # x ⊕ y = y holds the law at every triple, but no row is x ⊕ y for two
    # other rows, so no row is derived, and the gyrator identity is undefined
    counted.clear()
    right_zero = FiniteGyrogroup(np.tile(np.arange(32), (32, 1)))
    report = verify(right_zero)
    assert report.check("left_gyroassociativity").passed
    assert report.check("gyrator_identity").witness == (1,)
    # so every row is scanned directly, and once
    assert sum(counted) == 32**3


def test_no_row_is_scanned_twice_for_one_law(monkeypatch):
    # x ⊕ y = y passes the derivation's gate but derives no row, and the
    # planted table fails the gate; `verify` scans each row once, in order,
    # up to the failing row where there is one, and the gyrator identity
    # adds none (undefined on the one, the associativity result on the other)
    scanned = _scanned_rows(monkeypatch)
    right_zero = FiniteGyrogroup(np.tile(np.arange(64), (64, 1)))
    planted = _planted(6, [(37, 20, 5)])
    for G, rows in ((right_zero, range(64)), (planted, range(38))):
        scanned.clear()
        verify(G)
        _assert_no_row_scanned_twice(scanned)
        assert [a for _, a in scanned] == list(rows)


def test_verify_sorts_the_cayley_rows_once(monkeypatch):
    # the row derivation's gate reuses the left translations check of `verify`
    calls = []
    translations = core._translations

    def counting(name, rows):
        calls.append(name)
        return translations(name, rows)

    monkeypatch.setattr(core, "_translations", counting)
    assert verify(build_cyclic_gyrogroup(6)).passed
    assert calls == ["left_translations_bijective", "right_translations_bijective"]


# ------------------------------------------------------------- row derivation


def _scans(monkeypatch):
    """The names of the triple scans run, as a list: the one row driver
    (``first_violation``), the gyrator identity's own scan, which calls it,
    and the sample (``_sampled_triples``)."""
    ran = []
    for module, name in ((_rows, "first_violation"), (core, "_first_gyrator_violation"),
                         (core, "_sampled_triples")):
        scan = getattr(module, name)

        def spy(*args, scan=scan, name=name):
            ran.append(name)
            return scan(*args)

        monkeypatch.setattr(module, name, spy)
    return ran


def _scanned_rows(monkeypatch):
    """Each row the row kernel scans, as a list of (law, a), with ``holds``
    standing for the law; the spy sits where the row driver looks the kernel
    up."""
    scanned = []
    row_violation = _rows._row_violation

    def spy(G, holds, a, *b_range):
        scanned.append((holds, a))
        return row_violation(G, holds, a, *b_range)

    monkeypatch.setattr(_rows, "_row_violation", spy)
    return scanned


def _assert_no_row_scanned_twice(scanned):
    """No row reaches the row kernel twice within one law's decision."""
    for law in {holds for holds, _ in scanned}:
        rows = [a for holds, a in scanned if holds is law]
        assert len(rows) == len(set(rows)), rows


def _assert_derivation_matches_reference(G):
    """`verify` decides each triple law of G by one call of the row driver,
    no row scanned twice, and gives the reference witnesses; with left
    cancellation the gyrator identity reuses the associativity result.
    Above a lowered limit, a law the derivation decides within its budget has
    the reference witness, and only the laws it leaves undecided are
    sampled."""
    with pytest.MonkeyPatch.context() as patch:
        scans = _scans(patch)
        rows = _scanned_rows(patch)
        report = verify(G)
    cancels = core._left_cancellation_holds(G)
    own_gyrator = bool((G.left_inverse_map() >= 0).all()) and not cancels
    own_scan = ["_first_gyrator_violation", "first_violation"]
    assert scans == ["first_violation"] + own_scan * own_gyrator
    _assert_no_row_scanned_twice(rows)
    derived = core._derived_violation(G)
    assert derived in ((), ref_gyroassoc_witness(G))
    assoc = report.check("left_gyroassociativity")
    assert assoc.witness == ref_gyroassoc_witness(G)
    if not assoc.passed:
        assert witness_confirms(G, assoc)
    gyrator = report.check("gyrator_identity")
    assert gyrator.witness == ref_gyrator_witness(G)
    if cancels:
        assert gyrator.witness == assoc.witness
    # the derivation never leaves a gyrogroup undecided
    gyrogroup = all(c.passed for c in report.checks if c.name != "gyrocommutativity")
    assert derived is None or not gyrogroup
    with pytest.MonkeyPatch.context() as patch:
        scans = _scans(patch)
        report = verify(G, exhaustive_limit=G.order - 1, sample_size=1000)
    assert report.sampled
    sampled = derived == () or own_gyrator
    assert scans == ["first_violation"] * core._derivable(G) + ["_sampled_triples"] * sampled
    assoc, gyrator = report.check("left_gyroassociativity"), report.check("gyrator_identity")
    assert assoc.note == ("sampled" if derived == () else "")
    if derived != ():
        assert assoc.witness == ref_gyroassoc_witness(G)
        if cancels:
            assert gyrator.witness == ref_gyrator_witness(G) and not gyrator.note


def _conjugations(table):
    """The inner automorphisms x ↦ g ⊕ x ⊕ g⁻¹ of a group table, one per g."""
    inverse = np.argmax(table == 0, axis=0)
    return [table[table[g], inverse[g]] for g in range(len(table))]


def _gyration_mutations(n, seed):
    """The order-2^n construction, then copies with gyr[a,b] switched to the
    other stored gyration at a few random pairs; both gyrations are
    automorphisms, so the rows are derived."""
    G = build_cyclic_gyrogroup(n)
    yield G
    rng = np.random.default_rng(seed)
    for cells in (1, 1, 2, 5):
        gyr = np.array(G.gyr_table)
        for a, b in rng.integers(0, G.order, size=(cells, 2)):
            gyr[a, b] ^= 1
        yield FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)


def _random_conjugations(sides, seed):
    """D_sides with the identity gyration, then with a random conjugation per pair."""
    table = dihedral_group(sides)
    yield FiniteGyrogroup.from_group(table)
    rng = np.random.default_rng(seed)
    gyr = rng.integers(0, len(table), size=table.shape)
    yield FiniteGyrogroup(table, gyr, _conjugations(table))


def _assert_class_scan_matches_reference(G):
    """A scan of the class minima alone (`ref_class_scan_witness`) and the
    row derivation both give the reference witness on G."""
    assert ref_class_scan_witness(G) == ref_gyroassoc_witness(G)
    _assert_derivation_matches_reference(G)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_scan_matches_reference_on_gyration_mutations(n):
    for G in _gyration_mutations(n, n):
        _assert_class_scan_matches_reference(G)


@pytest.mark.parametrize("sides", [4, 5, 6, 7, 8])
def test_class_scan_matches_reference_on_dihedral_conjugations(sides):
    for G in _random_conjugations(sides, sides):
        _assert_class_scan_matches_reference(G)


@st.composite
def derivation_tables(draw):
    """Tables that pass the derivation's gate: Z_n with gyrations x ↦ ux for
    units u, D_m with conjugations, a small construction with its two
    gyrations, or x ⊕ y = y with cyclic shifts, whose rows are never
    derived, so that its budget can run out; each pair gets the identity,
    or now and then another one."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "construction", "right zero"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 16))
        table = cyclic_group(n)
        autos = [(u * np.arange(n)) % n for u in range(1, n) if np.gcd(u, n) == 1]
    elif kind == "right zero":
        n = draw(st.integers(2, 16))
        table = np.tile(np.arange(n), (n, 1))
        autos = [np.roll(np.arange(n), s) for s in range(1, n)]
    elif kind == "dihedral":
        table = dihedral_group(draw(st.integers(3, 7)))
        autos = _conjugations(table)
    else:
        G = build_cyclic_gyrogroup(draw(st.integers(3, 4)))
        table, autos = G.cayley, list(G.perm_matrix)
    N = len(table)
    perms = [np.arange(N)] + draw(st.lists(st.sampled_from(autos), max_size=3))
    k = st.integers(0, len(perms) - 1)
    if draw(st.booleans()):
        gyr = np.array(draw(st.lists(k, min_size=N * N, max_size=N * N)))
    else:
        gyr = np.zeros(N * N, dtype=np.int64)
        for cell, v in draw(st.lists(st.tuples(st.integers(0, N * N - 1), k), max_size=4)):
            gyr[cell] = v
    return FiniteGyrogroup(table, gyr.reshape(N, N), perms)


@given(derivation_tables())
@settings(max_examples=200, deadline=None)
def test_derivation_matches_reference_on_random_tables(G):
    _assert_derivation_matches_reference(G)


@st.composite
def failing_derivation_tables(draw):
    """The order-2^n construction (n = 3..7) with one to three gyrations
    switched to the other one, or D8, Z4×Z4 or Z16 with two entries of one
    row swapped, which keeps that row a permutation but not the columns
    (Light's test for groups checks such tables)."""
    if draw(st.booleans()):
        G = build_cyclic_gyrogroup(draw(st.integers(3, 7)))
        cells = st.tuples(st.integers(0, G.order - 1), st.integers(0, G.order - 1))
        gyr = np.array(G.gyr_table)
        for a, b in draw(st.lists(cells, min_size=1, max_size=3)):
            gyr[a, b] ^= 1
        return FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)
    table = np.array(draw(st.sampled_from([
        dihedral_group(4), direct_product(cyclic_group(4), cyclic_group(4)), cyclic_group(16)
    ])))
    a = draw(st.integers(0, len(table) - 1))
    b1, b2 = draw(st.lists(st.integers(0, len(table) - 1), min_size=2, max_size=2, unique=True))
    table[a, [b1, b2]] = table[a, [b2, b1]]
    return FiniteGyrogroup.from_group(table)


@given(failing_derivation_tables())
@settings(max_examples=150, deadline=None)
def test_derivation_matches_reference_on_flipped_gyrations_and_swapped_rows(G):
    _assert_derivation_matches_reference(G)


def test_derivation_needs_bijective_rows_and_automorphic_gyrations(monkeypatch):
    scans = _scans(monkeypatch)
    # the swap of 1 and 2 is no automorphism of Z_4: 1 + 1 = 2, but 2 + 2 = 0
    swap = FiniteGyrogroup(cyclic_group(4), np.zeros((4, 4), dtype=int), [[0, 2, 1, 3]])
    # row 1 of Z_4 repeats an entry, so it is no permutation
    repeat = cyclic_group(4)
    repeat[1, 0] = repeat[1, 1]
    right_zero = np.tile(np.arange(4), (4, 1))
    # x ⊕ y = y lacks left cancellation; its rows are permutations, but
    # none is derived, so each row is scanned directly, in one call of the
    # row driver like the other two
    for table, derivable in ((swap, False), (FiniteGyrogroup(repeat), False),
                             (FiniteGyrogroup(right_zero), True)):
        assert core._derivable(table) == derivable
        result = check_left_gyroassociativity(table)
        assert scans == ["first_violation"]
        scans.clear()
        assert result.witness == ref_gyroassoc_witness(table)


def _linear_maps(count, seed):
    """``count`` distinct invertible linear maps of Z_2^6 other than the
    identity, as permutations of its 64 elements."""
    rng = np.random.default_rng(seed)
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    maps = {}
    while len(maps) < count:
        M = np.eye(6, dtype=np.int64)
        for i, j in rng.integers(0, 6, size=(12, 2)):
            if i != j:
                M[i] ^= M[j]
        images = tuple(((bits @ M.T) % 2 @ (1 << np.arange(6))).tolist())
        if images != tuple(range(64)):
            maps[images] = None
    return [list(images) for images in maps]


def test_derivation_past_uint16_products():
    # Z_2^6 whose two referenced gyrations, the identity and the swap of
    # bits 0 and 1, are stored past index 1024, where gyr[a,b]·N leaves
    # uint16 and the code of four gyrations leaves uint32
    N = 64
    swap = [x & ~3 | (x & 1) << 1 | (x >> 1) & 1 for x in range(N)]
    perms = [m for m in _linear_maps(1100, 0) if m != swap] + [list(range(N)), swap]
    gyr = np.where(np.random.default_rng(1).random((N, N)) < 0.9, len(perms) - 2, len(perms) - 1)
    G = FiniteGyrogroup(np.arange(N)[:, None] ^ np.arange(N), gyr, perms)
    assert int(G.gyr_table.min()) * N >= 1 << 16 and len(perms) ** 4 > 1 << 32
    _assert_derivation_matches_reference(G)
    assert not verify(G).check("left_gyroassociativity").passed


def test_derivation_past_uint16_products_at_order_256():
    # the construction at n = 8 with its two gyrations stored after 300
    # others, and two of them switched: t·N + b and k·N + x leave uint16
    G = build_cyclic_gyrogroup(8)
    N = G.order
    others = np.random.default_rng(2).permuted(np.tile(np.arange(N), (300, 1)), axis=1)
    gyr = np.array(G.gyr_table, dtype=np.int64) + 300
    gyr[200, 7] ^= 1
    gyr[130, 255] ^= 1
    H = FiniteGyrogroup(G.cayley, gyr, [*others, *G.perm_matrix])
    assert int(H.gyr_table.min()) * N >= 1 << 16
    # row 130 is the first whose law changed, and it fails first at the
    # smallest c the two gyrations move
    result = check_left_gyroassociativity(H)
    assert result.witness == (130, 255, 1)
    assert witness_confirms(H, result)


# ------------------------------------------------------ triple scans and CPUs


def _planted(n, cells):
    """The order-2^n construction with gyr[a,b] swapping its images of c and
    N-1 for each (a, b, c) in ``cells``, so left gyroassociativity fails at
    (a, b, c) and (a, b, N-1) and nowhere else."""
    G = build_cyclic_gyrogroup(n)
    N = G.order
    gyr = np.array(G.gyr_table, dtype=np.int64)
    perms = list(G.perm_matrix)
    for a, b, c in cells:
        p = G.perm_matrix[gyr[a, b]].copy()
        p[[c, N - 1]] = p[[N - 1, c]]
        gyr[a, b] = len(perms)
        perms.append(p)
    return FiniteGyrogroup(G.cayley, gyr, perms)


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the scan started a thread")


@pytest.fixture(params=[2, 8], ids=["2 cpus", "8 cpus"])
def no_thread(request, monkeypatch):
    """The CPUs the scans see, where starting a thread fails: they run in the
    calling thread however many CPUs there are."""
    cpus = request.param
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(threading, "Thread", NoThread)


# (a, b, c) cells for order 512
PLANTED = {
    "row 0": [(0, 5, 7)],
    "row N-1": [(511, 300, 3)],
    "far-apart rows": [(201, 3, 0), (17, 500, 9)],
    "smaller b wins whatever its c": [(40, 100, 510), (40, 200, 0), (40, 400, 1)],
    "row a's later b-range beats row a+1": [(90, 500, 4), (91, 0, 0)],
}


@functools.cache
def _planted_case(case):
    G = _planted(9, PLANTED[case])
    return G, ref_gyroassoc_witness(G)


@pytest.mark.parametrize("case", list(PLANTED))
def test_threaded_scan_finds_smallest_witness(case, no_thread):
    # the swapped gyrations are no automorphisms, so the scan takes every pair
    G, reference = _planted_case(case)
    assert not check_gyr_automorphisms(G).passed
    result = check_left_gyroassociativity(G)
    assert result.witness == min(PLANTED[case]) == reference
    assert witness_confirms(G, result)
    assert check_gyrator_identity(G).witness == result.witness


@pytest.mark.parametrize("no_thread", [2], indirect=True, ids=["2 cpus"])
def test_threaded_scan_passes_at_order_512(no_thread):
    assert verify(build_cyclic_gyrogroup(9)).passed


@pytest.mark.parametrize("no_thread", [2], indirect=True, ids=["2 cpus"])
def test_threaded_gyrator_scan_without_left_cancellation(no_thread):
    # a repeat in row 3 keeps every left inverse but breaks left cancellation,
    # so the gyrator identity gets a row scan of its own
    G = build_cyclic_gyrogroup(9)
    cayley = G.cayley.copy()
    cayley[3, 5] = cayley[3, 6]
    broken = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
    assert not core._left_cancellation_holds(broken)
    for check, reference in ((check_gyrator_identity, ref_gyrator_witness),
                             (check_left_gyroassociativity, ref_gyroassoc_witness)):
        result = check(broken)
        assert result.witness == reference(broken)
        assert witness_confirms(broken, result)


# --------------------------------------------------------- block scan kernel


# (a, b, c) cells for order 64.  The scan of every pair takes the rows in
# order, and under `_blocks_of_16_rows` each row's b's two at a time: b-blocks
# 0..1, 2..3, ..., 62..63.  The first seven cases plant witnesses at rows 0,
# 1, 16, 17, 33, 36, 38, 48 and 63, which the scan must take in order; the
# last four sit at b-block edges and in one b-block of mixed gyrations, where
# the planted gyration of b = 6 sorts after that of b = 7.
BLOCK_EDGES = {
    "first row of a block": [(33, 9, 4)],
    "last row of a block": [(48, 3, 2)],
    "row after a boundary loses to the row before": [(17, 2, 3), (16, 60, 1)],
    "last row of the table": [(63, 40, 0)],
    "mixed column, the smaller row in the later run": [(38, 33, 5), (36, 33, 40)],
    "row 0 in the last column": [(1, 0, 0), (0, 63, 5)],
    "row 1 after row 0": [(1, 0, 3), (0, 1, 62)],
    "first b of a b-block": [(20, 10, 5)],
    "last b of a row's last b-block beats the next row": [(21, 63, 2), (22, 0, 0)],
    "last b of a b-block beats the next b-block": [(44, 12, 1), (44, 11, 60)],
    "mixed b-block, the smaller b in the run that sorts last": [(50, 7, 3), (50, 6, 30)],
}


def _blocks_of_16_rows(monkeypatch):
    """_BLOCK_CELLS of 16 rows at order 64: the row kernel takes two b's at a
    time, and the pair checks four rows."""
    monkeypatch.setattr(core, "_BLOCK_CELLS", 16 * 64)


@pytest.mark.parametrize("case", list(BLOCK_EDGES))
def test_block_edges_give_the_smallest_witness(case, no_thread, monkeypatch):
    _blocks_of_16_rows(monkeypatch)
    G = _planted(6, BLOCK_EDGES[case])
    assert check_left_gyroassociativity(G).witness == min(BLOCK_EDGES[case])
    _assert_triple_witnesses(G)


@functools.cache
def _class_mask(n):
    """The class minima of the order-2^n construction, as an N×N mask."""
    G = build_cyclic_gyrogroup(n)
    mask = np.zeros((G.order, G.order), dtype=bool)
    mask[tuple(zip(*ref_class_minima(G)))] = True
    return mask


@pytest.mark.parametrize("column", range(1, 64))
def test_b_range_edges_with_a_class_mask(column, monkeypatch):
    # planted at the last class minimum of one column and the first past row
    # 0 of the next: two failing pairs at neighbouring b's, in two rows or in
    # one row and one b-block; the rows are scanned in order, each over every
    # b, and the smaller pair wins
    _blocks_of_16_rows(monkeypatch)
    mask = _class_mask(6)
    late = np.flatnonzero(mask[:, column - 1])[-1]
    rows = np.flatnonzero(mask[:, column])
    early = rows[1] if len(rows) > 1 else 0
    cells = [(int(late), column - 1, 7), (int(early), column, 9)]
    assert check_left_gyroassociativity(_planted(6, cells)).witness == min(cells)


def test_mixed_column_runs_are_sorted_by_gyration(monkeypatch):
    # rows 33..48 of column 33 alternate between the construction's two
    # gyrations and carry the two planted ones, row 36's sorting after row
    # 38's; the rows are scanned in order, so row 36 gives the witness
    _blocks_of_16_rows(monkeypatch)
    G = _planted(6, BLOCK_EDGES["mixed column, the smaller row in the later run"])
    column = G.gyr_table[32:48, 33]
    assert sorted(set(column.tolist())) == [0, 1, 2, 3]
    assert column[36 - 32] > column[38 - 32]
    assert check_left_gyroassociativity(G).witness == (36, 33, 40)


@st.composite
def small_tables(draw):
    """Tables of order 2 to 16: any Cayley entries, or Z_n with a few changed;
    any gyration per pair, or the identity with a few changed."""
    n = draw(st.integers(2, 16))
    element = st.integers(0, n - 1)
    perms = [list(range(n))] + draw(st.lists(st.permutations(range(n)), max_size=3))
    gyration = st.integers(0, len(perms) - 1)
    if draw(st.booleans()):
        cayley = np.array(draw(st.lists(element, min_size=n * n, max_size=n * n)))
    else:
        cayley = cyclic_group(n).ravel()
        for cell, v in draw(st.lists(st.tuples(st.integers(0, n * n - 1), element), max_size=3)):
            cayley[cell] = v
    if draw(st.booleans()):
        gyr = np.array(draw(st.lists(gyration, min_size=n * n, max_size=n * n)))
    else:
        gyr = np.zeros(n * n, dtype=np.int64)
        for cell, k in draw(st.lists(st.tuples(st.integers(0, n * n - 1), gyration), max_size=4)):
            gyr[cell] = k
    rows = draw(st.integers(1, n))
    return FiniteGyrogroup(cayley.reshape(n, n), gyr.reshape(n, n), perms), rows


@given(small_tables())
@settings(max_examples=300, deadline=None)
def test_scan_matches_reference_on_random_small_tables(table_and_rows):
    G, rows = table_and_rows
    _assert_triple_witnesses(G)
    with pytest.MonkeyPatch.context() as patch:  # one or two b's a block
        patch.setattr(core, "_BLOCK_CELLS", rows * G.order)
        _assert_triple_witnesses(G)


def test_scan_peak_memory_at_order_512():
    # the scan holds a few block-sized temporaries and peaks near 1.9 MB with
    # the row derivation; an N×N intp index alone would add 2 MB
    G = build_cyclic_gyrogroup(9)
    gyr = np.array(G.gyr_table)
    gyr[511, 0] ^= 1
    for table in (G, FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)):
        tracemalloc.start()
        try:
            check_left_gyroassociativity(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


@pytest.mark.parametrize("cpus", [2])
def test_scan_peak_memory_without_classes_at_order_512(monkeypatch, cpus):
    # a gyration that is no automorphism keeps `verify` off the row
    # derivation, on the scan of every pair, whose row kernel holds blocks of
    # _BLOCK_CELLS // 8 cells: its peak, with the gate, is near 1.5 MB,
    # whatever the CPU count, which no scan reads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    G = _planted(9, PLANTED["row N-1"])
    assert not check_gyr_automorphisms(G).passed
    tracemalloc.start()
    try:
        result = check_left_gyroassociativity(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.witness == (511, 300, 3)
    assert peak <= 3.5e6


def test_derivation_peak_memory_at_order_512(monkeypatch):
    # the gate and the row derivation, each table's facts computed under the
    # trace, hold blocks of at most _BLOCK_CELLS // 4 cells: near 1.9 MB
    scans = _scans(monkeypatch)
    G = build_cyclic_gyrogroup(9)
    gyr = np.array(G.gyr_table)
    gyr[511, 0] ^= 1
    flipped = FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)
    for table, witness in ((G, None), (flipped, (511, 0, 1))):
        tracemalloc.start()
        try:
            result = check_left_gyroassociativity(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scans.pop() == "first_violation"
        assert result.witness == witness
        assert peak <= 2.5e6


def test_no_triple_scan_holds_a_second_cayley_table():
    # the scans read the Cayley table in its own narrow type and copy none
    # of it: with the gate's facts computed first, each peaks below the
    # table's own 2 MiB at order 1024, which any copy of it would add
    G = build_cyclic_gyrogroup(10)
    assert core._derivable(G) and core._identity_gyration(G) == 0
    for scan in (core._derived_violation, lambda G: check_left_gyroassociativity(G).witness):
        tracemalloc.start()
        try:
            witness = scan(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness is None
        assert peak < G.cayley.nbytes == 2 * 2**20


@pytest.mark.parametrize("scan", [
    lambda G: _rows.first_violation(G, core._gyroassoc_rows, False, G.order),
    core._derived_violation,
], ids=["all pairs", "derivation"])
def test_witness_in_row_0_is_found_in_the_first_rows(scan, no_thread, monkeypatch):
    # row 0 goes first, so a witness in row 0 and a late column ends the
    # scan after it
    G = build_cyclic_gyrogroup(9)
    gyr = np.array(G.gyr_table)
    gyr[0, 500] ^= 1
    G = FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)
    counted = _counting_laws(monkeypatch)
    assert scan(G) == (0, 500, 1)
    assert sum(counted) == G.order**2


@pytest.mark.parametrize("k", [1, 37, 63])
def test_scan_of_every_pair_goes_row_by_row(k, monkeypatch):
    # on a table whose rows may not be derived, the row driver runs the row
    # kernel on rows 0, 1, ..., k in order, each over every b, and stops at
    # the row holding the witness
    G = _planted(6, [(k, 20, 5)])
    assert not check_gyr_automorphisms(G).passed
    calls = []
    row_violation = _rows._row_violation  # the name the driver looks up

    def spy(G, holds, a, lo=0, hi=None):
        calls.append((a, lo, G.order if hi is None else hi))
        return row_violation(G, holds, a, lo, hi)

    monkeypatch.setattr(_rows, "_row_violation", spy)
    for scan, reference in ((lambda G: check_left_gyroassociativity(G).witness,
                             ref_gyroassoc_witness),
                            (lambda G: core._first_gyrator_violation(G, G.left_inverse_map()),
                             ref_gyrator_witness)):
        calls.clear()
        assert scan(G) == reference(G) == (k, 20, 5)
        assert calls == [(a, 0, 64) for a in range(k + 1)]


def test_gyrocommutative(g3, z8, dih8):
    assert check_gyrocommutative(g3).passed
    assert check_gyrocommutative(z8).passed
    result = check_gyrocommutative(dih8)
    assert not result.passed
    assert witness_confirms(dih8, result)


# --------------------------------------------------------------------- verify


def test_verify_all_pass(g4, z8):
    for G in (g4, z8):
        report = verify(G)
        assert report.passed and not report.sampled
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert verify(z8).gyrocommutative


def test_verify_random_latin_square_fails_gyroassociativity():
    rng = np.random.default_rng(11)
    table = cyclic_group(8)[rng.permutation(8)]
    G = FiniteGyrogroup.from_group(table)
    report = verify(G)
    result = report.check("left_gyroassociativity")
    assert not result.passed
    assert witness_confirms(G, result)


def test_verify_runs_every_check_without_short_circuit():
    constant = FiniteGyrogroup([[j for j in range(4)] for _ in range(4)])
    report = verify(constant)
    assert len(report.checks) == len(CHECK_NAMES)
    assert not report.passed
    for result in report.failures():
        assert witness_confirms(constant, result)


def test_verify_full_for_n3_to_n8():
    for n in range(3, 9):
        report = verify(build_cyclic_gyrogroup(n))
        assert report.passed and not report.sampled, f"n={n}"


def test_verify_full_at_order_512():
    report = verify(build_cyclic_gyrogroup(9))
    assert report.passed and not report.sampled


def test_verify_flipped_gyration_at_order_512():
    G = build_cyclic_gyrogroup(9)
    gyr = np.array(G.gyr_table)
    gyr[511, 0] ^= 1
    report = verify(FiniteGyrogroup(G.cayley, gyr, G.perm_matrix))
    assert {c.name: c.witness for c in report.failures()} == {
        "left_gyroassociativity": (511, 0, 1),
        "gyrator_identity": (511, 0, 1),
        "gyrocommutativity": (511, 0),
    }


def test_verify_sampled_above_limit():
    G = build_cyclic_gyrogroup(10)
    report = verify(G, sample_size=100_000)
    assert report.passed
    assert report.sampled and report.seed is not None and report.sample_size == 100_000
    assert all(not c.note for c in report.checks)
    # without its gyrations the construction passes the derivation's gate,
    # which gives the smallest witness, and nothing is drawn
    suppressed = FiniteGyrogroup(G.cayley)
    report = verify(suppressed, sample_size=100_000)
    result = report.check("left_gyroassociativity")
    assert report.sampled and result.witness == (1, 512, 1) and not result.note
    assert witness_confirms(suppressed, result)


@pytest.mark.parametrize("size", [0, -1])
def test_verify_rejects_a_sample_of_no_triples(size, monkeypatch):
    # an empty sample draws nothing, so it would pass every law given to it;
    # the zeros table fails the gyrator identity within a thousand draws
    G = FiniteGyrogroup(np.zeros((64, 64), dtype=np.int32))
    assert not verify(G, exhaustive_limit=32, sample_size=1000).check("gyrator_identity").passed
    calls = []
    translations = core._translations
    monkeypatch.setattr(core, "_translations", lambda *args: calls.append(args) or translations(*args))
    with pytest.raises(ValueError, match=f"sample_size must be at least 1, got {size}"):
        verify(G, exhaustive_limit=32, sample_size=size)
    assert calls == []


@pytest.fixture
def sample_chunks(monkeypatch):
    """Each chunk the sampled scan draws, in drawing order: every generator
    `np.random.default_rng` makes records what its `integers` returns."""
    chunks = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            abc = self.rng.integers(*args, **kwargs)
            chunks.append(abc)
            return abc

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return chunks


def test_sampled_scan_stops_once_no_witness_can_follow(sample_chunks):
    # with column 3 constant, 3 has no left inverse, so the gyrator identity is
    # undefined and the scan is done once the associativity witness is found
    G = build_cyclic_gyrogroup(5)
    cayley = G.cayley.copy()
    cayley[:, 3] = 3
    broken = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
    report = verify(broken, exhaustive_limit=16, sample_size=4 << 20)
    assert report.sampled
    assoc = report.check("left_gyroassociativity")
    assert not assoc.passed and witness_confirms(broken, assoc)
    assert report.check("gyrator_identity").witness == (3,)
    assert len(sample_chunks) == 1


# -------------------------------------------------------------- sampled scan


SAMPLE = 1 << 20  # 32 chunks
TRIPLE_LAWS = ["left_gyroassociativity", "gyrator_identity"]


def _broken_cayley(x, y):
    """The order-1024 construction with cayley[x, y] set to cayley[x, y+1],
    which keeps every left inverse and breaks left cancellation."""
    G = build_cyclic_gyrogroup(10)
    cayley = G.cayley.copy()
    cayley[x, y] = cayley[x, y + 1]
    return FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)


def _suppressed_with_a_swap():
    """The order-1024 construction without its gyrations, but for gyr[1023,
    1023], the swap of 1 and 2: no automorphism, so the row derivation leaves
    the table to the sample."""
    G = build_cyclic_gyrogroup(10)
    swap = np.arange(G.order)
    swap[[1, 2]] = [2, 1]
    gyr = np.zeros((G.order, G.order), dtype=int)
    gyr[-1, -1] = 1
    return FiniteGyrogroup(G.cayley, gyr, (np.arange(G.order), swap))


# each case with the eighth of the sample, 2^17 draws, that holds the first
# failing draw of left gyroassociativity and of the gyrator identity
SAMPLED = {
    "first failure in chunk 0": (_suppressed_with_a_swap, (0, 0)),
    # draw 1,000,000 is (517, 436, 15)
    "first failure in the last chunk": (lambda: _planted(10, [(517, 436, 15)]), (7, 7)),
    "gyrator fails a chunk before gyroassociativity": (lambda: _broken_cayley(7, 100), (2, 0)),
    "no left cancellation": (lambda: _broken_cayley(3, 5), (0, 2)),
    "passing": (lambda: build_cyclic_gyrogroup(10), (None, None)),
}


@functools.cache
def _sampled_case(case):
    make, chunks = SAMPLED[case]
    G = make()
    reference = ref_sampled_witnesses(G, core.SAMPLE_SEED, SAMPLE)
    assert [None if r is None else r[0] >> 17 for r in reference] == list(chunks)
    return G, reference


@pytest.mark.parametrize("no_thread", [1, 2, 3, 6, 8], indirect=True,
                         ids=["1 cpu", "2 cpus", "3 cpus", "6 cpus", "8 cpus"])
@pytest.mark.parametrize("case", list(SAMPLED))
def test_sampled_witnesses_match_reference(case, no_thread):
    G, reference = _sampled_case(case)
    report = verify(G, sample_size=SAMPLE)
    assert report.sampled
    for name, expected in zip(("left_gyroassociativity", "gyrator_identity"), reference):
        result = report.check(name)
        assert result.witness == (None if expected is None else expected[1])
        assert result.passed == (expected is None)


def _cyclic_with_swaps(N, cells):
    """Z_N with the gyration at each (a, b) of ``cells`` the swap of 1 and 2."""
    swap = np.arange(N)
    swap[[1, 2]] = [2, 1]
    gyr = np.zeros((N, N), dtype=int)
    for a, b in cells:
        gyr[a, b] = 1
    return FiniteGyrogroup(cyclic_group(N), gyr, (np.arange(N), swap))


# orders that are no power of two, where numpy's bounded draws can reject;
# each case with the first failing draw of both laws, past the first chunk
UNEVEN = {
    48: (lambda: _cyclic_with_swaps(48, [(47, 47)]), 221_036),
    384: (lambda: _cyclic_with_swaps(384, [(200, b) for b in range(384)]), 109_653),
}


@pytest.mark.parametrize("no_thread", [1, 2, 8], indirect=True,
                         ids=["1 cpu", "2 cpus", "8 cpus"])
@pytest.mark.parametrize("order", list(UNEVEN))
def test_sampled_witnesses_match_reference_at_other_orders(order, no_thread):
    make, draw = UNEVEN[order]
    G = make()
    reference = ref_sampled_witnesses(G, core.SAMPLE_SEED, SAMPLE)
    assert [r[0] for r in reference] == [draw, draw]
    report = verify(G, exhaustive_limit=16, sample_size=SAMPLE)
    assert report.sampled
    for name, expected in zip(("left_gyroassociativity", "gyrator_identity"), reference):
        assert report.check(name).witness == expected[1]


def _zeros(N):
    """x ⊕ y = 0: left gyroassociativity holds at every triple and the
    gyrator identity fails at the first draw with c ≠ 0, so a sampled scan
    draws the whole sample; no row is a permutation, so nothing is proved."""
    return FiniteGyrogroup(np.zeros((N, N), dtype=np.int32))


@pytest.mark.parametrize("chunk", [7, 4096, 21845])
@pytest.mark.parametrize("order", [2, 32, 1024, 48, 1000])
def test_chunked_draws_are_the_one_shot_sample(order, chunk, sample_chunks, monkeypatch):
    # chunks of one generator, the last one short, and int32 where the
    # one-shot sample is int64; orders that are no power of two can reject
    monkeypatch.setattr(core, "_SAMPLE_CHUNK", chunk)
    size = 3 * chunk + 5
    drawn = core._sampled_triples(_zeros(order), core.SAMPLE_SEED, size, TRIPLE_LAWS)
    assert drawn["left_gyroassociativity"].passed and not drawn["gyrator_identity"].passed
    assert [len(abc) for abc in sample_chunks] == [chunk] * 3 + [5]
    one_shot = np.random.Generator(np.random.PCG64(core.SAMPLE_SEED))
    assert (np.concatenate(sample_chunks) == one_shot.integers(0, order, size=(size, 3))).all()


def test_sampled_scan_draws_no_chunk_after_a_failing_one(no_thread, sample_chunks):
    # the one law drawn (the table has left cancellation) fails in the
    # first chunk, so no other is drawn
    G, (assoc_reference, _) = _sampled_case("first failure in chunk 0")
    report = verify(G, sample_size=SAMPLE)
    assert report.check("left_gyroassociativity").witness == assoc_reference[1]
    assert [abc.shape for abc in sample_chunks] == [(core._SAMPLE_CHUNK, 3)]


def test_passing_construction_draws_no_sample_at_order_1024(monkeypatch):
    # the row derivation proves both laws, scanning rows 0, 1 and 512
    # directly, so nothing is drawn, and the triple laws carry no note
    def no_sample(seed):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_sample)
    counted = _counting_laws(monkeypatch)
    checks = tuple(core.CheckResult(name, True) for name in CHECK_NAMES)
    assert verify(build_cyclic_gyrogroup(10)) == core.VerificationReport(
        checks, sampled=True, seed=core.SAMPLE_SEED, sample_size=core.SAMPLE_SIZE
    )
    assert sum(counted) == 3 * 1024**2


def test_derived_witness_above_the_limit_draws_no_sample(sample_chunks):
    # the failing triples of the flipped order-512 table, (511, 0, c) for odd
    # c, are 2^-19 of all triples, so a sample of 100,000 draws misses them;
    # the row derivation decides both laws with the smallest witness
    G = build_cyclic_gyrogroup(9)
    gyr = np.array(G.gyr_table)
    gyr[511, 0] ^= 1
    report = verify(FiniteGyrogroup(G.cayley, gyr, G.perm_matrix), exhaustive_limit=256,
                    sample_size=100_000)
    assert report.sampled
    for name in ("left_gyroassociativity", "gyrator_identity"):
        assert report.check(name) == core.CheckResult(name, False, (511, 0, 1))
    assert not sample_chunks


def test_above_the_limit_a_table_the_gate_fails_scans_no_row(monkeypatch, sample_chunks):
    # a gyration that is no automorphism keeps the rows from being derived,
    # so above the limit left gyroassociativity goes straight to the sample
    scanned = _scanned_rows(monkeypatch)
    G = _planted(6, [(37, 20, 5)])
    assert not core._derivable(G)
    report = verify(G, exhaustive_limit=32, sample_size=1000)
    assert not scanned and sample_chunks
    assert report.check("left_gyroassociativity").note == "sampled"


def test_z2_power_is_proved_at_its_budget_of_direct_rows(monkeypatch, sample_chunks):
    # each row scanned directly doubles the rows derived: rows 0, 1, 2, 4, 8
    # and 16, 6 = (32).bit_length(), each of 32² triples
    table = cyclic_group(2)
    for _ in range(4):
        table = direct_product(table, cyclic_group(2))
    counted = _counting_laws(monkeypatch)
    report = verify(FiniteGyrogroup.from_group(table), exhaustive_limit=16)
    assert report.passed and report.sampled
    assert counted == [32**2] * 6
    assert not sample_chunks


def test_gyrogroups_are_proved_within_their_budget():
    # each row scanned directly at least doubles the subgyrogroup of derived
    # rows (Lagrange), so N.bit_length() rows suffice at any order
    tables = [build_cyclic_gyrogroup(n) for n in range(3, 9)]
    z2e6 = cyclic_group(2)
    for _ in range(5):
        z2e6 = direct_product(z2e6, cyclic_group(2))
    for table in (cyclic_group(48), cyclic_group(97), dihedral_group(12), z2e6):
        tables.append(FiniteGyrogroup.from_group(table))
    for G in tables:
        assert core._derived_violation(G) is None, G


def test_a_budget_below_the_rows_needed_runs_the_sample(monkeypatch, sample_chunks):
    # the order-32 construction needs rows 0, 1 and 16 scanned directly, so
    # with two it is left to the sample, which reports the same outcomes,
    # noted "sampled"; without its gyrations, row 1, the second scanned,
    # fails, so both budgets give the derived witness and draw nothing
    def outcomes(report):
        return [(c.name, c.passed, c.witness) for c in report.checks]

    first_violation = _rows.first_violation
    reports = {}
    for budget in ("bit length", 2):
        if budget == 2:
            monkeypatch.setattr(_rows, "first_violation",
                                lambda G, holds, derive, _: first_violation(G, holds, derive, 2))
        for table in ("passing", "suppressed"):
            G = build_cyclic_gyrogroup(5)
            G = G if table == "passing" else FiniteGyrogroup(G.cayley)
            sample_chunks.clear()
            reports[budget, table] = verify(G, exhaustive_limit=16, sample_size=10_000)
            assert bool(sample_chunks) == (table == "passing" and budget == 2)
    assert outcomes(reports["bit length", "passing"]) == outcomes(reports[2, "passing"])
    assert reports["bit length", "passing"].passed
    assert reports[2, "passing"].check("left_gyroassociativity").note == "sampled"
    assert reports["bit length", "suppressed"] == reports[2, "suppressed"]
    assoc = reports[2, "suppressed"].check("left_gyroassociativity")
    assert assoc.witness == (1, 16, 1) and not assoc.note


@pytest.mark.parametrize("no_thread", [2], indirect=True, ids=["2 cpus"])
def test_sampled_scan_peak_memory_at_order_1024(no_thread):
    # the whole sample is drawn one _SAMPLE_CHUNK at a time in the calling
    # thread; the table's facts are computed first
    G = _zeros(1024)
    assert core._derived_violation(G) == () and G.left_inverse_map() is not None
    tracemalloc.start()
    try:
        drawn = core._sampled_triples(G, core.SAMPLE_SEED, SAMPLE, TRIPLE_LAWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn["left_gyroassociativity"].passed and not drawn["gyrator_identity"].passed
    assert peak <= 6.0e6


# ------------------------------------------------------------- derived laws


def test_right_identity_and_two_sided_inverse():
    for n in (3, 4, 5, 6):
        G = build_cyclic_gyrogroup(n)
        assert np.array_equal(G.cayley[:, 0], np.arange(G.order))
        for x in range(G.order):
            inv = inverse_of(G, x)
            assert G.oplus(inv, x) == 0 and G.oplus(x, inv) == 0


def test_right_loop_property_is_a_consequence(g3, g4, z8, dih8):
    # gyr[a, b] = gyr[a, b⊕a] holds on everything that passes the axioms
    for G in (g3, g4, z8, dih8):
        for a in range(G.order):
            for b in range(G.order):
                assert G.gyr_index(a, b) == G.gyr_index(a, G.oplus(b, a))


def test_gyrator_identity_holds_whenever_axioms_do(g3, g4, z8, z4xz2, dih8):
    for G in (g3, g4, z8, z4xz2, dih8):
        assert check_gyrator_identity(G).passed


def test_scalar_lookups_reject_elements_out_of_range(g3):
    # a negative index used to read the last row or column silently
    for lookup in (g3.oplus, g3.gyr_index, g3.gyration):
        for a, b, bad in ((-1, 0, -1), (0, -1, -1), (8, 0, 8), (3, 8, 8)):
            with pytest.raises(ValueError, match=re.escape(f"element {bad} out of range 0..7")):
                lookup(a, b)


def test_constructor_checks_image_rows_in_one_pass():
    z2, gyr = [[0, 1], [1, 0]], [[0, 0], [0, 0]]
    with pytest.raises(GyrogroupDataError, match=re.escape("permutation degree 1 != order 2")):
        FiniteGyrogroup(z2, gyr, [(0, 1), (0,)])
    with pytest.raises(GyrogroupDataError, match=re.escape("not a bijection on 0..1: (1, 1)")):
        FiniteGyrogroup(z2, gyr, [(0, 1), (1, 1)])
    with pytest.raises(GyrogroupDataError, match="undefined permutation"):
        FiniteGyrogroup(z2, gyr, [])
    # a Permutation is an array-like of its images, and perms is built once
    G = FiniteGyrogroup(z2, [[0, 1], [1, 0]], [Permutation((1, 0)), np.arange(2)])
    assert G.perm_matrix.tolist() == [[1, 0], [0, 1]]
    assert G.perms is G.perms and G.gyration(0, 1) is G.perms[1]


def test_constructor_rejects_entries_that_are_not_whole_numbers():
    # such entries were truncated (1.7 read as 1), or overflowed int64
    z2, gyr = [[0, 1], [1, 0]], [[0, 0], [0, 0]]
    cases = [
        (([[0, 1.7], [1, 0]],), "cayley entry not an integer at (0, 1): 1.7"),
        (([[0, 1], [float("nan"), 0]],), "cayley entry not an integer at (1, 0): nan"),
        ((z2, [[0, 0], [0.9, 0]], [(0, 1)]), "gyration entry not an integer at (1, 0): 0.9"),
        ((z2, gyr, [(0, 1), (1.5, 0)]), "permutation entry not an integer at (1, 0): 1.5"),
        ((np.array([[0, 1], [1, 0]], dtype=object),), None),
        (([[0, 2**63], [1, 0]],), "cayley entry out of range at (0, 1)"),
        (([[0, 1], [2**64, 0]],), "cayley entry out of range at (1, 0): 18446744073709551616"),
        ((z2, [[0, 2**64], [0, 0]], [(0, 1)]), "gyration table references an undefined"),
        ((z2, gyr, [(0, 2**64)]), "not a bijection on 0..1: (0, 18446744073709551616)"),
        (([["0", "1"], ["1", "0"]],), "cayley entry not an integer at (0, 0): 0"),
    ]
    for args, message in cases:
        if message is None:
            assert FiniteGyrogroup(*args).cayley.tolist() == z2
            continue
        with pytest.raises(GyrogroupDataError, match=re.escape(message)):
            FiniteGyrogroup(*args)
    # whole-number floats are read as the integers they are
    G = FiniteGyrogroup([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                        [(0.0, 1.0), (1.0, 0.0)])
    assert G.cayley.dtype == np.uint8 and G.cayley.tolist() == z2
    assert G.gyr_table.tolist() == [[0, 0], [0, 1]]
    assert G.perm_matrix.tolist() == [[0, 1], [1, 0]]


def test_builders_hand_their_tables_over_and_the_constructor_copies():
    # build_cyclic_gyrogroup and load_tables give the instance the arrays
    # they built, read-only; the public constructor copies even those
    G = build_cyclic_gyrogroup(4)
    H = load_tables(emit_tables(G, "csv"))
    for built in (G, H):
        assert not built.cayley.flags.writeable and not built.gyr_table.flags.writeable
        copy = FiniteGyrogroup(built.cayley, built.gyr_table, built.perm_matrix)
        assert not np.shares_memory(copy.cayley, built.cayley)
        assert not np.shares_memory(copy.gyr_table, built.gyr_table)


def test_verify_group_of_order_128_with_one_gyration():
    # a one-row permutation list of 128 cells once took int8 flat indices,
    # whose multiplier 128 overflowed in the gyrocommutativity check
    G = FiniteGyrogroup.from_group(cyclic_group(128))
    assert len(G.perm_matrix) == 1
    assert verify(G).passed


def test_constructor_keeps_narrow_tables_narrow_and_its_own(monkeypatch):
    # a uint8 or uint16 table is range-checked as it stands and copied once
    G = build_cyclic_gyrogroup(4)
    cayley, gyr = G.cayley.copy(), G.gyr_table.copy()
    H = FiniteGyrogroup(cayley, gyr, G.perm_matrix)
    cayley[0, 0] = gyr[0, 0] = 1
    assert H.cayley[0, 0] == 0 and H.gyr_table[0, 0] == 0
    assert not H.cayley.flags.writeable and not H.gyr_table.flags.writeable
    # a repeated image row is renumbered to its first occurrence, in blocks
    # of 3 rows and a last block of one
    monkeypatch.setattr(core, "_BLOCK_CELLS", 48)
    identity, shift = G.perm_matrix
    H = FiniteGyrogroup(G.cayley, np.where(G.gyr_table == 1, 2, 1).astype(np.uint8),
                        [shift, identity, shift])
    assert H.gyr_table.dtype == np.uint16
    assert np.array_equal(H.gyr_table, 1 - G.gyr_table)
    assert H.perm_matrix.tolist() == [shift.tolist(), identity.tolist()]
