import itertools
import os
import re

import numpy as np
import pytest

from gyrogroups import core
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
    inverse_of,
    verify,
)

from formats_reference import ref_left_translations, ref_right_translations
from triple_reference import ref_gyrator_witness, ref_gyroassoc_witness
from witness_checks import witness_confirms


# ---------------------------------------------------------------- Permutation


def test_permutation_validation():
    with pytest.raises(GyrogroupDataError):
        Permutation((0, 0, 2))
    with pytest.raises(GyrogroupDataError):
        Permutation((1, 2, 3))


def test_permutation_compose_applies_right_first():
    p = Permutation((1, 2, 0))  # 0->1->2->0
    q = Permutation((0, 2, 1))  # swap 1, 2
    assert p.compose(q).images == tuple(p(q(x)) for x in range(3))
    assert p.compose(p.inverse()).is_identity
    assert p.order() == 3
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


TRIPLE_CASES = {
    "n3 cayley mutations": (lambda: _cayley_mutations(3), False),
    "n3 gyration flips": (lambda: _gyration_flips(3), True),
    "n4 gyration flips": (lambda: _gyration_flips(4), True),
    "order 16, random gyrations": (lambda: map(_random_gyrations, range(8)), True),
    "constant table": (lambda: [FiniteGyrogroup([list(range(4))] * 4)], False),
}


@pytest.mark.parametrize("case", list(TRIPLE_CASES))
def test_triple_witnesses_match_reference(case):
    tables, cancels = TRIPLE_CASES[case]
    for G in tables():
        # with left cancellation the gyrator identity takes the shortcut,
        # otherwise its own row scan
        assert core._left_cancellation_holds(G) == cancels
        assoc = check_left_gyroassociativity(G)
        gyrator = check_gyrator_identity(G)
        assert assoc.witness == ref_gyroassoc_witness(G)
        assert gyrator.witness == ref_gyrator_witness(G)
        assert assoc.passed == (assoc.witness is None)
        assert gyrator.passed == (gyrator.witness is None)


def test_verify_scans_the_triples_once_with_left_cancellation(monkeypatch):
    counted = []
    for name in ("_gyroassoc_holds", "_gyrator_holds"):
        law = getattr(core, name)

        def counting(*args, law=law):
            ok = law(*args)
            counted.append(ok.size)
            return ok

        monkeypatch.setattr(core, name, counting)
    G = build_cyclic_gyrogroup(5)
    assert verify(G).passed
    assert sum(counted) == G.order**3


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


@pytest.mark.skipif(not os.environ.get("GYRO_SLOW"), reason="set GYRO_SLOW=1 to run")
def test_verify_full_at_order_512():
    report = verify(build_cyclic_gyrogroup(9))
    assert report.passed and not report.sampled


@pytest.mark.skipif(not os.environ.get("GYRO_SLOW"), reason="set GYRO_SLOW=1 to run")
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
    suppressed = FiniteGyrogroup(G.cayley)
    report = verify(suppressed, sample_size=100_000)
    result = report.check("left_gyroassociativity")
    assert report.sampled and not result.passed and result.note == "sampled"
    assert witness_confirms(suppressed, result)


def test_sampled_scan_stops_once_no_witness_can_follow(monkeypatch):
    # with column 3 constant, 3 has no left inverse, so the gyrator identity is
    # undefined and the scan is done once the associativity witness is found
    G = build_cyclic_gyrogroup(5)
    cayley = G.cayley.copy()
    cayley[:, 3] = 3
    broken = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
    chunks = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            chunks.append(kwargs.get("size"))
            return self._rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    report = verify(broken, exhaustive_limit=16, sample_size=4 << 20)
    assert report.sampled
    assoc = report.check("left_gyroassociativity")
    assert not assoc.passed and witness_confirms(broken, assoc)
    assert report.check("gyrator_identity").witness == (3,)
    assert len(chunks) == 1


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
