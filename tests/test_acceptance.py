"""Acceptance suite: every criterion is exact and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import functools
import random

import numpy as np

from gyrogroups import (
    FiniteGyrogroup,
    build_cyclic_gyrogroup,
    check_left_gyroassociativity,
    classify_subgyrogroups,
    cyclic_group,
    direct_product,
    emit_tables,
    enumerate_subgyrogroups,
    gyroautomorphism_group,
    gyroholomorph,
    half_shift_permutation,
    holomorph_structure_matches,
    isomorphic,
    load_tables,
    verify,
)
from gyrogroups.construct import CyclicParams

import reference_tables as ref
from witness_checks import witness_confirms

MUTATION_SEED = 0x47A1


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "table reproduction")
def test_tables_reproduced_exactly():
    G3 = build_cyclic_gyrogroup(3)
    assert np.array_equal(G3.cayley, np.asarray(ref.CAYLEY_8))
    assert np.array_equal(G3.gyr_table, np.asarray(ref.GYRATION_8))
    assert G3.perms[0].is_identity and G3.perms[1].images == ref.HALF_SHIFT_8
    assert G3.perms[1].cycle_string() == "(1 3)(5 7)"

    G4 = build_cyclic_gyrogroup(4)
    assert np.array_equal(G4.cayley, np.asarray(ref.CAYLEY_16))
    assert np.array_equal(G4.gyr_table, np.asarray(ref.GYRATION_16))
    assert G4.perms[1].images == ref.HALF_SHIFT_16
    assert G4.perms[1].cycle_string() == "(1 5)(3 7)(9 13)(11 15)"

    # the emitted document carries the same entries
    reloaded = load_tables(emit_tables(G4, "csv"))
    assert np.array_equal(reloaded.cayley, np.asarray(ref.CAYLEY_16))
    assert np.array_equal(reloaded.gyr_table, np.asarray(ref.GYRATION_16))


@criterion(2, "axiom suite n=3..8, full triple scans")
def test_axiom_suite_passes():
    for n in range(3, 9):
        report = verify(build_cyclic_gyrogroup(n))
        assert not report.sampled, f"n={n} unexpectedly sampled"
        for check in report.checks:
            assert check.passed, f"n={n}: {check.name} failed at {check.witness}"
        assert report.gyrocommutative


@criterion(3, "non-associativity witness when gyrations are suppressed")
def test_non_associativity_witness():
    G = build_cyclic_gyrogroup(3)
    assert G.oplus(G.oplus(4, 1), 1) == 4
    assert G.oplus(4, G.oplus(1, 1)) == 6
    suppressed = FiniteGyrogroup(G.cayley)
    result = check_left_gyroassociativity(suppressed)
    assert not result.passed and result.witness is not None
    assert witness_confirms(suppressed, result)


@criterion(4, "subgyrogroup counts and closed-form classification")
def test_subgyrogroup_enumeration_and_classification():
    expected_counts = {3: 8, 4: 11}
    for n in (3, 4, 5, 6):
        G = build_cyclic_gyrogroup(n)
        lattice = enumerate_subgyrogroups(G)
        classified = classify_subgyrogroups(n)
        enum_sets = {node.elements for node in lattice.nodes}
        assert enum_sets == {node.elements for node in classified}
        if n in expected_counts:
            assert len(lattice.nodes) == expected_counts[n]
        for node in lattice.nodes:
            assert node.is_group == (node.order < G.order)


@criterion(5, "gyroautomorphism group of order 2")
def test_gyroautomorphism_group_order_two():
    for n in range(3, 9):
        gamma = gyroautomorphism_group(build_cyclic_gyrogroup(n))
        assert len(gamma) == 2
        assert gamma[0].tolist() == list(range(2**n))
        assert gamma[1].tolist() == list(half_shift_permutation(CyclicParams(n)).images)
        # order 2: the half-shift is no identity, but its square is
        assert gamma[1].tolist() != gamma[0].tolist()
        assert gamma[1][gamma[1]].tolist() == gamma[0].tolist()


@criterion(6, "gyroholomorph is a group of order 32 matching one structure")
def test_gyroholomorph_identification():
    hol = gyroholomorph(build_cyclic_gyrogroup(4))  # raises if axioms fail
    assert hol.order == 32
    assert not hol.invariants.abelian
    assert hol.element_order_multiset == ((1, 1), (2, 7), (4, 8), (8, 16))
    assert hol.invariants.center_size == 8
    assert hol.invariants.derived_size == 2
    matches = holomorph_structure_matches(hol)
    assert len(matches) == 1
    assert matches[0][0] == "Z2 x (Z8 : Z2, x -> 5x) [modular action]"


@criterion(7, "100 seeded single-entry mutations are all detected")
def test_seeded_mutations_detected():
    G = build_cyclic_gyrogroup(3)
    rng = random.Random(MUTATION_SEED)
    for trial in range(100):
        a, b = rng.randrange(8), rng.randrange(8)
        if trial % 2 == 0:
            cayley = np.array(G.cayley)
            v = rng.randrange(7)
            if v >= cayley[a, b]:
                v += 1  # guarantee an actual change
            cayley[a, b] = v
            mutated = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
        else:
            gyr = np.array(G.gyr_table)
            gyr[a, b] ^= 1
            mutated = FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)
        report = verify(mutated)
        assert not report.passed, f"trial {trial}: mutation at ({a},{b}) undetected"
        for result in report.failures():
            assert witness_confirms(mutated, result), f"trial {trial}: {result}"


@criterion(8, "emit -> load -> emit is byte-identical")
def test_roundtrip_byte_identity():
    for n in (3, 4, 5, 6):
        doc = emit_tables(build_cyclic_gyrogroup(n), "csv")
        assert emit_tables(load_tables(doc), "csv") == doc


@criterion(9, "isomorphism sanity")
def test_isomorphism_sanity():
    G3 = build_cyclic_gyrogroup(3)
    phi = isomorphic(G3, G3)
    assert phi is not None
    for a in range(8):
        for b in range(8):
            assert phi(G3.oplus(a, b)) == G3.oplus(phi(a), phi(b))
    z8 = FiniteGyrogroup.from_group(cyclic_group(8))
    z4xz2 = FiniteGyrogroup.from_group(direct_product(cyclic_group(4), cyclic_group(2)))
    z2cubed = FiniteGyrogroup.from_group(
        direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
    )
    assert isomorphic(G3, z8) is None
    assert isomorphic(G3, z4xz2) is None
    assert isomorphic(G3, z2cubed) is None
