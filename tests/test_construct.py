import numpy as np
import pytest

from gyrogroups import (
    CyclicParams,
    build_cyclic_gyrogroup,
    gyration_selector,
    half_shift,
    half_shift_permutation,
    inverse_element,
    inverse_of,
    oplus,
)

import reference_tables as ref
from test_formats import traced_peak_mib
from construct_reference import (
    ParityClass,
    classify,
    ref_gyration_selector,
    ref_half_shift,
    ref_inverse_element,
    ref_oplus,
    residues,
)


def test_params_reject_small_n():
    with pytest.raises(ValueError, match="n >= 3"):
        CyclicParams(2)
    with pytest.raises(ValueError, match="n >= 3"):
        build_cyclic_gyrogroup(2)


def test_params_sizes():
    p = CyclicParams(4)
    assert (p.m, p.order, p.half) == (8, 16, 4)
    assert p.half % 2 == 0


def test_build_rejects_above_cap():
    with pytest.raises(ValueError, match="cap"):
        build_cyclic_gyrogroup(13)
    with pytest.raises(ValueError, match="cap"):
        build_cyclic_gyrogroup(5, max_n=4)
    assert build_cyclic_gyrogroup(5, max_n=5).order == 32


def test_classify_examples():
    p3 = CyclicParams(3)
    assert classify(p3, 0) is ParityClass.EVEN_LOW
    assert classify(p3, 5) is ParityClass.ODD_HIGH
    assert classify(CyclicParams(4), 10) is ParityClass.EVEN_HIGH
    with pytest.raises(ValueError):
        classify(p3, 8)


def test_classify_partitions_by_half_and_parity():
    for n in (3, 4, 5):
        p = CyclicParams(n)
        for i in range(p.order):
            cls = classify(p, i)
            assert cls.is_high == (i >= p.m)
            assert cls.is_odd == (i % 2 == 1)


def test_residue_invariants():
    p = CyclicParams(4)
    for i in range(p.order):
        for j in range(p.order):
            res = residues(p, i, j)
            assert 0 <= res.t < p.m and 0 <= res.s < p.m and 0 <= res.r < p.m
            assert (res.t - i - j) % p.m == 0
            assert (res.s - i - j - p.half) % p.m == 0
            assert (res.r - i - p.half) % p.m == 0


def test_oplus_examples():
    p3 = CyclicParams(3)
    assert oplus(p3, 4, 1) == 7
    assert all(oplus(p3, 0, j) == j for j in range(8))
    assert oplus(p3, 5, 7) == 0
    assert oplus(CyclicParams(4), 8, 13) == 1
    with pytest.raises(ValueError):
        oplus(p3, 0, 8)


def test_tables_match_reference_order_8():
    G = build_cyclic_gyrogroup(3)
    assert np.array_equal(G.cayley, np.asarray(ref.CAYLEY_8))
    assert np.array_equal(G.gyr_table, np.asarray(ref.GYRATION_8))
    assert G.perms[0].is_identity
    assert G.perms[1].images == ref.HALF_SHIFT_8


def test_tables_match_reference_order_16():
    G = build_cyclic_gyrogroup(4)
    assert np.array_equal(G.cayley, np.asarray(ref.CAYLEY_16))
    assert np.array_equal(G.gyr_table, np.asarray(ref.GYRATION_16))
    assert G.perms[1].images == ref.HALF_SHIFT_16


def test_grid_matches_scalar_operation():
    # the four-case rule, on ints, on index arrays and as built tables, agrees
    # with the case-by-case reference in construct_reference
    for n in range(3, 9):
        p = CyclicParams(n)
        G = build_cyclic_gyrogroup(n)
        idx = np.arange(p.order)
        pairs = [(i, j) for i in range(p.order) for j in range(p.order)]
        want_oplus = np.array([ref_oplus(p, i, j) for i, j in pairs]).reshape(G.cayley.shape)
        want_selector = np.array([ref_gyration_selector(p, i, j) for i, j in pairs]).reshape(
            G.cayley.shape
        )
        want_shift = [ref_half_shift(p, i) for i in range(p.order)]
        want_inverse = [ref_inverse_element(p, i) for i in range(p.order)]

        assert np.array_equal(G.cayley, want_oplus)
        assert np.array_equal(G.gyr_table != 0, want_selector)
        assert np.array_equal(oplus(p, idx[:, None], idx[None, :]), want_oplus)
        assert np.array_equal(gyration_selector(p, idx[:, None], idx[None, :]), want_selector)
        assert half_shift(p, idx).tolist() == want_shift
        assert inverse_element(p, idx).tolist() == want_inverse

        got = [oplus(p, i, j) for i, j in pairs]
        assert got == want_oplus.ravel().tolist()
        assert all(type(v) is int for v in got)
        got = [gyration_selector(p, i, j) for i, j in pairs]
        assert got == want_selector.ravel().tolist()
        assert all(type(v) is bool for v in got)
        assert [half_shift(p, i) for i in range(p.order)] == want_shift
        assert [inverse_element(p, i) for i in range(p.order)] == want_inverse


def test_rule_rejects_out_of_range_arrays():
    p3 = CyclicParams(3)
    with pytest.raises(ValueError, match="element 8 out of range"):
        oplus(p3, np.arange(9), 0)
    with pytest.raises(ValueError, match="element -1 out of range"):
        gyration_selector(p3, 1, np.array([0, -1]))
    with pytest.raises(ValueError, match="out of range"):
        half_shift(p3, -1)
    with pytest.raises(ValueError, match="out of range"):
        inverse_element(p3, np.array([[8]]))


def test_half_shift_examples():
    p3 = CyclicParams(3)
    assert half_shift(p3, 1) == 3
    assert half_shift(p3, 5) == 7
    assert half_shift(p3, 2) == 2
    assert half_shift(CyclicParams(4), 9) == 13
    assert half_shift_permutation(p3).cycle_string() == "(1 3)(5 7)"


def test_half_shift_is_involution_and_homomorphism():
    for n in (3, 4, 5, 6):
        p = CyclicParams(n)
        for i in range(p.order):
            assert half_shift(p, half_shift(p, i)) == i
        for i in range(p.order):
            for j in range(p.order):
                assert half_shift(p, oplus(p, i, j)) == oplus(
                    p, half_shift(p, i), half_shift(p, j)
                )


def test_selector_examples():
    p3 = CyclicParams(3)
    assert gyration_selector(p3, 1, 4) is True
    assert all(gyration_selector(p3, 0, b) is False for b in range(8))
    assert all(gyration_selector(p3, 2, j) is False for j in range(8))


def test_selector_loop_property():
    # the pair (a, b) and the pair (a⊕b, b) always select the same gyration
    for n in (3, 4, 5):
        p = CyclicParams(n)
        for a in range(p.order):
            for b in range(p.order):
                assert gyration_selector(p, a, b) == gyration_selector(
                    p, oplus(p, a, b), b
                )


def test_lower_half_is_addition_mod_m():
    for n in (3, 4, 5, 6):
        p = CyclicParams(n)
        G = build_cyclic_gyrogroup(n)
        lower = G.cayley[: p.m, : p.m]
        i = np.arange(p.m)
        assert np.array_equal(lower, (i[:, None] + i[None, :]) % p.m)


def test_parity_is_preserved():
    # i + j even exactly when the result is even, for every pair
    for n in (3, 4, 5):
        p = CyclicParams(n)
        for i in range(p.order):
            for j in range(p.order):
                assert ((i + j) % 2 == 0) == (oplus(p, i, j) % 2 == 0)


def test_inverse_closed_form():
    p4 = CyclicParams(4)
    assert inverse_element(p4, 0) == 0
    assert inverse_element(p4, 13) == 11
    assert oplus(p4, 11, 13) == 0
    for n in (3, 4, 5):
        p = CyclicParams(n)
        G = build_cyclic_gyrogroup(n)
        for x in range(p.order):
            assert inverse_element(p, x) == inverse_of(G, x)


def test_not_associative():
    p3 = CyclicParams(3)
    lhs = oplus(p3, oplus(p3, 4, 1), 1)
    rhs = oplus(p3, 4, oplus(p3, 1, 1))
    assert lhs == 4 and rhs == 6 and lhs != rhs


def test_build_peak_memory_at_order_1024():
    # the tables are filled an eighth of a block of int32 rows at a time, and
    # the instance adopts them without a copy (4.6 MiB); with the copies it
    # took 12.0 MiB, int64 blocks 15.1 MiB and whole int64 tables 26 MiB
    assert traced_peak_mib(build_cyclic_gyrogroup, 10) <= 7.0
