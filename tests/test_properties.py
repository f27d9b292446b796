"""Property-based checks: random points, random mutations, random subsets."""

import numpy as np
from hypothesis import given, settings, strategies as st

from gyrogroups import (
    CyclicParams,
    FiniteGyrogroup,
    Permutation,
    build_cyclic_gyrogroup,
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    emit_tables,
    gyration_selector,
    half_shift,
    inverse_element,
    inverse_of,
    load_tables,
    oplus,
    verify,
)

from formats_reference import ref_emit_tables
from witness_checks import witness_confirms

exponents = st.integers(min_value=3, max_value=9)


@st.composite
def params_and_elements(draw, count=2):
    n = draw(exponents)
    p = CyclicParams(n)
    elems = tuple(draw(st.integers(0, p.order - 1)) for _ in range(count))
    return (p, *elems)


@given(params_and_elements())
def test_parity_preserved(args):
    p, i, j = args
    assert ((i + j) % 2 == 0) == (oplus(p, i, j) % 2 == 0)


@given(params_and_elements())
def test_result_half_rule(args):
    # the sum lands in the upper half exactly when the halves of i, j differ
    p, i, j = args
    assert (oplus(p, i, j) >= p.m) == ((i >= p.m) != (j >= p.m))


@given(params_and_elements(count=1))
def test_half_shift_involution(args):
    p, i = args
    assert half_shift(p, half_shift(p, i)) == i


@given(params_and_elements())
def test_half_shift_homomorphism(args):
    p, i, j = args
    assert half_shift(p, oplus(p, i, j)) == oplus(p, half_shift(p, i), half_shift(p, j))


@given(params_and_elements())
def test_selector_loop_property(args):
    p, a, b = args
    assert gyration_selector(p, a, b) == gyration_selector(p, oplus(p, a, b), b)


@given(params_and_elements(count=1))
def test_inverse_is_two_sided(args):
    p, x = args
    inv = inverse_element(p, x)
    assert oplus(p, inv, x) == 0 and oplus(p, x, inv) == 0


@given(params_and_elements())
def test_lower_half_matches_modular_addition(args):
    p, i, j = args
    assert oplus(p, i % p.m, j % p.m) == (i + j) % p.m


@given(st.integers(3, 4), st.sets(st.integers(0, 15), max_size=3))
def test_closure_is_closed_under_everything(n, gens):
    G = build_cyclic_gyrogroup(n)
    gens = {g % G.order for g in gens}
    members = set(closure(G, gens).elements)
    assert gens <= members and 0 in members
    for a in members:
        assert inverse_of(G, a) in members
        for b in members:
            assert G.oplus(a, b) in members
            perm = G.gyration(a, b)
            assert {perm(x) for x in members} == members


@st.composite
def cayley_mutations(draw):
    a = draw(st.integers(0, 7))
    b = draw(st.integers(0, 7))
    v = draw(st.integers(0, 7))
    return a, b, v


@given(cayley_mutations())
@settings(max_examples=60)
def test_single_cayley_mutation_is_detected(mutation):
    G = build_cyclic_gyrogroup(3)
    a, b, v = mutation
    cayley = np.array(G.cayley)
    if cayley[a, b] == v:
        v = (v + 1) % 8
    cayley[a, b] = v
    mutated = FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix)
    report = verify(mutated)
    assert not report.passed
    for result in report.failures():
        assert witness_confirms(mutated, result)


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=60)
def test_single_gyration_flip_is_detected(a, b):
    G = build_cyclic_gyrogroup(3)
    gyr = np.array(G.gyr_table)
    gyr[a, b] ^= 1
    mutated = FiniteGyrogroup(G.cayley, gyr, G.perm_matrix)
    report = verify(mutated)
    assert not report.passed
    for result in report.failures():
        assert witness_confirms(mutated, result)


GROUP_TABLES = {
    "z6": cyclic_group(6),
    "z8": cyclic_group(8),
    "z4xz2": direct_product(cyclic_group(4), cyclic_group(2)),
    "z2xz2": direct_product(cyclic_group(2), cyclic_group(2)),
    "d8": dihedral_group(4),
    "d12": dihedral_group(6),
}


@given(st.sampled_from(sorted(GROUP_TABLES)))
def test_groups_verify_and_gyrocommute_iff_abelian(name):
    table = GROUP_TABLES[name]
    G = FiniteGyrogroup.from_group(table)
    report = verify(G)
    abelian = np.array_equal(table, np.asarray(table).T)
    for check in report.checks:
        if check.name == "gyrocommutativity":
            assert check.passed == abelian
        else:
            assert check.passed


@given(st.permutations(list(range(1, 8))))
@settings(max_examples=30)
def test_relabeling_preserves_verification(tail):
    from test_analyze import relabel

    G = build_cyclic_gyrogroup(3)
    sigma = Permutation((0, *tail))
    assert verify(relabel(G, sigma)).passed


@st.composite
def legend_tables(draw):
    """Z_N for N in 1..40 with 1..30 random gyrations, the identity among
    them or not, and a random nonempty subset of them in the table, so that
    unreferenced legend symbols can be wider than the grid's columns."""
    n = draw(st.integers(1, 40))
    count = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms = [rng.permutation(n) for _ in range(count)]
    if draw(st.booleans()):
        perms[draw(st.integers(0, count - 1))] = np.arange(n)
    used = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True))
    return FiniteGyrogroup(cyclic_group(n), rng.choice(used, (n, n)), perms)


@given(legend_tables())
@settings(max_examples=60, deadline=None)
def test_emitted_documents_match_the_reference_and_round_trip(G):
    for fmt in ("csv", "text"):
        assert emit_tables(G, fmt) == ref_emit_tables(G, fmt)
    doc = emit_tables(G, "csv")
    back = load_tables(doc)
    assert np.array_equal(back.cayley, G.cayley)
    assert np.array_equal(back.gyr_table, G.gyr_table)
    assert np.array_equal(back.perm_matrix, G.perm_matrix)
    assert emit_tables(back, "csv") == doc
