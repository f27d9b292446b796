import numpy as np
import pytest

from gyrogroups import (
    FiniteGyrogroup,
    GyrogroupDataError,
    Permutation,
    build_cyclic_gyrogroup,
    classify_subgyrogroups,
    closure,
    cyclic_group,
    direct_product,
    enumerate_subgyrogroups,
    gyroautomorphism_group,
    gyroholomorph,
    half_shift_permutation,
    holomorph_structure_matches,
    is_degenerate_group,
    isomorphic,
    restrict,
    verify,
)
from gyrogroups import analyze, groups
from gyrogroups.analyze import _element_profiles, _holomorph_table
from gyrogroups.construct import CyclicParams
from gyrogroups.groups import first_group_axiom_violation

from holomorph_reference import (
    ref_group_invariants,
    ref_gyroautomorphism_group,
    ref_holomorph_table,
    ref_left_orders,
)
from iso_reference import ref_isomorphism
from lattice_reference import (
    ref_canonical_generators,
    ref_close,
    ref_closed_sets,
    ref_covers,
    ref_is_group,
    ref_operations,
    ref_restrict,
)


def assert_closed(G, node):
    members = set(node.elements)
    assert 0 in members
    for a in members:
        for b in members:
            assert G.oplus(a, b) in members
            perm = G.gyration(a, b)
            assert all(perm(x) in members for x in members)
        assert any(G.oplus(b, a) == 0 and b in members for b in members)


# -------------------------------------------------------------------- closure


def test_closure_examples(g3, g4):
    assert closure(g3, {5}).elements == (0, 2, 5, 7)
    assert closure(g3, set()).elements == (0,)
    assert closure(g3, set()).generators == (0,)
    assert closure(g4, {2, 8}).elements == (0, 2, 4, 6, 8, 10, 12, 14)
    assert closure(g4, {9}).elements == (0, 2, 4, 6, 9, 11, 13, 15)


def test_closure_is_closed(g3, g4):
    for G in (g3, g4):
        for x in range(G.order):
            assert_closed(G, closure(G, {x}))


def test_closure_matches_reference_closure():
    # from order 128 on a round of more than 1,024 sums marks them in a bool
    # array, and a closure past half the group stops there
    G = build_cyclic_gyrogroup(7)
    ops = ref_operations(G)
    seeds = [{x} for x in range(0, G.order, 5)] + [{2, 64}, {4, 66}, {8, 96}, {16, 65}]
    for seed in seeds:
        assert closure(G, seed).elements == tuple(sorted(ref_close(G, seed, ops)))


def test_closure_rejects_bad_generators(g3):
    with pytest.raises(ValueError):
        closure(g3, {9})


def test_closure_and_restrict_reject_elements_that_are_not_whole(g3):
    with pytest.raises(ValueError, match=r"^generator entry not an integer at \(0,\): 2\.9$"):
        closure(g3, [2.9])
    with pytest.raises(ValueError, match=r"^subset entry not an integer at \(1,\): 2\.9$"):
        restrict(g3, [0, 2.9, 4, 6])
    # whole numbers of other types are taken as the element they name
    assert closure(g3, [5.0]) == closure(g3, [5])
    assert outcome(restrict, g3, [0, 2.0, 4, np.int64(6)]) == outcome(restrict, g3, [0, 2, 4, 6])


# ---------------------------------------------------------------- enumeration


def test_enumerate_order_8(g3):
    lattice = enumerate_subgyrogroups(g3)
    assert len(lattice.nodes) == 8
    labels = [node.label() for node in lattice.nodes]
    assert labels == ["<0>", "<2>", "<4>", "<6>", "<1>", "<2,4>", "<5>", "<1,4>"]
    assert lattice.bottom.elements == (0,)
    assert lattice.top.elements == tuple(range(8))
    index = {node.label(): i for i, node in enumerate(lattice.nodes)}
    assert (index["<4>"], index["<2,4>"]) in lattice.covers
    assert (index["<5>"], index["<1,4>"]) in lattice.covers
    # covers form the transitive reduction: no edge skips a level
    sets = [frozenset(node.elements) for node in lattice.nodes]
    for child, parent in lattice.covers:
        assert sets[child] < sets[parent]
        assert not any(sets[child] < mid < sets[parent] for mid in sets)


def test_enumerate_order_16(g4):
    lattice = enumerate_subgyrogroups(g4)
    assert len(lattice.nodes) == 11
    assert {node.label() for node in lattice.nodes} == {
        "<0>", "<4>", "<8>", "<12>", "<2>", "<4,8>", "<10>", "<1>", "<2,8>", "<9>", "<1,8>",
    }


def test_enumerate_cyclic_group_gives_divisor_lattice(z8):
    lattice = enumerate_subgyrogroups(z8)
    assert [node.order for node in lattice.nodes] == [1, 2, 4, 8]


def test_enumerated_nodes_satisfy_subgyrogroup_invariants(g4):
    lattice = enumerate_subgyrogroups(g4)
    for node in lattice.nodes:
        assert_closed(g4, node)


def z2_power(k):
    table = cyclic_group(2)
    for _ in range(k - 1):
        table = direct_product(table, cyclic_group(2))
    return FiniteGyrogroup.from_group(table)


def gaussian_binomial(n, k, q=2):
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    count = 1
    for i in range(k):
        count = count * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return count


def test_lattice_matches_exhaustive_reference(g3, g4, z8, z4xz2, z2cubed, dih8):
    built = [build_cyclic_gyrogroup(n) for n in (5, 6)]
    for G in (g3, g4, *built, z8, z4xz2, z2cubed, dih8, z2_power(4)):
        lattice = enumerate_subgyrogroups(G)
        sets = ref_closed_sets(G)
        assert [node.elements for node in lattice.nodes] == [tuple(sorted(s)) for s in sets]
        for node, members in zip(lattice.nodes, sets):
            assert node.generators == ref_canonical_generators(sets, members)
            assert node.is_group == ref_is_group(G, members)
            assert closure(G, node.elements).generators == node.generators
        assert lattice.covers == ref_covers(sets)


def test_z2_power_lattice_is_the_subspace_lattice():
    # subgyrogroups of Z2^4 are the subspaces of GF(2)^4; a k-dimensional one
    # is covered by the 2**(4-k) - 1 subspaces of one dimension more
    lattice = enumerate_subgyrogroups(z2_power(4))
    nodes = sum(gaussian_binomial(4, k) for k in range(5))
    covers = sum(gaussian_binomial(4, k) * (2 ** (4 - k) - 1) for k in range(4))
    assert (nodes, covers) == (67, 240)
    assert (len(lattice.nodes), len(lattice.covers)) == (nodes, covers)


def test_prime_index_joins_are_not_closed_again(monkeypatch):
    # every join in Z2^5 doubles a subspace, so once T ∪ {x} closes to S the
    # other y in S ∖ T are skipped: one closure for the bottom and one per
    # cover, while the cyclic subgyrogroups are walked as powers, not closed
    G = z2_power(5)
    cyclic = {analyze._close(G, frozenset((x,))) for x in range(G.order)}
    calls = []

    def counting(G, seed, close=analyze._close):
        calls.append(seed)
        return close(G, seed)

    monkeypatch.setattr(analyze, "_close", counting)
    lattice = enumerate_subgyrogroups(G)
    assert len(cyclic) == G.order
    assert len(calls) == len(lattice.covers) + 1 == 2077 + 1


def test_cyclic_closures_are_shared_by_inverse_pairs(monkeypatch):
    # close({x}) is the cyclic group of the powers of x, shared by every
    # generator mx with gcd(m, d) = 1, ⊖x among them; so the lattice at n=8
    # walks its 16 cyclic subgyrogroups once each, where it closed one per
    # pair {x, ⊖x}, 130 of them, and none goes through _close
    G = build_cyclic_gyrogroup(8)
    inv = G.left_inverse_map()
    cyclic = analyze._cyclic_closures(G, range(G.order))
    for x in range(G.order):
        assert cyclic[x] == cyclic[int(inv[x])] == analyze._close(G, frozenset((x,)))
    assert len({id(S) for S in cyclic.values()}) == len(set(cyclic.values())) == 16
    calls = []

    def counting(G, seed, close=analyze._close):
        calls.append(seed)
        return close(G, seed)

    monkeypatch.setattr(analyze, "_close", counting)
    lattice = enumerate_subgyrogroups(G)
    assert not [seed for seed in calls if len(seed) == 1]
    assert len(calls) == 293 - 130
    assert len(lattice.nodes) == 3 * 8 - 1


def test_cyclic_walk_that_misses_zero_closes_as_before():
    # x ⊕ y = y gives no element a left inverse and no power of 1 is 0, so the
    # walk falls back to closing {1}, which names the missing inverse
    G = FiniteGyrogroup(np.tile(np.arange(4), (4, 1)))
    with pytest.raises(GyrogroupDataError, match="element 1 has no left inverse"):
        closure(G, {1})


# ------------------------------------------------------------- classification


def test_classify_matches_enumeration():
    for n in (3, 4, 5, 6):
        G = build_cyclic_gyrogroup(n)
        enum_sets = {node.elements for node in enumerate_subgyrogroups(G).nodes}
        classified = classify_subgyrogroups(n)
        assert {node.elements for node in classified} == enum_sets
        assert len(classified) == len(enum_sets) == 3 * n - 1


def test_classify_family_examples():
    nodes = {node.generators: node for node in classify_subgyrogroups(4)}
    assert nodes[(9,)].elements == (0, 2, 4, 6, 9, 11, 13, 15)
    assert nodes[(9,)].closed_form == "<m + 2^0>"
    assert nodes[(1, 8)].elements == tuple(range(16))


def test_only_the_whole_thing_is_not_a_group():
    for n in (3, 4, 5, 6):
        full = 1 << n
        for node in classify_subgyrogroups(n):
            assert node.is_group == (node.order < full)
        G = build_cyclic_gyrogroup(n)
        for node in enumerate_subgyrogroups(G).nodes:
            assert node.is_group == (node.order < full)


def test_shifted_chain_is_nested():
    # <m> <= <2^(n-2), m> <= ... <= <2, m> <= <1, m>
    for n in (3, 4, 5, 6):
        by_form = {node.closed_form: set(node.elements) for node in classify_subgyrogroups(n)}
        chain = [by_form[f"<2^{s}, m>"] for s in range(n - 1, -1, -1)]
        for smaller, larger in zip(chain, chain[1:]):
            assert smaller < larger


# ------------------------------------------------------- gyroautomorphisms


def test_gyroautomorphism_group(g3, g4, z8):
    for n, G in ((3, g3), (4, g4)):
        gamma = gyroautomorphism_group(G)
        assert len(gamma) == 2 and not gamma.flags.writeable
        assert gamma[0].tolist() == list(range(G.order))
        assert gamma[1].tolist() == list(half_shift_permutation(CyclicParams(n)).images)
        # order 2: the half-shift is no identity, but its square is
        assert gamma[1].tolist() != gamma[0].tolist()
        assert gamma[1][gamma[1]].tolist() == gamma[0].tolist()
    assert len(gyroautomorphism_group(z8)) == 1


def test_gyroautomorphism_group_order_2_up_to_n8():
    for n in range(3, 9):
        assert len(gyroautomorphism_group(build_cyclic_gyrogroup(n))) == 2


def seeded_gyrations(m, seed):
    """Z_m with each gyration drawn from the identity and three random permutations."""
    rng = np.random.default_rng(seed)
    perms = [np.arange(m)] + [rng.permutation(m) for _ in range(3)]
    return FiniteGyrogroup(cyclic_group(m), rng.integers(0, 4, size=(m, m)), perms)


def test_gyroautomorphism_group_matches_pairwise_reference(g3, g4, z8, z4xz2, z2cubed, dih8):
    built = [build_cyclic_gyrogroup(n) for n in (5, 6)]
    # Γ of order 24 (or 12), 120 (or 60) and 360; the reference is quadratic in |Γ|
    seeded = [seeded_gyrations(4, s) for s in range(5)] + [
        seeded_gyrations(5, s) for s in range(3)
    ] + [seeded_gyrations(6, 0)]
    for G in (g3, g4, *built, z8, z4xz2, z2cubed, dih8, *seeded):
        gamma = [list(p) for p in ref_gyroautomorphism_group(G)]
        assert gyroautomorphism_group(G).tolist() == gamma
    assert len(gyroautomorphism_group(seeded[-1])) == 360


# ------------------------------------------------------------- gyroholomorph


def test_gyroholomorph_matches_entrywise_reference(g3, g4, z8, z4xz2, z2cubed, dih8):
    built = [build_cyclic_gyrogroup(n) for n in (5, 6)]
    for G in (g3, g4, *built, z8, z4xz2, z2cubed, dih8):
        hol = gyroholomorph(G)
        table = ref_holomorph_table(G)
        assert np.array_equal(hol.cayley, table)
        assert hol.invariants == ref_group_invariants(table)
    # random gyrations generate S_4 or A_4 (and S_5 or A_5) and give no
    # group; at order 5 x·|Γ| passes 255, which a uint8 Cayley table wraps
    seeded = [seeded_gyrations(4, s) for s in range(5)] + [seeded_gyrations(5, s) for s in range(3)]
    for G in seeded:
        assert np.array_equal(_holomorph_table(G), ref_holomorph_table(G))
    with pytest.raises(GyrogroupDataError, match="gyroholomorph table fails group axiom"):
        gyroholomorph(G)


def test_gyroholomorph_checks_the_group_axioms_once(g4, monkeypatch):
    calls = []

    def counting(table):
        calls.append(len(table))
        return first_group_axiom_violation(table)

    for module in (analyze, groups):
        monkeypatch.setattr(module, "first_group_axiom_violation", counting)
    hol = gyroholomorph(g4)
    assert calls == [32]
    # the invariants are those group_invariants gives, which checks again
    assert hol.invariants == groups.group_invariants(hol.cayley)
    assert calls == [32, 32]


def test_gyroholomorph_structure(g4):
    hol = gyroholomorph(g4)
    assert hol.order == 32
    assert hol.element_order_multiset == ((1, 1), (2, 7), (4, 8), (8, 16))
    assert not hol.invariants.abelian
    assert hol.invariants.center_size == 8
    assert hol.invariants.derived_size == 2
    matches = holomorph_structure_matches(hol)
    assert len(matches) == 1
    assert "x -> 5x" in matches[0][0] and "modular" in matches[0][0]


def test_holomorph_structure_matches_reads_m_off_the_order(g3):
    # the order-16 holomorph of the order-8 table is compared with Z2 x (Z4 : Z2)
    hol = gyroholomorph(g3)
    assert hol.order == 16
    names = [name for name, _ in holomorph_structure_matches(hol)]
    assert names == ["Z2 x (Z4 : Z2, x -> 3x) [dihedral action]"]


def test_gyroholomorph_of_plain_group_is_the_group(z8):
    hol = gyroholomorph(z8)
    assert hol.order == 8
    copy = FiniteGyrogroup.from_group(hol.cayley)
    assert isomorphic(copy, z8) is not None


# ----------------------------------------------------------------- isomorphism


def relabel(G, sigma):
    """Conjugate the tables by a permutation fixing 0."""
    s = np.asarray(sigma.images)
    inv = np.argsort(sigma.images)
    cayley = s[G.cayley[inv[:, None], inv[None, :]]]
    gyr = G.gyr_table[inv[:, None], inv[None, :]]
    return FiniteGyrogroup(cayley, gyr, s[G.perm_matrix[:, inv]])


def test_element_profiles_use_left_orders(g3, g4, z8, z4xz2, z2cubed, dih8, identity_placements):
    built = [build_cyclic_gyrogroup(n) for n in (5, 6, 7)]
    placed = [FiniteGyrogroup(*tables) for tables in identity_placements.values()]
    # left powers of 1 run 1, 2, 2, ... and never reach 0
    stuck = FiniteGyrogroup.from_group([[0, 1, 2], [1, 2, 2], [2, 1, 1]])
    for G in (g3, g4, *built, z8, z4xz2, z2cubed, dih8, stuck, *placed):
        assert [orders for orders, _, _ in _element_profiles(G)] == ref_left_orders(G)
        # the nontrivial gyrations in each row and column
        nontrivial = np.array([[not G.gyration(a, b).is_identity for b in range(G.order)]
                               for a in range(G.order)])
        counts = [(int(row), int(col)) for row, col in
                  zip(nontrivial.sum(axis=1), nontrivial.sum(axis=0))]
        assert [(rows, cols) for _, rows, cols in _element_profiles(G)] == counts
    assert [profile[1:] for profile in _element_profiles(placed[1])] == [(8, 8)] * 8
    assert [orders for orders, _, _ in _element_profiles(stuck)] == [1, 0, 0]


def test_isomorphic_reflexive(g3, g4):
    for G in (g3, g4):
        phi = isomorphic(G, G)
        assert phi is not None


def test_isomorphic_finds_relabeling(g3):
    sigma = Permutation((0, 4, 2, 6, 1, 3, 5, 7))
    H = relabel(g3, sigma)
    assert verify(H).passed
    phi = isomorphic(g3, H)
    assert phi is not None
    for a in range(8):
        for b in range(8):
            assert phi(g3.oplus(a, b)) == H.oplus(phi(a), phi(b))
    assert isomorphic(H, g3) is not None  # symmetric


def test_isomorphic_negative_cases(g3, z8, z4xz2, z2cubed):
    assert isomorphic(g3, z8) is None
    assert isomorphic(g3, z4xz2) is None
    assert isomorphic(g3, z2cubed) is None
    assert isomorphic(z8, z4xz2) is None


def test_isomorphic_order_mismatch(g3, g4):
    assert isomorphic(g3, g4) is None


def test_isomorphic_respects_order_cap():
    with pytest.raises(ValueError) as raised:
        isomorphic(build_cyclic_gyrogroup(6), build_cyclic_gyrogroup(6))
    assert str(raised.value) == "exhaustive search capped at order 32"


def test_isomorphic_matches_reference_on_small_tables(g3, g4, z8, z4xz2, z2cubed, dih8):
    tables = (g3, g4, z8, z4xz2, z2cubed, dih8)
    for G in tables:
        for H in tables:
            phi = isomorphic(G, H)
            assert (None if phi is None else phi.images) == ref_isomorphism(G, H)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_isomorphic_matches_reference_on_relabellings(n, seed):
    G = build_cyclic_gyrogroup(n)
    sigma = (0, *(1 + np.random.default_rng(seed).permutation(G.order - 1)).tolist())
    H = relabel(G, Permutation(sigma))
    for left, right in ((G, H), (H, G)):
        expected = ref_isomorphism(left, right)
        assert expected is not None
        assert isomorphic(left, right).images == expected


def z4_by_z4():
    """Z4 ⋊ Z4 with the generator of the second factor acting as x ↦ −x;
    (a, b) is encoded as a + 4b."""
    b, a = np.divmod(np.arange(16), 4)
    sign = np.where(b % 2, -1, 1)[:, None]
    return (a[:, None] + sign * a[None, :]) % 4 + 4 * ((b[:, None] + b[None, :]) % 4)


def z4_z4_z2():
    return direct_product(direct_product(cyclic_group(4), cyclic_group(4)), cyclic_group(2))


def test_isomorphic_finds_relabelled_order_32_group():
    G = FiniteGyrogroup.from_group(z4_z4_z2())
    sigma = Permutation((0, *(1 + np.random.default_rng(5).permutation(31)).tolist()))
    H = relabel(G, sigma)
    phi = isomorphic(G, H)
    assert phi is not None
    images = np.asarray(phi)
    assert (images[G.cayley] == H.cayley[images[:, None], images[None, :]]).all()


def test_isomorphic_tells_order_32_groups_with_equal_profiles_apart():
    assert first_group_axiom_violation(z4_by_z4()) is None
    G = FiniteGyrogroup.from_group(z4_z4_z2())
    H = FiniteGyrogroup.from_group(direct_product(z4_by_z4(), cyclic_group(2)))
    assert sorted(_element_profiles(G)) == sorted(_element_profiles(H))
    assert isomorphic(G, H) is None


# ------------------------------------------------------------ degenerate check


def test_is_degenerate_group(g3, z8, identity_placements):
    assert not is_degenerate_group(g3)
    assert is_degenerate_group(z8)
    relisted, no_identity = (FiniteGyrogroup(*t) for t in identity_placements.values())
    assert not is_degenerate_group(relisted)
    # Z8 with the identity listed second, and the only gyration in its table
    assert is_degenerate_group(FiniteGyrogroup(z8.cayley, np.ones((8, 8), int), relisted.perm_matrix))
    # Z8 is associative, but none of its gyrations is the identity
    with pytest.raises(GyrogroupDataError, match="disagree"):
        is_degenerate_group(no_identity)


def test_restricted_subgyrogroup_is_a_group(g3):
    sub = restrict(g3, (0, 2, 4, 6))
    assert is_degenerate_group(sub)
    assert verify(sub).passed


def test_degenerate_check_raises_on_disagreement(z8):
    # associative table that claims a nontrivial gyration everywhere
    negate = [(-x) % 8 for x in range(8)]
    gyr = np.ones((8, 8), dtype=int)
    corrupt = FiniteGyrogroup(z8.cayley, gyr, (list(range(8)), negate))
    with pytest.raises(GyrogroupDataError, match="disagree"):
        is_degenerate_group(corrupt)


def test_restrict_rejects_unclosed_subset(g3):
    with pytest.raises(ValueError, match="not closed"):
        restrict(g3, (0, 1))
    for subset in [(2, 4), (), (0, -4), (0, 4, 8)]:
        with pytest.raises(ValueError, match="identity 0 and lie in 0..7"):
            restrict(g3, subset)


def outcome(f, *args):
    """The restricted tables, or the error message."""
    try:
        H = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return H.cayley.tolist(), H.gyr_table.tolist(), H.perm_matrix.tolist()


def test_restrict_takes_the_elements_as_a_set(g3):
    # a repeated element names the same subset, as in `closure`
    expected = outcome(restrict, g3, [0, 4])
    assert outcome(restrict, g3, [0, 4, 4]) == expected
    assert outcome(restrict, g3, (4, 0, 0, 4)) == expected
    assert expected[0] == [[0, 1], [1, 0]]


def test_restrict_matches_pairwise_reference():
    # lattice nodes restrict; adding or dropping one element breaks closure
    for n in range(3, 7):
        G = build_cyclic_gyrogroup(n)
        nodes = [set(node.elements) for node in enumerate_subgyrogroups(G).nodes]
        for S in nodes:
            mutants = [S | {x} for x in range(G.order) if x not in S]
            mutants += [S - {x} for x in S if x != 0]
            for subset in [S, *(T for T in mutants if T not in nodes)]:
                assert outcome(restrict, G, subset) == outcome(ref_restrict, G, subset)
    # random gyrations on group tables, so a gyration can leak at, before or
    # after the pair where a sum escapes; every subset holding 0
    rng = np.random.default_rng(7)
    for table in (cyclic_group(8), direct_product(cyclic_group(4), cyclic_group(2))):
        for _ in range(4):
            pool = [rng.permutation(8) for _ in range(4)]
            pool[0] = np.arange(8)
            gyr = rng.choice(4, size=(8, 8), p=[0.7, 0.1, 0.1, 0.1])
            G = FiniteGyrogroup(table, gyr, pool)
            for mask in range(128):
                subset = [0] + [x for x in range(1, 8) if mask >> (x - 1) & 1]
                assert outcome(restrict, G, subset) == outcome(ref_restrict, G, subset)
