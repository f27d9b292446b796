import itertools

import numpy as np
import pytest

from gyrogroups import (
    FiniteGyrogroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_invariants,
    semidirect_cyclic_z2,
)
from gyrogroups.groups import element_orders, first_group_axiom_violation

from holomorph_reference import (
    ref_element_orders,
    ref_first_unit_violation,
    ref_group_invariants,
    ref_semidirect_cyclic_z2,
)


def reference_dihedral(sides):
    # r**a f**e encoded as a + sides*e; a reflection reverses the rotation
    n = 2 * sides
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        a, e = x % sides, x // sides
        for y in range(n):
            b, f = y % sides, y // sides
            rot = (a + (b if e == 0 else -b)) % sides
            table[x, y] = rot + sides * ((e + f) % 2)
    return table


def test_dihedral_matches_reference():
    for sides in range(1, 9):
        assert np.array_equal(dihedral_group(sides), reference_dihedral(sides))
    with pytest.raises(ValueError, match="positive"):
        dihedral_group(0)


def test_semidirect_rejects_non_involution():
    with pytest.raises(ValueError, match="not an involution"):
        semidirect_cyclic_z2(5, 2)
    assert semidirect_cyclic_z2(1, 0).shape == (2, 2)


def test_semidirect_candidates_match_reference():
    # every Z2 x (Z_m : Z2) candidate the holomorph is compared with, up to order 256
    z2 = cyclic_group(2)
    for m in (8, 16, 64):
        for k in range(2, m):
            if (k * k - 1) % m:
                continue
            table = semidirect_cyclic_z2(m, k)
            assert np.array_equal(table, ref_semidirect_cyclic_z2(m, k))
            product = direct_product(z2, table)
            assert element_orders(product) == ref_element_orders(product)
            assert group_invariants(product) == ref_group_invariants(product)


def test_direct_product_of_a_narrow_table():
    # a Cayley table of order 32 is uint8, and 31 * 16 passes its range
    narrow = FiniteGyrogroup.from_group(cyclic_group(32)).cayley
    assert narrow.dtype == np.uint8
    assert np.array_equal(direct_product(narrow, cyclic_group(16)),
                          direct_product(cyclic_group(32), cyclic_group(16)))


def test_unit_axioms_match_reference():
    base = dihedral_group(4)
    for i, j in itertools.product(range(8), repeat=2):
        table = base.copy()
        table[i, j] = (table[i, j] + 1) % 8
        expected = ref_first_unit_violation(table)
        found = first_group_axiom_violation(table)
        if expected is None:
            assert found is None or found[0] == "associativity"
        else:
            assert found == expected


def test_group_invariants_reject_a_table_that_is_no_group():
    with pytest.raises(ValueError, match=r"^not a group table: inverse fails at \(1,\)$"):
        group_invariants(np.array([[0, 1], [1, 1]]))


def test_element_orders_stop_when_powers_cycle():
    # 1 * 1 = 1, so the powers of 1 never reach 0
    assert element_orders(np.array([[0, 1], [1, 1]])) == [1, 0]
    assert element_orders(cyclic_group(6)) == [1, 6, 3, 2, 3, 6]
