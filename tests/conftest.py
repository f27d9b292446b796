import numpy as np
import pytest

from gyrogroups import (
    FiniteGyrogroup,
    build_cyclic_gyrogroup,
    cyclic_group,
    dihedral_group,
    direct_product,
)


@pytest.fixture(scope="session")
def g3():
    return build_cyclic_gyrogroup(3)


@pytest.fixture(scope="session")
def g4():
    return build_cyclic_gyrogroup(4)


@pytest.fixture(scope="session")
def z8():
    return FiniteGyrogroup.from_group(cyclic_group(8))


@pytest.fixture(scope="session")
def z4xz2():
    return FiniteGyrogroup.from_group(direct_product(cyclic_group(4), cyclic_group(2)))


@pytest.fixture(scope="session")
def z2cubed():
    table = direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
    return FiniteGyrogroup.from_group(table)


@pytest.fixture(scope="session")
def dih8():
    return FiniteGyrogroup.from_group(dihedral_group(4))


@pytest.fixture(scope="session")
def identity_placements():
    """Two tables, as (Cayley table, gyration table, image rows), where the
    identity gyration is not index 0: the order-8 construction with its
    gyrations listed half-shift first, so the identity is index 1; and Z8
    with the transposition (1 2), no automorphism, everywhere but negation
    at (5, 3), where no gyration is the identity."""
    g3 = build_cyclic_gyrogroup(3)
    identity, half_shift = g3.perm_matrix
    gyr = np.zeros((8, 8), dtype=int)
    gyr[5, 3] = 1
    negate, swap = [(-x) % 8 for x in range(8)], [0, 2, 1, 3, 4, 5, 6, 7]
    return {
        "identity at index 1": (g3.cayley, 1 - g3.gyr_table.astype(int), [half_shift, identity]),
        "no identity": (cyclic_group(8), gyr, [swap, negate]),
    }
