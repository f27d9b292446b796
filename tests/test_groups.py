import numpy as np
import pytest

from gyrogroups import dihedral_group, semidirect_cyclic_z2


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
