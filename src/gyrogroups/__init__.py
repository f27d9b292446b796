"""Finite gyrogroups: cyclic-2-group construction, exhaustive verification, analysis."""

from .analyze import (
    GyroholomorphGroup,
    Subgyrogroup,
    SubgyrogroupLattice,
    classify_subgyrogroups,
    closure,
    enumerate_subgyrogroups,
    gyroautomorphism_group,
    gyroholomorph,
    holomorph_structure_matches,
    is_degenerate_group,
    isomorphic,
    restrict,
)
from .construct import (
    CyclicParams,
    build_cyclic_gyrogroup,
    gyration_selector,
    half_shift,
    half_shift_permutation,
    inverse_element,
    oplus,
)
from .core import (
    CHECK_NAMES,
    CheckResult,
    FiniteGyrogroup,
    GyrogroupDataError,
    Permutation,
    VerificationReport,
    check_gyr_automorphisms,
    check_gyrator_identity,
    check_gyrocommutative,
    check_left_gyroassociativity,
    check_left_identity,
    check_left_inverses,
    check_left_translations,
    check_loop_property,
    check_right_translations,
    inverse_of,
    verify,
)
from .formats import (
    ReportDocument,
    TableFormatError,
    emit_lattice_dot,
    emit_lattice_text,
    emit_tables,
    load_tables,
    report_document,
)
from .groups import (
    GroupInvariants,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_invariants,
    semidirect_cyclic_z2,
)

__version__ = "0.1.0"
