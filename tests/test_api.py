"""The public surface of the package is a deliberate list."""
import awflow

PUBLIC = [
    "AloffWallach", "CASES", "ConstraintError", "InconsistentSystem",
    "MissingSlotValue", "OrbitCase", "SeriesSolution", "SmoothnessReport",
    "State", "SymmetryMap", "SystemId", "TruncSeries", "ZeroDenominator",
    "check_smoothness", "circle_normalization", "decompose_S2_p",
    "dim_hom_torus", "dim_W", "dim_W_s5", "einstein_series",
    "first_return_time", "free_slots", "get_case", "isotropy_modules", "rat",
    "rat_str", "residual_einstein", "rhs_first_order", "solve_series",
    "su2_sym_power", "symmetry_maps", "torus_sym_power",
]


def test_all_is_pinned():
    assert sorted(awflow.__all__) == sorted(PUBLIC)
    assert len(set(awflow.__all__)) == len(awflow.__all__)


def test_every_public_name_resolves():
    for name in awflow.__all__:
        assert getattr(awflow, name, None) is not None, name
