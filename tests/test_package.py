"""The package's public names: one list per submodule, re-exported at the top."""

import matseries
from matseries import algebra, frechet, identities, oracle, series

#: The top-level names before each submodule's ``__all__`` became the only list,
#: less the two unused types deleted then (``BallSpec``, ``OracleKind``) and the
#: second spellings of the matrix operations deleted since (``DELETED_SPELLINGS``).
EARLIER_NAMES = """
    AlgebraError Algorithm BoundKind BUILTIN_NAMES CompareReport CurveDomainError
    DEFAULT_FD_STEP DifferentialResult DimensionMismatchError EvalDiagnostics
    FieldMismatchError IdentityReport MatrixCurve MatrixElement NonFiniteResultError
    OutsideDerivativeBallError OutsideRadiusError PairwiseDifference PowerSeries
    ScalarField SeriesError SkipRecord TermCapError TruncationPolicy algebra_norm
    apply_commutant apply_commutant_power binomial_sum_identity
    block_triangular_differential builtin_series choose_truncation
    commutant_power_binomial curve_derivative derivative_series derivative_series_growth
    eval_matrix eval_scalar fd_differential fd_slope frechet_commutant frechet_compare
    frechet_derivative_series frechet_direct frechet_power_commutant from_coefficients
    identity integral_identity_check matrix
    monomial_differential monomial_differential_forms operator_sum_identity
    polynomial_curve polynomial_differential power_commutant_decomposition
    product_commutator_expansion radius_estimate relative_difference
    resolvent_differential run_identity_suite series_from_json zeros
""".split()

#: Module functions that repeated a ``MatrixElement`` operator or named a half of ``C(T)``.
DELETED_SPELLINGS = {"apply_left", "apply_right", "mat_add", "mat_mul", "mat_scale", "mat_sub"}


def test_top_level_names_are_the_submodule_lists():
    modules = (algebra, frechet, identities, oracle, series)
    assert set(matseries.__all__) == set().union(*(m.__all__ for m in modules))
    assert len(matseries.__all__) == len(set(matseries.__all__))
    assert all(hasattr(matseries, name) for name in matseries.__all__)


def test_no_earlier_name_is_lost():
    assert len(EARLIER_NAMES) == 61
    assert set(EARLIER_NAMES) <= set(matseries.__all__)
    assert not ({"BallSpec", "OracleKind"} | DELETED_SPELLINGS) & set(matseries.__all__)
    assert not any(hasattr(matseries, name) or hasattr(algebra, name)
                   for name in DELETED_SPELLINGS)
