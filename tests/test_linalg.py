import numpy as np
import pytest

from vifnc import DataMatrix, ModelSpec, fit, solve_least_squares
from vifnc.errors import DimensionMismatch, NonFiniteInput, TooFewObservations

from oracles import normal_equations_solve


def test_identity_system():
    sol = solve_least_squares(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(sol.coefficients, [1.0, 2.0, 3.0], atol=1e-14)
    assert sol.rank == 3
    assert not sol.rank_deficient


def test_constant_fit():
    sol = solve_least_squares([[1.0], [1.0], [1.0]], [2.0, 2.0, 2.0])
    assert sol.coefficients == pytest.approx([2.0])
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-14)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(101)
    A = rng.normal(size=(10, 3))
    b = rng.normal(size=10)
    sol = solve_least_squares(A, b)
    oracle = normal_equations_solve(A.tolist(), b.tolist())
    assert np.allclose(sol.coefficients, oracle, rtol=1e-8)


def test_oracle_agreement_100_seeded_systems():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(6, 51))
        k = int(rng.integers(1, 7))
        A = rng.normal(size=(n, k))
        b = rng.normal(size=n)
        sol = solve_least_squares(A, b)
        oracle = np.asarray(normal_equations_solve(A.tolist(), b.tolist()))
        assert np.linalg.norm(sol.coefficients - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_residual_orthogonality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.normal(size=(30, 4))
        b = rng.normal(size=30)
        sol = solve_least_squares(A, b)
        gradient = A.T @ (b - A @ sol.coefficients)
        assert np.all(np.abs(gradient) < 1e-8)


def test_rank_deficiency_flagged_not_fatal():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(12, 2))
    a, c = rng.normal(size=(2, 20))
    cases = [
        # third column repeats the first
        (np.column_stack([base, base[:, 0]]), base),
        # a column small in its units but not in direction: the rank keeps it, so
        # the solve must too, where an unscaled cut of the SVD would drop it
        (np.column_stack([a, 2.0 * a, 3e-15 * c]), np.column_stack([a, 3e-15 * c])),
    ]
    for A, kept in cases:
        b = rng.normal(size=A.shape[0])
        sol = solve_least_squares(A, b)
        assert sol.rank == 2
        assert sol.rank_deficient
        # still a least-squares solution: residual matches the reduced problem
        reduced = solve_least_squares(kept, b)
        assert not reduced.rank_deficient
        assert sol.residual_norm == pytest.approx(reduced.residual_norm, rel=1e-10)


def test_rank_does_not_depend_on_the_units_of_a_column():
    # one cut on unit-length columns, the kernel's: a well-conditioned design
    # stays full rank however small one column's units are
    rng = np.random.default_rng(8)
    a, b, y = rng.normal(size=(3, 30))
    A = np.column_stack([a, 1e-12 * b])
    sol = solve_least_squares(A, y)
    assert (sol.rank, sol.rank_deficient) == (2, False)
    data = DataMatrix.from_columns({"y": y, "a": a, "b": 1e-12 * b})
    result = fit(data, ModelSpec("y", ("a", "b"), intercept=False))
    assert (result.rank, result.rank_deficient) == (2, False)
    assert solve_least_squares(np.diag([1.0, 1e-8]), [1.0, 1.0]).rank == 2


def test_rank_catches_relation_at_rounding_level():
    # [1, a, 5 + 1e-8 c, c]: cond ~ 4e16, yet no R diagonal falls below 1e-10 of the largest
    rng = np.random.default_rng(4)
    a, c = rng.normal(size=20), rng.normal(size=20)
    A = np.column_stack([np.ones(20), a, 5.0 + 1e-8 * c, c])
    sol = solve_least_squares(A, rng.normal(size=20))
    assert sol.rank == 3
    assert sol.rank_deficient


def test_input_validation():
    with pytest.raises(NonFiniteInput):
        solve_least_squares([[1.0], [np.nan]], [1.0, 2.0])
    with pytest.raises(NonFiniteInput):
        solve_least_squares([[1.0], [2.0]], [1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        solve_least_squares(np.eye(3), [1.0, 2.0])
    with pytest.raises(TooFewObservations):
        solve_least_squares(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="at least one row and one column"):
        solve_least_squares(np.ones((3, 0)), [1.0, 2.0, 3.0])


def test_one_dimensional_design_is_one_column():
    x, b = [1.0, 2.0, 4.0], [2.0, 4.1, 7.9]
    column = solve_least_squares([[v] for v in x], b)
    sol = solve_least_squares(x, b)
    assert sol.coefficients.tolist() == column.coefficients.tolist()
    assert (sol.rank, sol.residual_norm) == (1, column.residual_norm)
