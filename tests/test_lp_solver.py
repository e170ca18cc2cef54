import numpy as np
import pytest
from scipy.optimize import linprog

from polyradii import lp_solver
from polyradii.lp_solver import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MalformedProgramError,
    solve,
)


def make_lp(c, rows):
    lhs = np.array([r[0] for r in rows], dtype=float)
    relations = tuple(r[1] for r in rows)
    rhs = np.array([r[2] for r in rows], dtype=float)
    return LinearProgram(np.asarray(c, dtype=float), lhs, relations, rhs)


def test_minimize_x_with_floor():
    out = solve(make_lp([1.0], [([1.0], GREATER_EQUAL, 1.0)]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.solution[0] == pytest.approx(1.0, abs=1e-9)


def test_contradictory_bounds_are_infeasible():
    out = solve(make_lp([0.0], [([1.0], LESS_EQUAL, 0.0), ([1.0], GREATER_EQUAL, 1.0)]))
    assert out.status == INFEASIBLE


def test_plane_cut():
    out = solve(make_lp([1.0, 1.0], [([1.0, 1.0], GREATER_EQUAL, 2.0)]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)


def test_unbounded_detected():
    out = solve(make_lp([-1.0], [([1.0], GREATER_EQUAL, 0.0)]))
    assert out.status == UNBOUNDED


def test_equality_rows():
    out = solve(make_lp([0.0, 1.0], [([1.0, 1.0], EQUAL, 4.0), ([1.0, -1.0], EQUAL, 0.0)]))
    assert out.status == OPTIMAL
    assert out.solution == pytest.approx([2.0, 2.0], abs=1e-9)


def test_malformed_programs_rejected():
    with pytest.raises(MalformedProgramError):
        LinearProgram(np.array([1.0]), np.array([[1.0, 2.0]]), (LESS_EQUAL,), np.array([1.0]))
    with pytest.raises(MalformedProgramError):
        make_lp([1.0], [([1.0], "<", 1.0)])
    with pytest.raises(MalformedProgramError):
        make_lp([np.nan], [([1.0], LESS_EQUAL, 1.0)])


def test_classic_cycling_instance():
    # Beale's example stalls Dantzig pivoting without an anti-cycling rule.
    lp = make_lp(
        [-0.75, 150.0, -0.02, 6.0],
        [
            ([0.25, -60.0, -1.0 / 25.0, 9.0], LESS_EQUAL, 0.0),
            ([0.5, -90.0, -1.0 / 50.0, 3.0], LESS_EQUAL, 0.0),
            ([0.0, 0.0, 1.0, 0.0], LESS_EQUAL, 1.0),
        ],
    )
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-9)


def _random_program(rng, m, n):
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.0, 2.0, size=n)
    slack = rng.uniform(0.1, 1.0, size=m)
    relations = []
    rhs = np.empty(m)
    for i in range(m):
        kind = rng.integers(0, 3)
        if kind == 0:
            relations.append(LESS_EQUAL)
            rhs[i] = a[i] @ x_feas + slack[i]
        elif kind == 1:
            relations.append(GREATER_EQUAL)
            rhs[i] = a[i] @ x_feas - slack[i]
        else:
            relations.append(EQUAL)
            rhs[i] = a[i] @ x_feas
    c = rng.normal(size=n)
    return LinearProgram(c, a, tuple(relations), rhs), x_feas


def _scipy_reference(lp):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rel, b in zip(lp.lhs, lp.relations, lp.rhs):
        if rel == LESS_EQUAL:
            a_ub.append(row)
            b_ub.append(b)
        elif rel == GREATER_EQUAL:
            a_ub.append(-row)
            b_ub.append(-b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    return linprog(
        lp.objective,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )


def test_agrees_with_scipy_on_random_programs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        lp, _ = _random_program(rng, m, n)
        ours = solve(lp)
        ref = _scipy_reference(lp)
        if ref.status == 0:
            assert ours.status == OPTIMAL
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)
        elif ref.status == 3:
            assert ours.status == UNBOUNDED
        elif ref.status == 2:
            assert ours.status == INFEASIBLE


def test_weak_duality_against_sampled_feasible_points():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        lp, x_feas = _random_program(rng, m, n)
        out = solve(lp)
        if out.status != OPTIMAL:
            continue
        # The known feasible point can never beat the reported optimum.
        assert lp.objective @ x_feas >= out.value - 1e-8


def test_positive_rescaling_scales_the_optimum():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        lp, _ = _random_program(rng, m, n)
        base = solve(lp)
        if base.status != OPTIMAL:
            continue
        alpha = float(rng.uniform(0.5, 4.0))
        tol = 1e-8 * max(1.0, alpha)
        scaled_cost = LinearProgram(alpha * lp.objective, lp.lhs, lp.relations, lp.rhs)
        out = solve(scaled_cost)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(alpha * base.value, abs=tol)
        # Scaling the right-hand side scales the feasible set, hence the
        # optimum, by the same factor (all lower bounds are zero).
        scaled_rhs = LinearProgram(lp.objective, lp.lhs, lp.relations, alpha * lp.rhs)
        out = solve(scaled_rhs)
        assert out.status == OPTIMAL
        assert out.value == pytest.approx(alpha * base.value, abs=tol)


def test_optimal_solutions_respect_all_constraints():
    rng = np.random.default_rng(11)
    for _ in range(40):
        lp, _ = _random_program(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        out = solve(lp)
        if out.status != OPTIMAL:
            continue
        ax = lp.lhs @ out.solution
        for i, rel in enumerate(lp.relations):
            if rel == LESS_EQUAL:
                assert ax[i] <= lp.rhs[i] + 1e-8
            elif rel == GREATER_EQUAL:
                assert ax[i] >= lp.rhs[i] - 1e-8
            else:
                assert ax[i] == pytest.approx(lp.rhs[i], abs=1e-8)


def test_duals_certify_equality_optimum():
    # min x + 2y s.t. x + y = 3, x - y = 1 has the unique solution (2, 1);
    # the multipliers must reproduce the cost row on basic columns.
    lp = make_lp([1.0, 2.0], [([1.0, 1.0], EQUAL, 3.0), ([1.0, -1.0], EQUAL, 1.0)])
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.duals is not None
    assert out.duals @ lp.rhs == pytest.approx(out.value, abs=1e-9)


def test_stall_guard_reports_numerical_failure():
    lp = make_lp([1.0, 1.0], [([1.0, 1.0], GREATER_EQUAL, 2.0)])
    out = lp_solver.solve(lp, max_iterations=1)
    assert out.status == lp_solver.NUMERICAL_FAILURE


def test_duals_are_certificates_on_equality_programs():
    # For min c'x s.t. Ax = b, x >= 0 the duals must be feasible for the
    # dual program (A'y <= c) and close the gap (b'y equals the optimum).
    # This certificate holds for any optimal dual, so degeneracy is fine.
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = a @ x_feas
        c = rng.normal(size=n)
        lp = LinearProgram(c, a, (EQUAL,) * m, b)
        out = solve(lp)
        if out.status != OPTIMAL:
            continue  # unbounded draws are uninteresting here
        assert out.duals is not None
        assert (a.T @ out.duals <= c + 1e-8).all()
        assert out.duals @ b == pytest.approx(out.value, abs=1e-7)
        checked += 1


def test_basis_reproduces_the_right_hand_side():
    # For min c'x s.t. Ax = b, x >= 0 every variable off the basis is zero,
    # so the basic program columns alone reproduce b from the solution.
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        a = rng.normal(size=(m, n))
        b = a @ rng.uniform(0.0, 2.0, size=n)
        out = solve(LinearProgram(rng.normal(size=n), a, (EQUAL,) * m, b))
        if out.status != OPTIMAL:
            continue
        assert out.basis.shape == (m,)
        assert np.unique(out.basis).size == m
        structural = out.basis[out.basis < n]
        assert a[:, structural] @ out.solution[structural] == pytest.approx(b, abs=1e-8)
        assert (np.delete(out.solution, structural) == 0.0).all()
        checked += 1
    infeasible = solve(make_lp([1.0], [([1.0], LESS_EQUAL, -1.0)]))
    assert infeasible.status == INFEASIBLE
    assert infeasible.basis is None


def test_kernel_is_unbounded_when_no_step_entry_exceeds_the_pivot_floor():
    # min -z_2 subject to z_0 + a z_2 = 1, z_1 + b z_2 = 1 from the basis
    # (0, 1): column 2 prices in, and its step B^-1 a_2 = (a, b) has no
    # entry above PIVOT_TOL, so the ratio test is empty and the basis stays.
    for step in ([-1.0, 0.0], [0.5 * lp_solver.PIVOT_TOL, -2.0], [0.0, 0.0]):
        columns = np.array([[1.0, 0.0], [0.0, 1.0], step])
        basis = np.array([0, 1])
        status, _, prices = lp_solver._primal(columns, np.array([0.0, 0.0, -1.0]),
                                              np.ones(2), basis, 10)
        assert status == UNBOUNDED and basis.tolist() == [0, 1]
        assert prices.tolist() == [0.0, 0.0]


def test_a_program_without_rows_is_its_bounds_alone():
    # Only x >= 0 constrains it: the origin is optimal for non-negative
    # costs, and a negative cost is unbounded.
    def no_rows(c):
        return LinearProgram(np.array(c), np.zeros((0, 2)), (), np.zeros(0))

    out = solve(no_rows([1.0, 2.0]))
    assert out.status == OPTIMAL and out.value == 0.0
    assert out.solution.tolist() == [0.0, 0.0] and out.basis.size == out.duals.size == 0
    assert solve(no_rows([-1.0, 0.0])).status == UNBOUNDED
