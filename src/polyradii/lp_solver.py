"""Dense two-phase simplex solver for small gauge and membership programs.

The public LP solver, and the one of the gauge LPs and ``member``; the
containment masters of ``radii`` run their own revised simplex.  Programs
have d or d + 1 rows, so the tableau is kept dense and pivoting favours
robustness over speed.  Entering columns follow Dantzig's rule until pivots
stall, then switch permanently to Bland's rule, which rules out cycling.
Pivot and feasibility thresholds are the fixed ``PIVOT_TOL`` and
``FEASIBILITY_TOL``; callers scale their rows to suit them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-8

# Consecutive non-improving pivots tolerated before Bland's rule takes over.
_STALL_LIMIT = 40


class MalformedProgramError(ValueError):
    """Raised when a LinearProgram is structurally inconsistent."""


@dataclass(frozen=True)
class LinearProgram:
    """minimize ``objective @ x`` subject to ``lhs[i] @ x <rel_i> rhs[i]``
    and ``x >= 0``.

    Encode any other bound on a variable as a row, and a free variable as
    the difference of two non-negative ones.
    """

    objective: np.ndarray
    lhs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        b = np.asarray(self.rhs, dtype=float).ravel()
        if c.ndim != 1 or c.size == 0:
            raise MalformedProgramError("objective must be a non-empty vector")
        if a.shape != (b.size, c.size):
            raise MalformedProgramError(
                f"constraint shape {a.shape} does not match "
                f"{b.size} rows x {c.size} variables"
            )
        if len(self.relations) != b.size:
            raise MalformedProgramError("one relation required per constraint row")
        for rel in self.relations:
            if rel not in _RELATIONS:
                raise MalformedProgramError(f"unknown relation {rel!r}")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise MalformedProgramError("non-finite coefficient in program")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict.  solution/value/duals/basis are populated only when optimal.

    ``duals`` carries one multiplier per constraint row, oriented to the row
    as given (see :func:`solve`).  ``basis`` holds the index of the basic
    column of each row in the solver's standard form: indices below the
    variable count are the program's own variables; larger ones are slacks,
    then artificials parked on dependent rows.
    """

    status: str
    solution: np.ndarray | None = None
    value: float | None = None
    duals: np.ndarray | None = None
    basis: np.ndarray | None = None


def solve(lp: LinearProgram, *, max_iterations: int | None = None) -> LpOutcome:
    """Solve ``lp`` with a two-phase dense simplex.

    Returns an LpOutcome whose status is one of ``optimal``, ``infeasible``,
    ``unbounded`` or ``numerical-failure`` (iteration guard tripped).  When
    optimal, the solution satisfies every constraint within
    ``FEASIBILITY_TOL`` and ``duals`` solves the basis system, so for
    equality rows it is the usual Lagrange multiplier vector.
    """
    m, n = lp.lhs.shape

    # Orient rows to non-negative right-hand sides.
    relations = list(lp.relations)
    row_sign = np.ones(m)
    a_work = lp.lhs.copy()
    b_work = lp.rhs.copy()
    for i in range(m):
        if b_work[i] < 0:
            a_work[i] *= -1.0
            b_work[i] *= -1.0
            row_sign[i] = -1.0
            if relations[i] == LESS_EQUAL:
                relations[i] = GREATER_EQUAL
            elif relations[i] == GREATER_EQUAL:
                relations[i] = LESS_EQUAL

    n_slack = sum(1 for r in relations if r != EQUAL)
    n_art = sum(1 for r in relations if r != LESS_EQUAL)
    total = n + n_slack + n_art

    a_std = np.zeros((m, total))
    a_std[:, :n] = a_work
    basis = np.empty(m, dtype=int)
    slack_col = n
    art_col = n + n_slack
    art_cols = []
    for i in range(m):
        if relations[i] == LESS_EQUAL:
            a_std[i, slack_col] = 1.0
            basis[i] = slack_col
            slack_col += 1
        elif relations[i] == GREATER_EQUAL:
            a_std[i, slack_col] = -1.0
            slack_col += 1
            a_std[i, art_col] = 1.0
            basis[i] = art_col
            art_cols.append(art_col)
            art_col += 1
        else:
            a_std[i, art_col] = 1.0
            basis[i] = art_col
            art_cols.append(art_col)
            art_col += 1
    art_cols = np.array(art_cols, dtype=int)

    if max_iterations is None:
        max_iterations = 20 * (m + total) + 200

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = a_std
    tableau[:m, total] = b_work
    banned = np.zeros(total, dtype=bool)

    # Phase 1: minimise the sum of artificial variables.
    if art_cols.size:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        _install_cost_row(tableau, basis, cost1)
        status = _iterate(tableau, basis, banned, max_iterations)
        if status != OPTIMAL:
            # Phase 1 is bounded below by zero, so anything else is numeric.
            return LpOutcome(NUMERICAL_FAILURE)
        if -tableau[m, total] > FEASIBILITY_TOL:
            return LpOutcome(INFEASIBLE)
        # Pivot lingering artificials out of the basis where possible;
        # a row that cannot release its artificial is linearly dependent and
        # stays parked at level zero with its column banned.
        banned[art_cols] = True
        for r in range(m):
            if basis[r] in art_cols:
                row = tableau[r, :total]
                candidates = np.flatnonzero((np.abs(row) > PIVOT_TOL) & ~banned)
                if candidates.size:
                    _pivot(tableau, r, int(candidates[0]))
                    basis[r] = int(candidates[0])

    # Phase 2 with the real objective.
    cost2 = np.zeros(total)
    cost2[:n] = lp.objective
    _install_cost_row(tableau, basis, cost2)
    status = _iterate(tableau, basis, banned, max_iterations)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)
    if status != OPTIMAL:
        return LpOutcome(NUMERICAL_FAILURE)

    x_std = np.zeros(total)
    basic_values = tableau[:m, total]
    # Re-solve the basic system against the untouched constraint matrix:
    # thousands of dense pivots accumulate drift that a single clean solve
    # removes.
    try:
        refreshed = np.linalg.solve(a_std[:, basis], b_work)
        if refreshed.min() >= -FEASIBILITY_TOL:
            basic_values = refreshed
    except np.linalg.LinAlgError:
        pass
    x_std[basis] = np.maximum(basic_values, 0.0)
    solution = x_std[:n]
    value = float(lp.objective @ solution)

    if _max_violation(lp.lhs, lp.relations, lp.rhs, solution) > FEASIBILITY_TOL:
        return LpOutcome(NUMERICAL_FAILURE)

    duals = _recover_duals(a_std, basis, cost2, row_sign)
    return LpOutcome(OPTIMAL, solution=solution, value=value, duals=duals,
                     basis=basis.copy())


def _install_cost_row(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    m = tableau.shape[0] - 1
    tableau[m, :-1] = cost
    tableau[m, -1] = 0.0
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0.0:
            tableau[m] -= cb * tableau[r]


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    piv_row = tableau[row] / tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, piv_row)
    tableau[row] = piv_row
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _iterate(tableau: np.ndarray, basis: np.ndarray, banned: np.ndarray,
             max_iterations: int) -> str:
    m = tableau.shape[0] - 1
    total = tableau.shape[1] - 1
    bland = False
    stall = 0
    last_objective = -tableau[m, total]
    for _ in range(max_iterations):
        reduced = tableau[m, :total]
        eligible = (reduced < -PIVOT_TOL) & ~banned
        if not eligible.any():
            return OPTIMAL
        if bland:
            col = int(np.flatnonzero(eligible)[0])
        else:
            masked = np.where(eligible, reduced, np.inf)
            col = int(np.argmin(masked))
        column = tableau[:m, col]
        positive = column > PIVOT_TOL
        if not positive.any():
            return UNBOUNDED
        # Drift can leave right-hand sides slightly negative; reading them as
        # zero keeps every ratio non-negative, so no pivot leaves feasibility.
        ratios = np.full(m, np.inf)
        rhs = np.maximum(tableau[:m, total], 0.0)
        ratios[positive] = rhs[positive] / column[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12)
        if bland:
            # Smallest basis index among ties: required for Bland's rule.
            row = int(ties[np.argmin(basis[ties])])
        else:
            # Largest pivot element among ties: the most stable division.
            row = int(ties[np.argmax(column[ties])])
        _pivot(tableau, row, col)
        basis[row] = col
        objective = -tableau[m, total]
        if objective < last_objective - 1e-13:
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_objective = objective
    return NUMERICAL_FAILURE


def _max_violation(a: np.ndarray, relations: tuple[str, ...], b: np.ndarray,
                   x: np.ndarray) -> float:
    ax = a @ x
    worst = 0.0
    for i, rel in enumerate(relations):
        if rel == LESS_EQUAL:
            worst = max(worst, ax[i] - b[i])
        elif rel == GREATER_EQUAL:
            worst = max(worst, b[i] - ax[i])
        else:
            worst = max(worst, abs(ax[i] - b[i]))
    return worst


def _recover_duals(a_std: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                   row_sign: np.ndarray) -> np.ndarray | None:
    try:
        y = np.linalg.solve(a_std[:, basis].T, cost[basis])
    except np.linalg.LinAlgError:
        return None
    return row_sign * y
