"""Two-phase revised simplex for small gauge, membership and master programs.

The public LP solver, and the library's one primal simplex: ``solve`` runs
the gauge LPs and ``member`` on it, and the containment masters of
``radii`` call its kernel ``_primal`` from their own warm basis.  Programs
have d or d + 1 rows, so each pivot inverts the basis from the untouched
columns and prices every column in one product; there is no tableau to
drift.  Entering columns follow Dantzig's rule until pivots stall, then
switch permanently to Bland's rule, which rules out cycling.  Values are
read as B^-1 b and duals as c_B B^-1 from the final basis.  Pivot and
feasibility thresholds are the fixed ``PIVOT_TOL`` and ``FEASIBILITY_TOL``,
and the pricing floor is ``PIVOT_TOL`` or 1e-12 of the objective, whichever
is larger; callers scale their rows to suit them.
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
    """Solve ``lp`` with a two-phase revised simplex (``_primal``).

    Returns an LpOutcome whose status is one of ``optimal``, ``infeasible``,
    ``unbounded`` or ``numerical-failure`` (iteration guard tripped, or a
    singular basis).  When optimal, the basic values B^-1 b of the final
    basis B, clipped at zero, satisfy every constraint within
    ``FEASIBILITY_TOL``, and ``duals`` are c_B B^-1, so for equality rows
    they are the usual Lagrange multiplier vector.
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

    columns = a_std.T
    banned = np.zeros(total, dtype=bool)

    # Phase 1: minimise the sum of artificial variables.
    if art_cols.size:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        status, inverse, prices = _primal(columns, cost1, b_work, basis, max_iterations)
        if status != OPTIMAL:
            # Phase 1 is bounded below by zero, so anything else is numeric.
            return LpOutcome(NUMERICAL_FAILURE)
        if prices @ b_work > FEASIBILITY_TOL:
            return LpOutcome(INFEASIBLE)
        # Pivot lingering artificials out of the basis where possible;
        # a row that cannot release its artificial is linearly dependent and
        # stays parked at level zero with its column banned.
        banned[art_cols] = True
        for r in np.flatnonzero(basis >= n + n_slack):
            candidates = np.flatnonzero((np.abs(columns @ inverse[r]) > PIVOT_TOL) & ~banned)
            if candidates.size:
                basis[r] = candidates[0]
                inverse = np.linalg.inv(columns[basis].T)

    # Phase 2 with the real objective.
    cost2 = np.zeros(total)
    cost2[:n] = lp.objective
    status = _primal(columns, cost2, b_work, basis, max_iterations, banned=banned)[0]
    if status != OPTIMAL:
        return LpOutcome(UNBOUNDED if status == UNBOUNDED else NUMERICAL_FAILURE)

    # B^-1 b and c_B B^-1 of the final basis, by LU solves against its
    # untouched columns: on an ill-conditioned basis their residuals stay at
    # rounding, where products with the explicit inverse failed the check
    # below (thin rotated boxes).
    final = columns[basis]
    x_std = np.zeros(total)
    x_std[basis] = np.maximum(np.linalg.solve(final.T, b_work), 0.0)
    solution = x_std[:n]
    value = float(lp.objective @ solution)

    if _max_violation(lp.lhs, lp.relations, lp.rhs, solution) > FEASIBILITY_TOL:
        return LpOutcome(NUMERICAL_FAILURE)

    return LpOutcome(OPTIMAL, solution=solution, value=value,
                     duals=row_sign * np.linalg.solve(final, cost2[basis]), basis=basis.copy())


def _primal(columns: np.ndarray, costs: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
            max_iterations: int, floor: float = PIVOT_TOL, banned: np.ndarray | None = None
            ) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Revised primal simplex (Dantzig 1954): min costs.z subject to
    sum_j z_j columns[j] = rhs, z >= 0, from the feasible ``basis`` (the
    column basic in each row), which is updated in place.

    Each pivot inverts the basis from the untouched ``columns`` and prices
    every column in one product.  A column that is neither basic nor
    ``banned`` enters when its reduced cost is below -max(``floor``,
    1e-12 |objective|), objective = c_B B^-1 rhs: the relative part keeps
    the floor above the rounding of large prices, which a thin body's
    polar vertices reach.  The most negative enters (Dantzig), with the
    largest pivot among ratio ties, until _STALL_LIMIT pivots in a row bring
    no gain, then the least index with the least basic index among ties
    (Bland 1977).  Ratio-test pivots must exceed PIVOT_TOL, and basic values
    below zero count as zero, so no pivot leaves feasibility.  Returns the
    status with the final basis's inverse and prices c_B B^-1 (None on a
    singular basis or at the iteration cap).
    """
    bland, stall, last = False, 0, np.inf
    for _ in range(max_iterations):
        try:
            inverse = np.linalg.inv(columns[basis].T)
        except np.linalg.LinAlgError:
            return NUMERICAL_FAILURE, None, None
        prices = costs[basis] @ inverse
        objective = prices @ rhs
        stall = 0 if objective < last - 1e-13 else stall + 1
        bland, last = bland or stall > _STALL_LIMIT, objective
        reduced = costs - columns @ prices
        reduced[basis] = 0.0
        if banned is not None:
            reduced[banned] = 0.0
        eligible = reduced < -max(floor, 1e-12 * abs(objective))
        enter = int(np.argmax(eligible) if bland else np.argmin(reduced))
        if not eligible[enter]:
            return OPTIMAL, inverse, prices
        step = inverse @ columns[enter]
        rows = np.flatnonzero(step > PIVOT_TOL)
        if not rows.size:
            return UNBOUNDED, inverse, prices
        ratios = np.maximum(inverse[rows] @ rhs, 0.0) / step[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        basis[ties[np.argmin(basis[ties])] if bland else ties[np.argmax(step[ties])]] = enter
    return NUMERICAL_FAILURE, None, None


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
