"""Linear feasibility via a phase-1 simplex with Bland's rule.

Problems here are tiny (tens of variables and rows), so a dense
tableau is fine.  Bland's pivoting rule guarantees termination, which
keeps the feasibility verdicts deterministic and platform-independent.
"""

from __future__ import annotations

import numpy as np

from .config import active_tolerances
from .errors import NumericalFailure


def feasible_point(a_ub: np.ndarray, b_ub: np.ndarray):
    """Find x >= 0 with A x <= b, or report infeasibility.

    Returns ``(feasible, x)``; on infeasibility ``x`` is the phase-1
    optimum (the least-total-violation point), which is still useful
    for reporting.  The verdict allows the active ``lp_residual``.
    """
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.ndim != 2:
        a = a.reshape((len(b), 0)) if a.size == 0 else np.atleast_2d(a)
    m, n = a.shape
    tol = active_tolerances().lp_residual
    if m == 0:
        return True, np.zeros(n)
    if n == 0:
        return bool(b.min(initial=0.0) >= -tol), np.zeros(0)

    # standard form: A x + s = b with x, s >= 0; flip rows with b < 0 and
    # give them artificial variables, which start in the basis
    neg = b < 0
    sign = np.where(neg, -1.0, 1.0)[:, None]
    eye = np.eye(m)
    t = np.hstack([a * sign, eye * sign, eye[:, neg], b[:, None] * sign])
    total = t.shape[1] - 1
    cost = np.zeros(total)
    cost[n + m:] = 1.0
    basis = n + np.arange(m)
    basis[neg] = n + m + np.arange(total - n - m)

    for _ in range(200000):
        # reduced costs for the phase-1 objective; Bland: smallest index
        red = cost - cost[basis] @ t[:, :total]
        red[basis] = 0.0
        entering = int(np.argmax(red < -1e-11))
        if not red[entering] < -1e-11:
            break
        # ratio test in row order, ties to the smallest basic index
        rows = np.flatnonzero(t[:, entering] > 1e-11)
        ratios = t[rows, -1] / t[rows, entering]
        best, leaving = None, -1
        for row, ratio in zip(rows.tolist(), ratios.tolist()):
            if (best is None or ratio < best - 1e-12
                    or (abs(ratio - best) <= 1e-12
                        and basis[row] < basis[leaving])):
                best, leaving = ratio, row
        if leaving < 0:
            raise NumericalFailure("phase-1 objective unbounded (impossible)")
        t[leaving] /= t[leaving, entering]
        rows = np.flatnonzero(t[:, entering])
        rows = rows[rows != leaving]
        t[rows] -= t[rows, entering, None] * t[leaving]
        basis[leaving] = entering
    else:
        raise NumericalFailure("simplex did not terminate")

    obj = float(cost[basis] @ t[:, -1])
    x = np.zeros(total)
    x[basis] = t[:, -1]
    point = np.clip(x[:n], 0.0, None)
    resid = float((a @ point - b).max(initial=0.0))
    return obj <= tol and resid <= tol, point
