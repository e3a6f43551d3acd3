"""The phase-1 simplex as a loop per column and per row.

:func:`feasible_point` is ``cqic.lp.feasible_point`` from before each
pivot became a few array operations on the tableau: the entering scan
walks the columns, the ratio test and the elimination walk the rows one
by one, and the set-up and the read-out fill the tableau and the point
entry by entry.  Both apply the same IEEE operations to every tableau
element, so a differential test can compare verdicts and point bytes.
"""

from __future__ import annotations

import numpy as np

from cqic.errors import NumericalFailure


def feasible_point(a_ub: np.ndarray, b_ub: np.ndarray,
                   residual_tol: float = 1e-8):
    """Find x >= 0 with A x <= b, or report infeasibility.

    Returns ``(feasible, x)``; on infeasibility ``x`` is the phase-1
    optimum (the least-total-violation point), which is still useful
    for reporting.
    """
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float).ravel()
    if a.ndim != 2:
        a = a.reshape((len(b), 0)) if a.size == 0 else np.atleast_2d(a)
    m, n = a.shape
    if m == 0:
        return True, np.zeros(n)
    if n == 0:
        return bool(b.min(initial=0.0) >= -residual_tol), np.zeros(0)

    # standard form: A x + s = b with x, s >= 0; flip rows with b < 0 and
    # give them artificial variables
    neg = b < 0
    a_eq = np.hstack([a, np.eye(m)])
    b_eq = b.copy()
    a_eq[neg] *= -1.0
    b_eq[neg] *= -1.0
    n_art = int(neg.sum())
    art_cols = np.zeros((m, n_art))
    for idx, row in enumerate(np.flatnonzero(neg)):
        art_cols[row, idx] = 1.0
    tableau = np.hstack([a_eq, art_cols])
    total = tableau.shape[1]

    cost = np.zeros(total)
    cost[n + m:] = 1.0

    basis = np.empty(m, dtype=int)
    art_at = np.flatnonzero(neg)
    art_idx = {row: n + m + i for i, row in enumerate(art_at)}
    for row in range(m):
        basis[row] = art_idx.get(row, n + row)

    t = np.hstack([tableau, b_eq[:, None]])
    for _ in range(200000):
        # reduced costs for the phase-1 objective
        cb = cost[basis]
        lam = cb @ t[:, :total]
        red = cost - lam
        entering = -1
        for jcol in range(total):
            if red[jcol] < -1e-11 and jcol not in basis:
                entering = jcol  # Bland: smallest index
                break
        if entering < 0:
            break
        col = t[:, entering]
        best_ratio, leaving = None, -1
        for row in range(m):
            if col[row] > 1e-11:
                ratio = t[row, -1] / col[row]
                if (best_ratio is None or ratio < best_ratio - 1e-12
                        or (abs(ratio - best_ratio) <= 1e-12
                            and basis[row] < basis[leaving])):
                    best_ratio, leaving = ratio, row
        if leaving < 0:
            raise NumericalFailure("phase-1 objective unbounded (impossible)")
        piv = t[leaving, entering]
        t[leaving] /= piv
        for row in range(m):
            if row != leaving and t[row, entering] != 0.0:
                t[row] -= t[row, entering] * t[leaving]
        basis[leaving] = entering
    else:
        raise NumericalFailure("simplex did not terminate")

    obj = float(cost[basis] @ t[:, -1])
    x = np.zeros(total)
    for row in range(m):
        x[basis[row]] = t[row, -1]
    point = np.clip(x[:n], 0.0, None)
    resid = float((a @ point - b).max(initial=0.0))
    feasible = obj <= residual_tol and resid <= residual_tol
    return feasible, point
