"""Self-contained phase-1 simplex for box-constrained linear feasibility.

Decides whether {x : A x >= b, 0 <= x <= ub} is nonempty by minimizing the
sum of artificial variables.  Dense tableau with Bland's anti-cycling rule;
intended for the small systems produced by the contraction module.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9  # reduced costs, pivots and ratio ties below this count as zero


def feasible_box(A, b, ub) -> bool:
    """True iff some x with 0 <= x <= ub satisfies A x >= b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    ub = np.asarray(ub, dtype=float)
    m, n = A.shape

    # Rows: A x - s + a = b (artificials only where b > 0), and x + t = ub.
    # Starting basis: artificials / surplus on the first block, slacks on the
    # second.  Minimize the artificial sum.
    neg = b < 0
    A = A.copy()
    b = b.copy()
    A[neg] *= -1.0  # flip rows with negative rhs: -A x + s' = -b, s' >= 0
    b[neg] *= -1.0
    sign = np.where(neg, 1.0, -1.0)  # surplus sign per row after flipping

    n_rows = m + n
    n_cols = n + m + n + m  # x, surplus, box slacks, artificials
    T = np.zeros((n_rows + 1, n_cols + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.diag(sign)
    T[:m, -1] = b
    T[m : m + n, :n] = np.eye(n)
    T[m : m + n, n + m : n + m + n] = np.eye(n)
    T[m : m + n, -1] = ub
    art = n + m + n
    T[:m, art : art + m] = np.eye(m)

    basis = list(range(art, art + m)) + list(range(n + m, n + m + n))
    # Objective: minimize sum of artificials; express in terms of nonbasics.
    T[-1, :] = -T[:m, :].sum(axis=0)
    T[-1, art : art + m] = 0.0

    for _ in range(50 * n_cols):
        # Bland: entering = smallest index with negative reduced cost.
        enter = -1
        for j in range(n_cols):
            if T[-1, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        col = T[:n_rows, enter]
        rhs = T[:n_rows, -1]
        best_ratio, leave = None, -1
        for i in range(n_rows):
            if col[i] > PIVOT_TOL:
                ratio = rhs[i] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed system")
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(n_rows + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex failed to converge")

    return -T[-1, -1] < PIVOT_TOL
