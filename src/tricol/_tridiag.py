"""Small tridiagonal solve kernel for spectral inverse iteration.

Its one caller is ``spectral``, which relies on the zero-pivot nudge to
iterate against (near-)singular shifts; value functions use LAPACK ``gtsv``.
"""

from __future__ import annotations

import numpy as np


def tridiag_solve_pivot(sub, diag, sup, rhs):
    """Solve a tridiagonal system with partial pivoting (2-band fill-in).

    ``sub`` and ``sup`` have length n-1; exact zero pivots are nudged so the
    caller can run inverse iteration against (near-)singular shifts.
    """
    n = len(diag)
    b = np.asarray(diag, dtype=float).copy()
    f = np.asarray(rhs, dtype=float).copy()
    a = np.zeros(n)
    c = np.zeros(n)
    d2 = np.zeros(n)
    a[1:] = sub
    c[: n - 1] = sup
    for k in range(n - 1):
        if abs(a[k + 1]) > abs(b[k]):
            b[k], a[k + 1] = a[k + 1], b[k]
            ck = c[k]
            c[k] = b[k + 1]
            b[k + 1] = ck
            if k + 2 < n:
                d2[k] = c[k + 1]
                c[k + 1] = 0.0
            f[k], f[k + 1] = f[k + 1], f[k]
        if b[k] == 0.0:
            b[k] = 1e-300
        mult = a[k + 1] / b[k]
        b[k + 1] -= mult * c[k]
        if k + 2 < n:
            c[k + 1] -= mult * d2[k]
        f[k + 1] -= mult * f[k]
    if b[n - 1] == 0.0:
        b[n - 1] = 1e-300
    x = np.zeros(n)
    x[n - 1] = f[n - 1] / b[n - 1]
    if n > 1:
        x[n - 2] = (f[n - 2] - c[n - 2] * x[n - 1]) / b[n - 2]
    for k in range(n - 3, -1, -1):
        x[k] = (f[k] - c[k] * x[k + 1] - d2[k] * x[k + 2]) / b[k]
    return x
