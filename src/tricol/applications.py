"""Markov-chain solvers built on the structured inversion.

Stationary distributions come from row 0 of the inverse of B = Q - delta'
delta, which only needs the gamma ratios: one O(n) backward ratio sweep,
then a normalization.  Absorbing birth-and-death chains use the closed-form
generators with a zero first row of the inverse.  Discounted value functions
take one route for every generator: one LAPACK ``gtsv`` call with two
right-hand sides, joined by the rank-one identity for Q's column 0, whose
rank-one term is exactly zero for birth-and-death chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import general
from .errors import (
    DegenerateRates,
    InfiniteExtent,
    NoConvergence,
    NotNormalizable,
    ShapeMismatch,
    SingularMatrix,
    ValidationError,
    ZeroScalarA,
)
from .general import (
    InverseView,
    _Window,
    _bu_horizon,
    _gamma_sweep,
    _window,
    invert as general_invert,
)
from .homogeneous import _hom_generators, hom_constants
from .model import (BandSpec, HomogeneousSpec, StructuredMatrix, _check_nonnegative,
                    _HeadTail, _RangeRule, _realize, validate)


@dataclass
class StationaryResult:
    """Stationary vector with its self-checks."""

    pi: np.ndarray
    residual: float                 # max |pi Q| over computed columns: an absolute
                                    # backward error, no bound on the error in pi
    truncation_level: Optional[int] = None
    tail_bound: Optional[float] = None


@dataclass
class ValueResult:
    """Discounted value function with its residual."""

    values: np.ndarray
    residual: float                 # max |alpha V - c - Q V|


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generator_from_dense(Q: np.ndarray) -> BandSpec:
    """Read a dense conservative generator in band + first-column shape; the
    first faulty row raises its sum error before its off-band entry."""
    Q = np.ascontiguousarray(Q, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n):
        raise ValidationError("generator must be square")
    scale = np.maximum(np.max(Q, axis=1, initial=1.0), -np.min(Q, axis=1, initial=0.0))
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN sum is left to validate()
        unbalanced = np.abs(Q.sum(axis=1)) > 1e-12 * scale
    outside = (Q != 0.0) & (np.tri(n, k=-2, dtype=bool) | ~np.tri(n, k=1, dtype=bool))
    outside[:, :1] = False
    faulty = np.flatnonzero(unbalanced | outside.any(axis=1))
    if faulty.size and unbalanced[faulty[0]]:
        raise ValidationError(f"row {faulty[0]} of Q does not sum to zero")
    if faulty.size:
        i = faulty[0]
        raise ShapeMismatch(f"entry ({i}, {np.argmax(outside[i])}) outside band + column 0")
    qd, qz = np.zeros(n), np.zeros(n)
    if n > 1:
        qd[1:] = np.diagonal(Q, -1)
        qz[2:] = Q[2:, 0]
    return BandSpec.finite(qd, np.append(np.diagonal(Q, 1), 0.0), qz)


def _check_generator(Q: BandSpec) -> BandSpec:
    if not isinstance(Q, BandSpec):
        raise ValidationError("generator must be a BandSpec")
    if Q.is_finite:
        if float(np.asarray(Q.down)[0]) != 0.0:
            raise ValidationError("generator rows must sum to zero: bd[0] must be 0")
        if float(np.asarray(Q.up)[-1]) != 0.0:
            raise ValidationError("finite generator needs qu[last] = 0")
    # row 0's column-0 entry is its diagonal: a rate qz[0] has no place in Q
    qz0 = np.asarray(Q.tozero)[0] if Q.is_finite else Q.tozero(0)
    if float(qz0) != 0.0:
        raise ValidationError("generator row 0 has no to-zero rate: qz[0] must be 0")
    return Q


@dataclass(frozen=True)
class _Shifted(_RangeRule):
    """The down-rates of B = Q - delta' delta: 1.0 at index 0, qd(i) from 1
    on.  A window calls qd once per index past 0, and never at 0."""

    qd: Callable[[int], float]

    def __call__(self, i: int) -> float:
        return 1.0 if i == 0 else self.qd(i)

    def range(self, lo: int, hi: int) -> np.ndarray:
        if lo or hi < 0:
            return _realize(self.qd, lo, hi)
        return np.concatenate(([1.0], _realize(self.qd, 1, hi)))


def _shifted_matrix(Q: BandSpec) -> StructuredMatrix:
    """B = Q - delta' delta: the (0,0) entry drops by one, so bd[0] = 1."""
    if Q.is_finite:
        bd = np.asarray(Q.down, dtype=float).copy()
        bd[0] = 1.0
        return validate(BandSpec.finite(bd, Q.up, Q.tozero))
    return validate(BandSpec.infinite(_Shifted(Q.down), Q.up, Q.tozero, tail_start=Q.tail_start))


def steady_state(Q: BandSpec | np.ndarray, tol: float = 1e-12) -> StationaryResult:
    """Stationary distribution of a conservative generator.

    Computed as row 0 of the inverse of the shifted matrix, normalized;
    the full inverse is never materialized.  An infinite chain is normalized
    over the first level L = LEVEL0, 2*LEVEL0, ... whose mass agrees with
    level L/2's and whose gamma_L is at most ``tol`` of it, with a geometric
    tail bound when the tail is declared homogeneous.  One loop sweeps
    K = 2*LEVEL0, 4*LEVEL0, ...; each sweep serves in order every level L
    with 2L <= K that it makes exact (a bu = 0 cut) or, from K = 4L on,
    whose gamma over 0..L has settled against sweep K/2's.
    """
    if isinstance(Q, np.ndarray):
        Q = generator_from_dense(Q)
    Q = _check_generator(Q)
    m = _shifted_matrix(Q)
    if m.is_finite:
        window = _window(m, m.last)
        gam = _gamma_sweep(*window, _bu_horizon(window[1], m.last))
        return _normalize_pi(Q, gam, None, tol, window)
    win = _Window(m)  # one realization of each index for every sweep below
    level, sweep = general.LEVEL0, 2 * general.LEVEL0
    prev = prev_total = None
    while sweep <= general.MAX_LEVEL:
        gam, cut = general._sweep_level(win, sweep)
        while 2 * level <= sweep and (cut or 4 * level <= sweep and general._settled(
                gam[: level + 1], prev[: level + 1], tol) is not None):
            total = float(np.sum(gam[: level + 1]))
            if prev_total is not None and abs(total - prev_total) <= tol * total \
                    and gam[level] <= tol * total:
                res = _normalize_pi(Q, gam[: level + 1], level, tol, win.upto(level))
                res.tail_bound = _tail_bound(Q, gam[: level + 1], total)
                return res
            prev_total = total
            level *= 2
        sweep *= 2
        # sweep K reads gamma over 0..K/4 of the one before, which dies here
        prev = gam[: sweep // 4 + 1].copy() if sweep <= general.MAX_LEVEL else None
        del gam
    raise NoConvergence(f"row-0 ratios did not stabilize by level {general.MAX_LEVEL}")


def _normalize_pi(Q: BandSpec, gam: np.ndarray, level, tol, window=None) -> StationaryResult:
    """pi = gam / sum(gam) and max |pi Q| over the columns pi fixes.

    ``window`` is (qd, qu, qz) over gam's indices: the shifted
    matrix's rates as ``steady_state`` realized them or, when None, a finite
    Q's own.  The shift changes only qd[0], which no column reads: column 0
    takes qd[0] + qu[0] as qu[0] (``_check_generator`` makes qd[0] = 0).
    """
    total = float(np.sum(gam))
    if not math.isfinite(total) or total <= 0.0:
        raise NotNormalizable(f"total mass {total}")
    pi = gam / total
    n = len(pi)
    qd, qu, qz = Q.rates(Q.last) if window is None else window
    worst = 0.0
    if Q.is_finite:
        # column 0 of pi Q
        col0 = -qu[0] * pi[0]
        if n > 1:
            col0 += (qd[1] + qz[1]) * pi[1] + float(np.dot(qz[2:n], pi[2:n]))
        worst = abs(col0)
    # columns j = 1..hi-1: qu[j-1] pi[j-1] - qw[j] pi[j] + qd[j+1] pi[j+1]
    hi = n if Q.is_finite else n - 1
    qw = qd[1:hi] + qu[1:hi] + qz[1:hi]
    v = qu[: hi - 1] * pi[: hi - 1] - qw * pi[1:hi]
    k = min(hi, n - 1) - 1          # columns whose j + 1 is in range
    v[:k] += qd[2: k + 2] * pi[2: k + 2]
    worst = float(np.max(np.abs(v), initial=worst))
    return StationaryResult(pi=pi, residual=worst, truncation_level=level)


def _tail_bound(Q: BandSpec, gam: np.ndarray, total: float) -> Optional[float]:
    """The mass past gam's last index from the declared homogeneous tail;
    None unless that index lies in the tail, where the ratio is gamma."""
    if Q.tail_start is None or len(gam) - 1 < Q.tail_start:
        return None
    i = max(Q.tail_start, 1)
    try:
        consts = hom_constants(HomogeneousSpec(
            bd=Q.down(i), bu=Q.up(i), bz=Q.tozero(i)))
    except DegenerateRates:
        return None
    g = consts.gamma
    if not 0.0 < g < 1.0:
        return None
    return float(gam[-1]) * g / (1.0 - g) / total


# ---------------------------------------------------------------------------
# absorbing birth-and-death chains
# ---------------------------------------------------------------------------

def absorbing_bd_spec(bd: float, bu: float, bz: float,
                      last: Optional[int] = None,
                      shape: str = "absorbing") -> BandSpec:
    """Band spec of the absorbing chain: state 0 absorbs at rate bd.

    ``shape`` is "absorbing" for the variant whose first transient state has
    no down-rate (bd[1] = 0) or "original" for the plain bu[0] = 0 matrix.
    """
    if shape not in ("absorbing", "original"):
        raise ShapeMismatch(f"unknown shape {shape!r}")
    if bd <= 0.0 or bu <= 0.0 or bz < 0.0:
        raise ShapeMismatch("need bd > 0, bu > 0, bz >= 0")
    bd1 = 0.0 if shape == "absorbing" else bd
    if last is not None:
        n = last + 1
        down = np.full(n, bd)
        if n > 1:
            down[1] = bd1
        up = np.full(n, bu)
        up[0] = 0.0
        up[-1] = 0.0
        toz = np.full(n, bz)
        toz[0] = 0.0
        return BandSpec.finite(down, up, toz)
    return BandSpec.infinite(_HeadTail([bd, bd1], bd), _HeadTail([0.0], bu),
                             _HeadTail([0.0], bz), tail_start=2)


def absorbing_bd_invert(bd: float, bu: float, bz: float,
                        n: int, last: Optional[int] = None,
                        shape: str = "absorbing",
                        tol: float = 1e-12) -> InverseView:
    """Inverse of the absorbing birth-and-death matrix (leading n x n block).

    The infinite chain uses the closed-form generators: constant column 0,
    zero row 0 beyond column 0, the shape-specific c(1,1), then ratio gamma
    rightward and psi downward.  Finite truncations defer to the
    general algorithm.
    """
    spec = absorbing_bd_spec(bd, bu, bz, last=last, shape=shape)
    m = validate(spec)
    if last is not None:
        return general_invert(m, n=min(n, last + 1), tol=tol)
    hom = HomogeneousSpec(bd=bd, bu=bu, bz=bz)
    c11 = absorbing_c11(bd, bu, bz, shape=shape)
    return InverseView.from_generators(
        m, tol, *_hom_generators(hom, n, zero_row0=True, c11=c11))


def absorbing_c11(bd: float, bu: float, bz: float, shape: str = "absorbing") -> float:
    """The (1,1) inverse entry of the absorbing chain."""
    g = hom_constants(HomogeneousSpec(bd=bd, bu=bu, bz=bz)).gamma
    if shape == "absorbing":
        return 1.0 / (-bz - bu + bd * g)
    if shape == "original":
        return 1.0 / (bd * g - (bz + bd + bu))
    raise ShapeMismatch(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# discounted value functions
# ---------------------------------------------------------------------------

def value_function(Q: BandSpec | np.ndarray, cost: Sequence[float],
                   discount: float, tol: float = 1e-12) -> ValueResult:
    """Solve alpha V = c + Q V, i.e. V = -(Q - alpha I)^{-1} c.

    Q - alpha I is a tridiagonal T plus the rank-one term u delta carrying
    Q's out-of-band column-0 entries, so V costs one O(n) LAPACK ``gtsv``
    call on the right-hand sides [c, u] and the Sherman-Morrison identity;
    for a birth-and-death chain u = 0 and the rank-one term is exactly zero.
    The solve is direct, so ``tol`` is unused.  Rates must be finite and
    nonnegative (NonFiniteRate, NegativeRate).
    """
    if isinstance(Q, np.ndarray):
        Q = generator_from_dense(Q)
    Q = _check_generator(Q)
    if not Q.is_finite:
        raise InfiniteExtent("value functions are computed for finite generators")
    if discount <= 0.0:
        raise ValidationError(f"discount must be positive, got {discount}")
    c = np.asarray(cost, dtype=float)
    n = Q.last + 1
    if len(c) != n:
        raise ValidationError(f"cost length {len(c)} != state count {n}")
    qd = np.asarray(Q.down, dtype=float)
    qu = np.asarray(Q.up, dtype=float)
    qz = np.asarray(Q.tozero, dtype=float)
    _check_nonnegative(qd, qu, qz)  # a zero-rate absorbing state is legal here
    V = _value_band_column(qd, qu, qz, c, discount)
    residual = _bellman_residual(qd, qu, qz, V, c, discount)
    return ValueResult(values=V, residual=residual)


def _value_band_column(qd, qu, qz, c, alpha) -> np.ndarray:
    # Q - alpha I = T + u delta with T tridiagonal and u the out-of-band column
    n = len(qd)
    qw = qd + qu + qz
    diag = -(qw + alpha)
    u = np.zeros(n)
    u[2:] = qz[2:]
    rhs = np.column_stack((c, u))
    if n == 1:
        xy = rhs / diag[0]
    else:
        sub = qd[1:].copy()
        sub[0] += qz[1]  # row 1's column-0 entry sits on the subdiagonal
        # one partial-pivoting elimination for both right-hand sides
        _, _, _, xy, info = dgtsv(sub, diag, qu[: n - 1], rhs, overwrite_dl=1,
                                  overwrite_d=1, overwrite_b=1)
        if info > 0:
            raise SingularMatrix(f"tridiagonal pivot {info} is exactly zero")
    x, y = xy[:, 0], xy[:, 1]
    a = 1.0 + y[0]
    if abs(a) <= 1e-14 * (1.0 + float(np.max(np.abs(y)))):
        raise ZeroScalarA(f"rank-one scalar {a}")
    sol = x - y * (x[0] / a)
    return -sol


def _bellman_residual(qd, qu, qz, V, c, alpha) -> float:
    qv = -(qd + qu + qz) * V
    qv[0] = -(qd[0] + qu[0]) * V[0]
    qv[1:] += qz[1:] * V[0] + qd[1:] * V[:-1]   # row 1's subdiagonal is column 0
    qv[:-1] += qu[:-1] * V[1:]
    return float(np.max(np.abs(alpha * V - c - qv)))
