"""Recursive inversion of band + first-column matrices (the general case).

The inverse C of a validated matrix B is stored by its generators, O(n)
numbers that fix every entry: column 0 is the constant -1/bd[0]; row 0 is
c(0,0) times a running product of over-diagonal ratios b_ov; the diagonal
follows a first-order recursion; rightward of the diagonal every row runs by
the same ratios b_ov, and below it column s obeys
x_r = c(0,s)*a2[r] + b_un[r]*x_{r-1}.  So C is lower-quasiseparable of
order 2 and upper-quasiseparable of order 1.  The coefficients come from
backward sweeps that evaluate the defining equations B C'_j = delta'_j and
C_i B = delta_i with the boundary equation folded in (the textbook forward
recursions excite a growing characteristic mode and lose all accuracy
beyond a few dozen indices).  As in the Grassmann-Taksar-Heyman algorithm,
each sweep carries its pivot's nonnegative surplus, so no pivot is formed by
subtraction and the ratios are entrywise relatively accurate.  One routine
yields the over-diagonal ratios, which are also row 0's: gamma, gamma1 and
the inverse all read it.  On windows of 2048 indices or more it composes
each block's steps into one nonnegative Moebius map (Stone's recursive
doubling), chains the block maps, and then runs the exact step over all
blocks at once, so the sweep costs O(sqrt(n)) interpreted steps instead of
n.  Dense blocks are exported by one vectorized routine, and one doubling
loop, ``_doubling``, certifies every infinite-extent result.

The affine pairs (rho_j, eta_j) of the row-0 system, the segment anchors
used when some bd[i] = 0 and the Prop-3 normalization are the paper's forms;
``gamma_table`` and ``rho_eta`` expose them as test oracles, and no solver
reads them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NoConvergence,
    OutOfRange,
    ShiftUnresolvable,
    ValidationError,
    ZeroDenominator,
)
from .model import StructuredMatrix, _check_rates, _matvec

#: Adaptive truncation schedule for infinite extent.
LEVEL0 = 64
MAX_LEVEL = 1 << 20

#: Magnitude at which running rho/eta accumulators are rescaled.
_RESCALE_AT = 1e250

#: Ratio windows from this many indices on run the blocked sweep, in blocks
#: of max(8, int(_BLOCK_SCALE*sqrt(hi))) indices.
_BLOCKED_FROM = 2048
_BLOCK_SCALE = 0.19
#: Relative gap between a block's exact end surplus and the composite start
#: value of the block below beyond which the scalar loop redoes the blocks.
_BLOCK_MISMATCH = 1e-13
#: An under-diagonal pivot at most this size has vanished: 1/pivot overflows.
_TINY_PIVOT = 2.0 ** -1024


@dataclass
class SolveReport:
    """What a solve did: residuals, truncation level, tolerances, timing."""

    tol: float
    truncation_level: Optional[int] = None
    achieved: Optional[float] = None
    residual: Optional[float] = None  # max |BC - I|: an absolute backward error
    seconds: float = 0.0
    entry_ops: int = 0
    coeff_ops: int = 0


@dataclass
class GammaTable:
    """Row-0 ratios gamma_j = c(0,j)/c(0,0) plus their affine machinery.

    ``gamma`` holds the evaluated ratios (index 0..hi, gamma[0] = 1), taken
    from the stable backward sweep.  ``rho`` and ``eta`` are the raw affine
    coefficients of the piecewise recursion; within a segment [a, a')
    anchored at index a, gamma_j = rho_j * gamma_a + eta_j holds in exact
    arithmetic.  They are the paper's forms, kept as an oracle: they grow
    with the index and overflow to inf/NaN on long segments (n ~ 5000), and
    no solver reads them.  ``zero_set`` lists the indices with
    bd[i] = 0 and ``anchors`` the segment anchor indices (always starting
    at 1).  ``horizon`` is the first index with bu = 0, beyond which the
    whole row is exactly zero; ``hi`` is the last tabulated index.
    """

    gamma: np.ndarray
    rho: np.ndarray
    eta: np.ndarray
    zero_set: tuple
    anchors: tuple
    anchor_values: tuple
    horizon: Optional[int]
    hi: int


def first_column_value(m: StructuredMatrix) -> float:
    """Constant value of every entry in column 0 of the inverse."""
    return -1.0 / m.bd(0)


# ---------------------------------------------------------------------------
# rate window handling
# ---------------------------------------------------------------------------

def _window(m: StructuredMatrix, hi: int):
    """(bd, bu, bz) arrays for 0..hi in one shot; an infinite window is
    validated as it is realized (a solve that grows it uses ``_Window``)."""
    if not m.is_finite:
        return _Window(m).upto(hi)
    return m.band_rates(hi)


class _Window:
    """The growing rate window of one infinite matrix, shared by one solve.

    ``upto(hi)`` returns (bd, bu, bz) over 0..hi, realizing and validating
    only the indices past those it holds, so every doubling level of a
    solve calls the rate rules once per new index.  The row weights bw are
    not held: the code that reads them forms them.  Each array grows by
    allocation, prefix copy and fill; a caller that keeps no view across
    ``upto`` thereby frees the smaller window.
    """

    def __init__(self, m: StructuredMatrix):
        self.m = m
        self.hi = -1
        self._rates: list = []

    def upto(self, hi: int):
        lo = self.hi + 1
        if hi >= lo:
            new = list(self.m.band_rates(hi, lo))
            _check_rates(*new, lo)
            if lo:
                for k in range(3):  # one array at a time: each part dies once copied
                    grown = np.empty(hi + 1)
                    grown[:lo] = self._rates[k]
                    grown[lo:] = new[k]
                    self._rates[k], new[k] = grown, None
            else:
                self._rates = new
            self.hi = hi
        return tuple(a[: hi + 1] for a in self._rates)


def _bu_horizon(bu: np.ndarray, last_structural: Optional[int]) -> Optional[int]:
    """First index with bu[i] = 0, ignoring a finite matrix's final row."""
    stop = len(bu) if last_structural is None else last_structural
    idx = np.where(bu[:stop] == 0.0)[0]
    return int(idx[0]) if idx.size else None


# ---------------------------------------------------------------------------
# paper affine system: rho / eta / anchors  (Prop 2, Prop 3, Prop 6 forms)
# ---------------------------------------------------------------------------

class _AffineGammaSystem:
    """Piecewise rho/eta recursion with segment anchors.

    Sweeps j = 1..hi.  A fresh segment starts at j = 1 and at every index
    with bd[j] = 0.  Closing an interior segment uses the equation whose
    bd term vanishes; the final segment is closed by the column-0
    normalization with sums truncated at hi.  Running pairs are jointly
    rescaled to dodge overflow; the stored rho/eta arrays are the raw
    recursion values, which overflow on long segments.  Only ``rho_eta`` and
    ``gamma_table`` build this system, as the paper's forms and a test
    oracle.  ``gamma_known`` is gamma from the stable sweep: the anchors of
    later segments read it, and it is the stored gamma.
    """

    def __init__(self, bd, bu, bz, hi, gamma_known):
        self.bd, self.bu, self.bz, self.hi = bd, bu, bz, hi
        self.bw = bd + bu + bz
        self.rho = np.zeros(hi + 1)
        self.eta = np.zeros(hi + 1)
        self.gamma = np.zeros(hi + 1)
        self.gamma[0] = 1.0
        self.anchors: list[int] = []
        self.anchor_values: list[float] = []
        self.zero_set = tuple(int(i) for i in range(1, hi + 1) if bd[i] == 0.0)
        self._gamma_known = gamma_known
        self._solve()

    # running state: (r1, r2, e1, e2) = scaled (rho_{j-1}, rho_{j-2}, eta_*),
    # (sr, se) = scaled segment sums of bz*rho and bz*eta, s = scale factor
    def _solve(self):
        bd, bu, bz, bw, hi = self.bd, self.bu, self.bz, self.bw, self.hi
        if hi < 1:
            return
        seg_start = 1
        r1 = r2 = e1 = e2 = 0.0
        sr = se = 0.0
        scale = 1.0

        def close_segment(a: int, nxt: int):
            # gamma_a from the equation at index nxt-1, whose bd[nxt] term is 0
            if nxt == a + 1:
                ga = bu[a - 1] * self.gamma[a - 1] / bw[a]
            else:
                num = bw[nxt - 1] * e1 - bu[nxt - 2] * e2
                den = -bw[nxt - 1] * r1 + bu[nxt - 2] * r2
                if den == 0.0:
                    raise ZeroDenominator(
                        f"segment closing denominator vanished at index {nxt - 1}")
                ga = num / den
            self._finish_segment(a, nxt - 1, ga)

        j = 1
        while j <= hi:
            if j == seg_start:
                self.anchors.append(j)
                self.rho[j], self.eta[j] = 1.0, 0.0
                r1, r2, e1, e2 = 1.0, 0.0, 0.0, 0.0
                sr, se, scale = bz[j] * 1.0, 0.0, 1.0
            else:
                if bd[j] == 0.0:
                    close_segment(seg_start, j)
                    seg_start = j
                    continue
                if j == seg_start + 1:
                    rho_j = bw[j - 1] / bd[j]
                    eta_j = -bu[j - 2] * self.gamma[j - 2] / bd[j]
                else:
                    rho_j = (bw[j - 1] * r1 - bu[j - 2] * r2) / bd[j]
                    eta_j = (bw[j - 1] * e1 - bu[j - 2] * e2) / bd[j]
                self.rho[j] = rho_j * scale
                self.eta[j] = eta_j * scale
                r2, r1, e2, e1 = r1, rho_j, e1, eta_j
                sr += bz[j] * rho_j
                se += bz[j] * eta_j
                peak = max(abs(r1), abs(e1), abs(sr), abs(se))
                if peak > _RESCALE_AT:
                    r1 /= peak; r2 /= peak; e1 /= peak; e2 /= peak
                    sr /= peak; se /= peak
                    scale *= peak
            j += 1

        # normalization closes the last segment (Prop 3 when it is the only one)
        a = seg_start
        inv_scale = 1.0 / scale
        head = self.bu[0]
        if a > 1:
            head -= bd[1] * self.gamma[1]
            head -= float(np.dot(bz[1:a], self.gamma[1:a]))
        num = head * inv_scale - se
        den = sr + (bd[1] * inv_scale if a == 1 else 0.0)
        if den == 0.0:
            raise ZeroDenominator("gamma normalization denominator vanished")
        ga = num / den
        self._finish_segment(a, hi, ga)

    def _finish_segment(self, a: int, end: int, ga: float):
        self.anchor_values.append(float(ga))
        self.gamma[a:end + 1] = self._gamma_known[a:end + 1]


def rho_eta(m: StructuredMatrix, up_to: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine coefficients (rho_j, eta_j), j = 1..up_to, with rho_1 = 1.

    Piecewise per the segment rules; reduces to the plain three-term
    recursion when no bd index vanishes.  Entries [0] of the returned arrays
    are unused padding.
    """
    if up_to < 1:
        raise OutOfRange("up_to must be >= 1")
    tab = gamma_table(m, up_to)
    return tab.rho[: up_to + 1].copy(), tab.eta[: up_to + 1].copy()


def gamma_table(m: StructuredMatrix, up_to: int, tol: float = 1e-12) -> GammaTable:
    """Gamma ratios and their affine machinery for indices 0..up_to."""
    if m.is_finite:
        hi = m.last
        bd, bu, bz = _window(m, hi)
        horizon = _bu_horizon(bu, hi)
        eff = hi if horizon is None else horizon
        gam = _gamma_sweep(bd, bu, bz, horizon)
        sysm = _AffineGammaSystem(bd[:eff + 1], bu[:eff + 1], bz[:eff + 1],
                                  eff, gamma_known=gam)
        rho = np.zeros(hi + 1)
        eta = np.zeros(hi + 1)
        rho[:eff + 1] = sysm.rho
        eta[:eff + 1] = sysm.eta
        if up_to > hi:
            raise OutOfRange(f"up_to {up_to} beyond final index {hi}")
        zero_set = tuple(int(i) for i in range(1, hi + 1) if bd[i] == 0.0)
        return GammaTable(
            gamma=gam[: up_to + 1], rho=rho[: up_to + 1], eta=eta[: up_to + 1],
            zero_set=zero_set, anchors=tuple(sysm.anchors),
            anchor_values=tuple(sysm.anchor_values), horizon=horizon, hi=up_to)

    win = _Window(m)
    gam_full, level, _ = _gamma_stable_infinite(win, up_to, tol)
    bd, bu, bz = win.upto(level)
    horizon = _bu_horizon(bu, None)
    eff = level if horizon is None else min(level, horizon)
    sysm = _AffineGammaSystem(bd[:eff + 1], bu[:eff + 1], bz[:eff + 1],
                              eff, gamma_known=gam_full[: eff + 1])
    hi = min(up_to, eff)
    rho = np.zeros(up_to + 1)
    eta = np.zeros(up_to + 1)
    rho[: hi + 1] = sysm.rho[: hi + 1]
    eta[: hi + 1] = sysm.eta[: hi + 1]
    gam = np.zeros(up_to + 1)
    gam[: min(len(gam_full), up_to + 1)] = gam_full[: up_to + 1]
    return GammaTable(
        gamma=gam, rho=rho, eta=eta,
        zero_set=tuple(z for z in sysm.zero_set if z <= up_to),
        anchors=tuple(a for a in sysm.anchors if a <= up_to),
        anchor_values=tuple(v for a, v in zip(sysm.anchors, sysm.anchor_values)
                            if a <= up_to),
        horizon=horizon, hi=up_to)


def gamma1(m: StructuredMatrix, tol: float = 1e-12) -> float:
    """The ratio c(0,1)/c(0,0), the first ratio of the stable row-0 sweep.

    Finite extent sweeps back from the final index (or from the first
    bu = 0 cut), which is exact.  Infinite extent reads gamma over 0..1
    from truncation levels 64, 128, 256, ... until two successive levels
    agree to ``tol`` relative; raises NoConvergence past 2**20.  The paper's
    Prop-3 normalization-sum form of the same value is
    ``gamma_table(m, 1).anchor_values[0]``, kept as an oracle.
    """
    if m.is_finite:
        return _gamma1_at_level(m, m.last)
    return float(_gamma_stable_infinite(_Window(m), 1, tol, "gamma1")[0][1])


def _gamma1_at_level(m: StructuredMatrix, level: int) -> float:
    """gamma1 of the sweep truncated at ``level``."""
    bd, bu, bz = _window(m, level)
    horizon = _bu_horizon(bu, m.last if m.is_finite else None)
    eff = level if horizon is None else min(level, horizon)
    if eff < 1:
        return 0.0  # bu[0] = 0: row 0 of the inverse is (c00, 0, 0, ...)
    return float(_row0_ratios(bd, bu, bz, eff)[1])


# ---------------------------------------------------------------------------
# stable evaluation sweeps
# ---------------------------------------------------------------------------

def _row0_ratios(bd, bu, bz, hi) -> np.ndarray:
    """Over-diagonal ratios u[l] = c(i,l)/c(i,l-1) over the window; u[0] = 1.

    They are row 0's ratios gamma_l/gamma_{l-1} too.  Index hi acts as the
    boundary: the final row of a finite matrix, a bu = 0 cut (both exact;
    past a cut row 0 is zero, so u is 0 there), or a truncation point.
    The backward pivot bw[l] - bd[l+1]*u[l+1] is carried as
    (bd[l] + bz[l]) + e, its surplus e = bu[l] - bd[l+1]*u[l+1] updated as
    u[l+1]*(bz[l+1] + e): every operand is nonnegative, nothing cancels,
    and a zero pivot means B is singular.

    From ``_BLOCKED_FROM`` indices on, the scalar loop runs only over the
    top hi - nb*k indices and ``_blocked_sweep`` over the nb blocks of k
    below; if that fails, the scalar loop redoes the blocks, so results and
    ZeroDenominator messages are those of a scalar sweep of the window.
    """
    u = bd + bz  # each u[l] holds bd + bz until its ratio overwrites it
    u[0], u[hi + 1:] = 1.0, 0.0
    k = max(8, int(_BLOCK_SCALE * math.sqrt(hi)))
    low = (hi // k) * k if hi >= _BLOCKED_FROM else 0
    e = _ratio_loop(u, bu, bz, hi, low, float(bu[hi]))
    if low and not _blocked_sweep(u, bu, bz, low // k, k, e):
        np.add(bd[1:low + 1], bz[1:low + 1], out=u[1:low + 1])
        _ratio_loop(u, bu, bz, low, 0, e)
    return u


def _ratio_loop(u, bu, bz, hi, lo, e) -> float:
    """The scalar sweep over indices hi..lo+1 from surplus ``e``, writing the
    ratios over u's bd + bz; returns the surplus it leaves at index lo."""
    # memoryviews hand out Python floats: the loop does no NumPy scalar work
    up, z, uv = memoryview(bu), memoryview(bz), memoryview(u)
    for l in range(hi, lo, -1):
        d2 = uv[l] + e
        if d2 <= 0.0:
            raise ZeroDenominator(f"row-0 ratio pivot vanished at index {l}")
        r = uv[l] = up[l - 1] / d2
        e = r * (z[l] + e)
    return e


def _blocked_sweep(u, bu, bz, nb, k, e) -> bool:
    """The sweep over indices nb*k..1 in nb blocks of k, from surplus ``e``.

    Step l maps e to bu[l-1]*(bz[l] + e)/((bd[l] + bz[l]) + e), the Moebius
    map of the nonnegative matrix [[bu[l-1], bu[l-1]*bz[l]], [1, bd[l] + bz[l]]]
    (Stone's recursive doubling, J. ACM 20, 1973).  Pass 1 composes each
    block's k maps, all blocks at once, rescaling the denominator row to
    sum 1; pass 2 chains the nb composites to find the surplus entering
    each block; pass 3 runs the scalar step's operations in the same order
    on every block at once.  A map's relative sensitivity
    e*bd/((bz + e)(bd + bz + e)) lies in [0, 1), so the O(k eps) error of a
    start value does not grow.  Returns False, leaving u partly written,
    when a pivot is not positive or a block's exact sweep misses the
    composite start value of the block below by more than
    ``_BLOCK_MISMATCH`` relative (overflow, underflow, a zero pivot).
    """
    n = nb * k
    S = u[1:n + 1].reshape(nb, k)  # bd + bz, overwritten by the ratios
    U = bu[:n].reshape(nb, k)      # U[:, j] = bu[l - 1] for l = S's index
    Z = bz[1:n + 1].reshape(nb, k)
    with np.errstate(all="ignore"):
        num = np.zeros((2, nb))    # each block's numerator row (a, b)
        den = np.zeros((2, nb))    # and denominator row (c, d), c + d = 1
        num[0] = den[1] = 1.0
        t = np.empty((2, nb))
        for j in range(k - 1, -1, -1):
            np.multiply(den, Z[:, j], out=t)
            t += num
            t *= U[:, j]
            den *= S[:, j]
            den += num
            num, t = t, num
            s = den[0] + den[1]
            num /= s
            den /= s
        start = np.empty(nb)
        a, b, c, d, sv = (memoryview(x) for x in (num[0], num[1], den[0], den[1], start))
        sv[nb - 1] = e
        try:
            for i in range(nb - 1, 0, -1):
                e = sv[i - 1] = (a[i] * e + b[i]) / (c[i] * e + d[i])
        except ZeroDivisionError:
            return False  # a zero pivot inside block i, or an underflow
        e = start.copy()
        d2 = np.empty(nb)
        dmin = np.full(nb, np.inf)
        for j in range(k - 1, -1, -1):
            np.add(S[:, j], e, out=d2)
            np.minimum(dmin, d2, out=dmin)
            r = np.divide(U[:, j], d2, out=S[:, j])
            e += Z[:, j]
            e *= r
        gap = np.abs(e[1:] - start[:-1])
        return bool(dmin.min() > 0.0 and np.all(gap <= _BLOCK_MISMATCH * e[1:]))


def _gamma_sweep(bd, bu, bz, horizon) -> np.ndarray:
    """gamma over the window, the running product of the row-0 ratios; a
    bu = 0 ``horizon`` is the boundary, else the window's last index."""
    u = _row0_ratios(bd, bu, bz, len(bd) - 1 if horizon is None else horizon)
    return np.cumprod(u, out=u)


def _settled(probe, prev, tol: float) -> Optional[float]:
    """max |probe - prev| if it is at most tol*max(1, max |probe|), else None;
    a non-finite difference (inf - inf included) never settles."""
    with np.errstate(invalid="ignore"):
        diff = float(np.max(np.abs(probe - prev)))
    ok = math.isfinite(diff) and diff <= tol * max(1.0, float(np.max(np.abs(probe))))
    return diff if ok else None


def _doubling(evaluate, start: int, tol: float, what: str):
    """(value, level, achieved) at the first level of start, 2*start, ...
    that is exact or whose probe is ``_settled`` against the level before.

    ``evaluate(level)`` returns (value, probe, exact).  Only the previous
    probe is held across a level, so it must not view a larger array.
    """
    prev, level = None, start
    while level <= MAX_LEVEL:
        value, probe, exact = evaluate(level)
        achieved = 0.0 if exact else (None if prev is None else _settled(probe, prev, tol))
        if achieved is not None:
            return value, level, achieved
        prev, value = probe, None  # the next level need not hold this one alive
        level *= 2
    raise NoConvergence(f"{what} did not stabilize by level {MAX_LEVEL}")


def _gamma_stable_infinite(win: _Window, up_to: int, tol: float, what: str = "row-0 ratios"):
    """(gamma, level, achieved): gamma over the first level from
    max(LEVEL0, 2*up_to) on, over the solve's window ``win``, that is exact
    (a bu = 0 cut) or whose gamma over 0..up_to has settled."""
    def evaluate(level):
        gam, cut = _sweep_level(win, level)
        return gam, gam[: up_to + 1].copy(), cut

    return _doubling(evaluate, max(LEVEL0, 2 * up_to), tol, what)


def _sweep_level(win: _Window, level: int):
    """(gamma over 0..level, whether a bu = 0 cut made it exact).

    The window's views die on return, before the next level grows it."""
    bd, bu, bz = win.upto(level)
    horizon = _bu_horizon(bu, None)
    return _gamma_sweep(bd, bu, bz, horizon), horizon is not None


class _Engine:
    """Sweep coefficients for one rate window, its last index the boundary.

    * ``b_ov[l]``: over-diagonal ratio, so row entries obey
      c(i, l) = b_ov[l]*c(i, l-1); row 0 uses the same ratios
      (``_row0_ratios``).
    * ``b_un[r]``, ``d_un[r]``: under-diagonal ratio and pivot, so that
      within column s the entries obey x_r = c(0,s)*a2[r] + b_un[r]*x_{r-1}.
      The pivot bw[r] - bu[r]*b_un[r+1] is carried as bd[r] + h, its surplus
      updated as h = bz[r] + bu[r]*h/d_un[r+1]: no subtraction.
    * ``a2[r]``: the column-0-driven particular part shared by all columns.
    """

    def __init__(self, rates):
        bd, bu, bz = rates  # a window over 0..hi
        self.hi = hi = len(bd) - 1
        n1 = hi + 1
        self.b_un = np.zeros(n1)
        self.d_un = np.zeros(n1)
        self.a2 = np.zeros(n1)
        self.b_ov = _row0_ratios(bd, bu, bz, hi)
        self.coeff_ops = 0
        if hi == 0:
            return
        d, up, z = (memoryview(a) for a in (bd, bu, bz))
        b_un, d_un, a2 = (memoryview(a) for a in (self.b_un, self.d_un, self.a2))
        # B(r, 0) is bz[r] (+ bd[1] on row 1); the subdiagonal bd[r] starts at row 2
        dd = d_un[hi] = d[hi] + up[hi] + z[hi]  # bw[hi], summed as bd + bu + bz
        h = z[hi] + up[hi]
        b_un[hi] = (d[hi] if hi >= 2 else 0.0) / dd
        aa = a2[hi] = (z[hi] + (d[1] if hi == 1 else 0.0)) / dd
        for r in range(hi - 1, 0, -1):
            ur = up[r]
            h = z[r] + ur * h / dd
            dd = d_un[r] = d[r] + h
            if dd <= _TINY_PIVOT:
                raise ShiftUnresolvable(r, f"under-diagonal pivot vanished at row {r}")
            b_un[r] = (d[r] if r >= 2 else 0.0) / dd
            aa = a2[r] = (z[r] + (d[1] if r == 1 else 0.0) + ur * aa) / dd
        self.coeff_ops = 4 * hi


def _generators(engine: _Engine, c00: float, n: int):
    """(gamma, row0, diag) over indices 0..n-1 from the engine's coefficients.

    gamma is the running product of ``b_ov``; the diagonal follows the
    first-order recursion c(s,s) = c(0,s)*a2[s] - 1/d_un[s]
    + b_un[s]*(b_ov[s]*c(s-1,s-1)), whose last factor is c(s-1, s).
    """
    gam = np.cumprod(engine.b_ov[:n])
    row0 = gam * c00
    head = (row0[1:n] * engine.a2[1:n] - 1.0 / engine.d_un[1:n]).tolist()
    diag = [c00]
    for h, b_un, b_ov in zip(head, engine.b_un[1:n].tolist(), engine.b_ov[1:n].tolist()):
        diag.append(h + b_un * (b_ov * diag[-1]))
    return gam, row0, np.array(diag)


def _export_block(row0, diag, b_ov, b_un, a2, n: int) -> np.ndarray:
    """The dense n x n inverse block spanned by its generators.

    Every dense inverse block is written here: column 0 is the constant
    ``row0[0]``, row 0 is ``row0``, the diagonal is ``diag``; rightward of
    the diagonal c(i, l) = b_ov[l]*c(i, l-1), below it c(r, s) =
    row0[s]*a2[r] + b_un[r]*c(r-1, s).
    """
    out = np.empty((n, n))
    out[:, 0] = row0[0]
    out[0, :] = row0[:n]
    for s in range(1, n):
        # ((diag[s]*b_ov[s+1])*b_ov[s+2])...: the rounding order of element()
        out[s, s] = diag[s]
        out[s, s + 1:] = b_ov[s + 1:n]
        np.multiply.accumulate(out[s, s:], out=out[s, s:])
    for r in range(2, n):
        np.multiply(out[r - 1, 1:r], b_un[r], out=out[r, 1:r])
        out[r, 1:r] += row0[1:r] * a2[r]
    return out


class InverseView:
    """Lazily materialized block of the inverse, stored by its generators.

    The inverse is lower-quasiseparable of order 2 and upper-quasiseparable
    of order 1, so O(n) numbers fix its leading n x n block: the constant
    column 0 ``c00``, row 0 ``row0``, the diagonal ``diag`` and three
    transition arrays.  Rightward of the diagonal c(i, l) = b_ov[l]*c(i, l-1);
    below it c(r, s) = row0[s]*a2[r] + b_un[r]*c(r-1, s).  ``block`` exports
    a dense copy, ``element`` walks the recurrence in O(|i - j|).
    Materialization is single-writer; readers are safe once a
    materialization call has returned.
    """

    def __init__(self, m: StructuredMatrix, tol: float = 1e-12):
        if not m.validated:
            raise ValidationError("matrix must come from validate()")
        self.matrix = m
        self.tol = tol
        self.c00 = first_column_value(m)
        self.row0 = self.diag = np.array([self.c00])
        self.b_ov = self.b_un = self.a2 = np.zeros(1)
        self.n = 0
        self.report = SolveReport(tol=tol)
        self._engine: Optional[_Engine] = None
        self._gamma: Optional[np.ndarray] = None

    @classmethod
    def from_generators(cls, m: StructuredMatrix, tol: float, row0: np.ndarray,
                        diag: np.ndarray, b_ov: np.ndarray, b_un: np.ndarray,
                        a2: np.ndarray) -> "InverseView":
        """A view over given generators, such as the homogeneous closed forms."""
        view = cls(m, tol=tol)
        view._store(row0 / view.c00, row0, diag, b_ov, b_un, a2)
        return view

    # -- bookkeeping -------------------------------------------------------
    @property
    def shape(self):
        return (self.n, self.n)

    def gamma_values(self) -> np.ndarray:
        """gamma_j for the materialized row 0 (c(0,j) = gamma_j * c(0,0))."""
        if self._gamma is None:
            return np.ones(0)
        return self._gamma[: self.n].copy()

    # -- materialization ---------------------------------------------------
    def materialize(self, n: int) -> "InverseView":
        if n <= self.n:
            return self
        t0 = time.perf_counter()
        m = self.matrix
        if m.is_finite:
            if n > m.last + 1:
                raise OutOfRange(f"block size {n} exceeds matrix size {m.last + 1}")
            if self._engine is None:
                self._engine = _Engine(_window(m, m.last))
                self.report.coeff_ops += self._engine.coeff_ops
            self._generate(self._engine, n)
        elif self._engine is not None and self._engine.hi >= max(LEVEL0, 2 * n):
            self._generate(self._engine, n)
        else:
            self._generate(self._certified_engine(n), n)
        self.report.seconds += time.perf_counter() - t0
        return self

    def _generate(self, engine: _Engine, n: int):
        self._engine = engine
        self._store(*_generators(engine, self.c00, n), engine.b_ov, engine.b_un, engine.a2)

    def _store(self, gamma, row0, diag, b_ov, b_un, a2):
        self._gamma, self.row0, self.diag = gamma, row0, diag
        self.b_ov, self.b_un, self.a2 = b_ov, b_un, a2
        self.n = len(diag)
        self.report.entry_ops += 2 * self.n

    def _certified_engine(self, n: int) -> _Engine:
        """Engine at the first doubling level whose n x n block has settled."""
        win = _Window(self.matrix)

        def evaluate(level):
            engine = _Engine(win.upto(level))
            _, row0, diag = _generators(engine, self.c00, n)
            block = _export_block(row0, diag, engine.b_ov, engine.b_un, engine.a2, n)
            self.report.coeff_ops += engine.coeff_ops
            self.report.entry_ops += 2 * n + n * n
            return engine, block, False

        start = max(LEVEL0, 2 * n, self.report.truncation_level or 0)
        engine, self.report.truncation_level, self.report.achieved = _doubling(
            evaluate, start, self.tol, "inverse block")
        return engine

    # -- access -------------------------------------------------------------
    def element(self, i: int, j: int) -> float:
        """c(i, j), materializing the generators up to max(i, j) if needed."""
        if i < 0 or j < 0:
            raise OutOfRange(f"negative index ({i}, {j})")
        m = self.matrix
        if m.is_finite and (i > m.last or j > m.last):
            raise OutOfRange(f"index ({i}, {j}) beyond final index {m.last}")
        if j == 0:
            return self.c00  # row independent; no materialization needed
        need = max(i, j) + 1
        if need > self.n:
            self.materialize(need)
        if i == 0:
            return float(self.row0[j])
        if i <= j:
            y = self.diag[i]
            for l in range(i + 1, j + 1):
                y = y * self.b_ov[l]
            return float(y)
        x, c0j = self.diag[j], self.row0[j]
        for r in range(j + 1, i + 1):
            x = x * self.b_un[r] + c0j * self.a2[r]
        return float(x)

    def block(self, n: Optional[int] = None) -> np.ndarray:
        """Dense copy of the leading n x n block."""
        if n is None:
            n = self.n
        self.materialize(n)
        return _export_block(self.row0, self.diag, self.b_ov, self.b_un, self.a2, n)


def invert(m: StructuredMatrix, n: Optional[int] = None, tol: float = 1e-12) -> InverseView:
    """Materialize the leading n x n block of the inverse.

    Finite matrices default to the full size.  Materializing computes the
    O(n) generators (row 0 and the diagonal) from one backward coefficient
    sweep; a finite full-size inverse is also exported once to audit its
    residual.
    """
    if n is None:
        if not m.is_finite:
            raise ValidationError("block size n is required for infinite extent")
        n = m.last + 1
    if n < 1:
        raise OutOfRange("block size must be >= 1")
    view = InverseView(m, tol=tol)
    view.materialize(n)
    if m.is_finite and n == m.last + 1:
        view.report.residual = block_residual(view)
        view.report.entry_ops += n * n  # the audit's dense export
    return view


def element(view: InverseView, i: int, j: int) -> float:
    """Entry accessor over a view (module-level form of ``view.element``)."""
    return view.element(i, j)


def block_residual(view: InverseView, n: Optional[int] = None) -> float:
    """max |(BC - I)[r, j]| over equations fully supported by the block.

    Rows 0..n-2 couple only in-block entries; the final row is included only
    when the block covers a whole finite matrix.  A NaN anywhere in the
    product makes the residual NaN.  The product is ``_matvec``'s, formed in
    row chunks, so the exported block is the only n x n array.
    """
    if n is None:
        n = view.n
    m = view.matrix
    C = view.block(n)
    full = m.is_finite and n == m.last + 1
    rows = n if full else n - 1
    rates = m.band_rates(rows - 1)
    worst = 0.0
    step = max(1, (1 << 16) // n)  # rows per chunk: 512 KiB buffers
    buf = np.empty((step, n))  # one product buffer for every chunk
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        prod = _matvec([r[lo:hi] for r in rates], C, lo, out=buf[:hi - lo])
        prod[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(prod, out=prod)))
    return float(worst)
