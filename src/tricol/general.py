"""Recursive inversion of band + first-column matrices (the general case).

The inverse C of a validated matrix B is stored by its generators, O(n)
numbers that fix every entry: column 0 is the constant -1/bd[0]; row 0 is
c(0,0) times a running product of over-diagonal ratios b_ov; the diagonal
follows a first-order recursion; rightward of the diagonal every row runs by
the same ratios b_ov, and below it column s obeys
x_r = c(0,s)*a2[r] + b_un[r]*x_{r-1}.  So C is lower-quasiseparable of
order 2 and upper-quasiseparable of order 1.  The coefficients come from one
backward sweep that evaluates the defining equations B C'_j = delta'_j and
C_i B = delta_i with the boundary equation folded in, which stays stable in
binary64 (the textbook forward recursions excite a growing characteristic
mode and lose all accuracy beyond a few dozen indices).  Dense blocks are
exported from the generators by one vectorized routine.

The affine coefficient pairs (rho_j, eta_j) of the row-0 system and the
segment-anchor resolution used when some bd[i] = 0 are exposed verbatim;
their role is to define gamma_1 and the anchors, both of which are ratios of
systematically signed sums and therefore well conditioned.
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
from .model import StructuredMatrix, _check_rates

#: Adaptive truncation schedule for infinite extent.
LEVEL0 = 64
MAX_LEVEL = 1 << 20

#: Magnitude at which running rho/eta accumulators are rescaled.
_RESCALE_AT = 1e250


@dataclass
class SolveReport:
    """What a solve did: residuals, truncation level, tolerances, timing."""

    tol: float
    truncation_level: Optional[int] = None
    achieved: Optional[float] = None
    residual: Optional[float] = None
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
    """(bd, bu, bz, bw) arrays for 0..hi; an infinite window is re-validated."""
    bd, bu, bz = m.band_rates(hi)
    if not m.is_finite:
        _check_rates(bd, bu, bz, 0)
    bw = bd + bu + bz
    return bd, bu, bz, bw


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
    recursion values, which overflow on long segments.  Only ``rho_eta``,
    ``gamma_table`` and ``gamma1`` build this system, as the paper's forms
    and a test oracle; the solvers take gamma from the stable sweep alone.
    """

    def __init__(self, bd, bu, bz, bw, hi, gamma_known=None):
        self.bd, self.bu, self.bz, self.bw, self.hi = bd, bu, bz, bw, hi
        self.rho = np.zeros(hi + 1)
        self.eta = np.zeros(hi + 1)
        self.gamma = np.zeros(hi + 1)
        self.gamma[0] = 1.0
        self.anchors: list[int] = []
        self.anchor_values: list[float] = []
        self.zero_set = tuple(int(i) for i in range(1, hi + 1) if bd[i] == 0.0)
        self._gamma_known = gamma_known  # optional stable values (zero-block tail)
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
        if self._gamma_known is not None:
            self.gamma[a:end + 1] = self._gamma_known[a:end + 1]
            return
        self.gamma[a] = ga
        # affine evaluation; adequate for the segment lengths this path serves
        for t in range(a + 1, end + 1):
            self.gamma[t] = self.rho[t] * ga + self.eta[t]


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
        bd, bu, bz, bw = _window(m, hi)
        horizon = _bu_horizon(bu, hi)
        eff = hi if horizon is None else horizon
        gam = _gamma_stable_finite(bd, bu, bz, bw, hi, horizon)
        sysm = _AffineGammaSystem(bd[:eff + 1], bu[:eff + 1], bz[:eff + 1],
                                  bw[:eff + 1], eff, gamma_known=gam)
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

    gam_full, level, _ = _gamma_stable_infinite(m, up_to, tol, full=True)
    bd, bu, bz, bw = _window(m, level)
    horizon = _bu_horizon(bu, None)
    eff = level if horizon is None else min(level, horizon)
    sysm = _AffineGammaSystem(bd[:eff + 1], bu[:eff + 1], bz[:eff + 1],
                              bw[:eff + 1], eff, gamma_known=gam_full[: eff + 1])
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
    """The ratio c(0,1)/c(0,0) via the normalization-sum formula.

    Finite extent evaluates the sums up to the final index exactly.  Infinite
    extent evaluates them at truncation levels 64, 128, 256, ... and stops
    once two successive estimates agree to ``tol`` relative; raises
    NoConvergence if 2**20 is reached without stabilizing.
    """
    if m.is_finite:
        return _gamma1_at_level(m, m.last)
    prev = None
    level = LEVEL0
    while level <= MAX_LEVEL:
        window = _window(m, level)
        val = _gamma1_at_level(m, level, window)
        if _bu_horizon(window[1], None) is not None:
            return val  # a bu = 0 cut inside the window makes the sums exact
        if prev is not None and math.isfinite(val):
            if abs(val - prev) <= tol * max(1.0, abs(val)):
                return val
        prev = val
        level *= 2
    raise NoConvergence(f"gamma1 did not stabilize by level {MAX_LEVEL}")


def _gamma1_at_level(m: StructuredMatrix, level: int, window=None) -> float:
    """gamma1 from the sums truncated at ``level``; ``window`` is
    ``_window(m, level)`` when the caller has realized it already."""
    bd, bu, bz, bw = _window(m, level) if window is None else window
    horizon = _bu_horizon(bu, m.last if m.is_finite else None)
    eff = level if horizon is None else min(level, horizon)
    if eff < 1:
        return 0.0  # bu[0] = 0: row 0 of the inverse is (c00, 0, 0, ...)
    # anchors need gamma values of already-closed segments: stable sweep
    gam = _gamma_ratio_sweep(bd[:eff + 1], bu[:eff + 1], bw[:eff + 1], eff)
    sysm = _AffineGammaSystem(bd[:eff + 1], bu[:eff + 1], bz[:eff + 1],
                              bw[:eff + 1], eff, gamma_known=gam)
    vals = dict(zip(sysm.anchors, sysm.anchor_values))
    if 1 in vals:
        return vals[1]
    return sysm.gamma[1]


# ---------------------------------------------------------------------------
# stable evaluation sweeps
# ---------------------------------------------------------------------------

def _gamma_ratio_sweep(bd, bu, bw, hi) -> np.ndarray:
    """Row-0 ratios by the backward ratio recursion (stable direction).

    Index hi acts as the boundary: the final row of a finite matrix, a
    bu = 0 cut (both exact), or an adaptive truncation point.  gamma is the
    running product of the ratios u[j] = gamma_j / gamma_{j-1}.
    """
    u = np.empty(hi + 1)
    u[0] = 1.0
    if hi == 0:
        return u
    # memoryviews hand out Python floats: the loop does no NumPy scalar work
    d, up, w, uv = memoryview(bd), memoryview(bu), memoryview(bw), memoryview(u)
    nxt = uv[hi] = up[hi - 1] / w[hi]
    for l in range(hi - 1, 0, -1):
        den = w[l] - d[l + 1] * nxt
        if den <= 0.0:
            raise ZeroDenominator(
                f"row-0 ratio denominator vanished at index {l}")
        nxt = uv[l] = up[l - 1] / den
    return np.cumprod(u)


def _gamma_stable_finite(bd, bu, bz, bw, last, horizon) -> np.ndarray:
    eff = last if horizon is None else horizon
    gam = np.zeros(last + 1)
    gam[0] = 1.0
    if eff >= 1:
        gam[: eff + 1] = _gamma_ratio_sweep(bd, bu, bw, eff)
    return gam


def _gamma_stable_infinite(m: StructuredMatrix, up_to: int, tol: float,
                           full: bool = False):
    """(gamma, level, achieved) with doubling certification.

    Returns gamma over 0..up_to, or over the whole certified level when
    ``full`` is set.
    """
    level = max(LEVEL0, 2 * up_to)
    prev = None
    while level <= MAX_LEVEL:
        bd, bu, bz, bw = _window(m, level)
        horizon = _bu_horizon(bu, None)
        if horizon is not None and horizon <= level:
            gam = _gamma_stable_finite(bd, bu, bz, bw, level, horizon)
            return (gam if full else gam[: up_to + 1]), level, 0.0
        gam = _gamma_ratio_sweep(bd, bu, bw, level)
        if prev is not None:
            diff = float(np.max(np.abs(gam[: up_to + 1] - prev)))
            if diff <= tol * max(1.0, float(np.max(np.abs(gam[: up_to + 1])))):
                return (gam if full else gam[: up_to + 1]), level, diff
        prev = gam[: up_to + 1]
        level *= 2
    raise NoConvergence(f"row-0 ratios did not stabilize by level {MAX_LEVEL}")


class _Engine:
    """Sweep coefficients for one matrix at one boundary horizon.

    All four tables are single backward passes over the band:

    * ``b_un[r]``, ``d_un[r]``: under-diagonal ratio and pivot, so that
      within column s the entries obey x_r = c(0,s)*a2[r] + b_un[r]*x_{r-1}.
    * ``a2[r]``: the column-0-driven particular part shared by all columns.
    * ``b_ov[l]``: over-diagonal ratio, so row entries obey
      c(i, l) = b_ov[l]*c(i, l-1); row 0 uses the same ratios.
    """

    def __init__(self, m: StructuredMatrix, hi: int):
        bd, bu, bz, bw = _window(m, hi)
        self.bd, self.bu, self.bz, self.bw = bd, bu, bz, bw
        self.hi = hi
        n1 = hi + 1
        self.b_un = np.zeros(n1)
        self.d_un = np.zeros(n1)
        self.a2 = np.zeros(n1)
        self.b_ov = np.zeros(n1)
        self.coeff_ops = 0
        if hi == 0:
            return
        d, up, z, w = (memoryview(a) for a in (bd, bu, bz, bw))
        b_un, d_un, a2, b_ov = (memoryview(a) for a in
                                (self.b_un, self.d_un, self.a2, self.b_ov))
        # B(r, 0) is bz[r] (+ bd[1] on row 1); the subdiagonal bd[r] starts at row 2
        d_un[hi] = w[hi]
        bun = b_un[hi] = (d[hi] if hi >= 2 else 0.0) / w[hi]
        aa = a2[hi] = (z[hi] + (d[1] if hi == 1 else 0.0)) / w[hi]
        bov = b_ov[hi] = up[hi - 1] / w[hi]
        for r in range(hi - 1, 0, -1):
            ur = up[r]
            dd = w[r] - ur * bun
            if dd <= 0.0:
                raise ShiftUnresolvable(r, f"under-diagonal pivot vanished at row {r}")
            d_un[r] = dd
            bun = b_un[r] = (d[r] if r >= 2 else 0.0) / dd
            aa = a2[r] = (z[r] + (d[1] if r == 1 else 0.0) + ur * aa) / dd
            d2 = w[r] - d[r + 1] * bov
            if d2 <= 0.0:
                raise ShiftUnresolvable(r, f"over-diagonal pivot vanished at column {r}")
            bov = b_ov[r] = up[r - 1] / d2
        self.coeff_ops = 4 * hi


def _generators(engine: _Engine, c00: float, n: int):
    """(gamma, row0, diag) over indices 0..n-1 from the engine's coefficients.

    gamma is the running product of ``b_ov``; the diagonal follows the
    first-order recursion c(s,s) = c(0,s)*a2[s] - 1/d_un[s]
    + b_un[s]*(b_ov[s]*c(s-1,s-1)), whose last factor is c(s-1, s).
    """
    gam = np.cumprod(np.r_[1.0, engine.b_ov[1:n]])
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
                self._engine = _Engine(m, m.last)
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
        level = max(LEVEL0, 2 * n, self.report.truncation_level or 0)
        prev_block = None
        while level <= MAX_LEVEL:
            engine = _Engine(self.matrix, level)
            _, row0, diag = _generators(engine, self.c00, n)
            block = _export_block(row0, diag, engine.b_ov, engine.b_un, engine.a2, n)
            self.report.coeff_ops += engine.coeff_ops
            self.report.entry_ops += 2 * n + n * n
            if prev_block is not None:
                diff = float(np.max(np.abs(block - prev_block)))
                if diff <= self.tol * max(1.0, float(np.max(np.abs(block)))):
                    self.report.truncation_level = level
                    self.report.achieved = diff
                    return engine
            prev_block = block
            level *= 2
        raise NoConvergence(f"inverse block did not stabilize by level {MAX_LEVEL}")

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
    product makes the residual NaN.  The product is formed in row chunks, so
    the exported block is the only n x n array.
    """
    if n is None:
        n = view.n
    m = view.matrix
    C = view.block(n)
    full = m.is_finite and n == m.last + 1
    rows = n if full else n - 1
    # B's entries by column: 0, r-1, r and r+1 (each distinct column once);
    # row 0 is (-bd[0] - bu[0], bu[0]), row 1's subdiagonal is column 0, and
    # sup is read for rows 0..n-2 only
    bd, bu, bz = m.band_rates(rows - 1)
    col0, sub, dia, sup = bz.copy(), bd.copy(), -(bz + bd + bu), bu
    if rows:
        col0[0], dia[0] = -bd[0] - bu[0], 0.0
    if rows > 1:
        col0[1], sub[1] = bd[1] + bz[1], 0.0
    if full and m._special:
        # the special truncation's last row is not read from the rates
        r = m.last
        col0[r], dia[r] = m.entry(r, 0), m.entry(r, r)
        if r >= 2:
            sub[r] = m.entry(r, r - 1)
    worst = 0.0
    step = max(1, (1 << 16) // n)  # rows per chunk: 512 KiB temporaries
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        prod = np.multiply.outer(col0[lo:hi], C[0])
        prod += dia[lo:hi, None] * C[lo:hi]
        a = max(lo, 1)
        prod[a - lo:] += sub[a:hi, None] * C[a - 1:hi - 1]
        b = min(hi, n - 1)
        prod[:b - lo] += sup[lo:b, None] * C[lo + 1:b + 1]
        prod[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(prod)))
    return float(worst)
