"""Eigenvalues of B built from those of its tridiagonal part.

Stripping the dense part of column 0 leaves a tridiagonal matrix A whose
eigenvalues are real, negative and distinct.  B = A + u*delta, so in A's
eigenbasis B is diag(mu) plus a rank-one term, and one ``geev`` on that
matrix gives B's spectrum.  Against ``geev`` on B, over the benchmark's
spectral instances of seeds 1-3 (72 per size), the median gap relative to
the spectral radius is 3.4e-15, 4.8e-15 and 7.2e-15 at n = 16, 32 and 64,
the worst 9.5e-13; a call takes a median 0.4, 0.8 and 2.8 ms (2-core x86
VM, single-threaded BLAS).  The paper's staged form stays public as an
oracle: ``decompose_perturbation``, then one ``solve_alpha`` and
``rank_one_update`` per retained coefficient, each shifting one eigenvalue
by a root of a small rational function.  That root step loses digits with
size: gaps above 1e-3 appear from n = 32 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvals, eigvalsh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import (
    BandProductNonpositive,
    IllConditionedBasis,
    IterationStall,
    NoRootFound,
    ResonantAlpha,
    ShapeMismatch,
)
from .model import StructuredMatrix, _matvec, decompose
from .oracles import dense_eigen

#: relative threshold below which an expansion coefficient is dropped
DROP_COEFF = 1e-12
#: |imag| below this (relative) counts as a real companion root
REAL_ROOT_TOL = 1e-9
#: widest log-range of A's diagonal similarity D: past it, D Z c overflows
_LOG_SPAN = 600.0
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
    """(every center -bw < 0, max over rows of center + radius) of B's discs:
    B's off-diagonal entries are nonnegative rates, so a disc's right end is
    its row sum, B 1."""
    rates = m.band_rates(m.last)
    centers_ok = bool(np.all(sum(rates) > 0.0))
    return centers_ok, float(np.max(_matvec(rates, np.ones(m.last + 1))))


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
    """Spectrum of B from one eigenproblem in A's eigenbasis, with audit.

    A = D S D^-1 and S = Z diag(mu) Z' (LAPACK ``stebz`` and ``stein``), so
    (D Z)^-1 B (D Z) = diag(mu) + c v0' with c = Z' D^-1 u, v0 = D[0, 0] Z[0, :].
    A slot whose expansion coefficient (c_j times the length of D Z_j) is
    below DROP_COEFF * max|u| passes mu_j through; ``geev`` on the kept slots
    gives the rest.  The audit carries the Gershgorin check, the expansion
    residual max|D Z c - u| (IllConditionedBasis above tol * (max|u| + 1),
    or when D spans more than e^600), the Prop-15 sign probe on c * v0 (the
    staged form's first components) and, on request, the gap to ``geev``.
    """
    A, u = tridiag_part(m)
    umax = float(np.max(np.abs(u), initial=0.0))
    d, e, logd = _symmetrized(A)
    if np.ptp(logd) > _LOG_SPAN:
        raise IllConditionedBasis(f"the diagonal similarity spans e^{np.ptp(logd):.0f}")
    mu, Z = eigh_tridiagonal(d, e, lapack_driver="stebz")
    s = np.exp(logd - logd.max())  # D^-1, scaled: c v0' does not see the scale
    c = Z.T @ (s * u)
    resid = float(np.max(np.abs(Z @ c / s - u), initial=0.0))
    if not resid <= tol * (umax + 1.0):
        raise IllConditionedBasis(f"expansion residual {resid}")
    keep = np.abs(c) * np.linalg.norm(Z / s[:, None], axis=0) >= DROP_COEFF * max(umax, 1e-300)
    ck, vk = c[keep], Z[0, keep] / s[0]
    lam = np.concatenate((mu[~keep], eigvals(np.diag(mu[keep]) + np.outer(ck, vk))))
    spectrum = _sorted_spectrum(lam.astype(complex))
    centers_ok, worst_disc = _gershgorin(m)
    real = np.sort(lam.real)
    return spectrum, SpectralAudit(
        gershgorin_ok=centers_ok and worst_disc <= 1e-9,
        max_center_plus_radius=worst_disc,
        max_real_part=float(np.max(real)),
        expansion_residual=resid,
        m_count=len(ck),
        sign_condition_holds=_sign_condition(ck * vk, range(len(ck))),
        near_degenerate=bool(np.any(np.diff(real) <= 1e-9 * max(1.0, float(np.max(np.abs(real)))))),
        oracle_gap=(multiset_gap(spectrum.values, dense_eigen(m.to_dense()).values)
                    if compare_oracle else None),
    )
