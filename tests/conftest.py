"""Shared fixtures and independent dense constructions for the test suite."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tricol.model import BandSpec


def build_dense(bd, bu, bz):
    """Dense matrix straight from the rate arrays.

    Kept independent of the library's entry accessor so oracle comparisons
    and entry tests do not share a construction path.
    """
    bd = np.asarray(bd, float)
    bu = np.asarray(bu, float)
    bz = np.asarray(bz, float)
    n = len(bd)
    B = np.zeros((n, n))
    B[0, 0] = -bd[0] - bu[0]
    if n > 1:
        B[0, 1] = bu[0]
    for i in range(1, n):
        B[i, 0] += bz[i] + (bd[i] if i == 1 else 0.0)
        if i >= 2:
            B[i, i - 1] = bd[i]
        B[i, i] = -(bz[i] + bd[i] + bu[i])
        if i + 1 < n:
            B[i, i + 1] = bu[i]
    return B


def random_rates(rng, n, lo=0.3, hi=2.0, bz_lo=0.02, bz_hi=1.2,
                 zero_bd=0, zero_bu=0):
    """Random valid rate arrays, optionally with planted zero rates.

    bz stays strictly positive so every state keeps an exit path and the
    matrix remains invertible whatever zeros are planted.
    """
    bd = rng.uniform(lo, hi, n)
    bu = rng.uniform(lo, hi, n)
    bz = rng.uniform(bz_lo, bz_hi, n)
    bu[n - 1] = 0.0
    if zero_bd and n > 2:
        idx = rng.choice(np.arange(1, n), size=min(zero_bd, n - 2), replace=False)
        bd[idx] = 0.0
    if zero_bu and n > 2:
        idx = rng.choice(np.arange(1, n - 1), size=min(zero_bu, n - 2), replace=False)
        bu[idx] = 0.0
    return bd, bu, bz


def random_spec(rng, n, **kw) -> BandSpec:
    return BandSpec.finite(*random_rates(rng, n, **kw))


def staged_spectrum(m):
    """The paper's staged form of B's spectrum, from the public functions:
    (eigenvalues, update weights), one weight per retained coefficient."""
    from tricol.spectral import (decompose_perturbation, eig_vectors, initial_state,
                                 rank_one_update, solve_alpha, tridiag_eigen, tridiag_part)
    A, u = tridiag_part(m)
    sp = tridiag_eigen(A)
    V, _ = eig_vectors(A, sp)
    coeffs, kept, _, _ = decompose_perturbation(u, V)
    st = initial_state(sp, V[0, :] * coeffs, kept=kept)
    while st.stage < st.m_count:
        st = rank_one_update(st, solve_alpha(st))
    return st.lam, st.alphas


def worked_spec() -> BandSpec:
    """The 3x3 example with inverse row 0 = (-1, -6/7, -2/7)."""
    return BandSpec.finite([1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [0.0, 1.0, 1.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
