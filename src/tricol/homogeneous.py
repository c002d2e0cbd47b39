"""Closed-form inversion for element-homogeneous matrices.

When every row shares the same (bd, bu, bz), row 0 of the inverse is exactly
geometric with ratio gamma, the root in (0, 1) of bd*g^2 - bw*g + bu = 0, and
the under-diagonal direction is geometric with ratio psi = gamma*bd/bu.  The
diagonal follows a first-order recursion and converges to -1/sqrt(D) with
D = bw^2 - 4*bu*bd, evaluated as (bd - bu)^2 + bz*(bz + 2*(bd + bu)); with
gamma = 2*bu/(bw + sqrt(D)) nothing cancels.  A finite instance keeps these
constants exact only under the special truncation, the rate row
bz[last] = bu/gamma - bd of ``HomogeneousSpec.as_band``.  The general
algorithm solves every finite instance; these forms are its oracle there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateRates, OutOfRange, ValidationError, ZeroDiscriminant
from .general import InverseView, _export_block, invert as general_invert
from .model import HomogeneousSpec, validate


@dataclass(frozen=True)
class HomConstants:
    """Scalar constants of the homogeneous closed forms."""

    gamma: float
    psi: float
    disc: float
    diag_limit: float
    strict: bool  # bz > 0: gamma, psi strictly inside (0, 1)


def hom_constants(spec: HomogeneousSpec) -> HomConstants:
    """Solve the ratio quadratics for (gamma, psi) and the diagonal limit.

    Requires bd > 0 and bu > 0; zero rates belong to the general algorithm.
    The D = 0 boundary (only possible when bz = 0) is accepted but flagged.
    """
    bd, bu, bz = spec.bd, spec.bu, spec.bz
    if bd <= 0.0 or bu <= 0.0:
        raise DegenerateRates(
            f"homogeneous closed forms need bd > 0 and bu > 0 (got {bd}, {bu})")
    disc = (bd - bu) ** 2 + bz * (bz + 2.0 * (bd + bu))
    root = math.sqrt(disc)
    gamma = 2.0 * bu / (spec.bw + root)
    psi = gamma * bd / bu
    diag_limit = -1.0 / root if disc > 0.0 else -math.inf
    return HomConstants(gamma=gamma, psi=psi, disc=disc,
                        diag_limit=diag_limit, strict=bz > 0.0)


def diagonal_limit(consts: HomConstants) -> float:
    """Limit of c(n, n) as n grows; requires a positive discriminant."""
    if consts.disc <= 0.0:
        raise ZeroDiscriminant(f"discriminant {consts.disc} is not positive")
    return consts.diag_limit


class DiagonalCache:
    """Grow-only prefix of diagonal values c(i, i) for one spec."""

    def __init__(self, spec: HomogeneousSpec, consts: Optional[HomConstants] = None):
        self.spec = spec
        self.consts = consts or hom_constants(spec)
        self._diag = [-1.0 / spec.bd]

    def diag(self, i: int) -> float:
        spec, k = self.spec, self.consts
        bw, bd, bu = spec.bw, spec.bd, spec.bu
        g, psi = k.gamma, k.psi
        c00 = self._diag[0]
        den = bw - bd * g
        while len(self._diag) <= i:
            m = len(self._diag)
            row0_prev = g ** (m - 1) * c00  # closed form; row 0 is exactly geometric
            self._diag.append((-1.0 + bu * ((1.0 - psi) * row0_prev
                                            + psi * self._diag[m - 1])) / den)
        return self._diag[i]


def hom_element(spec: HomogeneousSpec, consts: HomConstants,
                i: int, j: int, cache: DiagonalCache) -> float:
    """c(i, j) by the four-case closed form.

    The cache carries the diagonal prefix; the diagonal recursion consumes
    c(i-1, i-1).  Row 0 and the over-diagonal direction are geometric in
    gamma, the under-diagonal direction in psi around the column limit
    c(0, j).
    """
    if i < 0 or j < 0:
        raise OutOfRange(f"negative index ({i}, {j})")
    if spec.is_finite and max(i, j) > spec.last:
        raise OutOfRange(f"index ({i}, {j}) beyond final index {spec.last}")
    g, psi = consts.gamma, consts.psi
    if i == j:
        return cache.diag(i)
    if j > i:
        return g ** (j - i) * cache.diag(i)
    c0j = g ** j * cache.diag(0)
    return (cache.diag(j) - c0j) * psi ** (i - j) + c0j


def diagonal_alternative(spec: HomogeneousSpec, consts: HomConstants,
                         i: int, cache: DiagonalCache) -> float:
    """c(i, i) from the other diagonal identity (i >= 2 only).

    Uses c(0, i) and the two previous diagonal entries; kept as an
    independent check on the primary recursion.
    """
    if i < 2:
        raise OutOfRange("alternative diagonal identity needs i >= 2")
    g = consts.gamma
    bd, bu, bz = spec.bd, spec.bu, spec.bz
    bw = spec.bw
    c0i = g ** i * cache.diag(0)
    return (-bz * c0i - bd * g * g * cache.diag(i - 2)
            + bw * g * cache.diag(i - 1)) / bu


def diagonal_identity_gap(spec: HomogeneousSpec, n: int) -> float:
    """max |primary - alternative| diagonal value over indices 2..n-1."""
    consts = hom_constants(spec)
    cache = DiagonalCache(spec, consts)
    gap = 0.0
    for i in range(2, n):
        gap = max(gap, abs(cache.diag(i) - diagonal_alternative(spec, consts, i, cache)))
    return gap


def _hom_generators(spec: HomogeneousSpec, n: int, zero_row0: bool = False,
                    c11: Optional[float] = None):
    """(row0, diag, b_ov, b_un, a2) of the closed forms over indices 0..n-1.

    Row 0 is geometric in gamma, the diagonal follows its first-order
    recursion, and the transition arrays are the constants b_ov = gamma,
    b_un = psi and a2 = 1 - psi.  ``zero_row0`` replaces row 0 of the
    inverse by (c00, 0, 0, ...) and ``c11`` seeds the diagonal recursion at
    index 1; both serve the absorbing birth-and-death variants, whose first
    rows deviate from the homogeneous pattern.
    """
    consts = hom_constants(spec)
    g, psi = consts.gamma, consts.psi
    bd, bu = spec.bd, spec.bu
    bw = spec.bw
    c00 = -1.0 / bd
    G = np.power(g, np.arange(n))
    if zero_row0:
        row0 = np.zeros(n)
        row0[0] = c00
    else:
        row0 = G * c00
    diag = np.empty(n)
    diag[0] = c00
    den = bw - bd * g
    start = 1
    if c11 is not None and n > 1:
        diag[1] = c11
        start = 2
    for i in range(start, n):
        r_prev = 0.0 if zero_row0 else G[i - 1] * c00
        diag[i] = (-1.0 + bu * ((1.0 - psi) * r_prev + psi * diag[i - 1])) / den
    return row0, diag, np.full(n, g), np.full(n, psi), np.full(n, 1.0 - psi)


def hom_block(spec: HomogeneousSpec, n: int, zero_row0: bool = False,
              c11: Optional[float] = None) -> tuple[np.ndarray, int]:
    """Dense n x n block by the closed forms; returns (block, entry_ops).

    ``zero_row0`` and ``c11`` select the absorbing variants as in
    ``_hom_generators``; entry_ops counts the generator entries and the
    exported ones.
    """
    gens = _hom_generators(spec, n, zero_row0=zero_row0, c11=c11)
    return _export_block(*gens, n), 2 * n + n * n


def hom_finite_invert(spec: HomogeneousSpec, tol: float = 1e-12) -> InverseView:
    """Invert a finite homogeneous matrix with the general algorithm.

    Either truncation is a rate row of the spec's band; under the special
    one the result matches the closed forms (``hom_block``).
    """
    if not spec.is_finite:
        raise ValidationError("finite extent required; use hom_invert for blocks")
    return general_invert(validate(spec), tol=tol)


def hom_invert(spec: HomogeneousSpec, n: int, tol: float = 1e-12) -> InverseView:
    """Leading n x n inverse block: the closed forms for an infinite spec,
    the general algorithm for a finite one."""
    m = validate(spec)
    if spec.is_finite:
        return general_invert(m, n=n, tol=tol)
    t0 = time.perf_counter()
    view = InverseView.from_generators(m, tol, *_hom_generators(spec, n))
    view.report.seconds += time.perf_counter() - t0
    return view
