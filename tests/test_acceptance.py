"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run as ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the verdict
lines on success); every tolerance is fixed here, nothing is calibrated at
run time.
"""

import time

import numpy as np
import scipy.linalg

from tricol.applications import (
    absorbing_bd_invert,
    absorbing_bd_spec,
    absorbing_c11,
    steady_state,
    value_function,
)
from tricol.bench import bench
from tricol.general import gamma1, gamma_table, invert
from tricol.general import _gamma1_at_level  # level probe used by criterion 4
from tricol.homogeneous import (
    DiagonalCache,
    hom_constants,
    hom_finite_invert,
)
from tricol.model import BandSpec, HomogeneousSpec, validate
from tricol.oracles import dense_invert, sherman_morrison_invert
from tricol.spectral import (
    eig_vectors,
    eigenvalues_of_B,
    multiset_gap,
    tridiag_eigen,
    tridiag_part,
)

from conftest import build_dense, random_rates, random_spec, staged_spectrum, worked_spec


def verdict(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac1_worked_golden_example():
    spec = worked_spec()
    m = validate(spec)
    oracle = dense_invert(build_dense(spec.down, spec.up, spec.tozero))

    view = invert(m)  # warmup for the timing below
    C = view.block()
    err = float(np.max(np.abs(C - oracle)))
    err = max(err, float(np.max(np.abs(C[:, 0] + 1.0))))
    err = max(err, float(np.max(np.abs(C[0] - np.array([-1.0, -6 / 7, -2 / 7])))))
    err = max(err, abs(gamma1(m) - 6.0 / 7.0))
    err = max(err, abs(gamma_table(m, 2).gamma[2] - 2.0 / 7.0))

    best = min(_timed_invert(m) for _ in range(5))
    ok = err < 1e-12 and best < 1e-3
    verdict("AC-1", ok, f"max deviation {err:.2e}, runtime {best * 1e6:.0f} us")


def _timed_invert(m):
    t0 = time.perf_counter()
    invert(m)
    return time.perf_counter() - t0


def test_ac2_oracle_equivalence_general():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    n_cases = n_bd = n_bu = 0
    worst_c = worst_r = 0.0
    for k in range(200):
        n = int(rng.integers(2, 65))
        zero_bd = int(rng.integers(1, 4)) if k % 5 in (0, 1) and n > 4 else 0
        zero_bu = int(rng.integers(1, 3)) if k % 5 in (1, 2) and n > 4 else 0
        bd, bu, bz = random_rates(rng, n, zero_bd=zero_bd, zero_bu=zero_bu)
        spec = BandSpec.finite(bd, bu, bz)
        m = validate(spec)
        C = invert(m).block()
        B = build_dense(bd, bu, bz)
        worst_c = max(worst_c, float(np.max(np.abs(C - dense_invert(B)))))
        worst_r = max(worst_r, float(np.max(np.abs(B @ C - np.eye(n)))))
        n_cases += 1
        n_bd += int(np.any(bd[1:] == 0.0))
        n_bu += int(np.any(bu[: n - 1] == 0.0))
    took = time.perf_counter() - t0
    ok = (n_cases >= 200 and n_bd >= 40 and n_bu >= 20
          and worst_c < 1e-8 and worst_r < 1e-9 and took < 30.0)
    verdict("AC-2", ok,
            f"{n_cases} specs ({n_bd} with bd zeros, {n_bu} with bu zeros), "
            f"max|C-C_oracle| {worst_c:.2e}, max|BC-I| {worst_r:.2e}, {took:.1f}s")


def test_ac3_homogeneous_closed_forms():
    rng = np.random.default_rng(33)
    worst_quad = worst_diag = 0.0
    strict_ok = True
    for _ in range(50):
        # bz bounded away from 0: over this box gamma <= 0.934, so the
        # diagonal reaches its limit well within 400 steps
        bd, bu = rng.uniform(0.2, 3.0, 2)
        bz = rng.uniform(0.2, 2.0)
        spec = HomogeneousSpec(bd, bu, bz)
        k = hom_constants(spec)
        bw = bd + bu + bz
        worst_quad = max(worst_quad,
                         abs(bd * k.gamma**2 - bw * k.gamma + bu),
                         abs(bu * k.psi**2 - bw * k.psi + bd))
        strict_ok &= 0.0 < k.gamma < 1.0 and 0.0 < k.psi < 1.0
        cache = DiagonalCache(spec, k)
        worst_diag = max(worst_diag, abs(cache.diag(400) - k.diag_limit))
    worst_inv = 0.0
    for _ in range(12):
        bd, bu = rng.uniform(0.3, 2.5, 2)
        bz = rng.uniform(0.05, 1.5)
        n = int(rng.integers(2, 65))
        spec = HomogeneousSpec(bd, bu, bz, last=n - 1, truncation="special")
        m = validate(spec)
        C = hom_finite_invert(spec).block()
        worst_inv = max(worst_inv, float(np.max(np.abs(C - dense_invert(m.to_dense())))))
    ok = worst_quad < 1e-13 and strict_ok and worst_diag < 1e-8 and worst_inv < 1e-9
    verdict("AC-3", ok,
            f"quadratic residual {worst_quad:.2e}, |c(400,400)-limit| {worst_diag:.2e}, "
            f"special-truncation vs oracle {worst_inv:.2e}")


def test_ac4_infinite_extent_consistency():
    rng = np.random.default_rng(44)
    worst_closed = 0.0
    for _ in range(20):
        bd, bu = rng.uniform(0.3, 2.5, 2)
        bz = rng.uniform(0.05, 1.5)
        spec = HomogeneousSpec(bd, bu, bz)
        m = validate(spec.as_band())
        worst_closed = max(worst_closed,
                           abs(gamma1(m, tol=1e-12) - hom_constants(spec).gamma))
    # head-inhomogeneous with homogeneous tail: successive levels at stop
    worst_rel = 0.0
    for _ in range(5):
        head = rng.uniform(0.3, 2.0, (3, 5))
        head[2, 0] = 0.0

        def mk(row, const):
            vals = list(head[row])
            return lambda i: vals[i] if i < 5 else const

        spec = BandSpec.infinite(mk(0, 2.0), mk(1, 1.0), mk(2, 1.0), tail_start=5)
        m = validate(spec)
        level, prev = 64, None
        while True:
            val = _gamma1_at_level(m, level)
            if prev is not None:
                rel = abs(val - prev) / max(1.0, abs(val))
                if rel < 1e-12:
                    worst_rel = max(worst_rel, rel)
                    break
            prev = val
            level *= 2
            assert level <= 1 << 20
    ok = worst_closed < 1e-10 and worst_rel < 1e-12
    verdict("AC-4", ok,
            f"gamma1 vs closed form {worst_closed:.2e} over 20 triples, "
            f"terminal level agreement {worst_rel:.2e}")


def test_ac5_spectral_pipeline():
    rng = np.random.default_rng(55)
    worst_gap = worst_real_gap = 0.0
    n_real = n_total = 0
    sign_holds = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        spec = random_spec(rng, n, bz_lo=0.0)
        m = validate(spec)
        sp, audit = eigenvalues_of_B(m, compare_oracle=True)
        n_total += 1
        assert audit.gershgorin_ok
        assert audit.max_real_part < 0.0
        worst_gap = max(worst_gap, audit.oracle_gap)
        if audit.sign_condition_holds:
            sign_holds += 1
        # the paper's staged form on the same spec: are all its weights real?
        staged, alphas = staged_spectrum(m)
        if all(abs(a.imag) <= 1e-9 * max(1.0, abs(a)) for a in alphas):
            n_real += 1
            want = np.linalg.eigvals(build_dense(spec.down, spec.up, spec.tozero))
            worst_real_gap = max(worst_real_gap, multiset_gap(staged, want))
    # single-step rank-one updates against the dense oracle
    worst_step = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        if rng.random() < 0.5:
            spec = random_spec(rng, n)
            A, _ = tridiag_part(validate(spec))
            sp_w = tridiag_eigen(A)
            V, first = eig_vectors(A, sp_w)
            lam = sp_w.values.copy()
        else:
            lam = np.sort(-np.cumsum(rng.uniform(0.3, 1.2, n))).astype(complex)
            S = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
            A = S @ np.diag(lam.real) @ np.linalg.inv(S)
            V, first = S, S[0, :]
        alpha = float(rng.uniform(0.1, 1.5))
        k = int(rng.integers(0, n))
        A1 = A + alpha * np.outer(V[:, k], np.eye(n)[0])
        predicted = lam.copy()
        predicted[k] = predicted[k] + alpha * first[k]
        worst_step = max(worst_step, multiset_gap(predicted, np.linalg.eigvals(A1)))
    ok = (n_total >= 100 and worst_gap <= 1e-10 and n_real > 0 and worst_real_gap < 1e-6
          and worst_step < 1e-9)
    verdict("AC-5", ok,
            f"worst multiset gap {worst_gap:.2e} over {n_total} cases; staged form: "
            f"{n_real}/{n_total} all-real cases, worst gap {worst_real_gap:.2e}, "
            f"worst single-step gap {worst_step:.2e}; "
            f"sign-condition probe (reported, not gated): {sign_holds}/{n_total}")


def test_ac6_applications():
    rng = np.random.default_rng(66)
    res = steady_state(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    two_state_err = float(np.max(np.abs(res.pi - [2 / 3, 1 / 3])))

    worst_piq = worst_pi = 0.0
    for _ in range(10):
        n = 30
        qd = np.concatenate([[0.0], rng.uniform(0.3, 2.0, n - 1)])
        qu = np.concatenate([rng.uniform(0.3, 2.0, n - 1), [0.0]])
        qz = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 0.8, n - 2)])
        Q = BandSpec.finite(qd, qu, qz)
        r = steady_state(Q)
        Qd = build_dense(qd, qu, qz)
        Qd[0, 0] = -qu[0]
        worst_piq = max(worst_piq, float(np.max(np.abs(r.pi @ Qd))))
        ns = scipy.linalg.null_space(Qd.T)
        ref = np.abs(ns[:, 0])
        ref /= ref.sum()
        worst_pi = max(worst_pi, float(np.max(np.abs(r.pi - ref))))

    worst_v = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 30))
        qd = np.concatenate([[0.0], rng.uniform(0.3, 2.0, n - 1)])
        qu = np.concatenate([rng.uniform(0.3, 2.0, n - 1), [0.0]])
        qz = np.zeros(n) if rng.random() < 0.6 else \
            np.concatenate([[0.0, 0.0], rng.uniform(0.0, 0.8, n - 2)])
        c = rng.uniform(-2.0, 2.0, n)
        alpha = float(rng.uniform(0.05, 1.0))
        r = value_function(BandSpec.finite(qd, qu, qz), c, alpha)
        worst_v = max(worst_v, r.residual / (float(np.max(np.abs(c))) + 1.0))

    worst_abs = 0.0
    for shape in ("absorbing", "original"):
        bd, bu, bz = 2.0, 1.0, 1.0
        view = absorbing_bd_invert(bd, bu, bz, n=8, shape=shape)
        m = validate(absorbing_bd_spec(bd, bu, bz, shape=shape))
        Cd = np.linalg.inv(m.to_dense(200))
        worst_abs = max(worst_abs, abs(view.element(1, 1) - Cd[1, 1]),
                        abs(view.element(1, 1) - absorbing_c11(bd, bu, bz, shape)))
    ok = (two_state_err < 1e-12 and worst_piq < 1e-10 and worst_pi < 1e-9
          and worst_v < 1e-9 and worst_abs < 1e-8)
    verdict("AC-6", ok,
            f"2-state {two_state_err:.2e}, |piQ| {worst_piq:.2e}, pi vs null-space "
            f"{worst_pi:.2e}, value residual {worst_v:.2e}, absorbing c11 {worst_abs:.2e}")


def test_ac7_complexity_evidence():
    t0 = time.perf_counter()
    rep = bench([64, 128, 256, 512, 1024], repetitions=2, seed=0)
    took = time.perf_counter() - t0
    count_ok = all(abs(s[0] - 2.0) <= 0.1 for s in rep.count_slopes.values())
    gaps = []
    for kind in ("homogeneous", "random"):
        s = rep.slopes[f"structured[{kind}]"][0]
        d = rep.slopes[f"dense_lu[{kind}]"][0]
        gaps.append(d - s)
    ok = count_ok and all(g >= 0.4 for g in gaps) and took < 300.0
    counts = {k: f"{v[0]:.3f}" for k, v in rep.count_slopes.items()}
    verdict("AC-7", ok,
            f"count slopes {counts}, dense-minus-structured wall slopes "
            f"{[f'{g:.2f}' for g in gaps]}, bench {took:.0f}s")


def test_ac8_three_way_consistency():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 65))
        spec = random_spec(rng, n)
        m = validate(spec)
        a = invert(m).block()
        b = sherman_morrison_invert(m)
        c = dense_invert(build_dense(spec.down, spec.up, spec.tozero))
        worst = max(worst,
                    float(np.max(np.abs(a - b))),
                    float(np.max(np.abs(b - c))),
                    float(np.max(np.abs(a - c))))
    verdict("AC-8", worst < 1e-8, f"pairwise max deviation {worst:.2e}")
