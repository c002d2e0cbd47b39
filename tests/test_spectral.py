import warnings

import numpy as np
import pytest

from tricol.errors import BandProductNonpositive
from tricol.model import BandSpec, validate
from tricol.spectral import (
    Spectrum,
    _f_and_deriv,
    decompose_perturbation,
    eig_vectors,
    eigenvalues_of_B,
    initial_state,
    multiset_gap,
    rank_one_update,
    solve_alpha,
    tridiag_eigen,
    tridiag_part,
)

from conftest import build_dense, random_spec, worked_spec


def quadratic_eigs_2x2(a, b, c, d):
    tr, det = a + d, a * d - b * c
    s = np.sqrt(tr * tr - 4 * det)
    return sorted([(tr - s) / 2, (tr + s) / 2])


class TestTridiagEigen:
    def test_2x2_quadratic(self):
        W = np.array([[-3.0, 2.0], [2.0, -2.0]])
        want = quadratic_eigs_2x2(-3.0, 2.0, 2.0, -2.0)
        got = tridiag_eigen(W).values.real
        assert got == pytest.approx(want, abs=1e-12)
        assert got[0] == pytest.approx(-4.5615528, abs=1e-7)
        assert got[1] == pytest.approx(-0.4384472, abs=1e-7)

    def test_1x1(self):
        assert tridiag_eigen(np.array([[-3.5]])).values[0] == -3.5

    def test_random_vs_dense_oracle(self, rng):
        for _ in range(8):
            n = 10
            spec = random_spec(rng, n)
            A, _ = tridiag_part(validate(spec))
            got = tridiag_eigen(A).values.real
            want = np.sort(np.linalg.eigvals(A).real)
            assert np.max(np.abs(got - want)) < 1e-9
            assert np.all(got < 0.0)
            assert np.all(np.diff(got) > 0.0)  # distinct

    def test_band_product_hypothesis(self):
        W = np.array([[-2.0, 0.0], [1.0, -2.0]])
        with pytest.raises(BandProductNonpositive):
            tridiag_eigen(W)

    def test_relative_accuracy(self, rng):
        spec = random_spec(rng, 24)
        A, _ = tridiag_part(validate(spec))
        got = tridiag_eigen(A).values.real
        want = np.sort(np.linalg.eigvals(A).real)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


class TestEigVectors:
    def test_2x2_residual(self):
        W = np.array([[-3.0, 2.0], [2.0, -2.0]])
        sp = tridiag_eigen(W)
        V, first = eig_vectors(W, sp)
        for k in range(2):
            r = np.max(np.abs(W @ V[:, k] - sp.values[k].real * V[:, k]))
            assert r < 1e-10
        assert np.all(first != 0.0)

    def test_1x1(self):
        V, first = eig_vectors(np.array([[-2.0]]), Spectrum(np.array([-2.0 + 0j])))
        assert V[0, 0] == 1.0 and first[0] == 1.0

    def test_10x10_residuals(self, rng):
        for _ in range(5):
            spec = random_spec(rng, 10)
            A, _ = tridiag_part(validate(spec))
            sp = tridiag_eigen(A)
            V, _ = eig_vectors(A, sp)
            for k in range(10):
                r = np.max(np.abs(A @ V[:, k] - sp.values[k].real * V[:, k]))
                assert r < 1e-9

    def test_vectors_follow_the_given_eigenvalue_order(self, rng):
        A, _ = tridiag_part(validate(random_spec(rng, 12)))
        sp = tridiag_eigen(A)
        perm = rng.permutation(12)
        V, first = eig_vectors(A, Spectrum(sp.values[perm]))
        lam = sp.values.real[perm]
        assert np.max(np.abs(A @ V - V * lam)) < 1e-12
        assert np.array_equal(first, V[0])

    def test_negative_off_diagonals(self, rng):
        # -A has negative off-diagonal pairs; its eigenvectors are A's
        A, _ = tridiag_part(validate(random_spec(rng, 12)))
        sp = tridiag_eigen(-A)
        V, _ = eig_vectors(-A, sp)
        assert np.max(np.abs(-A @ V - V * sp.values.real)) < 1e-12

    def test_band_product_checked(self):
        W = np.array([[-2.0, 0.0], [1.0, -2.0]])
        with pytest.raises(BandProductNonpositive):
            eig_vectors(W, Spectrum(np.array([-2.0, -2.0], dtype=complex)))


class TestDecomposePerturbation:
    def test_zero_perturbation(self, rng):
        spec = random_spec(rng, 7)
        A, _ = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        coeffs, kept, _, resid = decompose_perturbation(np.zeros(7), V)
        assert kept == ()
        assert resid == 0.0

    def test_single_vector_expansion(self, rng):
        spec = random_spec(rng, 6)
        A, _ = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        u = 3.0 * V[:, 1]
        coeffs, kept, Vhat, _ = decompose_perturbation(u, V)
        assert kept == (1,)
        assert coeffs[1] == pytest.approx(3.0, rel=1e-10)
        assert np.allclose(Vhat[:, 1], u, atol=1e-12)

    def test_worked_3x3_residual(self):
        m = validate(worked_spec())
        A, u = tridiag_part(m)
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        _, _, _, resid = decompose_perturbation(u, V)
        assert resid < 1e-10


class TestRankOneUpdate:
    def test_alpha_zero_is_identity(self, rng):
        spec = random_spec(rng, 8)
        A, u = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        coeffs, kept, _, _ = decompose_perturbation(u, V)
        st = initial_state(sp, V[0, :] * coeffs, kept=kept)
        out = rank_one_update(st, 0.0)
        assert np.array_equal(out.lam, st.lam)
        assert np.array_equal(out.first, st.first)
        assert out.stage == 1

    def test_single_update_matches_oracle_tridiag(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            spec = random_spec(rng, n)
            A, _ = tridiag_part(validate(spec))
            sp = tridiag_eigen(A)
            V, first = eig_vectors(A, sp)
            alpha = float(rng.uniform(0.2, 2.0))
            k = int(rng.integers(0, n))
            A1 = A + alpha * np.outer(V[:, k], np.eye(n)[0])
            want = np.linalg.eigvals(A1)
            predicted = sp.values.copy()
            predicted[k] = predicted[k] + alpha * first[k]
            assert multiset_gap(predicted, want) < 1e-9

    def test_single_update_matches_oracle_general(self, rng):
        # not necessarily tridiagonal: random similarity with known spectrum
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lam = np.sort(rng.uniform(-9.0, -0.5, n))
            while np.min(np.diff(lam)) < 1e-3 if n > 1 else False:
                lam = np.sort(rng.uniform(-9.0, -0.5, n))
            S = rng.uniform(-1.0, 1.0, (n, n)) + np.eye(n) * 2.0
            A = S @ np.diag(lam) @ np.linalg.inv(S)
            alpha = float(rng.uniform(0.1, 1.5))
            k = int(rng.integers(0, n))
            c = S[:, k]
            A1 = A + alpha * np.outer(c, np.eye(n)[0])
            predicted = lam.astype(complex)
            predicted[k] += alpha * c[0]
            assert multiset_gap(predicted, np.linalg.eigvals(A1)) < 1e-8

    def test_real_alpha_keeps_real_spectrum(self, rng):
        spec = random_spec(rng, 6)
        A, _ = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, first = eig_vectors(A, sp)
        st = initial_state(sp, first)
        out = rank_one_update(st, 0.7)
        assert np.all(out.lam.imag == 0.0)


class TestSolveAlpha:
    def test_last_stage_is_one(self, rng):
        spec = random_spec(rng, 5)
        A, u = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        coeffs, kept, _, _ = decompose_perturbation(u, V)
        st = initial_state(sp, V[0, :] * coeffs, kept=kept)
        st.stage = len(kept) - 1
        assert solve_alpha(st) == 1.0

    def test_m1_reconstructs_exactly(self, rng):
        # single retained coefficient: alpha = 1 and B = W + c_1 delta
        spec = random_spec(rng, 6)
        A, _ = tridiag_part(validate(spec))
        sp = tridiag_eigen(A)
        V, _ = eig_vectors(A, sp)
        u = 1.7 * V[:, 2]
        coeffs, kept, Vhat, _ = decompose_perturbation(u, V)
        st = initial_state(sp, V[0, :] * coeffs, kept=kept)
        alpha = solve_alpha(st)
        assert alpha == 1.0
        out = rank_one_update(st, alpha)
        B1 = A + np.outer(u, np.eye(6)[0])
        assert multiset_gap(out.lam, np.linalg.eigvals(B1)) < 1e-9


class TestPipeline:
    def test_worked_3x3(self):
        m = validate(worked_spec())
        sp, audit = eigenvalues_of_B(m, compare_oracle=True)
        assert audit.oracle_gap < 1e-6
        assert audit.gershgorin_ok
        assert audit.max_real_part < 0.0

    def test_tridiagonal_B_matches_its_own_tridiag_eigen(self, rng):
        # bz_i = 0 for i >= 2 keeps B itself tridiagonal
        n = 8
        bd = rng.uniform(0.4, 1.6, n)
        bu = rng.uniform(0.4, 1.6, n)
        bu[-1] = 0.0
        bz = np.zeros(n)
        bz[1] = 0.3
        m = validate(BandSpec.finite(bd, bu, bz))
        sp, audit = eigenvalues_of_B(m)
        want = tridiag_eigen(m.to_dense()).values
        assert multiset_gap(sp.values, want) < 1e-9
        assert audit.m_count == 0

    def test_suite_against_oracle(self, rng):
        real_cases = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            spec = random_spec(rng, n, bz_lo=0.0)
            m = validate(spec)
            sp, audit = eigenvalues_of_B(m, compare_oracle=True)
            assert audit.gershgorin_ok
            assert audit.max_real_part < 0.0
            if audit.alphas_all_real:
                real_cases += 1
                assert audit.oracle_gap < 1e-6
            else:
                assert audit.oracle_gap < 1e-5  # complex route, still tracked
        assert real_cases > 0

    def test_gershgorin_disc_structure(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            spec = random_spec(rng, n)
            m = validate(spec)
            B = m.to_dense()
            for i in range(n):
                center = B[i, i]
                radius = np.sum(np.abs(B[i])) - abs(center)
                assert center < 0.0
                assert radius <= -center + 1e-12

    def test_sign_condition_probe_reported(self, rng):
        # sub-stochastic with only row 0 deficient: every validated spec here
        hold = 0
        total = 0
        for _ in range(25):
            n = int(rng.integers(2, 11))
            spec = random_spec(rng, n)
            m = validate(spec)
            _, audit = eigenvalues_of_B(m)
            total += 1
            if audit.sign_condition_holds:
                hold += 1
        # recorded, not asserted: the conjecture says this should be high
        assert total == 25
        assert 0 <= hold <= total

    def test_prop15_sign_pattern_gives_real_alphas(self, rng):
        # under a negative-block-then-positive-block pattern of first
        # components, every stage produces a real positive weight
        for _ in range(30):
            n = int(rng.integers(2, 10))
            lam = np.sort(-np.cumsum(rng.uniform(0.2, 1.5, n)))
            cut = int(rng.integers(0, n + 1))
            signs = np.r_[-np.ones(cut), np.ones(n - cut)]
            first = signs * rng.uniform(0.2, 1.5, n)
            st = initial_state(Spectrum(lam.astype(complex)), first)
            while st.stage < st.m_count:
                alpha = solve_alpha(st)
                assert alpha.imag == 0.0
                assert alpha.real > 0.0
                st = rank_one_update(st, alpha)


class TestMultisetGap:
    def test_conjugate_pairing(self):
        a = np.array([-1.0 - 0.5j, -1.0 + 0.5j])
        b = np.array([-1.0 + 0.5j, -1.0 - 0.5j])
        assert multiset_gap(a, b) == 0.0


class TestResonance:
    def test_resonant_alpha_rejected(self):
        from tricol.errors import ResonantAlpha
        lam = np.array([-3.0, -1.0], dtype=complex)
        first = np.array([1.0, 1.0], dtype=complex)
        st = initial_state(Spectrum(lam), first)
        # alpha * c_1(0) == lam_2 - lam_1 collides the pair
        with pytest.raises(ResonantAlpha):
            rank_one_update(st, 2.0)


class TestNegativeRealPartUpTo32:
    def test_all_sizes_up_to_32(self, rng):
        for n in (2, 7, 16, 25, 32):
            spec = random_spec(rng, n)
            m = validate(spec)
            sp, audit = eigenvalues_of_B(m)
            assert float(np.max(sp.values.real)) < 0.0
            assert audit.gershgorin_ok


#: spectral workload instance (seed 1, n = 32, pool index 15) on which a
#: companion root lands exactly on a pole of the rational root condition
POLE_BD = [
    0.6435629029446025, 1.2848362977138519, 5.5351306511167,
    0.26582302329288676, 0.6009491512058607, 0.7427155489393885,
    5.817093697267532, 0.6971791780797757, 0.2582436417813637,
    0.20061246345939251, 3.858502254418821, 0.37173274921548866,
    0.7096391569340341, 0.5284204962401428, 0.3809131719351359,
    0.13269058974366382, 5.293754445558337, 0.3053274365409713,
    0.6411132241889927, 0.1222785254866553, 4.26134980695875,
    0.5727942653519685, 4.758958940164606, 1.5825943669761513,
    1.348456259843236, 1.3450831537376045, 4.083076946414257,
    0.24674484467754138, 9.498877287600504, 0.19110345593495795,
    4.582439825413106, 0.18485543478566263,
]
POLE_BU = [
    2.910552841911531, 0.5301440218904983, 0.22181419998505547,
    0.862383246214215, 1.520225118456322, 0.12946905963782157,
    0.17446112061183167, 0.8389623534691253, 0.17132023875307859,
    0.71952228512359, 0.5644310997947164, 1.051323644273732, 7.162070223917858,
    2.9819255582104525, 0.17769112230452913, 3.040171372251034,
    8.555771110212227, 0.1307163025023961, 4.0698087074221405,
    0.5027731108025144, 1.057104105950186, 0.9040887178016946,
    0.166007339325043, 2.303493343192799, 0.1278142717485311,
    0.5461464085939906, 7.528323607127743, 3.7186876665213124,
    2.89606038043562, 0.703149336284495, 0.10839707650466852, 0.0,
]
POLE_BZ = [
    2.610557720130439, 0.2872962955769686, 5.366482615735903,
    2.4654656377304414, 8.68746083894246, 1.667501540229164,
    0.4774129440302781, 0.9939818379771557, 6.918167075431383,
    7.887182153646472, 7.4440629605110855, 2.7289854563109226,
    0.40382256730765037, 0.13442717181986322, 0.5521901775504403,
    0.4428856186605506, 1.2923974473075126, 3.028787566979739,
    0.3228612081653421, 8.165053277429468, 0.8089014446084151,
    4.343065240735733, 0.19766426050391647, 0.21135219933511268,
    0.3585873238615581, 2.512357866017858, 0.2672028927739282,
    3.8737166996683148, 0.27358349816912003, 0.1971187869564556,
    0.8074737756484671, 0.9814527372306733,
]


class TestPole:
    def test_f_and_deriv_at_a_pole_is_nonfinite_without_warning(self):
        dvec = np.array([2.0, 3.0], dtype=complex)
        cvec = np.array([0.5, 0.25], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f, fp = _f_and_deriv(2.0 + 0.0j, 1.0 + 0.0j, dvec, cvec)
            assert not np.isfinite(f) and not np.isfinite(fp)
            f, fp = _f_and_deriv(1.0 + 0.0j, 1.0 + 0.0j, dvec, cvec)
        assert f == pytest.approx(1.0 - 1.0 - (0.5 / 1.0 + 0.25 / 2.0))
        assert fp == pytest.approx(-1.0 - (0.5 * 2.0 / 1.0 + 0.25 * 3.0 / 4.0))

    def test_pipeline_through_a_pole_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sp, _ = eigenvalues_of_B(validate(BandSpec.finite(POLE_BD, POLE_BU, POLE_BZ)))
        want = np.linalg.eigvals(build_dense(POLE_BD, POLE_BU, POLE_BZ))
        assert multiset_gap(sp.values, want) <= 1e-9 * float(np.max(np.abs(want)))
