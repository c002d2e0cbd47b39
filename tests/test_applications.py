import warnings

import numpy as np
import pytest
import scipy.linalg

from tricol import general
from tricol.applications import (
    _bellman_residual,
    _normalize_pi,
    _shifted_matrix,
    _value_band_column,
    absorbing_bd_invert,
    absorbing_bd_spec,
    absorbing_c11,
    generator_from_dense,
    steady_state,
    value_function,
)
from tricol.errors import (
    NoConvergence,
    NotNormalizable,
    ShapeMismatch,
    SingularMatrix,
    ValidationError,
)
from tricol.general import block_residual, gamma_table, invert
from tricol.model import BandSpec, validate

from conftest import build_dense


def random_generator(rng, n, band_only=False):
    qd = np.concatenate([[0.0], rng.uniform(0.3, 2.0, n - 1)])
    qu = np.concatenate([rng.uniform(0.3, 2.0, n - 1), [0.0]])
    if band_only:
        qz = np.zeros(n)
    else:
        qz = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 0.8, n - 2)])
    return BandSpec.finite(qd, qu, qz)


def dense_generator(Q: BandSpec) -> np.ndarray:
    qd = np.asarray(Q.down, float).copy()
    B = build_dense(qd, Q.up, Q.tozero)
    B[0, 0] = -float(np.asarray(Q.up)[0])  # no exit from state 0
    return B


class TestSteadyState:
    def test_two_state_exact(self):
        res = steady_state(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        assert np.max(np.abs(res.pi - [2.0 / 3.0, 1.0 / 3.0])) < 1e-15
        assert res.residual < 1e-14

    def test_one_state(self):
        res = steady_state(np.array([[0.0]]))
        assert res.pi.tolist() == [1.0]

    def test_random_30_state(self, rng):
        for _ in range(5):
            Q = random_generator(rng, 30)
            res = steady_state(Q)
            Qd = dense_generator(Q)
            assert res.residual < 1e-12
            assert np.max(np.abs(res.pi @ Qd)) < 1e-10 * np.max(np.abs(Qd))
            ns = scipy.linalg.null_space(Qd.T)
            assert ns.shape[1] == 1
            ref = np.abs(ns[:, 0])
            ref /= ref.sum()
            assert np.max(np.abs(res.pi - ref)) < 1e-9

    def test_properties(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            Q = random_generator(rng, n)
            res = steady_state(Q)
            assert abs(res.pi.sum() - 1.0) < 1e-12
            assert np.all(res.pi >= -1e-14)

    def test_dense_input_shape_check(self):
        bad = np.array([[-1.0, 0.5, 0.5], [1.0, -1.0, 0.0], [0.3, 0.7, -1.0]])
        with pytest.raises(ShapeMismatch):
            steady_state(bad)  # (0, 2) entry outside band

    def test_nonzero_row_sum_rejected(self):
        with pytest.raises(ValidationError):
            steady_state(np.array([[-1.0, 0.5], [2.0, -2.0]]))

    def test_infinite_homogeneous_tail(self):
        Q = BandSpec.infinite(
            lambda i: 0.0 if i == 0 else 2.0,
            lambda i: 1.0,
            lambda i: 0.0,
            tail_start=1)
        res = steady_state(Q)
        # birth-death chain with up 1, down 2: pi_j proportional to (1/2)^j
        n = len(res.pi)
        ref = 0.5 ** np.arange(n)
        ref /= 2.0  # total mass of the full geometric series
        assert np.max(np.abs(res.pi - ref)) < 1e-10
        assert res.truncation_level is not None
        assert res.tail_bound is not None and res.tail_bound < 1e-10


class TestSteadyStateStableSweep:
    """steady_state reads gamma from the stable backward sweep alone."""

    @pytest.mark.parametrize("n", [5000, 100_000])
    def test_large_chain_raises_no_runtime_warning(self, rng, n):
        Q = random_generator(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = steady_state(Q)
        assert res.residual < 1e-12
        assert np.all(np.isfinite(res.pi))

    def test_pi_is_normalized_gamma_table(self, rng):
        Q = random_generator(rng, 300)
        gam = gamma_table(_shifted_matrix(Q), 299).gamma
        assert np.array_equal(steady_state(Q).pi, gam / np.sum(gam))

    def test_infinite_pi_is_normalized_gamma_table(self):
        Q = BandSpec.infinite(lambda i: 0.0 if i == 0 else 1.6 + 0.1 * (i % 3),
                              lambda i: 1.0, lambda i: 0.0 if i < 2 else 0.05,
                              tail_start=3)
        res = steady_state(Q)
        gam = gamma_table(_shifted_matrix(Q), res.truncation_level).gamma
        assert np.array_equal(res.pi, gam / np.sum(gam))

    def test_doubling_starts_at_general_level0(self, monkeypatch):
        # a fast-decaying chain settles at the second level of the schedule
        Q = BandSpec.infinite(lambda i: 0.0 if i == 0 else 10.0, lambda i: 0.1,
                              lambda i: 0.0)
        assert steady_state(Q).truncation_level == 2 * general.LEVEL0
        monkeypatch.setattr(general, "LEVEL0", 16)
        assert steady_state(Q).truncation_level == 32

    def test_doubling_bounded_by_general_max_level(self, monkeypatch):
        null = BandSpec.infinite(lambda i: 0.0 if i == 0 else 1.0, lambda i: 1.0,
                                 lambda i: 0.0)
        monkeypatch.setattr(general, "MAX_LEVEL", 256)
        with pytest.raises((NoConvergence, NotNormalizable), match="level 256"):
            steady_state(null)


class TestAbsorbingBD:
    def test_c11_reference_value(self):
        got = absorbing_c11(2.0, 1.0, 1.0)
        assert got == pytest.approx(1.0 / (-2.0 + 0.5857864376269049), abs=1e-12)
        assert got == pytest.approx(-0.7071067811865476, abs=1e-10)

    def test_row0_zero(self):
        view = absorbing_bd_invert(2.0, 1.0, 1.0, n=8)
        assert view.element(0, 5) == 0.0

    def test_column0_constant(self):
        view = absorbing_bd_invert(2.0, 1.0, 1.0, n=8)
        assert view.element(7, 0) == -0.5

    @pytest.mark.parametrize("shape", ["absorbing", "original"])
    def test_against_truncation_oracle(self, shape, rng):
        bd, bu, bz = 2.0, 1.0, 1.0
        view = absorbing_bd_invert(bd, bu, bz, n=12, shape=shape)
        m = validate(absorbing_bd_spec(bd, bu, bz, shape=shape))
        Cd = np.linalg.inv(m.to_dense(200))
        assert np.max(np.abs(view.block(12) - Cd[:12, :12])) < 1e-8
        assert view.element(1, 1) == pytest.approx(
            absorbing_c11(bd, bu, bz, shape=shape), abs=1e-12)

    def test_residual_on_truncations_up_to_200(self):
        view = absorbing_bd_invert(1.4, 0.9, 0.7, n=200)
        assert block_residual(view, 200) < 1e-9

    def test_finite_truncation_delegates_to_general(self):
        view = absorbing_bd_invert(2.0, 1.0, 1.0, n=10, last=9)
        spec = absorbing_bd_spec(2.0, 1.0, 1.0, last=9)
        B = build_dense(spec.down, spec.up, spec.tozero)
        assert np.max(np.abs(view.block(10) - np.linalg.inv(B))) < 1e-11

    def test_infinite_vs_general_algorithm(self):
        # closed-form stages against the general machinery on the same spec
        view_fast = absorbing_bd_invert(1.7, 0.8, 0.5, n=15)
        m = validate(absorbing_bd_spec(1.7, 0.8, 0.5))
        view_gen = invert(m, n=15)
        assert np.max(np.abs(view_fast.block(15) - view_gen.block(15))) < 1e-11

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            absorbing_bd_invert(0.0, 1.0, 1.0, n=4)
        with pytest.raises(ShapeMismatch):
            absorbing_bd_invert(1.0, 1.0, 1.0, n=4, shape="sideways")


class TestValueFunction:
    def test_zero_cost(self, rng):
        Q = random_generator(rng, 8, band_only=True)
        res = value_function(Q, np.zeros(8), 0.3)
        assert np.max(np.abs(res.values)) == 0.0

    def test_one_state_scalar(self):
        Q = BandSpec.finite([0.0], [0.0], [0.0])
        res = value_function(Q, [5.0], 2.0)
        assert res.values[0] == pytest.approx(2.5, abs=1e-14)

    def test_random_25_state_birth_death(self, rng):
        for _ in range(5):
            Q = random_generator(rng, 25, band_only=True)
            c = rng.uniform(-1.0, 1.0, 25)
            res = value_function(Q, c, 0.1)
            Qd = dense_generator(Q)
            want = np.linalg.solve(0.1 * np.eye(25) - Qd, c)
            assert res.residual < 1e-9 * (np.max(np.abs(c)) + 1.0)
            assert np.max(np.abs(res.values - want)) < 1e-8

    def test_band_column_route(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 30))
            Q = random_generator(rng, n)
            c = rng.uniform(-2.0, 2.0, n)
            alpha = float(rng.uniform(0.05, 1.0))
            res = value_function(Q, c, alpha)
            Qd = dense_generator(Q)
            want = np.linalg.solve(alpha * np.eye(n) - Qd, c)
            assert np.max(np.abs(res.values - want)) < 1e-8
            assert res.residual < 1e-9 * (np.max(np.abs(c)) + 1.0)

    def test_scaling_covariance_exact(self, rng):
        Q = random_generator(rng, 12, band_only=True)
        c = rng.uniform(0.0, 1.0, 12)
        a = value_function(Q, 2.0 * c, 0.25).values
        b = 2.0 * value_function(Q, c, 0.25).values
        assert np.array_equal(a, b)

    def test_singular_tridiagonal_raises_typed_error(self):
        # all-zero rates with alpha = 0: the first gtsv pivot is exactly zero
        z = np.zeros(4)
        with pytest.raises(SingularMatrix):
            _value_band_column(z, z, z, np.ones(4), 0.0)

    def test_discount_must_be_positive(self, rng):
        Q = random_generator(rng, 4, band_only=True)
        with pytest.raises(ValidationError):
            value_function(Q, np.ones(4), 0.0)


class TestGeneratorFromDense:
    def test_roundtrip(self, rng):
        Q = random_generator(rng, 9)
        Qd = dense_generator(Q)
        back = generator_from_dense(Qd)
        assert np.array_equal(dense_generator(back), Qd)


class TestResidualsPropagateNaN:
    def test_stationary_residual(self, rng):
        Q = random_generator(rng, 8)
        gam = steady_state(Q).pi
        qd = Q.down.copy()
        qd[4] = np.nan
        res = _normalize_pi(BandSpec.finite(qd, Q.up, Q.tozero), gam, None, 1e-12)
        assert np.isnan(res.residual)

    def test_bellman_residual(self, rng):
        Q = random_generator(rng, 8)
        c = rng.uniform(0.0, 1.0, 8)
        V = value_function(Q, c, 0.2).values
        V[3] = np.nan
        assert np.isnan(_bellman_residual(Q.down, Q.up, Q.tozero, V, c, 0.2))


class TestValueFunctionRejectsBadRates:
    @pytest.mark.parametrize("band_only", [True, False])
    @pytest.mark.parametrize("which", ["down", "up", "tozero"])
    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_bad_rate_raises(self, rng, band_only, which, bad):
        Q = random_generator(rng, 10, band_only=band_only)
        rates = {k: np.array(getattr(Q, k), dtype=float) for k in ("down", "up", "tozero")}
        rates[which][4] = bad
        bad_q = BandSpec.finite(rates["down"], rates["up"], rates["tozero"])
        with pytest.raises(ValidationError):
            value_function(bad_q, np.ones(10), 0.3)

    def test_negative_rate_from_dense(self, rng):
        Qd = dense_generator(random_generator(rng, 6, band_only=True))
        Qd[2, 3] = -0.5
        Qd[2, 2] = -Qd[2].sum() + Qd[2, 2]
        with pytest.raises(ValidationError):
            value_function(Qd, np.ones(6), 0.3)

    def test_zero_rate_absorbing_state_allowed(self):
        Q = BandSpec.finite([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        res = value_function(Q, [1.0, 1.0], 0.5)
        assert np.allclose(res.values, [2.0, 2.0])


class TestGeneratorRowZero:
    """Row 0's column-0 entry is its diagonal, so a generator has no qz[0]."""

    BAD = BandSpec.finite([0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.0, 0.0])

    def test_value_function_rejects_qz0(self):
        with pytest.raises(ValidationError, match="qz"):
            value_function(self.BAD, [1.0, 0.0, 0.0], 0.3)

    def test_steady_state_rejects_qz0(self):
        with pytest.raises(ValidationError, match="qz"):
            steady_state(self.BAD)

    def test_infinite_steady_state_rejects_qz0(self):
        Q = BandSpec.infinite(lambda i: 0.0 if i == 0 else 2.0, lambda i: 1.0,
                              lambda i: 0.5 if i == 0 else 0.0)
        with pytest.raises(ValidationError, match="qz"):
            steady_state(Q)
