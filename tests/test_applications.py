import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tricol import general
from tricol.applications import (
    StationaryResult,
    _bellman_residual,
    _normalize_pi,
    _shifted_matrix,
    _tail_bound,
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
    NonFiniteRate,
    NotNormalizable,
    NumericalError,
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

    def test_no_tail_bound_below_the_tail(self):
        # the chain settles at level 128, but its mass peaks near index 400,
        # where the declared tail starts: 2e-147 lies past 128, and the tail's
        # gamma applied at 128 would claim 6.6e-201
        def rule(low, mid, tail):
            return lambda i: low if i < 100 else (mid if i < 400 else tail)

        Q = BandSpec.infinite(lambda i: 0.0 if i == 0 else 1.0 if i < 400 else 2.0,
                              rule(0.01, 1.5, 1.0), lambda i: 0.0, tail_start=400)
        res = steady_state(Q)
        assert res.truncation_level == 128
        assert res.tail_bound is None


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


def nested_steady_state(Q: BandSpec, tol: float = 1e-12) -> StationaryResult:
    """The infinite steady_state as a nested loop, kept as an oracle: every
    stationary level L restarts the gamma doubling at sweep level 2L, so it
    sweeps the same window levels again and again."""
    m = _shifted_matrix(Q)
    win = general._Window(m)
    level = general.LEVEL0
    prev_total = None
    while level <= general.MAX_LEVEL:
        gam = general._gamma_stable_infinite(win, level, tol)[0][: level + 1]
        total = float(np.sum(gam))
        if prev_total is not None and abs(total - prev_total) <= tol * total \
                and gam[-1] <= tol * total:
            res = _normalize_pi(Q, gam, level, tol, win.upto(level))
            res.tail_bound = _tail_bound(Q, gam, total)
            return res
        prev_total = total
        level *= 2
    raise NotNormalizable(f"stationary mass did not stabilize by level {general.MAX_LEVEL}")


def _generator_rules(qd, qu, qz, tail_start=None):
    """An infinite generator from rules for i >= 1 (qd(0) = qz(0) = 0)."""
    return BandSpec.infinite(lambda i: 0.0 if i == 0 else qd(i), qu,
                             lambda i: 0.0 if i == 0 else qz(i), tail_start=tail_start)


@st.composite
def infinite_generators(draw):
    """Periodic, head-plus-tail, slow, null and transient infinite chains."""
    kind = draw(st.sampled_from(["periodic", "head_tail", "slow", "null", "transient"]))
    if kind in ("periodic", "head_tail"):
        size = draw(st.integers(1, 6 if kind == "periodic" else 12))

        def values(lo, hi):
            return draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))

        qd, qu, qz = values(0.5, 2.0), values(0.3, 1.5), values(0.0, 0.2)
        if kind == "periodic":
            return _generator_rules(*(lambda i, v=v: v[i % size] for v in (qd, qu, qz)))
        tail = (draw(st.floats(1.3, 2.0)), draw(st.floats(0.5, 1.2)), draw(st.floats(0.0, 0.1)))
        return _generator_rules(*(lambda i, v=v, t=t: v[i] if i < size else t
                                  for v, t in zip((qd, qu, qz), tail)), tail_start=size)
    c = draw(st.floats(0.5, 2.0))
    ratio = {"slow": st.floats(0.9, 0.999), "null": st.just(1.0),
             "transient": st.floats(1.001, 1.5)}[kind]
    r = draw(ratio)
    return _generator_rules(lambda i: c, lambda i: c * r, lambda i: 0.0)


class TestSteadyStateOneLoop:
    """The infinite steady_state runs one loop over the sweep levels and
    gives what the nested loop gave, sweeping each window level once."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(infinite_generators())
    def test_matches_nested_loop(self, Q):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(general, "MAX_LEVEL", 1 << 14)
            outcomes = []
            for solve in (steady_state, nested_steady_state):
                try:
                    outcomes.append(solve(Q))
                except (NoConvergence, NotNormalizable) as err:
                    outcomes.append(type(err))
        got, want = outcomes
        if isinstance(got, type) or isinstance(want, type):
            assert got is want  # NoConvergence: the nested inner doubling raises first
            return
        assert got.truncation_level == want.truncation_level
        assert np.allclose(got.pi, want.pi, rtol=1e-12, atol=0.0)

    @staticmethod
    def sweep_levels(monkeypatch):
        """The window level of every row-0 ratio sweep, in call order."""
        levels = []
        sweep = general._row0_ratios

        def counted(bd, bu, bz, hi):
            levels.append(len(bd) - 1)
            return sweep(bd, bu, bz, hi)

        monkeypatch.setattr(general, "_row0_ratios", counted)
        return levels

    @pytest.mark.parametrize("bu,level0,cap,sweeps", [
        (0.1, 64, 1 << 20, [128, 256, 512]),             # settles at level 128
        (0.98, 64, 1 << 20, [128 << k for k in range(8)]),  # nested: 24 sweeps
        (1.0, 16, 1 << 10, [32 << k for k in range(6)]),    # null: NoConvergence
        (1.2, 16, 1 << 10, [32 << k for k in range(6)]),    # transient
    ])
    def test_each_window_level_swept_once(self, monkeypatch, bu, level0, cap, sweeps):
        monkeypatch.setattr(general, "LEVEL0", level0)
        monkeypatch.setattr(general, "MAX_LEVEL", cap)
        levels = self.sweep_levels(monkeypatch)
        try:
            steady_state(_generator_rules(lambda i: 1.0, lambda i: bu, lambda i: 0.0))
        except NoConvergence:
            assert bu >= 1.0
        assert levels == sweeps

    def test_cut_chain_sweeps_each_level_once(self, monkeypatch):
        # a bu = 0 cut inside the first window makes every sweep exact
        levels = self.sweep_levels(monkeypatch)
        Q = _generator_rules(lambda i: 1.0, lambda i: 0.0 if i == 40 else 0.9,
                             lambda i: 0.0)
        res = steady_state(Q)
        assert res.truncation_level == 128 and levels == [128, 256]
        assert max(Counter(levels).values()) == 1


def detailed_balance_pi(Q: BandSpec) -> np.ndarray:
    """50-digit stationary vector of a birth-and-death chain (bz = 0):
    pi_j is proportional to prod_{k <= j} qu[k-1]/qd[k]."""
    with mpmath.workdps(50):
        g = [mpmath.mpf(1)]
        for up, down in zip(Q.up[:-1], Q.down[1:]):
            g.append(g[-1] * mpmath.mpf(float(up)) / mpmath.mpf(float(down)))
        total = mpmath.fsum(g)
        return np.array([float(x / total) for x in g])


class TestSteadyStateSurplusSweep:
    """The surplus form of the ratio sweep forms no pivot by subtraction, so
    birth-and-death chains keep entrywise relative accuracy at any length."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1000, 2000, 5000])
    def test_band_only_chain_matches_detailed_balance(self, n, seed):
        Q = random_generator(np.random.default_rng(seed), n, band_only=True)
        want = detailed_balance_pi(Q)
        assert np.max(np.abs(steady_state(Q).pi / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_transient_state_zero_raises(self, seed):
        # qd[1200] = 0 closes states 1200.. into a class without state 0:
        # B is singular, and both solvers meet an exactly zero pivot
        Q = random_generator(np.random.default_rng(seed), 2000, band_only=True)
        qd = Q.down.copy()
        qd[1200] = 0.0
        Q = BandSpec.finite(qd, Q.up, Q.tozero)
        with pytest.raises(NumericalError):
            steady_state(Q)
        with pytest.raises(NumericalError):
            invert(_shifted_matrix(Q))


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


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 40), (1, 40), (17, 90)])
def test_shift_calls_plain_qd_once_per_index_past_zero(lo, hi):
    calls = Counter()

    def qd(i):
        calls.update([i])
        return 0.0 if i == 0 else 1.0 + 0.1 * (i % 3)

    m = _shifted_matrix(BandSpec.infinite(qd, lambda i: 1.0, lambda i: 0.0))
    assert 0 not in calls  # validate()'s probe reads bd[0] = 1 from the shift
    calls.clear()
    bd = m.band_rates(hi, lo)[0]
    assert calls == Counter(range(max(lo, 1), hi + 1))
    assert bd.tolist() == [1.0 if i == 0 else qd(i) for i in range(lo, hi + 1)]


class TestGeneratorFromDense:
    def test_roundtrip(self, rng):
        Q = random_generator(rng, 9)
        Qd = dense_generator(Q)
        back = generator_from_dense(Qd)
        assert np.array_equal(dense_generator(back), Qd)

    @pytest.mark.parametrize("entries,error,text", [
        # (row, col, value, rebalance the diagonal?)
        ([(3, 6, 0.5, False), (5, 2, 0.5, True)], ValidationError,
         "row 3 of Q does not sum to zero"),       # a row's sum error comes first
        ([(3, 7, 0.5, True), (3, 6, 0.5, True), (5, 1, 0.5, False)], ShapeMismatch,
         "entry (3, 6) outside band + column 0"),  # its first off-band entry
        ([(3, 3, 0.5, False), (5, 2, 0.5, True)], ValidationError,
         "row 3 of Q does not sum to zero"),
        ([(2, 5, 0.5, True), (3, 3, 0.5, False)], ShapeMismatch,
         "entry (2, 5) outside band + column 0"),  # the first faulty row wins
    ])
    def test_error_precedence(self, rng, entries, error, text):
        Qd = dense_generator(random_generator(rng, 8))
        for i, j, value, rebalance in entries:
            Qd[i, j] += value
            if rebalance:
                Qd[i, i] -= value
        with pytest.raises(ValidationError) as info:
            generator_from_dense(Qd)
        assert type(info.value) is error and str(info.value) == text

    def test_nan_row_sum_is_left_to_validate(self, rng):
        Qd = dense_generator(random_generator(rng, 6))
        Qd[3, 2] = np.nan
        Q = generator_from_dense(Qd)
        with pytest.raises(NonFiniteRate):
            steady_state(Q)

    @pytest.mark.parametrize("row", [(np.inf, -np.inf), (-np.inf, np.inf)])
    def test_inf_minus_inf_row_is_left_to_validate(self, row):
        # the row sums to NaN without a RuntimeWarning; validate() names the rate
        Qd = np.array([[-1.0, 1.0, 0.0], [*row, 0.0], [0.0, 1.0, -1.0]])
        with pytest.raises(NonFiniteRate, match=r"bd\[1\] = -?inf is not finite"):
            steady_state(Qd)


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
