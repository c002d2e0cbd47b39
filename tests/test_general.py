import numpy as np
import pytest

from tricol.errors import OutOfRange, ValidationError
from tricol.general import (
    InverseView,
    block_residual,
    element,
    first_column_value,
    gamma1,
    gamma_table,
    invert,
    rho_eta,
)
from tricol.homogeneous import hom_constants
from tricol.model import BandSpec, HomogeneousSpec, validate

from conftest import build_dense, random_rates, random_spec, worked_spec


def oracle_inverse(spec):
    return np.linalg.inv(build_dense(spec.down, spec.up, spec.tozero))


class TestFirstColumn:
    @pytest.mark.parametrize("bd0,want", [(2.0, -0.5), (1.0, -1.0), (4.0, -0.25)])
    def test_formula(self, bd0, want):
        m = validate(BandSpec.finite([bd0, 1.0], [1.0, 0.0], [0.0, 1.0]))
        assert first_column_value(m) == want

    def test_worked_column(self):
        spec = worked_spec()
        m = validate(spec)
        assert first_column_value(m) == -1.0
        assert np.allclose(oracle_inverse(spec)[:, 0], -1.0)


class TestRhoEta:
    def test_worked_values(self):
        m = validate(worked_spec())
        rho, eta = rho_eta(m, 2)
        assert rho[1] == 1.0 and eta[1] == 0.0
        assert rho[2] == 1.5 and eta[2] == -1.0

    def test_initial_values_any_spec(self, rng):
        m = validate(random_spec(rng, 8))
        rho, eta = rho_eta(m, 1)
        assert rho[1] == 1.0 and eta[1] == 0.0

    def test_bd2_zero_first_piecewise_case(self):
        m = validate(BandSpec.finite([1.0, 1.0, 0.0, 1.0], [2.0, 1.0, 0.5, 0.0],
                                     [0.0, 1.0, 1.0, 0.5]))
        rho, eta = rho_eta(m, 3)
        assert rho[2] == 1.0 and eta[2] == 0.0

    def test_affine_identity_within_segments(self, rng):
        # gamma_j = rho_j * gamma_anchor + eta_j, checked in a benign regime
        for _ in range(10):
            n = int(rng.integers(3, 14))
            spec = random_spec(rng, n, lo=0.6, hi=1.6, bz_hi=0.4)
            m = validate(spec)
            tab = gamma_table(m, n - 1)
            anchors = list(tab.anchors) + [n]
            for a, nxt in zip(tab.anchors, anchors[1:]):
                ga = tab.gamma[a]
                for j in range(a, nxt):
                    want = tab.rho[j] * ga + tab.eta[j]
                    assert tab.gamma[j] == pytest.approx(want, abs=1e-9)


class TestGamma1:
    def test_worked_value(self):
        m = validate(worked_spec())
        assert gamma1(m) == pytest.approx(6.0 / 7.0, abs=1e-15)

    def test_worked_gamma2(self):
        m = validate(worked_spec())
        tab = gamma_table(m, 2)
        g2 = tab.rho[2] * gamma1(m) + tab.eta[2]
        assert g2 == pytest.approx(2.0 / 7.0, abs=1e-14)
        assert tab.gamma[2] == pytest.approx(2.0 / 7.0, abs=1e-14)

    def test_matches_oracle_row0(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            spec = random_spec(rng, n)
            C = oracle_inverse(spec)
            got = gamma1(validate(spec))
            assert got == pytest.approx(C[0, 1] / C[0, 0], abs=1e-11)

    def test_infinite_homogeneous_closed_form(self):
        m = validate(HomogeneousSpec(2.0, 1.0, 1.0).as_band())
        want = hom_constants(HomogeneousSpec(2.0, 1.0, 1.0)).gamma
        assert gamma1(m, tol=1e-12) == pytest.approx(want, abs=1e-12)

    def test_planted_zaccording_anchors_match_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 20))
            spec = random_spec(rng, n, zero_bd=2)
            m = validate(spec)
            C = oracle_inverse(spec)
            tab = gamma_table(m, n - 1)
            for a, val in zip(tab.anchors, tab.anchor_values):
                assert val == pytest.approx(C[0, a] / C[0, 0], abs=1e-9)


class TestInvert:
    def test_scalar_matrix(self):
        m = validate(BandSpec.finite([2.0], [0.0], [0.0]))
        assert invert(m).block().tolist() == [[-0.5]]

    def test_worked_3x3(self):
        spec = worked_spec()
        view = invert(validate(spec))
        C = view.block()
        assert np.max(np.abs(C - oracle_inverse(spec))) < 1e-12
        assert C[0, 1] == pytest.approx(-6.0 / 7.0, abs=1e-14)
        assert C[0, 2] == pytest.approx(-2.0 / 7.0, abs=1e-14)
        assert np.all(C[:, 0] == -1.0)

    def test_c11_first_case_formula(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 16))
            spec = random_spec(rng, n)
            m = validate(spec)
            view = invert(m)
            g1 = gamma1(m)
            want = -g1 * (1.0 / m.bd(0) + 1.0 / m.bu(0))
            assert view.element(1, 1) == pytest.approx(want, rel=1e-10)

    def test_random_20x20(self, rng):
        spec = random_spec(rng, 20)
        m = validate(spec)
        C = invert(m).block()
        B = build_dense(spec.down, spec.up, spec.tozero)
        assert np.max(np.abs(B @ C - np.eye(20))) < 1e-10
        assert np.max(np.abs(C - np.linalg.inv(B))) < 1e-9

    @pytest.mark.parametrize("zero_bd,zero_bu", [(0, 0), (2, 0), (0, 2), (2, 1)])
    def test_suite_residuals(self, rng, zero_bd, zero_bu):
        for _ in range(12):
            n = int(rng.integers(4, 65))
            spec = random_spec(rng, n, zero_bd=zero_bd, zero_bu=zero_bu)
            m = validate(spec)
            view = invert(m)
            C = view.block()
            B = build_dense(spec.down, spec.up, spec.tozero)
            assert np.max(np.abs(B @ C - np.eye(n))) < 1e-9
            assert np.max(np.abs(C @ B - np.eye(n))) < 1e-9
            assert np.max(np.abs(C - np.linalg.inv(B))) < 1e-8

    def test_zero_block_rule_exact_zeros(self, rng):
        n = 12
        bd, bu, bz = random_rates(rng, n)
        bu[5] = 0.0
        m = validate(BandSpec.finite(bd, bu, bz))
        C = invert(m).block()
        assert np.all(C[: 6, 6:] == 0.0)

    def test_block_size_validation(self):
        m = validate(worked_spec())
        with pytest.raises(OutOfRange):
            invert(m, n=4)
        with pytest.raises(ValidationError):
            invert(validate(BandSpec.infinite(
                lambda i: 1.0, lambda i: 0.5, lambda i: 0.2)))


class TestElement:
    def test_matches_oracle_entry(self, rng):
        spec = worked_spec()
        view = invert(validate(spec), n=3)
        C = oracle_inverse(spec)
        assert element(view, 2, 1) == pytest.approx(C[2, 1], abs=1e-13)

    def test_column0_needs_no_materialization(self, rng):
        spec = random_spec(rng, 9)
        view = InverseView(validate(spec))
        assert view.element(5, 0) == -1.0 / spec.down[0]
        assert view.n == 0  # nothing materialized

    def test_deterministic_repeats(self, rng):
        spec = random_spec(rng, 10)
        view = invert(validate(spec), n=4)
        a = view.element(7, 3)
        b = view.element(7, 3)
        assert a == b

    def test_lazy_extension_matches_full(self, rng):
        spec = random_spec(rng, 14)
        m = validate(spec)
        lazy = invert(m, n=3)
        for i, j in [(5, 2), (2, 9), (13, 13), (0, 12)]:
            assert lazy.element(i, j) == invert(m).element(i, j)


class TestGammaConsistency:
    def test_row0_is_gamma_times_c00_bitwise(self, rng):
        spec = random_spec(rng, 25)
        view = invert(validate(spec))
        gam = view.gamma_values()
        assert np.array_equal(view.row0, gam * view.c00)


class TestStageCount:
    def test_quadratic_entry_ops(self, rng):
        counts = []
        sizes = [16, 32, 64, 128]
        for n in sizes:
            spec = random_spec(rng, n)
            view = invert(validate(spec))
            counts.append(view.report.entry_ops)
        slopes = np.diff(np.log(counts)) / np.diff(np.log(sizes))
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_fits_c_times_n_squared(self, rng):
        n = 96
        view = invert(validate(random_spec(rng, n)))
        assert view.report.entry_ops <= 3 * n * n


class TestGeneratorStorage:
    def test_view_arrays_are_linear_in_n(self, rng):
        n = 2048
        view = invert(validate(random_spec(rng, n)), n=n)
        total = 0
        for obj in (view, view._engine):
            for value in vars(obj).values():
                items = value if isinstance(value, list) else [value]
                total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
        assert total < 64 * n * 8

    def test_nan_in_block_gives_nan_residual(self, rng):
        view = invert(validate(random_spec(rng, 12)))
        C = view.block()
        C[5, 7] = np.nan
        view.block = lambda n=None: C
        assert np.isnan(block_residual(view))


class TestInfiniteExtent:
    def test_head_tail_against_large_truncation(self, rng):
        head_n = 5
        hd = rng.uniform(0.4, 1.8, head_n)
        hu = rng.uniform(0.4, 1.8, head_n)
        hz = rng.uniform(0.0, 0.8, head_n)
        hz[0] = 0.0
        tail = (2.0, 1.0, 1.0)

        def mk(pref, const):
            return lambda i: pref[i] if i < head_n else const

        spec = BandSpec.infinite(mk(hd, tail[0]), mk(hu, tail[1]), mk(hz, tail[2]),
                                 tail_start=head_n)
        m = validate(spec)
        view = invert(m, n=10)
        NL = 600
        bd = np.array([spec.down(i) for i in range(NL)])
        bu = np.array([spec.up(i) for i in range(NL)])
        bz = np.array([spec.tozero(i) for i in range(NL)])
        C_big = np.linalg.inv(build_dense(bd, bu, bz))
        assert np.max(np.abs(view.block(10) - C_big[:10, :10])) < 1e-10
        assert view.report.truncation_level is not None
        assert view.report.achieved <= view.tol

    def test_gamma1_levels_stabilize(self):
        spec = BandSpec.infinite(
            lambda i: 1.0 + 0.5 / (1 + i), lambda i: 0.8, lambda i: 0.4,
            tail_start=None)
        m = validate(spec)
        a = gamma1(m, tol=1e-12)
        b = gamma1(m, tol=1e-13)
        assert a == pytest.approx(b, rel=1e-11)


class TestPaperRecursionIdentities:
    """The computed entries satisfy the textbook three-term recursions."""

    def test_over_diagonal_recursion(self, rng):
        spec = random_spec(rng, 12, bz_lo=0.1)
        m = validate(spec)
        C = invert(m).block()
        bd, bu, bz = spec.down, spec.up, spec.tozero
        bw = bd + bu + bz
        for i in range(1, 11):
            for j in range(i + 2, 12):
                lhs = C[i, j] * bd[j]
                rhs = bw[j - 1] * C[i, j - 1] - bu[j - 2] * C[i, j - 2] \
                    + (1.0 if i + 1 == j else 0.0)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_under_diagonal_recursion(self, rng):
        spec = random_spec(rng, 12, bz_lo=0.1)
        m = validate(spec)
        C = invert(m).block()
        bd, bu, bz = spec.down, spec.up, spec.tozero
        bw = bd + bu + bz
        for j in range(1, 11):
            for i in range(j + 1, 12):
                if i == j == 1:
                    continue
                r = i - 1
                col0 = bz[r] + (bd[r] if r == 1 else 0.0)
                lhs = C[i, j] * bu[r]
                rhs = (1.0 if r == j else 0.0) - col0 * C[0, j] \
                    - (bd[r] * C[r - 1, j] if r >= 2 else 0.0) + bw[r] * C[r, j]
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_block_residual_helper(self, rng):
        spec = random_spec(rng, 17)
        view = invert(validate(spec))
        assert block_residual(view) < 1e-11


def entrywise_residual(view, n):
    """block_residual's value with B's band read by 4n m.entry calls."""
    m = view.matrix
    C = view.block(n)
    rows = n if m.is_finite and n == m.last + 1 else n - 1
    col0 = np.array([m.entry(r, 0) for r in range(rows)])
    sub = np.array([m.entry(r, r - 1) if r >= 2 else 0.0 for r in range(rows)])
    dia = np.array([m.entry(r, r) if r >= 1 else 0.0 for r in range(rows)])
    sup = np.array([m.entry(r, r + 1) if r + 1 < n else 0.0 for r in range(rows)])
    worst = 0.0
    for r in range(rows):
        prod = col0[r] * C[0] + dia[r] * C[r]
        if r >= 1:
            prod += sub[r] * C[r - 1]
        if r + 1 < n:
            prod += sup[r] * C[r + 1]
        prod[r] -= 1.0
        worst = max(worst, float(np.max(np.abs(prod))))
    return worst


class TestBlockResidualBulkRates:
    """The band read in bulk gives the residual of the entry-by-entry band."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_general_finite(self, rng, n):
        spec = random_spec(rng, 40, zero_bd=3, zero_bu=2)
        view = invert(validate(spec), n=n)
        assert block_residual(view) == entrywise_residual(view, n)

    def test_general_infinite(self):
        m = validate(BandSpec.infinite(lambda i: 1.0 + 0.25 * (i % 3), lambda i: 0.8,
                                       lambda i: 0.1 + 0.05 * (i % 2)))
        view = invert(m, n=24)
        assert block_residual(view) == entrywise_residual(view, 24)

    @pytest.mark.parametrize("last", [1, 2, 30])
    @pytest.mark.parametrize("truncation", ["special", "generic"])
    def test_homogeneous(self, last, truncation):
        from tricol.homogeneous import hom_finite_invert
        spec = HomogeneousSpec(bd=2.0, bu=1.0, bz=0.5, last=last, truncation=truncation)
        view = hom_finite_invert(spec)
        assert block_residual(view) == entrywise_residual(view, last + 1)
        assert block_residual(view) < 1e-12


class TestWindowRealization:
    def test_infinite_window_calls_each_rate_once_per_index(self):
        from collections import Counter
        from tricol.general import _window
        calls = {name: Counter() for name in ("bd", "bu", "bz")}

        def counted(name, rule):
            return lambda i: (calls[name].update([i]), rule(i))[1]

        m = validate(BandSpec.infinite(counted("bd", lambda i: 1.5),
                                       counted("bu", lambda i: 1.0),
                                       counted("bz", lambda i: 0.2)))
        for counter in calls.values():
            counter.clear()
        _window(m, 200)
        for counter in calls.values():
            assert counter == Counter(range(201))

    def test_gamma1_realizes_each_level_window_once(self):
        from collections import Counter
        from tricol.general import _gamma1_at_level
        calls = {name: Counter() for name in ("bd", "bu", "bz")}

        def counted(name, rule):
            return lambda i: (calls[name].update([i]), rule(i))[1]

        m = validate(BandSpec.infinite(counted("bd", lambda i: 1.0),
                                       counted("bu", lambda i: 1.0),
                                       counted("bz", lambda i: 0.2)))
        for counter in calls.values():
            counter.clear()
        val = gamma1(m)
        # this chain settles at the second level (64, then 128)
        for counter in calls.values():
            assert counter == Counter(range(65)) + Counter(range(129))
        assert val == _gamma1_at_level(m, 128)


class TestErrorPaths:
    def test_zero_denominator_in_gamma_system(self):
        # states {1, 2} form a closed conservative block: B is singular and
        # the normalization denominator collapses (all bz vanish)
        from tricol.errors import ZeroDenominator
        m = validate(BandSpec.finite([1.0, 0.0, 1.0], [1.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0]))
        with pytest.raises(ZeroDenominator):
            gamma1(m)

    def test_shift_unresolvable_pivot(self):
        from tricol.errors import ShiftUnresolvable, ZeroDenominator
        m = validate(BandSpec.finite([1.0, 0.0, 1.0], [1.0, 1.0, 0.0],
                                     [0.0, 0.0, 0.0]))
        with pytest.raises((ShiftUnresolvable, ZeroDenominator)):
            invert(m)


class TestPartialBlocks:
    def test_partial_block_residual(self, rng):
        spec = random_spec(rng, 40)
        m = validate(spec)
        view = invert(m, n=12)
        assert block_residual(view, 12) < 1e-11

    def test_partial_matches_full(self, rng):
        spec = random_spec(rng, 30)
        m = validate(spec)
        part = invert(m, n=9).block(9)
        full = invert(m).block()
        assert np.array_equal(part, full[:9, :9])


class TestInfiniteLazyExtension:
    def test_extension_consistent_with_fresh_view(self):
        spec = BandSpec.infinite(lambda i: 2.0, lambda i: 1.0, lambda i: 1.0,
                                 tail_start=0)
        m = validate(spec)
        grown = invert(m, n=4)
        val = grown.element(9, 9)
        fresh = invert(m, n=10)
        assert val == pytest.approx(fresh.element(9, 9), abs=1e-12)


class TestPolynomialRates:
    def test_growing_death_rates_against_truncation(self):
        # death rate grows linearly with the level: strongly ergodic
        spec = BandSpec.infinite(lambda i: 1.0 + i, lambda i: 2.0,
                                 lambda i: 0.1)
        m = validate(spec)
        view = invert(m, n=8)
        NL = 400
        bd = np.array([1.0 + i for i in range(NL)])
        bu = np.full(NL, 2.0)
        bz = np.full(NL, 0.1)
        C_big = np.linalg.inv(build_dense(bd, bu, bz))
        assert np.max(np.abs(view.block(8) - C_big[:8, :8])) < 1e-10
        assert gamma1(m) == pytest.approx(C_big[0, 1] / C_big[0, 0], abs=1e-10)


class TestAdaptiveLimits:
    def test_no_convergence_at_small_cap(self, monkeypatch):
        from tricol import general
        from tricol.errors import NoConvergence
        # gamma close to 1: needs far more than 256 levels to stabilize
        spec = BandSpec.infinite(lambda i: 1.0, lambda i: 0.995,
                                 lambda i: 1e-5)
        m = validate(spec)
        monkeypatch.setattr(general, "MAX_LEVEL", 256)
        with pytest.raises(NoConvergence):
            gamma1(m, tol=1e-14)
