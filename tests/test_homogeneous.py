import mpmath
import numpy as np
import pytest

from tricol.errors import DegenerateRates, ZeroDiscriminant
from tricol.general import invert as general_invert
from tricol.homogeneous import (
    DiagonalCache,
    diagonal_alternative,
    diagonal_identity_gap,
    diagonal_limit,
    hom_block,
    hom_constants,
    hom_element,
    hom_finite_invert,
    hom_invert,
)
from tricol.model import BandSpec, HomogeneousSpec, validate

from conftest import build_dense


def quadratic_root_oracle(bd, bu, bz):
    """Root of bd*g^2 - bw*g + bu in (0, 1), via numpy's polynomial solver."""
    bw = bd + bu + bz
    roots = np.roots([bd, -bw, bu])
    roots = sorted(r.real for r in roots if abs(r.imag) < 1e-12)
    return roots[0]


class TestConstants:
    def test_reference_triple(self):
        k = hom_constants(HomogeneousSpec(2.0, 1.0, 1.0))
        assert k.gamma == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-15)
        assert k.psi == pytest.approx(2.0 * k.gamma, abs=1e-15)
        assert k.strict

    def test_swapped_triple(self):
        k = hom_constants(HomogeneousSpec(1.0, 2.0, 1.0))
        assert k.gamma == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-15)
        assert k.psi == pytest.approx(k.gamma / 2.0, abs=1e-15)
        assert k.gamma == pytest.approx(quadratic_root_oracle(1.0, 2.0, 1.0), abs=1e-14)

    def test_bz_zero_boundary_double_root(self):
        k = hom_constants(HomogeneousSpec(1.0, 1.0, 0.0))
        assert k.gamma == 1.0 and k.psi == 1.0
        assert not k.strict

    def test_degenerate_rates(self):
        with pytest.raises(DegenerateRates):
            hom_constants(HomogeneousSpec(0.0, 1.0, 1.0))
        with pytest.raises(DegenerateRates):
            hom_constants(HomogeneousSpec(1.0, 0.0, 1.0))

    def test_quadratic_residuals_random(self, rng):
        for _ in range(50):
            bd, bu = rng.uniform(0.1, 3.0, 2)
            bz = rng.uniform(0.01, 2.0)
            k = hom_constants(HomogeneousSpec(bd, bu, bz))
            bw = bd + bu + bz
            assert abs(bd * k.gamma**2 - bw * k.gamma + bu) < 1e-13
            assert abs(bu * k.psi**2 - bw * k.psi + bd) < 1e-13
            assert 0.0 < k.gamma < 1.0
            assert 0.0 < k.psi < 1.0
            assert k.psi == k.gamma * bd / bu  # exact, same expression


    @pytest.mark.parametrize("bd,bu,bz", [
        (1e-12, 1.0, 0.5), (1e-8, 1.0, 1.0), (1.0, 1e-10, 1.0),
        (2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.3, 0.7, 1e-9),
    ])
    def test_constants_match_mpmath(self, bd, bu, bz):
        # the textbook (bw - sqrt(bw^2 - 4 bu bd))/(2 bd) loses up to 3e-5
        # relative at the first three triples to cancellation
        k = hom_constants(HomogeneousSpec(bd, bu, bz))
        with mpmath.workdps(60):
            d, u, z = (mpmath.mpf(x) for x in (bd, bu, bz))
            w = d + u + z
            disc = w * w - 4 * u * d
            gamma = (w - mpmath.sqrt(disc)) / (2 * d)
            for got, want in ((k.gamma, gamma), (k.disc, disc),
                              (k.diag_limit, -1 / mpmath.sqrt(disc))):
                assert abs(got / want - 1) <= 4e-16


class TestElements:
    def test_corner(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        assert hom_element(spec, k, 0, 0, cache) == -0.5

    def test_c11_value(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        want = (-1.0 + 1.0 * (-0.5)) / (4.0 - 2.0 * k.gamma)
        assert hom_element(spec, k, 1, 1, cache) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-0.4393398, abs=1e-7)

    def test_row0_powers(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        got = hom_element(spec, k, 0, 3, cache)
        assert got == pytest.approx(k.gamma**3 * -0.5, abs=1e-15)
        assert got == pytest.approx(-0.0125631, abs=1e-7)

    def test_against_dense_special_instance(self, rng):
        bd, bu = rng.uniform(0.4, 2.5, 2)
        bz = rng.uniform(0.05, 1.0)
        n = 24
        spec = HomogeneousSpec(bd, bu, bz, last=n - 1, truncation="special")
        m = validate(spec)
        Cd = np.linalg.inv(m.to_dense())
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        for i, j in [(0, 0), (1, 1), (5, 2), (2, 5), (11, 11), (23, 0), (10, 20)]:
            assert hom_element(spec, k, i, j, cache) == pytest.approx(
                Cd[i, j], abs=1e-11)


class TestDiagonal:
    def test_limit_reference(self):
        k = hom_constants(HomogeneousSpec(2.0, 1.0, 1.0))
        assert diagonal_limit(k) == pytest.approx(-1.0 / np.sqrt(8.0), abs=1e-15)

    def test_limit_symmetric_in_bd_bu(self):
        a = diagonal_limit(hom_constants(HomogeneousSpec(2.0, 1.0, 1.0)))
        b = diagonal_limit(hom_constants(HomogeneousSpec(1.0, 2.0, 1.0)))
        assert a == b

    def test_limit_small_product(self):
        # bu*bd -> 0 pushes the limit to -1/bw
        k = hom_constants(HomogeneousSpec(1e-8, 1e-8, 1.0))
        assert diagonal_limit(k) == pytest.approx(-1.0 / (1.0 + 2e-8), rel=1e-6)

    def test_zero_discriminant_raises(self):
        k = hom_constants(HomogeneousSpec(1.0, 1.0, 0.0))
        with pytest.raises(ZeroDiscriminant):
            diagonal_limit(k)

    def test_convergence_by_200(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        cache = DiagonalCache(spec)
        want = -1.0 / np.sqrt(8.0)
        assert abs(cache.diag(200) - want) < 1e-10

    def test_contraction_of_differences(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        rate = k.gamma * k.psi + 1e-12
        floor = 4e-16 * abs(cache.diag(0))  # roundoff once differences are noise
        for n in range(10, 60):
            v2 = abs(cache.diag(n) - cache.diag(n - 1))
            v1 = abs(cache.diag(n - 1) - cache.diag(n - 2))
            tail = k.gamma ** n
            assert v2 <= rate * v1 + tail + floor

    def test_alternative_identity_agrees(self, rng):
        for _ in range(8):
            bd, bu = rng.uniform(0.3, 2.5, 2)
            bz = rng.uniform(0.05, 1.5)
            spec = HomogeneousSpec(bd, bu, bz)
            assert diagonal_identity_gap(spec, 60) < 1e-10

    def test_alternative_identity_explicit(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        k = hom_constants(spec)
        cache = DiagonalCache(spec, k)
        for i in (2, 5, 9):
            assert diagonal_alternative(spec, k, i, cache) == pytest.approx(
                cache.diag(i), abs=1e-13)


class TestFiniteInvert:
    def test_special_l6_residual(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0, last=5, truncation="special")
        view = hom_finite_invert(spec)
        assert view.report.residual < 1e-10

    def test_special_l6_vs_dense(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0, last=5, truncation="special")
        m = validate(spec)
        C = hom_finite_invert(spec).block()
        assert np.max(np.abs(C - np.linalg.inv(m.to_dense()))) < 1e-9

    def test_generic_truncation_delegates(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0, last=5, truncation="generic")
        C = hom_finite_invert(spec).block()
        B = build_dense(np.full(6, 2.0), np.r_[np.full(5, 1.0), 0.0], np.full(6, 1.0))
        assert np.max(np.abs(C - np.linalg.inv(B))) < 1e-11

    def test_cross_algorithm_agreement(self, rng):
        # the special truncation is itself a valid band spec; both fills agree
        for _ in range(6):
            bd, bu = rng.uniform(0.4, 2.0, 2)
            bz = rng.uniform(0.05, 1.0)
            n = int(rng.integers(3, 30))
            spec = HomogeneousSpec(bd, bu, bz, last=n - 1, truncation="special")
            g = hom_constants(spec).gamma
            band_bd = np.full(n, bd)
            band_bu = np.r_[np.full(n - 1, bu), 0.0]
            band_bz = np.full(n, bz)
            band_bz[-1] = bu / g - bd
            mg = validate(BandSpec.finite(band_bd, band_bu, band_bz))
            Ca = hom_finite_invert(spec).block()
            Cb = general_invert(mg).block()
            assert np.max(np.abs(Ca - Cb)) < 1e-10


class TestGeometricLaws:
    def test_row0_ratio(self):
        spec = HomogeneousSpec(1.3, 0.9, 0.6)
        k = hom_constants(spec)
        C, _ = hom_block(spec, 30)
        ratios = C[0, 1:] / C[0, :-1]
        assert np.max(np.abs(ratios - k.gamma)) < 1e-12

    def test_under_diagonal_ratio(self):
        spec = HomogeneousSpec(1.3, 0.9, 0.6)
        k = hom_constants(spec)
        C, _ = hom_block(spec, 30)
        for j in range(0, 10):
            for i in range(j + 1, 29):
                den = C[i, j] - C[0, j]
                if abs(den) > 1e-14:
                    assert (C[i + 1, j] - C[0, j]) / den == pytest.approx(
                        k.psi, abs=1e-8)

    def test_infinite_block_residual(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0)
        view = hom_invert(spec, n=40)
        from tricol.general import block_residual
        assert block_residual(view, 40) < 1e-12


def _special_cases():
    """The worked special truncation plus seeded random ones, last in 1..30;
    (3, 1, 0) has bz = 0 and bu < bd, where bz[last] = bu/gamma - bd is 0."""
    rng = np.random.default_rng(29)
    cases = [(2, 1, 1, 5), (3.0, 1.0, 0.0, 7)]
    for _ in range(5):
        bd, bu = rng.uniform(0.3, 2.5, 2)
        cases.append((bd, bu, rng.uniform(0.0, 1.5), int(rng.integers(1, 31))))
    return cases


class TestSpecialTruncationIsItsBand:
    """Every solver reads the special truncation's last row from the rates."""

    @pytest.fixture(params=_special_cases(), ids=lambda c: "bd{:.3g}-bu{:.3g}-bz{:.3g}-l{}".format(*c))
    def case(self, request):
        bd, bu, bz, last = request.param
        m = validate(HomogeneousSpec(bd, bu, bz, last=last, truncation="special"))
        return m, np.linalg.inv(m.to_dense())

    def test_last_row_is_a_rate_row(self, case):
        m, _ = case
        spec = m.spec
        bd, bu, bz = m.band_rates(m.last)
        g = hom_constants(spec).gamma
        assert bu[-1] == 0.0 and bd[-1] == spec.bd
        assert bz[-1] == max(spec.bu / g - spec.bd, 0.0) >= 0.0
        assert m.entry(m.last, m.last) == pytest.approx(-spec.bu / g, rel=4e-16)

    def test_invert_matches_dense_lu(self, case):
        m, C = case
        view = general_invert(m)
        assert view.report.residual <= 1e-12
        assert np.max(np.abs(view.block() - C)) <= 1e-12

    def test_row0_ratios_match_dense_lu(self, case):
        from tricol.general import gamma1, gamma_table
        m, C = case
        assert abs(gamma1(m) - C[0, 1] / C[0, 0]) <= 1e-12
        assert np.max(np.abs(gamma_table(m, m.last).gamma - C[0] / C[0, 0])) <= 1e-12

    def test_element_matches_dense_lu(self, case):
        from tricol.general import InverseView
        m, C = case
        view = InverseView(m)
        for i, j in {(m.last, m.last), (0, 1), (m.last, 1), (1, m.last), (m.last // 2, 0)}:
            assert abs(view.element(i, j) - C[i, j]) <= 1e-12

    def test_cli_element_matches_dense_lu(self, case, tmp_path, capsys):
        import json
        from tricol.cli import main
        m, C = case
        spec = m.spec
        doc = {"extent": "finite", "l": m.last, "truncation": "special",
               "homogeneous": {"bd": spec.bd, "bu": spec.bu, "bz": spec.bz}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        for i, j in ((0, 1), (m.last, m.last)):
            assert main(["--exact", "element", str(path), str(i), str(j)]) == 0
            value, resid = (float(line.split()[-1])
                            for line in capsys.readouterr().out.splitlines())
            assert abs(value - C[i, j]) <= 1e-12 and resid <= 1e-12

    def test_general_inverse_is_the_closed_form(self, case):
        # the paper's claim: under the special truncation the finite inverse
        # is the infinite matrix's leading block
        m, _ = case
        spec = m.spec
        C = general_invert(m).block()
        want = hom_block(HomogeneousSpec(spec.bd, spec.bu, spec.bz), m.last + 1)[0]
        assert np.max(np.abs(C - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(hom_finite_invert(spec).block(), C)
