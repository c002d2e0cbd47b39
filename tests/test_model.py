import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricol.applications import _Shifted, absorbing_bd_spec
from tricol.errors import (
    BadFinalRow,
    InfiniteExtent,
    NegativeRate,
    NonPositiveB0d,
    OutOfRange,
    ValidationError,
    ZeroRowWeight,
)
from tricol import model
from tricol.general import invert
from tricol.homogeneous import hom_invert
from tricol.model import (
    BandSpec,
    HomogeneousSpec,
    _HeadTail,
    _RangeRule,
    _matvec,
    _rmatvec,
    decompose,
    from_dict,
    generator_from_dict,
    validate,
)

from conftest import build_dense, random_spec, worked_spec


class TestValidate:
    def test_smallest_legal_matrix(self):
        m = validate(BandSpec.finite([2.0], [0.0], [0.0]))
        assert m.entry(0, 0) == -2.0

    def test_worked_3x3_weights(self):
        m = validate(worked_spec())
        assert m.bw(1) == 3.0
        assert m.bw(2) == 3.0

    def test_bd0_zero_rejected(self):
        with pytest.raises(NonPositiveB0d):
            validate(BandSpec.finite([0.0, 1.0], [1.0, 0.0], [0.0, 1.0]))

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            validate(BandSpec.finite([1.0, -0.5], [1.0, 0.0], [0.0, 1.0]))

    def test_zero_row_weight_rejected(self):
        with pytest.raises(ZeroRowWeight):
            validate(BandSpec.finite([1.0, 0.0], [1.0, 0.0], [0.0, 0.0]))

    def test_bad_final_row_rejected(self):
        with pytest.raises(BadFinalRow):
            validate(BandSpec.finite([1.0, 1.0], [1.0, 0.5], [0.0, 0.5]))

    def test_infinite_probe(self):
        m = validate(BandSpec.infinite(lambda i: 1.0, lambda i: 0.5, lambda i: 0.1))
        assert not m.is_finite


class TestNonFiniteRates:
    RATES = {"bd": 1.0, "bu": 0.6, "bz": 0.3}

    @pytest.mark.parametrize("kind", ["finite", "infinite", "homogeneous"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("rate", ["bd", "bu", "bz"])
    def test_rejected(self, rate, value, kind):
        rates = self.RATES
        with pytest.raises(ValidationError):
            if kind == "homogeneous":
                hom_invert(HomogeneousSpec(**{**rates, rate: value}), n=8)
            elif kind == "finite":
                arrays = {k: np.full(6, v) for k, v in rates.items()}
                arrays["bu"][-1] = 0.0
                arrays[rate][3] = value
                invert(validate(BandSpec.finite(arrays["bd"], arrays["bu"], arrays["bz"])))
            else:
                # index 100 lies beyond validate()'s probe: the realized window catches it
                rules = {k: (lambda i, v=v: v) for k, v in rates.items()}
                rules[rate] = lambda i: value if i == 100 else rates[rate]
                invert(validate(BandSpec.infinite(rules["bd"], rules["bu"], rules["bz"])), n=8)


class TestEntry:
    def test_corner(self):
        m = validate(BandSpec.finite([1.0, 1.0], [2.0, 0.0], [0.0, 1.0]))
        assert m.entry(0, 0) == -3.0

    def test_row1_column0_merges_bd_and_bz(self):
        m = validate(worked_spec())
        assert m.entry(1, 0) == 2.0  # bd[1] + bz[1]

    def test_outside_band_is_zero(self):
        m = validate(random_spec(np.random.default_rng(0), 6))
        assert m.entry(2, 4) == 0.0
        assert m.entry(4, 2) == 0.0

    def test_out_of_range(self):
        m = validate(worked_spec())
        with pytest.raises(OutOfRange):
            m.entry(0, 3)

    def test_entry_is_pure(self, rng):
        m = validate(random_spec(rng, 9))
        for _ in range(3):
            assert m.entry(4, 3) == m.entry(4, 3)
            assert m.entry(0, 1) == m.entry(0, 1)

    def test_matches_independent_construction(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 12))
            spec = random_spec(rng, n)
            m = validate(spec)
            B = build_dense(spec.down, spec.up, spec.tozero)
            assert np.array_equal(m.to_dense(), B)

    def test_row_sums(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 24))
            spec = random_spec(rng, n)
            m = validate(spec)
            B = m.to_dense()
            assert abs(B[0].sum() + m.bd(0)) < 1e-14
            assert np.max(np.abs(B[1:].sum(axis=1))) < 1e-13


class TestDecompose:
    def test_1x1_forced(self):
        m = validate(BandSpec.finite([2.0], [0.0], [0.0]))
        W, u, delta = decompose(m)
        assert np.array_equal(np.outer(u, delta) - W, m.to_dense())

    def test_worked_3x3_exact(self):
        m = validate(worked_spec())
        W, u, delta = decompose(m)
        assert np.max(np.abs(np.outer(u, delta) - W - m.to_dense())) == 0.0
        # W is tridiagonal
        assert W[0, 2] == 0.0 and W[2, 0] == 0.0

    def test_homogeneous_special_4x4_exact(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0, last=3, truncation="special")
        m = validate(spec)
        W, u, delta = decompose(m)
        assert np.max(np.abs(np.outer(u, delta) - W - m.to_dense())) == 0.0

    def test_u_carries_tozero_column(self):
        m = validate(worked_spec())
        _, u, _ = decompose(m)
        assert u[0] == 0.0 and u[1] == 0.0 and u[2] == 1.0

    def test_infinite_rejected(self):
        m = validate(BandSpec.infinite(lambda i: 1.0, lambda i: 0.5, lambda i: 0.1))
        with pytest.raises(InfiniteExtent):
            decompose(m)


class TestSpecialTruncationEntries:
    def test_last_row_sums_to_zero(self):
        spec = HomogeneousSpec(2.0, 1.0, 1.0, last=5, truncation="special")
        m = validate(spec)
        B = m.to_dense()
        assert abs(B[5].sum()) < 1e-13
        # diagonal override: -bu/gamma
        from tricol.homogeneous import hom_constants
        g = hom_constants(spec).gamma
        assert abs(B[5, 5] + 1.0 / g) < 1e-12
        assert abs(B[5, 0] - (1.0 / g - 2.0)) < 1e-12
        assert B[5, 4] == 2.0


class TestSpecDocuments:
    def test_finite_document(self):
        spec = from_dict({"extent": "finite", "l": 2,
                          "bd": [1, 1, 2], "bu": [2, 1, 0], "bz": [0, 1, 1]})
        assert spec.last == 2
        validate(spec)

    def test_finite_l_mismatch(self):
        with pytest.raises(ValidationError):
            from_dict({"extent": "finite", "l": 5,
                       "bd": [1, 1], "bu": [1, 0], "bz": [0, 1]})

    def test_homogeneous_document(self):
        spec = from_dict({"extent": "finite", "l": 9,
                          "homogeneous": {"bd": 2, "bu": 1, "bz": 1}})
        assert isinstance(spec, HomogeneousSpec)
        assert spec.truncation == "special"

    def test_head_tail_document(self):
        spec = from_dict({
            "extent": "infinite",
            "head": {"bd": [1.0, 0.5], "bu": [2.0, 1.0], "bz": [0.0, 0.3]},
            "tail": {"bd": 2.0, "bu": 1.0, "bz": 1.0}})
        assert spec.tail_start == 2
        assert spec.down(0) == 1.0 and spec.down(5) == 2.0

    def test_head_arrays_must_have_equal_length(self):
        with pytest.raises(ValidationError, match="equal length"):
            from_dict({"extent": "infinite",
                       "head": {"bd": [1.0, 0.5], "bu": [2.0], "bz": [0.0, 0.3]},
                       "tail": {"bd": 2.0, "bu": 1.0, "bz": 1.0}})

    def test_polynomial_document(self):
        spec = from_dict({"extent": "infinite",
                          "rates": {"kind": "polynomial",
                                    "bd": [1.0, 0.5], "bu": [2.0], "bz": [0.1]}})
        assert spec.down(4) == 3.0
        assert spec.up(9) == 2.0

    def test_generator_document_requires_zero_bd0(self):
        with pytest.raises(ValidationError):
            generator_from_dict({"extent": "finite", "bd": [1.0, 1.0],
                                 "bu": [1.0, 0.0], "bz": [0.0, 0.0]})
        q = generator_from_dict({"extent": "finite", "bd": [0.0, 1.0],
                                 "bu": [1.0, 0.0], "bz": [0.0, 0.0]})
        assert q.last == 1

    def test_unknown_extent(self):
        with pytest.raises(ValidationError):
            from_dict({"extent": "banana"})


RATE_NAMES = ("down", "up", "tozero")


@st.composite
def range_rules(draw):
    """A range-capable rate rule as the library builds it."""
    rate = st.floats(0.0, 3.0)
    head, tail = draw(st.lists(rate, max_size=6)), draw(rate)
    which = draw(st.sampled_from(RATE_NAMES))
    kind = draw(st.sampled_from(
        ["from_dict", "homogeneous", "absorbing", "shift-plain", "shift-head-tail"]))
    if kind == "from_dict":
        keys = ("bd", "bu", "bz")
        doc = {"extent": "infinite", "head": dict.fromkeys(keys, head),
               "tail": dict.fromkeys(keys, tail)}
        return getattr(from_dict(doc), which)
    if kind == "homogeneous":
        return getattr(HomogeneousSpec(tail, tail, tail).as_band(), which)
    if kind == "absorbing":
        bd, bu = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        shape = draw(st.sampled_from(["absorbing", "original"]))
        return getattr(absorbing_bd_spec(bd, bu, tail, shape=shape), which)
    if kind == "shift-plain":
        values = head + [tail]
        return _Shifted(lambda i: values[i % len(values)])
    return _Shifted(_HeadTail(head, tail))


@given(range_rules(), st.integers(0, 10), st.integers(-1, 12))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_range_form_is_bitwise_the_per_index_rule(rule, lo, span):
    # heads hold up to 6 rates, so lo..hi ends inside the head and past it
    assert isinstance(rule, _RangeRule)
    hi = lo + span  # span -1 is an empty slice
    got = rule.range(lo, hi)
    want = np.array([rule(i) for i in range(lo, hi + 1)], dtype=float)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_rates_read_range_rules_in_one_call():
    class Counted(_HeadTail):
        calls = 0

        def __call__(self, i):
            raise AssertionError("a range rule is not called per index")

        def range(self, lo, hi):
            Counted.calls += 1
            return super().range(lo, hi)

    spec = BandSpec.infinite(Counted([0.5], 1.0), Counted([], 1.0), Counted([0.2], 0.1))
    bd, bu, bz = spec.rates(300, 5)
    assert Counted.calls == 3
    assert bd.tolist() == [1.0] * 296 and bz.tolist() == [0.1] * 296


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def stencil_cases(draw):
    """(matrix, rates over 0..hi + 1, hi, lo): finite bands with planted
    zeros, infinite periodic bands, and special-truncation homogeneous bands."""
    rate = st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0])
    kind = draw(st.sampled_from(["finite", "infinite", "special"]))
    if kind == "special":
        bd, bu = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        m = validate(HomogeneousSpec(bd, bu, draw(rate), last=draw(st.integers(1, 9))))
    else:
        n = draw(st.integers(1, 10))
        bd, bu, bz = (np.array(draw(st.lists(rate, min_size=n, max_size=n))) for _ in range(3))
        bd[0] = max(bd[0], 0.5)
        if kind == "finite":
            bu[-1] = 0.0
        bz[(bd + bu + bz == 0.0) & (np.arange(n) > 0)] = 1.0
        if kind == "finite":
            m = validate(BandSpec.finite(bd, bu, bz))
        else:
            m = validate(BandSpec.infinite(*(lambda i, a=a: float(a[i % n]) for a in (bd, bu, bz))))
    top = 10 if m.last is None else m.last
    lo = draw(st.integers(0, top + 1))
    hi = draw(st.integers(lo - 2, top))  # hi < lo: no rows
    rates = [np.asarray(a, dtype=float)
             for a in m.band_rates(m.last if m.is_finite else max(hi + 1, 0))]
    return m, rates, hi, lo


@given(stencil_cases())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_stencil_reads_build_dense_rows(case):
    m, rates, hi, lo = case
    B = build_dense(*rates)  # rows 0..hi, with row hi's superdiagonal in range
    got = m.stencil(hi, lo)
    rows = range(lo, hi + 1)
    want = ([B[i, 0] for i in rows],
            [B[i, i - 1] if i >= 2 else 0.0 for i in rows],
            [B[i, i] if i >= 1 else 0.0 for i in rows],
            [B[i, i + 1] if i + 1 < len(B) else 0.0 for i in rows])
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)
    if not m.is_finite:
        n = max(hi + 1, 0)
        assert _bits(m.to_dense(n)) == _bits(B[:n, :n])
        return
    assert _bits(m.to_dense()) == _bits(B)
    assert all(m.entry(i, j) == B[i, j] for i in range(len(B)) for j in range(len(B)))
    W, u, delta = decompose(m)
    want_u = np.r_[0.0, 0.0, B[2:, 0]][: len(B)]
    assert _bits(u) == _bits(want_u)
    assert _bits(W) == _bits(np.outer(want_u, delta) - B)
    assert _bits(np.outer(u, delta) - W) == _bits(B)


def _near(got, want, scale):
    """got == want up to rounding: 8 ulps of the sum of |terms|."""
    return got.shape == want.shape and np.all(np.abs(got - want) <= 8e-16 * scale)


@given(stencil_cases(), st.sampled_from([(), (1,), (3,)]), st.sampled_from([1, 2, 3, 8192]),
       st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_products_match_dense(case, shape, rows, short, seed):
    """B x and y'B of the products against the dense B built from the rates,
    a few rows at a time or in one block."""
    m, rates, hi, lo = case
    B = build_dense(*rates)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((len(B),) + shape)
    if short and hi + 1 >= lo:
        x = x[: hi + 1]  # row hi's sup term reads past x's end: zero
    saved, model._ROWS = model._ROWS, rows
    try:
        got = _matvec([r[lo: hi + 1] for r in rates], x, lo)
        k = hi + 1
        y = rng.standard_normal(max(k, 0))
        got_t = _rmatvec([r[:k] for r in rates], y) if k > 0 else None
    finally:
        model._ROWS = saved
    Bx = B[lo: hi + 1, : len(x)]
    assert _near(got, Bx @ x, np.abs(Bx) @ np.abs(x))
    if k > 0:
        Bk = B[:k, :k]  # column k - 1 lacks row k's term, column 0 the rows past k - 1
        assert _near(got_t, y @ Bk, np.abs(y) @ np.abs(Bk))
