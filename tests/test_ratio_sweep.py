"""The blocked row-0 ratio sweep against the scalar loop it replaces.

``scalar_row0_ratios`` is the one-Python-step-per-index sweep, kept here as
the oracle.  Each window runs through it and through
``general._row0_ratios``: the two must agree (bitwise below the blocking
cutoff) or raise the same ZeroDenominator, and where the blocked passes
overflow the kernel must return the scalar result.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricol import general
from tricol.applications import _shifted_matrix, steady_state
from tricol.errors import ZeroDenominator
from tricol.general import _row0_ratios, invert
from tricol.model import BandSpec

TINY = np.finfo(float).tiny


def inexact(x, nonzero):
    """Whether x, whose exact value is nonzero when ``nonzero`` holds, left
    the normal range: a subnormal, an underflow to 0 or an overflow."""
    return nonzero and not TINY <= x < np.inf


def scalar_row0_ratios(bd, bu, bz, hi):
    """(u, lowest): u the scalar sweep's ratios, and lowest the index down to
    which every ratio and surplus the sweep formed stayed in the normal range
    (or was exactly 0).  Below it the oracle itself lost precision."""
    u = bd + bz
    u[0], u[hi + 1:] = 1.0, 0.0
    up, z, uv = memoryview(bu), memoryview(bz), memoryview(u)
    e = up[hi]
    lowest = 0
    for l in range(hi, 0, -1):
        d2 = uv[l] + e
        if d2 <= 0.0:
            raise ZeroDenominator(f"row-0 ratio pivot vanished at index {l}")
        r = uv[l] = up[l - 1] / d2
        s = z[l] + e
        e = r * s
        if not lowest and (inexact(r, up[l - 1] > 0.0) or inexact(e, r > 0.0 and s > 0.0)):
            lowest = l
    return u, lowest


def outcome(sweep, *args):
    try:
        return sweep(*args), None
    except ZeroDenominator as exc:
        return None, str(exc)


@st.composite
def ratio_windows(draw):
    """(bd, bu, bz, hi): rates log-uniform over +-``decades`` decades, with
    planted zero entries and, sometimes, bz = 0 throughout (a band-only
    chain); hi spans both sides of the blocking cutoff."""
    hi = draw(st.one_of(st.integers(1, general._BLOCKED_FROM - 1),
                        st.integers(general._BLOCKED_FROM, 20000)))
    n = hi + 1 + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from([0.5, 3.0, 30.0, 150.0]))
    bd, bu, bz = (10.0 ** rng.uniform(-decades, decades, n) for _ in range(3))
    if draw(st.booleans()):
        bz[:] = 0.0
    for rates in (bd, bu, bz):
        rates[rng.integers(0, n, size=draw(st.integers(0, 20)))] = 0.0
    return bd, bu, bz, hi


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ratio_windows())
def test_blocked_sweep_matches_scalar_loop(window):
    bd, bu, bz, hi = window
    got, got_err = outcome(_row0_ratios, bd, bu, bz, hi)
    want, want_err = outcome(scalar_row0_ratios, bd, bu, bz, hi)
    assert got_err == want_err
    if want_err is not None:
        return
    want, lowest = want
    if hi < general._BLOCKED_FROM:
        assert np.array_equal(got, want)
        return
    assert np.array_equal(got[hi + 1:], want[hi + 1:])
    trusted = want[lowest:hi + 1]
    normal = np.isfinite(trusted) & (np.abs(trusted) >= TINY)
    rel = np.abs(got[lowest:hi + 1][normal] - trusted[normal]) / np.abs(trusted[normal])
    assert np.max(rel, initial=0.0) <= 1e-13


@pytest.fixture
def blocked_outcomes(monkeypatch):
    """Record what every blocked pass returns (False: the scalar loop redid it)."""
    seen = []
    blocked = general._blocked_sweep

    def spy(*args):
        seen.append(blocked(*args))
        return seen[-1]

    monkeypatch.setattr(general, "_blocked_sweep", spy)
    return seen


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rates", [
    lambda rng: 1e200 * rng.uniform(0.5, 2.0, 5001),       # rate products overflow
    lambda rng: 10.0 ** rng.uniform(-150.0, 150.0, 5001),  # block products underflow
], ids=["overflow", "underflow"])
def test_out_of_range_composites_take_the_scalar_result(rates, seed, blocked_outcomes):
    rng = np.random.default_rng(seed)
    bd, bu, bz = (rates(rng) for _ in range(3))
    got = _row0_ratios(bd, bu, bz, 5000)
    assert blocked_outcomes == [False]
    assert np.array_equal(got, scalar_row0_ratios(bd, bu, bz, 5000)[0])


def test_moderate_rates_stay_blocked(blocked_outcomes):
    rng = np.random.default_rng(7)
    bd, bu, bz = (rng.uniform(0.3, 2.0, 100_001) for _ in range(3))
    got = _row0_ratios(bd, bu, bz, 100_000)
    assert blocked_outcomes == [True]
    want = scalar_row0_ratios(bd, bu, bz, 100_000)[0]
    assert np.max(np.abs(got - want) / want) <= 1e-13


def band_only_generator(rng, n):
    qd = np.concatenate([[0.0], rng.uniform(0.3, 2.0, n - 1)])
    qu = np.concatenate([rng.uniform(0.3, 2.0, n - 1), [0.0]])
    return qd, qu, np.zeros(n)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("planted", [1, 2100, 3500, 4995])
def test_singular_band_only_chain_raises_scalar_error(seed, planted):
    # qd[planted] = 0 closes states planted.. into a class without state 0:
    # the surplus is exactly 0 and the pivot at that index vanishes (index 1
    # is the last step of the lowest block, whose end no later block checks)
    qd, qu, qz = band_only_generator(np.random.default_rng(seed), 5000)
    qd[planted] = 0.0
    Q = BandSpec.finite(qd, qu, qz)
    bd, bu, bz = _shifted_matrix(Q).band_rates(4999)
    with pytest.raises(ZeroDenominator) as want:
        scalar_row0_ratios(bd, bu, bz, 4999)
    assert f"index {planted}" in str(want.value)
    for solve in (steady_state, lambda q: invert(_shifted_matrix(q))):
        with pytest.raises(ZeroDenominator) as got:
            solve(Q)
        assert str(got.value) == str(want.value)
