"""Property tests: the generator-form inverse against dense LU and itself,
value functions against a dense solve, and the tridiagonal eigenpairs and
B's spectrum against a dense eigensolver."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tricol.applications import value_function
from tricol.general import InverseView, invert
from tricol.model import BandSpec, validate
from tricol.spectral import (eig_vectors, eigenvalues_of_B, multiset_gap, tridiag_eigen,
                             tridiag_part)

from conftest import build_dense

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)


@st.composite
def finite_specs(draw):
    """Valid finite specs with planted bd = 0 entries and an optional bu = 0 horizon.

    bz stays strictly positive so every state keeps an exit path and the
    matrix stays invertible whatever zeros are planted.
    """
    n = draw(st.integers(2, 64))

    def rates(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    bd, bu, bz = rates(0.3, 2.0), rates(0.3, 2.0), rates(0.05, 1.2)
    bu[-1] = 0.0
    zeros = draw(st.sets(st.integers(1, n - 1), max_size=n // 4))
    bd[sorted(zeros)] = 0.0
    horizon = draw(st.none() | st.integers(0, n - 2))
    if horizon is not None:
        bu[horizon] = 0.0
    return BandSpec.finite(bd, bu, bz)


@PROPERTY_SETTINGS
@given(finite_specs())
def test_block_matches_dense_lu(spec):
    C = invert(validate(spec)).block()
    D = np.linalg.inv(build_dense(spec.down, spec.up, spec.tozero))
    assert np.max(np.abs(C - D)) <= 1e-8 * max(1.0, float(np.max(np.abs(D))))


@PROPERTY_SETTINGS
@given(finite_specs(), st.data())
def test_element_on_fresh_view_is_block_entry(spec, data):
    m = validate(spec)
    C = invert(m).block()
    index = st.integers(0, m.last)
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8)):
        assert InverseView(m).element(i, j) == C[i, j]


@PROPERTY_SETTINGS
@given(finite_specs(), st.data())
def test_leading_block_is_prefix_of_full_block(spec, data):
    m = validate(spec)
    k = data.draw(st.integers(1, m.last + 1))
    assert np.array_equal(invert(m, n=k).block(k), invert(m).block()[:k, :k])


@st.composite
def generator_problems(draw):
    """(Q, cost, discount): birth-and-death or dense-column generators, n in 1..64.

    Rates may be exactly zero, and one state may be a zero-rate absorbing
    state (its row of Q is zero).
    """
    n = draw(st.integers(1, 64))

    def floats(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    qd, qu = floats(0.0, 2.0), floats(0.0, 2.0)
    qz = floats(0.0, 1.0) if draw(st.booleans()) else np.zeros(n)
    qd[0] = qu[-1] = qz[0] = 0.0
    absorbing = draw(st.none() | st.integers(0, n - 1))
    if absorbing is not None:
        qd[absorbing] = qu[absorbing] = qz[absorbing] = 0.0
    cost = floats(-1.0, 1.0)
    discount = draw(st.floats(0.05, 2.0))
    return BandSpec.finite(qd, qu, qz), cost, discount


@PROPERTY_SETTINGS
@given(generator_problems())
def test_value_function_matches_dense_solve(problem):
    Q, cost, discount = problem
    n = Q.last + 1
    dense = build_dense(Q.down, Q.up, Q.tozero)   # row 0 is (-qu[0], qu[0]) as qd[0] = 0
    want = np.linalg.solve(dense - discount * np.eye(n), -cost)
    got = value_function(Q, cost, discount).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def log_uniform_specs(draw):
    """Finite specs, n in 2..64, every rate log-uniform over [0.1, 10]."""
    n = draw(st.integers(2, 64))

    def rates():
        return 10.0 ** np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))

    bd, bu, bz = rates(), rates(), rates()
    bu[-1] = 0.0
    return BandSpec.finite(bd, bu, bz)


@PROPERTY_SETTINGS
@given(log_uniform_specs())
def test_tridiagonal_eigenpairs_match_dense(spec):
    A, _ = tridiag_part(validate(spec))
    scale = float(np.max(np.abs(A)))
    sp = tridiag_eigen(A)
    lam = sp.values.real
    assert np.max(np.abs(lam - np.sort(np.linalg.eigvals(A).real))) <= 1e-12 * scale
    V, first = eig_vectors(A, sp)
    assert np.max(np.abs(A @ V - V * lam)) <= 1e-12 * scale
    assert np.array_equal(first, V[0])


@st.composite
def spectral_specs(draw):
    """Finite specs, n in 2..64, rates uniform over [0.5, 1.5] or log-uniform
    over [0.1, 10], with some bz set to 0 (u sparse, slots dropped)."""
    n = draw(st.integers(2, 64))
    log = draw(st.booleans())

    def rates():
        if log:
            return 10.0 ** np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        return np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))

    bd, bu, bz = rates(), rates(), rates()
    bu[-1] = 0.0
    bz[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))] = 0.0
    return BandSpec.finite(bd, bu, bz)


@PROPERTY_SETTINGS
@given(spectral_specs())
def test_spectrum_of_B_matches_dense(spec):
    # the dense B comes from the rates, not from the library's stencil
    want = np.linalg.eigvals(build_dense(spec.down, spec.up, spec.tozero))
    sp, _ = eigenvalues_of_B(validate(spec))
    assert multiset_gap(sp.values, want) <= 1e-11 * float(np.max(np.abs(want)))
