"""Tests for elementary symmetric polynomials — the k-DPP normalizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, check_gradient
from repro.dpp.esp import (
    differentiable_esps,
    differentiable_log_esp,
    differentiable_log_esp_newton,
    elementary_symmetric_polynomials,
    esp_bruteforce,
    esp_from_power_sums,
    esp_leave_one_out,
    esp_table,
)

eigens = st.lists(st.floats(0.05, 4.0), min_size=2, max_size=9)


@settings(max_examples=60, deadline=None)
@given(eigens, st.data())
def test_algorithm1_matches_bruteforce(values, data):
    lam = np.array(values)
    k = data.draw(st.integers(1, len(lam)))
    assert np.isclose(
        elementary_symmetric_polynomials(lam, k), esp_bruteforce(lam, k), rtol=1e-9
    )


def test_esp_edge_cases():
    lam = np.array([2.0, 3.0])
    assert elementary_symmetric_polynomials(lam, 0) == 1.0
    assert np.isclose(elementary_symmetric_polynomials(lam, 1), 5.0)
    assert np.isclose(elementary_symmetric_polynomials(lam, 2), 6.0)
    with pytest.raises(ValueError):
        elementary_symmetric_polynomials(lam, 3)
    with pytest.raises(ValueError):
        elementary_symmetric_polynomials(lam, -1)


def test_esp_table_prefix_property():
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    table = esp_table(lam, 3)
    # Column m holds ESPs of the first m eigenvalues.
    for m in range(1, 5):
        for level in range(0, min(3, m) + 1):
            assert np.isclose(table[level, m], esp_bruteforce(lam[:m], level))


@settings(max_examples=40, deadline=None)
@given(eigens, st.data())
def test_newton_identities_match_algorithm1(values, data):
    lam = np.array(values)
    k = data.draw(st.integers(1, len(lam)))
    power_sums = np.array([(lam**i).sum() for i in range(1, k + 1)])
    esps = esp_from_power_sums(power_sums, k)
    assert np.isclose(esps[k], elementary_symmetric_polynomials(lam, k), rtol=1e-7)


@settings(max_examples=40, deadline=None)
@given(eigens, st.data())
def test_leave_one_out_matches_bruteforce(values, data):
    lam = np.array(values)
    k = data.draw(st.integers(1, len(lam)))
    loo = esp_leave_one_out(lam, k)
    for i in range(len(lam)):
        assert np.isclose(loo[i], esp_bruteforce(np.delete(lam, i), k - 1), rtol=1e-8)


def _random_psd(seed, n, ridge=0.2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    return x @ x.T + ridge * np.eye(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.data())
def test_differentiable_log_esp_value(n, seed, data):
    k = data.draw(st.integers(1, n))
    kernel = _random_psd(seed, n)
    lam = np.linalg.eigvalsh(kernel)
    expected = np.log(esp_bruteforce(lam, k))
    assert np.isclose(differentiable_log_esp(Tensor(kernel), k).item(), expected, rtol=1e-8)


def test_differentiable_log_esp_equals_newton_variant():
    kernel = _random_psd(7, 6, ridge=0.5)
    for k in (1, 3, 5):
        a = differentiable_log_esp(Tensor(kernel), k).item()
        b = differentiable_log_esp_newton(Tensor(kernel), k).item()
        assert np.isclose(a, b, rtol=1e-9)


def test_differentiable_log_esp_gradient():
    rng = np.random.default_rng(3)

    def fn(x):
        sym = (x + x.transpose()) * 0.5
        return differentiable_log_esp(sym @ sym.transpose() + Tensor(0.2 * np.eye(5)), 3)

    check_gradient(fn, rng.normal(size=(5, 5)), rtol=1e-3, atol=1e-5)


def test_differentiable_log_esp_extreme_spectrum():
    # Spectrum spread over ~40 orders of magnitude must neither overflow
    # nor underflow (this regime broke the Newton-identity route).
    q = np.exp(np.array([12.0, 12.0, 11.0, -10.0, -11.0, -12.0, -12.0, -12.0]))
    kernel = np.diag(q) @ (0.3 * np.ones((8, 8)) + 0.7 * np.eye(8)) @ np.diag(q)
    kernel += 1e-9 * np.eye(8)
    t = Tensor(kernel, requires_grad=True)
    out = differentiable_log_esp(t, 4)
    out.backward()
    assert np.isfinite(out.item())
    assert np.all(np.isfinite(t.grad))


def test_differentiable_log_esp_degenerate_eigenvalues():
    # Repeated eigenvalues: spectral-function gradient must stay exact.
    def fn(x):
        sym = (x + x.transpose()) * 0.5
        return differentiable_log_esp(
            Tensor(2.0 * np.eye(5)) + sym @ sym.transpose() * 0.01, 3
        )

    check_gradient(fn, np.random.default_rng(4).normal(size=(5, 5)), rtol=1e-3, atol=1e-5)


def test_differentiable_log_esp_rank_deficient_raises():
    kernel = np.zeros((4, 4))
    kernel[0, 0] = 1.0
    with pytest.raises(FloatingPointError):
        differentiable_log_esp(Tensor(kernel), 3)


def test_differentiable_log_esp_k_validation():
    kernel = np.eye(3)
    with pytest.raises(ValueError):
        differentiable_log_esp(Tensor(kernel), 0)
    with pytest.raises(ValueError):
        differentiable_log_esp(Tensor(kernel), 4)


def test_differentiable_esps_series():
    kernel = _random_psd(5, 5, ridge=0.5)
    lam = np.linalg.eigvalsh(kernel)
    series = differentiable_esps(Tensor(kernel), 3)
    for k, value in enumerate(series):
        assert np.isclose(value.item(), esp_bruteforce(lam, k), rtol=1e-7)


def test_scaling_identity():
    # e_k(c * lambda) = c^k e_k(lambda): the stabilization we rely on.
    lam = np.array([0.5, 1.0, 2.0, 3.0])
    c = 7.3
    for k in (1, 2, 3, 4):
        assert np.isclose(
            elementary_symmetric_polynomials(c * lam, k),
            c**k * elementary_symmetric_polynomials(lam, k),
            rtol=1e-9,
        )
