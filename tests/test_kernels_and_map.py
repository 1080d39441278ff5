"""Tests for kernel assembly, the E-variant Gaussian kernel, greedy MAP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import greedy_map_reference

from repro.autodiff import Tensor, check_gradient
from repro.dpp import (
    exp_quality,
    gaussian_similarity_kernel,
    gaussian_similarity_kernel_np,
    greedy_map,
    identity_quality,
    quality_diversity_kernel,
    quality_diversity_kernel_np,
    sigmoid_quality,
)


def test_quality_diversity_matches_matrix_form():
    rng = np.random.default_rng(0)
    q = np.abs(rng.normal(size=5)) + 0.1
    k = rng.normal(size=(5, 5))
    k = k @ k.T
    expected = np.diag(q) @ k @ np.diag(q)
    assert np.allclose(quality_diversity_kernel_np(q, k), expected)
    tensor_version = quality_diversity_kernel(Tensor(q), Tensor(k))
    assert np.allclose(tensor_version.data, expected)


def test_quality_diversity_gradient_through_quality():
    rng = np.random.default_rng(1)
    k = rng.normal(size=(4, 4))
    k = k @ k.T + 0.5 * np.eye(4)

    def fn(q):
        kernel = quality_diversity_kernel(q.exp(), Tensor(k))
        return kernel.sum()

    check_gradient(fn, rng.normal(size=4))


def test_quality_diversity_shape_validation():
    with pytest.raises(ValueError, match="vector"):
        quality_diversity_kernel(Tensor(np.ones((2, 2))), Tensor(np.eye(2)))
    with pytest.raises(ValueError, match="does not match"):
        quality_diversity_kernel(Tensor(np.ones(3)), Tensor(np.eye(2)))


def test_gaussian_kernel_properties():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 3))
    kernel = gaussian_similarity_kernel_np(emb, bandwidth=1.5, jitter=0.0)
    assert np.allclose(np.diagonal(kernel), 1.0)
    assert np.allclose(kernel, kernel.T)
    assert (np.linalg.eigvalsh(kernel) > -1e-9).all()
    # Closer embeddings -> larger similarity.
    a = gaussian_similarity_kernel_np(np.array([[0.0], [0.1]]), 1.0, jitter=0.0)[0, 1]
    b = gaussian_similarity_kernel_np(np.array([[0.0], [2.0]]), 1.0, jitter=0.0)[0, 1]
    assert a > b


def test_gaussian_kernel_tensor_matches_numpy_and_grads():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(5, 4))
    t = gaussian_similarity_kernel(Tensor(emb), bandwidth=0.9, jitter=1e-6)
    n = gaussian_similarity_kernel_np(emb, bandwidth=0.9, jitter=1e-6)
    assert np.allclose(t.data, n)
    check_gradient(
        lambda e: (gaussian_similarity_kernel(e, bandwidth=0.9) * Tensor(np.ones((4, 4)))).sum(),
        rng.normal(size=(4, 2)),
        rtol=1e-3,
    )


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_similarity_kernel(Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        gaussian_similarity_kernel(Tensor(np.ones((2, 2))), bandwidth=0.0)


def test_quality_transforms():
    scores = Tensor(np.array([-100.0, 0.0, 100.0]))
    q = exp_quality(scores, clip=10.0)
    assert np.allclose(q.data, [np.exp(-10), 1.0, np.exp(10)])
    s = sigmoid_quality(scores)
    assert (s.data > 0).all() and (s.data <= 1.0001).all()
    i = identity_quality(Tensor(np.array([-1.0, 2.0])))
    assert (i.data > 0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_greedy_map_matches_reference(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    kernel = x @ x.T + 0.3 * np.eye(n)
    assert greedy_map(kernel, k) == greedy_map_reference(kernel, k)


def test_greedy_map_candidates_restriction():
    kernel = np.diag([1.0, 10.0, 5.0, 0.1])
    chosen = greedy_map(kernel, 2, candidates=np.array([0, 2, 3]))
    assert 1 not in chosen
    assert chosen[0] == 2  # highest available diagonal


def test_greedy_map_validation():
    with pytest.raises(ValueError):
        greedy_map(np.eye(3), 0)
    with pytest.raises(ValueError):
        greedy_map(np.eye(3), 4)


def test_greedy_map_prefers_diverse_items():
    # Items 0/1 nearly identical; greedy should pick 0 (or 1) then 2.
    kernel = np.array(
        [
            [1.0, 0.99, 0.05],
            [0.99, 1.0, 0.05],
            [0.05, 0.05, 0.9],
        ]
    )
    chosen = greedy_map(kernel, 2)
    assert set(chosen) in ({0, 2}, {1, 2})
