"""EXP-A3 + micro-benchmarks of the DPP machinery itself.

These are classic pytest-benchmark timing targets (many rounds), covering
the primitives whose cost dominates LkP training: the differentiable
normalizer, the exact sampler, greedy MAP, and the analytic-vs-autodiff
gradient agreement check.
"""

import numpy as np

from repro.autodiff import Tensor
from repro.dpp import (
    KDPP,
    differentiable_log_esp,
    elementary_symmetric_polynomials,
    greedy_map,
)
from repro.losses import LkPCriterion, lkp_analytic_gradients
from repro.models import MFRecommender
from repro.data import GroundSetInstance


def _psd(seed, n, ridge=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n))
    return x @ x.T + ridge * np.eye(n)


def test_bench_algorithm1_esp(benchmark):
    lam = np.abs(np.random.default_rng(0).normal(size=10)) + 0.1
    result = benchmark(lambda: elementary_symmetric_polynomials(lam, 5))
    assert result > 0


def test_bench_differentiable_normalizer_forward_backward(benchmark):
    kernel = _psd(1, 10)

    def run():
        t = Tensor(kernel, requires_grad=True)
        out = differentiable_log_esp(t, 5)
        out.backward()
        return out.item()

    value = benchmark(run)
    assert np.isfinite(value)


def test_bench_kdpp_sampling(benchmark):
    dpp = KDPP(_psd(2, 10), 5)
    rng = np.random.default_rng(3)
    sample = benchmark(lambda: dpp.sample(rng))
    assert len(sample) == 5


def test_bench_greedy_map(benchmark):
    kernel = _psd(4, 200, ridge=1.0)
    chosen = benchmark(lambda: greedy_map(kernel, 10))
    assert len(chosen) == 10


def test_bench_lkp_instance_loss(benchmark):
    model = MFRecommender(4, 60, dim=16, rng=0)
    kernel = _psd(5, 60, ridge=1.0)
    diag = np.sqrt(np.diagonal(kernel))
    kernel = kernel / np.outer(diag, diag)
    criterion = LkPCriterion(k=5, n=5, diversity_kernel=kernel, use_negative_set=True)
    instance = GroundSetInstance(
        user=0, targets=np.arange(5), negatives=np.arange(5, 10)
    )

    def run():
        model.zero_grad()
        loss = criterion.instance_loss(model, model.representations(), instance)
        loss.backward()
        return loss.item()

    value = benchmark(run)
    assert np.isfinite(value)


def test_bench_analytic_gradients_agree(benchmark):
    """EXP-A3: autodiff and the paper's Eq. 12/14/15 stay in agreement."""
    model = MFRecommender(2, 20, dim=6, rng=1)
    kernel = _psd(6, 20, ridge=1.0)
    diag = np.sqrt(np.diagonal(kernel))
    kernel = kernel / np.outer(diag, diag)
    instance = GroundSetInstance(
        user=0, targets=np.array([0, 1, 2]), negatives=np.array([3, 4, 5])
    )
    criterion = LkPCriterion(k=3, n=3, diversity_kernel=kernel)

    def run():
        model.zero_grad()
        loss = criterion.instance_loss(model, model.representations(), instance)
        loss.backward()
        reference = lkp_analytic_gradients(
            model.user_embedding.weight.data[0],
            model.item_embedding.weight.data[instance.ground_set],
            kernel[np.ix_(instance.ground_set, instance.ground_set)],
            k=3,
        )
        return loss.item(), reference

    loss_value, reference = benchmark(run)
    assert np.isclose(loss_value, reference.loss, rtol=1e-7)
    assert np.allclose(
        model.user_embedding.weight.grad[0], reference.user_grad, rtol=1e-4, atol=1e-8
    )
