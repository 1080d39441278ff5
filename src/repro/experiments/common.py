"""Shared infrastructure for the paper's experiment suite.

Every table and figure is expressed as a composition of:

* an :class:`ExperimentScale` — bundles dataset scale, training length
  and model sizes so the same experiment can run as a quick benchmark or
  a full reproduction;
* :func:`prepare_dataset` — generate + filter + split a dataset and
  pre-train its Eq. 3 diversity kernel (cached per process);
* :func:`build_model` / :func:`build_criterion` — backbone and criterion
  factories keyed by the names used in the paper's tables;
* :func:`run_cell` — train one (backbone, criterion, dataset) cell and
  return its test metrics, the unit of every comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import (
    DATASET_FACTORIES,
    DatasetSplit,
    InteractionDataset,
    mine_diversity_pairs,
)
from ..dpp import (
    DiversityKernelConfig,
    DiversityKernelLearner,
    LowRankKernel,
    category_jaccard_kernel,
)
from ..eval import EvalResult
from ..losses import (
    BCECriterion,
    BPRCriterion,
    Criterion,
    GCMCNLLCriterion,
    Set2SetRankCriterion,
    SetRankCriterion,
    make_lkp_variant,
)
from ..losses.lkp import LKP_VARIANTS
from ..models import (
    GCMCRecommender,
    GCNRecommender,
    MFRecommender,
    NeuMFRecommender,
    Recommender,
)
from ..train import TrainConfig, Trainer, TrainResult
from ..utils.rng import ensure_rng

__all__ = [
    "ExperimentScale",
    "QUICK",
    "SMALL",
    "FULL",
    "SCALES",
    "PreparedData",
    "prepare_dataset",
    "build_model",
    "build_criterion",
    "run_cell",
    "CellResult",
    "BASELINE_CODES",
]

BASELINE_CODES = ("BPR", "BCE", "SetRank", "S2SRank")


@dataclass(frozen=True)
class ExperimentScale:
    """One consistent operating point for the whole experiment suite.

    ``quick`` is sized for pytest-benchmark runs (seconds per cell),
    ``small`` for local iteration, ``full`` for the recorded
    EXPERIMENTS.md numbers.  LkP converges markedly slower than the
    baselines (the paper's Figure 2 reports 150–500 epochs), hence the
    separate ``lkp_lr`` — at tiny scales a hotter rate compensates for
    the shorter training budget.
    """

    name: str
    dataset_scale: float
    min_interactions: int
    dim: int
    epochs: int
    patience: int
    batch_size: int
    base_lr: float
    lkp_lr: float
    kernel_rank: int
    kernel_epochs: int
    kernel_pairs_per_user: int
    gcn_layers: int = 2
    k: int = 5
    n: int = 5
    seed: int = 0


QUICK = ExperimentScale(
    name="quick",
    dataset_scale=0.35,
    min_interactions=5,
    dim=16,
    epochs=45,
    patience=10,
    batch_size=32,
    base_lr=0.02,
    lkp_lr=0.1,
    kernel_rank=16,
    kernel_epochs=10,
    kernel_pairs_per_user=2,
)

SMALL = ExperimentScale(
    name="small",
    dataset_scale=0.5,
    min_interactions=5,
    dim=16,
    epochs=120,
    patience=15,
    batch_size=32,
    base_lr=0.02,
    lkp_lr=0.05,
    kernel_rank=16,
    kernel_epochs=20,
    kernel_pairs_per_user=3,
)

FULL = ExperimentScale(
    name="full",
    dataset_scale=1.0,
    min_interactions=8,
    dim=16,
    epochs=300,
    patience=25,
    batch_size=32,
    base_lr=0.02,
    lkp_lr=0.02,
    kernel_rank=16,
    kernel_epochs=20,
    kernel_pairs_per_user=4,
)

SCALES = {"quick": QUICK, "small": SMALL, "full": FULL}


@dataclass
class PreparedData:
    """A dataset ready for experiments: split + frozen diversity kernel.

    The learned Eq. 3 kernel is carried in **factored form**
    (``diversity_factors``, with ``K = V Vᵀ``) so training and analysis
    gather r-dimensional rows instead of slicing an M×M matrix; only the
    closed-form category kernel (``kernel_source="category"``), which
    is full rank, stays dense in ``diversity_kernel_dense``.
    """

    dataset: InteractionDataset
    split: DatasetSplit
    scale: ExperimentScale
    #: learned low-rank factors V with K = V Vᵀ (None for category mode)
    diversity_factors: np.ndarray | None = None
    #: dense kernel for sources with no factored form (category mode);
    #: also caches the materialized Gram after a `diversity_kernel` call
    diversity_kernel_dense: np.ndarray | None = None
    #: reference kernel built directly from category overlap (ablations)
    category_kernel: np.ndarray | None = None

    @property
    def diversity_kernel(self) -> np.ndarray:
        """The dense M×M kernel, materialized on demand (analysis only)."""
        if self.diversity_kernel_dense is None:
            self.diversity_kernel_dense = (
                self.diversity_factors @ self.diversity_factors.T
            )
        return self.diversity_kernel_dense

    def diversity(self) -> LowRankKernel | np.ndarray:
        """The kernel in its cheapest exact form (factored when possible)."""
        if self.diversity_factors is not None:
            return LowRankKernel(self.diversity_factors)
        return self.diversity_kernel_dense

    def diversity_submatrix(self, items: np.ndarray) -> np.ndarray:
        """``K`` restricted to ``items`` without materializing all of K."""
        if self.diversity_factors is not None:
            rows = self.diversity_factors[np.asarray(items, dtype=np.int64)]
            return rows @ rows.T
        return self.diversity_kernel_dense[np.ix_(items, items)]


_PREPARED_CACHE: dict[tuple[str, str, str], PreparedData] = {}


def prepare_dataset(
    name: str,
    scale: ExperimentScale,
    kernel_source: str = "learned",
    use_cache: bool = True,
) -> PreparedData:
    """Generate, filter, split and equip a dataset with its kernel.

    Parameters
    ----------
    name:
        One of ``beauty-like``, ``ml-like``, ``anime-like``.
    kernel_source:
        ``"learned"`` — the paper's Eq. 3 pre-training; ``"category"`` —
        the closed-form Jaccard reference kernel (ablation).
    """
    if name not in DATASET_FACTORIES:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASET_FACTORIES)}")
    if kernel_source not in ("learned", "category"):
        raise ValueError(f"kernel_source must be 'learned' or 'category', got {kernel_source!r}")
    cache_key = (name, scale.name, kernel_source)
    if use_cache and cache_key in _PREPARED_CACHE:
        return _PREPARED_CACHE[cache_key]

    dataset = DATASET_FACTORIES[name](scale=scale.dataset_scale).filter_min_interactions(
        scale.min_interactions
    )
    split = dataset.split(np.random.default_rng(scale.seed))

    if kernel_source == "learned":
        pairs = mine_diversity_pairs(
            split,
            set_size=scale.k,
            pairs_per_user=scale.kernel_pairs_per_user,
            mode="monotonous",
            rng=np.random.default_rng(scale.seed + 1),
        )
        learner = DiversityKernelLearner(
            dataset.num_items,
            DiversityKernelConfig(
                rank=scale.kernel_rank,
                epochs=scale.kernel_epochs,
                lr=0.03,
                seed=scale.seed + 2,
            ),
        )
        learner.fit(pairs)
        factors, kernel = learner.factors_normalized(), None
    else:
        kernel = category_jaccard_kernel(dataset.item_categories, scale=0.8, floor=0.2)
        diagonal = np.sqrt(np.diagonal(kernel))
        kernel = kernel / np.outer(diagonal, diagonal)
        factors = None

    prepared = PreparedData(
        dataset=dataset,
        split=split,
        scale=scale,
        diversity_factors=factors,
        diversity_kernel_dense=kernel,
    )
    if use_cache:
        _PREPARED_CACHE[cache_key] = prepared
    return prepared


def build_model(
    kind: str, prepared: PreparedData, rng: np.random.Generator | int | None = None
) -> Recommender:
    """Backbone factory: ``mf`` / ``gcn`` / ``lightgcn`` / ``neumf`` / ``gcmc``."""
    scale = prepared.scale
    dataset = prepared.dataset
    rng = ensure_rng(scale.seed + 10 if rng is None else rng)
    if kind == "mf":
        return MFRecommender(dataset.num_users, dataset.num_items, dim=scale.dim, rng=rng)
    if kind in ("gcn", "lightgcn"):
        return GCNRecommender(
            dataset.num_users,
            dataset.num_items,
            prepared.split.train_matrix(),
            dim=scale.dim,
            num_layers=scale.gcn_layers,
            variant="ngcf" if kind == "gcn" else "lightgcn",
            rng=rng,
        )
    if kind == "neumf":
        return NeuMFRecommender(
            dataset.num_users,
            dataset.num_items,
            dim=scale.dim,
            mlp_layers=(2 * scale.dim, scale.dim, scale.dim // 2),
            rng=rng,
        )
    if kind == "gcmc":
        return GCMCRecommender(
            dataset.num_users,
            dataset.num_items,
            prepared.split.train_matrix(),
            dim=scale.dim,
            hidden_dim=scale.dim,
            rng=rng,
        )
    raise ValueError(f"unknown model kind {kind!r}")


def build_criterion(
    code: str,
    prepared: PreparedData,
    k: int | None = None,
    n: int | None = None,
    normalization: str = "kdpp",
) -> Criterion:
    """Criterion factory keyed by the paper's method names."""
    scale = prepared.scale
    k = scale.k if k is None else k
    n = scale.n if n is None else n
    code_upper = code.upper()
    if code_upper in LKP_VARIANTS:
        # The criterion gathers factor rows when they exist (the learned
        # kernel); the dense matrix is reserved for kernels with no
        # factored form (category mode).
        if prepared.diversity_factors is not None:
            return make_lkp_variant(
                code_upper,
                diversity_factors=prepared.diversity_factors,
                k=k,
                n=n,
                normalization=normalization,
            )
        return make_lkp_variant(
            code_upper,
            diversity_kernel=prepared.diversity_kernel,
            k=k,
            n=n,
            normalization=normalization,
        )
    if code_upper == "BPR":
        return BPRCriterion()
    if code_upper == "BCE":
        return BCECriterion()
    if code_upper == "SETRANK":
        return SetRankCriterion(num_negatives=n)
    if code_upper == "S2SRANK":
        return Set2SetRankCriterion(k=k, n=n)
    if code_upper == "GCMC-NLL":
        return GCMCNLLCriterion()
    raise ValueError(f"unknown criterion code {code!r}")


@dataclass
class CellResult:
    """One table cell: test metrics, the training record, the model."""

    method: str
    model_kind: str
    dataset: str
    eval_result: EvalResult
    train_result: TrainResult
    model: Recommender | None = None

    @property
    def metrics(self) -> dict[str, float]:
        return self.eval_result.metrics


def _is_lkp(code: str) -> bool:
    return code.upper() in LKP_VARIANTS


def run_cell(
    model_kind: str,
    criterion_code: str,
    prepared: PreparedData,
    k: int | None = None,
    n: int | None = None,
    lr: float | None = None,
    epochs: int | None = None,
    criterion: Criterion | None = None,
    epoch_callback=None,
    verbose: bool = False,
) -> CellResult:
    """Train one (backbone, criterion) pair and evaluate on test."""
    scale = prepared.scale
    if criterion is None:
        criterion = build_criterion(criterion_code, prepared, k=k, n=n)
    if lr is None:
        lr = scale.lkp_lr if _is_lkp(criterion_code) else scale.base_lr
    config = TrainConfig(
        epochs=scale.epochs if epochs is None else epochs,
        batch_size=scale.batch_size,
        lr=lr,
        weight_decay=1e-5,
        patience=scale.patience,
        monitor="Nd@5",
        seed=scale.seed + 20,
        verbose=verbose,
    )
    model = build_model(model_kind, prepared)
    trainer = Trainer(model, criterion, prepared.split, config, epoch_callback=epoch_callback)
    train_result = trainer.fit()
    eval_result = trainer.evaluate(target="test")
    return CellResult(
        method=criterion.name,
        model_kind=model_kind,
        dataset=prepared.dataset.name,
        eval_result=eval_result,
        train_result=train_result,
        model=model,
    )
