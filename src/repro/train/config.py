"""Training configuration dataclasses."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrainConfig"]


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    Attributes
    ----------
    epochs:
        Maximum number of epochs.
    batch_size:
        Instances per optimization step (instances are whatever the
        criterion's sampler emits — pairs for BPR, ground sets for LkP).
    lr / weight_decay:
        Adam settings.  The paper uses Adam with grid-searched lr.
    eval_every:
        Validate every this many epochs (1 = every epoch).
    patience:
        Early-stopping patience measured in *validations* without
        improvement; ``0`` disables early stopping.
    monitor:
        Validation metric key driving model selection (e.g. ``"Nd@5"``).
    cutoffs:
        Ranking cutoffs computed during validation.
    seed:
        Seed for shuffling / negative sampling during training.
    verbose:
        Print one line per validation.
    loss_backend:
        Minibatch evaluation strategy for criteria that support more than
        one (currently LkP): ``"batched"`` for the fused stacked-kernel
        path, ``"reference"`` for the per-instance loop, ``None`` to keep
        the criterion's own default.
    """

    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.01
    weight_decay: float = 1e-5
    eval_every: int = 1
    patience: int = 5
    monitor: str = "Nd@5"
    cutoffs: tuple[int, ...] = (5, 10, 20)
    seed: int = 0
    verbose: bool = False
    loss_backend: str | None = None

    def __post_init__(self) -> None:
        if self.loss_backend not in (None, "batched", "reference"):
            raise ValueError(
                "loss_backend must be None, 'batched' or 'reference', "
                f"got {self.loss_backend!r}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        family = self.monitor.split("@")[0]
        if family not in ("Re", "Nd", "CC", "F"):
            raise ValueError(f"unknown monitor metric family {family!r}")
        cutoff = int(self.monitor.split("@")[1])
        if cutoff not in self.cutoffs:
            self.cutoffs = tuple(sorted({*self.cutoffs, cutoff}))
