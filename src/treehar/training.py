"""Joint loss, Adam, the epoch loop and the hyperparameter sweep.

All randomness flows from one root seed through fixed stream ids
(split=0, init=1, shuffle=2, synth=3, gradcheck=4; the shuffle stream
is further keyed by epoch), so a single integer reproduces a whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .casas import DEFAULT_VOCAB
from .model import ModelParams, forward_batch, init_params
from .numerics import (
    NumericError,
    Tape,
    Tensor,
    Workspace,
    backward,
    joint_loss,
)
from .windowing import stack_windows

STREAM_SPLIT = 0
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_SYNTH = 3
STREAM_GRADCHECK = 4


def derive_seed(root_seed: int, *stream) -> int:
    """Stable child seed for a named stream of the root seed."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(stream))
    return int(ss.generate_state(1)[0])


def derive_rng(root_seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(root_seed, spawn_key=tuple(stream))
    )


@dataclass
class TrainConfig:
    batch_size: int = 128          # alpha
    l2_weight: float = 0.0004      # beta
    learning_rate: float = 0.0002  # gamma
    epochs: int = 25
    seed: int = 0
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        # written so that NaN fails too: every comparison with NaN is false
        if not 0 <= self.l2_weight < np.inf:
            raise ValueError(
                f"l2_weight must be finite and nonnegative, got {self.l2_weight}"
            )
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")


class AdamState:
    """Adam's moments m and v, each shaped and laid out like params.flat,
    the step counter, and the workspace every training step's tape reuses."""

    def __init__(self, params: ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step = 0
        self.workspace = Workspace()


def adam_step(params: ModelParams, state: AdamState, learning_rate: float,
              beta1: float = TrainConfig.adam_beta1,
              beta2: float = TrainConfig.adam_beta2,
              eps: float = TrainConfig.adam_eps):
    """Standard bias-corrected Adam update of params.flat, in place, in
    whole-vector passes. It consumes the gradient backward set: params.grad
    is None after the step, so each step needs a backward of its own."""
    g = params.grad
    if g is None:
        raise RuntimeError("adam_step: no gradient; run backward before each step")
    params.grad = None
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    params.flat -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


def batch_loss(resident_logits, activity_logits, residents, activities,
               params: ModelParams, l2_weight: float, tape: Tape = None) -> Tensor:
    """Mean per-sample joint softmax cross-entropy of the two heads' logits
    over the batch plus the L2 term (the mean keeps the learning rate's
    meaning independent of batch size). The L2 term covers weights only,
    not biases. It is one joint_loss node."""
    weights = [p.value for p in params.weight_tensors()] if l2_weight else []
    return joint_loss([(resident_logits, residents), (activity_logits, activities)],
                      weights, l2_weight, tape)


@dataclass
class EpochStats:
    epoch: int
    avg_loss: float
    max_batch_loss: float
    min_batch_loss: float


def train_epoch(windows, params: ModelParams, state: AdamState,
                config: TrainConfig, epoch: int = 0) -> EpochStats:
    """One pass: shuffle, batch, forward, backward, Adam per batch.

    Windows are canonically ordered by (source, index) before the seeded
    shuffle, so the epoch is invariant to the caller's storage order.
    Returns the mean loss over batches (plus the batch extremes).
    """
    windows = sorted(windows, key=lambda w: (w.source, w.index))
    if not windows:
        raise ValueError("train_epoch: empty window set")
    order = derive_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(len(windows))

    batch_losses = []
    for start in range(0, len(windows), config.batch_size):
        events, residents, activities = stack_windows(
            [windows[i] for i in order[start:start + config.batch_size]],
            dtype=params.dtype)
        tape = Tape(state.workspace)
        _, resident_logits, activity_logits = forward_batch(events, params, tape)
        loss = batch_loss(
            resident_logits, activity_logits, residents, activities,
            params, config.l2_weight, tape,
        )
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(
                f"batch loss diverged to {value} at epoch {epoch}, "
                f"batch {len(batch_losses)}"
            )
        backward(loss, tape, params)
        adam_step(params, state, config.learning_rate)
        if (bad := params.non_finite()) is not None:
            raise NumericError(
                f"parameter {bad} is not finite after the Adam step "
                f"at epoch {epoch}, batch {len(batch_losses)}"
            )
        batch_losses.append(value)
    return EpochStats(
        epoch=epoch,
        avg_loss=float(np.mean(batch_losses)),
        max_batch_loss=max(batch_losses),
        min_batch_loss=min(batch_losses),
    )


def fit(train_windows, config: TrainConfig, k: int = 8, dtype=np.float64,
        progress=None):
    """Train for config.epochs epochs; returns (params, per-epoch stats).

    Initialization is seeded from the root seed's init stream.
    """
    train_windows = list(train_windows)
    if not train_windows:
        raise ValueError("fit: empty training set")
    params = init_params(k, len(DEFAULT_VOCAB),
                         seed=derive_seed(config.seed, STREAM_INIT), dtype=dtype)
    state = AdamState(params)
    history = []
    for epoch in range(config.epochs):
        stats = train_epoch(train_windows, params, state, config, epoch)
        history.append(stats)
        if progress is not None:
            progress(stats)
    return params, history


DEFAULT_ALPHA_GRID = (64, 128, 256)
DEFAULT_BETA_GRID = (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)
DEFAULT_GAMMA_GRID = (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)
TUNING_EPOCHS = 15   # a grid point trains for fewer epochs than a final run


@dataclass
class SweepRow:
    alpha: int
    beta: float
    gamma: float
    max_loss: float
    avg_loss: float
    min_loss: float


def sweep(train_windows, k: int = 8, alphas=DEFAULT_ALPHA_GRID,
          betas=DEFAULT_BETA_GRID, gammas=DEFAULT_GAMMA_GRID,
          tuning_epochs: int = TUNING_EPOCHS, seed: int = 0, dtype=np.float64, progress=None):
    """Grid search over (batch size, L2 weight, learning rate).

    Each grid point trains a fresh model for tuning_epochs (at least 1)
    and reports the max, average and min of its per-epoch losses.
    """
    if tuning_epochs < 1:
        raise ValueError(f"tuning_epochs must be >= 1, got {tuning_epochs}")
    rows = []
    for alpha in alphas:
        for beta in betas:
            for gamma in gammas:
                config = TrainConfig(
                    batch_size=alpha, l2_weight=beta, learning_rate=gamma,
                    epochs=tuning_epochs, seed=seed,
                )
                _, history = fit(train_windows, config, k=k, dtype=dtype)
                epoch_losses = [s.avg_loss for s in history]
                row = SweepRow(
                    alpha=alpha, beta=beta, gamma=gamma,
                    max_loss=max(epoch_losses),
                    avg_loss=float(np.mean(epoch_losses)),
                    min_loss=min(epoch_losses),
                )
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows
