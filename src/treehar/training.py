"""Joint loss, Adam, the epoch loop and the hyperparameter sweep.

All randomness flows from one root seed through fixed stream ids
(split=0, init=1, shuffle=2, synth=3; the shuffle stream is further
keyed by epoch), so a single integer reproduces a whole experiment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .casas import DEFAULT_VOCAB
from .model import ModelParams, forward_batch, init_params
from .numerics import (
    NumericError,
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    l2_term,
    mean,
)
from .windowing import stack_windows

STREAM_SPLIT = 0
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_SYNTH = 3


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be nonnegative, got {self.l2_weight}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")


class AdamState:
    """First/second moment buffers per parameter plus the step counter."""

    def __init__(self, params):
        self.m = {p.name: np.zeros(p.value.shape, dtype=p.value.dtype) for p in params}
        self.v = {p.name: np.zeros(p.value.shape, dtype=p.value.dtype) for p in params}
        self.step = 0


def adam_step(params, state: AdamState, learning_rate: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Standard bias-corrected Adam update, in place; grads are zeroed after."""
    params = list(params)
    if not params:
        raise ValueError("adam_step: no parameters")
    if not all(p.grad_ready for p in params):
        stale = [p.name for p in params if not p.grad_ready]
        raise RuntimeError(
            f"adam_step: gradients not populated by backward for {stale[:3]}"
        )
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p in params:
        g = p.grad.data
        m = state.m[p.name]
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.value.data -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.zero_grad()


def batch_loss(resident_probs, activity_probs, residents, activities,
               params: ModelParams, l2_weight: float, tape: Tape = None) -> Tensor:
    """Mean per-sample joint CE over the batch plus the L2 term (the mean
    keeps the learning rate's meaning independent of batch size). The L2
    term covers weights only, not biases."""
    loss = add(
        mean(cross_entropy(resident_probs, residents, tape), tape),
        mean(cross_entropy(activity_probs, activities, tape), tape),
        tape,
    )
    if l2_weight:
        loss = add(loss, l2_term(
            [p.value for p in params.weight_tensors()], l2_weight, tape), tape)
    return loss


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
    events, residents, activities = stack_windows(windows, dtype=params.dtype)
    order = derive_rng(config.seed, STREAM_SHUFFLE, epoch).permutation(len(windows))

    batch_losses = []
    for start in range(0, len(windows), config.batch_size):
        idx = order[start:start + config.batch_size]
        tape = Tape()
        _, resident_probs, activity_probs = forward_batch(events[idx], params, tape)
        loss = batch_loss(
            resident_probs, activity_probs,
            residents[idx], activities[idx],
            params, config.l2_weight, tape,
        )
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(
                f"batch loss diverged to {value} at epoch {epoch}, "
                f"batch {len(batch_losses)}"
            )
        backward(loss, tape, params)
        adam_step(params, state, config.learning_rate,
                  config.adam_beta1, config.adam_beta2, config.adam_eps)
        batch_losses.append(value)
    return EpochStats(
        epoch=epoch,
        avg_loss=float(np.mean(batch_losses)),
        max_batch_loss=max(batch_losses),
        min_batch_loss=min(batch_losses),
    )


def fit(train_windows, config: TrainConfig, k: int = 8, dtype=np.float64,
        params: ModelParams = None, log_path=None, progress=None):
    """Train for config.epochs epochs; returns (params, per-epoch stats).

    Initialization is seeded from the root seed's init stream unless
    ready-made params are supplied.
    """
    train_windows = list(train_windows)
    if not train_windows:
        raise ValueError("fit: empty training set")
    if params is None:
        params = init_params(k, len(DEFAULT_VOCAB),
                             seed=derive_seed(config.seed, STREAM_INIT), dtype=dtype)
    state = AdamState(params)
    history = []
    for epoch in range(config.epochs):
        stats = train_epoch(train_windows, params, state, config, epoch)
        history.append(stats)
        if progress is not None:
            progress(stats)
    if log_path is not None:
        write_loss_log(history, log_path)
    return params, history


def write_loss_log(history, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "avg_loss", "max_batch_loss", "min_batch_loss"])
        for s in history:
            writer.writerow([s.epoch, repr(s.avg_loss),
                             repr(s.max_batch_loss), repr(s.min_batch_loss)])


DEFAULT_ALPHA_GRID = (64, 128, 256)
DEFAULT_BETA_GRID = (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)
DEFAULT_GAMMA_GRID = (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)


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
          tuning_epochs: int = 15, seed: int = 0, dtype=np.float64, progress=None):
    """Grid search over (batch size, L2 weight, learning rate).

    Each grid point trains a fresh model for tuning_epochs and reports the
    max, average and min of its per-epoch losses.
    """
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


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "gamma",
                         "max_loss", "avg_loss", "min_loss"])
        for r in rows:
            writer.writerow([r.alpha, repr(r.beta), repr(r.gamma),
                             repr(r.max_loss), repr(r.avg_loss),
                             repr(r.min_loss)])
