"""Joint loss, Adam, the epoch loop and the hyperparameter sweep.

All randomness flows from one root seed through fixed stream ids
(split=0, init=1, shuffle=2, synth=3, gradcheck=4; the shuffle stream
is further keyed by epoch), so a single integer reproduces a whole experiment.

Every batch of B windows is cut into two fixed halves by two_halves, whose
docstring says how it cuts and runs them. Each half has its own stack,
forward, joint_loss node and tape walk, on its own Tape and Workspace; it
divides its cross-entropies by B, and only half 0 holds the L2 term. The
batch loss is half 0's + half 1's, and so is the batch gradient, in that
order.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
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
    gradient,
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
    """Adam's moments m and v and a scratch array, each shaped and laid out
    like params.flat, the step counter, and the two workspaces that the
    tapes of every training step's two half batches reuse, one per half."""

    __slots__ = ("m", "v", "scratch", "step", "workspaces")

    def __init__(self, params: ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = np.empty_like(params.flat)
        self.step = 0
        self.workspaces = (Workspace(), Workspace())


def adam_step(params: ModelParams, state: AdamState, learning_rate: float,
              beta1: float = TrainConfig.adam_beta1,
              beta2: float = TrainConfig.adam_beta2,
              eps: float = TrainConfig.adam_eps):
    """Standard bias-corrected Adam update of params.flat, in place, in
    whole-vector passes that write into state.scratch and, once the moments
    are updated, into the gradient's own array, so a step allocates no
    array. It consumes the gradient backward set: params.grad is None after
    the step, and its array holds scratch values, so each step needs a
    backward of its own."""
    g = params.grad
    if g is None:
        raise RuntimeError("adam_step: no gradient; run backward before each step")
    params.grad = None
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v, s = state.m, state.v, state.scratch
    # the operations, and their order, of
    #   m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
    #   flat -= (learning_rate (m / bc1)) / (sqrt(v / bc2) + eps)
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=s)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, g, out=s), g, out=s)
    update = np.multiply(learning_rate, np.divide(m, bc1, out=s), out=s)
    denominator = np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), eps, out=g)
    params.flat -= np.divide(update, denominator, out=s)


def batch_loss(resident_logits, activity_logits, residents, activities,
               params: ModelParams, l2_weight: float, tape: Tape = None,
               divisor: int = None) -> Tensor:
    """Mean per-sample joint softmax cross-entropy of the two heads' logits
    over the batch plus the L2 term (the mean keeps the learning rate's
    meaning independent of batch size). With a divisor, the cross-entropies
    are summed and divided by it instead of by the batch size, as a half
    batch divides by the whole batch's. The L2 term covers weights only,
    not biases. It is one joint_loss node."""
    weights = [p.value for p in params.weight_tensors()] if l2_weight else []
    return joint_loss([(resident_logits, residents), (activity_logits, activities)],
                      weights, l2_weight, tape, divisor)


@dataclass
class EpochStats:
    epoch: int
    avg_loss: float
    max_batch_loss: float
    min_batch_loss: float


_OPENBLAS_THREAD_CALLS = (
    # (get, set): the numpy wheel's scipy-openblas, an OpenBLAS with 64-bit
    # integers and the 64_ symbol suffix (a build against a distribution's
    # openblas64_), and a system OpenBLAS
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy calls,
    or None: looked up in numpy's linalg extension module, whose symbol
    lookup also searches the libraries it links, so no other is opened."""
    from numpy.linalg import _umath_linalg
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except (AttributeError, OSError):    # a module with no file, or no library
        return None
    for get_name, set_name in _OPENBLAS_THREAD_CALLS:
        if hasattr(library, get_name) and hasattr(library, set_name):
            get, set_ = getattr(library, get_name), getattr(library, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def two_halves(items, half):
    """[half(items[:cut], 0), half(items[cut:], 1)] for cut = ceil(n/2), or
    [half(items, 0)] for one item: how train_epoch runs each batch and
    metrics.evaluate each chunk.

    The cut is part of the arithmetic; where the halves run is not. Where
    numpy's BLAS is an OpenBLAS reached through numpy's extension module,
    it is held at one thread for the call, one item too, so its GEMMs sum
    in one order, and its count is given back after. Where it is held and
    at least 2 CPUs are usable, half 1 runs on a one-worker pool in a copy
    of the caller's context, which holds numpy's error state, while half 0
    runs on the caller's thread. Otherwise the halves run in turn on the
    caller's thread; with another BLAS, the bits then depend on its thread
    count. Half 1's outcome is always read: if only half 1 raises, its
    error is raised, and if both do, half 0's is, with half 1's as its
    __context__.
    """
    cut = (len(items) + 1) // 2
    blas = _openblas_threads()
    if blas is not None:
        before = blas[0]()
        blas[1](1)
    try:
        if cut == len(items):    # one item has no half 1
            return [half(items, 0)]
        if blas is None or _usable_cpus() < 2:
            return [half(items[:cut], 0), half(items[cut:], 1)]
        # imported here so that predict, which starts no thread, does not
        # load concurrent.futures and its logging (0.4 MiB of RSS)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=1) as pool:
            later = pool.submit(contextvars.copy_context().run, half, items[cut:], 1)
            try:
                first = half(items[:cut], 0)
            except BaseException as error:
                if (second := later.exception()) is not None:
                    error.__context__ = second
                raise
            return [first, later.result()]
    finally:
        if blas is not None:
            blas[1](before)


def _half_step(params: ModelParams, state: AdamState, l2_weight: float,
               divisor: int, windows, half: int):
    """The loss value and flat gradient of half 0 or 1 of a batch, its
    cross-entropies divided by divisor, on a tape over that half's workspace."""
    events, residents, activities = stack_windows(windows, dtype=params.dtype)
    tape = Tape(state.workspaces[half])
    _, resident_logits, activity_logits = forward_batch(events, params, tape)
    loss = batch_loss(resident_logits, activity_logits, residents, activities,
                      params, 0.0 if half else l2_weight, tape, divisor)
    return loss.item(), gradient(loss, tape, params)


def train_epoch(windows, params: ModelParams, state: AdamState,
                config: TrainConfig, epoch: int = 0) -> EpochStats:
    """One pass: shuffle, batch, forward, backward, Adam per batch, each
    batch as two half batches (see the module docstring).

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
        batch = [windows[i] for i in order[start:start + config.batch_size]]
        step = functools.partial(_half_step, params, state, config.l2_weight, len(batch))
        (value, grad), *second = two_halves(batch, step)
        for value1, grad1 in second:    # none for a batch of one window
            value, grad = value + value1, np.add(grad, grad1, out=grad)
        if not np.isfinite(value):
            raise NumericError(
                f"batch loss diverged to {value} at epoch {epoch}, "
                f"batch {len(batch_losses)}"
            )
        params.grad = grad
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


def fit(train_windows, config: TrainConfig, dtype=np.float64, progress=None):
    """Train for config.epochs epochs; returns (params, per-epoch stats).

    The model's k is the windows' length. Initialization is seeded from
    the root seed's init stream.
    """
    train_windows = list(train_windows)
    if not train_windows:
        raise ValueError("fit: empty training set")
    params = init_params(len(train_windows[0].sensors), len(DEFAULT_VOCAB),
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


def sweep(train_windows, configs, dtype=np.float64, progress=None):
    """Grid search: train a fresh model for each TrainConfig of configs, in
    order, on the same windows, whose length is the models' k. Each
    SweepRow holds its config's (batch_size, l2_weight, learning_rate) as
    (alpha, beta, gamma) and the max, average and min of its per-epoch
    losses. A config with epochs < 1 is a ValueError, raised before any
    config trains."""
    train_windows, configs = list(train_windows), list(configs)
    for config in configs:
        if config.epochs < 1:
            raise ValueError(f"sweep epochs must be >= 1, got {config.epochs}")
    rows = []
    for config in configs:
        _, history = fit(train_windows, config, dtype=dtype)
        epoch_losses = [s.avg_loss for s in history]
        row = SweepRow(
            alpha=config.batch_size, beta=config.l2_weight,
            gamma=config.learning_rate, max_loss=max(epoch_losses),
            avg_loss=float(np.mean(epoch_losses)), min_loss=min(epoch_losses),
        )
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows
