"""Dense-tensor numerics with hand-written reverse-mode gradients.

Forward operations record themselves on an explicit Tape; the tape is a
linear record of the forward pass, so walking it backwards visits every
node after all of its consumers. Parameter gradients accumulate into
ParamTensor grads via backward(). Every operation takes a leading batch
axis. No general graph engine, no broadcasting beyond what the fixed
architecture needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CROSS_ENTROPY_CLIP = 1e-12


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Tape used out of protocol (e.g. backward with no recorded forward)."""


class NumericError(ArithmeticError):
    """Non-finite values or a failed numeric validity check."""


class Tensor:
    """Dense rank-<=3 float array. Wraps a numpy buffer.

    Values are float64 unless the caller supplies a float32 buffer
    explicitly (training may run in 32-bit; gradient checking must not).
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"tensor rank {arr.ndim} exceeds 3 (shape {arr.shape})")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


@dataclass
class ParamTensor:
    """A named trainable tensor with a gradient buffer of identical shape."""

    name: str
    value: Tensor
    grad: Tensor = None
    grad_ready: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.grad is None:
            self.grad = Tensor(np.zeros(self.value.shape, dtype=self.value.dtype))
        if self.grad.shape != self.value.shape:
            raise ShapeError(
                f"param {self.name}: grad shape {self.grad.shape} "
                f"!= value shape {self.value.shape}"
            )

    def zero_grad(self):
        self.grad.data[...] = 0.0
        self.grad_ready = False


class Tape:
    """Linear record of a forward pass. One tape per forward/backward cycle."""

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, bwd):
        self._nodes.append((out, bwd))

    def gradients(self, loss: Tensor) -> dict:
        """Walk the tape in reverse from a scalar loss; returns the
        gradient of every reached tensor, keyed by id(tensor)."""
        if not self._nodes:
            raise TapeError("backward requested but no forward pass was recorded")
        if loss.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        table = {id(loss): np.ones((), dtype=loss.dtype)}

        def accumulate(t: Tensor, g: np.ndarray):
            key = id(t)
            cur = table.get(key)
            table[key] = g if cur is None else cur + g

        for out, bwd in reversed(self._nodes):
            g = table.get(id(out))
            if g is not None:
                bwd(g, accumulate)
        return table


def backward(loss: Tensor, tape: Tape, params):
    """Accumulate d(loss)/d(param) into every ParamTensor.grad."""
    table = tape.gradients(loss)
    for p in params:
        g = table.get(id(p.value))
        if g is not None:
            p.grad.data += g
        p.grad_ready = True


# ---------------------------------------------------------------------------
# forward operations


def _require_tensor(x, op, arg):
    if not isinstance(x, Tensor):
        raise TypeError(f"{op}: {arg} must be a Tensor, got {type(x).__name__}")
    return x


def conv1d(x: Tensor, w: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """1D cross-correlation, stride 1, zero padding (M-1)/2, pre-activation.

    x is (batch, c_in, L); w is (c_out, c_in, M) with M odd; b is (c_out,).
    The output is (batch, c_out, L): length is preserved.
    """
    _require_tensor(x, "conv1d", "input")
    _require_tensor(w, "conv1d", "weights")
    _require_tensor(b, "conv1d", "bias")
    if w.data.ndim != 3:
        raise ShapeError(f"conv1d: weights must be rank 3, got shape {w.shape}")
    c_out, c_in, m = w.shape
    if m % 2 == 0:
        raise ShapeError(f"conv1d: kernel size must be odd, got {m}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {b.shape} != out_channels ({c_out},)")
    if x.data.ndim != 3:
        raise ShapeError(
            f"conv1d: input must be rank 3 (batch, channels, length), got shape {x.shape}"
        )
    n_batch, x_channels, length = x.shape
    if x_channels != c_in:
        raise ShapeError(
            f"conv1d: input has {x_channels} channels, weights expect {c_in}"
        )
    if length < 1:
        raise ShapeError("conv1d: input length must be >= 1")

    pad = (m - 1) // 2
    padded = np.zeros((n_batch, c_in, length + 2 * pad), dtype=x.dtype)
    padded[:, :, pad:pad + length] = x.data
    wins = sliding_window_view(padded, m, axis=2)          # (B, c_in, L, M)
    out3 = np.tensordot(wins, w.data, axes=([1, 3], [1, 2]))   # (B, L, c_out)
    out = Tensor(out3.transpose(0, 2, 1) + b.data[:, None])

    if tape is not None:
        def bwd(g, acc):
            acc(b, g.sum(axis=(0, 2)))
            acc(w, np.tensordot(g, wins, axes=([0, 2], [0, 2])))
            gpad = np.zeros((n_batch, c_out, length + 2 * pad), dtype=g.dtype)
            gpad[:, :, pad:pad + length] = g
            gwins = sliding_window_view(gpad, m, axis=2)   # (B, c_out, L, M)
            gin = np.tensordot(gwins, w.data[:, :, ::-1], axes=([1, 3], [0, 2]))
            acc(x, gin.transpose(0, 2, 1))
        tape.record(out, bwd)
    return out


def relu(x: Tensor, tape: Tape = None) -> Tensor:
    _require_tensor(x, "relu", "input")
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        def bwd(g, acc):
            acc(x, g * (x.data > 0))
        tape.record(out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    _require_tensor(a, "add", "a")
    _require_tensor(b, "add", "b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} != shape {b.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        def bwd(g, acc):
            acc(a, g)
            acc(b, g.copy())
        tape.record(out, bwd)
    return out


def dense(x: Tensor, w: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """Affine map of each row: out = x @ w.T + b; x is (batch, D)."""
    _require_tensor(x, "dense", "input")
    _require_tensor(w, "dense", "weights")
    _require_tensor(b, "dense", "bias")
    if w.data.ndim != 2:
        raise ShapeError(f"dense: weights must be rank 2, got shape {w.shape}")
    k, d = w.shape
    if b.shape != (k,):
        raise ShapeError(f"dense: bias shape {b.shape} != output size ({k},)")
    if x.data.ndim != 2:
        raise ShapeError(f"dense: input must be rank 2 (batch, D), got shape {x.shape}")
    if x.shape[-1] != d:
        raise ShapeError(f"dense: input size {x.shape[-1]} != weight columns {d}")

    out = Tensor(x.data @ w.data.T + b.data)
    if tape is not None:
        def bwd(g, acc):
            acc(w, g.T @ x.data)
            acc(b, g.sum(axis=0))
            acc(x, g @ w.data)
        tape.record(out, bwd)
    return out


def softmax(x: Tensor, tape: Tape = None) -> Tensor:
    """Max-subtracted softmax over the last axis of (batch, K) logits."""
    _require_tensor(x, "softmax", "logits")
    if x.data.ndim != 2 or x.shape[-1] < 1:
        raise ShapeError(f"softmax: logits must be (batch, K), got shape {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)
    if tape is not None:
        def bwd(g, acc):
            dot = (g * p).sum(axis=-1, keepdims=True)
            acc(x, p * (g - dot))
        tape.record(out, bwd)
    return out


def cross_entropy(probs: Tensor, target, tape: Tape = None) -> Tensor:
    """Per-row -ln(probs[row, target[row]]), the probability clipped at
    1e-12: probs (batch, K) and batch targets give a (batch,) loss vector."""
    _require_tensor(probs, "cross_entropy", "probs")
    if probs.data.ndim != 2:
        raise ShapeError(f"cross_entropy: probs must be (batch, K), got {probs.shape}")
    targets = np.asarray(target, dtype=np.int64)
    n, k = probs.shape
    if targets.shape != (n,):
        raise ShapeError(
            f"cross_entropy: need {n} targets for batch of {n}, got shape {targets.shape}"
        )
    if targets.min() < 0 or targets.max() >= k:
        raise IndexError(f"cross_entropy: target out of range [0, {k})")
    rows = np.arange(n)
    pt = probs.data[rows, targets]
    loss = Tensor(-np.log(np.maximum(pt, CROSS_ENTROPY_CLIP)))
    if tape is not None:
        def bwd(g, acc):
            gp = np.zeros_like(probs.data)
            live = pt > CROSS_ENTROPY_CLIP
            gp[rows[live], targets[live]] = -g[live] / pt[live]
            acc(probs, gp)
        tape.record(loss, bwd)
    return loss


def mean(x: Tensor, tape: Tape = None) -> Tensor:
    _require_tensor(x, "mean", "input")
    if x.size < 1:
        raise ShapeError("mean: empty tensor")
    out = Tensor(np.asarray(x.data.mean()))
    if tape is not None:
        def bwd(g, acc):
            acc(x, np.full(x.shape, g / x.size, dtype=x.dtype))
        tape.record(out, bwd)
    return out


def l2_term(weights, c: float, tape: Tape = None) -> Tensor:
    """Scalar c * (sum of squared entries over all weights), recorded as
    one node whose backward adds 2 c w to each weight's gradient."""
    weights = list(weights)
    total = None
    for w in weights:
        squares = (w.data * w.data).sum()
        total = squares if total is None else total + squares
    out = Tensor(total * c)
    if tape is not None:
        def bwd(g, acc):
            gc = g * c
            for w in weights:
                acc(w, 2.0 * gc * w.data)
        tape.record(out, bwd)
    return out


def flatten(x: Tensor, tape: Tape = None) -> Tensor:
    """Row-major flatten (batch, C, L) -> (batch, C*L). Channel index varies
    slowest, so checkpointed head weights are portable."""
    _require_tensor(x, "flatten", "input")
    if x.data.ndim != 3:
        raise ShapeError(f"flatten: input must be rank 3, got shape {x.shape}")
    out = Tensor(x.data.reshape(x.shape[0], x.shape[1] * x.shape[2]))
    if tape is not None:
        def bwd(g, acc):
            acc(x, g.reshape(x.shape))
        tape.record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class Probe:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradientCheckReport:
    max_rel_error: float
    probes: list

    def __str__(self):
        worst = max(self.probes, key=lambda p: p.rel_error)
        return (
            f"gradient check: {len(self.probes)} probes, "
            f"max rel error {self.max_rel_error:.3e} "
            f"(worst: {worst.param}[{worst.index}])"
        )


def gradient_check(model_fn, params, probe_count: int, seed: int = 0,
                   h: float = 1e-5) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    model_fn(tape) must rebuild the same scalar loss on every call; it is
    invoked with tape=None for the finite-difference evaluations. Relative
    error per probe is |ga - gn| / max(1e-8, |ga| + |gn|). Run at 64-bit;
    the tolerances are meaningless in float32.
    """
    params = [p for p in params]
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count}")
    if not params:
        raise ValueError("gradient_check: no parameters to probe")

    first = model_fn(None).item()
    second = model_fn(None).item()
    if first != second:
        raise NumericError(
            f"model_fn is not deterministic: {first!r} != {second!r}"
        )

    tape = Tape()
    loss = model_fn(tape)
    for p in params:
        p.zero_grad()
    backward(loss, tape, params)

    sizes = np.array([p.value.size for p in params])
    offsets = np.cumsum(sizes)
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    probes = []
    for flat in rng.integers(0, total, size=probe_count):
        pi = int(np.searchsorted(offsets, flat, side="right"))
        j = int(flat - (offsets[pi - 1] if pi else 0))
        p = params[pi]
        orig = p.value.data.flat[j]
        p.value.data.flat[j] = orig + h
        loss_plus = model_fn(None).item()
        p.value.data.flat[j] = orig - h
        loss_minus = model_fn(None).item()
        p.value.data.flat[j] = orig
        gn = (loss_plus - loss_minus) / (2.0 * h)
        ga = float(p.grad.data.flat[j])
        rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
        probes.append(Probe(p.name, j, ga, gn, rel))
    return GradientCheckReport(max(p.rel_error for p in probes), probes)
