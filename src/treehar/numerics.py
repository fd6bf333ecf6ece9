"""Dense-tensor numerics with hand-written reverse-mode gradients.

Forward operations record themselves on an explicit Tape; the tape is a
linear record of the forward pass, so walking it backwards visits every
node after all of its consumers. Parameter gradients accumulate into
ParamTensor grads via backward(). Every operation takes a leading batch
axis. No general graph engine, no broadcasting beyond what the fixed
architecture needs.

conv1d lays the batch out channel-major, samples side by side in one
zero-padded row per channel, so that every kernel shift of the whole batch
is one contiguous column range: the forward is a single GEMM over the m
stacked shifts, and the backward one GEMM per shift for the weights plus
one for the input. The tape keeps only that padded input per conv.

A training step's tape may draw the arrays it keeps from a Workspace, so
that the next step gets the same memory back instead of allocating anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


class Workspace:
    """Memory that successive tapes reuse for the arrays they keep.

    A training step keeps every activation and every gradient until the
    step ends, a few hundred MiB at batch 128. Freed and allocated again
    each step, that memory is handed back to the system or not depending
    on what else happens to sit at the top of the heap, so whether a step
    faults all of it in again changes from run to run. A workspace hands
    out views of a few large chunks instead, in request order, and starts
    again from the first chunk when the next tape opens: a step that makes
    the same requests as the one before gets the same memory back.

    Opening a Tape on a workspace invalidates every array the workspace
    handed to the previous tape, so a workspace is for callers that read
    nothing of a step after starting the next one.
    """

    # Above the 32 MiB up to which glibc's malloc may serve a request from
    # its heap, so that each chunk is a mapping of its own and goes back
    # to the system when the workspace is dropped.
    CHUNK_BYTES = 64 << 20
    ALIGN = 64

    def __init__(self):
        self._chunks = []
        self._chunk = 0
        self._offset = 0

    def reset(self):
        """Start handing out memory from the first chunk again."""
        self._chunk = 0
        self._offset = 0

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array: the next free range of the current
        chunk, or of the next one if it does not fit."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > self.CHUNK_BYTES:
            return np.empty(shape, dtype=dtype)
        if self._offset + nbytes > self.CHUNK_BYTES:
            self._chunk += 1
            self._offset = 0
        if self._chunk == len(self._chunks):
            self._chunks.append(np.empty(self.CHUNK_BYTES, dtype=np.uint8))
        start = self._offset
        self._offset += -(-nbytes // self.ALIGN) * self.ALIGN
        raw = self._chunks[self._chunk][start:start + nbytes]
        return raw.view(dtype).reshape(shape)


class Tape:
    """Linear record of a forward pass. One tape per forward/backward cycle.

    With a workspace, the arrays the recorded operations keep come from it
    (see Workspace); without one, from numpy. Backward closures hold the
    workspace, never the tape: a tape that its own nodes refer to would
    live, with every array it keeps, until the cycle collector runs.
    """

    def __init__(self, workspace: Workspace = None):
        self._nodes = []
        self.workspace = workspace
        if workspace is not None:
            workspace.reset()

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

        # One array may reach several tensors (add's backward passes g to
        # both operands), so it is never written after it is handed over:
        # no backward closure writes into its incoming g, and accumulation
        # builds a new array rather than adding in place.
        def accumulate(t: Tensor, g: np.ndarray):
            key = id(t)
            cur = table.get(key)
            if cur is None:
                table[key] = g
            else:
                total = _empty(self.workspace,
                               np.broadcast_shapes(cur.shape, g.shape),
                               np.result_type(cur, g))
                table[key] = np.add(cur, g, out=total)

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


def _workspace(tape):
    return None if tape is None else tape.workspace


def _empty(workspace, shape, dtype) -> np.ndarray:
    """An uninitialised array that lives as long as a step: from the
    workspace, if there is one."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.empty(shape, dtype)


def _require_tensor(x, op, arg):
    if not isinstance(x, Tensor):
        raise TypeError(f"{op}: {arg} must be a Tensor, got {type(x).__name__}")
    return x


def conv1d(x: Tensor, w: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """1D cross-correlation, stride 1, zero padding (M-1)/2, pre-activation.

    x is (batch, c_in, L); w is (c_out, c_in, M) with M odd; b is (c_out,).
    The output is (batch, c_out, L): length is preserved.

    The input is copied once into padded (c_in, batch, L + M - 1), read as
    flat (c_in, batch * (L + M - 1)); shift j of every sample is then the
    column range [j, j + n). The forward stacks the M shifts into one
    temporary (M * c_in, n) and multiplies it by w as (c_out, M * c_in);
    the temporary is freed before returning, and the tape keeps flat only.
    Each sample's zero border keeps its neighbours out of its own output
    columns; the 2 * pad columns between two samples are computed and
    dropped.
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
    span = length + 2 * pad
    n = n_batch * span - 2 * pad
    dtype = np.result_type(x.data, w.data)
    ws = _workspace(tape)
    padded = _empty(ws, (c_in, n_batch, span), dtype)
    padded[:, :, :pad] = 0
    padded[:, :, pad + length:] = 0
    padded[:, :, pad:pad + length] = x.data.transpose(1, 0, 2)
    flat = padded.reshape(c_in, n_batch * span)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, m * c_in)   # column j*c_in + c

    stack = np.empty((m * c_in, n), dtype=dtype)
    for j in range(m):
        stack[j * c_in:(j + 1) * c_in] = flat[:, j:j + n]
    y = np.empty((c_out, n_batch * span), dtype=dtype)
    np.matmul(w2, stack, out=y[:, :n])
    del stack
    out = Tensor(_empty(ws, (n_batch, c_out, length), dtype))
    np.add(y.reshape(c_out, n_batch, span)[:, :, :length].transpose(1, 0, 2),
           b.data[:, None], out=out.data)

    if tape is not None:
        def bwd(g, acc):
            gfull = np.zeros((c_out, n_batch, span), dtype=g.dtype)
            gfull[:, :, :length] = g.transpose(1, 0, 2)
            g_flat = gfull.reshape(c_out, n_batch * span)[:, :n]
            acc(b, g_flat.sum(axis=1))
            gw = np.empty(w.shape, dtype=g.dtype)
            for j in range(m):
                gw[:, :, j] = g_flat @ flat[:, j:j + n].T
            acc(w, gw)
            gstack = w2.T @ g_flat                         # (m * c_in, n)
            gpad = _empty(ws, (c_in, n_batch * span), gstack.dtype)
            gpad[...] = 0
            for j in range(m):
                gpad[:, j:j + n] += gstack[j * c_in:(j + 1) * c_in]
            gin = gpad.reshape(c_in, n_batch, span)[:, :, pad:pad + length]
            acc(x, gin.transpose(1, 0, 2))
        tape.record(out, bwd)
    return out


def relu(x: Tensor, tape: Tape = None) -> Tensor:
    _require_tensor(x, "relu", "input")
    ws = _workspace(tape)
    out = Tensor(np.maximum(x.data, 0.0, out=_empty(ws, x.shape, x.dtype)))
    if tape is not None:
        def bwd(g, acc):
            acc(x, np.multiply(g, x.data > 0, out=_empty(ws, g.shape, g.dtype)))
        tape.record(out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    _require_tensor(a, "add", "a")
    _require_tensor(b, "add", "b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} != shape {b.shape}")
    out = Tensor(np.add(a.data, b.data,
                        out=_empty(_workspace(tape), a.shape,
                                   np.result_type(a.data, b.data))))
    if tape is not None:
        def bwd(g, acc):
            acc(a, g)
            acc(b, g)
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
