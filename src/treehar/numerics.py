"""Dense-tensor numerics with hand-written reverse-mode gradients.

Forward operations record themselves on an explicit Tape; the tape is a
linear record of the forward pass, so walking it backwards visits every
node after all of its consumers. backward() copies each parameter's
gradient into the model's one gradient array, params.grad. Every operation
takes a leading batch axis. No general graph engine, no broadcasting
beyond what the fixed architecture needs.

Activations are held channel-major. A rank-3 tensor that conv1d or add
produces is a (batch, C, L) view into a buffer (C, batch * (L + 2 pad))
that puts the samples side by side in one row per channel, each between
pad zero columns; the buffer travels with the tensor as Tensor.buf. Every
kernel shift of the whole batch is then one contiguous column range, so
conv1d reads such a buffer as its padded input, runs one GEMM over the m
stacked shifts and writes it straight into its own output buffer.
conv1d also takes plain (batch, C, L) data, such as an event slice, which
it copies into a buffer once. add and flatten take activations only, and
refuse plain tensors. Everything else is plain: dense's input (flatten's
rows), joint_loss's logits and weights, and every parameter.

There is no standalone ReLU: with relu=True, conv1d and add clamp their
own output in place and their backward masks the incoming gradient by
out > 0 (equal to pre > 0), so a rectified activation keeps no second buffer.

Every tensor's gradient has one layout, the tensor's own: an array shaped
like its buffer, with zero borders, for an activation, and the tensor's
shape for a plain tensor. Every operation hands each input its gradient in
that layout, so the tape only sums.

A training step's tape may draw the arrays it keeps from a Workspace, so
that the next step gets the same memory back instead of allocating anew,
and its walk hands back each array it is done with for the backward's
later requests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

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
    An activation also carries the zero-bordered channel-major buffer its
    data is a view of (see the module docstring): buf, with pad border
    columns on each side of every sample. Both are None otherwise.
    """

    __slots__ = ("data", "buf", "pad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"tensor rank {arr.ndim} exceeds 3 (shape {arr.shape})")
        self.data = arr
        self.buf = None
        self.pad = None

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
    """A named trainable tensor. Its gradient is the tensor's view of the
    model's params.grad, which backward sets (see model.ModelParams)."""

    name: str
    value: Tensor


class Workspace:
    """Memory that successive tapes reuse for the arrays they keep.

    Freed and allocated again each step, a training step's memory is
    handed back to the system or not depending on what else happens to
    sit at the top of the heap, so whether a step faults all of it in
    again changes from run to run. A workspace hands out views of a few
    large chunks instead, in request order, and starts again from the
    first chunk when the next tape opens. The backward releases what it
    is done with (see Tape.gradients), and a request takes the range of
    its aligned size released last, if any, before the offset moves on. A
    k=8 step at batch 128 peaks at about 114 MiB at float64 (two chunks)
    and 56 MiB at float32 (one); a step that makes the same requests and
    releases as the one before gets the same memory back.

    So an array that a tape's operations drew from a workspace is invalid
    once the walk has passed the node that made it, and what the walk
    returns is invalid once the next Tape opens on the workspace: a
    workspace is for callers that read nothing of a step's activations
    after its backward, and nothing of the step after starting the next.
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
        self._handed = {}   # first byte's address -> range handed out
        self._free = {}     # aligned byte size -> ranges released

    def reset(self):
        """Start handing out memory from the first chunk again."""
        self._chunk = 0
        self._offset = 0
        self._handed.clear()
        self._free.clear()

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array: a released range of its aligned size,
        else the next free range of the current chunk, or of the next one
        if it does not fit."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        # an empty range would share its address with the next one
        if not 0 < nbytes <= self.CHUNK_BYTES:
            return np.empty(shape, dtype=dtype)
        size = -(-nbytes // self.ALIGN) * self.ALIGN
        free = self._free.get(size)
        if free:
            raw = free.pop()
        else:
            if self._offset + size > self.CHUNK_BYTES:
                self._chunk += 1
                self._offset = 0
            if self._chunk == len(self._chunks):
                self._chunks.append(np.empty(self.CHUNK_BYTES, dtype=np.uint8))
            start = self._offset
            self._offset += size
            raw = self._chunks[self._chunk][start:start + size]
        self._handed[_address(raw)] = raw
        return raw[:nbytes].view(dtype).reshape(shape)

    def release(self, array: np.ndarray):
        """Take back the range that starts at array's first byte, if empty
        handed it out and it is not free already, for the next request of
        its size. Anything else, such as a view that starts inside a range
        or memory from numpy, is ignored."""
        raw = self._handed.pop(_address(array), None)
        if raw is not None:
            self._free.setdefault(raw.nbytes, []).append(raw)


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class Tape:
    """Linear record of a forward pass. One tape per forward/backward cycle,
    walked once.

    With a workspace, the arrays the recorded operations keep come from it
    (see Workspace); without one, from numpy. Backward closures hold the
    workspace, never the tape: a tape that its own nodes refer to would
    live, with every array it keeps, until the cycle collector runs.
    """

    def __init__(self, workspace: Workspace = None):
        self._nodes = []
        self._walked = False
        self.workspace = workspace
        if workspace is not None:
            workspace.reset()

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, bwd):
        self._nodes.append((out, bwd))

    def gradients(self, loss: Tensor) -> dict:
        """Walk the tape in reverse from a scalar loss; returns the
        gradient, keyed by id(tensor), of every reached tensor that no node
        on the tape produced: the parameters and the inputs. A
        buffer-backed tensor's gradient is shaped like its buffer.

        The walk visits every consumer before the producer, so once a
        node's backward has run, nothing reads its output or its gradient
        again. The walk then drops the node's entry and releases that
        gradient, the output's buffer and every array summed into an entry
        to the workspace, if any. So a tape is walked once; a second walk
        is a TapeError."""
        if not self._nodes:
            raise TapeError("backward requested but no forward pass was recorded")
        if self._walked:
            raise TapeError("this tape was walked already; record a new forward")
        if loss.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        self._walked = True
        ws = self.workspace
        release = (lambda array: None) if ws is None else ws.release
        table = {id(loss): np.ones((), dtype=loss.dtype)}
        # One array may reach several tensors (add's backward passes g to
        # both operands), so it is never written after it is handed over:
        # no backward closure writes into its incoming g, and a sum goes
        # into a new array rather than adding in place. Both terms of a sum
        # are in the tensor's one layout, so they share shape and dtype.
        # Such an array is released only once no entry holds it, and only
        # after the backward that handed it over returns, which may hand
        # it on to another tensor after summing it into one.
        holders = Counter({id(table[id(loss)]): 1})
        spent = []

        def accumulate(t: Tensor, g: np.ndarray):
            cur = table.get(id(t))
            if cur is not None:
                spent.extend((cur, g))
                holders[id(cur)] -= 1
                g = np.add(cur, g, out=_empty(ws, cur.shape, cur.dtype))
            table[id(t)] = g
            holders[id(g)] += 1

        for out, bwd in reversed(self._nodes):
            g = table.pop(id(out), None)
            if g is not None:
                bwd(g, accumulate)
                holders[id(g)] -= 1
                spent.append(g)
            for array in spent:
                if not holders[id(array)]:
                    release(array)
            spent.clear()
            if out.buf is not None:
                release(out.buf)
        return table


def backward(loss: Tensor, tape: Tape, params):
    """Set params.grad, for a model.ModelParams, to d(loss)/d(params.flat):
    a new array like flat holding, at each tensor's view, a copy of the
    tape's gradient for it, or zeros where the loss does not reach it. So
    the grad outlives the tape and any workspace the tape draws from."""
    table = tape.gradients(loss)
    params.grad = np.empty_like(params.flat)
    for p, g in zip(params, params.views(params.grad)):
        g[...] = table.get(id(p.value), 0)


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


def _zero_borders(buf: np.ndarray, pad: int, length: int):
    cube = buf.reshape(buf.shape[0], -1, length + 2 * pad)
    cube[:, :, :pad] = 0
    cube[:, :, pad + length:] = 0


def _interior(buf: np.ndarray, pad: int, length: int) -> np.ndarray:
    """The (batch, C, L) view of a (C, batch * (L + 2 pad)) buffer."""
    cube = buf.reshape(buf.shape[0], -1, length + 2 * pad)
    return cube[:, :, pad:pad + length].transpose(1, 0, 2)


def _bordered(workspace, data: np.ndarray, pad: int, dtype=None) -> np.ndarray:
    """A copy of (batch, C, L) data in a zero-bordered buffer."""
    n_batch, channels, length = data.shape
    buf = _empty(workspace, (channels, n_batch * (length + 2 * pad)),
                 data.dtype if dtype is None else dtype)
    _zero_borders(buf, pad, length)
    _interior(buf, pad, length)[...] = data
    return buf


def _on_buffer(buf: np.ndarray, pad: int, length: int) -> Tensor:
    out = Tensor(_interior(buf, pad, length))
    out.buf, out.pad = buf, pad
    return out


def _require_activation(x, op, arg):
    _require_tensor(x, op, arg)
    if x.buf is None:
        raise ShapeError(f"{op}: {arg} must be an activation on a zero-bordered "
                         f"buffer, got a plain tensor of shape {x.shape}")


def conv1d(x: Tensor, w: Tensor, b: Tensor, tape: Tape = None,
           relu: bool = False) -> Tensor:
    """1D cross-correlation, stride 1, zero padding (M-1)/2; ReLU'd if relu.

    x is (batch, c_in, L); w is (c_out, c_in, M) with M odd; b is (c_out,).
    The output is (batch, c_out, L): length is preserved.

    The input is read as flat (c_in, batch * span), span = L + M - 1: x's
    own buffer if it has one, else a copy of x in that layout. A buffer
    with another pad than (M - 1) / 2, or any input of another dtype than
    the weights, is a ShapeError, never copied or cast. Shift j of every
    sample is then the column range [j, j + n), n = batch * span - 2 pad.
    The forward stacks the M shifts into one temporary (M * c_in, n),
    multiplies it by w as (c_out, M * c_in) into columns [pad, pad + n) of
    the output buffer, adds the bias there, clamps it at 0 for relu and
    zeroes the borders, which the 2 pad columns between two samples
    overwrote. The temporary is freed before returning; the tape keeps flat
    only, which for a buffer-backed input is memory the tape keeps anyway.

    The backward takes the output's gradient as a zero-bordered buffer, or
    as a plain (batch, c_out, L) array, which it copies into one. Its
    columns [pad, pad + n) line up with the stacked shifts; for relu they
    are first multiplied by out > 0 into a temporary that nothing else
    reads, so the tape keeps no masked gradient. The bias
    gradient is their row sum, the weight gradient one GEMM per shift
    against flat, and the input gradient one GEMM whose M row blocks are
    added into a buffer at their shifts. That buffer, its borders zeroed,
    is a buffer-backed input's gradient; a plain input gets its interior.
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
    dtype = w.dtype
    if x.buf is not None and (x.pad, x.dtype) != (pad, dtype):
        raise ShapeError(
            f"conv1d: input buffer has pad {x.pad} and dtype {x.dtype}, "
            f"the conv needs pad {pad} and dtype {dtype}")
    if x.dtype != dtype:
        raise ShapeError(f"conv1d: input has dtype {x.dtype}, the weights {dtype}")
    ws = _workspace(tape)
    flat = x.buf if x.buf is not None else _bordered(ws, x.data, pad, dtype)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, m * c_in)   # column j*c_in + c

    stack = np.empty((m * c_in, n), dtype=dtype)
    for j in range(m):
        stack[j * c_in:(j + 1) * c_in] = flat[:, j:j + n]
    out_buf = _empty(ws, (c_out, n_batch * span), dtype)
    y = out_buf[:, pad:pad + n]
    np.matmul(w2, stack, out=y)
    del stack
    np.add(y, b.data[:, None], out=y)
    if relu:
        np.maximum(y, 0.0, out=y)
    _zero_borders(out_buf, pad, length)
    out = _on_buffer(out_buf, pad, length)

    if tape is not None:
        def bwd(g, acc):
            if g.ndim == 3:
                g = _bordered(None, g, pad)
            g_flat = g[:, pad:pad + n]
            if relu:
                g_flat = g_flat * (y > 0)
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
            if x.buf is not None:
                _zero_borders(gpad, pad, length)
                acc(x, gpad)
            else:
                acc(x, _interior(gpad, pad, length))
        tape.record(out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape = None, relu: bool = False) -> Tensor:
    """Element-wise sum of two activations on buffers of one pad, clamped
    at 0 for relu; a plain operand is a ShapeError. It adds the whole
    buffers, whose zero borders sum to zero borders. The backward hands
    both operands one gradient, masked by out > 0 for relu into an array
    the tape keeps."""
    _require_activation(a, "add", "a")
    _require_activation(b, "add", "b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} != shape {b.shape}")
    if a.pad != b.pad:
        raise ShapeError(f"add: operands in different layouts (pad {a.pad} and {b.pad})")
    ws = _workspace(tape)
    total = np.add(a.buf, b.buf,
                   out=_empty(ws, a.buf.shape, np.result_type(a.buf, b.buf)))
    if relu:
        np.maximum(total, 0.0, out=total)
    out = _on_buffer(total, a.pad, a.shape[2])
    if tape is not None:
        def bwd(g, acc):
            if relu:
                g = np.multiply(g, total > 0, out=_empty(ws, g.shape, g.dtype))
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


def joint_loss(heads, weights=(), c: float = 0.0, tape: Tape = None) -> Tensor:
    """One scalar node: the sum over (logits, targets) heads, in order, of
    the batch mean of -log softmax(logits)[row, target[row]] for (batch, K)
    logits, plus c times the sum of squares of the plain weights, if any.
    A max-subtracted log-sum-exp forms no probability, so none is clipped.
    The backward hands each head's logits (softmax - onehot) * g / batch,
    the softmax being the forward's exp(z) over its row sums, and each
    weight 2 c g w."""
    weights = list(weights)
    if any(w.buf is not None for w in weights):
        raise ShapeError("joint_loss: weights must be plain; flatten an activation")
    total = 0   # 0 + x is x bit for bit: the sum is (head 1 + head 2) + L2
    kept = []
    for logits, target in heads:
        _require_tensor(logits, "joint_loss", "logits")
        if logits.data.ndim != 2 or min(logits.shape) < 1:
            raise ShapeError(f"joint_loss: logits must be (batch, K), got {logits.shape}")
        targets = np.asarray(target, dtype=np.int64)
        n, k = logits.shape
        if targets.shape != (n,):
            raise ShapeError(f"joint_loss: need {n} targets for batch of {n}, "
                             f"got shape {targets.shape}")
        if targets.min() < 0 or targets.max() >= k:
            raise IndexError(f"joint_loss: target out of range [0, {k})")
        rows = np.arange(n)
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        total = total + (np.log(e.sum(axis=1)) - z[rows, targets]).mean()
        kept.append((logits, rows, targets, e))
    if weights:
        total = total + sum((w.data * w.data).sum() for w in weights) * c
    out = Tensor(np.asarray(total))
    if tape is not None:
        def bwd(g, acc):
            gc = g * c
            for w in weights:
                acc(w, 2.0 * gc * w.data)
            for logits, rows, targets, e in kept:
                grad = e / e.sum(axis=1, keepdims=True)
                grad[rows, targets] -= 1.0
                acc(logits, grad * (g / len(rows)))
        tape.record(out, bwd)
    return out


def flatten(x: Tensor, tape: Tape = None) -> Tensor:
    """Row-major flatten of an activation, (batch, C, L) -> (batch, C*L);
    a plain tensor is a ShapeError. Channel index varies slowest, so
    checkpointed head weights are portable. The backward hands the input
    its gradient as a copy in its buffer layout."""
    _require_activation(x, "flatten", "input")
    out = Tensor(x.data.reshape(x.shape[0], x.shape[1] * x.shape[2]))
    if tape is not None:
        ws = tape.workspace

        def bwd(g, acc):
            acc(x, _bordered(ws, g.reshape(x.shape), x.pad))
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


_EPS64 = float(np.finfo(np.float64).eps)
FD_STEP = 1e-5   # h of the central differences


def gradient_check(model_fn, params, probe_count: int,
                   seed: int = 0) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    params is any iterable of ParamTensors, such as a model.ModelParams;
    the analytic gradients come from the tape's table, zero for a tensor the
    loss does not reach. model_fn(tape) must rebuild the same scalar loss on
    every call; it is invoked with tape=None for the finite-difference
    evaluations. Relative
    error per probe is max(0, |ga - gn| - r) / max(1e-8, |ga| + |gn|), where
    r = eps * max(|L+|, |L-|) / h estimates the float64 roundoff in gn (h is
    FD_STEP): the two losses each carry ~eps * |L|, and their difference is
    divided by 2h.
    Without r, a correct gradient near zero reads as wrong. Run at 64-bit;
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
    table = tape.gradients(model_fn(tape))

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
        p.value.data.flat[j] = orig + FD_STEP
        loss_plus = model_fn(None).item()
        p.value.data.flat[j] = orig - FD_STEP
        loss_minus = model_fn(None).item()
        p.value.data.flat[j] = orig
        gn = (loss_plus - loss_minus) / (2.0 * FD_STEP)
        ga = float(table[id(p.value)].flat[j]) if id(p.value) in table else 0.0
        roundoff = _EPS64 * max(abs(loss_plus), abs(loss_minus)) / FD_STEP
        rel = max(0.0, abs(ga - gn) - roundoff) / max(1e-8, abs(ga) + abs(gn))
        probes.append(Probe(p.name, j, ga, gn, rel))
    return GradientCheckReport(max(p.rel_error for p in probes), probes)
