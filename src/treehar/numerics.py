"""Dense-tensor numerics with hand-written reverse-mode gradients.

Forward operations record themselves on an explicit Tape; the tape is a
linear record of the forward pass, so walking it backwards visits every
node after all of its consumers. gradient() copies each parameter's
gradient into one array laid out like the model's params.flat, and
backward() makes that the model's params.grad. Every operation
takes a leading batch axis. No general graph engine, no broadcasting
beyond what the fixed architecture needs.

Activations are held channel-major. A rank-3 tensor that conv1d or add
produces is a (batch, C, L) view into a buffer (C, batch * (L + 2)) that
puts the samples side by side in one row per channel, each between one
zero column a side: the padding of conv1d's one width, KERNEL_SIZE = 3.
The buffer travels with the tensor as Tensor.buf. Every kernel shift of
the whole batch is then one contiguous column range, so conv1d reads
such a buffer as its padded input, runs one GEMM over the 3 stacked
shifts and writes it straight into its own output buffer. Its backward
stacks the output gradient at the 3 shifts once, and that one stack
feeds both its GEMMs: the weights' and the input's. conv1d also
takes plain (batch, C, L) data, such as an event slice, which it copies
into a buffer once and hands no gradient. add and flatten take
activations only, and refuse plain tensors. Everything else is plain:
dense's input (flatten's rows), joint_loss's logits and weights, and
every parameter.

There is no standalone ReLU: with relu=True, conv1d and add clamp their
own output in place and their backward masks the incoming gradient by
out > 0 (equal to pre > 0), so a rectified activation keeps no second buffer.

Every tensor's gradient has one layout, the tensor's own: an array shaped
like its buffer, with zero borders, for an activation, and the tensor's
shape for a plain tensor. Every operation hands each input but a conv's
data its gradient in that layout, so the tape only sums.

A training step's tape may draw the arrays it keeps from a Workspace, so
that the next step gets the same memory back instead of allocating anew.
Its walk hands back each node's output buffer once the node's backward
has run, for the backward's later requests; it never hands back a
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_SIZE = 3   # the width of every conv


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
    data is a view of (see the module docstring) as buf, which is None
    otherwise.
    """

    __slots__ = ("data", "buf")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"tensor rank {arr.ndim} exceeds 3 (shape {arr.shape})")
        self.data = arr
        self.buf = None

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
    first chunk when the next tape opens. The backward hands back each
    node's output buffer once it is done with it (see Tape.gradients),
    and a request takes the array of its shape and dtype handed back
    last, if any, before the offset moves on. Each half of a k=8 training
    step at batch 128 has a workspace of its own, and each peaks within
    one chunk: half 0, which holds the L2 term, at about 59 MiB at float64
    and 30 MiB at float32, half 1 at 57 and 28 MiB. A step that makes the
    same requests as the one before gets the same memory back.

    So an activation that a tape's operations drew from a workspace is
    invalid once the walk has passed the node that made it, and what the
    walk returns is invalid once the next Tape opens on the workspace: a
    workspace is for callers that read nothing of a step's activations
    after its backward, and nothing of the step after starting the next.
    """

    # Above the 32 MiB up to which glibc's malloc may serve a request from
    # its heap, so that each chunk is a mapping of its own and goes back
    # to the system when the workspace is dropped.
    CHUNK_BYTES = 64 << 20
    ALIGN = 64
    __slots__ = ("_chunks", "_chunk", "_offset", "_free")

    def __init__(self):
        self._chunks = []
        self._chunk = 0
        self._offset = 0
        self._free = {}     # (shape, dtype) -> arrays handed back

    def reset(self):
        """Start handing out memory from the first chunk again."""
        self._chunk = 0
        self._offset = 0
        self._free.clear()

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array: one handed back with this shape and
        dtype, else the next free range of the current chunk, or of the
        next one if it does not fit."""
        dtype = np.dtype(dtype)
        free = self._free.get((shape, dtype))
        if free:
            return free.pop()
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > self.CHUNK_BYTES:
            return np.empty(shape, dtype=dtype)
        size = -(-nbytes // self.ALIGN) * self.ALIGN
        if self._offset + size > self.CHUNK_BYTES:
            self._chunk += 1
            self._offset = 0
        if self._chunk == len(self._chunks):
            self._chunks.append(np.empty(self.CHUNK_BYTES, dtype=np.uint8))
        start = self._offset
        self._offset += size
        raw = self._chunks[self._chunk][start:start + nbytes]
        return raw.view(dtype).reshape(shape)

    def release(self, array: np.ndarray):
        """File array for the next request of its shape and dtype."""
        self._free.setdefault((array.shape, array.dtype), []).append(array)


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
        on the tape produced: the parameters, and dense's and joint_loss's
        inputs. A conv's plain input is data and gets none. A buffer-backed
        tensor's gradient is shaped like its buffer, with one zero border
        column on each side of a sample.

        A node's output is read only by its consumers' backwards, which the
        walk has run before, and by its own. So once a node's backward has
        run, the walk drops the node's entry and hands its output buffer
        back to the workspace, if any. Gradients are never handed back:
        they stay valid until the next Tape opens. A tape is walked once; a
        second walk is a TapeError."""
        if not self._nodes:
            raise TapeError("backward requested but no forward pass was recorded")
        if self._walked:
            raise TapeError("this tape was walked already; record a new forward")
        if loss.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        self._walked = True
        ws = self.workspace
        table = {id(loss): np.ones((), dtype=loss.dtype)}

        def accumulate(t: Tensor, g: np.ndarray):
            cur = table.get(id(t))
            if cur is not None:
                # a new array: add hands one g to both of its operands
                g = np.add(cur, g, out=_empty(ws, cur.shape, cur.dtype))
            table[id(t)] = g

        for out, bwd in reversed(self._nodes):
            g = table.pop(id(out), None)
            if g is not None:
                bwd(g, accumulate)
            if ws is not None and out.buf is not None:
                ws.release(out.buf)
        return table


def gradient(loss: Tensor, tape: Tape, params) -> np.ndarray:
    """d(loss)/d(params.flat), for a model.ModelParams: a new array like
    flat holding, at each tensor's view, a copy of the tape's gradient for
    it, or zeros where the loss does not reach it. So it outlives the tape
    and any workspace the tape draws from."""
    table = tape.gradients(loss)
    grad = np.empty_like(params.flat)
    for p, g in zip(params, params.views(grad)):
        g[...] = table.get(id(p.value), 0)
    return grad


def backward(loss: Tensor, tape: Tape, params):
    """Set params.grad to gradient(loss, tape, params)."""
    params.grad = gradient(loss, tape, params)


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


def _zero_borders(buf: np.ndarray, length: int):
    cube = buf.reshape(buf.shape[0], -1, length + 2)
    cube[:, :, 0] = 0
    cube[:, :, -1] = 0


def _interior(buf: np.ndarray, length: int) -> np.ndarray:
    """The (batch, C, L) view of a (C, batch * (L + 2)) buffer."""
    cube = buf.reshape(buf.shape[0], -1, length + 2)
    return cube[:, :, 1:-1].transpose(1, 0, 2)


def _bordered(workspace, data: np.ndarray) -> np.ndarray:
    """A copy of (batch, C, L) data in a zero-bordered buffer."""
    n_batch, channels, length = data.shape
    buf = _empty(workspace, (channels, n_batch * (length + 2)), data.dtype)
    _zero_borders(buf, length)
    _interior(buf, length)[...] = data
    return buf


def _on_buffer(buf: np.ndarray, length: int) -> Tensor:
    out = Tensor(_interior(buf, length))
    out.buf = buf
    return out


def _require_activation(x, op, arg):
    _require_tensor(x, op, arg)
    if x.buf is None:
        raise ShapeError(f"{op}: {arg} must be an activation on a zero-bordered "
                         f"buffer, got a plain tensor of shape {x.shape}")


def conv1d(x: Tensor, w: Tensor, b: Tensor, tape: Tape = None,
           relu: bool = False) -> Tensor:
    """1D cross-correlation of width 3, stride 1, one zero column of
    padding a side; ReLU'd if relu.

    x is (batch, c_in, L); w is (c_out, c_in, 3), and any other width is a
    ShapeError; b is (c_out,). The output is (batch, c_out, L).

    The input is read as flat (c_in, batch * (L + 2)): x's own buffer if
    it has one, else a copy of x in that layout. An input of another dtype
    than the weights is a ShapeError, never copied or cast. Shift j of
    every sample is then the column range [j, j + n), n = batch * (L + 2) - 2.
    The forward stacks the 3 shifts into one temporary (3 c_in, n),
    multiplies it by w as (c_out, 3 c_in) into columns [1, 1 + n) of the
    output buffer, adds the bias there, clamps it at 0 for relu and zeroes
    the borders, which the 2 columns between two samples overwrote. The
    temporary is freed before returning; the tape keeps flat only, which
    for a buffer-backed input is memory the tape keeps anyway.

    The backward takes the output's gradient as a zero-bordered buffer and
    builds one temporary (3 c_out, n) stack of it. The middle block is its
    columns [1, 1 + n), multiplied by out > 0 for relu, so the tape keeps
    no masked gradient; blocks 0 and 2 are that block shifted one column
    left and one right, a zero column shifted in. Block j then lines up
    with shift j of flat at columns [1, 1 + n). The bias gradient is the
    middle block's row sum, and the weight gradient one GEMM of the stack
    against those columns. A plain input is data and gets no gradient. A
    buffer-backed input gets one GEMM of w, as (c_in, 3 c_out), and the
    stack, written into columns [1, 1 + n) of a buffer whose borders are
    then zeroed.
    """
    _require_tensor(x, "conv1d", "input")
    _require_tensor(w, "conv1d", "weights")
    _require_tensor(b, "conv1d", "bias")
    if w.data.ndim != 3:
        raise ShapeError(f"conv1d: weights must be rank 3, got shape {w.shape}")
    c_out, c_in, m = w.shape
    if m != KERNEL_SIZE:
        raise ShapeError(f"conv1d: kernel width must be {KERNEL_SIZE}, got {m}")
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
    dtype = w.dtype
    if x.dtype != dtype:
        raise ShapeError(
            f"conv1d: input has dtype {x.dtype}, the weights have dtype {dtype}")

    n = n_batch * (length + 2) - 2
    ws = _workspace(tape)
    flat = x.buf if x.buf is not None else _bordered(ws, x.data)
    w2 = w.data.transpose(0, 2, 1).reshape(c_out, m * c_in)   # column j*c_in + c

    stack = np.empty((m * c_in, n), dtype=dtype)
    for j in range(m):
        stack[j * c_in:(j + 1) * c_in] = flat[:, j:j + n]
    out_buf = _empty(ws, (c_out, flat.shape[1]), dtype)
    y = out_buf[:, 1:1 + n]
    np.matmul(w2, stack, out=y)
    del stack
    np.add(y, b.data[:, None], out=y)
    if relu:
        np.maximum(y, 0.0, out=y)
    _zero_borders(out_buf, length)
    out = _on_buffer(out_buf, length)

    if tape is not None:
        def bwd(g, acc):
            if g.ndim == 3:
                # only bench_layers.conv_sheet hands a plain gradient;
                # ROADMAP item 1 deletes this branch
                g = _bordered(None, g)
            # block j, row o, column u holds the gradient at output column
            # u + 1 - j, the one that tap j read flat[:, 1 + u] for
            gstack = np.empty((m * c_out, n), dtype=dtype)
            mid = gstack[c_out:2 * c_out]
            if relu:
                np.multiply(g[:, 1:1 + n], y > 0, out=mid)
            else:
                mid[...] = g[:, 1:1 + n]
            gstack[:c_out, :-1] = mid[:, 1:]
            gstack[:c_out, -1] = 0
            gstack[2 * c_out:, 1:] = mid[:, :-1]
            gstack[2 * c_out:, 0] = 0
            acc(b, mid.sum(axis=1))
            gw = gstack @ flat[:, 1:1 + n].T               # (3 c_out, c_in)
            acc(w, gw.reshape(m, c_out, c_in).transpose(1, 2, 0))
            if x.buf is None:
                return
            gx = _empty(ws, flat.shape, dtype)
            w3 = w.data.transpose(1, 2, 0).reshape(c_in, m * c_out)
            np.matmul(w3, gstack, out=gx[:, 1:1 + n])
            _zero_borders(gx, length)
            acc(x, gx)
        tape.record(out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape = None, relu: bool = False) -> Tensor:
    """Element-wise sum of two activations, clamped at 0 for relu; a plain
    operand is a ShapeError. It adds the whole
    buffers, whose zero borders sum to zero borders. The backward hands
    both operands one gradient, masked by out > 0 for relu into an array
    the tape keeps."""
    _require_activation(a, "add", "a")
    _require_activation(b, "add", "b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape {a.shape} != shape {b.shape}")
    ws = _workspace(tape)
    total = np.add(a.buf, b.buf,
                   out=_empty(ws, a.buf.shape, np.result_type(a.buf, b.buf)))
    if relu:
        np.maximum(total, 0.0, out=total)
    out = _on_buffer(total, a.shape[2])
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


def joint_loss(heads, weights=(), c: float = 0.0, tape: Tape = None,
               divisor: int = None) -> Tensor:
    """One scalar node: the sum over (logits, targets) heads, in order, of
    the batch sum of -log softmax(logits)[row, target[row]] for (batch, K)
    logits divided by divisor, the batch size unless given (so by default
    the batch mean), plus c times the sum of squares of the plain weights,
    if any. A max-subtracted log-sum-exp forms no probability, so none is
    clipped. The backward hands each head's logits
    (softmax - onehot) * g / divisor, the softmax being the forward's
    exp(z) over its row sums, and each weight 2 c g w."""
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
        scale = n if divisor is None else divisor
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        # a sum over n then / n has the bits of .mean()
        total = total + (np.log(e.sum(axis=1)) - z[rows, targets]).sum() / scale
        kept.append((logits, rows, targets, e, scale))
    if weights:
        total = total + sum((w.data * w.data).sum() for w in weights) * c
    out = Tensor(np.asarray(total))
    if tape is not None:
        def bwd(g, acc):
            gc = g * c
            for w in weights:
                acc(w, 2.0 * gc * w.data)
            for logits, rows, targets, e, scale in kept:
                grad = e / e.sum(axis=1, keepdims=True)
                grad[rows, targets] -= 1.0
                acc(logits, grad * (g / scale))
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
            acc(x, _bordered(ws, g.reshape(x.shape)))
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
