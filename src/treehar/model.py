"""Tree-structure CNN over event windows.

A window of k one-hot events is folded left-deep by k-1 basic modules.
Each basic module convolves the incoming (older) event and the running
feature, merges them by element-wise addition, and refines the merge
with a three-convolution residual block. Two dense heads read the
flattened top feature and give logits: one over residents, one over
activities. Training's loss takes the logits; prediction takes their
argmax, or their softmax where probabilities are reported.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .casas import DEFAULT_VOCAB, NUM_ACTIVITIES, NUM_RESIDENTS, LabelPair
from .numerics import (
    NumericError,
    ParamTensor,
    ShapeError,
    Tape,
    Tensor,
    add,
    conv1d,
    dense,
    flatten,
    softmax,
)
from .windowing import stack_windows

KERNEL_SIZE = 3

CHECKPOINT_FORMAT = "treehar-checkpoint"
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """Unreadable, mismatched or incomplete checkpoint file."""


def channel_plan(k: int):
    """Output channels of layers 1..k-1: 16, then 32, then 64 onwards."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return [16 if i == 1 else 32 if i == 2 else 64 for i in range(1, k)]


def expected_shapes(k: int, vocab_size: int):
    """Ordered name -> shape map for every parameter of a k-window model."""
    plan = channel_plan(k)
    shapes = {}
    for i, c_out in enumerate(plan, start=1):
        feat_in = 1 if i == 1 else plan[i - 2]
        shapes[f"layer{i}.feature.weight"] = (c_out, feat_in, KERNEL_SIZE)
        shapes[f"layer{i}.feature.bias"] = (c_out,)
        shapes[f"layer{i}.event.weight"] = (c_out, 1, KERNEL_SIZE)
        shapes[f"layer{i}.event.bias"] = (c_out,)
        for r in (1, 2, 3):
            shapes[f"layer{i}.res{r}.weight"] = (c_out, c_out, KERNEL_SIZE)
            shapes[f"layer{i}.res{r}.bias"] = (c_out,)
    head_in = plan[-1] * vocab_size
    shapes["head_resident.weight"] = (NUM_RESIDENTS, head_in)
    shapes["head_resident.bias"] = (NUM_RESIDENTS,)
    shapes["head_activity.weight"] = (NUM_ACTIVITIES, head_in)
    shapes["head_activity.bias"] = (NUM_ACTIVITIES,)
    return shapes


@dataclass
class LayerView:
    """The parameters of one basic module."""

    feature_w: ParamTensor
    feature_b: ParamTensor
    event_w: ParamTensor
    event_b: ParamTensor
    res: list  # three (weight, bias) pairs


class ModelParams:
    """All named parameters of the network: views, in expected_shapes
    order, of one 1-D C-contiguous float32 or float64 array, flat, so a
    write to a tensor is a write to flat. A checkpoint is
    _header(k, 37, dtype) followed by flat in little-endian order.

    grad is None, or d(loss)/d(flat) in flat's shape, dtype and layout:
    numerics.backward sets it and training.adam_step consumes it, so a
    model that only runs forward never allocates one."""

    def __init__(self, k: int, vocab_size: int, flat: np.ndarray):
        shapes = expected_shapes(k, vocab_size)
        ends = list(accumulate(map(math.prod, shapes.values())))
        if not (isinstance(flat, np.ndarray) and flat.shape == (ends[-1],)
                and flat.dtype in (np.float32, np.float64)
                and flat.flags.c_contiguous):
            raise ShapeError(f"a k={k} model is one C-contiguous float32 or "
                             f"float64 array of {ends[-1]} values")
        self.k, self.vocab_size, self.flat, self.grad = k, vocab_size, flat, None
        self._layout = list(zip([0] + ends, ends, shapes.values()))
        self._tensors = {name: ParamTensor(name, Tensor(view))
                         for name, view in zip(shapes, self.views(flat))}

    def views(self, array: np.ndarray) -> list:
        """array, shaped like flat, as one view per tensor in
        expected_shapes order: the one layout of flat and grad."""
        return [array[a:b].reshape(shape) for a, b, shape in self._layout]

    def __getitem__(self, name: str) -> ParamTensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors.values())

    def weight_tensors(self):
        """Weights only, biases excluded (the L2 penalty set)."""
        return [p for n, p in self._tensors.items() if n.endswith(".weight")]

    @property
    def dtype(self):
        return self.flat.dtype

    def parameter_count(self) -> int:
        return self.flat.size

    def non_finite(self):
        """Name of the first tensor holding NaN or Inf, or None if flat is finite."""
        if np.isfinite(self.flat).all():
            return None
        return next(p.name for p in self if not np.isfinite(p.value.data).all())

    def layer(self, i: int) -> LayerView:
        if not 1 <= i <= self.k - 1:
            raise IndexError(f"layer {i} out of range 1..{self.k - 1}")
        return LayerView(
            feature_w=self[f"layer{i}.feature.weight"],
            feature_b=self[f"layer{i}.feature.bias"],
            event_w=self[f"layer{i}.event.weight"],
            event_b=self[f"layer{i}.event.bias"],
            res=[
                (self[f"layer{i}.res{r}.weight"], self[f"layer{i}.res{r}.bias"])
                for r in (1, 2, 3)
            ],
        )


def init_params(k: int, vocab_size: int, seed: int = 0,
                dtype=np.float64) -> ModelParams:
    """Weights uniform in +-sqrt(6 / fan_in), biases zero, all driven by
    one numpy generator in fixed name order (same seed, same bits)."""
    size = sum(map(math.prod, expected_shapes(k, vocab_size).values()))
    params = ModelParams(k, vocab_size, np.zeros(size, dtype=dtype))
    rng = np.random.default_rng(seed)
    for p in params.weight_tensors():
        limit = np.sqrt(6.0 / math.prod(p.value.shape[1:]))
        p.value.data[...] = rng.uniform(-limit, limit, size=p.value.shape)
    return params


def basic_module(feature: Tensor, event: Tensor, layer: LayerView,
                 tape: Tape = None) -> Tensor:
    """Merge one event into the running feature.

    h = relu(conv(event)) + relu(conv(feature)), then a residual
    refinement r = conv(relu(conv(relu(conv(h))))) and relu(h + r). Each
    relu runs in the epilogue of the conv or add before it, so a module
    records 7 tape nodes: 5 convs and 2 adds.
    """
    h = add(
        conv1d(event, layer.event_w.value, layer.event_b.value, tape, relu=True),
        conv1d(feature, layer.feature_w.value, layer.feature_b.value, tape, relu=True),
        tape,
    )
    r = h
    for step, (w, b) in enumerate(layer.res):
        r = conv1d(r, w.value, b.value, tape, relu=step < 2)
    return add(h, r, tape, relu=True)


def forward_batch(events: np.ndarray, params: ModelParams, tape: Tape = None):
    """Batched forward over stacked windows.

    events is (batch, k, vocab) as produced by windowing.stack_windows.
    Slice j holds event t-j; the fold merges the target and its
    predecessor first, then one older event per basic module. Returns
    (features, resident_logits, activity_logits) with logits shaped
    (batch, 2) and (batch, 15).
    """
    n, k, vocab = events.shape
    if k != params.k:
        raise ShapeError(f"events have k={k}, model expects k={params.k}")
    if vocab != params.vocab_size:
        raise ShapeError(
            f"events have vocab {vocab}, model expects {params.vocab_size}"
        )
    slices = [Tensor(events[:, k - 1 - j, :][:, None, :]) for j in range(k)]
    features = basic_module(slices[1], slices[0], params.layer(1), tape)
    for i in range(2, k):
        features = basic_module(features, slices[i], params.layer(i), tape)
    resident_logits, activity_logits = head_probs(features, params, tape)
    return features, resident_logits, activity_logits


def head_probs(features: Tensor, params: ModelParams, tape: Tape = None):
    """The two dense heads over the flattened features. Returns (resident,
    activity) logits, not probabilities, despite the older name; softmax
    gives the probabilities."""
    flat = flatten(features, tape)
    resident = dense(flat, params["head_resident.weight"].value,
                     params["head_resident.bias"].value, tape)
    activity = dense(flat, params["head_activity.weight"].value,
                     params["head_activity.bias"].value, tape)
    return resident, activity


@dataclass
class Prediction:
    resident_probs: Tensor  # (2,)
    activity_probs: Tensor  # (15,)

    def label(self) -> LabelPair:
        return LabelPair(
            int(np.argmax(self.resident_probs.data)),
            int(np.argmax(self.activity_probs.data)),
        )


def _class_logits(events: np.ndarray, params: ModelParams):
    """Tape-less forward; (resident, activity) logits, all finite.

    A finite checkpoint can still overflow in the forward, and argmax over
    NaN would return class 0 as if it were a prediction. Finite logits
    give a finite softmax."""
    _, resident, activity = forward_batch(events, params)
    if not (np.isfinite(resident.data).all() and np.isfinite(activity.data).all()):
        raise NumericError(
            "class logits are not finite: the model's weights overflow "
            f"the {np.dtype(params.dtype).name} forward")
    return resident, activity


def predict(window, params: ModelParams) -> Prediction:
    """Class probabilities for one window, as a batch of one."""
    events, _, _ = stack_windows([window], dtype=params.dtype)
    resident, activity = _class_logits(events, params)
    return Prediction(Tensor(softmax(resident).data[0]),
                      Tensor(softmax(activity).data[0]))


def predict_batch(events: np.ndarray, params: ModelParams):
    """Argmax labels for stacked windows: (residents, activities) int arrays."""
    resident, activity = _class_logits(events, params)
    return np.argmax(resident.data, axis=1), np.argmax(activity.data, axis=1)


# ---------------------------------------------------------------------------
# checkpoints

def _header(k: int, vocab_size: int, dtype) -> bytes:
    """The first line of a checkpoint, newline included: ASCII JSON naming
    the format, version, k, vocabulary size and dtype, and listing every
    tensor as a [name, shape] pair in expected_shapes order."""
    return json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "k": k,
        "vocab_size": vocab_size,
        "dtype": np.dtype(dtype).name,
        "tensors": [[name, list(shape)]
                    for name, shape in expected_shapes(k, vocab_size).items()],
    }).encode("ascii") + b"\n"


def save_params(params: ModelParams, path):
    """Write a checkpoint: _header(k, vocab_size, dtype), then params.flat
    as little-endian bytes at its dtype, so a load gives back the same bits
    at either dtype (load_params takes vocab_size 37 only). The file is
    written beside the target, fsynced and renamed over it, so a crash
    mid-write leaves the previous checkpoint intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_header(params.k, params.vocab_size, params.dtype))
            fh.write(np.ascontiguousarray(
                params.flat, dtype=params.dtype.newbyteorder("<")))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_params(path, expect_k: int = None) -> ModelParams:
    """Load a checkpoint written by save_params: _header(k, 37, dtype),
    then params.flat in little-endian order, and nothing else.

    The file is fully validated before anything is returned: the header's
    format, version, k and dtype, then the whole header line byte for byte
    against _header, the data's exact byte length, and finiteness. So a
    bad file never yields a partial model, and every model returned is
    finite and holds writable, native-endian, C-contiguous arrays (views
    of params.flat). Other checkpoint versions raise CheckpointError."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("ascii"))
        except (ValueError, RecursionError) as exc:   # bad text, JSON or nesting
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None

        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION}); retrain to write a new one"
            )
        k, dtype, table = (header.get(f) for f in ("k", "dtype", "tensors"))
        if not isinstance(table, list):
            raise CheckpointError(f"checkpoint {path}: tensors must be a list")
        # a k-window model has 10 tensors per basic module, so k is bounded by
        # the file's own tensor count before any shape table is built
        if type(k) is not int or not 2 <= k <= len(table):
            raise CheckpointError(
                f"checkpoint {path}: k={k!r} is not an integer in 2..{len(table)}")
        if dtype not in ("float32", "float64"):
            raise CheckpointError(
                f"checkpoint {path}: dtype {dtype!r} is not float32 or float64")
        if expect_k is not None and k != expect_k:
            raise CheckpointError(f"checkpoint has k={k} but k={expect_k} was requested")
        if line != _header(k, len(DEFAULT_VOCAB), dtype):
            raise CheckpointError(
                f"checkpoint {path}: header is not the one save_params writes "
                f"for a k={k} {dtype} model over {len(DEFAULT_VOCAB)} sensors")

        # the header matched, so its table is expected_shapes' own
        count = sum(math.prod(shape) for _, shape in table)
        wire = np.dtype(dtype).newbyteorder("<")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * wire.itemsize:
            raise CheckpointError(
                f"checkpoint {path}: {size} bytes of tensor data, expected "
                f"{count} {dtype} values ({count * wire.itemsize} bytes)")
        flat = np.fromfile(fh, dtype=wire, count=count).astype(dtype, copy=False)

    params = ModelParams(k, len(DEFAULT_VOCAB), flat)
    if (bad := params.non_finite()) is not None:
        raise CheckpointError(f"tensor {bad} holds NaN or Inf")
    return params
