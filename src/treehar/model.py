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

import base64
import json
import math
import os
from dataclasses import dataclass
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
CHECKPOINT_VERSION = 2


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
    """All named parameters of the network, in a stable order."""

    def __init__(self, k: int, vocab_size: int, tensors: dict):
        self.k = k
        self.vocab_size = vocab_size
        expected = expected_shapes(k, vocab_size)
        if list(tensors) != list(expected):
            missing = [n for n in expected if n not in tensors]
            extra = [n for n in tensors if n not in expected]
            raise ShapeError(
                f"parameter set mismatch for k={k}: "
                f"missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for name, shape in expected.items():
            if tensors[name].value.shape != shape:
                raise ShapeError(
                    f"tensor {name}: shape {tensors[name].value.shape}, "
                    f"expected {shape}"
                )
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> ParamTensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors.values())

    def tensors(self):
        return list(self._tensors.values())

    def weight_tensors(self):
        """Weights only, biases excluded (the L2 penalty set)."""
        return [p for n, p in self._tensors.items() if n.endswith(".weight")]

    @property
    def plan(self):
        return channel_plan(self.k)

    @property
    def dtype(self):
        return self["head_resident.weight"].value.dtype

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self._tensors.values())

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
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in expected_shapes(k, vocab_size).items():
        if name.endswith(".bias"):
            value = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:]))
            limit = np.sqrt(6.0 / fan_in)
            value = rng.uniform(-limit, limit, size=shape).astype(dtype)
        tensors[name] = ParamTensor(name, Tensor(value))
    return ModelParams(k, vocab_size, tensors)


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

def _wire_dtype(dtype) -> np.dtype:
    """The byte layout of tensor data in a checkpoint: little-endian."""
    return np.dtype(dtype).newbyteorder("<")


def save_params(params: ModelParams, path):
    """Self-describing JSON checkpoint.

    The header names the format, version, k, vocabulary size, channel plan
    and dtype. Each tensor entry holds its name, its shape and, as "data",
    the padded base64 of its C-order little-endian bytes at the header's
    dtype, so a load gives back the same bits at either dtype. The file is
    written beside the target, fsynced and renamed over it, so a crash
    mid-write leaves the previous checkpoint intact."""
    wire = _wire_dtype(params.dtype)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "k": params.k,
        "vocab_size": params.vocab_size,
        "channel_plan": params.plan,
        "dtype": np.dtype(params.dtype).name,
        "tensors": [
            {
                "name": p.name,
                "shape": list(p.value.shape),
                "data": base64.b64encode(
                    p.value.data.astype(wire, copy=False).tobytes()).decode("ascii"),
            }
            for p in params
        ],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_params(path, expect_k: int = None) -> ModelParams:
    """Load a checkpoint written by save_params.

    The file is fully validated before anything is returned: header fields,
    tensor names (none missing, repeated or unknown), shapes, the base64
    payload's exact byte length, and finiteness. So a bad file never yields
    a partial model, and every model returned is finite and holds writable,
    native-endian, C-contiguous arrays. Other checkpoint versions raise
    CheckpointError."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None

    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION}); retrain to write a new one"
        )
    k, vocab_size, dtype, entries = (
        doc.get(f) for f in ("k", "vocab_size", "dtype", "tensors"))
    if not isinstance(entries, list):
        raise CheckpointError(f"checkpoint {path}: tensors must be a list")
    # a k-window model has 8 tensors per basic module, so k is bounded by
    # the file's own tensor count before any shape table is built
    if type(k) is not int or not 2 <= k <= len(entries):
        raise CheckpointError(
            f"checkpoint {path}: k={k!r} is not an integer in 2..{len(entries)}")
    if type(vocab_size) is not int or vocab_size != len(DEFAULT_VOCAB):
        raise CheckpointError(
            f"checkpoint {path}: vocab_size {vocab_size!r}, "
            f"expected {len(DEFAULT_VOCAB)}")
    if dtype not in ("float32", "float64"):
        raise CheckpointError(
            f"checkpoint {path}: dtype {dtype!r} is not float32 or float64")

    if expect_k is not None and k != expect_k:
        raise CheckpointError(f"checkpoint has k={k} but k={expect_k} was requested")
    expected = expected_shapes(k, vocab_size)

    by_name = {}
    for entry in entries:
        try:
            name = entry["name"]
            repeated = name in by_name
        except (TypeError, KeyError):
            raise CheckpointError(f"malformed tensor entry in {path}") from None
        if repeated:
            raise CheckpointError(f"checkpoint {path} lists tensor {name!r} twice")
        by_name[name] = entry
    wire = _wire_dtype(dtype)
    tensors = {}
    for name, shape in expected.items():
        entry = by_name.get(name)
        if entry is None:
            raise CheckpointError(f"checkpoint {path} is missing tensor {name}")
        got_shape, data = entry.get("shape"), entry.get("data")
        if not isinstance(got_shape, list) or tuple(got_shape) != shape:
            raise CheckpointError(
                f"tensor {name}: shape {got_shape!r} in file, expected {shape}"
            )
        if not isinstance(data, str):
            raise CheckpointError(f"tensor {name}: data is not a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:   # binascii.Error, or text that is not ASCII
            raise CheckpointError(f"tensor {name}: data is not valid base64") from None
        if len(raw) != math.prod(shape) * wire.itemsize:
            raise CheckpointError(
                f"tensor {name}: {len(raw)} bytes of data, expected "
                f"{math.prod(shape)} {dtype} values for {shape}")
        # frombuffer over bytes is read-only; astype copies into a
        # writable native-endian array
        values = np.frombuffer(raw, dtype=wire).astype(dtype)
        if not np.isfinite(values).all():
            raise CheckpointError(f"tensor {name} holds NaN or Inf")
        tensors[name] = ParamTensor(name, Tensor(values.reshape(shape)))
    unknown = set(by_name) - set(expected)
    if unknown:
        raise CheckpointError(
            f"checkpoint {path} contains unknown tensors: {sorted(unknown)[:3]}"
        )
    return ModelParams(k, vocab_size, tensors)
