import base64
import datetime as dt
import hashlib
import json
import math
import os

import numpy as np
import pytest

from treehar.casas import Events, LabelPair
from treehar.model import (
    CheckpointError,
    _header,
    LayerView,
    ModelParams,
    basic_module,
    channel_plan,
    expected_shapes,
    forward_batch,
    init_params,
    load_params,
    predict,
    predict_batch,
    save_params,
)
from treehar.numerics import NumericError, ParamTensor, ShapeError, Tensor
from treehar.training import batch_loss
from treehar.windowing import PAD, make_windows, stack_windows

from oracles import naive_basic_module, naive_model_loss


def _events(n):
    i = np.arange(n)
    return Events(day=np.full(n, dt.date(2009, 2, 2).toordinal()),
                  time=(8 * 3600 + i) * 1_000_000,
                  sensor=(3 * i) % 37, value=["ON"] * n,
                  resident=i % 2, activity=(2 * i) % 15)


def _windows(n, k=8):
    return make_windows(_events(n), k=k, source="t")


# ---------------------------------------------------------------------------
# structure


def test_channel_plan_k8():
    assert channel_plan(8) == [16, 32, 64, 64, 64, 64, 64]


@pytest.mark.parametrize("k,plan", [
    (2, [16]), (3, [16, 32]), (4, [16, 32, 64]), (6, [16, 32, 64, 64, 64]),
])
def test_channel_plan_small_k(k, plan):
    assert channel_plan(k) == plan


def test_structure_k8():
    params = init_params(8, 37, seed=0)
    # seven basic modules, each ending in a res3 conv of the plan's width
    assert [p.name for p in params if p.name.endswith(".event.weight")] \
        == [f"layer{i}.event.weight" for i in range(1, 8)]
    assert [params[f"layer{i}.res3.weight"].value.shape[0] for i in range(1, 8)] \
        == [16, 32, 64, 64, 64, 64, 64]
    assert params["head_activity.weight"].value.shape == (15, 2368)
    assert params["head_resident.weight"].value.shape == (2, 2368)
    # layer 1 convolves two raw events
    assert params["layer1.feature.weight"].value.shape == (16, 1, 3)
    assert params["layer1.event.weight"].value.shape == (16, 1, 3)
    assert params["layer2.feature.weight"].value.shape == (32, 16, 3)
    assert params["layer3.res2.weight"].value.shape == (64, 64, 3)


def test_init_deterministic_and_biases_zero():
    a = init_params(8, 37, seed=42)
    b = init_params(8, 37, seed=42)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.value.data, pb.value.data)
    c = init_params(8, 37, seed=43)
    assert any(
        not np.array_equal(pa.value.data, pc.value.data)
        for pa, pc in zip(a, c)
    )
    for p in a:
        if p.name.endswith(".bias"):
            assert np.all(p.value.data == 0)
        else:
            fan_in = int(np.prod(p.value.shape[1:]))
            limit = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(p.value.data) <= limit)


def test_model_params_validates_shapes():
    """A model is views of one array: the views take expected_shapes, and
    an array that cannot be viewed so is refused."""
    shapes = expected_shapes(3, 37)
    n = sum(math.prod(s) for s in shapes.values())
    params = ModelParams(3, 37, np.zeros(n))
    assert {p.name: p.value.shape for p in params} == shapes
    for flat in [np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)),
                 np.zeros(n, dtype=np.int64), np.zeros(n, dtype=">f8"),
                 np.zeros(2 * n)[::2], list(np.zeros(n))]:
        with pytest.raises(ShapeError, match=f"array of {n} values"):
            ModelParams(3, 37, flat)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_every_tensor_is_a_view_of_flat(tmp_path, dtype):
    params = init_params(4, 37, seed=2, dtype=dtype)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    for model in (params, load_params(path)):
        assert model.flat.dtype == dtype and model.flat.ndim == 1
        assert model.parameter_count() == model.flat.size
        assert all(np.shares_memory(p.value.data, model.flat) for p in model)


# ---------------------------------------------------------------------------
# basic module


def _random_layer(rng, c_in, c_out, scale=0.5):
    def conv(name, ci):
        return (ParamTensor(name + ".w", Tensor(rng.normal(size=(c_out, ci, 3)) * scale)),
                ParamTensor(name + ".b", Tensor(rng.normal(size=c_out) * scale)))
    fw, fb = conv("feature", c_in)
    ew, eb = conv("event", 1)
    res = [conv(f"res{i}", c_out) for i in (1, 2, 3)]
    return LayerView(feature_w=fw, feature_b=fb, event_w=ew, event_b=eb, res=res)


def test_basic_module_zero_params_zero_output():
    layer = _random_layer(np.random.default_rng(0), 4, 6)
    for p in [layer.feature_w, layer.feature_b, layer.event_w, layer.event_b]:
        p.value.data[...] = 0
    for w, b in layer.res:
        w.value.data[...] = 0
        b.value.data[...] = 0
    feature = Tensor(np.random.default_rng(1).normal(size=(2, 4, 37)))
    event = Tensor(np.abs(np.random.default_rng(2).normal(size=(2, 1, 37))))
    out = basic_module(feature, event, layer)
    assert out.shape == (2, 6, 37)
    assert np.all(out.data == 0)


def test_basic_module_zero_residual_is_identity_on_merge():
    rng = np.random.default_rng(3)
    layer = _random_layer(rng, 4, 6)
    for w, b in layer.res:
        w.value.data[...] = 0
        b.value.data[...] = 0
    feature = Tensor(rng.normal(size=(2, 4, 37)))
    event = Tensor(rng.normal(size=(2, 1, 37)))
    out = basic_module(feature, event, layer)
    # h is a sum of rectified convs, already nonnegative: relu(h + 0) == h
    from treehar.numerics import add, conv1d
    h = add(
        conv1d(event, layer.event_w.value, layer.event_b.value, relu=True),
        conv1d(feature, layer.feature_w.value, layer.feature_b.value, relu=True),
    )
    np.testing.assert_array_equal(out.data, h.data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basic_module_matches_straight_line_oracle(seed):
    rng = np.random.default_rng(seed)
    layer = _random_layer(rng, 5, 7)
    feature = rng.normal(size=(3, 5, 37))
    event = rng.normal(size=(3, 1, 37))
    got = basic_module(Tensor(feature), Tensor(event), layer).data
    for i in range(3):
        want = naive_basic_module(
            feature[i], event[i],
            layer.feature_w.value.data, layer.feature_b.value.data,
            layer.event_w.value.data, layer.event_b.value.data,
            [(w.value.data, b.value.data) for w, b in layer.res],
        )
        np.testing.assert_allclose(got[i], want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_forward_and_loss_match_whole_model_oracle(k):
    """forward_batch's logits and batch_loss against a loop-by-loop
    restatement of the fold, the flatten, the heads and the L2 term, at
    float64. The first k-1 windows hold PAD slots, and every tensor,
    biases included, is off its init."""
    params = init_params(k, 37, seed=k)
    params.flat += np.random.default_rng(k).uniform(-0.05, 0.05, params.flat.size)
    windows = make_windows(_events(3), k=k)
    assert (windows[0].sensors == PAD).sum() == k - 1
    events, residents, activities = stack_windows(windows)
    _, resident, activity = forward_batch(events, params)
    loss = batch_loss(resident, activity, residents, activities, params, 4e-4)
    want_resident, want_activity, want_loss = naive_model_loss(
        [w.sensors for w in windows], residents, activities,
        {p.name: p.value.data for p in params}, 4e-4)
    np.testing.assert_allclose(resident.data, want_resident, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(activity.data, want_activity, rtol=1e-10, atol=1e-12)
    assert float(loss.data) == pytest.approx(want_loss, rel=1e-12)


# ---------------------------------------------------------------------------
# tree forward and prediction


def _features(windows, params):
    return forward_batch(stack_windows(windows)[0], params)[0]


def test_tree_forward_shape_and_determinism():
    params = init_params(8, 37, seed=5)
    windows = _windows(10)[8:]
    out1 = _features(windows, params)
    out2 = _features(windows, params)
    assert out1.shape == (2, 64, 37)
    np.testing.assert_array_equal(out1.data, out2.data)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_tree_forward_length_preserved_any_k(k):
    params = init_params(k, 37, seed=1)
    windows = make_windows(_events(k + 2), k=k)
    out = _features(windows, params)
    assert out.shape == (k + 2, channel_plan(k)[-1], 37)


def test_tree_forward_k_mismatch_rejected():
    params = init_params(8, 37, seed=0)
    windows = make_windows(_events(5), k=5)
    with pytest.raises(ShapeError, match="k="):
        _features(windows, params)


def test_tree_forward_zero_params_zero_output():
    params = init_params(8, 37, seed=0)
    for p in params:
        p.value.data[...] = 0
    window = _windows(1)[0]  # all padding except the target
    assert (window.sensors == PAD).sum() == 7
    out = _features([window], params)
    assert np.all(out.data == 0)


def test_predict_uniform_with_zero_heads():
    """Zero heads give all-equal logits, whose argmax is class 0."""
    params = init_params(8, 37, seed=2)
    params["head_resident.weight"].value.data[...] = 0
    params["head_resident.bias"].value.data[...] = 0
    params["head_activity.weight"].value.data[...] = 0
    params["head_activity.bias"].value.data[...] = 0
    windows = _windows(9)
    for w in windows:
        assert predict(w, params).label() == LabelPair(0, 0)
    residents, activities = predict_batch(stack_windows(windows)[0], params)
    assert not residents.any() and not activities.any()


def test_forward_batch_consistent_with_single():
    params = init_params(4, 37, seed=9)
    windows = make_windows(_events(6), k=4)
    events, _, _ = stack_windows(windows)
    _, logits_r, logits_a = forward_batch(events, params)
    residents, activities = predict_batch(events, params)
    for i, w in enumerate(windows):
        assert predict(w, params).label() == LabelPair(residents[i], activities[i])
        _, single_r, single_a = forward_batch(events[i:i + 1], params)
        # BLAS may block a batch of one differently; equality is to roundoff
        np.testing.assert_allclose(logits_r.data[i], single_r.data[0],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(logits_a.data[i], single_a.data[0],
                                   rtol=1e-12, atol=1e-12)


def test_non_finite_probabilities_raise_numeric_error():
    """Finite weights whose forward overflows give NaN logits; neither
    predict nor predict_batch may turn them into a label. The calls run under
    the np.errstate that cli.run sets, so the overflow raises no warning."""
    params = init_params(3, 37, seed=2)
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    windows = make_windows(_events(4), k=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="not finite"):
            predict(windows[-1], params)
        with pytest.raises(NumericError, match="not finite"):
            predict_batch(stack_windows(windows)[0], params)


def test_forward_batch_rejects_wrong_vocab():
    params = init_params(4, 37, seed=9)
    with pytest.raises(ShapeError, match="vocab"):
        forward_batch(np.zeros((2, 4, 36)), params)


# ---------------------------------------------------------------------------
# checkpoints


def test_save_load_round_trip_bitwise(tmp_path):
    params = init_params(8, 37, seed=3)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.k == 8
    for a, b in zip(params, loaded):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value.data, b.value.data)
    events = stack_windows(_windows(4))[0]
    for a, b in zip(forward_batch(events, params)[1:],
                    forward_batch(events, loaded)[1:]):
        np.testing.assert_array_equal(a.data, b.data)


def test_save_load_round_trip_float32(tmp_path):
    params = init_params(3, 37, seed=3, dtype=np.float32)
    path = tmp_path / "model32.ckpt"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.dtype == np.float32
    for a, b in zip(params, loaded):
        np.testing.assert_array_equal(a.value.data, b.value.data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [2, 3, 8])
def test_checkpoint_is_header_then_flat(tmp_path, k, dtype):
    params = init_params(k, 37, seed=k, dtype=dtype)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    assert path.read_bytes() == _header(k, 37, dtype) + params.flat.astype(
        np.dtype(dtype).newbyteorder("<")).tobytes()
    loaded = load_params(path)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    for a, b in zip(params, loaded):
        assert a.name == b.name and b.value.dtype == dtype
        np.testing.assert_array_equal(a.value.data, b.value.data)


# every header but the exact line save_params writes is refused with this
_NOT_SAVED_HEADER = ("header is not the one save_params writes for a k=3 float64 "
                     "model over 37 sensors")


def _read_checkpoint(path, wire="<f8"):
    """A checkpoint's header and its data as one array of wire values."""
    line, data = path.read_bytes().split(b"\n", 1)
    return json.loads(line), np.frombuffer(data, dtype=wire).copy()


def test_load_truncated_rejected(tmp_path):
    params = init_params(3, 37, seed=0)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    blob = path.read_bytes()
    header_end = blob.index(b"\n")
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="bytes of tensor data"):
        load_params(path)
    path.write_bytes(blob[:header_end // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_params(path)


def test_load_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError, match="format"):
        load_params(path)
    path.write_text('{"format": "treehar-checkpoint", "version": 99}')
    with pytest.raises(CheckpointError, match="version"):
        load_params(path)


def test_load_missing_tensor_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_params(init_params(3, 37, seed=0), path)
    header, values = _read_checkpoint(path)
    _, shape = header["tensors"].pop()
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + values[:-math.prod(shape)].tobytes())
    with pytest.raises(CheckpointError, match=_NOT_SAVED_HEADER):
        load_params(path)


@pytest.mark.parametrize("nesting", ["[", '{"a":'], ids=["list", "object"])
def test_deeply_nested_header_is_a_checkpoint_error(tmp_path, capsys, nesting):
    """JSON nested too deep to decode is a corrupt file (exit 2), not a
    RecursionError traceback."""
    from treehar.cli import run

    path = tmp_path / "model.ckpt"
    path.write_text(nesting * 100000 + ("]" if nesting == "[" else "}") * 100000)
    with pytest.raises(CheckpointError, match="corrupt"):
        load_params(path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "history.txt").write_text("2009-02-02 08:00:00 M01 ON 1 1\n")
    assert run(["predict", "--checkpoint", str(path),
                "--history", str(corpus / "history.txt")]) == 2
    assert run(["eval", "--checkpoint", str(path), "--data", str(corpus),
                "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err.count("corrupt checkpoint") == 2


class _Checkpoint:
    """A k=3 float64 checkpoint taken apart for a test to edit: its header,
    its data as one float64 array, or else the whole file as raw bytes."""

    def __init__(self, path):
        self.header, self.values = _read_checkpoint(path)
        self.raw = None
        self.separators = None   # json.dumps's default, as save_params writes

    def blob(self):
        return self.raw if self.raw is not None else (
            json.dumps(self.header, separators=self.separators).encode() + b"\n"
            + np.asarray(self.values, dtype="<f8").tobytes())

    def entries(self):
        """(name, shape, values) for each entry of the header's table."""
        out, at = [], 0
        for name, shape in self.header["tensors"]:
            out.append((name, shape, self.values[at:at + math.prod(shape)]))
            at += math.prod(shape)
        return out


def _mutated_checkpoint(tmp_path, mutate):
    """A valid k=3 float64 checkpoint rewritten after mutate(_Checkpoint)."""
    path = tmp_path / "model.ckpt"
    save_params(init_params(3, 37, seed=0), path)
    c = _Checkpoint(path)
    mutate(c)
    path.write_bytes(c.blob())
    return path


def _fields(**fields):
    return lambda c: c.header.update(fields)


def _set_element(value):
    """Write value's float64 bit pattern over element 1 of the first tensor."""
    def mutate(c):
        c.values[1] = value
    return mutate


def _resize_values(extra):
    def mutate(c):
        c.values = c.values[:extra] if extra < 0 else np.append(c.values, [0.0] * extra)
    return mutate


def _edit_table(edit):
    """edit(table) in place; the table is checked before the data's length."""
    return lambda c: edit(c.header["tensors"])


def _rename_third(table):
    table[2][0] += "s"


def _compact(c):
    c.separators = (",", ":")


def _shrink_vocab(c):
    """A self-consistent checkpoint of a model over 36 sensors."""
    c.header["vocab_size"] = 36
    parts = []
    for entry, (name, shape, values) in zip(c.header["tensors"], c.entries()):
        if name in ("head_resident.weight", "head_activity.weight"):
            rows, cols = shape
            entry[1] = [rows, cols // 37 * 36]
            values = values[:rows * cols // 37 * 36]
        parts.append(values)
    c.values = np.concatenate(parts)


def _old_layout(version, field, encode):
    """The same model as one JSON document in an earlier version's layout."""
    def mutate(c):
        doc = dict(c.header, version=version, channel_plan=[16, 32], tensors=[
            {"name": name, "shape": shape, field: encode(values)}
            for name, shape, values in c.entries()])
        c.raw = json.dumps(doc).encode()
    return mutate


def _raw(edit):
    def mutate(c):
        c.raw = edit(c.blob())
    return mutate


@pytest.mark.parametrize("mutate,message", [
    pytest.param(_fields(k=1), "k=1", id="k=1"),
    pytest.param(_fields(k=40), "k=40", id="k-beyond-tensor-count"),
    pytest.param(_fields(tensors=5), "tensors must be a list", id="tensors-not-list"),
    pytest.param(_edit_table(lambda t: t[0].__setitem__(1, 16)),
                 _NOT_SAVED_HEADER, id="shape-not-list"),
    pytest.param(_edit_table(lambda t: t[0].__setitem__(1, [16.0, True, 3])),
                 _NOT_SAVED_HEADER, id="shape-of-equal-numbers"),
    pytest.param(_compact, _NOT_SAVED_HEADER, id="compact-separators"),
    pytest.param(_set_element(float("nan")), "NaN or Inf", id="nan-value"),
    pytest.param(_set_element(float("inf")), "NaN or Inf", id="inf-value"),
    pytest.param(_resize_values(-1), "bytes of tensor data", id="data-one-short"),
    pytest.param(_resize_values(1), "bytes of tensor data", id="data-one-long"),
    pytest.param(_fields(dtype="int64"), "dtype", id="dtype-int64"),
    pytest.param(_shrink_vocab, _NOT_SAVED_HEADER, id="vocab-36"),
    pytest.param(_edit_table(lambda t: t.insert(1, list(t[0]))),
                 _NOT_SAVED_HEADER, id="duplicate-tensor"),
    pytest.param(_edit_table(lambda t: t.append(["extra.weight", [2, 3]])),
                 _NOT_SAVED_HEADER, id="extra-tensor"),
    pytest.param(_edit_table(_rename_third), _NOT_SAVED_HEADER, id="renamed-tensor"),
    pytest.param(_raw(lambda b: b + b"\0"), "bytes of tensor data", id="trailing-byte"),
    pytest.param(_raw(lambda b: b.replace(b"\n", b"", 1)), "corrupt",
                 id="header-without-newline"),
    pytest.param(_old_layout(1, "values", lambda v: v.tolist()),
                 "version 1 unsupported", id="version-1"),
    pytest.param(_old_layout(2, "data", lambda v: base64.b64encode(v.tobytes()).decode()),
                 r"version 2 unsupported \(expected 3\); retrain to write a new one",
                 id="version-2"),
])
def test_load_rejects_malformed_checkpoint(tmp_path, mutate, message):
    from treehar.cli import run

    path = _mutated_checkpoint(tmp_path, mutate)
    with pytest.raises(CheckpointError, match=message):
        load_params(path)
    history = tmp_path / "history.txt"
    history.write_text("2009-02-02 08:00:00 M01 ON 1 1\n")
    assert run(["predict", "--checkpoint", str(path),
                "--history", str(history)]) == 2


@pytest.mark.parametrize("dtype,wire", [(np.float64, "<f8"), (np.float32, "<f4")])
def test_checkpoint_data_is_little_endian_bytes(tmp_path, dtype, wire):
    params = init_params(3, 37, seed=4, dtype=dtype)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    header, values = _read_checkpoint(path, wire)
    assert header["dtype"] == np.dtype(dtype).name
    assert header["tensors"] == [[p.name, list(p.value.shape)] for p in params]
    assert values.tobytes() == b"".join(p.value.data.astype(wire).tobytes()
                                        for p in params)
    for p in load_params(path):
        data = p.value.data
        assert data.flags.writeable and data.flags.c_contiguous
        assert data.dtype == dtype and data.dtype.isnative


def test_checkpoint_golden(tmp_path):
    """The exact bytes of a k=3 float32 checkpoint."""
    path = tmp_path / "model.ckpt"
    save_params(init_params(3, 37, seed=0, dtype=np.float32), path)
    blob = path.read_bytes()
    assert blob[:blob.index(b"\n") + 1] == (
        b'{"format": "treehar-checkpoint", "version": 3, "k": 3, "vocab_size": 37, '
        b'"dtype": "float32", "tensors": ['
        b'["layer1.feature.weight", [16, 1, 3]], ["layer1.feature.bias", [16]], '
        b'["layer1.event.weight", [16, 1, 3]], ["layer1.event.bias", [16]], '
        b'["layer1.res1.weight", [16, 16, 3]], ["layer1.res1.bias", [16]], '
        b'["layer1.res2.weight", [16, 16, 3]], ["layer1.res2.bias", [16]], '
        b'["layer1.res3.weight", [16, 16, 3]], ["layer1.res3.bias", [16]], '
        b'["layer2.feature.weight", [32, 16, 3]], ["layer2.feature.bias", [32]], '
        b'["layer2.event.weight", [32, 1, 3]], ["layer2.event.bias", [32]], '
        b'["layer2.res1.weight", [32, 32, 3]], ["layer2.res1.bias", [32]], '
        b'["layer2.res2.weight", [32, 32, 3]], ["layer2.res2.bias", [32]], '
        b'["layer2.res3.weight", [32, 32, 3]], ["layer2.res3.bias", [32]], '
        b'["head_resident.weight", [2, 1184]], ["head_resident.bias", [2]], '
        b'["head_activity.weight", [15, 1184]], ["head_activity.bias", [15]]]}\n')
    assert len(blob) == 135435
    assert hashlib.sha256(blob).hexdigest() == (
        "b02e2fc5448d4b2e93b6cd8ce2644bcf99a134118e60849d779bcfe534729819")


def test_loaded_float32_checkpoint_trains(tmp_path):
    from treehar.training import AdamState, TrainConfig, train_epoch

    path = tmp_path / "model32.ckpt"
    save_params(init_params(3, 37, seed=5, dtype=np.float32), path)
    params = load_params(path)
    before = params["layer1.event.weight"].value.data.copy()
    stats = train_epoch(make_windows(_events(6), k=3), params,
                        AdamState(params), TrainConfig(batch_size=8))
    assert np.isfinite(stats.avg_loss)
    assert not np.array_equal(params["layer1.event.weight"].value.data, before)


def test_checkpoint_size_is_binary_not_decimal(tmp_path):
    """The float64 bytes plus at most 8 KiB of header; decimal text would
    be about twice as large, base64 a third larger."""
    params = init_params(8, 37, seed=0)
    path = tmp_path / "model.ckpt"
    save_params(params, path)
    assert path.stat().st_size <= 8 * params.parameter_count() + 8 * 1024


def test_save_params_crash_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_params(init_params(3, 37, seed=0), path)
    before = path.read_bytes()

    def crash(fd):
        assert (tmp_path / ".model.ckpt.tmp").read_bytes().startswith(
            b'{"format": "treehar-checkpoint"')
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError, match="disk full"):
        save_params(init_params(3, 37, seed=1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: channel_plan(1), ValueError, "k must be >= 2, got 1"),
    (lambda: init_params(4, 37, seed=0).layer(0), IndexError,
     r"layer 0 out of range 1\.\.3"),
    (lambda: init_params(4, 37, seed=0).layer(4), IndexError,
     r"layer 4 out of range 1\.\.3"),
], ids=["channel-plan-k-1", "layer-0", "layer-k"])
def test_contract_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
