import base64
import datetime as dt
import math

import numpy as np
import pytest

from treehar.casas import Events
from treehar.model import (
    CheckpointError,
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
from treehar.numerics import NumericError, ParamTensor, ShapeError, Tensor, softmax
from treehar.windowing import PAD, make_windows, stack_windows

from oracles import naive_basic_module


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
    for pa, pb in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(pa.value.data, pb.value.data)
    c = init_params(8, 37, seed=43)
    assert any(
        not np.array_equal(pa.value.data, pc.value.data)
        for pa, pc in zip(a.tensors(), c.tensors())
    )
    for p in a.tensors():
        if p.name.endswith(".bias"):
            assert np.all(p.value.data == 0)
        else:
            fan_in = int(np.prod(p.value.shape[1:]))
            limit = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(p.value.data) <= limit)


def test_model_params_validates_shapes():
    shapes = expected_shapes(3, 37)
    tensors = {n: ParamTensor(n, Tensor(np.zeros(s))) for n, s in shapes.items()}
    ModelParams(3, 37, tensors)  # fine
    bad = dict(tensors)
    bad.pop("layer2.res3.bias")
    with pytest.raises(ShapeError, match="layer2.res3.bias"):
        ModelParams(3, 37, bad)


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
    for p in params.tensors():
        p.value.data[...] = 0
    window = _windows(1)[0]  # all padding except the target
    assert (window.sensors == PAD).sum() == 7
    out = _features([window], params)
    assert np.all(out.data == 0)


def test_predict_uniform_with_zero_heads():
    params = init_params(8, 37, seed=2)
    params["head_resident.weight"].value.data[...] = 0
    params["head_resident.bias"].value.data[...] = 0
    params["head_activity.weight"].value.data[...] = 0
    params["head_activity.bias"].value.data[...] = 0
    pred = predict(_windows(3)[2], params)
    np.testing.assert_allclose(pred.resident_probs.data, [0.5, 0.5])
    np.testing.assert_allclose(pred.activity_probs.data, np.full(15, 1 / 15))


def test_predict_probs_are_distributions():
    params = init_params(8, 37, seed=7)
    pred = predict(_windows(9)[8], params)
    assert abs(pred.resident_probs.data.sum() - 1) < 1e-6
    assert abs(pred.activity_probs.data.sum() - 1) < 1e-6
    label = pred.label()
    assert 0 <= label.resident_id < 2
    assert 0 <= label.activity_id < 15


def test_forward_batch_consistent_with_single():
    params = init_params(4, 37, seed=9)
    windows = make_windows(_events(6), k=4)
    events, _, _ = stack_windows(windows)
    _, logits_r, logits_a = forward_batch(events, params)
    probs_r, probs_a = softmax(logits_r).data, softmax(logits_a).data
    for i, w in enumerate(windows):
        single = predict(w, params)
        np.testing.assert_allclose(probs_r[i], single.resident_probs.data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(probs_a[i], single.activity_probs.data,
                                   rtol=1e-12, atol=1e-12)


def test_non_finite_probabilities_raise_numeric_error():
    """Finite weights whose forward overflows give NaN probabilities;
    neither predict path may turn them into a label."""
    params = init_params(3, 37, seed=2)
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    windows = make_windows(_events(4), k=3)
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
    path = tmp_path / "model.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.k == 8
    for a, b in zip(params.tensors(), loaded.tensors()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value.data, b.value.data)
    window = _windows(4)[3]
    p1 = predict(window, params)
    p2 = predict(window, loaded)
    np.testing.assert_array_equal(p1.resident_probs.data, p2.resident_probs.data)
    np.testing.assert_array_equal(p1.activity_probs.data, p2.activity_probs.data)


def test_save_load_round_trip_float32(tmp_path):
    params = init_params(3, 37, seed=3, dtype=np.float32)
    path = tmp_path / "model32.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.dtype == np.float32
    for a, b in zip(params.tensors(), loaded.tensors()):
        np.testing.assert_array_equal(a.value.data, b.value.data)


def test_load_truncated_rejected(tmp_path):
    params = init_params(3, 37, seed=0)
    path = tmp_path / "model.json"
    save_params(params, path)
    blob = path.read_text()
    path.write_text(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_params(path)


def test_load_k_mismatch_names_both_ks(tmp_path):
    params = init_params(6, 37, seed=0)
    path = tmp_path / "model.json"
    save_params(params, path)
    with pytest.raises(CheckpointError, match="checkpoint has k=6 but k=8 was requested"):
        load_params(path, expect_k=8)
    loaded = load_params(path)  # without expectation it loads as k=6
    assert loaded.k == 6


def test_load_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointError, match="format"):
        load_params(path)
    path.write_text('{"format": "treehar-checkpoint", "version": 99}')
    with pytest.raises(CheckpointError, match="version"):
        load_params(path)


def test_load_missing_tensor_rejected(tmp_path):
    import json

    params = init_params(3, 37, seed=0)
    path = tmp_path / "model.json"
    save_params(params, path)
    doc = json.loads(path.read_text())
    doc["tensors"] = doc["tensors"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="missing tensor"):
        load_params(path)


def _mutated_checkpoint(tmp_path, mutate):
    """A valid k=3 float64 checkpoint with mutate(doc) applied to its JSON."""
    import json

    path = tmp_path / "model.json"
    save_params(init_params(3, 37, seed=0), path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def _payload(entry):
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")


def _set_payload(entry, values):
    entry["data"] = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _set_element(doc, value):
    """Write value's float64 bit pattern over element 1 of the first tensor."""
    values = _payload(doc["tensors"][0]).copy()
    values[1] = value
    _set_payload(doc["tensors"][0], values)


def _resize_payload(doc, extra):
    entry = doc["tensors"][0]
    values = _payload(entry)
    _set_payload(entry, values[:extra] if extra < 0 else np.append(values, [0.0] * extra))


def _shrink_vocab(doc):
    """A self-consistent checkpoint of a model over 36 sensors."""
    doc["vocab_size"] = 36
    for entry in doc["tensors"]:
        if entry["name"] in ("head_resident.weight", "head_activity.weight"):
            rows, cols = entry["shape"]
            entry["shape"] = [rows, cols // 37 * 36]
            _set_payload(entry, _payload(entry)[:rows * cols // 37 * 36])


def _version_1(doc):
    """The same model in the version-1 layout: decimal values, no data."""
    doc["version"] = 1
    for entry in doc["tensors"]:
        entry["values"] = _payload(entry).tolist()
        del entry["data"]


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: d.update(k=1), "k=1", id="k=1"),
    pytest.param(lambda d: d.update(k=40), "k=40", id="k-beyond-tensor-count"),
    pytest.param(lambda d: d.update(tensors=5), "tensors must be a list",
                 id="tensors-not-list"),
    pytest.param(lambda d: d["tensors"][0].update(shape=16), "shape 16",
                 id="shape-not-list"),
    pytest.param(lambda d: d["tensors"][0].update(data="not base64!"), "base64",
                 id="string-value"),
    pytest.param(lambda d: d["tensors"][0].update(data=None), "base64", id="null-value"),
    pytest.param(lambda d: _set_element(d, float("nan")), "NaN or Inf", id="nan-value"),
    pytest.param(lambda d: _set_element(d, float("inf")), "NaN or Inf", id="inf-value"),
    pytest.param(lambda d: d["tensors"][0].update(data=5), "base64",
                 id="values-not-list"),
    pytest.param(lambda d: _resize_payload(d, -1), "bytes of data", id="data-one-short"),
    pytest.param(lambda d: _resize_payload(d, 1), "bytes of data", id="data-one-long"),
    pytest.param(lambda d: d.update(dtype="int64"), "dtype", id="dtype-int64"),
    pytest.param(_shrink_vocab, "vocab_size 36", id="vocab-36"),
    pytest.param(lambda d: d["tensors"].append(dict(d["tensors"][0])), "twice",
                 id="duplicate-tensor"),
    pytest.param(_version_1, "version 1 unsupported", id="version-1"),
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
    import json

    params = init_params(3, 37, seed=4, dtype=dtype)
    path = tmp_path / "model.json"
    save_params(params, path)
    doc = json.loads(path.read_text())
    assert doc["dtype"] == np.dtype(dtype).name
    assert [e["name"] for e in doc["tensors"]] == [p.name for p in params]
    for entry, p in zip(doc["tensors"], params):
        assert entry["shape"] == list(p.value.shape)
        assert base64.b64decode(entry["data"]) == p.value.data.astype(wire).tobytes()
    for p in load_params(path):
        data = p.value.data
        assert data.flags.writeable and data.flags.c_contiguous
        assert data.dtype == dtype and data.dtype.isnative


def test_loaded_float32_checkpoint_trains(tmp_path):
    from treehar.training import AdamState, TrainConfig, train_epoch

    path = tmp_path / "model32.json"
    save_params(init_params(3, 37, seed=5, dtype=np.float32), path)
    params = load_params(path)
    before = params["layer1.event.weight"].value.data.copy()
    stats = train_epoch(make_windows(_events(6), k=3), params,
                        AdamState(params.tensors()), TrainConfig(batch_size=8))
    assert np.isfinite(stats.avg_loss)
    assert not np.array_equal(params["layer1.event.weight"].value.data, before)


def test_checkpoint_size_is_binary_not_decimal(tmp_path):
    """Base64 of the float64 bytes plus at most 8 KiB of header, names and
    shapes; decimal text would be about twice as large."""
    params = init_params(8, 37, seed=0)
    path = tmp_path / "model.json"
    save_params(params, path)
    payload = math.ceil(8 * params.parameter_count() / 3) * 4
    assert path.stat().st_size <= payload + 8 * 1024


def test_save_params_crash_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import json

    path = tmp_path / "model.json"
    save_params(init_params(3, 37, seed=0), path)
    before = path.read_bytes()

    def crash(doc, fh):
        fh.write('{"format": "treehar-checkpoint", "tens')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", crash)
    with pytest.raises(OSError, match="disk full"):
        save_params(init_params(3, 37, seed=1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
