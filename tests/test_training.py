import ctypes
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import treehar
from treehar import model, synth, training
from treehar.casas import filter_on
from treehar.cli import run
from treehar.model import ModelParams, forward_batch, init_params
from treehar.numerics import (NumericError, ParamTensor, Tape, Tensor, Workspace, backward,
                              gradient, gradient_check, joint_loss)
from treehar.training import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    DEFAULT_GAMMA_GRID,
    STREAM_SYNTH,
    AdamState,
    EpochStats,
    TrainConfig,
    adam_step,
    batch_loss,
    derive_rng,
    derive_seed,
    fit,
    sweep,
    train_epoch,
)
from treehar.windowing import make_windows, stack_windows

from test_cli import make_corpus
from oracles import naive_adam_step, naive_model_loss
from test_model import _events  # deterministic event fixture
from test_numerics import _PoisoningWorkspace


def _windows(n, k=3, source="t"):
    return make_windows(_events(n), k=k, source=source)


def test_train_config_defaults_match_protocol():
    config = TrainConfig()
    assert config.batch_size == 128
    assert config.l2_weight == 0.0004
    assert config.learning_rate == 0.0002
    assert config.epochs == 25
    assert config.adam_beta1 == 0.9
    assert config.adam_beta2 == 0.999
    assert config.adam_eps == 1e-8


def test_adam_hyperparameters_are_constants():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "batch_size", "l2_weight", "learning_rate", "epochs", "seed"]
    with pytest.raises(TypeError):
        TrainConfig(adam_beta1=0.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(l2_weight=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(l2_weight=bad)
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=bad)


def test_derive_seed_is_stable():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(0, 2, 5) != derive_seed(0, 2, 6)


# ---------------------------------------------------------------------------
# joint loss


def _joint_loss(resident_logits, activity_logits, resident, activity, params,
                l2_weight, tape=None):
    """batch_loss over a batch of one."""
    return batch_loss(Tensor([resident_logits]), Tensor([activity_logits]),
                      [resident], [activity], params, l2_weight, tape)


# zero logits: both heads uniform
_UNIFORM = (np.zeros(2), np.zeros(15))


def test_joint_loss_perfect_prediction_is_zero():
    # a 200-nat margin leaves exp(-200) of every other class, far below
    # the float64 resolution of 1 + p
    params = init_params(3, 37, seed=0)
    loss = _joint_loss([200.0, 0.0], [0.0] * 5 + [200.0] + [0.0] * 9, 0, 5,
                       params, l2_weight=0.0)
    assert loss.item() == 0.0


def test_joint_loss_uniform_heads():
    params = init_params(3, 37, seed=0)
    loss = _joint_loss(*_UNIFORM, 1, 3, params, l2_weight=0.0)
    assert math.isclose(loss.item(), math.log(2) + math.log(15), rel_tol=1e-12)
    assert math.isclose(loss.item(), 3.4012, rel_tol=1e-4)


def test_joint_loss_l2_zero_for_zero_weights():
    params = init_params(3, 37, seed=0)
    for p in params.weight_tensors():
        p.value.data[...] = 0
    uniform = (*_UNIFORM, 0, 0, params)
    with_l2 = _joint_loss(*uniform, l2_weight=0.5)
    without = _joint_loss(*uniform, l2_weight=0.0)
    assert with_l2.item() == without.item()


def test_l2_penalty_excludes_biases_and_grows_with_weights():
    params = init_params(3, 37, seed=1)
    uniform = (*_UNIFORM, 0, 0, params)

    def penalty():
        return (_joint_loss(*uniform, l2_weight=1.0).item()
                - _joint_loss(*uniform, l2_weight=0.0).item())

    base = penalty()
    expected = sum((p.value.data ** 2).sum() for p in params.weight_tensors())
    assert math.isclose(base, expected, rel_tol=1e-12)
    params["layer1.event.bias"].value.data[...] = 100.0
    assert penalty() == pytest.approx(base)
    params["layer1.event.weight"].value.data *= 2.0
    assert penalty() > base


def test_l2_gradient_is_2_beta_w():
    params = init_params(3, 37, seed=2)
    beta = 0.25
    tape = Tape()
    loss = _joint_loss(*_UNIFORM, 0, 0, params, beta, tape)
    backward(loss, tape, params)
    for p, grad in zip(params, params.views(params.grad)):
        if p.name.endswith(".bias"):
            assert np.all(grad == 0)
        else:
            np.testing.assert_allclose(grad, 2 * beta * p.value.data,
                                       rtol=1e-12, atol=1e-15)


def test_l2_gradient_matches_finite_differences():
    w = ParamTensor("w", Tensor(np.random.default_rng(8).normal(size=(3, 4))))

    def loss_fn(tape):
        return joint_loss([], [w.value], 0.3, tape)

    report = gradient_check(loss_fn, [w], probe_count=12, seed=0)
    assert report.max_rel_error < 1e-8


def test_k8_step_records_53_tape_nodes():
    """A k=8 forward plus the loss: 7 basic modules of 7 nodes (5 convs
    and 2 adds, each ReLU fused into one of them), flatten, two dense
    heads and the one joint_loss node: 49 + 4. A new tape op changes this
    count on purpose or not at all."""
    params = init_params(8, 37, seed=0)
    events, residents, activities = stack_windows(_windows(6, k=8))
    tape = Tape()
    _, resident_logits, activity_logits = forward_batch(events, params, tape)
    before = len(tape)
    batch_loss(resident_logits, activity_logits, residents, activities,
               params, TrainConfig().l2_weight, tape)
    assert (before, len(tape)) == (52, 53)


def single_batch_steps():
    """The repr of every loss of three one-batch train_epoch steps at k=4
    on 41 windows of a fixed synthetic file, at both dtypes, and the sha256
    of the float64 parameters after the last step. Each batch runs as
    halves of 21 and 20 windows."""
    events = filter_on(synth.generate_file_events(
        synth.SynthProfile(files=1, events_per_file=60),
        derive_rng(7, STREAM_SYNTH, 0)))
    windows = make_windows(events, k=4, source="golden")
    assert len(windows) == 41
    config = TrainConfig(batch_size=128, learning_rate=0.001, epochs=3, seed=7)
    losses = {}
    for dtype in (np.float64, np.float32):
        params = init_params(4, 37, seed=7, dtype=dtype)
        state = AdamState(params)
        losses[np.dtype(dtype).name] = [
            repr(train_epoch(windows, params, state, config, epoch).avg_loss)
            for epoch in range(3)]
        if dtype == np.float64:
            digest = hashlib.sha256(b"".join(
                p.value.data.astype("<f8").tobytes() for p in params)).hexdigest()
    return losses, digest


def test_single_batch_steps_golden():
    """single_batch_steps, run in a child python started on one BLAS
    thread and in this process at the thread count BLAS started with. Any
    change to the forward, the backward, the loss, the batch split or Adam
    that is not bitwise neutral changes these values. The bits repeat for
    the same seed and BLAS build at any BLAS thread count and on any number
    of cores, because train_epoch holds OpenBLAS at one thread. Where the
    OpenBLAS numpy loaded cannot be found, they also depend on the thread
    count BLAS runs at, and only the one-thread child is compared."""
    path = os.pathsep.join([str(Path(__file__).parent),
                            str(Path(treehar.__file__).parents[1])])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_training; "
         "print(json.dumps(test_training.single_batch_steps()))"],
        env=env, capture_output=True, text=True, check=True)
    losses, digest = json.loads(child.stdout)
    assert losses == {
        "float64": ["7.016934283834865", "2.4830600004814514", "1.3328716958695952"],
        "float32": ["7.016934394836426", "2.4830602407455444", "1.332871675491333"],
    }
    assert digest == "73047004e472b09006a6f033676a5cf4d50bf3ba339affb3727ec5fd89a9b82b"
    if training._openblas_threads() is not None:
        assert single_batch_steps() == (losses, digest)


# ---------------------------------------------------------------------------
# adam


def _k2_model(value, grad=None, dtype=np.float64):
    """A k=2 model with every parameter at value, and with params.grad
    filled with grad unless that is None."""
    params = init_params(2, 37, seed=0, dtype=dtype)
    params.flat[...] = value
    if grad is not None:
        params.grad = np.full_like(params.flat, grad)
    return params


def test_adam_first_step_hand_computed():
    # g=1: both bias-corrected moments are exactly 1, so the step is
    # gamma / (1 + eps)
    params = _k2_model(1.0, grad=1.0)
    state = AdamState(params)
    adam_step(params, state, learning_rate=0.0002)
    assert state.step == 1
    delta = 1.0 - params.flat
    assert np.all(np.abs(delta - 0.0002) < 1e-9)


def test_adam_zero_grad_leaves_params_but_decays_moments():
    params = _k2_model(2.0, grad=0.0)  # zero, legitimately
    state = AdamState(params)
    state.m[...] = 0.5
    state.v[...] = 0.25
    adam_step(params, state, learning_rate=0.1)
    # with zero grad the moments only decay
    assert state.m == pytest.approx(0.45)
    assert state.v == pytest.approx(0.24975)
    # but they still move the parameters: bias corrections 0.1 and 0.001
    # give 4.5 / sqrt(249.75)
    want = 2.0 - 0.1 * 4.5 / (math.sqrt(249.75) + 1e-8)
    assert params.flat == pytest.approx(want, rel=1e-12)


def test_adam_pure_zero_state_zero_grad_is_noop():
    params = _k2_model(2.0, grad=0.0)
    adam_step(params, AdamState(params), learning_rate=0.1)
    assert np.all(params.flat == 2.0)


def test_adam_identical_grads_identical_updates():
    # two tensors of one shape at different offsets of flat
    params = _k2_model(0.0, grad=0.0)
    grads = dict(zip((p.name for p in params), params.views(params.grad)))
    names = ("layer1.res1.weight", "layer1.res2.weight")
    for name in names:
        params[name].value.data[...] = np.resize([1.0, -2.0], (16, 16, 3))
        grads[name][...] = np.resize([0.3, -0.7], (16, 16, 3))
    adam_step(params, AdamState(params), learning_rate=0.05)
    a, b = (params[name].value.data for name in names)
    np.testing.assert_array_equal(a, b)


def test_adam_gamma_zero_is_noop():
    params = _k2_model(3.0, grad=5.0)
    adam_step(params, AdamState(params), learning_rate=0.0)
    assert np.all(params.flat == 3.0)


def test_adam_rejects_stale():
    params = _k2_model(1.0)
    with pytest.raises(RuntimeError, match="backward"):
        adam_step(params, AdamState(params), learning_rate=0.1)


def test_adam_consumes_the_grads():
    # a step uses the gradient once: it sets params.grad back to None, so
    # a second step without a backward is refused, not a repeat
    params = init_params(2, 37, seed=4)
    tape = Tape()
    backward(_joint_loss(*_UNIFORM, 0, 0, params, 0.01, tape), tape, params)
    state = AdamState(params)
    adam_step(params, state, learning_rate=0.01)
    assert params.grad is None
    with pytest.raises(RuntimeError, match="backward"):
        adam_step(params, state, learning_rate=0.01)
    assert state.step == 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_matches_the_per_tensor_oracle(dtype):
    # the whole-vector step runs the oracle's expressions in its order, so
    # parameters and moments agree bit for bit, step after step
    params = init_params(2, 37, seed=6, dtype=dtype)
    state = AdamState(params)
    values = [p.value.data.copy() for p in params]
    m = [np.zeros_like(x) for x in values]
    v = [np.zeros_like(x) for x in values]
    r = np.random.default_rng(6)
    for step in range(1, 6):
        size = params.flat.size
        grad = (r.normal(size=size) * np.exp(r.uniform(-8, 2, size=size))).astype(dtype)
        params.grad = grad.copy()
        adam_step(params, state, learning_rate=0.01)
        naive_adam_step(values, params.views(grad), m, v, step, learning_rate=0.01)
        for got, want in ((params.flat, values), (state.m, m), (state.v, v)):
            np.testing.assert_array_equal(got, np.concatenate([x.ravel() for x in want]))


def test_adam_step_allocates_no_flat_sized_array():
    params = init_params(4, 37, seed=1)
    state = AdamState(params)
    for _ in range(2):   # the second step sees warm moments
        params.grad = np.full_like(params.flat, 0.25)
        tracemalloc.start()
        try:
            adam_step(params, state, learning_rate=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes


def test_training_state_takes_no_stray_attribute():
    # a stale name, such as AdamState's workspace before it became
    # workspaces, is an error rather than a new attribute nothing reads
    params = init_params(3, 37, seed=0)
    for obj, name in [(AdamState(params), "workspace"), (params, "gradient"),
                      (Workspace(), "CHUNK_BYTES")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


# ---------------------------------------------------------------------------
# epoch loop


def test_train_epoch_batch_count():
    windows = _windows(300)
    params = init_params(3, 37, seed=0)
    state = AdamState(params)
    config = TrainConfig(batch_size=128, epochs=1, seed=0)
    train_epoch(windows, params, state, config, epoch=0)
    assert state.step == 3  # 128 + 128 + 44


def test_train_epoch_stacks_one_batch_at_a_time(monkeypatch):
    stacked = []

    def spy(windows, *args, **kwargs):
        stacked.append(len(windows))
        return stack_windows(windows, *args, **kwargs)

    monkeypatch.setattr(training, "stack_windows", spy)
    params = init_params(3, 37, seed=0)
    config = TrainConfig(batch_size=16, epochs=1, seed=0)
    train_epoch(_windows(40), params, AdamState(params), config, epoch=0)
    assert stacked == [8, 8, 8, 8, 4, 4]   # two halves per batch


def test_train_epoch_deterministic():
    config = TrainConfig(batch_size=16, epochs=1, seed=7)
    stats = []
    for _ in range(2):
        params = init_params(3, 37, seed=1)
        state = AdamState(params)
        stats.append(train_epoch(_windows(50), params, state, config, epoch=0))
    assert stats[0] == stats[1]


def test_train_epoch_same_with_workspace_as_without():
    # 50 windows in batches of 16: the short last batch reuses the memory
    # of the full ones, and the second epoch all of the first
    config = TrainConfig(batch_size=16, epochs=1, seed=5)
    results = []
    for workspace in (True, False):
        params = init_params(3, 37, seed=2)
        state = AdamState(params)
        if not workspace:
            state.workspaces = (None, None)
        stats = [train_epoch(_windows(50), params, state, config, epoch=e)
                 for e in range(2)]
        results.append((stats, [p.value.data.copy() for p in params]))
    assert results[0][0] == results[1][0]
    for got, want in zip(results[0][1], results[1][1]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_k8_steps_on_poisoned_released_memory_match_a_plain_tape(dtype, monkeypatch):
    # two one-batch epochs of 128 windows: every range the backward
    # releases is NaN until it is handed out again, in the same step or,
    # after the reset, in the next step's forward
    grads = []

    def recording_adam_step(params, *args, **kwargs):
        grads[-1].append(params.grad.copy())
        adam_step(params, *args, **kwargs)

    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    config = TrainConfig(batch_size=128, seed=3)
    losses = []
    for workspace in (_PoisoningWorkspace, lambda: None):
        params = init_params(8, 37, seed=3, dtype=dtype)
        state = AdamState(params)
        state.workspaces = (workspace(), workspace())
        grads.append([])
        losses.append([train_epoch(_windows(128, k=8), params, state, config, e).avg_loss
                       for e in range(2)])
    assert losses[0] == losses[1] and np.isfinite(losses[0]).all()
    assert len(grads[0]) == len(grads[1]) == 2
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_k8_step_workspace_chunks(dtype):
    # each 64-window half of a k=8 step at batch 128 peaks at about 57-59
    # MiB at float64 and 28-30 MiB at float32, so one 64 MiB chunk each;
    # the whole batch on one tape took 2 chunks and 1
    params = init_params(8, 37, seed=0, dtype=dtype)
    state = AdamState(params)
    train_epoch(_windows(128, k=8), params, state, TrainConfig(batch_size=128), 0)
    assert [len(ws._chunks) for ws in state.workspaces] == [1, 1]


def _recorded_epochs(windows, k, dtype, batch_size, cpus, monkeypatch):
    """Two train_epochs with _usable_cpus at cpus: each epoch's loss, each
    step's params.grad and the threads that stacked a half batch."""
    grads, threads = [], set()

    def recording_adam_step(params, *args, **kwargs):
        grads.append(params.grad.copy())
        adam_step(params, *args, **kwargs)

    def recording_stack(*args, **kwargs):
        threads.add(threading.get_ident())
        return stack_windows(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    monkeypatch.setattr(training, "stack_windows", recording_stack)
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    params = init_params(k, 37, seed=4, dtype=dtype)
    state = AdamState(params)
    config = TrainConfig(batch_size=batch_size, seed=4)
    losses = [train_epoch(windows, params, state, config, e).avg_loss for e in range(2)]
    return losses, grads, threads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,count,batch_size", [
    (8, 128, 128),   # the default batch at k=8
    (4, 41, 128),    # halves of 21 and 20
    (3, 1, 128),     # one window: half 1 is empty
    (3, 50, 16),     # a short last batch of 2
], ids=["k8-128", "41", "1", "short-last"])
def test_halves_on_two_threads_match_one_thread(dtype, k, count, batch_size,
                                                 monkeypatch):
    windows = _windows(count, k=k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # the two threads take turns at the GIL often
    try:
        runs = [_recorded_epochs(windows, k, dtype, batch_size, cpus, monkeypatch)
                for cpus in (2, 1)]
    finally:
        sys.setswitchinterval(interval)
    (losses2, grads2, threads2), (losses1, grads1, threads1) = runs
    assert losses2 == losses1 and np.isfinite(losses1).all()
    assert len(grads2) == len(grads1) == 2 * -(-count // batch_size)
    for got, want in zip(grads2, grads1):
        np.testing.assert_array_equal(got, want)
    assert threads1 == {threading.get_ident()}
    if training._openblas_threads() is not None and count > 1:
        assert threads2 - threads1   # a worker ran half 1 of each batch


def test_split_matches_one_tape_over_the_whole_batch(monkeypatch):
    # the halves sum the batch's terms in another order than one tape over
    # all 41 windows does, so the two agree at roundoff, not in every bit;
    # epoch 0 is one step from the initial weights
    windows = _windows(41, k=4)
    losses, grads, _ = _recorded_epochs(windows, 4, np.float64, 128, 2, monkeypatch)
    params = init_params(4, 37, seed=4)
    events, residents, activities = stack_windows(windows)
    tape = Tape()
    _, resident_logits, activity_logits = forward_batch(events, params, tape)
    loss = batch_loss(resident_logits, activity_logits, residents, activities,
                      params, TrainConfig().l2_weight, tape)
    backward(loss, tape, params)
    assert losses[0] == pytest.approx(loss.item(), rel=1e-12, abs=0)
    np.testing.assert_allclose(grads[0], params.grad, rtol=1e-9, atol=1e-15)


@pytest.mark.skipif(training._openblas_threads() is None,
                    reason="no OpenBLAS thread count to set in this process")
def test_train_epoch_holds_blas_at_one_thread_and_gives_its_count_back(monkeypatch):
    get, set_ = training._openblas_threads()
    during = []

    def recording_stack(*args, **kwargs):
        during.append(get())
        return stack_windows(*args, **kwargs)

    monkeypatch.setattr(training, "stack_windows", recording_stack)
    before = get()
    set_(2)
    try:
        params = init_params(3, 37, seed=0)
        train_epoch(_windows(40), params, AdamState(params), TrainConfig(batch_size=16))
        assert get() == 2
        config = TrainConfig(batch_size=16)
        config.learning_rate = math.nan   # past TrainConfig's own check
        with pytest.raises(NumericError):
            train_epoch(_windows(40), params, AdamState(params), config)
        assert get() == 2
    finally:
        set_(before)
    assert during and set(during) == {1}


@pytest.mark.skipif(training._openblas_threads() is None,
                    reason="no OpenBLAS thread count to set in this process")
@pytest.mark.parametrize("count", [1, 40], ids=["one-window", "40"])
def test_the_hold_covers_the_halves_and_not_the_adam_step(count, monkeypatch):
    # a batch of one window is stacked at one thread too, so it keeps its
    # bits; the Adam step, outside two_halves, runs at the caller's count
    get, set_ = training._openblas_threads()
    stacked, stepped = [], []

    def recording_stack(*args, **kwargs):
        stacked.append(get())
        return stack_windows(*args, **kwargs)

    def recording_adam_step(*args, **kwargs):
        stepped.append(get())
        adam_step(*args, **kwargs)

    monkeypatch.setattr(training, "stack_windows", recording_stack)
    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    before = get()
    set_(2)
    try:
        params = init_params(3, 37, seed=0)
        train_epoch(_windows(count), params, AdamState(params), TrainConfig(batch_size=16))
    finally:
        set_(before)
    assert stacked and set(stacked) == {1}
    assert stepped == [2] * -(-count // 16)


def _failing_halves(monkeypatch, failing):
    """Make train_epoch's half steps whose half is in failing raise a
    ValueError that names the half; the others step as before."""
    half_step = training._half_step

    def failing_step(*args):
        if args[-1] in failing:
            raise ValueError(f"half {args[-1]}")
        return half_step(*args)

    monkeypatch.setattr(training, "_half_step", failing_step)


@pytest.mark.skipif(training._openblas_threads() is None,
                    reason="the halves run in turn, so half 1 never runs")
def test_when_both_halves_raise_half_0s_error_carries_half_1s(monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    _failing_halves(monkeypatch, {0, 1})
    params = init_params(3, 37, seed=0)
    with pytest.raises(ValueError, match="half 0") as raised:
        train_epoch(_windows(40), params, AdamState(params), TrainConfig(batch_size=16))
    second = raised.value.__context__
    assert isinstance(second, ValueError) and str(second) == "half 1"


@pytest.mark.parametrize("cpus", [2, 1])
def test_when_only_half_1_raises_its_error_is_raised(cpus, monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    _failing_halves(monkeypatch, {1})
    params = init_params(3, 37, seed=0)
    with pytest.raises(ValueError, match="half 1") as raised:
        train_epoch(_windows(40), params, AdamState(params), TrainConfig(batch_size=16))
    assert raised.value.__context__ is None


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _library_file(function):
    """The file of the loaded library that holds a ctypes function, by
    dladdr, or None where that cannot be told."""
    info = _DlInfo()
    try:
        found = ctypes.CDLL(None).dladdr(ctypes.cast(function, ctypes.c_void_p),
                                         ctypes.byref(info))
    except (AttributeError, OSError, TypeError):
        return None
    return os.fsdecode(info.dli_fname) if found and info.dli_fname else None


def steps_beside_a_second_openblas(original, copy, get_name, set_name):
    """single_batch_steps with numpy's OpenBLAS, the file original, at 2
    threads, and a second instance of it mapped from the file copy: the
    thread counts numpy's OpenBLAS reads inside train_epoch, and the
    steps' losses and digest."""
    numpy_blas, second = ctypes.CDLL(original), ctypes.CDLL(copy)
    get, set_ = getattr(numpy_blas, get_name), getattr(numpy_blas, set_name)
    address = ctypes.cast(get, ctypes.c_void_p).value
    assert ctypes.cast(getattr(second, get_name), ctypes.c_void_p).value != address
    set_(2)
    # the lookup first ran at import, for a skipif mark, before copy was mapped
    training._openblas_threads.cache_clear()
    threads = set()

    def recording_stack(*args, **kwargs):
        threads.add(get())
        return stack_windows(*args, **kwargs)

    training.stack_windows = recording_stack
    steps = single_batch_steps()
    return sorted(threads), steps


def test_a_second_openblas_in_the_process_is_not_the_one_held(tmp_path):
    """A process that maps a second instance of numpy's OpenBLAS, from
    another file, after numpy: train_epoch still holds numpy's own at one
    thread, and single_batch_steps gives its golden bits. A lookup that
    picked the other instance left numpy's at 2 threads under both halves
    and gave another digest. The child imports the numpy this process
    runs, whose OpenBLAS file is copied; its dependencies are loaded
    already, so the copy needs no siblings."""
    blas = training._openblas_threads()
    original = _library_file(blas[0]) if blas is not None else None
    if original is None:
        pytest.skip("no OpenBLAS file reached through numpy")
    copy = tmp_path / os.path.basename(original)
    try:
        shutil.copyfile(original, copy)
    except OSError as error:
        pytest.skip(f"cannot copy numpy's OpenBLAS: {error}")
    path = os.pathsep.join([str(Path(__file__).parent),
                            str(Path(treehar.__file__).parents[1]),
                            str(Path(np.__file__).parents[1])])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2")
    child = subprocess.run(
        [sys.executable, "-c", "import json, sys, test_training; print(json.dumps("
         "test_training.steps_beside_a_second_openblas(*sys.argv[1:])))",
         original, str(copy), blas[0].__name__, blas[1].__name__],
        env=env, capture_output=True, text=True, check=True)
    threads, (_, digest) = json.loads(child.stdout)
    assert threads == [1]
    assert digest == "73047004e472b09006a6f033676a5cf4d50bf3ba339affb3727ec5fd89a9b82b"


def test_the_blas_lookup_opens_numpys_extension_only(monkeypatch):
    from numpy.linalg import _umath_linalg
    opened, cdll = [], ctypes.CDLL

    def spy(name, *args, **kwargs):
        opened.append(name)
        return cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", spy)
    training._openblas_threads.cache_clear()
    try:
        training._openblas_threads()
    finally:
        training._openblas_threads.cache_clear()
    assert opened == [_umath_linalg.__file__]


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # where os has no sched_getaffinity, the CPU count; where that is
    # unknown, one CPU, so the halves run in turn
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert training._usable_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert training._usable_cpus() == 1


def test_the_worker_half_runs_under_the_callers_numpy_error_state(monkeypatch):
    # weights of 1e200 overflow every half's forward: under the caller's
    # errstate that is the one NumericError, with no RuntimeWarning from
    # the worker thread, which would start at numpy's default error state
    # and, raised as an error, would be the NumericError's __context__
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    params = init_params(3, 37, seed=0)
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="batch loss diverged") as raised:
                train_epoch(_windows(40), params, AdamState(params),
                            TrainConfig(batch_size=16))
    assert raised.value.__context__ is None


def test_train_epoch_invariant_to_storage_order():
    import random

    config = TrainConfig(batch_size=16, epochs=1, seed=3)
    windows = _windows(60)
    shuffled = list(windows)
    random.Random(99).shuffle(shuffled)

    results = []
    for window_list in (windows, shuffled):
        params = init_params(3, 37, seed=1)
        state = AdamState(params)
        results.append(train_epoch(window_list, params, state, config, epoch=0))
    assert results[0] == results[1]


def test_train_epoch_rejects_non_finite_parameter():
    # TrainConfig rejects a NaN rate; set one past it to reach the check
    # that guards every Adam step
    params = init_params(3, 37, seed=0)
    config = TrainConfig(batch_size=16, epochs=1, seed=0)
    config.learning_rate = math.nan
    with pytest.raises(NumericError, match="layer1.feature.weight"):
        train_epoch(_windows(20), params, AdamState(params), config)


def test_train_epoch_empty_rejected():
    params = init_params(3, 37, seed=0)
    with pytest.raises(ValueError):
        train_epoch([], params, AdamState(params),
                    TrainConfig(epochs=1), epoch=0)


# ---------------------------------------------------------------------------
# fit and sweep


def test_fit_zero_epochs_returns_init(tmp_path):
    config = TrainConfig(epochs=0, seed=5)
    params, history = fit(_windows(20), config)
    reference = init_params(3, 37, seed=derive_seed(5, 1))
    for a, b in zip(params, reference):
        np.testing.assert_array_equal(a.value.data, b.value.data)
    assert history == []
    # train --epochs 0 writes the initial model and a header-only log
    out = tmp_path / "out"
    assert run(["train", "--data", str(make_corpus(tmp_path, files=3, events=30)),
                "--out", str(out), "--k", "3", "--epochs", "0", "--seed", "5"]) == 0
    assert (out / "loss_log.csv").read_text() == \
        "epoch,avg_loss,max_batch_loss,min_batch_loss\n"
    saved = model.load_params(out / "model.ckpt")
    for a, b in zip(saved, reference):
        np.testing.assert_array_equal(a.value.data, b.value.data)


def test_fit_loss_log_length_and_improvement(tmp_path):
    config = TrainConfig(batch_size=32, l2_weight=0.0, learning_rate=0.002,
                         epochs=5, seed=0)
    params, history = fit(_windows(80), config)
    assert len(history) == 5
    assert history[-1].avg_loss < history[0].avg_loss
    out = tmp_path / "out"
    assert run(["train", "--data", str(make_corpus(tmp_path, files=3, events=40)),
                "--out", str(out), "--k", "3", "--epochs", "5", "--alpha", "32",
                "--beta", "0", "--gamma", "0.002"]) == 0
    lines = (out / "loss_log.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[0] == "epoch,avg_loss,max_batch_loss,min_batch_loss"
    avg_losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert avg_losses[-1] < avg_losses[0]


def test_fit_empty_rejected():
    with pytest.raises(ValueError):
        fit([], TrainConfig(epochs=1))


def test_fit_takes_k_from_the_windows():
    params, _ = fit(_windows(12, k=4), TrainConfig(batch_size=8, epochs=1))
    assert params.k == 4


def test_fit_deterministic_end_to_end():
    config = TrainConfig(batch_size=16, epochs=2, seed=9)
    results = []
    for _ in range(2):
        params, history = fit(_windows(40), config)
        results.append((history,
                        [p.value.data.copy() for p in params]))
    assert results[0][0] == results[1][0]
    for a, b in zip(results[0][1], results[1][1]):
        np.testing.assert_array_equal(a, b)


def test_default_sweep_grid_is_75_points():
    assert DEFAULT_ALPHA_GRID == (64, 128, 256)
    assert DEFAULT_BETA_GRID == (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)
    assert DEFAULT_GAMMA_GRID == (0.0001, 0.0003, 0.0005, 0.0007, 0.0009)
    assert len(DEFAULT_ALPHA_GRID) * len(DEFAULT_BETA_GRID) \
        * len(DEFAULT_GAMMA_GRID) == 75


def test_sweep_runs_grid_and_writes_csv(tmp_path):
    grid = [(8, 0.0, 0.001), (8, 0.001, 0.001), (16, 0.0, 0.001), (16, 0.001, 0.001)]
    # a generator: sweep reads its configs once for the check, once to train
    configs = (TrainConfig(batch_size=alpha, l2_weight=beta, learning_rate=gamma,
                           epochs=2, seed=0) for alpha, beta, gamma in grid)
    rows = sweep(_windows(30), configs)
    assert [(r.alpha, r.beta, r.gamma) for r in rows] == grid
    for r in rows:
        assert r.min_loss <= r.avg_loss <= r.max_loss
    out = tmp_path / "out"
    assert run(["sweep", "--data", str(make_corpus(tmp_path, files=3, events=30)),
                "--out", str(out), "--k", "3", "--epochs", "2", "--alphas", "8,16",
                "--betas", "0.0,0.001", "--gammas", "0.001"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,gamma,max_loss,avg_loss,min_loss"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["8", "0.0", "0.001"], ["8", "0.001", "0.001"],
        ["16", "0.0", "0.001"], ["16", "0.001", "0.001"],
    ]
    for line in lines[1:]:
        max_loss, avg_loss, min_loss = map(float, line.split(",")[3:])
        assert min_loss <= avg_loss <= max_loss


def test_sweep_rejects_zero_tuning_epochs():
    with pytest.raises(ValueError, match="sweep epochs must be >= 1, got 0"):
        sweep(_windows(10), [TrainConfig(batch_size=8, epochs=0)])


def test_sweep_trains_every_config_on_a_generator_of_windows():
    windows = (w for w in _windows(20))
    rows = sweep(windows, [TrainConfig(batch_size=8, epochs=1),
                           TrainConfig(batch_size=16, epochs=1)])
    assert [r.alpha for r in rows] == [8, 16]


def test_sweep_checks_every_config_before_any_trains(monkeypatch):
    calls = []
    monkeypatch.setattr(training, "fit", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="got 0"):
        sweep(_windows(10), [TrainConfig(epochs=1), TrainConfig(epochs=0)])
    assert calls == []


def test_loss_log_round_trips_float_repr(tmp_path, monkeypatch):
    history = [EpochStats(0, 1.2345678901234567, 2.0, 0.5)]
    monkeypatch.setattr(training, "fit", lambda windows, config, **_: (
        init_params(len(windows[0].sensors), 37, seed=0), history))
    out = tmp_path / "out"
    assert run(["train", "--data", str(make_corpus(tmp_path, files=3, events=30)),
                "--out", str(out), "--k", "3"]) == 0
    value = (out / "loss_log.csv").read_text().splitlines()[1].split(",")[1]
    assert float(value) == 1.2345678901234567


def _blas_lookup_without_a_library(monkeypatch):
    def refuse(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    return training._openblas_threads.__wrapped__()   # past the cache


def _negative_epochs(monkeypatch):
    try:
        TrainConfig(epochs=-1)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("call, expected", [
    (_negative_epochs, "epochs must be nonnegative, got -1"),
    (_blas_lookup_without_a_library, None),
], ids=["negative-epochs", "no-blas-library"])
def test_contract_edges(monkeypatch, call, expected):
    """A negative epoch count is a ValueError; a linalg extension module
    that ctypes cannot open reads as no OpenBLAS, so the halves run in turn."""
    assert call(monkeypatch) == expected


@pytest.mark.parametrize("k", [2, 3])
def test_gradient_along_random_directions_matches_whole_model_oracle(k, monkeypatch):
    """<gradient, v> for 2 seeded random unit directions v over all of
    params.flat, against the central difference of the naive whole-model
    loss along v: for one tape over the batch, and for the two-half batch
    gradient that train_epoch hands adam_step. Every parameter moves in
    every direction. float64, 3 windows (halves of 2 and 1), the first k-1
    with PAD slots, every tensor off its init."""
    params = init_params(k, 37, seed=k)
    params.flat += np.random.default_rng(k).uniform(-0.05, 0.05, params.flat.size)
    windows = make_windows(_events(3), k=k, source="t")
    events, residents, activities = stack_windows(windows)
    config = TrainConfig(batch_size=len(windows))

    tape = Tape()
    _, resident_logits, activity_logits = forward_batch(events, params, tape)
    one_tape = gradient(batch_loss(resident_logits, activity_logits, residents,
                                   activities, params, config.l2_weight, tape),
                        tape, params)
    handed = []
    monkeypatch.setattr(training, "adam_step",
                        lambda params, state, rate: handed.append(params.grad.copy()))
    train_epoch(windows, params, AdamState(params), config)
    two_halves, = handed

    def naive_loss(flat):
        tensors = {p.name: p.value.data for p in ModelParams(k, 37, flat)}
        return naive_model_loss([w.sensors for w in windows], residents,
                                activities, tensors, config.l2_weight)[2]

    # the differences agree to 1e-10 relative; the L2 term's share of the
    # derivative, which a second copy of it in half 1 adds again, is 2e-4
    # to 4e-3
    rng, step = np.random.default_rng(100 + k), 1e-4
    for _ in range(2):
        v = rng.normal(size=params.flat.size)
        v /= np.linalg.norm(v)
        want = (naive_loss(params.flat + step * v)
                - naive_loss(params.flat - step * v)) / (2 * step)
        assert one_tape @ v == pytest.approx(want, rel=1e-7)
        assert two_halves @ v == pytest.approx(want, rel=1e-7)
