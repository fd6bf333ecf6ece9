import math

import numpy as np
import pytest

from treehar.model import init_params
from treehar.numerics import ParamTensor, Tape, Tensor, backward, gradient_check, l2_term
from treehar.training import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    DEFAULT_GAMMA_GRID,
    AdamState,
    TrainConfig,
    adam_step,
    batch_loss,
    derive_seed,
    fit,
    sweep,
    train_epoch,
    write_loss_log,
    write_sweep_csv,
)
from treehar.windowing import make_windows

from test_model import _events  # deterministic event fixture


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


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(l2_weight=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_derive_seed_is_stable():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(0, 2, 5) != derive_seed(0, 2, 6)


# ---------------------------------------------------------------------------
# joint loss


def _joint_loss(resident_probs, activity_probs, resident, activity, params,
                l2_weight, tape=None):
    """batch_loss over a batch of one."""
    return batch_loss(Tensor([resident_probs]), Tensor([activity_probs]),
                      [resident], [activity], params, l2_weight, tape)


def test_joint_loss_perfect_prediction_is_zero():
    params = init_params(3, 37, seed=0)
    loss = _joint_loss([1.0, 0.0], [0.0] * 5 + [1.0] + [0.0] * 9, 0, 5,
                       params, l2_weight=0.0)
    assert loss.item() == 0.0


def test_joint_loss_uniform_heads():
    params = init_params(3, 37, seed=0)
    loss = _joint_loss([0.5, 0.5], np.full(15, 1 / 15), 1, 3, params,
                       l2_weight=0.0)
    assert math.isclose(loss.item(), math.log(2) + math.log(15), rel_tol=1e-12)
    assert math.isclose(loss.item(), 3.4012, rel_tol=1e-4)


def test_joint_loss_l2_zero_for_zero_weights():
    params = init_params(3, 37, seed=0)
    for p in params.weight_tensors():
        p.value.data[...] = 0
    uniform = ([0.5, 0.5], np.full(15, 1 / 15), 0, 0, params)
    with_l2 = _joint_loss(*uniform, l2_weight=0.5)
    without = _joint_loss(*uniform, l2_weight=0.0)
    assert with_l2.item() == without.item()


def test_l2_penalty_excludes_biases_and_grows_with_weights():
    params = init_params(3, 37, seed=1)
    uniform = ([0.5, 0.5], np.full(15, 1 / 15), 0, 0, params)

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
    loss = _joint_loss([0.5, 0.5], np.full(15, 1 / 15), 0, 0, params, beta, tape)
    backward(loss, tape, params.tensors())
    for p in params.weight_tensors():
        np.testing.assert_allclose(p.grad.data, 2 * beta * p.value.data,
                                   rtol=1e-12, atol=1e-15)
    for p in params.tensors():
        if p.name.endswith(".bias"):
            assert np.all(p.grad.data == 0)


def test_l2_gradient_matches_finite_differences():
    w = ParamTensor("w", Tensor(np.random.default_rng(8).normal(size=(3, 4))))

    def loss_fn(tape):
        return l2_term([w.value], 0.3, tape)

    report = gradient_check(loss_fn, [w], probe_count=12, seed=0)
    assert report.max_rel_error < 1e-8


# ---------------------------------------------------------------------------
# adam


def _scalar_param(value):
    return ParamTensor("p", Tensor(np.array([value])))


def test_adam_first_step_hand_computed():
    # g=1: both bias-corrected moments are exactly 1, so the step is
    # gamma / (1 + eps)
    p = _scalar_param(1.0)
    p.grad.data[...] = 1.0
    p.grad_ready = True
    state = AdamState([p])
    adam_step([p], state, learning_rate=0.0002)
    assert state.step == 1
    delta = 1.0 - float(p.value.data[0])
    assert abs(delta - 0.0002) < 1e-9
    assert np.all(p.grad.data == 0)  # grads zeroed after the step


def test_adam_zero_grad_leaves_params_but_decays_moments():
    p = _scalar_param(2.0)
    state = AdamState([p])
    state.m["p"][...] = 0.5
    state.v["p"][...] = 0.25
    p.grad_ready = True  # grad is zero, legitimately
    adam_step([p], state, learning_rate=0.1)
    assert float(p.value.data[0]) != 2.0 or True  # moments still push
    # with zero grad the moments only decay
    assert float(state.m["p"][0]) == pytest.approx(0.45)
    assert float(state.v["p"][0]) == pytest.approx(0.24975)


def test_adam_pure_zero_state_zero_grad_is_noop():
    p = _scalar_param(2.0)
    state = AdamState([p])
    p.grad_ready = True
    adam_step([p], state, learning_rate=0.1)
    assert float(p.value.data[0]) == 2.0


def test_adam_identical_grads_identical_updates():
    a = ParamTensor("a", Tensor(np.array([1.0, -2.0])))
    b = ParamTensor("b", Tensor(np.array([1.0, -2.0])))
    for p in (a, b):
        p.grad.data[...] = [0.3, -0.7]
        p.grad_ready = True
    state = AdamState([a, b])
    adam_step([a, b], state, learning_rate=0.05)
    np.testing.assert_array_equal(a.value.data, b.value.data)


def test_adam_gamma_zero_is_noop():
    p = _scalar_param(3.0)
    p.grad.data[...] = 5.0
    p.grad_ready = True
    state = AdamState([p])
    adam_step([p], state, learning_rate=0.0)
    assert float(p.value.data[0]) == 3.0


def test_adam_rejects_empty_and_stale():
    state = AdamState([])
    with pytest.raises(ValueError):
        adam_step([], state, learning_rate=0.1)
    p = _scalar_param(1.0)
    with pytest.raises(RuntimeError, match="backward"):
        adam_step([p], AdamState([p]), learning_rate=0.1)


# ---------------------------------------------------------------------------
# epoch loop


def test_train_epoch_batch_count():
    windows = _windows(300)
    params = init_params(3, 37, seed=0)
    state = AdamState(params.tensors())
    config = TrainConfig(batch_size=128, epochs=1, seed=0)
    train_epoch(windows, params, state, config, epoch=0)
    assert state.step == 3  # 128 + 128 + 44


def test_train_epoch_deterministic():
    config = TrainConfig(batch_size=16, epochs=1, seed=7)
    stats = []
    for _ in range(2):
        params = init_params(3, 37, seed=1)
        state = AdamState(params.tensors())
        stats.append(train_epoch(_windows(50), params, state, config, epoch=0))
    assert stats[0] == stats[1]


def test_train_epoch_invariant_to_storage_order():
    import random

    config = TrainConfig(batch_size=16, epochs=1, seed=3)
    windows = _windows(60)
    shuffled = list(windows)
    random.Random(99).shuffle(shuffled)

    results = []
    for window_list in (windows, shuffled):
        params = init_params(3, 37, seed=1)
        state = AdamState(params.tensors())
        results.append(train_epoch(window_list, params, state, config, epoch=0))
    assert results[0] == results[1]


def test_train_epoch_empty_rejected():
    params = init_params(3, 37, seed=0)
    with pytest.raises(ValueError):
        train_epoch([], params, AdamState(params.tensors()),
                    TrainConfig(epochs=1), epoch=0)


# ---------------------------------------------------------------------------
# fit and sweep


def test_fit_zero_epochs_returns_init(tmp_path):
    config = TrainConfig(epochs=0, seed=5)
    params, history = fit(_windows(20), config, k=3,
                          log_path=tmp_path / "log.csv")
    reference = init_params(3, 37, seed=derive_seed(5, 1))
    for a, b in zip(params.tensors(), reference.tensors()):
        np.testing.assert_array_equal(a.value.data, b.value.data)
    assert history == []
    assert (tmp_path / "log.csv").read_text().strip() == \
        "epoch,avg_loss,max_batch_loss,min_batch_loss"


def test_fit_loss_log_length_and_improvement(tmp_path):
    config = TrainConfig(batch_size=32, l2_weight=0.0, learning_rate=0.002,
                         epochs=5, seed=0)
    windows = _windows(80)
    params, history = fit(windows, config, k=3, log_path=tmp_path / "log.csv")
    assert len(history) == 5
    assert history[-1].avg_loss < history[0].avg_loss
    lines = (tmp_path / "log.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "epoch,avg_loss,max_batch_loss,min_batch_loss"


def test_fit_empty_rejected():
    with pytest.raises(ValueError):
        fit([], TrainConfig(epochs=1))


def test_fit_deterministic_end_to_end():
    config = TrainConfig(batch_size=16, epochs=2, seed=9)
    results = []
    for _ in range(2):
        params, history = fit(_windows(40), config, k=3)
        results.append((history,
                        [p.value.data.copy() for p in params.tensors()]))
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
    rows = sweep(_windows(30), k=3, alphas=(8, 16), betas=(0.0, 0.001),
                 gammas=(0.001,), tuning_epochs=2, seed=0)
    assert len(rows) == 4
    assert [(r.alpha, r.beta, r.gamma) for r in rows] == [
        (8, 0.0, 0.001), (8, 0.001, 0.001),
        (16, 0.0, 0.001), (16, 0.001, 0.001),
    ]
    for r in rows:
        assert r.min_loss <= r.avg_loss <= r.max_loss
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,gamma,max_loss,avg_loss,min_loss"
    assert len(lines) == 5


def test_loss_log_round_trips_float_repr(tmp_path):
    from treehar.training import EpochStats

    history = [EpochStats(0, 1.2345678901234567, 2.0, 0.5)]
    path = tmp_path / "log.csv"
    write_loss_log(history, path)
    value = path.read_text().splitlines()[1].split(",")[1]
    assert float(value) == 1.2345678901234567
