import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehar.numerics import (
    NumericError,
    ParamTensor,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    conv1d,
    cross_entropy,
    dense,
    flatten,
    gradient_check,
    l2_term,
    mean,
    relu,
    softmax,
)

from oracles import naive_conv1d, naive_dense, naive_softmax


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Tensor basics


def test_tensor_rejects_rank_4():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_param_tensor_grad_shape_matches():
    p = ParamTensor("w", Tensor(np.ones((2, 3))))
    assert p.grad.shape == (2, 3)
    assert np.all(p.grad.data == 0)
    with pytest.raises(ShapeError):
        ParamTensor("w", Tensor(np.ones(3)), grad=Tensor(np.ones(4)))


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_zero_weights_zero_output():
    x = Tensor(rng().normal(size=(2, 3, 11)))
    w = Tensor(np.zeros((5, 3, 3)))
    b = Tensor(np.zeros(5))
    assert np.all(conv1d(x, w, b).data == 0)


def test_conv1d_hand_example():
    x = Tensor(np.array([[[0.0, 1.0, 0.0, 0.0, 0.0]]]))
    w = Tensor(np.ones((1, 1, 3)))
    b = Tensor(np.zeros(1))
    out = conv1d(x, w, b)
    assert out.data.tolist() == [[[1.0, 1.0, 1.0, 0.0, 0.0]]]


def test_conv1d_one_hot_shape():
    x = Tensor(np.eye(37)[None, :2])  # a batch of one (2, 37) one-hot
    w = Tensor(rng().normal(size=(16, 2, 3)))
    b = Tensor(np.zeros(16))
    assert conv1d(x, w, b).shape == (1, 16, 37)


@pytest.mark.parametrize("c_in,c_out,m,length", [
    (1, 1, 3, 1), (2, 3, 3, 7), (3, 2, 5, 9), (4, 4, 1, 5),
])
def test_conv1d_matches_naive(c_in, c_out, m, length):
    r = rng(c_in * 100 + c_out * 10 + m)
    x = r.normal(size=(3, c_in, length))
    w = r.normal(size=(c_out, c_in, m))
    b = r.normal(size=c_out)
    got = conv1d(Tensor(x), Tensor(w), Tensor(b)).data
    for i in range(3):
        want = naive_conv1d(x[i], w, b)
        np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)


def test_conv1d_batched_matches_per_sample():
    # a row's result does not depend on the rest of the batch: a batch of
    # one (as in predict) equals that row of a larger batch (as in eval)
    r = rng(5)
    x = r.normal(size=(4, 3, 9))
    w = Tensor(r.normal(size=(6, 3, 3)))
    b = Tensor(r.normal(size=6))
    batched = conv1d(Tensor(x), w, b).data
    for i in range(4):
        single = conv1d(Tensor(x[i:i + 1]), w, b).data
        np.testing.assert_array_equal(batched[i:i + 1], single)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ShapeError, match="odd"):
        conv1d(Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros((16, 1, 4))),
               Tensor(np.zeros(16)))


def test_conv1d_shape_errors_name_dimension():
    x = Tensor(np.zeros((1, 3, 5)))
    w = Tensor(np.zeros((2, 4, 3)))
    b = Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match="channels"):
        conv1d(x, w, b)
    with pytest.raises(ShapeError, match="bias"):
        conv1d(Tensor(np.zeros((1, 4, 5))), w, Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="rank 3"):
        conv1d(Tensor(np.zeros((4, 5))), w, b)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_conv1d_preserves_length(length, half_kernel):
    m = 2 * half_kernel + 1
    r = rng(length * 7 + m)
    x = Tensor(r.normal(size=(2, 2, length)))
    w = Tensor(r.normal(size=(3, 2, m)))
    b = Tensor(r.normal(size=3))
    assert conv1d(x, w, b).shape == (2, 3, length)


# ---------------------------------------------------------------------------
# relu / add / dense


def test_relu_examples():
    assert relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]
    assert np.all(relu(Tensor([-5.0, -0.1])).data == 0)
    x = Tensor([0.5, 3.0, 0.0])
    np.testing.assert_array_equal(relu(x).data, x.data)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_relu_idempotent(values):
    x = Tensor(values)
    once = relu(x)
    np.testing.assert_array_equal(relu(once).data, once.data)


def test_add_examples():
    a = Tensor([1.0, 2.0])
    assert add(a, Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]
    np.testing.assert_array_equal(add(a, Tensor([0.0, 0.0])).data, a.data)
    assert np.all(add(a, Tensor([-1.0, -2.0])).data == 0)
    with pytest.raises(ShapeError):
        add(a, Tensor([1.0, 2.0, 3.0]))


def test_dense_examples():
    x = Tensor([[2.0, 3.0]])
    identity = Tensor(np.eye(2))
    zero_b = Tensor(np.zeros(2))
    np.testing.assert_array_equal(dense(x, identity, zero_b).data, x.data)
    b = Tensor([7.0, -1.0])
    np.testing.assert_array_equal(dense(x, Tensor(np.zeros((2, 2))), b).data,
                                  b.data[None])
    w = Tensor(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert dense(x, w, zero_b).data.tolist() == [[5.0, -1.0]]
    with pytest.raises(ShapeError, match="rank 2"):
        dense(Tensor([2.0, 3.0]), identity, zero_b)


def test_dense_matches_naive():
    r = rng(11)
    x = r.normal(size=(3, 7))
    w = r.normal(size=(4, 7))
    b = r.normal(size=4)
    got = dense(Tensor(x), Tensor(w), Tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(got[i], naive_dense(x[i], w, b), rtol=1e-12)


def test_dense_batched_matches_per_sample():
    r = rng(12)
    x = r.normal(size=(5, 7))
    w = Tensor(r.normal(size=(4, 7)))
    b = Tensor(r.normal(size=4))
    batched = dense(Tensor(x), w, b).data
    for i in range(5):
        # BLAS may block a batch of one differently; equality is to roundoff
        np.testing.assert_allclose(batched[i:i + 1],
                                   dense(Tensor(x[i:i + 1]), w, b).data,
                                   rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# softmax / cross_entropy


def test_softmax_symmetry_examples():
    np.testing.assert_allclose(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    out = softmax(Tensor(np.zeros((2, 15)))).data
    np.testing.assert_allclose(out, np.full((2, 15), 1.0 / 15.0))


def test_softmax_matches_naive():
    logits = [[0.2, -1.5, 3.0, 0.0], [-4.0, 0.5, 0.5, 2.0]]
    got = softmax(Tensor(logits)).data
    for row, want in zip(got, logits):
        np.testing.assert_allclose(row, naive_softmax(want), rtol=1e-14)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=15),
       st.floats(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_softmax_distribution_and_shift_invariance(logits, shift):
    p = softmax(Tensor([logits])).data
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-12
    shifted = softmax(Tensor([[v + shift for v in logits]])).data
    np.testing.assert_allclose(shifted, p, atol=1e-12)


def test_softmax_overflow_safe():
    p = softmax(Tensor([[1000.0, 1000.0]])).data
    np.testing.assert_allclose(p, [[0.5, 0.5]])


def test_cross_entropy_values():
    assert cross_entropy(Tensor([[0.0, 1.0]]), [1]).item() == 0.0
    assert math.isclose(cross_entropy(Tensor([[0.5, 0.5]]), [0]).item(),
                        math.log(2), rel_tol=1e-12)
    uniform = Tensor(np.full((1, 15), 1.0 / 15.0))
    assert math.isclose(cross_entropy(uniform, [7]).item(),
                        math.log(15), rel_tol=1e-12)


def test_cross_entropy_clips_zero_probability():
    loss = cross_entropy(Tensor([[1.0, 0.0]]), [1]).item()
    assert math.isclose(loss, -math.log(1e-12), rel_tol=1e-12)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(IndexError):
        cross_entropy(Tensor([[0.5, 0.5]]), [2])
    with pytest.raises(IndexError):
        cross_entropy(Tensor(np.full((2, 3), 1 / 3)), [0, 5])
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.full((2, 3), 1 / 3)), [0])


def test_cross_entropy_batched_matches_single():
    r = rng(13)
    probs = r.dirichlet(np.ones(5), size=4)
    targets = [0, 3, 2, 4]
    batched = cross_entropy(Tensor(probs), targets).data
    for i in range(4):
        assert math.isclose(batched[i], -math.log(probs[i, targets[i]]),
                            rel_tol=1e-12)


# ---------------------------------------------------------------------------
# tape and backward


def test_backward_without_forward_rejected():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.gradients(Tensor(np.asarray(1.0)))


def test_backward_logits_gradient_closed_form():
    r = rng(2)
    x = Tensor(r.normal(size=(1, 6)))
    w = ParamTensor("w", Tensor(r.normal(size=(4, 6))))
    b = ParamTensor("b", Tensor(np.zeros(4)))
    tape = Tape()
    logits = dense(x, w.value, b.value, tape)
    probs = softmax(logits, tape)
    loss = mean(cross_entropy(probs, [2], tape), tape)
    backward(loss, tape, [w, b])
    expected = probs.data[0].copy()
    expected[2] -= 1.0
    np.testing.assert_allclose(tape.gradients(loss)[id(logits)][0], expected,
                               atol=1e-14)
    # bias feeds logits directly, so its gradient is the same vector
    np.testing.assert_allclose(b.grad.data, expected, atol=1e-14)


def test_backward_constant_loss_gives_zero_grads():
    p = ParamTensor("w", Tensor(np.ones(3)))
    tape = Tape()
    const = Tensor(np.asarray(2.0))
    loss = mean(const, tape)  # recorded op, but no parameter on path
    backward(loss, tape, [p])
    assert np.all(p.grad.data == 0)
    assert p.grad_ready


def test_backward_linearity_over_sum_of_losses():
    r = rng(4)
    x = Tensor(r.normal(size=(1, 5)))
    w = ParamTensor("w", Tensor(r.normal(size=(3, 5))))
    b = ParamTensor("b", Tensor(r.normal(size=3)))

    def loss_for(target, tape):
        return mean(cross_entropy(
            softmax(dense(x, w.value, b.value, tape), tape), [target], tape), tape)

    grads = {}
    for target in (0, 1):
        w.zero_grad(), b.zero_grad()
        tape = Tape()
        backward(loss_for(target, tape), tape, [w, b])
        grads[target] = w.grad.data.copy()

    w.zero_grad(), b.zero_grad()
    tape = Tape()
    total = add(loss_for(0, tape), loss_for(1, tape), tape)
    backward(total, tape, [w, b])
    np.testing.assert_allclose(w.grad.data, grads[0] + grads[1], atol=1e-12)


def test_grad_accumulates_across_backward_calls():
    w = ParamTensor("w", Tensor(np.array([2.0])))
    for _ in range(2):
        tape = Tape()
        loss = l2_term([w.value], 1.0, tape)
        backward(loss, tape, [w])
    np.testing.assert_allclose(w.grad.data, [8.0])  # 2 * (2w) with w=2


def test_mean_and_sum_squares_and_flatten_grads():
    x = ParamTensor("x", Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
    tape = Tape()
    m = mean(flatten(x.value, tape), tape)
    backward(m, tape, [x])
    np.testing.assert_allclose(x.grad.data, np.full((1, 2, 2), 0.25))

    x.zero_grad()
    y = ParamTensor("y", Tensor(np.array([-1.0, 0.5])))
    tape = Tape()
    s = l2_term([x.value, y.value], 0.5, tape)
    assert s.item() == 0.5 * (30.0 + 1.25)
    backward(s, tape, [x, y])
    np.testing.assert_allclose(x.grad.data, x.value.data)
    np.testing.assert_allclose(y.grad.data, y.value.data)


def test_flatten_is_channel_major():
    x = Tensor(np.arange(6.0).reshape(1, 2, 3))
    assert flatten(x).data.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]


# ---------------------------------------------------------------------------
# finite-difference property checks


def _random_net_loss(seed):
    """Small random two-layer conv net; returns (loss_fn, params).

    Weight scales keep the softmax unsaturated: near-zero probabilities
    blow up the loss curvature and drown the finite-difference signal in
    truncation error.
    """
    r = rng(seed)
    x = Tensor(r.normal(size=(2, 2, 9)))
    params = [
        ParamTensor("c1w", Tensor(r.normal(size=(3, 2, 3)) * 0.4)),
        ParamTensor("c1b", Tensor(r.normal(size=3) * 0.2)),
        ParamTensor("c2w", Tensor(r.normal(size=(3, 3, 3)) * 0.4)),
        ParamTensor("c2b", Tensor(r.normal(size=3) * 0.2)),
        ParamTensor("dw", Tensor(r.normal(size=(4, 27)) * 0.15)),
        ParamTensor("db", Tensor(r.normal(size=4) * 0.2)),
    ]

    def loss_fn(tape):
        c1w, c1b, c2w, c2b, dw, db = params
        h = relu(conv1d(x, c1w.value, c1b.value, tape=tape), tape)
        h2 = conv1d(h, c2w.value, c2b.value, tape=tape)
        merged = relu(add(h, h2, tape), tape)
        logits = dense(flatten(merged, tape), dw.value, db.value, tape)
        ce = mean(cross_entropy(softmax(logits, tape), [1, 3], tape), tape)
        return add(ce, l2_term([c1w.value, dw.value], 0.01, tape), tape)

    return loss_fn, params


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_gradients_match_finite_differences(seed):
    loss_fn, params = _random_net_loss(seed)
    report = gradient_check(loss_fn, params, probe_count=40, seed=seed)
    assert report.max_rel_error < 1e-4


def test_gradient_check_linear_model_tight():
    # loss linear in every parameter, so the central difference is exact
    # up to float roundoff
    r = rng(21)
    x = Tensor(r.normal(size=(2, 6)))
    w = ParamTensor("w", Tensor(r.normal(size=(3, 6))))
    b = ParamTensor("b", Tensor(r.normal(size=3)))

    def loss_fn(tape):
        return mean(dense(x, w.value, b.value, tape), tape)

    report = gradient_check(loss_fn, [w, b], probe_count=18, seed=0)
    assert report.max_rel_error < 1e-8


def test_gradient_check_flat_loss_probe():
    unused = ParamTensor("unused", Tensor(np.ones(4)))
    const = Tensor(np.asarray(3.0))

    def loss_fn(tape):
        return mean(const, tape)

    report = gradient_check(loss_fn, [unused], probe_count=5, seed=0)
    assert report.max_rel_error == 0.0
    assert all(p.analytic == 0.0 and p.numeric == 0.0 for p in report.probes)


def test_gradient_check_rejects_nondeterministic_model():
    state = {"n": 0}
    p = ParamTensor("w", Tensor(np.ones(1)))

    def loss_fn(tape):
        state["n"] += 1
        return mean(Tensor(np.asarray(float(state["n"]))), tape)

    with pytest.raises(NumericError, match="deterministic"):
        gradient_check(loss_fn, [p], probe_count=1)
