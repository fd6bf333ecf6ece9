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
    Workspace,
    add,
    backward,
    conv1d,
    dense,
    flatten,
    gradient_check,
    joint_loss,
)

from treehar import model, training

from oracles import (naive_conv1d, naive_dense, naive_log_softmax_ce, naive_relu,
                     naive_softmax)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Tensor basics


def test_tensor_rejects_rank_4():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2)))


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


def _conv_energy(x, w, b, tape=None):
    # half the summed squared output: quadratic in each operand, so a
    # central difference is exact up to roundoff, and the gradient reaching
    # the conv (its own output) differs from sample to sample
    return joint_loss([], [flatten(conv1d(x, w, b, tape), tape)], 0.5, tape)


@pytest.mark.parametrize("c_in", [1, 2])
@pytest.mark.parametrize("length", [1, 2, 9])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_conv1d_gradients_match_finite_differences(m, length, c_in):
    # a batch of 3, so a sample has neighbours on both sides; with
    # pad >= length two zero borders meet between samples
    r = rng(m * 100 + length * 10 + c_in)
    x = ParamTensor("x", Tensor(r.normal(size=(3, c_in, length))))
    w = ParamTensor("w", Tensor(r.normal(size=(2, c_in, m))))
    b = ParamTensor("b", Tensor(r.normal(size=2)))
    tape = Tape()
    table = tape.gradients(_conv_energy(x.value, w.value, b.value, tape))
    h = 1e-3
    for p in (x, w, b):
        numeric = np.empty(p.value.shape)
        for i in range(p.value.size):
            orig = p.value.data.flat[i]
            p.value.data.flat[i] = orig + h
            plus = _conv_energy(x.value, w.value, b.value).item()
            p.value.data.flat[i] = orig - h
            minus = _conv_energy(x.value, w.value, b.value).item()
            p.value.data.flat[i] = orig
            numeric.flat[i] = (plus - minus) / (2 * h)
        np.testing.assert_allclose(table[id(p.value)], numeric, rtol=1e-7,
                                   atol=1e-9, err_msg=p.name)


@pytest.mark.parametrize("m,length", [(1, 1), (3, 9), (5, 2)])
def test_conv1d_input_gradient_batched_matches_per_sample(m, length):
    # BLAS may block a batch of one differently; equality is to roundoff
    r = rng(7)
    x = r.normal(size=(4, 3, length))
    w = Tensor(r.normal(size=(6, 3, m)))
    b = Tensor(r.normal(size=6))

    def input_gradient(rows):
        xt = Tensor(rows)
        tape = Tape()
        return tape.gradients(_conv_energy(xt, w, b, tape))[id(xt)]

    batched = input_gradient(x)
    for i in range(4):
        np.testing.assert_allclose(batched[i:i + 1], input_gradient(x[i:i + 1]),
                                   rtol=1e-12, atol=0)


class _KeepingTape(Tape):
    """A tape that keeps the last backward closure, so that it can be
    called alone."""

    def record(self, out, bwd):
        self.bwd = bwd
        super().record(out, bwd)


class _TableTape(Tape):
    """A tape that keeps the gradient table of its last walk."""

    def gradients(self, loss):
        self.table = super().gradients(loss)
        return self.table


class _HandoverTape(Tape):
    """A tape that lists every (tensor, gradient) pair its backward
    closures hand over, before the tape sums them. It draws from no
    workspace, so a listed array is never released and handed out again."""

    def __init__(self):
        super().__init__()
        self.handed = []

    def handed_to(self, t):
        return [g for u, g in self.handed if u is t]

    def record(self, out, bwd):
        def listed(g, acc):
            def hand(t, v):
                self.handed.append((t, v))
                acc(t, v)
            bwd(g, hand)
        super().record(out, listed)


def _zero_bordered(buf, pad, length):
    cube = buf.reshape(buf.shape[0], -1, length + 2 * pad)
    return bool(np.all(cube[:, :, :pad] == 0) and np.all(cube[:, :, pad + length:] == 0))


@pytest.mark.parametrize("batch,c_out,m,length", [
    (3, 3, 1, 4),   # pad 0 and batch == c_out: (batch, c_out, L) has the buffer's shape
    (2, 3, 3, 5), (4, 2, 5, 2),
])
@pytest.mark.parametrize("bordered_input", [False, True], ids=["plain-x", "buffer-x"])
def test_conv1d_backward_takes_plain_and_buffer_gradients_alike(batch, c_out, m, length,
                                                                 bordered_input):
    r = rng(batch * 100 + m * 10 + length)
    x = Tensor(r.normal(size=(batch, 2, length)))
    if bordered_input:
        # the output of a conv with the same padding hands the next conv its buffer
        x = conv1d(x, Tensor(r.normal(size=(2, 2, m))), Tensor(r.normal(size=2)))
        assert x.buf is not None and x.pad == (m - 1) // 2
    w = Tensor(r.normal(size=(c_out, 2, m)))
    b = Tensor(r.normal(size=c_out))
    tape = _KeepingTape()
    out = conv1d(x, w, b, tape)
    pad = (m - 1) // 2
    assert out.buf.shape == (c_out, batch * (length + 2 * pad)) and out.pad == pad
    g = r.normal(size=(batch, c_out, length))
    g_buf = np.zeros((c_out, batch, length + 2 * pad))
    g_buf[:, :, pad:pad + length] = g.transpose(1, 0, 2)
    g_buf = g_buf.reshape(c_out, -1)

    def gradients(grad):
        got = {}
        tape.bwd(grad, lambda t, v: got.setdefault(id(t), v.copy()))
        return got

    plain, buffered = gradients(g), gradients(g_buf)
    for t in (w, b, x):
        np.testing.assert_array_equal(plain[id(t)], buffered[id(t)])
    gx = plain[id(x)]
    if bordered_input:
        assert gx.shape == x.buf.shape and _zero_bordered(gx, pad, length)
    else:
        assert gx.shape == x.shape


def test_add_of_buffer_and_plain_tensors():
    r = rng(11)
    x = Tensor(r.normal(size=(2, 3, 4)))
    w = ParamTensor("w", Tensor(r.normal(size=(3, 3, 3))))
    b = ParamTensor("b", Tensor(r.normal(size=3)))
    plain = Tensor(r.normal(size=(2, 3, 4)))
    # the same values as a buffer: a conv whose kernel copies its input
    identity = np.zeros((3, 3, 3))
    identity[:, :, 1] = np.eye(3)
    as_buffer = conv1d(plain, Tensor(identity), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(as_buffer.data, plain.data)

    tape = _HandoverTape()
    a = conv1d(x, w.value, b.value, tape)
    total = add(a, as_buffer, tape)
    assert total.buf is not None
    np.testing.assert_array_equal(total.data, a.data + plain.data)
    loss = joint_loss([], [flatten(total, tape)], 0.5, tape)
    table = tape.gradients(loss)
    # the gradient of half the squared sum is the sum itself, in the
    # buffer layout of each operand, handed to each once; a's entry leaves
    # the table once a's conv has consumed it, as_buffer's stays
    for t in (a, as_buffer):
        (g,) = tape.handed_to(t)
        np.testing.assert_array_equal(
            g.reshape(3, 2, 6)[:, :, 1:5].transpose(1, 0, 2), total.data)
    assert id(a) not in table and table[id(as_buffer)] is g
    # a plain operand, or buffers of another pad, are refused, not converted
    with pytest.raises(ShapeError, match="activation"):
        add(a, plain, Tape())
    with pytest.raises(ShapeError, match="layouts"):
        add(a, _activation(plain.data), Tape())


@pytest.mark.parametrize("m,dtype,match", [
    (5, np.float32, "pad 1 .* pad 2"),               # an m=3 conv's output, m=5 conv
    (3, np.float64, "dtype float32.* dtype float64"),  # float32 output, float64 weights
], ids=["pad", "dtype"])
def test_conv1d_refuses_a_buffer_in_another_layout(m, dtype, match):
    # a buffer-backed input is read as it is or refused, never copied
    r = rng(12)
    h = conv1d(Tensor(r.normal(size=(2, 2, 6)).astype(np.float32)),
               Tensor(r.normal(size=(2, 2, 3)).astype(np.float32)),
               Tensor(np.zeros(2, dtype=np.float32)))
    assert (h.pad, h.buf.dtype) == (1, np.float32)
    with pytest.raises(ShapeError, match=match):
        conv1d(h, Tensor(r.normal(size=(2, 2, m)).astype(dtype)),
               Tensor(np.zeros(2, dtype=dtype)), Tape())


@pytest.mark.parametrize("x_dtype,w_dtype", [(np.float32, np.float64),
                                             (np.float64, np.float32)])
def test_conv1d_refuses_a_plain_input_of_another_dtype(x_dtype, w_dtype):
    # a plain input is copied into the conv's layout, never cast to its dtype
    with pytest.raises(ShapeError, match=f"dtype {np.dtype(x_dtype).name}.*"
                                         f"{np.dtype(w_dtype).name}"):
        conv1d(Tensor(np.ones((2, 1, 5), dtype=x_dtype)),
               Tensor(np.ones((2, 1, 3), dtype=w_dtype)),
               Tensor(np.zeros(2, dtype=w_dtype)), Tape())


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
# relu epilogues / add / dense


def _activation(values, m=1):
    """values, (batch, C, L), as an activation on a buffer of pad
    (m - 1) / 2: the output of a conv whose kernel copies its input."""
    x = Tensor(values)
    channels = x.shape[1]
    kernel = np.zeros((channels, channels, m), dtype=x.dtype)
    kernel[:, :, m // 2] = np.eye(channels)
    return conv1d(x, Tensor(kernel), Tensor(np.zeros(channels, dtype=x.dtype)))


def _relu_of(values):
    """ReLU of a row of values, as the add epilogue gives it."""
    row = np.asarray(values, dtype=np.float64)[None, None, :]
    return add(_activation(row), _activation(np.zeros_like(row)), relu=True).data[0, 0]


def test_relu_examples():
    assert _relu_of([-1.0, 0.0, 2.0]).tolist() == [0.0, 0.0, 2.0]
    assert np.all(_relu_of([-5.0, -0.1]) == 0)
    assert _relu_of([0.5, 3.0, 0.0]).tolist() == [0.5, 3.0, 0.0]
    # a 1x1 identity kernel: the conv epilogue clamps the same way
    one = conv1d(Tensor([[[-1.0, 0.0, 2.0]]]), Tensor(np.ones((1, 1, 1))),
                 Tensor(np.zeros(1)), relu=True)
    assert one.data.tolist() == [[[0.0, 0.0, 2.0]]]


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_relu_idempotent(values):
    once = _relu_of(values)
    np.testing.assert_array_equal(_relu_of(once), once)
    identity = (Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1)))
    conv_once = conv1d(Tensor(once[None, None, :]), *identity, relu=True)
    np.testing.assert_array_equal(conv1d(conv_once, *identity, relu=True).data,
                                  conv_once.data)


def _small_integers(r, size, low, high, dtype):
    # small integers keep every product and sum exact, so pre-activations
    # that are exactly 0 occur and compare exactly
    return r.integers(low, high + 1, size=size).astype(dtype)


def _collect(bwd, g):
    got = {}
    bwd(g, lambda t, v: got.setdefault(id(t), v.copy()))
    return got


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bordered_gradient", [False, True], ids=["plain-g", "buffer-g"])
def test_conv1d_relu_matches_oracle(dtype, bordered_gradient):
    r = rng(31)
    x = _small_integers(r, (3, 2, 6), -2, 2, dtype)
    w = _small_integers(r, (4, 2, 3), -1, 1, dtype)
    b = _small_integers(r, 4, -1, 1, dtype)
    pre = np.stack([naive_conv1d(x[i], w, b) for i in range(3)])
    assert np.any(pre == 0) and np.any(pre > 0) and np.any(pre < 0)

    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    tape = _KeepingTape()
    out = conv1d(xt, wt, bt, tape, relu=True)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, naive_relu(pre))

    # the fused backward equals the plain conv's backward handed the
    # gradient masked by pre > 0: a pre-activation of exactly 0 passes none
    g = _small_integers(r, (3, 4, 6), 1, 3, dtype)
    masked = g * (pre > 0)
    if bordered_gradient:
        g = np.pad(g.transpose(1, 0, 2), ((0, 0), (0, 0), (1, 1))).reshape(4, -1)
    g_before = g.copy()
    fused = _collect(tape.bwd, g)
    np.testing.assert_array_equal(g, g_before)   # g is never written

    plain_tape = _KeepingTape()
    conv1d(xt, wt, bt, plain_tape)
    want = _collect(plain_tape.bwd, masked)
    np.testing.assert_array_equal(fused[id(bt)], masked.sum(axis=(0, 2)))
    for t in (bt, wt, xt):
        np.testing.assert_array_equal(fused[id(t)], want[id(t)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_add_relu_matches_oracle(dtype):
    r = rng(32)
    a_values = _small_integers(r, (3, 2, 5), -2, 2, dtype)
    b_values = _small_integers(r, (3, 2, 5), -2, 2, dtype)
    total = a_values + b_values
    assert np.any(total == 0) and np.any(total > 0) and np.any(total < 0)
    a, b = _activation(a_values, m=3), _activation(b_values, m=3)

    tape = _KeepingTape()
    out = add(a, b, tape, relu=True)
    assert out.dtype == dtype and out.buf is not None
    np.testing.assert_array_equal(out.data, naive_relu(total))

    g = _small_integers(r, out.buf.shape, 1, 3, dtype)
    g_before = g.copy()
    got = _collect(tape.bwd, g)
    np.testing.assert_array_equal(g, g_before)   # g is never written
    # in the buffer layout, whose borders pass no gradient
    mask = np.pad((total > 0).transpose(1, 0, 2), ((0, 0), (0, 0), (1, 1))).reshape(2, -1)
    for t in (a, b):
        np.testing.assert_array_equal(got[id(t)], g * mask)


def test_add_examples():
    a = _activation([[[1.0, 2.0]]])
    assert add(a, _activation([[[3.0, 4.0]]])).data.tolist() == [[[4.0, 6.0]]]
    np.testing.assert_array_equal(add(a, _activation([[[0.0, 0.0]]])).data, a.data)
    assert np.all(add(a, _activation([[[-1.0, -2.0]]])).data == 0)
    with pytest.raises(ShapeError):
        add(a, _activation([[[1.0, 2.0, 3.0]]]))


def test_add_and_flatten_refuse_plain_operands():
    plain = Tensor(np.ones((2, 3, 4)))
    activation = _activation(plain.data, m=3)
    for call in (lambda: add(plain, plain), lambda: add(activation, plain),
                 lambda: add(plain, activation, Tape()), lambda: flatten(plain),
                 lambda: flatten(plain, Tape())):
        with pytest.raises(ShapeError, match="activation"):
            call()
    # and the loss's L2 part refuses an activation, whose gradient it could
    # not hand over in the buffer layout
    with pytest.raises(ShapeError, match="plain"):
        joint_loss([], [activation], 1.0, Tape())


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
# joint_loss: each head's softmax cross-entropy, whose softmax exists only
# in the logits gradient, (softmax - onehot) / batch, and the L2 part


def _ce_logits_grad(logits, targets):
    x = Tensor(logits)
    tape = Tape()
    return tape.gradients(joint_loss([(x, targets)], tape=tape))[id(x)]


def _naive_ce_grad(logits, targets):
    want = np.array([naive_softmax(row) for row in logits])
    want[np.arange(len(targets)), targets] -= 1.0
    return want / len(targets)


def test_softmax_symmetry_examples():
    """Zero logits: a uniform softmax, so the gradient is (1/K - onehot) / n."""
    np.testing.assert_allclose(_ce_logits_grad(np.zeros((1, 2)), [0]), [[-0.5, 0.5]])
    want = np.full((2, 15), 1.0 / 15.0)
    want[[0, 1], [3, 14]] -= 1.0
    np.testing.assert_allclose(_ce_logits_grad(np.zeros((2, 15)), [3, 14]), want / 2)


def test_softmax_matches_naive():
    logits = [[0.2, -1.5, 3.0, 0.0], [-4.0, 0.5, 0.5, 2.0]]
    np.testing.assert_allclose(_ce_logits_grad(logits, [1, 3]),
                               _naive_ce_grad(logits, [1, 3]),
                               rtol=1e-14, atol=1e-16)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=15),
       st.floats(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_softmax_distribution_and_shift_invariance(logits, shift):
    """softmax - onehot: the target's entry in [-1, 0], the others in
    [0, 1], the row summing to 0, and no change when the row is shifted."""
    g = _ce_logits_grad([logits], [0])
    assert -1.0 <= g[0, 0] <= 0.0
    assert np.all((g[0, 1:] >= 0) & (g[0, 1:] <= 1))
    assert abs(g.sum()) < 1e-12
    shifted = _ce_logits_grad([[v + shift for v in logits]], [0])
    np.testing.assert_allclose(shifted, g, atol=1e-12)


def test_softmax_overflow_safe():
    g = _ce_logits_grad([[1000.0, 1000.0]], [1])
    assert np.isfinite(g).all()
    np.testing.assert_allclose(g, [[0.5, -0.5]])


def test_cross_entropy_values():
    assert joint_loss([(Tensor([[0.0, 200.0]]), [1])]).item() == 0.0
    assert math.isclose(joint_loss([(Tensor([[0.0, 0.0]]), [0])]).item(),
                        math.log(2), rel_tol=1e-12)
    assert math.isclose(joint_loss([(Tensor(np.zeros((3, 15))), [7, 0, 14])]).item(),
                        math.log(15), rel_tol=1e-12)
    # max-subtracted: logits that would overflow exp are fine
    assert math.isclose(joint_loss([(Tensor([[1000.0, 1000.0]]), [1])]).item(),
                        math.log(2), rel_tol=1e-12)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(IndexError):
        joint_loss([(Tensor([[0.5, 0.5]]), [2])])
    with pytest.raises(IndexError):
        joint_loss([(Tensor(np.zeros((2, 3))), [0, 5])])
    with pytest.raises(IndexError):
        joint_loss([(Tensor(np.zeros((2, 3))), [0, -1])])
    with pytest.raises(ShapeError):
        joint_loss([(Tensor(np.zeros((2, 3))), [0])])
    with pytest.raises(ShapeError):
        joint_loss([(Tensor(np.zeros(3)), [0])])
    with pytest.raises(ShapeError):
        joint_loss([(Tensor(np.zeros((0, 3))), [])])


def test_cross_entropy_batched_matches_single():
    r = rng(13)
    logits = r.normal(size=(4, 5)) * 3
    targets = [0, 3, 2, 4]
    batched = joint_loss([(Tensor(logits), targets)]).item()
    singles = [joint_loss([(Tensor(logits[i:i + 1]), [targets[i]])]).item()
               for i in range(4)]
    assert math.isclose(batched, math.fsum(singles) / 4, rel_tol=1e-12)


@pytest.mark.parametrize("scale", [0.1, 3.0, 40.0])
def test_softmax_cross_entropy_matches_naive_oracle(scale):
    r = rng(17)
    logits = r.normal(size=(6, 15)) * scale
    targets = r.integers(0, 15, size=6)
    got = joint_loss([(Tensor(logits), targets)]).item()
    want = naive_log_softmax_ce(logits.tolist(), targets.tolist())
    assert math.isclose(got, want, rel_tol=1e-12)


def test_softmax_cross_entropy_equals_softmax_then_log_where_unsaturated():
    # -log of the softmax's target probability, averaged, wherever every
    # target probability is above 1e-12
    r = rng(19)
    logits = r.normal(size=(8, 15)) * 2
    targets = r.integers(0, 15, size=8)
    p_target = [naive_softmax(row)[t] for row, t in zip(logits, targets)]
    assert min(p_target) > 1e-12
    want = -np.mean(np.log(p_target))
    got = joint_loss([(Tensor(logits), targets)]).item()
    assert math.isclose(got, want, rel_tol=1e-12)


def test_softmax_cross_entropy_gradient_where_target_probability_is_tiny():
    # row 0's target has probability ~e^-60 < 1e-12: a clipped -log p
    # would give it no gradient at all
    logits = np.array([[30.0, -30.0, 0.0], [0.5, -0.2, 0.1]])
    targets = [1, 2]
    assert naive_softmax(logits[0])[1] < 1e-12
    got = _ce_logits_grad(logits, targets)
    np.testing.assert_allclose(got, _naive_ce_grad(logits, targets),
                               rtol=1e-12, atol=1e-15)
    assert abs(got[0, 1]) > 0.49


def test_softmax_cross_entropy_keeps_float32():
    x = Tensor(np.zeros((2, 15), dtype=np.float32))
    tape = Tape()
    loss = joint_loss([(x, [3, 4])], tape=tape)
    assert loss.dtype == np.float32
    assert tape.gradients(loss)[id(x)].dtype == np.float32


def _two_heads_and_weights(seed):
    r = rng(seed)
    return [
        ParamTensor("resident", Tensor(r.normal(size=(3, 2)) * 2)),
        ParamTensor("activity", Tensor(r.normal(size=(3, 15)) * 2)),
        ParamTensor("w1", Tensor(r.normal(size=(4, 2, 3)))),
        ParamTensor("w2", Tensor(r.normal(size=(5, 6)))),
    ]


def test_joint_loss_sums_its_parts_in_order():
    # (head 1 + head 2) + c * (sum of squares): bit for bit the parts
    # computed alone and added in that order
    resident, activity, w1, w2 = (p.value for p in _two_heads_and_weights(5))
    heads = [(resident, [0, 1, 1]), (activity, [14, 0, 7])]
    parts = [joint_loss(heads[:1]).item(), joint_loss(heads[1:]).item(),
             joint_loss([], [w1, w2], 0.01).item()]
    assert joint_loss(heads, [w1, w2], 0.01).item() == (parts[0] + parts[1]) + parts[2]
    assert parts[2] == 0.01 * ((w1.data ** 2).sum() + (w2.data ** 2).sum())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_joint_loss_gradients_match_finite_differences(seed):
    # both heads and an L2 set at once, at float64
    params = _two_heads_and_weights(seed)
    resident, activity, w1, w2 = params

    def loss_fn(tape):
        return joint_loss([(resident.value, [0, 1, 1]), (activity.value, [14, 0, 7])],
                          [w1.value, w2.value], 0.3, tape)

    report = gradient_check(loss_fn, params, probe_count=60, seed=seed)
    assert report.max_rel_error < 1e-7


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
    tape = _HandoverTape()
    logits = dense(x, w.value, b.value, tape)
    loss = joint_loss([(logits, [2])], tape=tape)
    table = tape.gradients(loss)
    expected = naive_softmax(logits.data[0])
    expected[2] -= 1.0
    (g,) = tape.handed_to(logits)
    np.testing.assert_allclose(g[0], expected, atol=1e-14)
    # bias feeds logits directly, so its gradient is the same vector
    np.testing.assert_allclose(table[id(b.value)], expected, atol=1e-14)


def test_backward_constant_loss_gives_zero_grads():
    params = model.init_params(2, 5, seed=0)
    tape = Tape()
    const = Tensor(np.asarray(2.0))
    loss = joint_loss([], [const], 1.0, tape)  # recorded op, but no parameter on path
    assert params.grad is None
    backward(loss, tape, params)
    assert params.grad.shape == params.flat.shape and np.all(params.grad == 0)


def test_backward_linearity_over_sum_of_losses():
    r = rng(4)
    x = Tensor(r.normal(size=(1, 5)))
    w = ParamTensor("w", Tensor(r.normal(size=(3, 5))))
    b = ParamTensor("b", Tensor(r.normal(size=3)))

    def head(target, tape):
        return dense(x, w.value, b.value, tape), [target]

    grads = {}
    for target in (0, 1):
        tape = Tape()
        grads[target] = tape.gradients(
            joint_loss([head(target, tape)], tape=tape))[id(w.value)]

    tape = Tape()
    total = joint_loss([head(0, tape), head(1, tape)], tape=tape)
    np.testing.assert_allclose(tape.gradients(total)[id(w.value)],
                               grads[0] + grads[1], atol=1e-12)


def test_backward_sets_each_grad_to_the_tapes_array():
    # no accumulation: every backward sets a grad of flat's shape and
    # dtype whose view of each tensor equals the table's array
    loss_fn, params = _tree_net_loss(3)
    for _ in range(2):
        tape = _TableTape()
        backward(loss_fn(tape), tape, params)
        assert (params.grad.shape, params.grad.dtype) == (params.flat.shape,
                                                          params.flat.dtype)
        for p, grad in zip(params, params.views(params.grad)):
            np.testing.assert_array_equal(grad, tape.table[id(p.value)], p.name)


def test_backward_leaves_zeros_where_the_loss_does_not_reach():
    # a full backward, then one of a loss that reaches only the heads: no
    # term of the first survives in any other tensor's view
    params = model.init_params(3, 5, seed=3)
    events = rng(3).normal(size=(3, 3, 5))
    residents, activities = [0, 1, 1], [2, 0, 14]
    tape = Tape()
    _, resident, activity = model.forward_batch(events, params, tape)
    backward(training.batch_loss(resident, activity, residents, activities,
                                 params, 0.01, tape), tape, params)
    assert all(np.any(grad != 0) for grad in params.views(params.grad))

    features, _, _ = model.forward_batch(events, params)
    tape = _TableTape()
    resident, activity = model.head_probs(features, params, tape)
    backward(training.batch_loss(resident, activity, residents, activities,
                                 params, 0.0, tape), tape, params)
    for p, grad in zip(params, params.views(params.grad)):
        if p.name.startswith("head_"):
            np.testing.assert_array_equal(grad, tape.table[id(p.value)], p.name)
        else:
            assert np.all(grad == 0), p.name


def test_grad_outlives_the_tape_and_its_workspace():
    # the weights' gradient sums come from the workspace; the forward of an
    # eight times larger batch on the next tape writes past all of the step's
    # memory, gradients included
    params = model.init_params(3, 5, seed=4)
    ws = Workspace()
    tape = Tape(ws)
    _, resident, activity = model.forward_batch(rng(4).normal(size=(3, 3, 5)),
                                                params, tape)
    backward(training.batch_loss(resident, activity, [0, 1, 1], [2, 0, 14],
                                 params, 0.01, tape), tape, params)
    kept = params.grad.copy()
    model.forward_batch(rng(5).normal(size=(24, 3, 5)), params, Tape(ws))
    np.testing.assert_array_equal(params.grad, kept)


def test_sum_squares_and_flatten_grads():
    values = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    x = _activation(values, m=3)
    tape = Tape()
    ce = joint_loss([(flatten(x, tape), [1])], tape=tape)
    table = tape.gradients(ce)
    want = naive_softmax([1.0, 2.0, 3.0, 4.0])
    want[1] -= 1.0
    # in x's buffer layout: one row per channel, a zero border each side
    np.testing.assert_allclose(table[id(x)], [[0, want[0], want[1], 0],
                                              [0, want[2], want[3], 0]], rtol=1e-12)

    x = Tensor(values)
    y = Tensor(np.array([-1.0, 0.5]))
    tape = Tape()
    s = joint_loss([], [x, y], 0.5, tape)
    assert s.item() == 0.5 * (30.0 + 1.25)
    table = tape.gradients(s)
    np.testing.assert_allclose(table[id(x)], x.data)
    np.testing.assert_allclose(table[id(y)], y.data)


def test_flatten_is_channel_major():
    x = _activation(np.arange(6.0).reshape(1, 2, 3), m=3)
    assert flatten(x).data.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]


# ---------------------------------------------------------------------------
# workspace


def test_workspace_hands_the_next_tape_the_same_memory():
    ws = Workspace()
    Tape(ws)
    a = ws.empty((3, 5), np.float64)
    b = ws.empty((7,), np.float32)
    assert not np.shares_memory(a, b)
    Tape(ws)
    a2 = ws.empty((3, 5), np.float64)
    b2 = ws.empty((7,), np.float32)
    assert (a2.shape, a2.dtype, b2.shape, b2.dtype) == ((3, 5), np.float64, (7,), np.float32)
    assert np.shares_memory(a, a2) and np.shares_memory(b, b2)


def test_workspace_fills_chunks_in_turn_and_serves_larger_requests_apart():
    ws = Workspace()
    ws.CHUNK_BYTES = 256
    arrays = [ws.empty((10,), np.float64) for _ in range(5)]   # 80 bytes each
    arrays.append(ws.empty((64,), np.float64))                 # 512 > 256
    for i, a in enumerate(arrays):
        a[...] = i
    for i, a in enumerate(arrays):
        assert np.all(a == i)


def test_workspace_takes_back_only_ranges_it_handed_out():
    ws = Workspace()
    a = ws.empty((4, 6), np.float64)             # 192 bytes: three aligned units
    ws.release(np.empty((4, 6)))                 # numpy's memory
    ws.release(a[:, 1:])                         # a view that starts inside a
    assert not np.shares_memory(ws.empty((4, 6), np.float64), a)
    ws.release(a)
    ws.release(a)                                # free already: taken back once
    assert not np.shares_memory(ws.empty((5,), np.float64), a)   # another size
    b = ws.empty((48,), np.float32)              # the same aligned size
    assert (b.shape, b.dtype) == ((48,), np.float32) and np.shares_memory(b, a)
    assert not np.shares_memory(ws.empty((24,), np.float64), a)
    ws.release(b)
    ws.reset()                                   # a new tape starts from the offset
    assert not np.shares_memory(ws.empty((4, 6), np.float64), ws.empty((4, 6), np.float64))


def test_tape_on_workspace_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    loss_fn, params = _random_net_loss(7)
    tape = Tape(Workspace())
    tape.gradients(loss_fn(tape))
    gone = weakref.ref(tape)
    gc.disable()
    try:
        del tape
        assert gone() is None
    finally:
        gc.enable()


def _tree_net_loss(seed):
    """Two basic modules and the heads on a batch of 3 (k=3, 5 tags)."""
    r = rng(seed)
    params = model.init_params(3, 5, seed=seed)
    events = r.normal(size=(3, 3, 5))
    residents, activities = [0, 1, 1], [2, 0, 14]

    def loss_fn(tape):
        _, resident_logits, activity_logits = model.forward_batch(events, params, tape)
        return training.batch_loss(resident_logits, activity_logits, residents,
                                   activities, params, 0.01, tape)

    return loss_fn, params


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_every_gradient_arrives_in_its_tensors_layout(dtype):
    # a k=3 step: flatten's input, the last module's output, is
    # buffer-backed, and its one consumer hands it a bordered gradient
    params = model.init_params(3, 5, seed=1, dtype=dtype)
    events = rng(1).normal(size=(4, 3, 5)).astype(dtype)
    tape = _HandoverTape()
    features, resident_logits, activity_logits = model.forward_batch(events, params, tape)
    loss = training.batch_loss(resident_logits, activity_logits, [0, 1, 1, 0],
                               [2, 0, 14, 3], params, 0.01, tape)
    tape.gradients(loss)
    (g,) = tape.handed_to(features)
    assert g.shape == features.buf.shape and _zero_bordered(g, features.pad, 5)
    for t, g in tape.handed:
        assert g.dtype == t.dtype
        if t.buf is None:
            assert g.shape == t.shape
        else:
            assert g.shape == t.buf.shape and _zero_bordered(g, t.pad, t.shape[2])


def test_workspace_gradients_match_fresh_memory():
    # every array a reused workspace hands out still holds the step before;
    # fill the memory with NaN bytes so that any value read before it is
    # written shows up, in the values or in the zero borders of a buffer
    for net in (_random_net_loss, _tree_net_loss):
        _check_workspace_step(*net(6), Workspace())


class _PoisoningWorkspace(Workspace):
    """A workspace that fills every array it is asked to take back with
    NaN: a read of released memory, before the workspace hands it out and
    its new holder writes it, shows up in the values it gives."""

    def release(self, array):
        array.fill(np.nan)
        super().release(array)


def _masked_add_net(seed):
    """A net whose masked add hands its gradient to p, which already
    holds one from a consumer recorded after the add, and then to q, which
    takes the same array; p is consumed twice, as a module's h is."""
    r = rng(seed)
    x = Tensor(r.normal(size=(2, 2, 7)))
    params = [ParamTensor(name, Tensor(r.normal(size=shape) * 0.5)) for name, shape in [
        ("pw", (3, 2, 3)), ("pb", (3,)), ("qw", (3, 2, 3)), ("qb", (3,)),
        ("rw", (3, 3, 3)), ("rb", (3,))]]

    def loss_fn(tape):
        pw, pb, qw, qb, rw, rb = (p.value for p in params)
        p = conv1d(x, pw, pb, tape)
        n = add(p, conv1d(x, qw, qb, tape), tape, relu=True)
        m = add(n, conv1d(p, rw, rb, tape), tape)
        return joint_loss([], [flatten(m, tape)], 0.5, tape)

    return loss_fn, params


def test_released_memory_is_never_read_again():
    for net in (_masked_add_net, _random_net_loss, _tree_net_loss):
        _check_workspace_step(*net(8), _PoisoningWorkspace())


class _BorderCheckingTape(Tape):
    """A tape that checks, as each buffer-backed node's backward starts,
    that the node's output buffer and the gradient it takes, both still
    live, are shaped like the buffer with zero borders."""

    def __init__(self, workspace=None):
        super().__init__(workspace)
        self.buffers = self.checked = 0

    def record(self, out, bwd):
        if out.buf is None:
            return super().record(out, bwd)
        self.buffers += 1

        def checked(g, acc):
            length = out.shape[2]
            assert _zero_bordered(out.buf, out.pad, length)
            assert g.shape == out.buf.shape and _zero_bordered(g, out.pad, length)
            self.checked += 1
            bwd(g, acc)
        super().record(out, checked)


def _check_workspace_step(loss_fn, params, ws):
    def step(tape):
        loss = loss_fn(tape)
        table = tape.gradients(loss)
        # the table's arrays are workspace memory, which the next step reuses
        return loss, [table[id(p.value)].copy() for p in params]

    expected_loss, expected_grads = step(Tape())
    for _ in range(2):
        ws.reset()
        ws.empty((Workspace.CHUNK_BYTES,), np.uint8).fill(255)
        tape = _BorderCheckingTape(ws)
        loss, grads = step(tape)
        assert loss.item() == expected_loss.item()
        for g, want in zip(grads, expected_grads):
            np.testing.assert_array_equal(g, want)
        assert tape.buffers and tape.checked == tape.buffers


@pytest.mark.parametrize("workspace", [False, True], ids=["numpy", "workspace"])
def test_a_tape_is_walked_once(workspace):
    # the walk releases what it is done with, so a second one would read
    # released memory
    loss_fn, params = _random_net_loss(9)
    tape = Tape(Workspace() if workspace else None)
    loss = loss_fn(tape)
    tape.gradients(loss)
    with pytest.raises(TapeError, match="walked"):
        tape.gradients(loss)
    with pytest.raises(TapeError, match="walked"):
        backward(loss, tape, params)


# ---------------------------------------------------------------------------
# finite-difference property checks


def _random_net_loss(seed):
    """Small random two-layer conv net; returns (loss_fn, params).

    The fused softmax cross-entropy is smooth in the logits, so even a
    saturated head (a target probability far below 1e-12) keeps a correct
    gradient. The small weight scales keep the logits of order one and the
    probes' finite differences away from ReLU kinks.
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
        h = conv1d(x, c1w.value, c1b.value, tape, relu=True)
        h2 = conv1d(h, c2w.value, c2b.value, tape)
        merged = add(h, h2, tape, relu=True)
        logits = dense(flatten(merged, tape), dw.value, db.value, tape)
        return joint_loss([(logits, [1, 3])], [c1w.value, dw.value], 0.01, tape)

    return loss_fn, params


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_gradients_match_finite_differences(seed):
    loss_fn, params = _random_net_loss(seed)
    report = gradient_check(loss_fn, params, probe_count=40, seed=seed)
    assert report.max_rel_error < 1e-4


def test_gradient_check_linear_model_tight():
    # loss quadratic in every parameter, so the central difference is
    # exact up to float roundoff
    r = rng(21)
    x = Tensor(r.normal(size=(2, 6)))
    w = ParamTensor("w", Tensor(r.normal(size=(3, 6))))
    b = ParamTensor("b", Tensor(r.normal(size=3)))

    def loss_fn(tape):
        return joint_loss([], [dense(x, w.value, b.value, tape)], 0.5, tape)

    report = gradient_check(loss_fn, [w, b], probe_count=18, seed=0)
    assert report.max_rel_error < 1e-8


def test_gradient_check_flat_loss_probe():
    unused = ParamTensor("unused", Tensor(np.ones(4)))
    const = Tensor(np.asarray(3.0))

    def loss_fn(tape):
        return joint_loss([], [const], 1.0, tape)

    report = gradient_check(loss_fn, [unused], probe_count=5, seed=0)
    assert report.max_rel_error == 0.0
    assert all(p.analytic == 0.0 and p.numeric == 0.0 for p in report.probes)


def _tilted_constant(slope, reported):
    """Loss 10 + slope * w of one weight w, whose recorded gradient is
    `reported`: ten nats of loss around a gradient near zero."""
    w = ParamTensor("w", Tensor(np.asarray([0.2])))

    def loss_fn(tape):
        out = Tensor(np.asarray(10.0 + slope * w.value.data[0]))
        if tape is not None:
            tape.record(out, lambda g, acc: acc(w.value, g * np.asarray([reported])))
        return out

    return loss_fn, [w]


def test_gradient_check_allows_for_roundoff_near_zero():
    # the analytic gradient of layer3.res1.weight[1018] in `gradcheck --k 4`
    g = -2.707e-7
    report = gradient_check(*_tilted_constant(g, g), probe_count=1)
    probe, = report.probes
    # the raw difference is float64 roundoff in the two losses, over 2h
    raw = abs(probe.analytic - probe.numeric) / (abs(g) + abs(probe.numeric))
    assert raw > 1e-4
    assert report.max_rel_error < 1e-4
    report = gradient_check(*_tilted_constant(g, g * 1.01), probe_count=1)
    assert report.max_rel_error > 1e-3


def test_gradient_check_rejects_nondeterministic_model():
    state = {"n": 0}
    p = ParamTensor("w", Tensor(np.ones(1)))

    def loss_fn(tape):
        state["n"] += 1
        return joint_loss([], [Tensor(np.asarray(float(state["n"])))], 1.0, tape)

    with pytest.raises(NumericError, match="deterministic"):
        gradient_check(loss_fn, [p], probe_count=1)
