"""Independent straight-line reference implementations used as oracles.

Everything here is deliberately naive (python loops, no shared code with
the package's vectorized paths) so a bug in the implementation cannot
hide in its own oracle.
"""

import datetime as dt
import math
import re
from fractions import Fraction

import numpy as np

from treehar.casas import DEFAULT_VOCAB, NUM_ACTIVITIES, NUM_RESIDENTS, ParseError
from treehar.windowing import PAD


def naive_conv1d(x, w, b):
    """x (c_in, L), w (c_out, c_in, M), b (c_out,) -> (c_out, L).
    Zero padding (M-1)/2, stride 1."""
    c_out, c_in, m = w.shape
    _, length = x.shape
    pad = (m - 1) // 2
    out = np.zeros((c_out, length))
    for o in range(c_out):
        for p in range(length):
            acc = b[o]
            for c in range(c_in):
                for j in range(m):
                    src = p + j - pad
                    if 0 <= src < length:
                        acc += w[o, c, j] * x[c, src]
            out[o, p] = acc
    return out


def naive_conv1d_input_grad(g, w, length):
    """The gradient that naive_conv1d's output gradient g (c_out, L)
    hands its input x (c_in, L): each tap's weight times the output it
    fed, summed at the input position the tap read."""
    c_out, c_in, m = w.shape
    pad = (m - 1) // 2
    gx = np.zeros((c_in, length))
    for o in range(c_out):
        for p in range(length):
            for c in range(c_in):
                for j in range(m):
                    src = p + j - pad
                    if 0 <= src < length:
                        gx[c, src] += w[o, c, j] * g[o, p]
    return gx


def naive_dense(x, w, b):
    k, d = w.shape
    out = np.zeros(k)
    for i in range(k):
        acc = b[i]
        for j in range(d):
            acc += w[i, j] * x[j]
        out[i] = acc
    return out


def naive_softmax(logits):
    shifted = [v - max(logits) for v in logits]
    exps = [math.exp(v) for v in shifted]
    total = sum(exps)
    return np.array([e / total for e in exps])


def naive_log_softmax_ce(logits, targets):
    """Batch mean of log(sum_j exp(z_j)) - z_t, one row at a time."""
    losses = []
    for row, t in zip(logits, targets):
        top = max(row)
        lse = top + math.log(math.fsum(math.exp(v - top) for v in row))
        losses.append(lse - row[t])
    return math.fsum(losses) / len(losses)


def naive_relu(x):
    return np.where(np.asarray(x) > 0, x, 0.0)


def naive_basic_module(feature, event, feature_w, feature_b, event_w, event_b,
                       res_params):
    """Straight-line restatement of the merge + residual block formula."""
    h = naive_relu(naive_conv1d(event, event_w, event_b)) \
        + naive_relu(naive_conv1d(feature, feature_w, feature_b))
    a = naive_relu(naive_conv1d(h, res_params[0][0], res_params[0][1]))
    c = naive_relu(naive_conv1d(a, res_params[1][0], res_params[1][1]))
    r = naive_conv1d(c, res_params[2][0], res_params[2][1])
    return naive_relu(h + r)


def _naive_one_hot(sensor):
    """One event as a (1, vocab) row: 1 at its sensor, all 0 for PAD."""
    row = np.zeros((1, len(DEFAULT_VOCAB)))
    if sensor != PAD:
        row[0, sensor] = 1.0
    return row


def naive_model_loss(windows, residents, activities, tensors, l2_weight):
    """The whole network and its joint loss, one window at a time.

    windows holds each window's k sensor indices, oldest first (PAD for an
    empty slot), and tensors maps every parameter name to its array.
    Module 1 merges the target event into its predecessor, the feature;
    module i then merges event t-i into the running feature. Each head
    reads the top feature flattened channel by channel. The loss is each
    head's batch-mean cross-entropy plus l2_weight times the sum of
    squares of every weight. Returns (resident_logits, activity_logits,
    loss), the logits as (batch, classes) arrays."""
    def module(i, feature, event):
        def p(part):
            return tensors[f"layer{i}.{part}"]
        return naive_basic_module(
            feature, event, p("feature.weight"), p("feature.bias"),
            p("event.weight"), p("event.bias"),
            [(p(f"res{r}.weight"), p(f"res{r}.bias")) for r in (1, 2, 3)])

    logits = {"resident": [], "activity": []}
    for sensors in windows:
        k = len(sensors)
        feature = module(1, _naive_one_hot(sensors[k - 2]),
                         _naive_one_hot(sensors[k - 1]))
        for i in range(2, k):
            feature = module(i, feature, _naive_one_hot(sensors[k - 1 - i]))
        channels, length = feature.shape
        flat = [feature[c, p] for c in range(channels) for p in range(length)]
        for head, rows in logits.items():
            rows.append(naive_dense(flat, tensors[f"head_{head}.weight"],
                                    tensors[f"head_{head}.bias"]))
    squares = math.fsum(float(v) * float(v) for name, w in tensors.items()
                        if name.endswith(".weight") for v in w.ravel())
    loss = (naive_log_softmax_ce(logits["resident"], residents)
            + naive_log_softmax_ce(logits["activity"], activities)
            + l2_weight * squares)
    return np.array(logits["resident"]), np.array(logits["activity"]), loss


def naive_adam_step(values, grads, m, v, step, learning_rate,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step number `step`, tensor by tensor, in place: values, grads,
    m and v are parallel lists of arrays, one per parameter tensor."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for value, g, m_t, v_t in zip(values, grads, m, v):
        m_t *= beta1
        m_t += (1.0 - beta1) * g
        v_t *= beta2
        v_t += (1.0 - beta2) * g * g
        value -= learning_rate * (m_t / bc1) / (np.sqrt(v_t / bc2) + eps)


def naive_gini(labels):
    return 1 - sum(Fraction(labels.count(c), len(labels)) ** 2
                   for c in set(labels))


def naive_best_split(X, y):
    """Exact Gini gain of splitting the rows of a 0/1 matrix on each feature
    (0 left, 1 right; None with an empty side), and the lowest feature of
    highest positive gain, or None."""
    n, d = X.shape
    parent = naive_gini([int(v) for v in y])
    gains = []
    for f in range(d):
        left = [int(y[i]) for i in range(n) if X[i, f] == 0]
        right = [int(y[i]) for i in range(n) if X[i, f] == 1]
        if not left or not right:
            gains.append(None)
            continue
        weighted = (len(left) * naive_gini(left)
                    + len(right) * naive_gini(right)) / n
        gains.append(parent - weighted)
    best = None
    for f, gain in enumerate(gains):
        if gain is not None and gain > 0 and (best is None or gain > gains[best]):
            best = f
    return best, gains


def _naive_quote(text, show=repr):
    """A field as an error message quotes it: past 32 characters, only
    the repr of its first 32 and its length."""
    if len(text) > 32:
        return repr(text[:32]) + f"... ({len(text)} characters)"
    return show(text)


def _naive_parse_timestamp(date_text, time_text):
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_text):
        raise ValueError(f"date {_naive_quote(date_text)} is not YYYY-MM-DD")
    date = dt.date.fromisoformat(date_text)
    # HH:MM:SS, then an optional fraction of 1 to 6 digits
    clock = re.fullmatch(r"([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.([0-9]{1,6}))?",
                         time_text)
    if not clock or int(clock[1]) > 23 or int(clock[2]) > 59 or int(clock[3]) > 59:
        raise ValueError(f"time {_naive_quote(time_text)} is not HH:MM:SS[.f], "
                         "f 1 to 6 digits")
    micro = int((clock[4] or "").ljust(6, "0"))
    return date, dt.time(int(clock[1]), int(clock[2]), int(clock[3]), micro)


def _naive_parse_line(line, source, line_no):
    """One line to (date, time, sensor, value, resident_id, activity_id),
    or None for a blank or unlabeled line."""
    fields = line.split()
    if not fields:
        return None
    if len(fields) == 4:
        return None  # event without labels
    if len(fields) != 6:
        raise ParseError(
            f"expected 6 whitespace-separated fields, got {len(fields)}",
            source, line_no,
        )
    date_text, time_text, tag, value, res_text, act_text = fields
    try:
        date, time = _naive_parse_timestamp(date_text, time_text)
    except ValueError as exc:
        raise ParseError(f"unparseable timestamp: {exc}", source, line_no) from None
    if tag not in DEFAULT_VOCAB:
        raise ParseError(f"unknown sensor tag {_naive_quote(tag)}", source, line_no)
    try:
        if not (re.fullmatch(r"[0-9]+", res_text) and re.fullmatch(r"[0-9]+", act_text)):
            raise ValueError("labels are ASCII digit strings")
        resident = int(res_text)
        activity = int(act_text)
    except ValueError:   # also past int()'s 4300-digit limit
        raise ParseError(
            f"labels must be integers, got {_naive_quote(res_text)} "
            f"{_naive_quote(act_text)}",
            source, line_no,
        ) from None
    if not 1 <= resident <= NUM_RESIDENTS:
        raise ParseError(
            f"resident id {_naive_quote(str(resident), str)} "
            f"out of range 1..{NUM_RESIDENTS}",
            source, line_no,
        )
    if not 1 <= activity <= NUM_ACTIVITIES:
        raise ParseError(
            f"activity id {_naive_quote(str(activity), str)} "
            f"out of range 1..{NUM_ACTIVITIES}",
            source, line_no,
        )
    return date, time, DEFAULT_VOCAB.index(tag), value, resident - 1, activity - 1


def naive_parse_file(path):
    """The log parser one line at a time, as an iterated text file gives
    the lines: (events, skipped_unlabeled), each event a (date, time,
    sensor, value, resident_id, activity_id) tuple; the first bad line
    raises its ParseError."""
    events, skipped = [], 0
    # surrogateescape keeps undecodable bytes in the line (as U+DC80..U+DCFF)
    # so the error can name the line they are on
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        prev = None
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
                raise ParseError(f"undecodable byte 0x{byte:02x}", str(path), line_no)
            parsed = _naive_parse_line(line, str(path), line_no)
            if parsed is None:
                if line.split():
                    skipped += 1
                continue
            stamp = parsed[:2]
            if prev is not None and stamp < prev:
                raise ParseError(
                    "events out of order: "
                    f"{stamp[0]} {stamp[1]} after {prev[0]} {prev[1]}",
                    str(path), line_no,
                )
            prev = stamp
            events.append(parsed)
    return events, skipped
