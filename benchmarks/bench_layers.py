"""The traced run: per-layer times, counts and the conv kernel sheet.

Every number comes from a span opened by this file around a call into a
module's public functions, or from a backward closure timed by
TracingTape. End-to-end figures never come from this run.
"""

from __future__ import annotations

import statistics
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from treehar import baselines, casas, metrics, model, numerics, training, windowing
from treehar.numerics import Tape, Tensor

from bench_trace import Tracer, TracingTape
from bench_workloads import (
    K,
    ON_VALUE,
    VOCAB_SIZE,
    Checks,
    EvalState,
    Sizes,
    first_batches,
    labels_ok,
    make_history,
    setup_eval,
    sha256,
)


@dataclass
class TracedState:
    data: EvalState
    history: Path


def setup_traced(work: Path, seed: int, sizes: Sizes) -> TracedState:
    return TracedState(setup_eval(work, seed, sizes), make_history(work, seed, sizes))


class _CaptureTape(Tape):
    """Keeps the last recorded backward closure so it can be timed alone."""

    def record(self, out, bwd):
        self.bwd = bwd


def _discard(tensor, grad):
    pass


def conv_shapes():
    """(c_in, c_out) of every convolution a k=8 network holds."""
    shapes = {(s[1], s[0]) for s in model.expected_shapes(K, VOCAB_SIZE).values()
              if len(s) == 3}
    return sorted(shapes, key=lambda s: (s[1], s[0]))


def conv_sheet(tracer: Tracer, sizes: Sizes, out: dict):
    rng = np.random.default_rng(0)
    batch, length, m = sizes.conv_batch, VOCAB_SIZE, model.KERNEL_SIZE
    for c_in, c_out in conv_shapes():
        name = f"numerics.conv1d.{c_in}x{c_out}"
        x = Tensor(rng.standard_normal((batch, c_in, length)))
        w = Tensor(rng.standard_normal((c_out, c_in, m)))
        b = Tensor(rng.standard_normal(c_out))
        g = rng.standard_normal((batch, c_out, length))
        tape = _CaptureTape()
        for rep in range(sizes.conv_reps + 1):   # the first pass warms up
            with tracer.span(f"{name}.fwd" if rep else "warmup"):
                numerics.conv1d(x, w, b, tape=tape)
            with tracer.span(f"{name}.bwd" if rep else "warmup"):
                tape.bwd(g, _discard)
        out[f"{name}.fwd_ms"] = tracer.median_ms(f"{name}.fwd")
        out[f"{name}.bwd_ms"] = tracer.median_ms(f"{name}.bwd")

        if (c_in, c_out) == (64, 64):
            flops = 2.0 * batch * length * c_in * c_out * m
            out[f"{name}.fwd_gflops"] = flops / out[f"{name}.fwd_ms"] / 1e6
            out[f"{name}.bwd_gflops"] = 2.0 * flops / out[f"{name}.bwd_ms"] / 1e6
            # untimed: tracemalloc slows every allocation it sees
            tracemalloc.start()
            numerics.conv1d(x, w, b, tape=tape)
            out[f"{name}.fwd_peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
            tracemalloc.start()
            tape.bwd(g, _discard)
            out[f"{name}.bwd_peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()

    n = sizes.matmul_n
    for dtype in (np.float64, np.float32):
        label = np.dtype(dtype).name.replace("float", "f")
        a = rng.standard_normal((n, n)).astype(dtype)
        c = rng.standard_normal((n, n)).astype(dtype)
        a @ c
        for _ in range(sizes.trace_reps):
            with tracer.span(f"numerics.matmul.{label}"):
                a @ c
        seconds = tracer.median_ms(f"numerics.matmul.{label}") / 1e3
        out[f"numerics.matmul_peak_gflops.{label}"] = 2.0 * n ** 3 / seconds / 1e9


def traced_step(params, adam, batch, config, tracer: Tracer):
    """One training step folded by hand from public calls, so that each
    basic module, the heads, the loss, backward and Adam get a span."""
    events, residents, activities = batch
    tape = TracingTape(tracer)
    with tracer.span("training.step"):
        slices = [Tensor(events[:, K - 1 - j, :][:, None, :]) for j in range(K)]
        feature = slices[1]
        for i in range(1, K):
            tape.label = f"model.layer{i}"
            with tracer.span(tape.label):
                feature = model.basic_module(feature, slices[0 if i == 1 else i],
                                             params.layer(i), tape)
        tape.label = "model.heads"
        with tracer.span(tape.label):
            resident_probs, activity_probs = model.head_probs(feature, params, tape)
        tape.label = "training.batch_loss"
        with tracer.span(tape.label):
            loss = training.batch_loss(resident_probs, activity_probs, residents,
                                       activities, params, config.l2_weight, tape)
        with tracer.span("numerics.backward"):
            numerics.backward(loss, tape, params)
        with tracer.span("training.adam_step"):
            training.adam_step(params, adam, config.learning_rate, config.adam_beta1,
                               config.adam_beta2, config.adam_eps)
    return loss.item(), len(tape)


def untraced_step(params, adam, batch, config):
    """The same step through the package's own forward_batch."""
    events, residents, activities = batch
    tape = Tape()
    _, resident_probs, activity_probs = model.forward_batch(events, params, tape)
    loss = training.batch_loss(resident_probs, activity_probs, residents,
                               activities, params, config.l2_weight, tape)
    numerics.backward(loss, tape, params)
    training.adam_step(params, adam, config.learning_rate, config.adam_beta1,
                       config.adam_beta2, config.adam_eps)
    return loss.item()


def training_sheet(state: TracedState, tracer: Tracer, sizes: Sizes,
                   checks: Checks, out: dict):
    config = training.TrainConfig(batch_size=sizes.batch)
    windows = first_batches(state.data.train_windows, sizes)[0]
    batch = windowing.stack_windows(windows)
    params = state.data.params[np.float64]
    initial = {p.name: p.value.data.copy() for p in params}

    def fresh():
        for p in params:
            p.value.data[...] = initial[p.name]
        return training.AdamState(params)

    untraced = []
    for pair in range(sizes.trace_pairs + 1):   # pair 0 warms up, untimed
        adam = fresh()
        start = perf_counter()
        plain_loss = untraced_step(params, adam, batch, config)
        untraced.append((perf_counter() - start) * 1e3)
        traced_loss, nodes = traced_step(params, fresh(), batch, config,
                                         tracer if pair else Tracer())
        checks.check(traced_loss == plain_loss,
                     f"traced step loss {traced_loss!r} != untraced {plain_loss!r}")
    fresh()   # later sheets use the checkpoint's weights

    for i in range(1, K):
        out[f"model.layer{i}.fwd_ms"] = tracer.median_ms(f"model.layer{i}")
        out[f"model.layer{i}.bwd_ms"] = tracer.median_ms(f"model.layer{i}.bwd")
    for name in ("model.heads", "training.batch_loss"):
        out[f"{name}.fwd_ms"] = tracer.median_ms(name)
        out[f"{name}.bwd_ms"] = tracer.median_ms(f"{name}.bwd")
    out["training.adam_step_ms"] = tracer.median_ms("training.adam_step")
    out["training.step_ms"] = tracer.median_ms("training.step")
    out["numerics.tape.gradients_ms"] = tracer.median_ms("numerics.tape.gradients")
    out["numerics.tape.nodes"] = nodes
    out["trace_overhead_pct"] = (
        out["training.step_ms"] / statistics.median(untraced[1:]) - 1.0) * 100.0


def call_sheet(state: TracedState, tracer: Tracer, sizes: Sizes,
               checks: Checks, out: dict):
    data = state.data
    params = data.params[np.float64]
    n_test = len(data.test_windows)

    def traced(name, fn, *args):
        result = fn(*args)                       # warm-up, untimed
        for _ in range(sizes.trace_reps):
            with tracer.span(name):
                result = fn(*args)
        out[f"{name}_ms"] = tracer.median_ms(name)
        return result

    parsed = traced("casas.parse_file", casas.parse_file, state.history)
    events = casas.filter_on(parsed.events, ON_VALUE)
    windows = traced("windowing.make_windows", windowing.make_windows, events, K)
    checks.check(len(windows) == len(events),
                 f"{len(windows)} windows for {len(events)} events")
    traced("windowing.stack_windows", windowing.stack_windows, data.train_windows)

    loaded = traced("model.load_params", model.load_params,
                    data.checkpoints[np.float64])
    label = traced("model.predict", model.predict, windows[-1], loaded).label()
    residents, activities = model.predict_batch(
        windowing.stack_windows(windows[-1:])[0], loaded)
    checks.check((label.resident_id, label.activity_id)
                 == (residents[0], activities[0]), "predict disagrees with predict_batch")

    report = traced("metrics.evaluate", metrics.evaluate, data.test_windows, params)
    checks.check(report.resident.total == n_test == report.activity.total,
                 "evaluate confusion totals differ from the window count")
    labels = traced("baselines.knn_predict_batch", baselines.knn_predict_batch,
                    data.train_flat, data.test_flat.X)
    checks.check(labels_ok(*labels, n_test), "KNN labels malformed")
    tree = traced("baselines.dt_fit", baselines.dt_fit, data.dt_train)
    labels = traced("baselines.dt_predict_batch", tree.predict_batch, data.test_flat.X)
    checks.check(labels_ok(*labels, n_test), "decision-tree labels malformed")


def run_traced(state: TracedState, seconds: float, sizes: Sizes, checks: Checks,
               trace_path: Path):
    """Per-layer metrics; spans are written to ``trace_path`` with self
    times. The run has fixed repetitions, so ``seconds`` is unused."""
    tracer = Tracer()
    out = {}
    conv_sheet(tracer, sizes, out)
    training_sheet(state, tracer, sizes, checks, out)
    call_sheet(state, tracer, sizes, checks, out)
    tracer.write(trace_path)
    inputs = {
        "corpus_sha256": {Path(f).name: sha256(f) for f in state.data.files},
        "history_sha256": {state.history.name: sha256(state.history)},
        "test_windows": len(state.data.test_windows),
        "train_windows": len(state.data.train_windows),
        "spans": len(tracer.spans),
        "trace_file": trace_path.name,
    }
    return out, {}, inputs
