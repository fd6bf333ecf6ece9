"""Set-up, timed loops and output checks of the ``train``, ``eval`` and
``predict`` workloads.

Every input is generated from the workload seed by the package's own
synthetic corpus generator. Model initialisation and the 70/30 file split
use the CLI's default root seed (0), so the workload seed changes only the
data the program sees.
"""

from __future__ import annotations

import hashlib
import io
import re
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from treehar import baselines, casas, cli, metrics, model, synth, training, windowing
from treehar.numerics import NumericError, Tape

K = 8
ON_VALUE = "ON"
VOCAB_SIZE = len(casas.DEFAULT_VOCAB)
ROOT_SEED = 0
DTYPES = (np.float64, np.float32)
# Float32 keeps 24 significant bits. Adam amplifies its rounding from step
# to step (about 1e-7 at the first step, up to 1e-3 by the eighth on seeds
# 1-12), so 2**-7 leaves 17 bits for that drift; a float32 path that is
# wrong rather than rounded departs by far more.
F32_LOSS_RTOL = 2.0 ** -7
PREDICT_LINE = re.compile(r"resident=(\d+) activity=(\d+)")


@dataclass(frozen=True)
class Sizes:
    files: int            # corpus files
    events_per_file: int
    history_events: int   # length of the predict workload's history file
    batch: int            # training batch size (alpha)
    steps: int            # training steps per timed round
    warmup_steps: int
    dt_windows: int       # training windows the CART is grown on
    min_rounds: int       # timed rounds run even when --seconds is shorter
    setup_repeats: int    # set-ups before the timed loop, and again after it
    blas_warmup_s: float
    conv_batch: int       # batch of the traced run's conv kernel sheet
    conv_reps: int
    matmul_n: int         # square matmul size for the GEMM peak
    trace_pairs: int      # traced and untraced training steps, interleaved
    trace_reps: int       # repeats of every other traced call


SIZES = {
    "full": Sizes(files=26, events_per_file=240, history_events=5000,
                  batch=128, steps=8, warmup_steps=2, dt_windows=256,
                  min_rounds=2, setup_repeats=2, blas_warmup_s=2.0,
                  conv_batch=128, conv_reps=15, matmul_n=2048,
                  trace_pairs=5, trace_reps=3),
    "tiny": Sizes(files=4, events_per_file=60, history_events=200,
                  batch=8, steps=2, warmup_steps=1, dt_windows=16,
                  min_rounds=2, setup_repeats=1, blas_warmup_s=0.0,
                  conv_batch=4, conv_reps=1, matmul_n=64,
                  trace_pairs=1, trace_reps=1),
}


class Checks:
    """Counts attempted operations and those whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def rate(items_per_call: int, times) -> float:
    """Items per second over all timed calls: total work over total time."""
    return items_per_call * len(times) / sum(times)


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def warm_up_blas(seconds: float):
    """Keep the BLAS thread pool busy for a while. On two cores the first
    second of threaded GEMM calls in a fresh process runs up to 30x slow."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 128 * VOCAB_SIZE))
    b = rng.standard_normal((128 * VOCAB_SIZE, 48))
    start = perf_counter()
    while perf_counter() - start < seconds:
        a @ b


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def labels_ok(residents, activities, n: int) -> bool:
    return (len(residents) == n and len(activities) == n
            and residents.min() >= 0 and residents.max() < casas.NUM_RESIDENTS
            and activities.min() >= 0 and activities.max() < casas.NUM_ACTIVITIES)


def init_params(dtype):
    return model.init_params(
        K, VOCAB_SIZE, seed=training.derive_seed(ROOT_SEED, training.STREAM_INIT),
        dtype=dtype)


def tape_nodes(params, windows, l2_weight: float) -> int:
    """Tape length of one forward and loss, a count that depends only on
    the architecture and the loss."""
    events, residents, activities = windowing.stack_windows(windows, dtype=params.dtype)
    tape = Tape()
    _, resident_probs, activity_probs = model.forward_batch(events, params, tape)
    training.batch_loss(resident_probs, activity_probs, residents, activities,
                        params, l2_weight, tape)
    return len(tape)


def make_corpus(work: Path, seed: int, sizes: Sizes):
    profile = synth.SynthProfile(files=sizes.files,
                                 events_per_file=sizes.events_per_file)
    files = [str(p) for p in synth.generate_corpus(work / "corpus", profile, seed=seed)]
    split = casas.split_files(
        files, ratio=0.7,
        seed=training.derive_seed(ROOT_SEED, training.STREAM_SPLIT))
    return files, split


def first_batches(train_windows, sizes: Sizes):
    """The batches of the first ``steps`` steps of epoch 0 of training.fit:
    canonical order, then the epoch-0 shuffle of the root seed."""
    ordered = sorted(train_windows, key=lambda w: (w.source, w.index))
    order = training.derive_rng(ROOT_SEED, training.STREAM_SHUFFLE, 0) \
        .permutation(len(ordered))
    if len(ordered) < sizes.steps * sizes.batch:
        raise ValueError(f"{len(ordered)} training windows cannot fill "
                         f"{sizes.steps} batches of {sizes.batch}")
    return [[ordered[i] for i in order[s * sizes.batch:(s + 1) * sizes.batch]]
            for s in range(sizes.steps)]


def save_checkpoints(work: Path):
    """One checkpoint per dtype, as ``treehar train --dtype`` writes them."""
    paths = {}
    for dtype in DTYPES:
        path = work / f"model_{np.dtype(dtype).name}.json"
        model.save_params(init_params(dtype), path)
        paths[dtype] = path
    return paths


# ---------------------------------------------------------------------------
# train: conv GEMMs, tape backward and Adam through training.train_epoch


@dataclass
class TrainState:
    files: list
    batches: list
    params: dict      # dtype -> ModelParams
    initial: dict     # dtype -> {name: initial value}
    config: training.TrainConfig


def setup_train(work: Path, seed: int, sizes: Sizes) -> TrainState:
    files, split = make_corpus(work, seed, sizes)
    batches = first_batches(cli.load_windows(split.train_files, K, ON_VALUE), sizes)
    params = {dtype: init_params(dtype) for dtype in DTYPES}
    initial = {dtype: {p.name: p.value.data.copy() for p in ps}
               for dtype, ps in params.items()}
    config = training.TrainConfig(batch_size=sizes.batch, seed=ROOT_SEED)
    return TrainState(files, batches, params, initial, config)


def _train_round(state: TrainState, dtype, steps: int):
    """Reset to the initial weights and a fresh Adam state, then run one
    single-batch train_epoch per step; returns per-step times and losses."""
    params = state.params[dtype]
    for p in params:
        p.value.data[...] = state.initial[dtype][p.name]
    adam = training.AdamState(params)
    times, losses = [], []
    for step, batch in enumerate(state.batches[:steps]):
        start = perf_counter()
        try:
            loss = training.train_epoch(batch, params, adam, state.config, epoch=step).avg_loss
        except NumericError:
            loss = float("nan")
        times.append(perf_counter() - start)
        losses.append(loss)
    return times, losses


def run_train(state: TrainState, seconds: float, sizes: Sizes, checks: Checks):
    for dtype in DTYPES:
        _train_round(state, dtype, sizes.warmup_steps)
    times = {dtype: [] for dtype in DTYPES}
    reference = None
    rounds = 0
    start = perf_counter()
    while rounds < sizes.min_rounds or perf_counter() - start < seconds:
        round_times, losses64 = _train_round(state, np.float64, sizes.steps)
        times[np.float64] += round_times
        reference = reference or losses64
        for step, (loss, ref) in enumerate(zip(losses64, reference)):
            checks.check(np.isfinite(loss) and loss == ref,
                         f"float64 step {step} loss {loss!r}, first round {ref!r}")
        round_times, losses32 = _train_round(state, np.float32, sizes.steps)
        times[np.float32] += round_times
        for step, (loss, ref) in enumerate(zip(losses32, reference)):
            checks.check(np.isfinite(loss) and abs(loss - ref) <= F32_LOSS_RTOL * abs(ref),
                         f"float32 step {step} loss {loss!r} departs from float64 {ref!r}")
        rounds += 1

    wps = {dtype: rate(sizes.batch, t) for dtype, t in times.items()}
    detail = {
        "train_wps": (wps[np.float64], "windows/s"),
        "train_wps_f32": (wps[np.float32], "windows/s"),
        "train_loss": (float(np.mean(reference)), "nats"),
        "train_steps_timed": (len(times[np.float64]) + len(times[np.float32]), "count"),
    }
    inputs = {
        "corpus_sha256": {Path(f).name: sha256(f) for f in state.files},
        "windows_per_round": sum(len(b) for b in state.batches),
        "parameters": state.params[np.float64].parameter_count(),
        "numerics.tape.nodes": tape_nodes(state.params[np.float64], state.batches[0],
                                          state.config.l2_weight),
        "float64_losses": [repr(v) for v in reference],
    }
    return {"wps_f64": wps[np.float64], "wps_f32": wps[np.float32]}, detail, inputs


# ---------------------------------------------------------------------------
# eval: ingest, forward-only evaluation and the two baselines


@dataclass
class EvalState:
    files: list
    event_count: int
    train_windows: list
    test_windows: list
    params: dict            # dtype -> ModelParams loaded from its checkpoint
    checkpoints: dict       # dtype -> path
    train_flat: baselines.FlatDataset
    test_flat: baselines.FlatDataset
    dt_train: baselines.FlatDataset


def setup_eval(work: Path, seed: int, sizes: Sizes) -> EvalState:
    files, split = make_corpus(work, seed, sizes)
    event_count = 0
    for path in files:
        with open(path) as fh:
            event_count += sum(1 for line in fh if line.strip())
    train_windows = cli.load_windows(split.train_files, K, ON_VALUE)
    test_windows = cli.load_windows(split.test_files, K, ON_VALUE)
    checkpoints = save_checkpoints(work)
    params = {dtype: model.load_params(path) for dtype, path in checkpoints.items()}
    train_flat = baselines.FlatDataset.from_windows(train_windows)
    rows = np.random.default_rng(seed).permutation(len(train_flat))[:sizes.dt_windows]
    dt_train = baselines.FlatDataset(train_flat.X[rows], train_flat.residents[rows],
                                     train_flat.activities[rows])
    return EvalState(files, event_count, train_windows, test_windows, params,
                     checkpoints, train_flat,
                     baselines.FlatDataset.from_windows(test_windows), dt_train)


def run_eval(state: EvalState, seconds: float, sizes: Sizes, checks: Checks):
    n_test = len(state.test_windows)
    n_windows = n_test + len(state.train_windows)
    cli.load_windows(state.files, K, ON_VALUE)
    for params in state.params.values():
        metrics.evaluate(state.test_windows[:metrics.EVAL_CHUNK], params)
    baselines.knn_predict_batch(state.train_flat, state.test_flat.X[:64])

    times = {name: [] for name in ("ingest", "knn", "dt_fit", "dt_predict", *DTYPES)}
    rounds = 0
    start = perf_counter()
    while rounds < sizes.min_rounds or perf_counter() - start < seconds:
        elapsed, windows = timed(cli.load_windows, state.files, K, ON_VALUE)
        times["ingest"].append(elapsed)
        checks.check(len(windows) == n_windows,
                     f"load_windows gave {len(windows)} windows, expected {n_windows}")
        for dtype, params in state.params.items():
            elapsed, report = timed(metrics.evaluate, state.test_windows, params)
            times[dtype].append(elapsed)
            checks.check(report.resident.total == n_test == report.activity.total,
                         f"{np.dtype(dtype).name} confusion totals "
                         f"{report.resident.total}/{report.activity.total}, "
                         f"expected {n_test}")
        elapsed, labels = timed(baselines.knn_predict_batch,
                                state.train_flat, state.test_flat.X)
        times["knn"].append(elapsed)
        checks.check(labels_ok(*labels, n_test), "KNN labels malformed")
        elapsed, tree = timed(baselines.dt_fit, state.dt_train)
        times["dt_fit"].append(elapsed)
        elapsed, labels = timed(tree.predict_batch, state.test_flat.X)
        times["dt_predict"].append(elapsed)
        checks.check(labels_ok(*labels, n_test), "decision-tree labels malformed")
        rounds += 1

    wps = {dtype: rate(n_test, times[dtype]) for dtype in DTYPES}
    detail = {
        "eval_wps": (wps[np.float64], "windows/s"),
        "eval_wps_f32": (wps[np.float32], "windows/s"),
        "ingest_eps": (rate(state.event_count, times["ingest"]), "events/s"),
        "knn_wps": (rate(n_test, times["knn"]), "queries/s"),
        "dt_fit_s": (statistics.median(times["dt_fit"]), "s"),
        "dt_predict_wps": (rate(n_test, times["dt_predict"]), "queries/s"),
        "eval_rounds": (rounds, "count"),
    }
    inputs = {
        "corpus_sha256": {Path(f).name: sha256(f) for f in state.files},
        "checkpoint_sha256": {p.name: sha256(p) for p in state.checkpoints.values()},
        "events": state.event_count,
        "train_windows": len(state.train_windows),
        "test_windows": n_test,
        "dt_train_windows": len(state.dt_train),
        "parameters": state.params[np.float64].parameter_count(),
        "numerics.tape.nodes": tape_nodes(state.params[np.float64],
                                          state.test_windows[:1],
                                          training.TrainConfig().l2_weight),
    }
    return {"wps_f64": wps[np.float64], "wps_f32": wps[np.float32]}, detail, inputs


# ---------------------------------------------------------------------------
# predict: the CLI's online path, one client in a closed loop


@dataclass
class PredictState:
    history: Path
    event_count: int
    window_count: int
    checkpoints: dict     # dtype -> path
    expected: dict        # dtype -> (resident, activity), 1-based as printed
    last_window: list


def make_history(work: Path, seed: int, sizes: Sizes) -> Path:
    profile = synth.SynthProfile(files=1, events_per_file=sizes.history_events)
    return synth.generate_corpus(work / "history", profile, seed=seed)[0]


def setup_predict(work: Path, seed: int, sizes: Sizes) -> PredictState:
    history = make_history(work, seed, sizes)
    checkpoints = save_checkpoints(work)
    parsed = casas.parse_file(history)
    windows = windowing.make_windows(casas.filter_on(parsed.events, ON_VALUE), K)
    expected = {}
    for dtype in DTYPES:
        events, _, _ = windowing.stack_windows(windows[-1:], dtype=dtype)
        residents, activities = model.predict_batch(events, init_params(dtype))
        expected[dtype] = (int(residents[0]) + 1, int(activities[0]) + 1)
    return PredictState(history, len(parsed.events), len(windows), checkpoints,
                        expected, windows[-1:])


def predict_request(checkpoint, history):
    """One ``treehar predict`` call; returns (exit code, printed label)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["predict", "--checkpoint", str(checkpoint),
                        "--history", str(history)])
    match = PREDICT_LINE.search(out.getvalue())
    return code, (int(match[1]), int(match[2])) if match else None


def run_predict(state: PredictState, seconds: float, sizes: Sizes, checks: Checks):
    for path in state.checkpoints.values():
        predict_request(path, state.history)
    times = {dtype: [] for dtype in DTYPES}
    rounds = 0
    start = perf_counter()
    while rounds < sizes.min_rounds or perf_counter() - start < seconds:
        for dtype, path in state.checkpoints.items():
            elapsed, (code, label) = timed(predict_request, path, state.history)
            times[dtype].append(elapsed)
            checks.check(code == 0 and label == state.expected[dtype],
                         f"{np.dtype(dtype).name} request: exit {code}, label {label}, "
                         f"expected {state.expected[dtype]}")
        rounds += 1

    detail = {}
    for dtype, suffix in ((np.float64, ""), (np.float32, "_f32")):
        ms = [t * 1e3 for t in times[dtype]]
        detail[f"predict_ms_p50{suffix}"] = (statistics.median(ms), "ms")
        detail[f"predict_ms_p90{suffix}"] = (statistics.quantiles(ms, n=10)[8], "ms")
        detail[f"predict_requests{suffix}"] = (len(ms), "count")
    wps = {dtype: rate(1, t) for dtype, t in times.items()}
    params = init_params(np.float64)
    inputs = {
        "history_sha256": {state.history.name: sha256(state.history)},
        "checkpoint_sha256": {p.name: sha256(p) for p in state.checkpoints.values()},
        "history_events": state.event_count,
        "history_windows": state.window_count,
        "parameters": params.parameter_count(),
        "numerics.tape.nodes": tape_nodes(params, state.last_window,
                                          training.TrainConfig().l2_weight),
    }
    return {"wps_f64": wps[np.float64], "wps_f32": wps[np.float32]}, detail, inputs


WORKLOADS = {
    "train": (setup_train, run_train),
    "eval": (setup_eval, run_eval),
    "predict": (setup_predict, run_predict),
}
