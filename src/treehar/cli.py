"""Command-line pipeline driver.

Subcommands: ingest, train, eval, sweep, predict, gradcheck, synth.
Configuration comes from built-in defaults, overridden by an optional
key=value config file, overridden by explicit flags; every command that
writes artifacts echoes the configuration it actually used. One root
seed drives file splitting, parameter init and epoch shuffles.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import baselines, casas, metrics, model, synth, training, windowing
from .casas import ParseError
from .model import CheckpointError
from .numerics import NumericError, ShapeError, gradient_check

STREAM_GRADCHECK = 4
GRADCHECK_TOLERANCE = 1e-4

DEFAULTS = {
    "seed": 0,
    "k": 8,
    "alpha": 128,
    "beta": 0.0004,
    "gamma": 0.0002,
    "epochs": 25,
    "method": "tsc",
    "on_value": "ON",
    "dtype": "float64",
    "cv": 0,
    "probes": 100,
    "batch": 3,
    "tolerance": GRADCHECK_TOLERANCE,
    "knn_k": 5,
    "min_leaf": 1,
    "max_depth": 0,          # 0 means unlimited
    "files": 26,
    "events_per_file": 240,
    "sensors": 37,
    "residents": 2,
    "activities": 15,
    "alphas": "64,128,256",
    "betas": "0.0001,0.0003,0.0005,0.0007,0.0009",
    "gammas": "0.0001,0.0003,0.0005,0.0007,0.0009",
}

_CONVERTERS = {
    "seed": int, "k": int, "alpha": int, "beta": float, "gamma": float,
    "epochs": int, "method": str, "on_value": str, "dtype": str, "cv": int,
    "probes": int, "batch": int, "tolerance": float, "knn_k": int,
    "min_leaf": int, "max_depth": int, "files": int, "events_per_file": int,
    "sensors": int, "residents": int, "activities": int,
    "alphas": str, "betas": str, "gammas": str,
    "data": str, "out": str, "checkpoint": str, "history": str,
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="treehar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for flag in flags:
            dest = flag.lstrip("-").replace("-", "_")
            p.add_argument(flag, dest=dest, default=None, type=str)
        return p

    add("ingest", "parse a corpus directory and write the canonical CSV",
        "--data", "--out", "--on-value")
    add("train", "train the tree CNN on the 70/30 file split",
        "--data", "--out", "--seed", "--k", "--alpha", "--beta", "--gamma",
        "--epochs", "--on-value", "--dtype", "--cv")
    add("eval", "evaluate a method on the held-out files",
        "--data", "--out", "--seed", "--k", "--alpha", "--beta", "--gamma",
        "--epochs", "--on-value", "--dtype", "--cv", "--method",
        "--checkpoint", "--knn-k", "--max-depth", "--min-leaf")
    add("sweep", "hyperparameter grid over batch size, L2 weight, rate",
        "--data", "--out", "--seed", "--k", "--epochs", "--on-value",
        "--dtype", "--alphas", "--betas", "--gammas")
    add("predict", "predict (resident, activity) for the last event of a history file",
        "--checkpoint", "--history", "--k", "--on-value")
    add("gradcheck", "compare analytic and finite-difference gradients",
        "--k", "--seed", "--probes", "--batch", "--tolerance")
    add("synth", "generate a synthetic corpus in the log format",
        "--out", "--seed", "--files", "--events-per-file", "--sensors",
        "--residents", "--activities")
    return parser


def read_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONVERTERS:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


class RunConfig:
    """Resolved settings for one command; remembers which keys were read
    so the echo file records exactly what the run depended on."""

    def __init__(self, args):
        self._flags = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "config") and v is not None
        }
        self._file = read_config_file(args.config) if args.config else {}
        self._used = {}

    def was_set(self, key) -> bool:
        return key in self._flags or key in self._file

    def get(self, key):
        if key in self._flags:
            raw = self._flags[key]
        elif key in self._file:
            raw = self._file[key]
        elif key in DEFAULTS:
            raw = DEFAULTS[key]
        else:
            raw = None
        if raw is None:
            self._used[key] = ""
            return None
        try:
            value = _CONVERTERS[key](raw)
        except (ValueError, TypeError):
            raise UsageError(f"bad value for {key}: {raw!r}") from None
        self._used[key] = value
        return value

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
        return value

    def echo(self, out_dir):
        lines = [f"{k}={self._used[k]}" for k in sorted(self._used)]
        (Path(out_dir) / "config_used.txt").write_text("\n".join(lines) + "\n")


def _window_size(cfg) -> int:
    k = cfg.get("k")
    if k < 2:
        raise UsageError(f"k must be >= 2, got {k}")
    return k


def _dtype_of(name: str):
    if name not in ("float32", "float64"):
        raise UsageError(f"dtype must be float32 or float64, got {name!r}")
    return np.dtype(name)


def _grid(text: str, converter):
    try:
        values = tuple(converter(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"bad grid {text!r}") from None
    if not values:
        raise UsageError(f"empty grid {text!r}")
    return values


def _train_config(**fields) -> training.TrainConfig:
    try:
        return training.TrainConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def discover_files(data_dir) -> list:
    base = Path(data_dir)
    if not base.is_dir():
        raise DataError(f"{data_dir} is not a directory")
    files = sorted(str(p) for p in base.iterdir()
                   if p.is_file() and not p.name.startswith(".")
                   and p.name != "config_used.txt")  # synth echoes its config
    if not files:
        raise DataError(f"no corpus files in {data_dir}")
    return files


def load_windows(paths, k, on_value) -> list:
    windows = []
    for path in paths:
        parsed = casas.parse_file(path)
        events = casas.filter_on(parsed.events, on_value)
        windows.extend(windowing.make_windows(events, k, source=str(path)))
    return windows


def _out_dir(cfg) -> Path:
    out = Path(cfg.require("out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split(cfg, files):
    split_seed = training.derive_seed(cfg.get("seed"), training.STREAM_SPLIT)
    return casas.split_files(files, ratio=0.7, seed=split_seed)


# ---------------------------------------------------------------------------
# command handlers


def cmd_ingest(cfg) -> int:
    data = cfg.require("data")
    out = _out_dir(cfg)
    on_value = cfg.get("on_value")
    files = discover_files(data)
    all_events = []
    count_rows = []
    for path in files:
        parsed = casas.parse_file(path)
        on_events = casas.filter_on(parsed.events, on_value)
        count_rows.append((path, len(parsed.events), len(on_events),
                           parsed.skipped_unlabeled))
        print(f"{path}: {len(parsed.events)} events, {len(on_events)} {on_value}, "
              f"{parsed.skipped_unlabeled} unlabeled skipped")
        all_events.extend(parsed.events)
    casas.write_events_csv(all_events, out / "events.csv")
    with open(out / "file_counts.csv", "w") as fh:
        fh.write("file,events,on_events,skipped_unlabeled\n")
        for row in count_rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    with open(out / "vocabulary.csv", "w") as fh:
        fh.write("index,tag\n")
        for i, tag in enumerate(casas.DEFAULT_VOCAB.entries):
            fh.write(f"{i},{tag}\n")
    cfg.echo(out)
    total_on = sum(r[2] for r in count_rows)
    print(f"total: {len(all_events)} events, {total_on} {on_value}, "
          f"{len(files)} files")
    return 0


def cmd_train(cfg) -> int:
    data = cfg.require("data")
    out = _out_dir(cfg)
    k = _window_size(cfg)
    on_value = cfg.get("on_value")
    dtype = _dtype_of(cfg.get("dtype"))
    cv = cfg.get("cv")
    config = _train_config(
        batch_size=cfg.get("alpha"), l2_weight=cfg.get("beta"),
        learning_rate=cfg.get("gamma"), epochs=cfg.get("epochs"),
        seed=cfg.get("seed"),
    )
    files = discover_files(data)

    if cv:
        rows = _cross_validate(cfg, files, k, on_value, dtype, config, cv)
        _write_cv_csv(rows, out / "cv_metrics.csv")
        cfg.echo(out)
        return 0

    split = _split(cfg, files)
    train_windows = load_windows(split.train_files, k, on_value)
    if not train_windows:
        raise DataError("training split contains no usable events")
    print(f"training on {len(train_windows)} windows from "
          f"{len(split.train_files)} files")
    params, _ = training.fit(
        train_windows, config, k=k, dtype=dtype,
        log_path=out / "loss_log.csv",
        progress=lambda s: print(
            f"epoch {s.epoch}: avg_loss {s.avg_loss:.6f} "
            f"(max {s.max_batch_loss:.6f}, min {s.min_batch_loss:.6f})"),
    )
    model.save_params(params, out / "model.json")
    cfg.echo(out)
    print(f"checkpoint written to {out / 'model.json'}")
    return 0


def _cross_validate(cfg, files, k, on_value, dtype, config, folds):
    """Optional N-fold file-level cross validation (no acceptance weight;
    the fixed 70/30 split is the primary protocol)."""
    if folds < 2:
        raise UsageError(f"cv must be >= 2, got {folds}")
    if folds > len(files):
        raise DataError(f"cv={folds} exceeds file count {len(files)}")
    ordered = sorted(files)
    order = training.derive_rng(cfg.get("seed"), training.STREAM_SPLIT) \
        .permutation(len(files))
    shuffled = [ordered[i] for i in order]
    rows = []
    for fold in range(folds):
        test_files = shuffled[fold::folds]
        train_files = [f for f in shuffled if f not in test_files]
        train_windows = load_windows(train_files, k, on_value)
        test_windows = load_windows(test_files, k, on_value)
        if not train_windows or not test_windows:
            raise DataError(f"fold {fold} has an empty side")
        params, _ = training.fit(train_windows, config, k=k, dtype=dtype)
        report = metrics.evaluate(test_windows, params)
        print(f"fold {fold}: resident acc {report.resident_accuracy:.4f}, "
              f"activity acc {report.activity_accuracy:.4f}")
        rows.append((fold, report))
    return rows


def _write_cv_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("fold,resident_accuracy,resident_precision,"
                 "resident_f1,activity_accuracy\n")
        for fold, r in rows:
            fh.write(f"{fold},{r.resident_accuracy!r},{r.resident_precision!r},"
                     f"{r.resident_f1!r},{r.activity_accuracy!r}\n")
        fh.write("mean,{0!r},{1!r},{2!r},{3!r}\n".format(
            float(np.mean([r.resident_accuracy for _, r in rows])),
            float(np.mean([r.resident_precision for _, r in rows])),
            float(np.mean([r.resident_f1 for _, r in rows])),
            float(np.mean([r.activity_accuracy for _, r in rows])),
        ))


def cmd_eval(cfg) -> int:
    data = cfg.require("data")
    out = _out_dir(cfg)
    method = cfg.get("method")
    if method not in ("tsc", "knn", "dt"):
        raise UsageError(f"method must be tsc, knn or dt, got {method!r}")
    on_value = cfg.get("on_value")
    files = discover_files(data)

    if method == "tsc":
        checkpoint = cfg.require("checkpoint")
        expect_k = _window_size(cfg) if cfg.was_set("k") else None
        params = model.load_params(checkpoint, expect_k=expect_k)
        k = params.k
    else:
        k = _window_size(cfg)

    split = _split(cfg, files)
    test_windows = load_windows(split.test_files, k, on_value)
    if not test_windows:
        raise DataError("test split contains no usable events")

    if method == "tsc":
        report = metrics.evaluate(test_windows, params)
    else:
        train_windows = load_windows(split.train_files, k, on_value)
        if not train_windows:
            raise DataError("training split contains no usable events")
        train_flat = baselines.FlatDataset.from_windows(train_windows)
        test_flat = baselines.FlatDataset.from_windows(test_windows)
        if method == "knn":
            pred_res, pred_act = baselines.knn_predict_batch(
                train_flat, test_flat.X, k_neighbors=cfg.get("knn_k"))
        else:
            max_depth = cfg.get("max_depth") or None
            tree = baselines.dt_fit(train_flat, max_depth=max_depth,
                                    min_leaf=cfg.get("min_leaf"))
            pred_res, pred_act = tree.predict_batch(test_flat.X)
        report = metrics.report_from_predictions(
            test_flat.residents, pred_res, test_flat.activities, pred_act)

    metrics.write_metrics_csv(report, out / "metrics.csv", method)
    report.resident.write_csv(out / "confusion_resident.csv")
    report.activity.write_csv(out / "confusion_activity.csv")
    (out / "report.txt").write_text(report.describe() + "\n")
    cfg.echo(out)
    print(f"{method}: resident accuracy {report.resident_accuracy:.4f}, "
          f"precision {report.resident_precision:.4f}, "
          f"F1 {report.resident_f1:.4f}, "
          f"activity accuracy {report.activity_accuracy:.4f}")
    return 0


def cmd_sweep(cfg) -> int:
    data = cfg.require("data")
    out = _out_dir(cfg)
    k = _window_size(cfg)
    on_value = cfg.get("on_value")
    dtype = _dtype_of(cfg.get("dtype"))
    # tuning runs default to 15 epochs, not the final-training 25
    epochs = cfg.get("epochs") if cfg.was_set("epochs") else 15
    alphas = _grid(cfg.get("alphas"), int)
    betas = _grid(cfg.get("betas"), float)
    gammas = _grid(cfg.get("gammas"), float)
    # reject a bad grid point before any of the grid trains
    for alpha, beta, gamma in itertools.product(alphas, betas, gammas):
        _train_config(batch_size=alpha, l2_weight=beta, learning_rate=gamma,
                      epochs=epochs)
    files = discover_files(data)
    split = _split(cfg, files)
    train_windows = load_windows(split.train_files, k, on_value)
    if not train_windows:
        raise DataError("training split contains no usable events")
    rows = training.sweep(
        train_windows, k=k, alphas=alphas, betas=betas, gammas=gammas,
        tuning_epochs=epochs, seed=cfg.get("seed"), dtype=dtype,
        progress=lambda r: print(
            f"alpha={r.alpha} beta={r.beta} gamma={r.gamma}: "
            f"avg {r.avg_loss:.4f} max {r.max_loss:.4f} min {r.min_loss:.4f}"),
    )
    training.write_sweep_csv(rows, out / "sweep.csv")
    best = min(rows, key=lambda r: r.avg_loss)
    print(f"best by average loss: alpha={best.alpha} beta={best.beta} "
          f"gamma={best.gamma} (avg {best.avg_loss:.4f})")
    cfg.echo(out)
    return 0


def cmd_predict(cfg) -> int:
    checkpoint = cfg.require("checkpoint")
    history = cfg.require("history")
    expect_k = _window_size(cfg) if cfg.was_set("k") else None
    params = model.load_params(checkpoint, expect_k=expect_k)
    parsed = casas.parse_file(history)
    events = casas.filter_on(parsed.events, cfg.get("on_value"))
    if not events:
        raise DataError(f"history file {history} has no usable events")
    # the target's window needs only the last k events
    window = windowing.make_windows(events[-params.k:], params.k)[-1]
    label = model.predict(window, params).label()
    print(f"resident={label.resident_id + 1} activity={label.activity_id + 1} "
          f"({casas.ACTIVITY_NAMES[label.activity_id]})")
    return 0


def cmd_gradcheck(cfg) -> int:
    k = _window_size(cfg)
    seed = cfg.get("seed")
    probes = cfg.get("probes")
    batch = cfg.get("batch")
    tolerance = cfg.get("tolerance")
    vocab_size = len(casas.DEFAULT_VOCAB)

    rng = training.derive_rng(seed, STREAM_GRADCHECK)
    events = np.zeros((batch, k, vocab_size))
    for b in range(batch):
        for i in range(k):
            events[b, i, rng.integers(0, vocab_size)] = 1.0
    residents = rng.integers(0, casas.NUM_RESIDENTS, size=batch)
    activities = rng.integers(0, casas.NUM_ACTIVITIES, size=batch)
    params = model.init_params(
        k, vocab_size, seed=training.derive_seed(seed, training.STREAM_INIT))
    # jitter every tensor off the fresh-init point: zero biases put whole
    # feature maps exactly on the ReLU kink, where one-sided finite
    # differences are meaningless
    for tensor in params.tensors():
        tensor.value.data += rng.uniform(-0.05, 0.05, size=tensor.value.shape)

    def loss_fn(tape):
        _, resident_probs, activity_probs = model.forward_batch(
            events, params, tape)
        return training.batch_loss(
            resident_probs, activity_probs, residents, activities,
            params, DEFAULTS["beta"], tape)

    report = gradient_check(loss_fn, params.tensors(), probes,
                            seed=training.derive_seed(seed, STREAM_GRADCHECK, 1))
    print(report)
    if report.max_rel_error < tolerance:
        print(f"PASS: max rel error below {tolerance}")
        return 0
    print(f"FAIL: max rel error {report.max_rel_error:.3e} "
          f"exceeds {tolerance}")
    return 3


def cmd_synth(cfg) -> int:
    out = _out_dir(cfg)
    try:
        profile = synth.SynthProfile(
            sensors=cfg.get("sensors"),
            residents=cfg.get("residents"),
            activities=cfg.get("activities"),
            files=cfg.get("files"),
            events_per_file=cfg.get("events_per_file"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    paths = synth.generate_corpus(out, profile, seed=cfg.get("seed"))
    cfg.echo(out)
    print(f"wrote {len(paths)} files to {out}")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(args)
        return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ParseError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
