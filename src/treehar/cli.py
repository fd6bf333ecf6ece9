"""Command-line pipeline driver.

Subcommands: ingest, train, eval, sweep, predict, gradcheck, synth.
Every setting is declared once, as one row of SETTINGS: its converter;
its default, taken from the library where the library defines one; and
the commands that take it as a flag. The converter also enforces the
range, except where a library object checks it when built:
training.TrainConfig for alpha, beta, gamma, epochs and each point of
sweep's alphas x betas x gammas grid, synth.SynthProfile for files and
events_per_file. Its ValueError is a usage error in its own words
(--alpha 0: "batch_size must be positive, got 0"). A value comes from
that default, overridden by an optional key=value config file (any key
of SETTINGS suits any command), overridden by an explicit flag. Every
command that writes artifacts echoes the configuration it actually used.
One root seed drives file splitting, parameter init and epoch shuffles;
eval splits by its own --seed, so give it the seed that train echoed in
config_used.txt, or tsc may be scored on its own training files. eval's
knn and dt are the paper's fixed comparators and take no settings: 5
neighbours, and a CART grown until each leaf is pure or no split gains.
eval's tsc and predict take k from the checkpoint. gradcheck has one
criterion: 100 probes on 3 random windows, each relative error below
1e-4.

Reproducibility: train gives the same checkpoint bytes for the same seed,
settings and data with the same numpy and BLAS build, and eval the same
tsc labels for the same checkpoint. Each batch and each eval chunk is cut
into two fixed halves, run as training.two_halves says. Where numpy's BLAS
is an OpenBLAS reached through numpy's extension module, the bytes do not
depend on the core count or the BLAS thread count; otherwise they depend
on the latter.

Artifacts, written in --out beside the config_used.txt echo (synth's
echo is .config_used.txt, a dot-name, so the corpus reads as logs only),
each CSV with its header:
    ingest  events.csv       date,time,sensor,value,resident,activity
            file_counts.csv  file,events,on_events,skipped_unlabeled
            vocabulary.csv   index,tag
    train   loss_log.csv     epoch,avg_loss,max_batch_loss,min_batch_loss
            model.ckpt       a JSON header line, then raw tensor bytes
    eval    metrics.csv      method,resident_accuracy,resident_precision,
                             resident_f1,activity_accuracy
            confusion_resident.csv, confusion_activity.csv
                             true\\pred,0,1,... (a row per true class)
            report.txt
    sweep   sweep.csv        alpha,beta,gamma,max_loss,avg_loss,min_loss
    synth   synth_00.txt, synth_01.txt, ... in the log format (see casas)
predict and gradcheck only print. events.csv holds the log's six fields,
labels 1-based. _write_csv writes every CSV: a header row, then a row per
record, minimal quoting, each line ending in "\\n", floats as their repr.

Exit codes: 0 success, 1 usage (including settings too large for the
available memory), 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import sys
from collections import namedtuple
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import baselines, casas, metrics, model, synth, training, windowing
from .casas import ParseError
from .model import CheckpointError
from .numerics import NumericError, ShapeError, gradient_check


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _OutOfRange(ValueError):
    """A well-formed value outside its setting's range."""


def _at_least(low: int):
    def convert(text) -> int:
        value = int(text)
        if value < low:
            raise _OutOfRange(f"must be >= {low}, got {value}")
        return value
    return convert


def _one_of(*choices, convert=str):
    def check(text):
        if text not in choices:
            raise _OutOfRange(f"must be {', '.join(choices[:-1])} or "
                              f"{choices[-1]}, got {text!r}")
        return convert(text)
    return check


def _grid(convert):
    """Comma-separated text, or the library's default tuple, to a tuple."""
    def parse(text) -> tuple:
        parts = text.split(",") if isinstance(text, str) else text
        values = tuple(convert(part) for part in parts if str(part).strip())
        if not values:
            raise _OutOfRange(f"must list at least one value, got {text!r}")
        return values
    return parse


Setting = namedtuple("Setting", "convert default commands")
_TRAIN = training.TrainConfig()
_SYNTH = synth.DEFAULT_PROFILE
_SPLIT = ("train", "eval", "sweep")   # the commands that split a corpus

SETTINGS = {
    "data": Setting(str, None, ("ingest",) + _SPLIT),
    "out": Setting(str, None, ("ingest", "synth") + _SPLIT),
    "checkpoint": Setting(str, None, ("eval", "predict")),
    "history": Setting(str, None, ("predict",)),
    "on_value": Setting(str, "ON", ("ingest", "predict") + _SPLIT),
    "seed": Setting(_at_least(0), _TRAIN.seed, ("gradcheck", "synth") + _SPLIT),
    "k": Setting(_at_least(2), 8, ("gradcheck",) + _SPLIT),
    "dtype": Setting(_one_of("float32", "float64", convert=np.dtype), "float64",
                     ("train", "sweep")),
    "alpha": Setting(int, _TRAIN.batch_size, ("train",)),
    "beta": Setting(float, _TRAIN.l2_weight, ("train",)),
    "gamma": Setting(float, _TRAIN.learning_rate, ("train",)),
    # sweep reads epochs with training.TUNING_EPOCHS as its default
    "epochs": Setting(int, _TRAIN.epochs, ("train", "sweep")),
    "alphas": Setting(_grid(int), training.DEFAULT_ALPHA_GRID, ("sweep",)),
    "betas": Setting(_grid(float), training.DEFAULT_BETA_GRID, ("sweep",)),
    "gammas": Setting(_grid(float), training.DEFAULT_GAMMA_GRID, ("sweep",)),
    "method": Setting(_one_of("tsc", "knn", "dt"), "tsc", ("eval",)),
    "files": Setting(int, _SYNTH.files, ("synth",)),
    "events_per_file": Setting(int, _SYNTH.events_per_file, ("synth",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache   # built once per process: run() is called once per request
def build_parser() -> _Parser:
    parser = _Parser(prog="treehar", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="key=value config file")
        for key, setting in SETTINGS.items():
            if name in setting.commands:
                p.add_argument("--" + key.replace("_", "-"))
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
        if key not in SETTINGS:
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

    def get(self, key, default=None):
        """The converted value of a setting; `default` overrides the
        table's default for this one read."""
        setting = SETTINGS[key]
        raw = self._flags.get(key, self._file.get(
            key, setting.default if default is None else default))
        if raw is None:
            self._used[key] = ""
            return None
        try:
            value = setting.convert(raw)
        except _OutOfRange as exc:
            raise UsageError(f"{key} {exc}") from None
        except (ValueError, TypeError):
            raise UsageError(f"bad value for {key}: {raw!r}") from None
        self._used[key] = (",".join(map(str, value)) if isinstance(value, tuple)
                           else value)
        return value

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
        return value

    def echo(self, out_dir, name="config_used.txt"):
        lines = [f"{k}={self._used[k]}" for k in sorted(self._used)]
        (Path(out_dir) / name).write_text("\n".join(lines) + "\n")


def _checked(settings_type, **fields):
    """A library settings object, which checks its own ranges; its
    ValueError is a usage error."""
    try:
        return settings_type(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def discover_files(data_dir) -> list:
    base = Path(data_dir)
    if not base.is_dir():
        raise DataError(f"{data_dir} is not a directory")
    files = sorted(str(p) for p in base.iterdir()
                   if p.is_file() and not p.name.startswith("."))
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
    """--out, checked before any work: the nearest of it and its ancestors
    that exists must be a directory. _make_dir creates it later."""
    out = Path(cfg.require("out"))
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise DataError(f"cannot write to {out}: {existing} is not a directory")
    return out


def _make_dir(out: Path) -> Path:
    """Create the --out directory when the command is about to write, so
    that a command rejected for its arguments or data leaves nothing."""
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    """The one writer of every CSV artifact; csv writes a float as its
    repr, so a float reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _split(files, seed):
    split_seed = training.derive_seed(seed, training.STREAM_SPLIT)
    try:
        return casas.split_files(files, ratio=0.7, seed=split_seed)
    except ValueError as exc:   # fewer than two files
        raise DataError(str(exc)) from None


def _side_windows(files, side, k, on_value) -> list:
    """The windows of one side of the split; an empty side is a data error."""
    windows = load_windows(files, k, on_value)
    if not windows:
        raise DataError(f"{side} split contains no usable events")
    return windows


# ---------------------------------------------------------------------------
# command handlers; each docstring is the command's help text


def cmd_ingest(cfg) -> int:
    """parse a corpus directory and write the canonical CSV"""
    data = cfg.require("data")
    out = _out_dir(cfg)
    on_value = cfg.get("on_value")
    files = discover_files(data)
    file_events = []
    count_rows = []
    for path in files:
        parsed = casas.parse_file(path)
        on_events = casas.filter_on(parsed.events, on_value)
        count_rows.append((path, len(parsed.events), len(on_events),
                           parsed.skipped_unlabeled))
        print(f"{path}: {len(parsed.events)} events, {len(on_events)} {on_value}, "
              f"{parsed.skipped_unlabeled} unlabeled skipped")
        file_events.append(parsed.events)
    _write_csv(_make_dir(out) / "events.csv",
               ["date", "time", "sensor", "value", "resident", "activity"],
               itertools.chain.from_iterable(map(casas.format_events, file_events)))
    _write_csv(out / "file_counts.csv",
               ["file", "events", "on_events", "skipped_unlabeled"], count_rows)
    _write_csv(out / "vocabulary.csv", ["index", "tag"],
               enumerate(casas.DEFAULT_VOCAB))
    cfg.echo(out)
    total_on = sum(r[2] for r in count_rows)
    print(f"total: {sum(map(len, file_events))} events, {total_on} {on_value}, "
          f"{len(files)} files")
    return 0


def cmd_train(cfg) -> int:
    """train the tree CNN on the 70/30 file split"""
    data = cfg.require("data")
    out = _out_dir(cfg)
    k = cfg.get("k")
    on_value = cfg.get("on_value")
    dtype = cfg.get("dtype")
    config = _checked(training.TrainConfig, batch_size=cfg.get("alpha"),
                      l2_weight=cfg.get("beta"), learning_rate=cfg.get("gamma"),
                      epochs=cfg.get("epochs"), seed=cfg.get("seed"))
    split = _split(discover_files(data), config.seed)
    train_windows = _side_windows(split.train_files, "training", k, on_value)
    print(f"training on {len(train_windows)} windows from "
          f"{len(split.train_files)} files")
    params, history = training.fit(
        train_windows, config, dtype=dtype,
        progress=lambda s: print(
            f"epoch {s.epoch}: avg_loss {s.avg_loss:.6f} "
            f"(max {s.max_batch_loss:.6f}, min {s.min_batch_loss:.6f})"),
    )
    _make_dir(out)
    _write_csv(out / "loss_log.csv",
               ["epoch", "avg_loss", "max_batch_loss", "min_batch_loss"],
               map(astuple, history))
    model.save_params(params, out / "model.ckpt")
    cfg.echo(out)
    print(f"checkpoint written to {out / 'model.ckpt'}")
    return 0


def cmd_eval(cfg) -> int:
    """evaluate a method on the held-out files of the split by --seed; give
    tsc the seed that train echoed, or it may score its own training files"""
    data = cfg.require("data")
    out = _out_dir(cfg)
    seed = cfg.get("seed")
    method = cfg.get("method")
    on_value = cfg.get("on_value")
    if method == "tsc":
        params = model.load_params(cfg.require("checkpoint"))
        k = params.k
    else:
        k = cfg.get("k")

    split = _split(discover_files(data), seed)
    test_windows = _side_windows(split.test_files, "test", k, on_value)

    if method == "tsc":
        report = metrics.evaluate(test_windows, params)
    else:
        train_windows = _side_windows(split.train_files, "training", k, on_value)
        train_flat = baselines.FlatDataset.from_windows(train_windows)
        test_flat = baselines.FlatDataset.from_windows(test_windows)
        if method == "knn":
            try:
                pred_res, pred_act = baselines.knn_predict_batch(
                    train_flat, test_flat.X)
            except ValueError:   # fewer windows than neighbours
                raise DataError(f"knn needs {baselines.KNN_NEIGHBORS} training "
                                f"windows, got {len(train_flat)}") from None
        else:
            pred_res, pred_act = baselines.dt_fit(train_flat).predict_batch(test_flat.X)
        report = metrics.report_from_predictions(
            test_flat.residents, pred_res, test_flat.activities, pred_act)

    _write_csv(_make_dir(out) / "metrics.csv",
               ["method", "resident_accuracy", "resident_precision",
                "resident_f1", "activity_accuracy"],
               [(method, report.resident_accuracy, report.resident_precision,
                 report.resident_f1, report.activity_accuracy)])
    for head in ("resident", "activity"):
        counts = getattr(report, head).counts
        _write_csv(out / f"confusion_{head}.csv",
                   ["true\\pred", *range(len(counts))],
                   ([c, *row] for c, row in enumerate(counts.tolist())))
    (out / "report.txt").write_text(report.describe() + "\n")
    cfg.echo(out)
    print(f"{method}: resident accuracy {report.resident_accuracy:.4f}, "
          f"precision {report.resident_precision:.4f}, "
          f"F1 {report.resident_f1:.4f}, "
          f"activity accuracy {report.activity_accuracy:.4f}")
    return 0


def cmd_sweep(cfg) -> int:
    """hyperparameter grid over batch size, L2 weight, rate"""
    data = cfg.require("data")
    out = _out_dir(cfg)
    k = cfg.get("k")
    seed = cfg.get("seed")
    on_value = cfg.get("on_value")
    dtype = cfg.get("dtype")
    epochs = cfg.get("epochs", default=training.TUNING_EPOCHS)
    if epochs < 1:
        raise UsageError(f"sweep epochs must be >= 1, got {epochs}")
    # every grid point is built, and so checked, before any of them trains
    configs = [_checked(training.TrainConfig, batch_size=alpha, l2_weight=beta,
                        learning_rate=gamma, epochs=epochs, seed=seed)
               for alpha, beta, gamma in itertools.product(
                   cfg.get("alphas"), cfg.get("betas"), cfg.get("gammas"))]
    split = _split(discover_files(data), seed)
    train_windows = _side_windows(split.train_files, "training", k, on_value)
    rows = training.sweep(
        train_windows, configs, dtype=dtype,
        progress=lambda r: print(
            f"alpha={r.alpha} beta={r.beta} gamma={r.gamma}: "
            f"avg {r.avg_loss:.4f} max {r.max_loss:.4f} min {r.min_loss:.4f}"),
    )
    _write_csv(_make_dir(out) / "sweep.csv",
               ["alpha", "beta", "gamma", "max_loss", "avg_loss", "min_loss"],
               map(astuple, rows))
    best = min(rows, key=lambda r: r.avg_loss)
    print(f"best by average loss: alpha={best.alpha} beta={best.beta} "
          f"gamma={best.gamma} (avg {best.avg_loss:.4f})")
    cfg.echo(out)
    return 0


def cmd_predict(cfg) -> int:
    """predict (resident, activity) for the last --on-value (ON) event of
    a history file"""
    checkpoint = cfg.require("checkpoint")
    history = cfg.require("history")
    params = model.load_params(checkpoint)
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


GRADCHECK_PROBES = 100   # gradcheck's one criterion (see the module docstring)
GRADCHECK_BATCH = 3
GRADCHECK_TOLERANCE = 1e-4


def cmd_gradcheck(cfg) -> int:
    """compare analytic and finite-difference gradients"""
    k = cfg.get("k")
    seed = cfg.get("seed")
    vocab_size = len(casas.DEFAULT_VOCAB)

    rng = training.derive_rng(seed, training.STREAM_GRADCHECK)
    events = windowing.one_hot(rng.integers(0, vocab_size, size=(GRADCHECK_BATCH, k)))
    residents = rng.integers(0, casas.NUM_RESIDENTS, size=GRADCHECK_BATCH)
    activities = rng.integers(0, casas.NUM_ACTIVITIES, size=GRADCHECK_BATCH)
    params = model.init_params(
        k, vocab_size, seed=training.derive_seed(seed, training.STREAM_INIT))
    # jitter every tensor off the fresh-init point: zero biases put whole
    # feature maps exactly on the ReLU kink, where one-sided finite
    # differences are meaningless
    params.flat += rng.uniform(-0.05, 0.05, size=params.flat.size)

    def loss_fn(tape):
        _, resident_logits, activity_logits = model.forward_batch(
            events, params, tape)
        return training.batch_loss(
            resident_logits, activity_logits, residents, activities,
            params, _TRAIN.l2_weight, tape)

    report = gradient_check(
        loss_fn, params, GRADCHECK_PROBES,
        seed=training.derive_seed(seed, training.STREAM_GRADCHECK, 1))
    print(report)
    if report.max_rel_error < GRADCHECK_TOLERANCE:
        print(f"PASS: max rel error below {GRADCHECK_TOLERANCE}")
        return 0
    print(f"FAIL: max rel error {report.max_rel_error:.3e} "
          f"exceeds {GRADCHECK_TOLERANCE}")
    return 3


def cmd_synth(cfg) -> int:
    """generate a synthetic corpus in the log format"""
    out = _out_dir(cfg)
    seed = cfg.get("seed")
    profile = _checked(synth.SynthProfile, files=cfg.get("files"),
                       events_per_file=cfg.get("events_per_file"))
    paths = synth.generate_corpus(out, profile, seed=seed)
    cfg.echo(out, ".config_used.txt")   # a dot-name: not read as a log
    print(f"wrote {len(paths)} files to {out}")
    return 0


_HANDLERS = {handler.__name__[len("cmd_"):]: handler for handler in (
    cmd_ingest, cmd_train, cmd_eval, cmd_sweep, cmd_predict, cmd_gradcheck,
    cmd_synth)}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(args)
        # an overflow is reported once, as a numeric failure: the logits, each
        # batch loss and every model loaded or trained are checked for it
        with np.errstate(over="ignore", invalid="ignore"):
            return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("usage error: not enough memory for these settings", file=sys.stderr)
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
