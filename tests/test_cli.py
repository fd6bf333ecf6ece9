import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import treehar
from treehar import casas, cli, model, synth, windowing
from treehar.cli import (SETTINGS, DataError, UsageError, build_parser, main,
                         read_config_file, run)
from treehar.numerics import GradientCheckReport, Probe


def make_corpus(tmp_path, name="corpus", files=3, events=60, seed=0):
    out = tmp_path / name
    synth.generate_corpus(out, synth.SynthProfile(files=files,
                                                  events_per_file=events),
                          seed=seed)
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic_bytes(tmp_path):
    a = make_corpus(tmp_path, "a", seed=5)
    b = make_corpus(tmp_path, "b", seed=5)
    for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert fa.read_bytes() == fb.read_bytes()
    c = make_corpus(tmp_path, "c", seed=6)
    assert any(fa.read_bytes() != fc.read_bytes()
               for fa, fc in zip(sorted(a.iterdir()), sorted(c.iterdir())))


def test_synth_golden_bytes(tmp_path):
    """The generator's output, pinned: any change to its RNG draws or its
    line format shows here."""
    paths = synth.generate_corpus(
        tmp_path, synth.SynthProfile(files=2, events_per_file=50), seed=1)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == {
        "synth_00.txt":
            "c33b4131dc89d603732481470d865ad746dc2b8b3e1e8b5ebb4d33609e4845f5",
        "synth_01.txt":
            "8b12012d134da726275150092d95336f315a83ad14652c6bf64ad7301970d0e3",
    }


def test_synth_round_trips_through_parser(tmp_path):
    corpus = make_corpus(tmp_path, files=2, events=80)
    for path in sorted(corpus.iterdir()):
        result = casas.parse_file(path)
        assert len(result.events) == 80
        assert result.skipped_unlabeled == 0
        assert [" ".join(fields) for fields in casas.format_events(result.events)] \
            == path.read_text().splitlines()


def test_synth_cli_and_profile_flags(tmp_path):
    out = tmp_path / "cli_corpus"
    code = run(["synth", "--out", str(out), "--seed", "3",
                "--files", "4", "--events-per-file", "30"])
    assert code == 0
    assert len(list(out.glob("synth_*.txt"))) == 4
    # the echo has a dot-name, which is never read as a log
    assert (out / ".config_used.txt").exists()
    assert run(["synth", "--out", str(tmp_path / "x"), "--files", "0"]) == 1


@pytest.mark.parametrize("key", ["sensors", "residents", "activities"])
def test_synth_label_and_sensor_spaces_are_fixed(tmp_path, key):
    """synth always draws from the full 37 tags, 2 residents and 15
    activities; the settings that shrank them are gone."""
    out = tmp_path / "o"
    assert run(["synth", "--out", str(out), "--" + key, "2"]) == 1
    config = tmp_path / "synth.cfg"
    config.write_text(f"{key}=2\n")
    assert run(["synth", "--out", str(out), "--config", str(config)]) == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# ingest


def test_ingest_writes_artifacts(tmp_path, capsys):
    corpus = make_corpus(tmp_path, files=4, events=50)
    out = tmp_path / "ingested"
    before = {p.name: p.read_bytes() for p in corpus.iterdir()}
    code = run(["ingest", "--data", str(corpus), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    per_file = [ln for ln in lines if "synth_" in ln and "events" in ln]
    assert len(per_file) == 4
    events_csv = (out / "events.csv").read_text().splitlines()
    assert events_csv[0] == "date,time,sensor,value,resident,activity"
    assert len(events_csv) == 1 + 4 * 50
    vocab_csv = (out / "vocabulary.csv").read_text().splitlines()
    assert len(vocab_csv) == 38
    assert vocab_csv[1] == "0,M01"
    # inputs untouched
    after = {p.name: p.read_bytes() for p in corpus.iterdir()}
    assert before == after


def test_only_dot_names_are_skipped(tmp_path, capsys):
    """synth echoes its config under a dot-name, so a fresh synth
    directory trains, and a log named config_used.txt is read as a log."""
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--files", "3",
                "--events-per-file", "40"]) == 0
    assert run(["train", "--data", str(corpus), "--out", str(tmp_path / "t"),
                "--k", "3", "--epochs", "1"]) == 0
    (corpus / "synth_00.txt").rename(corpus / "config_used.txt")
    capsys.readouterr()
    assert run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "i")]) == 0
    out = capsys.readouterr().out
    assert f"{corpus / 'config_used.txt'}: 40 events" in out
    assert out.endswith("3 files\n")


def test_ingest_file_counts_quote_file_names(tmp_path):
    corpus = make_corpus(tmp_path, files=2, events=30)
    odd = corpus / 'a,b"c.txt'
    (corpus / "synth_00.txt").rename(odd)
    out = tmp_path / "ingested"
    assert run(["ingest", "--data", str(corpus), "--out", str(out)]) == 0
    with open(out / "file_counts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["file", "events", "on_events", "skipped_unlabeled"]
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:]] == [str(odd), str(corpus / "synth_01.txt")]


def test_ingest_empty_dir_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["ingest", "--data", str(empty), "--out", str(tmp_path / "o")]) == 2
    assert run(["ingest", "--data", str(tmp_path / "missing"),
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("bad_line,description", [
    ("2009-02-02 08:00:01 M01 ON 1", "dropped field"),
    ("2009-02-02 08:00:01 M99 ON 1 1", "unknown tag"),
    ("2009-02-02 08:00:01 M01 ON 1 16", "out-of-range label"),
])
def test_ingest_mutations_fail_with_location(tmp_path, capsys,
                                             bad_line, description):
    corpus = make_corpus(tmp_path, f"mut_{description[:4]}", files=2, events=20)
    victim = sorted(corpus.iterdir())[1]
    lines = victim.read_text().splitlines()
    lines.insert(4, bad_line)
    victim.write_text("\n".join(lines) + "\n", encoding="ascii")
    code = run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{victim}:5" in err


# ---------------------------------------------------------------------------
# train / eval / predict


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Small end-to-end run shared by the pipeline tests."""
    base = tmp_path_factory.mktemp("pipeline")
    corpus = make_corpus(base, files=4, events=80, seed=1)
    out = base / "run"
    code = run(["train", "--data", str(corpus), "--out", str(out),
                "--k", "3", "--epochs", "2", "--alpha", "32", "--seed", "7"])
    assert code == 0
    return corpus, out


def test_train_artifacts(trained):
    _, out = trained
    assert (out / "model.ckpt").exists()
    log = (out / "loss_log.csv").read_text().splitlines()
    assert log[0] == "epoch,avg_loss,max_batch_loss,min_batch_loss"
    assert len(log) == 3
    config_used = (out / "config_used.txt").read_text()
    assert "k=3" in config_used
    assert "alpha=32" in config_used
    header = json.loads((out / "model.ckpt").read_bytes().split(b"\n", 1)[0])
    assert header["version"] == 3 and header["k"] == 3
    assert header["dtype"] == "float64"


def test_eval_tsc_writes_metrics(trained, capsys, tmp_path):
    corpus, out = trained
    eval_out = tmp_path / "eval"
    code = run(["eval", "--data", str(corpus), "--out", str(eval_out),
                "--checkpoint", str(out / "model.ckpt"), "--seed", "7"])
    assert code == 0
    lines = (eval_out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("method,resident_accuracy")
    fields = lines[1].split(",")
    assert fields[0] == "tsc"
    assert len(fields) == 5
    for value in fields[1:]:
        assert 0.0 <= float(value) <= 1.0
    assert (eval_out / "report.txt").exists()
    assert (eval_out / "confusion_resident.csv").exists()


@pytest.mark.parametrize("method", ["knn", "dt"])
def test_eval_baselines(trained, tmp_path, method):
    corpus, _ = trained
    eval_out = tmp_path / f"eval_{method}"
    code = run(["eval", "--data", str(corpus), "--out", str(eval_out),
                "--method", method, "--k", "3", "--seed", "7"])
    assert code == 0
    line = (eval_out / "metrics.csv").read_text().strip().splitlines()[1]
    assert line.split(",")[0] == method


def test_eval_missing_checkpoint(trained, tmp_path):
    corpus, _ = trained
    code = run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                "--checkpoint", str(tmp_path / "nope.ckpt"), "--seed", "7"])
    assert code == 2


def test_predict_outputs_pair(trained, capsys):
    corpus, out = trained
    history = sorted(corpus.iterdir())[0]
    code = run(["predict", "--checkpoint", str(out / "model.ckpt"),
                "--history", str(history)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("resident=")
    assert "activity=" in line


def test_predict_starts_no_thread(trained):
    """predict forwards one window on the caller's thread: in a fresh
    process it does not even load concurrent.futures, whose executor
    train and eval start."""
    corpus, out = trained
    args = ["predict", "--checkpoint", str(out / "model.ckpt"),
            "--history", str(sorted(corpus.iterdir())[0])]
    script = ("import sys; from treehar.cli import run; "
              f"assert run({args!r}) == 0; "
              "assert 'concurrent.futures' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(treehar.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   capture_output=True, timeout=120)


def _on_windows(history, k):
    """The windows of a history's ON events, as predict builds them."""
    events = casas.filter_on(casas.parse_file(history).events, "ON")
    return windowing.make_windows(events, k)


@pytest.mark.parametrize("dtype, biases", [
    (np.float64, [0.0, 1e-20]),
    (np.float32, [0.1, np.nextafter(np.float32(0.1), np.float32(1))]),
], ids=["float64", "float32"])
def test_predict_and_eval_agree_at_a_near_tie(trained, tmp_path, capsys,
                                              dtype, biases):
    """Resident logits that differ by less than exp can resolve have equal
    softmax probabilities; the label is still the argmax of the logits,
    through predict and predict_batch alike."""
    corpus, _ = trained
    params = model.init_params(3, 37, dtype=dtype)
    params.flat[...] = 0
    params["head_resident.bias"].value.data[...] = biases
    checkpoint = tmp_path / "tie.ckpt"
    model.save_params(params, checkpoint)
    params = model.load_params(checkpoint)
    history = sorted(corpus.iterdir())[0]
    windows = _on_windows(history, 3)
    residents, activities = model.predict_batch(
        windowing.stack_windows(windows, dtype=dtype)[0], params)
    assert residents.tolist() == [1] * len(windows)
    for w, r, a in zip(windows, residents, activities):
        assert model.predict(w, params).label() == casas.LabelPair(r, a)
    assert run(["predict", "--checkpoint", str(checkpoint),
                "--history", str(history)]) == 0
    assert capsys.readouterr().out.startswith("resident=2 ")


def test_float32_checkpoint_evals_and_predicts(trained, tmp_path, capsys):
    """A float32 train's checkpoint through eval and predict: eval counts
    every held-out window once, and predict prints predict_batch's label
    for the history's last window."""
    corpus, _ = trained
    out = tmp_path / "run32"
    assert run(["train", "--data", str(corpus), "--out", str(out), "--k", "3",
                "--epochs", "2", "--alpha", "32", "--seed", "7",
                "--dtype", "float32"]) == 0
    trained_on = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("training on "))
    windows = sum(len(_on_windows(path, 3)) for path in corpus.iterdir())
    held_out = windows - int(trained_on.split()[2])
    assert run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                "--checkpoint", str(out / "model.ckpt"), "--seed", "7"]) == 0
    for head in ("resident", "activity"):
        with open(tmp_path / "e" / f"confusion_{head}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sum(int(v) for row in rows for v in row[1:]) == held_out
    params = model.load_params(out / "model.ckpt")
    assert params.dtype == np.float32
    history = sorted(corpus.iterdir())[0]
    last = _on_windows(history, 3)[-1]
    (resident,), (activity,) = model.predict_batch(
        windowing.stack_windows([last], dtype=np.float32)[0], params)
    capsys.readouterr()
    assert run(["predict", "--checkpoint", str(out / "model.ckpt"),
                "--history", str(history)]) == 0
    assert capsys.readouterr().out == (
        f"resident={resident + 1} activity={activity + 1} "
        f"({casas.ACTIVITY_NAMES[activity]})\n")


def test_overflowing_checkpoint_is_numeric_failure(trained, tmp_path, capsys):
    """A finite checkpoint whose forward overflows: predict and eval stop
    with exit 3 instead of reporting argmax labels of NaN probabilities."""
    corpus, out = trained
    params = model.load_params(out / "model.ckpt")
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    checkpoint = tmp_path / "overflow.ckpt"
    model.save_params(params, checkpoint)
    code = run(["predict", "--checkpoint", str(checkpoint),
                "--history", str(sorted(corpus.iterdir())[0])])
    assert code == 3
    assert capsys.readouterr().out == ""
    code = run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                "--checkpoint", str(checkpoint), "--seed", "7"])
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "e" / "metrics.csv").exists()


def test_train_determinism_smoke(tmp_path):
    corpus = make_corpus(tmp_path, files=3, events=40, seed=2)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["train", "--data", str(corpus), "--out", str(out),
                    "--k", "3", "--epochs", "1", "--alpha", "16",
                    "--seed", "3"]) == 0
        outs.append(out)
    assert (outs[0] / "model.ckpt").read_bytes() == \
        (outs[1] / "model.ckpt").read_bytes()
    assert (outs[0] / "loss_log.csv").read_bytes() == \
        (outs[1] / "loss_log.csv").read_bytes()


def test_failed_train_leaves_no_output_directory(tmp_path, capsys):
    """A train that stops mid-run writes nothing: --out is made only once
    the model has trained."""
    corpus = make_corpus(tmp_path, files=4, events=80, seed=4)
    out = tmp_path / "o"
    code = run(["train", "--data", str(corpus), "--out", str(out),
                "--k", "3", "--epochs", "2", "--alpha", "32", "--gamma", "1e300"])
    assert code == 3
    assert "batch loss diverged" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_is_one_line(trained, tmp_path, capsys):
    """An overflow in predict's forward or in training's arithmetic ends in
    the one "numeric failure:" line, with no numpy RuntimeWarning before it."""
    corpus, out = trained
    params = model.load_params(out / "model.ckpt")
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    checkpoint = tmp_path / "overflow.ckpt"
    model.save_params(params, checkpoint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["predict", "--checkpoint", str(checkpoint),
                    "--history", str(sorted(corpus.iterdir())[0])]) == 3
        assert run(["train", "--data", str(corpus), "--out", str(tmp_path / "o"),
                    "--k", "3", "--epochs", "1", "--gamma", "1e300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("numeric failure: ") for line in err)


def test_cross_validation_is_gone(tmp_path, capsys):
    """The protocol is the fixed 70/30 split: --cv and cv= are usage errors."""
    argv = ["train", "--data", "d", "--out", str(tmp_path / "o")]
    assert run(argv + ["--cv", "2"]) == 1
    assert "--cv" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("cv=2\n")
    assert run(argv + ["--config", str(config)]) == 1
    assert "'cv'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# sweep / gradcheck


def test_sweep_tiny_grid(tmp_path):
    corpus = make_corpus(tmp_path, files=3, events=40, seed=5)
    out = tmp_path / "sweep"
    code = run(["sweep", "--data", str(corpus), "--out", str(out),
                "--k", "3", "--epochs", "1", "--alphas", "16,32",
                "--betas", "0.0004", "--gammas", "0.001", "--seed", "0"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,gamma,max_loss,avg_loss,min_loss"
    assert len(lines) == 3


@pytest.mark.parametrize("how", ["flag", "config"])
def test_sweep_rejects_zero_epochs(tmp_path, capsys, how):
    corpus = make_corpus(tmp_path, files=3, events=40)
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(corpus), "--out", str(out), "--k", "3"]
    if how == "flag":
        argv += ["--epochs", "0"]
    else:
        config = tmp_path / "sweep.cfg"
        config.write_text("epochs=0\n")
        argv += ["--config", str(config)]
    assert run(argv) == 1
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_small_model(capsys):
    code = run(["gradcheck", "--k", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "max rel error" in out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_gradcheck_passes_at_default_seed(capsys, k):
    """k=2 is the smallest tree: one basic module whose two inputs are
    plain event slices, and heads that read its 16 channels. k=4 once
    failed on a correct gradient of -2.7e-7, whose finite difference at
    h=1e-5 is dominated by the losses' float64 roundoff."""
    assert run(["gradcheck", "--k", str(k)]) == 0
    assert "PASS" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# usage and config files


def test_usage_errors_exit_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["eval", "--data", str(tmp_path), "--out", "o",
                "--method", "svm"]) == 1
    assert run(["train", "--out", "o"]) == 1  # --data missing
    assert run(["train", "--data", "d", "--out", "o", "--alpha", "-1"]) == 1
    assert run(["train", "--data", "d", "--out", "o", "--k", "banana"]) == 1
    assert run(["sweep", "--data", "d", "--out", "o", "--gammas", "nan"]) == 1
    assert run(["synth", "--out", "o", "--files", "0"]) == 1
    # eval reads every setting before it lists the corpus, as train does
    for flags in ([], ["--method", "knn", "--k", "banana"]):
        assert run(["eval", "--data", "missing", "--out", "o"] + flags) == 1
    # a rejected command creates no --out directory
    assert not (tmp_path / "o").exists()


def test_main_exits_with_the_code_run_returns(tmp_path, monkeypatch):
    # main is the installed treehar script: it reads sys.argv
    monkeypatch.chdir(tmp_path)
    codes = []
    for argv in (["synth", "--out", "c", "--files", "2", "--events-per-file", "20"],
                 ["train", "--out", "o"]):   # --data missing
        monkeypatch.setattr(sys, "argv", ["treehar"] + argv)
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == run(argv)
        codes.append(exit_info.value.code)
    assert codes == [0, 1]


@pytest.mark.parametrize("flags", [["gradcheck"], ["train", "--epochs", "1"]])
def test_settings_too_large_for_memory_are_usage_errors(trained, tmp_path, capsys,
                                                        flags):
    """At k = 10**15, gradcheck's (3, k) draw of sensors needs ~21 PiB and
    each file's padded sensor column in train ~7 PiB, beyond any address
    space, so the allocator refuses it at once and nothing is touched."""
    corpus, _ = trained
    out = tmp_path / "o"
    if flags[0] == "train":
        flags = flags + ["--data", str(corpus), "--out", str(out)]
    assert run(flags + ["--k", "1000000000000000"]) == 1
    assert "not enough memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("eval", "knn_k"), ("eval", "max_depth"), ("eval", "min_leaf"),
    ("gradcheck", "probes"), ("gradcheck", "batch"), ("gradcheck", "tolerance"),
    ("predict", "k"),
])
def test_fixed_settings_are_usage_errors(tmp_path, capsys, command, key):
    """The comparators and gradcheck's criterion are fixed, and predict
    takes k from the checkpoint: these flags are refused, and the six
    settings are unknown config keys (k stays a key of other commands)."""
    flag = "--" + key.replace("_", "-")
    assert run([command, flag, "3"]) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    if key != "k":
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=3\n")
        assert run([command, "--config", str(config)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "gradcheck", "synth"])
def test_negative_seed_is_usage_error(trained, tmp_path, capsys, command):
    corpus, out = trained
    data = ["--data", str(corpus), "--k", "3"]
    argv = {
        "train": ["train", "--epochs", "1"] + data,
        "eval": ["eval", "--checkpoint", str(out / "model.ckpt")] + data,
        "sweep": ["sweep", "--epochs", "1", "--alphas", "32"] + data,
        "gradcheck": ["gradcheck", "--k", "3"],
        "synth": ["synth", "--files", "2"],
    }[command]
    if command != "gradcheck":
        argv += ["--out", str(tmp_path / "o")]
    assert run(argv + ["--seed", "-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--alpha", "4096", "--gamma", "nan"],
    ["train", "--alpha", "4096", "--gamma", "inf"],
    ["train", "--alpha", "4096", "--beta", "nan"],
    ["sweep", "--alphas", "4096", "--betas", "0.0004", "--gammas", "nan"],
], ids=["train-gamma-nan", "train-gamma-inf", "train-beta-nan", "sweep-gammas-nan"])
def test_non_finite_hyperparameter_is_usage_error(trained, tmp_path, capsys, argv):
    corpus, _ = trained
    out = tmp_path / "o"
    assert run(argv + ["--data", str(corpus), "--out", str(out), "--k", "3",
                       "--epochs", "1"]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    corpus = make_corpus(tmp_path, files=3, events=30, seed=6)
    config = tmp_path / "run.cfg"
    config.write_text("k=3\nepochs=1\nalpha=16  # batch size\nseed=2\n")
    out = tmp_path / "cfg_run"
    code = run(["train", "--data", str(corpus), "--out", str(out),
                "--config", str(config), "--alpha", "8"])
    assert code == 0
    used = (out / "config_used.txt").read_text()
    assert "alpha=8" in used      # flag wins
    assert "k=3" in used          # from file
    assert "epochs=1" in used


def test_config_file_unknown_key_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed=9\n")
    assert run(["train", "--data", "d", "--out", "o",
                "--config", str(config)]) == 1
    assert not (tmp_path / "o").exists()


def test_config_file_undecodable_byte_is_data_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"k=3\nseed=\xff\n")
    assert run(["train", "--data", "d", "--out", str(tmp_path / "o"),
                "--config", str(config)]) == 2
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "train", "eval", "sweep", "predict"])
def test_undecodable_log_byte_is_data_error_with_location(trained, tmp_path,
                                                         capsys, command):
    _, out = trained
    corpus = make_corpus(tmp_path, "latin1", files=3, events=20, seed=3)
    for path in corpus.glob("synth_*.txt"):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"ON", b"\xe9N", 1).replace(b"OFF", b"\xe9FF", 1)
        path.write_bytes(b"".join(lines))
    history = sorted(corpus.glob("synth_*.txt"))[0]
    argv = {
        "ingest": ["--data", str(corpus)],
        "train": ["--data", str(corpus), "--k", "3", "--epochs", "1"],
        "eval": ["--data", str(corpus), "--checkpoint", str(out / "model.ckpt")],
        "sweep": ["--data", str(corpus), "--k", "3", "--epochs", "1"],
        "predict": ["--checkpoint", str(out / "model.ckpt"),
                    "--history", str(history)],
    }[command]
    if command != "predict":
        argv += ["--out", str(tmp_path / "o")]
    assert run([command] + argv) == 2
    err = capsys.readouterr().err
    assert ".txt:3: undecodable byte 0xe9" in err


@pytest.mark.parametrize("command", [
    "eval-knn", "eval-dt", "sweep", "train", "gradcheck",
])
def test_k_below_two_is_usage_error(trained, tmp_path, command):
    corpus, _ = trained
    data = ["--data", str(corpus), "--out", str(tmp_path / "o")]
    argv = {
        "eval-knn": ["eval", "--method", "knn"] + data,
        "eval-dt": ["eval", "--method", "dt"] + data,
        "sweep": ["sweep"] + data,
        "train": ["train"] + data,
        "gradcheck": ["gradcheck"],
    }[command]
    assert run(argv + ["--k", "1"]) == 1


def test_eval_tsc_takes_k_from_the_checkpoint(trained, tmp_path):
    """tsc reads no --k, as dt reads no neighbour count: the k=3
    checkpoint's metrics are the same whatever k is given, and k is not
    echoed."""
    corpus, out = trained
    argv = ["eval", "--data", str(corpus), "--checkpoint", str(out / "model.ckpt"),
            "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b"), "--k", "1"]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    assert "k=" not in (tmp_path / "b" / "config_used.txt").read_text()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_one_file_corpus_is_data_error(trained, tmp_path, capsys, command):
    _, out = trained
    corpus = make_corpus(tmp_path, "single", files=1, events=30)
    argv = [command, "--data", str(corpus), "--out", str(tmp_path / "o"), "--k", "3"]
    argv += (["--checkpoint", str(out / "model.ckpt")] if command == "eval"
             else ["--epochs", "1"])
    assert run(argv) == 2
    assert "at least 2 files" in capsys.readouterr().err


def _no_on_events(corpus, tmp_path):
    """corpus with every ON event turned OFF, so no window can be made."""
    off = tmp_path / "off"
    off.mkdir()
    for path in sorted(corpus.glob("synth_*.txt")):
        (off / path.name).write_text(path.read_text().replace(" ON ", " OFF "))
    return off


_MALFORMED = {   # case: (exit code, what stderr says, or None for stdout's FAIL)
    "predict-no-on-events": (2, "has no usable events"),
    "train-no-on-events": (2, "training split contains no usable events"),
    "config-line-without-equals": (1, "expected key=value, got 'k 3'"),
    "empty-alpha-grid": (1, "alphas must list at least one value, got ','"),
    "bad-last-grid-point": (1, "usage error: batch_size must be positive, got 0"),
    "gradcheck-over-tolerance": (3, None),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_with_its_code(trained, tmp_path, capsys, monkeypatch,
                                             case):
    code, message = _MALFORMED[case]
    corpus, run_dir = trained
    out = tmp_path / "o"
    if case == "predict-no-on-events":
        history = sorted(_no_on_events(corpus, tmp_path).iterdir())[0]
        argv = ["predict", "--checkpoint", str(run_dir / "model.ckpt"),
                "--history", str(history)]
    elif case == "train-no-on-events":
        argv = ["train", "--data", str(_no_on_events(corpus, tmp_path)),
                "--out", str(out), "--k", "3", "--epochs", "1"]
    elif case == "config-line-without-equals":
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\nk 3\n")
        argv = ["train", "--data", str(corpus), "--out", str(out),
                "--config", str(config)]
    elif case == "empty-alpha-grid":
        argv = ["sweep", "--data", str(corpus), "--out", str(out),
                "--alphas", ","]
    elif case == "bad-last-grid-point":   # the whole grid is checked before 16 trains
        argv = ["sweep", "--data", str(corpus), "--out", str(out), "--k", "3",
                "--epochs", "1", "--alphas", "16,0"]
    else:
        report = GradientCheckReport(0.5, [Probe("layer1.event.weight", 0, 1.0, 3.0, 0.5)])
        monkeypatch.setattr(cli, "gradient_check", lambda *args, **kwargs: report)
        argv = ["gradcheck", "--k", "3"]
    assert run(argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert "FAIL: max rel error 5.000e-01 exceeds" in captured.out
    else:
        assert message in captured.err
        assert captured.out == ""   # no progress line: nothing ran
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "7"), ("--beta", "0.1"), ("--gamma", "5"), ("--epochs", "99"),
    ("--dtype", "float64"),
])
def test_eval_rejects_training_flags(trained, tmp_path, capsys, flag, value):
    """eval reads none of train's hyperparameters, so it refuses them
    rather than accept and ignore them; as config-file keys they stay
    valid, since one file may serve every command."""
    corpus, out = trained
    eval_out = tmp_path / "o"
    argv = ["eval", "--data", str(corpus), "--out", str(eval_out),
            "--checkpoint", str(out / "model.ckpt")]
    assert run(argv + [flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not eval_out.exists()
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]}={value}\n")
    assert run(argv + ["--config", str(config)]) == 0


def test_knn_k_above_training_windows_is_data_error(tmp_path, capsys):
    """Two 4-event files give a training side of at most 4 windows, fewer
    than the 5 neighbours knn votes over."""
    corpus = make_corpus(tmp_path, files=2, events=4)
    out = tmp_path / "o"
    assert run(["eval", "--data", str(corpus), "--out", str(out), "--method",
                "knn", "--k", "3"]) == 2
    assert "training windows" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    """`treehar synth --seed 1`: the default 26 files of 240 events."""
    out = tmp_path_factory.mktemp("default") / "corpus"
    assert run(["synth", "--out", str(out), "--seed", "1"]) == 0
    return out


@pytest.mark.parametrize("flags, line", [
    (["--method", "dt"], "dt,0.525764192139738,0.5273959157633866,"
                         "0.5256469629610414,0.4960698689956332"),
    (["--method", "knn"], "knn,0.5502183406113537,0.5480403046651856,"
                          "0.5437819963807389,0.39126637554585153"),
], ids=["dt", "knn"])
def test_eval_baseline_golden_metrics(default_corpus, tmp_path, flags, line):
    # exact: the distances and the class counts are integers
    out = tmp_path / "o"
    assert run(["eval", "--data", str(default_corpus), "--out", str(out)]
               + flags) == 0
    assert (out / "metrics.csv").read_text().splitlines()[1] == line


def _mutate(blob: bytes, edits) -> bytes:
    """Apply (where, op, byte) edits: replace, insert or delete one byte at
    the fraction `where` of the current length."""
    blob = bytearray(blob)
    for where, op, byte in edits:
        at = int(where * len(blob))
        if op == "insert":
            blob.insert(at, byte)
        elif blob:
            if op == "replace":
                blob[at] = byte
            else:
                del blob[at]
    return bytes(blob)


_EDITS = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                            st.sampled_from(["replace", "insert", "delete"]),
                            st.integers(0, 255)),
                  min_size=1, max_size=4)


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    """A k=3 checkpoint and a 120-event history, as bytes."""
    base = tmp_path_factory.mktemp("fuzz")
    checkpoint = base / "model.ckpt"
    model.save_params(model.init_params(3, 37, seed=0), checkpoint)
    history, = make_corpus(base, files=1, events=120, seed=8).glob("synth_*.txt")
    return checkpoint.read_bytes(), history.read_bytes()


@given(target=st.sampled_from(["checkpoint", "history"]), edits=_EDITS)
@settings(max_examples=50, deadline=None)
def test_predict_survives_byte_mutations(predict_inputs, target, edits):
    inputs = dict(zip(["checkpoint", "history"], predict_inputs))
    inputs[target] = _mutate(inputs[target], edits)
    with tempfile.TemporaryDirectory() as td:
        paths = {name: Path(td) / name for name in inputs}
        for name, data in inputs.items():
            paths[name].write_bytes(data)
        code = run(["predict", "--checkpoint", str(paths["checkpoint"]),
                    "--history", str(paths["history"])])
        assert code in (0, 1, 2, 3)
        try:
            params = model.load_params(paths["checkpoint"])
        except model.CheckpointError:
            return
        assert all(np.isfinite(p.value.data).all() for p in params)


@given(edits=_EDITS)
@settings(max_examples=60, deadline=None)
def test_predict_survives_header_mutations(predict_inputs, edits):
    """The same property with every edit inside the checkpoint's header
    line, newline included, which uniform edits of the file rarely hit."""
    checkpoint, history = predict_inputs
    header_end = checkpoint.index(b"\n") + 1
    mutated = _mutate(checkpoint[:header_end], edits) + checkpoint[header_end:]
    with tempfile.TemporaryDirectory() as td:
        paths = {"checkpoint": Path(td) / "model.ckpt", "history": Path(td) / "h.txt"}
        paths["checkpoint"].write_bytes(mutated)
        paths["history"].write_bytes(history)
        code = run(["predict", "--checkpoint", str(paths["checkpoint"]),
                    "--history", str(paths["history"])])
        assert code in (0, 1, 2, 3)
        try:
            params = model.load_params(paths["checkpoint"])
        except model.CheckpointError:
            return
        assert [p.name for p in params] == list(model.expected_shapes(3, 37))
        assert all(np.isfinite(p.value.data).all() for p in params)


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """Three 30-event logs, a config file and a k=3 checkpoint, as bytes."""
    base = tmp_path_factory.mktemp("fuzz_run")
    checkpoint = base / "model.ckpt"
    model.save_params(model.init_params(3, 37, seed=0), checkpoint)
    corpus = make_corpus(base, files=3, events=30, seed=9)
    logs = {p.name: p.read_bytes() for p in sorted(corpus.glob("synth_*.txt"))}
    # every value here is read by train or eval
    config = (b"k=3\nepochs=1\nseed=2\nalpha=16\nbeta=0.0004\ngamma=0.001\n"
              b"dtype=float64\non_value=ON\n")
    return logs, config, checkpoint.read_bytes()


def _resolved(values, key, invalid):
    """A config file's value of `key` through its SETTINGS converter, or
    `invalid` where the converter rejects it."""
    setting = SETTINGS[key]
    try:
        return setting.convert(values.get(key, setting.default))
    except ValueError:
        return invalid


@given(command=st.sampled_from(["train", "eval", "knn", "dt"]),
       target=st.sampled_from(["log", "config"]),
       which=st.integers(0, 2), edits=_EDITS)
@settings(max_examples=40, deadline=None)
def test_train_and_eval_survive_byte_mutations(run_inputs, command, target, which,
                                               edits):
    logs, config, checkpoint = run_inputs
    logs = dict(logs)
    if target == "log":
        name = sorted(logs)[which]
        logs[name] = _mutate(logs[name], edits)
    else:
        config = _mutate(config, edits)
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        (td / "corpus").mkdir()
        for name, data in logs.items():
            (td / "corpus" / name).write_bytes(data)
        (td / "run.cfg").write_bytes(config)
        (td / "model.ckpt").write_bytes(checkpoint)
        try:
            values = read_config_file(td / "run.cfg")
        except UsageError:
            rejected = 1
        except DataError:   # an undecodable byte
            rejected = 2
        else:
            rejected = None
            # a mutated k or epochs runs unless it would make the run long
            assume(_resolved(values, "k", 2) <= 4)
            assume(_resolved(values, "epochs", 0) <= 2)
        argv = {"train": ["train"],
                "eval": ["eval", "--checkpoint", str(td / "model.ckpt")],
                "knn": ["eval", "--method", "knn"],
                "dt": ["eval", "--method", "dt"]}[command]
        # a held-out split missing a class is the one warning a run may give
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv + ["--data", str(td / "corpus"), "--out", str(td / "out"),
                               "--config", str(td / "run.cfg")])
        for warning in caught:
            assert warning.category is UserWarning, warning
            assert "has a zero denominator; reporting 0" in str(warning.message)
        assert code in (0, 1, 2, 3)
        if rejected is not None:
            assert code == rejected
        if code == 0 and command == "train":
            model.load_params(td / "out" / "model.ckpt")   # complete and finite


# ---------------------------------------------------------------------------
# golden command surface: accepted flags and configuration echoes


def _accepted_flags():
    parser = build_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(opt for action in sub._actions
                         for opt in action.option_strings
                         if opt.startswith("--") and opt != "--help")
            for name, sub in commands.items()}


def test_accepted_flags_golden():
    assert _accepted_flags() == {
        "ingest": ["--config", "--data", "--on-value", "--out"],
        "train": ["--alpha", "--beta", "--config", "--data", "--dtype",
                  "--epochs", "--gamma", "--k", "--on-value", "--out", "--seed"],
        "eval": ["--checkpoint", "--config", "--data", "--k", "--method",
                 "--on-value", "--out", "--seed"],
        "sweep": ["--alphas", "--betas", "--config", "--data", "--dtype",
                  "--epochs", "--gammas", "--k", "--on-value", "--out", "--seed"],
        "predict": ["--checkpoint", "--config", "--history", "--on-value"],
        "gradcheck": ["--config", "--k", "--seed"],
        "synth": ["--config", "--events-per-file", "--files", "--out", "--seed"],
    }


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """One run of every command on a tiny corpus: the configuration echo
    of each writing command, with the run's base directory replaced by
    <base>, and every key that RunConfig.get (which require calls) read."""
    base = tmp_path_factory.mktemp("echo")
    corpus = base / "corpus"
    checkpoint = str(base / "train" / "model.ckpt")
    runs = {
        "synth": (["synth", "--out", str(corpus), "--seed", "4", "--files", "3",
                   "--events-per-file", "40"], corpus / ".config_used.txt"),
        "ingest": (["ingest"], None),
        "train": (["train", "--k", "3", "--epochs", "1", "--alpha", "32"], None),
        "eval-tsc": (["eval", "--checkpoint", checkpoint], None),
        "eval-knn": (["eval", "--method", "knn", "--k", "3"], None),
        "eval-dt": (["eval", "--method", "dt", "--k", "3"], None),
        "sweep": (["sweep", "--k", "3", "--alphas", "32", "--betas", "0.0004",
                   "--gammas", "0.001"], None),
    }
    texts, read = {}, set()
    get = cli.RunConfig.get

    def recording_get(self, key, default=None):
        read.add(key)
        return get(self, key, default)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.RunConfig, "get", recording_get)
        for name, (argv, echo) in runs.items():
            if echo is None:
                out = base / name
                argv = argv + ["--data", str(corpus), "--out", str(out)]
                echo = out / "config_used.txt"
            assert run(argv) == 0, name
            texts[name] = echo.read_text().replace(str(base), "<base>")
        assert run(["predict", "--checkpoint", checkpoint,
                    "--history", str(corpus / "synth_00.txt")]) == 0
        assert run(["gradcheck", "--k", "2"]) == 0
    return texts, read


_ECHO_GOLDEN = {
    "synth": "events_per_file=40\nfiles=3\nout=<base>/corpus\nseed=4\n",
    "ingest": "data=<base>/corpus\non_value=ON\nout=<base>/ingest\n",
    "train": "alpha=32\nbeta=0.0004\ndata=<base>/corpus\ndtype=float64\n"
             "epochs=1\ngamma=0.0002\nk=3\non_value=ON\nout=<base>/train\nseed=0\n",
    "eval-tsc": "checkpoint=<base>/train/model.ckpt\ndata=<base>/corpus\n"
                "method=tsc\non_value=ON\nout=<base>/eval-tsc\nseed=0\n",
    "eval-knn": "data=<base>/corpus\nk=3\nmethod=knn\non_value=ON\n"
                "out=<base>/eval-knn\nseed=0\n",
    "eval-dt": "data=<base>/corpus\nk=3\nmethod=dt\non_value=ON\n"
               "out=<base>/eval-dt\nseed=0\n",
    "sweep": "alphas=32\nbetas=0.0004\ndata=<base>/corpus\ndtype=float64\n"
             "epochs=15\ngammas=0.001\nk=3\non_value=ON\nout=<base>/sweep\nseed=0\n",
}


@pytest.mark.parametrize("command", list(_ECHO_GOLDEN))
def test_config_echo_golden(command_runs, command):
    texts, _ = command_runs
    assert texts[command] == _ECHO_GOLDEN[command]


def test_every_setting_is_read_by_some_command(command_runs):
    """A SETTINGS row that no handler reads is a flag that does nothing."""
    _, read = command_runs
    assert read == set(SETTINGS)


# ---------------------------------------------------------------------------
# the CSV dialect of every artifact

_CSV_HEADERS = {
    "events.csv": "date,time,sensor,value,resident,activity",
    "file_counts.csv": "file,events,on_events,skipped_unlabeled",
    "vocabulary.csv": "index,tag",
    "loss_log.csv": "epoch,avg_loss,max_batch_loss,min_batch_loss",
    "metrics.csv": "method,resident_accuracy,resident_precision,resident_f1,"
                   "activity_accuracy",
    "confusion_resident.csv": "true\\pred,0,1",
    "confusion_activity.csv": "true\\pred," + ",".join(map(str, range(15))),
    "sweep.csv": "alpha,beta,gamma,max_loss,avg_loss,min_loss",
}


def test_every_csv_artifact_has_one_dialect(tmp_path):
    """Each CSV that ingest, train, eval and sweep write ends its lines in
    "\\n" alone, starts with the header the cli docstring documents, and
    has one column count."""
    corpus = make_corpus(tmp_path, files=3, events=40)
    runs = {
        "ingest": ["ingest"],
        "train": ["train", "--k", "3", "--epochs", "1", "--alpha", "16"],
        "tsc": ["eval", "--checkpoint", str(tmp_path / "train" / "model.ckpt")],
        "knn": ["eval", "--method", "knn", "--k", "3"],
        "sweep": ["sweep", "--k", "3", "--epochs", "1", "--alphas", "16",
                  "--betas", "0.0004", "--gammas", "0.001"],
    }
    seen = set()
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(argv + ["--data", str(corpus), "--out", str(out)]) == 0, name
        for path in sorted(out.glob("*.csv")):
            data = path.read_bytes()
            assert b"\r" not in data, path
            rows = list(csv.reader(data.decode().splitlines()))
            assert rows[0] == _CSV_HEADERS[path.name].split(","), path
            assert {len(row) for row in rows} == {len(rows[0])}, path
            seen.add(path.name)
    assert seen == set(_CSV_HEADERS)
