import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehar import casas, model, synth
from treehar.cli import run


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


def test_synth_round_trips_through_parser(tmp_path):
    corpus = make_corpus(tmp_path, files=2, events=80)
    for path in sorted(corpus.iterdir()):
        result = casas.parse_file(path)
        assert len(result.events) == 80
        assert result.skipped_unlabeled == 0
        for line, event in zip(path.read_text().splitlines(), result.events):
            assert casas.serialize_event(event) == line


def test_synth_cli_and_profile_flags(tmp_path):
    out = tmp_path / "cli_corpus"
    code = run(["synth", "--out", str(out), "--seed", "3",
                "--files", "4", "--events-per-file", "30"])
    assert code == 0
    assert len(list(out.glob("synth_*.txt"))) == 4
    assert (out / "config_used.txt").exists()
    assert run(["synth", "--out", str(tmp_path / "x"), "--sensors", "99"]) == 1


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
    assert (out / "model.json").exists()
    log = (out / "loss_log.csv").read_text().splitlines()
    assert log[0] == "epoch,avg_loss,max_batch_loss,min_batch_loss"
    assert len(log) == 3
    config_used = (out / "config_used.txt").read_text()
    assert "k=3" in config_used
    assert "alpha=32" in config_used
    doc = json.loads((out / "model.json").read_text())
    assert doc["k"] == 3


def test_eval_tsc_writes_metrics(trained, capsys, tmp_path):
    corpus, out = trained
    eval_out = tmp_path / "eval"
    code = run(["eval", "--data", str(corpus), "--out", str(eval_out),
                "--checkpoint", str(out / "model.json"), "--seed", "7"])
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
                "--checkpoint", str(tmp_path / "nope.json"), "--seed", "7"])
    assert code == 2


def test_eval_checkpoint_k_mismatch(trained, tmp_path, capsys):
    corpus, out = trained
    code = run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                "--checkpoint", str(out / "model.json"),
                "--k", "8", "--seed", "7"])
    assert code == 2
    assert "k=3" in capsys.readouterr().err


def test_predict_outputs_pair(trained, capsys):
    corpus, out = trained
    history = sorted(corpus.iterdir())[0]
    code = run(["predict", "--checkpoint", str(out / "model.json"),
                "--history", str(history)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("resident=")
    assert "activity=" in line


def test_train_determinism_smoke(tmp_path):
    corpus = make_corpus(tmp_path, files=3, events=40, seed=2)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["train", "--data", str(corpus), "--out", str(out),
                    "--k", "3", "--epochs", "1", "--alpha", "16",
                    "--seed", "3"]) == 0
        outs.append(out)
    assert (outs[0] / "model.json").read_bytes() == \
        (outs[1] / "model.json").read_bytes()
    assert (outs[0] / "loss_log.csv").read_bytes() == \
        (outs[1] / "loss_log.csv").read_bytes()


def test_train_cv_mode(tmp_path, capsys):
    corpus = make_corpus(tmp_path, files=4, events=40, seed=4)
    out = tmp_path / "cv"
    code = run(["train", "--data", str(corpus), "--out", str(out),
                "--k", "3", "--epochs", "1", "--alpha", "16",
                "--cv", "2", "--seed", "0"])
    assert code == 0
    lines = (out / "cv_metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 2 folds + mean
    assert lines[-1].startswith("mean,")
    assert not (out / "model.json").exists()


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


def test_gradcheck_small_model(capsys):
    code = run(["gradcheck", "--k", "3", "--probes", "25", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "max rel error" in out


# ---------------------------------------------------------------------------
# usage and config files


def test_usage_errors_exit_1(tmp_path):
    assert run(["eval", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                "--method", "svm"]) == 1
    assert run(["train", "--out", str(tmp_path / "o")]) == 1  # --data missing
    assert run(["train", "--data", "d", "--out", "o", "--alpha", "-1"]) == 1
    assert run(["train", "--data", "d", "--out", "o", "--k", "banana"]) == 1


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


def test_config_file_unknown_key_rejected(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed=9\n")
    assert run(["train", "--data", "d", "--out", "o",
                "--config", str(config)]) == 1


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
        "eval": ["--data", str(corpus), "--checkpoint", str(out / "model.json")],
        "sweep": ["--data", str(corpus), "--k", "3", "--epochs", "1"],
        "predict": ["--checkpoint", str(out / "model.json"),
                    "--history", str(history)],
    }[command]
    if command != "predict":
        argv += ["--out", str(tmp_path / "o")]
    assert run([command] + argv) == 2
    err = capsys.readouterr().err
    assert ".txt:3: undecodable byte 0xe9" in err


@pytest.mark.parametrize("command", [
    "eval-tsc", "eval-knn", "eval-dt", "sweep", "predict", "train", "gradcheck",
])
def test_k_below_two_is_usage_error(trained, tmp_path, command):
    corpus, out = trained
    checkpoint = ["--checkpoint", str(out / "model.json")]
    data = ["--data", str(corpus), "--out", str(tmp_path / "o")]
    argv = {
        "eval-tsc": ["eval"] + data + checkpoint,
        "eval-knn": ["eval", "--method", "knn"] + data,
        "eval-dt": ["eval", "--method", "dt"] + data,
        "sweep": ["sweep"] + data,
        "predict": ["predict", "--history",
                    str(sorted(corpus.iterdir())[0])] + checkpoint,
        "train": ["train"] + data,
        "gradcheck": ["gradcheck"],
    }[command]
    assert run(argv + ["--k", "1"]) == 1


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    """A k=3 checkpoint and a 120-event history, as bytes."""
    base = tmp_path_factory.mktemp("fuzz")
    checkpoint = base / "model.json"
    model.save_params(model.init_params(3, 37, seed=0), checkpoint)
    history, = make_corpus(base, files=1, events=120, seed=8).glob("synth_*.txt")
    return checkpoint.read_bytes(), history.read_bytes()


@given(target=st.sampled_from(["checkpoint", "history"]),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.sampled_from(["replace", "insert", "delete"]),
                                st.integers(0, 255)),
                      min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_predict_survives_byte_mutations(predict_inputs, target, edits):
    inputs = dict(zip(["checkpoint", "history"], predict_inputs))
    blob = bytearray(inputs[target])
    for where, op, byte in edits:
        at = int(where * len(blob))
        if op == "insert":
            blob.insert(at, byte)
        elif blob:
            if op == "replace":
                blob[at] = byte
            else:
                del blob[at]
    inputs[target] = bytes(blob)
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
