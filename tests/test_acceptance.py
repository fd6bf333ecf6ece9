"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria 4 and 5 reproduce the published-protocol numbers and need the
real ADLMR corpus; point ADLMR_DIR at a directory of its 26 session
files (or place them in data/adlmr). Without it they skip and the
remaining criteria govern.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from treehar import casas, metrics, model, synth, training
from treehar.baselines import FlatDataset, dt_fit, knn_predict_batch
from treehar.cli import load_windows, run
from treehar.numerics import gradient_check
from treehar.training import TrainConfig, derive_seed, derive_rng

TABLE_RESIDENT_ACCURACY = 0.7922
TABLE_ACTIVITY_ACCURACY = 0.5848
TABLE_KNN_ACTIVITY = 0.4502
TABLE_DT_ACTIVITY = 0.4765


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _adlmr_dir():
    env = os.environ.get("ADLMR_DIR")
    if env and Path(env).is_dir():
        return Path(env)
    bundled = Path(__file__).resolve().parent.parent / "data" / "adlmr"
    if bundled.is_dir():
        return bundled
    return None


def _synth_windows(files, events_per_file, seed, k=8):
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        paths = synth.generate_corpus(
            td, synth.SynthProfile(files=files, events_per_file=events_per_file),
            seed=seed)
        return load_windows([str(p) for p in paths], k, "ON")


def test_criterion_1_gradient_correctness():
    """100 random probes of the full k=8 network vs central differences."""
    start = time.perf_counter()
    seed = 0
    rng = derive_rng(seed, 4)
    params = model.init_params(8, 37, seed=derive_seed(seed, 1))
    # evaluate at a generic point: fresh zero biases put entire feature
    # maps exactly on the ReLU kink where finite differences are one-sided
    params.flat += rng.uniform(-0.05, 0.05, size=params.flat.size)
    events = np.zeros((3, 8, 37))
    for b in range(3):
        for i in range(8):
            events[b, i, rng.integers(0, 37)] = 1.0
    residents = rng.integers(0, 2, size=3)
    activities = rng.integers(0, 15, size=3)

    def loss_fn(tape):
        _, pr, pa = model.forward_batch(events, params, tape)
        return training.batch_loss(pr, pa, residents, activities,
                                   params, 0.0004, tape)

    report = gradient_check(loss_fn, params, probe_count=100,
                            seed=derive_seed(seed, 4, 1))
    elapsed = time.perf_counter() - start
    _report(1, report.max_rel_error < 1e-4 and elapsed < 120.0,
            f"max rel error {report.max_rel_error:.3e} over 100 probes "
            f"in {elapsed:.1f}s")


def test_criterion_2_overfit_sanity():
    """64 synthetic windows: joint loss < 0.01 and perfect train accuracy."""
    start = time.perf_counter()
    windows = _synth_windows(files=1, events_per_file=110, seed=3)[:64]
    assert len(windows) == 64
    config = TrainConfig(batch_size=64, l2_weight=0.0, learning_rate=0.001,
                         epochs=200, seed=0)
    params = model.init_params(8, 37, seed=derive_seed(0, 1))
    state = training.AdamState(params)
    crossed = None
    for epoch in range(config.epochs):
        stats = training.train_epoch(windows, params, state, config, epoch)
        if stats.avg_loss < 0.01:
            crossed = epoch
            break
    train_report = metrics.evaluate(windows, params)
    elapsed = time.perf_counter() - start
    ok = (crossed is not None
          and train_report.resident_accuracy == 1.0
          and train_report.activity_accuracy == 1.0
          and elapsed < 60.0)
    _report(2, ok,
            f"loss < 0.01 at epoch {crossed}, train accuracy "
            f"resident {train_report.resident_accuracy:.3f} / "
            f"activity {train_report.activity_accuracy:.3f} in {elapsed:.1f}s")


def test_criterion_3_structural_conformance():
    params = model.init_params(8, 37, seed=0)
    modules = [p.name for p in params if p.name.endswith(".event.weight")]
    widths = [params[f"layer{i}.res3.weight"].value.shape[0]
              for i in range(1, len(modules) + 1)]
    heads = [params[f"head_{h}.weight"].value.shape for h in ("resident", "activity")]
    ok = (modules == [f"layer{i}.event.weight" for i in range(1, 8)]
          and widths == [16, 32, 64, 64, 64, 64, 64]
          and heads == [(2, 2368), (15, 2368)])
    _report(3, ok,
            f"{len(modules)} basic modules, res3 output channels {widths}, "
            f"head weights {heads}")


def _train_and_eval_once(corpus_dir, root_seed):
    files = sorted(str(p) for p in Path(corpus_dir).iterdir() if p.is_file())
    split = casas.split_files(files, 0.7, derive_seed(root_seed, 0))
    train_windows = load_windows(split.train_files, 8, "ON")
    test_windows = load_windows(split.test_files, 8, "ON")
    config = TrainConfig(seed=root_seed)  # alpha 128, beta 4e-4, gamma 2e-4, 25 epochs
    # 32-bit training is the documented fast path; checks stay 64-bit
    params, _ = training.fit(train_windows, config, dtype=np.float32)
    return metrics.evaluate(test_windows, params), split


@pytest.mark.skipif(_adlmr_dir() is None,
                    reason="ADLMR corpus not present (set ADLMR_DIR)")
def test_criterion_4_table_reproduction():
    corpus = _adlmr_dir()
    resident_accs, activity_accs = [], []
    for root_seed in (0, 1, 2):
        report, _ = _train_and_eval_once(corpus, root_seed)
        resident_accs.append(report.resident_accuracy)
        activity_accs.append(report.activity_accuracy)
    resident = float(np.mean(resident_accs))
    activity = float(np.mean(activity_accs))
    ok = (abs(resident - TABLE_RESIDENT_ACCURACY) <= 0.06
          and abs(activity - TABLE_ACTIVITY_ACCURACY) <= 0.06)
    _report(4, ok,
            f"mean over 3 split seeds: resident {resident:.4f} "
            f"(target {TABLE_RESIDENT_ACCURACY}+-0.06), "
            f"activity {activity:.4f} (target {TABLE_ACTIVITY_ACCURACY}+-0.06)")


@pytest.mark.skipif(_adlmr_dir() is None,
                    reason="ADLMR corpus not present (set ADLMR_DIR)")
def test_criterion_5_baseline_reproduction():
    corpus = _adlmr_dir()
    files = sorted(str(p) for p in corpus.iterdir() if p.is_file())
    split = casas.split_files(files, 0.7, derive_seed(0, 0))
    train_flat = FlatDataset.from_windows(load_windows(split.train_files, 8, "ON"))
    test_flat = FlatDataset.from_windows(load_windows(split.test_files, 8, "ON"))

    _, knn_act = knn_predict_batch(train_flat, test_flat.X, k_neighbors=5)
    knn_accuracy = float(np.mean(knn_act == test_flat.activities))

    tree = dt_fit(train_flat)
    _, dt_act = tree.predict_batch(test_flat.X)
    dt_accuracy = float(np.mean(dt_act == test_flat.activities))

    ok = (abs(knn_accuracy - TABLE_KNN_ACTIVITY) <= 0.08
          and abs(dt_accuracy - TABLE_DT_ACTIVITY) <= 0.08)
    _report(5, ok,
            f"KNN activity {knn_accuracy:.4f} (target {TABLE_KNN_ACTIVITY}+-0.08), "
            f"DT activity {dt_accuracy:.4f} (target {TABLE_DT_ACTIVITY}+-0.08)")


def test_criterion_6_determinism(tmp_path):
    """cmd_train twice with one config: bitwise checkpoints, identical CSVs."""
    corpus = tmp_path / "corpus"
    synth.generate_corpus(corpus, synth.SynthProfile(files=3, events_per_file=80),
                          seed=11)
    artifacts = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = run(["train", "--data", str(corpus), "--out", str(out),
                    "--k", "8", "--epochs", "2", "--alpha", "32",
                    "--seed", "5", "--dtype", "float64"])
        assert code == 0
        eval_out = tmp_path / (name + "_eval")
        code = run(["eval", "--data", str(corpus), "--out", str(eval_out),
                    "--checkpoint", str(out / "model.ckpt"), "--seed", "5"])
        assert code == 0
        artifacts.append((
            (out / "model.ckpt").read_bytes(),
            (out / "loss_log.csv").read_bytes(),
            (eval_out / "metrics.csv").read_bytes(),
        ))
    ok = artifacts[0] == artifacts[1]
    _report(6, ok, "checkpoints, loss logs and metrics CSVs bitwise identical "
                   "across reruns (64-bit)")


def test_criterion_7_parser_robustness(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code = run(["synth", "--out", str(corpus), "--seed", "9",
                "--files", "4", "--events-per-file", "60"])
    assert code == 0
    code = run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "ok")])
    round_trip_ok = code == 0
    capsys.readouterr()

    mutations = [
        ("dropped field", "2009-02-02 08:00:01 M01 ON 1"),
        ("unknown tag", "2009-02-02 08:00:01 M99 ON 1 1"),
        ("out-of-range label", "2009-02-02 08:00:01 M01 ON 1 16"),
    ]
    mutation_results = []
    for label, bad_line in mutations:
        broken = tmp_path / f"broken_{label.split()[0]}"
        broken.mkdir()
        victim = broken / "session.txt"
        lines = sorted(corpus.glob("synth_*.txt"))[0].read_text().splitlines()
        lines.insert(2, bad_line)
        victim.write_text("\n".join(lines) + "\n", encoding="ascii")
        code = run(["ingest", "--data", str(broken),
                    "--out", str(tmp_path / f"out_{label.split()[0]}")])
        err = capsys.readouterr().err
        mutation_results.append(code == 2 and f"{victim}:3" in err)

    ok = round_trip_ok and all(mutation_results)
    _report(7, ok,
            f"synthetic corpus round-trip exit 0: {round_trip_ok}; "
            f"mutations rejected with file:line: {mutation_results}")
