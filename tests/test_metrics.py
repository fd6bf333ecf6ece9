import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treehar import metrics, training
from treehar.cli import run
from treehar.metrics import ConfusionMatrix, evaluate, report_from_predictions
from treehar.model import init_params, save_params
from treehar.numerics import NumericError
from treehar.windowing import make_windows, stack_windows

from test_cli import make_corpus
from test_model import _events


def _labels(rows):
    """(true, predicted) label arrays whose confusion counts are rows."""
    pairs = [(t, p) for t, row in enumerate(rows) for p, n in enumerate(row)
             for _ in range(n)]
    return tuple(np.array(column) for column in zip(*pairs))


def _resident_report(rows):
    """The report of resident labels whose counts are rows, with every
    activity right."""
    true, predicted = _labels(rows)
    return report_from_predictions(true, predicted, true, true)


def test_perfect_predictor_all_ones():
    report = report_from_predictions([0, 1, 0], [0, 1, 0],
                                     [3, 7, 14], [3, 7, 14])
    assert report.resident_accuracy == 1.0
    assert report.resident_precision == 1.0
    assert report.resident_f1 == 1.0
    assert report.activity_accuracy == 1.0


def test_hand_confusion_matrix_arithmetic():
    report = _resident_report([[3, 1], [2, 4]])
    np.testing.assert_array_equal(report.resident.counts, [[3, 1], [2, 4]])
    assert report.resident_accuracy == pytest.approx(0.7)
    precisions, recalls, f1s = zip(*report.resident_per_class)
    assert precisions == pytest.approx([3 / 5, 4 / 5])
    assert report.resident_precision == pytest.approx(0.7)
    assert recalls == pytest.approx([0.75, 2 / 3])
    assert f1s == pytest.approx([2 / 3, 8 / 11])
    assert report.resident_f1 == pytest.approx(23 / 33)
    assert round(report.resident_f1, 3) == 0.697


def test_accuracy_bounds_and_empty():
    cm = ConfusionMatrix(2, *_labels([[5, 0], [0, 0]]))
    assert 0.0 <= cm.accuracy() <= 1.0
    with pytest.raises(ValueError):
        ConfusionMatrix(2, np.zeros(0, int), np.zeros(0, int)).accuracy()


def test_zero_denominator_is_zero_with_warning():
    # nothing predicted as class 1, nothing truly class 1
    with pytest.warns(UserWarning, match="zero denominator") as caught:
        report = _resident_report([[4, 0], [0, 0]])
    assert len(caught) == 2    # the precision and the recall of class 1
    precision, recall, f1 = report.resident_per_class[1]
    assert precision == recall == 0.0
    assert f1 == 0.0  # precision = recall = 0 gives f1 = 0 by convention


def test_zero_denominator_warns_once_per_metric_and_class():
    """A report is computed when it is built: every zero denominator is
    reported once, then, attributed to the code that built it, and no read
    of the report warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = report_from_predictions([0, 0, 1], [1, 1, 1], [0, 1, 2],
                                         [0, 1, 2])
        report.resident_precision, report.resident_f1, report.describe()
        report.resident_precision
    assert [str(w.message) for w in caught] == [
        "precision for class 0 has a zero denominator; reporting 0"]
    assert caught[0].filename == __file__


def test_eval_prints_one_zero_denominator_warning(tmp_path):
    """A checkpoint whose resident head is its bias alone predicts
    resident 1 for every window; the warning names cli.py, not a line of
    metrics.py."""
    corpus = make_corpus(tmp_path, files=3, events=60, seed=2)
    params = init_params(3, 37, seed=0)
    params["head_resident.weight"].value.data[...] = 0
    params["head_resident.bias"].value.data[...] = [0.0, 1.0]
    save_params(params, tmp_path / "model.ckpt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                    "--checkpoint", str(tmp_path / "model.ckpt")]) == 0
    assert [str(w.message) for w in caught] == [
        "precision for class 0 has a zero denominator; reporting 0"]
    assert Path(caught[0].filename).name == "cli.py"


def test_relabeling_invariance():
    true_r = [0, 1, 0, 1, 1, 0]
    pred_r = [0, 0, 1, 1, 1, 0]
    base = report_from_predictions(true_r, pred_r, [0] * 6, [0] * 6)
    swapped = report_from_predictions([1 - v for v in true_r],
                                      [1 - v for v in pred_r],
                                      [0] * 6, [0] * 6)
    assert base.resident_accuracy == swapped.resident_accuracy
    assert base.resident_precision == pytest.approx(swapped.resident_precision)
    assert base.resident_f1 == pytest.approx(swapped.resident_f1)


def test_permutation_invariance_over_window_order():
    params = init_params(3, 37, seed=4)
    windows = make_windows(_events(30), k=3)
    forward = evaluate(windows, params)
    backward = evaluate(list(reversed(windows)), params)
    np.testing.assert_array_equal(forward.resident.counts,
                                  backward.resident.counts)
    np.testing.assert_array_equal(forward.activity.counts,
                                  backward.activity.counts)


def test_evaluate_counts_every_window(monkeypatch):
    """At EVAL_CHUNK 7 each chunk of the 25 windows is stacked and
    forwarded as two halves, its first ceil(n/2) windows and the rest, so
    no call takes more than 7, and the counts equal those of one 25-window
    chunk. The halves may run on two threads, so the calls are compared
    as a multiset."""
    params = init_params(3, 37, seed=4)
    windows = make_windows(_events(25), k=3)
    monkeypatch.setattr(metrics, "EVAL_CHUNK", 25)
    whole = evaluate(windows, params)
    calls = []
    for name in ("stack_windows", "predict_batch"):
        def spy(batch, *args, _name=name, _real=getattr(metrics, name), **kwargs):
            calls.append((_name, len(batch)))
            return _real(batch, *args, **kwargs)
        monkeypatch.setattr(metrics, name, spy)
    monkeypatch.setattr(metrics, "EVAL_CHUNK", 7)   # 25 = 3 * 7 + 4
    report = evaluate(windows, params)
    assert Counter(calls) == Counter((name, n) for n in (4, 3) * 3 + (2, 2)
                                     for name in ("stack_windows", "predict_batch"))
    assert max(n for _, n in calls) <= 7
    assert report.resident.total == report.activity.total == 25
    np.testing.assert_array_equal(report.resident.counts, whole.resident.counts)
    np.testing.assert_array_equal(report.activity.counts, whole.activity.counts)


def _recorded_evaluate(windows, params, cpus, monkeypatch):
    """evaluate with _usable_cpus at cpus: the labels it counts, in order,
    the threads that stacked a half chunk and the halves' sizes."""
    labels, threads, sizes = [], set(), []

    def recording_report(*arrays):   # builds no report, so warns of none
        labels.extend(np.array(a, copy=True) for a in arrays)

    def recording_stack(*args, **kwargs):
        threads.add(threading.get_ident())
        sizes.append(len(args[0]))
        return stack_windows(*args, **kwargs)

    monkeypatch.setattr(metrics, "report_from_predictions", recording_report)
    monkeypatch.setattr(metrics, "stack_windows", recording_stack)
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    evaluate(windows, params)
    return labels, threads, sizes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,count,chunk", [
    (8, 128, 128),   # the default chunk at k=8
    (4, 41, 128),    # halves of 21 and 20
    (3, 1, 128),     # one window: half 1 is empty
    (3, 50, 16),     # a short last chunk of 2
], ids=["k8-128", "41", "1", "short-last"])
def test_evaluate_halves_on_two_threads_match_one_thread(dtype, k, count, chunk,
                                                          monkeypatch):
    monkeypatch.setattr(metrics, "EVAL_CHUNK", chunk)
    windows = make_windows(_events(count), k=k)
    params = init_params(k, 37, seed=4, dtype=dtype)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # the two threads take turns at the GIL often
    try:
        runs = [_recorded_evaluate(windows, params, cpus, monkeypatch)
                for cpus in (2, 1)]
    finally:
        sys.setswitchinterval(interval)
    (labels2, threads2, sizes2), (labels1, threads1, sizes1) = runs
    chunks = [min(chunk, count - start) for start in range(0, count, chunk)]
    # in turn, each chunk's first ceil(n/2) windows, then the rest
    assert sizes1 == [n for c in chunks for n in ((c + 1) // 2, c // 2) if n]
    assert sorted(sizes2) == sorted(sizes1)
    assert len(labels2) == len(labels1) == 4
    for got, want in zip(labels2, labels1):
        np.testing.assert_array_equal(got, want)
        assert len(want) == count
    assert threads1 == {threading.get_ident()}
    if training._openblas_threads() is not None and count > 1:
        assert threads2 - threads1   # a worker forwarded half 1


def _overflowing_params():
    params = init_params(3, 37, seed=0)
    for p in params.weight_tensors():
        p.value.data[...] = 1e200
    return params


def test_evaluate_worker_half_runs_under_the_callers_numpy_error_state(monkeypatch):
    # weights of 1e200 overflow every half's forward: under the caller's
    # errstate each half raises a NumericError, and half 1's is the
    # __context__ of half 0's. A worker thread at numpy's default error
    # state would raise a RuntimeWarning there instead, as an error.
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite") as raised:
                evaluate(make_windows(_events(40), k=3), _overflowing_params())
    assert not isinstance(raised.value.__context__, Warning)


@pytest.mark.skipif(training._openblas_threads() is None,
                    reason="no OpenBLAS thread count to set in this process")
def test_evaluate_holds_blas_at_one_thread_and_gives_its_count_back(monkeypatch):
    get, set_ = training._openblas_threads()
    during = []

    def recording_stack(*args, **kwargs):
        during.append(get())
        return stack_windows(*args, **kwargs)

    monkeypatch.setattr(metrics, "stack_windows", recording_stack)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    windows = make_windows(_events(40), k=3)
    before = get()
    set_(2)
    try:
        evaluate(windows, init_params(3, 37, seed=0))
        assert get() == 2
        # half 0 raises inside two_halves, half 1 too: the count comes back
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                evaluate(windows, _overflowing_params())
        assert get() == 2
    finally:
        set_(before)
    assert during and set(during) == {1}


def test_evaluate_empty_rejected():
    params = init_params(3, 37, seed=4)
    with pytest.raises(ValueError):
        evaluate([], params)


def _eval_writes(report, tmp_path, monkeypatch):
    """Run `eval --method knn` on a small corpus with `report` standing in
    for the one its predictions give; returns the --out directory."""
    corpus = make_corpus(tmp_path, files=3, events=30)
    monkeypatch.setattr(metrics, "report_from_predictions", lambda *labels: report)
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(corpus), "--out", str(out),
                "--method", "knn", "--k", "3"]) == 0
    return out


def test_metrics_csv_and_describe(tmp_path, monkeypatch):
    report = report_from_predictions([0, 1], [0, 1], [2, 3], [2, 4])
    out = _eval_writes(report, tmp_path, monkeypatch)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("method,resident_accuracy,resident_precision,"
                        "resident_f1,activity_accuracy")
    fields = lines[1].split(",")
    assert fields[0] == "knn"
    assert float(fields[1]) == 1.0
    assert float(fields[4]) == 0.5
    text = (out / "report.txt").read_text()
    assert text == report.describe() + "\n"
    assert "macro" in text
    assert "class 0" in text and "class 1" in text


def test_confusion_csv_dump(tmp_path, monkeypatch):
    residents = _labels([[3, 1], [2, 4]])
    activities = (np.arange(15),) * 2
    report = report_from_predictions(*residents, *activities)
    out = _eval_writes(report, tmp_path, monkeypatch)
    lines = (out / "confusion_resident.csv").read_text().splitlines()
    assert lines == ["true\\pred,0,1", "0,3,1", "1,2,4"]
    lines = (out / "confusion_activity.csv").read_text().splitlines()
    assert lines[0] == "true\\pred," + ",".join(map(str, range(15)))
    assert lines[15] == "14," + "0," * 14 + "1"

