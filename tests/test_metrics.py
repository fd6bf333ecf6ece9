import warnings
from pathlib import Path

import numpy as np
import pytest

from treehar import metrics
from treehar.cli import run
from treehar.metrics import (
    ConfusionMatrix,
    MetricsReport,
    evaluate,
    report_from_predictions,
)
from treehar.model import init_params
from treehar.windowing import make_windows

from test_cli import make_corpus
from test_model import _events


def _matrix(rows):
    cm = ConfusionMatrix(len(rows))
    cm.counts[...] = rows
    return cm


def test_perfect_predictor_all_ones():
    report = report_from_predictions([0, 1, 0], [0, 1, 0],
                                     [3, 7, 14], [3, 7, 14])
    assert report.resident_accuracy == 1.0
    assert report.resident_precision == 1.0
    assert report.resident_f1 == 1.0
    assert report.activity_accuracy == 1.0


def test_hand_confusion_matrix_arithmetic():
    cm = _matrix([[3, 1], [2, 4]])
    assert cm.accuracy() == pytest.approx(0.7)
    assert cm.per_class_precision() == pytest.approx([3 / 5, 4 / 5])
    assert cm.macro_precision() == pytest.approx(0.7)
    assert cm.per_class_recall() == pytest.approx([0.75, 2 / 3])
    assert cm.per_class_f1() == pytest.approx([2 / 3, 8 / 11])
    assert cm.macro_f1() == pytest.approx(23 / 33)
    assert round(cm.macro_f1(), 3) == 0.697


def test_accuracy_bounds_and_empty():
    cm = _matrix([[5, 0], [0, 0]])
    assert 0.0 <= cm.accuracy() <= 1.0
    with pytest.raises(ValueError):
        ConfusionMatrix(2).accuracy()
    with pytest.raises(ValueError):
        ConfusionMatrix(0)


def test_zero_denominator_is_zero_with_warning():
    # nothing predicted as class 1, nothing truly class 1
    cm = _matrix([[4, 0], [0, 0]])
    with pytest.warns(UserWarning, match="zero denominator"):
        precisions = cm.per_class_precision()
    assert precisions[1] == 0.0
    with pytest.warns(UserWarning):
        f1 = cm.per_class_f1()
    assert f1[1] == 0.0  # precision = recall = 0 gives f1 = 0 by convention


def test_zero_denominator_warns_once_per_metric_and_class():
    """A report asks each matrix for its per-class values many times: every
    zero denominator is reported once, attributed to the code that asked."""
    report = report_from_predictions([0, 0, 1], [1, 1, 1], [0, 1, 2], [0, 1, 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report.resident_precision, report.resident_f1, report.describe()
        report.resident_precision
    assert [str(w.message) for w in caught] == [
        "precision for class 0 has a zero denominator; reporting 0"]
    assert caught[0].filename == __file__


def test_eval_prints_one_zero_denominator_warning(tmp_path):
    """`eval --method dt --max-depth 1` on this corpus predicts resident 1
    for every window; the warning names cli.py, not a line of metrics.py."""
    corpus = make_corpus(tmp_path, files=3, events=60, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["eval", "--data", str(corpus), "--out", str(tmp_path / "e"),
                    "--method", "dt", "--max-depth", "1"]) == 0
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
    """At EVAL_CHUNK 7 no call stacks or forwards more than 7 of the 25
    windows, and the counts equal those of one 25-window chunk."""
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
    assert calls == [(name, n) for n in (7, 7, 7, 4)
                     for name in ("stack_windows", "predict_batch")]
    assert report.resident.total == report.activity.total == 25
    np.testing.assert_array_equal(report.resident.counts, whole.resident.counts)
    np.testing.assert_array_equal(report.activity.counts, whole.activity.counts)


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


@pytest.mark.filterwarnings("ignore::UserWarning")
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
    report = MetricsReport(resident=_matrix([[3, 1], [2, 4]]),
                           activity=_matrix(np.eye(15, dtype=np.int64)))
    out = _eval_writes(report, tmp_path, monkeypatch)
    lines = (out / "confusion_resident.csv").read_text().splitlines()
    assert lines == ["true\\pred,0,1", "0,3,1", "1,2,4"]
    lines = (out / "confusion_activity.csv").read_text().splitlines()
    assert lines[0] == "true\\pred," + ",".join(map(str, range(15)))
    assert lines[15] == "14," + "0," * 14 + "1"

