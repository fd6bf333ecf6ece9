import numpy as np
import pytest

from treehar.metrics import (
    ConfusionMatrix,
    evaluate,
    report_from_predictions,
    write_metrics_csv,
)
from treehar.model import init_params
from treehar.windowing import make_windows

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


def test_evaluate_counts_every_window():
    params = init_params(3, 37, seed=4)
    windows = make_windows(_events(25), k=3)
    report = evaluate(windows, params, chunk_size=7)
    assert report.resident.total == 25
    assert report.activity.total == 25


def test_evaluate_empty_rejected():
    params = init_params(3, 37, seed=4)
    with pytest.raises(ValueError):
        evaluate([], params)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_metrics_csv_and_describe(tmp_path):
    report = report_from_predictions([0, 1], [0, 1], [2, 3], [2, 4])
    path = tmp_path / "metrics.csv"
    write_metrics_csv(report, path, "tsc")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("method,resident_accuracy,resident_precision,"
                        "resident_f1,activity_accuracy")
    fields = lines[1].split(",")
    assert fields[0] == "tsc"
    assert float(fields[1]) == 1.0
    assert float(fields[4]) == 0.5
    text = report.describe()
    assert "macro" in text
    assert "class 0" in text and "class 1" in text


def test_confusion_csv_dump(tmp_path):
    cm = _matrix([[3, 1], [2, 4]])
    cm.write_csv(tmp_path / "cm.csv")
    lines = (tmp_path / "cm.csv").read_text().strip().splitlines()
    assert lines[1] == "0,3,1"
    assert lines[2] == "1,2,4"

