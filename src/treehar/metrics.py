"""Confusion-matrix evaluation. evaluate forwards the held-out windows
chunk by chunk, each chunk as two halves (see training.two_halves).

Resident metrics are macro-averaged over the two classes; per-class
values are also kept because a two-class precision/F1 depends on which
class is called positive, and downstream reports emit both conventions.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .casas import NUM_ACTIVITIES, NUM_RESIDENTS
from .model import ModelParams, predict_batch
from .training import two_halves
from .windowing import stack_windows

# Windows taken at a time, as two halves: the default training batch. The
# conv's float64 shift stacks at 64 channels then take 7.7 MB per chunk, as
# in a training step, against 30.7 MB at 512. With the halves on two threads
# (2 vCPUs), 64 ran 15-18% slower than 128 at float64 and 256 no faster; at
# float32, 256 ran 5-11% faster, for twice the memory.
EVAL_CHUNK = 128


def _outside_level() -> int:
    """The warnings stacklevel, seen from this function's caller, of the
    first frame outside this module: the code that asked for a report."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


class ConfusionMatrix:
    """K x K counts of (true, predicted) class pairs; rows are true
    classes, columns predicted."""

    def __init__(self, num_classes: int, true_classes, predicted_classes):
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(self.counts, (np.asarray(true_classes),
                                np.asarray(predicted_classes)), 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("accuracy of an empty confusion matrix")
        return float(np.trace(self.counts)) / total


def _per_class(hits, denominators, metric_name) -> list:
    """hits / denominators per class; a zero denominator gives 0 and one
    warning."""
    for c in np.flatnonzero(denominators == 0):
        warnings.warn(f"{metric_name} for class {c} has a zero denominator; "
                      "reporting 0", stacklevel=_outside_level())
    return [float(d) / float(n) if n else 0.0
            for d, n in zip(hits, denominators)]


@dataclass(frozen=True)
class MetricsReport:
    """Both heads' confusion matrices and the figures eval reports of
    them, each computed once, by report_from_predictions."""

    resident: ConfusionMatrix
    activity: ConfusionMatrix
    resident_per_class: tuple   # (precision, recall, f1), class c positive
    resident_accuracy: float
    resident_precision: float   # macro
    resident_f1: float          # macro
    activity_accuracy: float

    def describe(self) -> str:
        """Verbose report with per-class resident metrics under both
        single-positive-class conventions."""
        lines = [
            f"resident accuracy  {self.resident_accuracy:.4f}",
            f"resident precision {self.resident_precision:.4f} (macro)",
            f"resident F1        {self.resident_f1:.4f} (macro)",
            f"activity accuracy  {self.activity_accuracy:.4f}",
            "",
            "resident per-class (positive-class convention):",
        ]
        for c, (precision, recall, f1) in enumerate(self.resident_per_class):
            lines.append(f"  class {c}: precision {precision:.4f} "
                         f"recall {recall:.4f} f1 {f1:.4f}")
        lines.append("")
        lines.append(f"resident confusion (rows true):\n{self.resident.counts}")
        lines.append(f"activity confusion trace {np.trace(self.activity.counts)} "
                     f"of {self.activity.total}")
        return "\n".join(lines)


def evaluate(test_windows, params: ModelParams) -> MetricsReport:
    """Argmax predictions over the test windows. Each EVAL_CHUNK of them is
    run as two halves by training.two_halves, each half stacked and
    forwarded. Only the labels are kept, so a call's memory is bounded by
    the chunk, not by the held-out set."""
    test_windows = list(test_windows)
    if not test_windows:
        raise ValueError("evaluate: empty test set")

    def half_labels(windows, _half):
        events, *labels = stack_windows(windows, params.dtype)
        return (*labels, *predict_batch(events, params))

    chunks = []
    for start in range(0, len(test_windows), EVAL_CHUNK):
        chunks += two_halves(test_windows[start:start + EVAL_CHUNK], half_labels)
    true_res, true_act, pred_res, pred_act = (np.concatenate(c) for c in zip(*chunks))
    return report_from_predictions(true_res, pred_res, true_act, pred_act)


def report_from_predictions(true_residents, pred_residents,
                            true_activities, pred_activities) -> MetricsReport:
    """Build a report from already-computed labels. Each zero denominator
    of a resident precision or recall warns here, once."""
    resident = ConfusionMatrix(NUM_RESIDENTS, true_residents, pred_residents)
    activity = ConfusionMatrix(NUM_ACTIVITIES, true_activities, pred_activities)
    hits = np.diag(resident.counts)
    precisions = _per_class(hits, resident.counts.sum(axis=0), "precision")
    recalls = _per_class(hits, resident.counts.sum(axis=1), "recall")
    f1s = [0.0 if p + r == 0 else 2.0 * p * r / (p + r)
           for p, r in zip(precisions, recalls)]
    return MetricsReport(
        resident, activity, tuple(zip(precisions, recalls, f1s)),
        resident.accuracy(), float(np.mean(precisions)), float(np.mean(f1s)),
        activity.accuracy())
