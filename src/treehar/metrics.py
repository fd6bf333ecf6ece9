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
    first frame outside this module: the code that asked for a metric."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self._warned = set()   # (metric, class) zero denominators reported

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def update_many(self, true_classes, predicted_classes):
        np.add.at(self.counts, (np.asarray(true_classes),
                                np.asarray(predicted_classes)), 1)

    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("accuracy of an empty confusion matrix")
        return float(np.trace(self.counts)) / total

    def per_class_precision(self):
        return self._per_class(self.counts.sum(axis=0), "precision")

    def per_class_recall(self):
        return self._per_class(self.counts.sum(axis=1), "recall")

    def _per_class(self, denominators, metric_name):
        for c in np.flatnonzero(denominators == 0):
            if (metric_name, c) not in self._warned:
                self._warned.add((metric_name, c))
                warnings.warn(
                    f"{metric_name} for class {c} has a zero denominator; "
                    "reporting 0", stacklevel=_outside_level())
        return [float(d) / float(n) if n else 0.0
                for d, n in zip(np.diag(self.counts), denominators)]

    def per_class_f1(self):
        out = []
        for p, r in zip(self.per_class_precision(), self.per_class_recall()):
            out.append(0.0 if p + r == 0 else 2.0 * p * r / (p + r))
        return out

    def macro_precision(self) -> float:
        return float(np.mean(self.per_class_precision()))

    def macro_f1(self) -> float:
        return float(np.mean(self.per_class_f1()))


@dataclass
class MetricsReport:
    resident: ConfusionMatrix
    activity: ConfusionMatrix

    @property
    def resident_accuracy(self) -> float:
        return self.resident.accuracy()

    @property
    def resident_precision(self) -> float:
        return self.resident.macro_precision()

    @property
    def resident_f1(self) -> float:
        return self.resident.macro_f1()

    @property
    def activity_accuracy(self) -> float:
        return self.activity.accuracy()

    def describe(self) -> str:
        """Verbose report with per-class resident metrics under both
        single-positive-class conventions."""
        res = self.resident
        lines = [
            f"resident accuracy  {self.resident_accuracy:.4f}",
            f"resident precision {self.resident_precision:.4f} (macro)",
            f"resident F1        {self.resident_f1:.4f} (macro)",
            f"activity accuracy  {self.activity_accuracy:.4f}",
            "",
            "resident per-class (positive-class convention):",
        ]
        precisions = res.per_class_precision()
        recalls = res.per_class_recall()
        f1s = res.per_class_f1()
        for c in range(res.num_classes):
            lines.append(
                f"  class {c}: precision {precisions[c]:.4f} "
                f"recall {recalls[c]:.4f} f1 {f1s[c]:.4f}"
            )
        lines.append("")
        lines.append(f"resident confusion (rows true):\n{res.counts}")
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
    """Build a report from already-computed labels."""
    resident_cm = ConfusionMatrix(NUM_RESIDENTS)
    activity_cm = ConfusionMatrix(NUM_ACTIVITIES)
    resident_cm.update_many(true_residents, pred_residents)
    activity_cm.update_many(true_activities, pred_activities)
    return MetricsReport(resident=resident_cm, activity=activity_cm)
