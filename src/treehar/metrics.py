"""Confusion-matrix evaluation.

Resident metrics are macro-averaged over the two classes; per-class
values are also kept because a two-class precision/F1 depends on which
class is called positive, and downstream reports emit both conventions.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .casas import NUM_ACTIVITIES, NUM_RESIDENTS
from .model import ModelParams, predict_batch
from .windowing import stack_windows

EVAL_CHUNK = 512


class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

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
        diag = np.diag(self.counts)
        out = []
        for c in range(self.num_classes):
            if denominators[c] == 0:
                warnings.warn(
                    f"{metric_name} for class {c} has a zero denominator; "
                    "reporting 0", stacklevel=3)
                out.append(0.0)
            else:
                out.append(float(diag[c]) / float(denominators[c]))
        return out

    def per_class_f1(self):
        out = []
        for p, r in zip(self.per_class_precision(), self.per_class_recall()):
            out.append(0.0 if p + r == 0 else 2.0 * p * r / (p + r))
        return out

    def macro_precision(self) -> float:
        return float(np.mean(self.per_class_precision()))

    def macro_f1(self) -> float:
        return float(np.mean(self.per_class_f1()))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\pred"] + list(range(self.num_classes)))
            for c in range(self.num_classes):
                writer.writerow([c] + self.counts[c].tolist())


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

    def to_dict(self):
        return {
            "resident": {
                "accuracy": self.resident_accuracy,
                "precision": self.resident_precision,
                "f1": self.resident_f1,
            },
            "activity": {"accuracy": self.activity_accuracy},
        }

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


def evaluate(test_windows, params: ModelParams,
             chunk_size: int = EVAL_CHUNK) -> MetricsReport:
    """Argmax predictions over the test windows, accumulated per head."""
    test_windows = list(test_windows)
    if not test_windows:
        raise ValueError("evaluate: empty test set")
    events, residents, activities = stack_windows(test_windows, dtype=params.dtype)
    resident_cm = ConfusionMatrix(NUM_RESIDENTS)
    activity_cm = ConfusionMatrix(NUM_ACTIVITIES)
    for start in range(0, len(test_windows), chunk_size):
        stop = start + chunk_size
        pred_res, pred_act = predict_batch(events[start:stop], params)
        resident_cm.update_many(residents[start:stop], pred_res)
        activity_cm.update_many(activities[start:stop], pred_act)
    return MetricsReport(resident=resident_cm, activity=activity_cm)


def report_from_predictions(true_residents, pred_residents,
                            true_activities, pred_activities) -> MetricsReport:
    """Build a report from already-computed labels (used by the baselines)."""
    resident_cm = ConfusionMatrix(NUM_RESIDENTS)
    activity_cm = ConfusionMatrix(NUM_ACTIVITIES)
    resident_cm.update_many(true_residents, pred_residents)
    activity_cm.update_many(true_activities, pred_activities)
    return MetricsReport(resident=resident_cm, activity=activity_cm)


METRICS_CSV_HEADER = ["method", "resident_accuracy", "resident_precision",
                      "resident_f1", "activity_accuracy"]


def write_metrics_csv(report: MetricsReport, path, method: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerow([
            method,
            repr(report.resident_accuracy),
            repr(report.resident_precision),
            repr(report.resident_f1),
            repr(report.activity_accuracy),
        ])
