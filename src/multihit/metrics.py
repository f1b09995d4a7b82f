"""Classification metrics and objective evaluation for combination selections.

A selection covers a tumor if any of its combinations covers it (union), but
every covering of a normal sample is counted (multiplicity).  The training
objective is ``tp - total normal multiplicity``; confusion-based metrics use
the set-counted false positives instead.  All three are bit counts of the
covers: the union of tumor covers, the sum of the normal covers' counts and
the union of normal covers.  Ratios with a zero denominator are
undefined and reported as ``None`` (JSON ``null``), never as 0.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConsistencyError, ValidationError

GAP_TOL = 1e-6

# The report key of each metric and the Metrics field behind it, in the
# order summaries list them.
_REPORT_FIELDS = {
    "mcc": "mcc",
    "spec": "specificity",
    "sens": "sensitivity",
    "f1": "f1",
    "precision": "precision",
}
METRIC_KEYS = tuple(_REPORT_FIELDS)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be nonnegative")


@dataclass(frozen=True)
class Metrics:
    sensitivity: Optional[float]
    specificity: Optional[float]
    precision: Optional[float]
    f1: Optional[float]
    mcc: Optional[float]

    def to_json_dict(self):
        """Rounded 3-decimal dict with stable keys; undefined stays null."""
        values = {key: getattr(self, name) for key, name in _REPORT_FIELDS.items()}
        return {k: None if v is None else round(v, 3) for k, v in values.items()}


def _bit_counts(selected, matrix):
    """Covered tumors, summed normal coverings and covered normals.

    Each combination must fit ``matrix`` (:meth:`MutationMatrix.check`).
    """
    tumors = normals = coverings = 0
    for comb in selected:
        matrix.check(comb)
        tumors |= comb.tumor_cover
        normals |= comb.normal_cover
        coverings += comb.normal_cover.bit_count()
    return tumors.bit_count(), coverings, normals.bit_count()


def confusion(selected, matrix):
    tp, _, fp = _bit_counts(selected, matrix)
    return ConfusionCounts(
        tp=tp, fp=fp, tn=matrix.normal_count - fp, fn=matrix.tumor_count - tp
    )


def objective_value(selected, matrix):
    """Covered tumors minus multiplicity-counted normal coverings (an int)."""
    tp, coverings, _ = _bit_counts(selected, matrix)
    return tp - coverings


def compute_metrics(counts):
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    prec = tp / (tp + fp) if tp + fp else None
    if sens is None or prec is None or prec + sens == 0:
        f1 = None
    else:
        f1 = 2.0 * prec * sens / (prec + sens)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = None if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
    return Metrics(sensitivity=sens, specificity=spec, precision=prec, f1=f1, mcc=mcc)


def optimality_gap(objective, upper_bound):
    """Percent gap ``(ub - obj) / |obj| * 100``; ``None`` when obj is 0.

    Raises :class:`ConsistencyError` if the bound lies below the objective by
    more than ``GAP_TOL``, since that means some solver invariant broke.
    """
    if upper_bound < objective - GAP_TOL:
        raise ConsistencyError(
            f"upper bound {upper_bound} below objective {objective}"
        )
    if objective == 0:
        return None
    return (upper_bound - objective) / abs(objective) * 100.0
