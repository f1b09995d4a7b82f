"""Classification metrics and objective evaluation for combination selections.

A selection covers a tumor if any of its combinations covers it (union), but
every covering of a normal sample is counted (multiplicity).  The training
objective is ``tp - total normal multiplicity``; confusion-based metrics use
the set-counted false positives instead.  Ratios with a zero denominator are
undefined and reported as ``None`` (JSON ``null``), never as 0.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .bitset import unpack
from .errors import ConsistencyError, ValidationError

GAP_TOL = 1e-6


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

        def r(v):
            return None if v is None else round(v, 3)

        return {
            "mcc": r(self.mcc),
            "spec": r(self.specificity),
            "sens": r(self.sensitivity),
            "f1": r(self.f1),
            "precision": r(self.precision),
        }


def _check_selection(selected, matrix):
    for comb in selected:
        for g in comb.genes:
            if not 0 <= g < matrix.n_genes:
                raise ValidationError(f"combination gene index {g} out of range")
        if comb.tumor_cover >> matrix.tumor_count:
            raise ValidationError("tumor cover does not fit the matrix")
        if comb.normal_cover >> matrix.normal_count:
            raise ValidationError("normal cover does not fit the matrix")


def classify(selected, matrix):
    """Union tumor cover and per-normal covering multiplicities.

    Returns ``(tumor_hit, multiplicity)`` where ``tumor_hit`` is a bit set
    over tumor positions and ``multiplicity[i]`` counts how many selected
    combinations cover normal i.
    """
    selected = list(selected)
    _check_selection(selected, matrix)
    tumor_hit = 0
    for comb in selected:
        tumor_hit |= comb.tumor_cover
    covers = unpack([comb.normal_cover for comb in selected], matrix.normal_count)
    # Python ints, not numpy ones: callers compare objectives exactly.
    multiplicity = covers.sum(axis=0, dtype=int).tolist()
    return tumor_hit, multiplicity


def confusion(selected, matrix):
    tumor_hit, multiplicity = classify(selected, matrix)
    tp = tumor_hit.bit_count()
    fp = sum(1 for m in multiplicity if m > 0)
    return ConfusionCounts(
        tp=tp, fp=fp, tn=matrix.normal_count - fp, fn=matrix.tumor_count - tp
    )


def objective_value(selected, matrix):
    """Covered tumors minus multiplicity-counted normal coverings (an int)."""
    tumor_hit, multiplicity = classify(selected, matrix)
    return tumor_hit.bit_count() - sum(multiplicity)


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


def optimality_gap(objective, upper_bound, tolerance=GAP_TOL):
    """Percent gap ``(ub - obj) / |obj| * 100``; ``None`` when obj is 0.

    Raises :class:`ConsistencyError` if the bound lies below the objective by
    more than ``tolerance``, since that means some solver invariant broke.
    """
    if upper_bound < objective - tolerance:
        raise ConsistencyError(
            f"upper bound {upper_bound} below objective {objective}"
        )
    if objective == 0:
        return None
    return (upper_bound - objective) / abs(objective) * 100.0
