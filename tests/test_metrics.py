"""Metric formulas, undefined handling and the optimality gap."""

import random

import pytest

from multihit.errors import ConsistencyError, ValidationError
from multihit.metrics import (
    ConfusionCounts,
    Metrics,
    compute_metrics,
    confusion,
    objective_value,
    optimality_gap,
)

from oracles import metrics_by_fractions
from util import random_matrix, toy_matrix


def test_worked_example():
    m = compute_metrics(ConfusionCounts(tp=2, fp=1, tn=2, fn=0))
    assert m.sensitivity == pytest.approx(1.0)
    assert m.specificity == pytest.approx(2 / 3)
    assert m.precision == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(0.8)
    assert m.mcc == pytest.approx(4 / 6)


def test_undefined_stays_none_not_zero():
    no_normals = compute_metrics(ConfusionCounts(tp=3, fp=0, tn=0, fn=1))
    assert no_normals.specificity is None
    assert no_normals.mcc is None

    nothing_flagged = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=4, fn=2))
    assert nothing_flagged.precision is None
    assert nothing_flagged.f1 is None
    assert nothing_flagged.mcc is None

    all_wrong = compute_metrics(ConfusionCounts(tp=0, fp=2, tn=3, fn=4))
    assert all_wrong.precision == 0.0
    assert all_wrong.sensitivity == 0.0
    assert all_wrong.f1 is None  # 0/0, not 0


def test_perfect_classifier():
    m = compute_metrics(ConfusionCounts(tp=7, fp=0, tn=5, fn=0))
    assert (m.sensitivity, m.specificity, m.precision, m.f1, m.mcc) == (
        1.0,
        1.0,
        1.0,
        1.0,
        1.0,
    )


def test_mcc_class_swap_symmetry():
    rng = random.Random(123)
    for _ in range(200):
        tp, fp, tn, fn = (rng.randint(0, 30) for _ in range(4))
        a = compute_metrics(ConfusionCounts(tp, fp, tn, fn)).mcc
        b = compute_metrics(ConfusionCounts(tn, fn, tp, fp)).mcc
        if a is None:
            assert b is None
        else:
            assert a == pytest.approx(b, abs=1e-12)


def test_against_fraction_oracle():
    rng = random.Random(321)
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(0, 40) for _ in range(4))
        mine = compute_metrics(ConfusionCounts(tp, fp, tn, fn))
        ref = metrics_by_fractions(tp, fp, tn, fn)
        for name in ("sensitivity", "specificity", "precision", "f1", "mcc"):
            got = getattr(mine, name)
            want = ref[name]
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_counts_validation():
    with pytest.raises(ValidationError):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


def test_toy_selection_classify_and_objective():
    m = toy_matrix()
    c1 = m.combination((0, 1))
    c2 = m.combination((2, 3))
    counts = confusion([c1, c2], m)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 1, 1)
    assert counts.tp + counts.fn == m.tumor_count
    assert counts.tn + counts.fp == m.normal_count
    assert objective_value([c1, c2], m) == 1
    assert objective_value([], m) == 0


def test_objective_counts_multiplicity_but_fp_does_not():
    rng = random.Random(77)
    m = random_matrix(rng, 6, 4, 3, density=0.9)
    # Dense instance: most combinations cover most samples.
    c1 = m.combination((0, 1))
    c2 = m.combination((2, 3))
    shared = c1.normal_cover & c2.normal_cover
    assert shared  # sanity for this seed
    counts = confusion([c1, c2], m)
    obj = objective_value([c1, c2], m)
    overlap = shared.bit_count()
    union = (c1.normal_cover | c2.normal_cover).bit_count()
    assert counts.fp == union
    assert obj == (c1.tumor_cover | c2.tumor_cover).bit_count() - union - overlap


def test_classify_validates_masks():
    m = toy_matrix()
    good = m.combination((0, 1))
    other = random_matrix(random.Random(1), 7, 9, 9, density=0.8)
    alien = other.combination((0, 1))
    if alien.tumor_cover >> m.tumor_count:
        with pytest.raises(ValidationError):
            confusion([alien], m)
    class Fake:
        genes = (99,)
        tumor_cover = 0
        normal_cover = 0
    with pytest.raises(ValidationError):
        objective_value([Fake()], m)
    assert objective_value([good], m) == 1


def test_serialization_rounding():
    m = Metrics(
        sensitivity=0.87654, specificity=None, precision=1 / 3, f1=0.5, mcc=-0.12345
    )
    d = m.to_json_dict()
    assert d == {
        "mcc": -0.123,
        "spec": None,
        "sens": 0.877,
        "f1": 0.5,
        "precision": 0.333,
    }


def test_optimality_gap_reference_points():
    assert round(optimality_gap(362, 364), 2) == 0.55
    assert round(optimality_gap(91, 91), 2) == 0.0
    assert optimality_gap(0, 3) is None
    assert optimality_gap(-2, -1) == pytest.approx(50.0)
    # Equal within tolerance never trips the consistency check.
    assert optimality_gap(10, 10 - 1e-9) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ConsistencyError):
        optimality_gap(10, 9)
