"""Synthetic mutation matrices with planted combinations.

Each tumor sample independently receives each planted combination (all of
its genes at once) with the planted rate, then per-gene background noise.
Normal samples carry only iid noise at their own rate.  One seed fixes the
whole matrix; the random stream has constant per-sample length, so edits to
rates never shift which draws later samples see.
"""

import random
from dataclasses import dataclass, field

from .data import MutationMatrix, SampleLabel, SampleRecord
from .errors import ValidationError


@dataclass(frozen=True)
class SyntheticSpec:
    """Sizes, planted combinations and rates of one synthetic matrix.

    The ``synth`` flags and a sweep config's ``synth`` entries name each
    field by its metadata ``name`` (``genes``, ``tumors``, ``normals``), or
    by its own name when it has none.
    """

    n_genes: int = field(metadata={"name": "genes"})
    n_tumor: int = field(metadata={"name": "tumors"})
    n_normal: int = field(metadata={"name": "normals"})
    planted: tuple = ()
    planted_rate: float = 1.0
    background_rate: float = 0.0
    normal_rate: float = 0.0

    def __post_init__(self):
        # Sizes and rates also come from sweep config files, so their types
        # are checked before they are compared; a bool is not a number here.
        for name in ("n_genes", "n_tumor", "n_normal"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"synthetic {name} must be an int, got {value!r}"
                )
        for name in ("planted_rate", "background_rate", "normal_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(
                    f"synthetic {name} must be a number, got {value!r}"
                )
        if self.n_genes < 1 or self.n_tumor < 0 or self.n_normal < 0:
            raise ValidationError(
                "synthetic n_genes must be at least 1 and n_tumor and n_normal "
                f"at least 0, got {self.n_genes}, {self.n_tumor}, {self.n_normal}"
            )
        for rate in (self.planted_rate, self.background_rate, self.normal_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"rate {rate} outside [0, 1]")
        if not isinstance(self.planted, (list, tuple)):
            raise ValidationError(f"synthetic planted must be a list: {self.planted!r}")
        for combo in self.planted:
            if not isinstance(combo, (list, tuple)):
                raise ValidationError(f"planted combination {combo!r} is not a list")
            if not combo:
                raise ValidationError("planted combination cannot be empty")
            for g in combo:
                if type(g) is not int or not 0 <= g < self.n_genes:
                    raise ValidationError(f"planted gene index {g!r} out of range")
            if len(set(combo)) != len(combo):
                raise ValidationError(f"planted combination {combo} repeats a gene")
        object.__setattr__(self, "planted", tuple(map(tuple, self.planted)))


def _ident(prefix, index, count):
    width = max(4, len(str(count)))
    return f"{prefix}{index + 1:0{width}d}"


def generate_synthetic(spec, seed):
    """Build the matrix for ``spec`` from one integer seed."""
    rng = random.Random(seed)
    gene_ids = tuple(_ident("g", i, spec.n_genes) for i in range(spec.n_genes))
    samples = []
    for i in range(spec.n_tumor):
        row = 0
        for combo in spec.planted:
            if rng.random() < spec.planted_rate:
                for g in combo:
                    row |= 1 << g
        for g in range(spec.n_genes):
            if rng.random() < spec.background_rate:
                row |= 1 << g
        samples.append(
            SampleRecord(_ident("t", i, spec.n_tumor), SampleLabel.TUMOR, row)
        )
    for i in range(spec.n_normal):
        row = 0
        for g in range(spec.n_genes):
            if rng.random() < spec.normal_rate:
                row |= 1 << g
        samples.append(
            SampleRecord(_ident("n", i, spec.n_normal), SampleLabel.NORMAL, row)
        )
    return MutationMatrix(gene_ids, samples)
