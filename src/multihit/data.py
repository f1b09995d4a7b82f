"""Mutation matrices, file formats and train/test splitting.

A :class:`MutationMatrix` holds a binary gene-by-sample mutation table split
into tumor and normal samples.  Per-sample rows and per-gene columns are
kept as int bit sets so that combination coverage is a chain of word-level
ANDs.  Each class's sample rows are also packed into bytes once, on first
use; a gene's columns are extracted from those bytes the first time the
gene is read, so a solve builds the columns it reads and no others.  Tumor
frequencies are counted over the same bytes.
Pricing reads the table as :class:`GeneRows`, index arrays of each class's
gene-by-sample 0/1 matrix both row-major and sample-major, built on first
use from the set bits of the packed rows.  Every conversion between the
int bit sets and numpy arrays goes through :mod:`multihit.bitset`:
``byte_rows`` to pack the rows, ``column``/``column_counts``/``nonzero``
to read them, ``pack``/``unpack`` for file rows and pruning.

Dense format: UTF-8 TSV with header ``sample_id<TAB>label<TAB><gene>...``,
labels ``tumor``/``normal`` and entries 0/1, one sample per row; with no
genes a row is just ``sample_id<TAB>label``.  The file is read one line at a
time and each row's cells are checked as bytes, in one numpy pass per row.

Sparse format: two CSV files.  The tumor file has header ``gene,sample,count``
and one triple per line; an entry is mutated iff count >= 1.  The normal file
has header ``gene,sample`` and one pair per line, each pair marking a
mutation.  The gene universe is the union of genes seen in either file
(sorted lexicographically); samples keep first-appearance order, tumor file
first.  A leading UTF-8 byte-order mark is ignored in every file read.
"""

import enum
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .bitset import byte_rows, column, column_counts, nonzero, pack, unpack
from .errors import ParseError, ValidationError

_FORBIDDEN_ID_CHARS = "\t\n\r,"


class SampleLabel(enum.Enum):
    TUMOR = "tumor"
    NORMAL = "normal"


@dataclass(frozen=True)
class SampleRecord:
    """One sample: stable id, class label and its mutation row bit set."""

    sample_id: str
    label: SampleLabel
    mutations: int


@dataclass(frozen=True)
class HitRange:
    """Inclusive bounds on combination size."""

    k_min: int
    k_max: int

    def __post_init__(self):
        ints = all(type(k) is int for k in (self.k_min, self.k_max))
        if not (ints and 1 <= self.k_min <= self.k_max):
            raise ValidationError(
                f"hit range must be ints 1 <= k_min <= k_max, got {self.k_min!r}-{self.k_max!r}"
            )

    @classmethod
    def parse(cls, text):
        """Parse ``"2-3"`` or a single size like ``"7"``."""
        text = text.strip()
        try:
            if "-" in text:
                lo, hi = text.split("-", 1)
                return cls(int(lo), int(hi))
            k = int(text)
            return cls(k, k)
        except ValueError as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"cannot parse hit range {text!r}") from exc

    def __str__(self):
        if self.k_min == self.k_max:
            return str(self.k_min)
        return f"{self.k_min}-{self.k_max}"

    def sizes(self):
        return range(self.k_min, self.k_max + 1)


@dataclass(frozen=True)
class GeneCombination:
    """A set of gene indices plus its cached tumor/normal coverage bit sets."""

    genes: tuple
    tumor_cover: int
    normal_cover: int

    def __post_init__(self):
        if not self.genes:
            raise ValidationError("a combination needs at least one gene")
        if list(self.genes) != sorted(set(self.genes)):
            raise ValidationError("combination genes must be sorted and distinct")


def _check_identifier(kind, value, seen):
    """Refuse a bad id or one already in ``seen``; add it to ``seen``."""
    if not isinstance(value, str) or not value or value != value.strip():
        raise ValidationError(f"bad {kind} id {value!r}")
    if any(ch in value for ch in _FORBIDDEN_ID_CHARS):
        raise ValidationError(f"{kind} id {value!r} contains a reserved character")
    if value in seen:
        raise ValidationError(f"duplicate {kind} id {value!r}")
    seen.add(value)


def _plain_ids(ids):
    """True if every id is a distinct nonempty str with no whitespace or comma.

    One pass over the joined text: splitting it at whitespace gives the ids
    back unchanged only if none is empty or holds whitespace, so such ids
    pass :func:`_check_identifier`.  False means "check one id at a time",
    not "invalid": an id with an inner space is valid but gives False.
    """
    try:
        text = " ".join(ids)
    except TypeError:
        return False
    ids = list(ids)
    return "," not in text and text.split() == ids and len(set(ids)) == len(ids)


class MutationMatrix:
    """Immutable tumor/normal mutation table with bit-set rows and columns.

    Tumor (normal) columns index bit i to the i-th tumor (normal) sample in
    matrix order.  Do not mutate after construction; derived structures
    are built once, on first use: the packed rows of each class, and each
    gene's columns (:meth:`columns`) when that gene is first read.
    """

    def __init__(self, gene_ids, samples):
        gene_ids = tuple(gene_ids)
        samples = tuple(samples)
        if not _plain_ids(gene_ids):
            seen = set()
            for g in gene_ids:
                _check_identifier("gene", g, seen)
        n_genes = len(gene_ids)
        # Clean ids skip the per-sample id checks; otherwise each sample's id
        # is checked before its label and bits, so the first fault is named.
        seen = None if _plain_ids([s.sample_id for s in samples]) else set()
        for s in samples:
            if seen is not None:
                _check_identifier("sample", s.sample_id, seen)
            if not isinstance(s.label, SampleLabel):
                raise ValidationError(f"unknown label {s.label!r}")
            if s.mutations < 0 or s.mutations >> n_genes:
                raise ValidationError(
                    f"sample {s.sample_id!r} has mutation bits outside the gene universe"
                )
        self.gene_ids = gene_ids
        self.samples = samples
        self.tumor_positions = tuple(
            i for i, s in enumerate(samples) if s.label is SampleLabel.TUMOR
        )
        self.normal_positions = tuple(
            i for i, s in enumerate(samples) if s.label is SampleLabel.NORMAL
        )
        self._columns = {}

    @property
    def n_genes(self):
        return len(self.gene_ids)

    @property
    def n_samples(self):
        return len(self.samples)

    @property
    def tumor_count(self):
        return len(self.tumor_positions)

    @property
    def normal_count(self):
        return len(self.normal_positions)

    @cached_property
    def all_tumor_mask(self):
        return (1 << self.tumor_count) - 1

    @cached_property
    def all_normal_mask(self):
        return (1 << self.normal_count) - 1

    @cached_property
    def _byte_rows(self):
        """The tumor and the normal rows, each packed by :func:`byte_rows`."""
        return tuple(
            byte_rows([self.samples[pos].mutations for pos in positions], self.n_genes)
            for positions in (self.tumor_positions, self.normal_positions)
        )

    def tumor_frequencies(self):
        """Per gene, the number of tumor samples in which it is mutated (int64)."""
        return column_counts(self._byte_rows[0], self.n_genes)

    def columns(self, gene):
        """``(tumor, normal)``: the samples of each class in which ``gene`` is mutated.

        Each is a bit set, extracted from the packed rows the first time
        the gene is read and cached from then on.
        """
        built = self._columns.get(gene)
        if built is None:
            if not 0 <= gene < self.n_genes:
                raise ValidationError(f"gene index {gene} out of range")
            tumor, normal = self._byte_rows
            built = self._columns[gene] = (column(tumor, gene), column(normal, gene))
        return built

    @cached_property
    def gene_index(self):
        """Gene id to column index; built on first use."""
        return {g: j for j, g in enumerate(self.gene_ids)}

    @cached_property
    def gene_major(self):
        """``(order, tumor rows, normal rows)`` for pricing.

        ``order`` lists the gene indices by descending tumor frequency, ties
        by ascending index; row ``r`` of each :class:`GeneRows` is gene
        ``order[r]``.  Built on first use, so matrices that are never priced
        never hold them.  They are read off the set bits of the packed rows,
        so no gene column is built.
        """
        order = rank_genes_by_tumor_frequency(self)
        row_of = np.empty(self.n_genes, dtype=np.int64)
        row_of[order] = np.arange(self.n_genes)
        tumor, normal = self._byte_rows
        return order, _gene_rows(tumor, row_of), _gene_rows(normal, row_of)

    def coverage(self, genes):
        """Tumor and normal cover bit sets of the combination ``genes``.

        A sample is covered iff every gene of the combination is mutated in
        it, so the cover is the AND of the gene columns.  The empty
        combination covers everything by that convention.
        """
        t = self.all_tumor_mask
        n = self.all_normal_mask
        for g in genes:
            gene_t, gene_n = self.columns(g)
            t &= gene_t
            n &= gene_n
            if not t and not n:
                break
        return t, n

    def check(self, comb):
        """Refuse a combination whose genes or covers do not fit this matrix."""
        for g in comb.genes:
            if not 0 <= g < self.n_genes:
                raise ValidationError(f"combination gene index {g} out of range")
        t, n = comb.tumor_cover, comb.normal_cover
        if t >> self.tumor_count or n >> self.normal_count:
            raise ValidationError("combination cover does not fit the matrix")

    def combination(self, genes):
        """Canonical :class:`GeneCombination` for the given gene indices."""
        genes = tuple(sorted(set(genes)))
        t, n = self.coverage(genes)
        return GeneCombination(genes, t, n)

    def subset(self, positions):
        """New matrix over the given sample positions, order preserved."""
        positions = sorted(positions)
        return MutationMatrix(self.gene_ids, [self.samples[i] for i in positions])


def rank_genes_by_tumor_frequency(matrix):
    """Gene indices by descending tumor frequency, ties by ascending index."""
    return np.argsort(-matrix.tumor_frequencies(), kind="stable").tolist()


@dataclass(frozen=True)
class GeneRows:
    """A 0/1 gene-by-sample matrix of one class as index arrays, both ways.

    Row-major: row ``r`` is mutated in the samples
    ``row_samples[row_ptr[r]:row_ptr[r + 1]]``.  Sample-major: sample ``s``
    is mutated in the rows ``sample_rows[sample_ptr[s]:sample_ptr[s + 1]]``.
    Both kinds of segment are in ascending order.
    """

    row_ptr: np.ndarray
    row_samples: np.ndarray
    sample_ptr: np.ndarray
    sample_rows: np.ndarray


def _pointers(ids, size):
    """Where each value ``0..size-1`` starts in ``ids`` sorted, plus the end."""
    return np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=size))])


def _gene_rows(rows, row_of):
    """:class:`GeneRows` of one class's byte rows; gene g is row ``row_of[g]``."""
    i, g = nonzero(rows, len(row_of))
    r = row_of[g]
    # The pairs come sample by sample.  A stable sort by row keeps each
    # row's samples ascending; a stable sort of that by sample then keeps
    # each sample's rows ascending.
    by_row = np.argsort(r, kind="stable")
    r, i = r[by_row], i[by_row]
    by_sample = np.argsort(i, kind="stable")
    return GeneRows(_pointers(r, len(row_of)), i, _pointers(i, len(rows)), r[by_sample])


@contextmanager
def open_utf8(path):
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped.

    A byte sequence that is not UTF-8, read anywhere inside the ``with``
    block, raises a :class:`ParseError` naming the path and the first line
    that holds one.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        break
            raise ParseError(
                f"not UTF-8 text ({exc.reason})", path=path, line=lineno
            ) from None


def load_dense(path):
    """Read a dense TSV matrix.  See the module docstring for the format."""
    samples = []
    with open_utf8(path) as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", path=path, line=1)
        header = first.rstrip("\n").split("\t")
        if len(header) < 2 or header[0] != "sample_id" or header[1] != "label":
            raise ParseError(
                "header must start with 'sample_id<TAB>label'", path=path, line=1
            )
        gene_ids = header[2:]
        width = len(header)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            found = line.count("\t") + 1
            if found != width:
                raise ParseError(
                    f"expected {width} fields, found {found}", path=path, line=lineno
                )
            # With a tab appended, ``cells`` is every cell followed by a tab,
            # so a valid row is a 0/1 byte in each even position.
            sample_id, label_text, cells = (line + "\t").split("\t", 2)
            try:
                label = SampleLabel(label_text)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: unknown label {label_text!r}"
                ) from None
            data = cells.encode("utf-8")
            row = np.frombuffer(data, dtype=np.uint8)[::2] - ord("0")
            if len(data) != 2 * len(gene_ids) or (row > 1).any():
                bad = next(c for c in cells.split("\t") if c not in ("0", "1"))
                raise ParseError(
                    f"matrix entries must be 0 or 1, found {bad!r}",
                    path=path,
                    line=lineno,
                )
            samples.append(SampleRecord(sample_id, label, pack(row[None])[0]))
    return MutationMatrix(gene_ids, samples)


def write_dense(matrix, path):
    """Write ``matrix`` in the dense TSV format (round-trips bit-exact)."""
    # Each cell is a tab then its 0/1 byte; the tabs stay put across rows.
    cells = np.full(2 * matrix.n_genes, ord("\t"), dtype=np.uint8)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(("sample_id", "label") + matrix.gene_ids) + "\n")
        for s in matrix.samples:
            cells[1::2] = unpack([s.mutations], matrix.n_genes)[0] + ord("0")
            fh.write(f"{s.sample_id}\t{s.label.value}{cells.tobytes().decode()}\n")


def _read_csv_lines(path, expected_header):
    with open_utf8(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", path=path, line=1)
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header != expected_header:
        raise ParseError(
            f"expected header {','.join(expected_header)!r}", path=path, line=1
        )
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(expected_header):
            raise ParseError(
                f"expected {len(expected_header)} fields, found {len(fields)}",
                path=path,
                line=lineno,
            )
        if any(not f for f in fields):
            raise ParseError("empty field", path=path, line=lineno)
        out.append((lineno, fields))
    return out


def load_sparse(normal_path, tumor_path):
    """Build a matrix from sparse tumor triples and normal pairs.

    Tumor entries are mutated iff their count is >= 1; a zero-count triple
    still registers its gene and sample.  Negative counts are rejected.
    """
    tumor_rows = _read_csv_lines(tumor_path, ["gene", "sample", "count"])
    normal_rows = _read_csv_lines(normal_path, ["gene", "sample"])
    genes = set()
    tumor_ids = []
    tumor_muts = {}
    for lineno, (gene, sample, count_text) in tumor_rows:
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(
                f"count must be an integer, found {count_text!r}",
                path=tumor_path,
                line=lineno,
            ) from None
        if count < 0:
            raise ValidationError(
                f"{tumor_path}:{lineno}: negative count {count} for gene {gene!r}"
            )
        genes.add(gene)
        if sample not in tumor_muts:
            tumor_ids.append(sample)
            tumor_muts[sample] = set()
        if count >= 1:
            tumor_muts[sample].add(gene)
    normal_ids = []
    normal_muts = {}
    for _, (gene, sample) in normal_rows:
        genes.add(gene)
        if sample not in normal_muts:
            normal_ids.append(sample)
            normal_muts[sample] = set()
        normal_muts[sample].add(gene)
    overlap = set(tumor_ids) & set(normal_ids)
    if overlap:
        raise ValidationError(
            f"sample ids appear in both files: {sorted(overlap)[:5]}"
        )
    gene_ids = sorted(genes)
    index = {g: j for j, g in enumerate(gene_ids)}
    samples = []
    for sid in tumor_ids:
        row = sum(1 << index[g] for g in tumor_muts[sid])
        samples.append(SampleRecord(sid, SampleLabel.TUMOR, row))
    for sid in normal_ids:
        row = sum(1 << index[g] for g in normal_muts[sid])
        samples.append(SampleRecord(sid, SampleLabel.NORMAL, row))
    return MutationMatrix(gene_ids, samples)


def prune_genes(matrix):
    """Drop genes mutated in no sample at all; keeps gene order.  Idempotent.

    The mutated genes are the set bits of the OR of the sample rows, so no
    gene column is built.
    """
    union = reduce(or_, (s.mutations for s in matrix.samples), 0)
    keep = nonzero(byte_rows([union], matrix.n_genes), matrix.n_genes)[1]
    if len(keep) == matrix.n_genes:
        return matrix
    rows = unpack([s.mutations for s in matrix.samples], matrix.n_genes)[:, keep]
    samples = [
        SampleRecord(s.sample_id, s.label, row)
        for s, row in zip(matrix.samples, pack(rows))
    ]
    return MutationMatrix([matrix.gene_ids[j] for j in keep], samples)


def _train_share(fraction, count):
    # Nearest integer with exact halves rounded down; matches the published
    # per-split sample counts at every fraction, including 0.5.
    return max(0, min(count, math.ceil(round(fraction * count, 9) - 0.5)))


def split_train_test(matrix, train_fraction, seed):
    """Deterministic train/test split, stratified per class.

    Each class contributes its rounded share of samples to the train side.
    Sample order within each side follows matrix order, so the result does
    not depend on shuffle internals beyond membership.  A cell seeds this
    split through ``harness.cell_halves``.
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ValidationError(f"train fraction {train_fraction} outside [0, 1]")
    rng = random.Random(seed)
    if train_fraction < 1.0 and (matrix.tumor_count == 0 or matrix.normal_count == 0):
        raise ValidationError("stratified split needs at least one sample per class")
    train = set()
    for positions in (matrix.tumor_positions, matrix.normal_positions):
        pool = list(positions)
        rng.shuffle(pool)
        train.update(pool[: _train_share(train_fraction, len(pool))])
    test = [i for i in range(matrix.n_samples) if i not in train]
    return matrix.subset(train), matrix.subset(test)
