"""Data model tests: formats, pruning, splitting and coverage."""

import random
import tracemalloc

import numpy as np
import pytest

from multihit.bitset import unpack
from multihit.data import (
    GeneCombination,
    GeneRows,
    HitRange,
    MutationMatrix,
    SampleLabel,
    SampleRecord,
    _pointers,
    _train_share,
    load_dense,
    load_sparse,
    prune_genes,
    split_train_test,
    write_dense,
)
from multihit.errors import ParseError, ValidationError

from util import random_matrix, toy_matrix


def test_toy_shape():
    m = toy_matrix()
    assert m.n_samples == 5
    assert m.n_genes == 7
    assert m.tumor_count == 3
    assert m.normal_count == 2


def test_dense_round_trip_bit_exact(tmp_path):
    m = toy_matrix()
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    write_dense(m, first)
    again = load_dense(first)
    write_dense(again, second)
    assert first.read_bytes() == second.read_bytes()
    assert again.gene_ids == m.gene_ids
    assert again.samples == m.samples


def test_zero_gene_matrix_round_trips(tmp_path):
    samples = [
        SampleRecord("t1", SampleLabel.TUMOR, 0),
        SampleRecord("n1", SampleLabel.NORMAL, 0),
    ]
    # Pruning a matrix where no gene is mutated leaves no genes at all.
    m = prune_genes(MutationMatrix(["g1", "g2"], samples))
    assert m.n_genes == 0
    path = tmp_path / "empty.tsv"
    write_dense(m, path)
    assert path.read_text() == "sample_id\tlabel\nt1\ttumor\nn1\tnormal\n"
    again = load_dense(path)
    assert again.gene_ids == () and again.samples == m.samples


def test_dense_parse_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tlabel\tg1\tg2\ns1\ttumor\t1\n")
    with pytest.raises(ParseError) as err:
        load_dense(path)
    assert ":2" in str(err.value)

    path.write_text("sample_id\tlabel\tg1\ns1\ttumor\t2\n")
    with pytest.raises(ParseError):
        load_dense(path)

    for cell in ("10", "", " 1", "\u0661"):
        path.write_text(
            f"sample_id\tlabel\tg1\tg2\ns1\ttumor\t1\t0\ns2\tnormal\t{cell}\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_dense(path)
        assert ":3:" in str(err.value)
        assert f"found {cell!r}" in str(err.value)

    path.write_text("sample_id\tlabel\tg1\ns1\tweird\t1\n")
    with pytest.raises(ValidationError):
        load_dense(path)

    path.write_text("sample_id\tlabel\tg1\ns1\ttumor\t1\ns1\tnormal\t0\n")
    with pytest.raises(ValidationError):
        load_dense(path)

    path.write_text("oops\tlabel\tg1\n")
    with pytest.raises(ParseError):
        load_dense(path)

    path.write_text("")
    with pytest.raises(ParseError, match="empty file") as err:
        load_dense(path)
    assert err.value.line == 1

    # A byte that is not UTF-8 names its line, however far the reader ran.
    path.write_bytes(b"sample_id\tlabel\tg1\ns1\ttumor\t1\ns\xff\tnormal\t0\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_dense(path)
    assert err.value.path == path and err.value.line == 3


def test_dense_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "m.tsv"
    text = "sample_id\tlabel\tg1\tg2\nt1\ttumor\t1\t0\nn1\tnormal\t0\t1\n"
    path.write_text(text, encoding="utf-8")
    want = load_dense(path)
    path.write_text("\ufeff" + text, encoding="utf-8")
    got = load_dense(path)
    assert (got.gene_ids, got.samples) == (want.gene_ids, want.samples)
    # A byte that is not UTF-8 still names its line.
    path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"n\xff\tnormal\t0\t0\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_dense(path)
    assert err.value.line == 4


def test_sparse_files_with_a_byte_order_mark(tmp_path):
    tumor = tmp_path / "tumor.csv"
    normal = tmp_path / "normal.csv"
    texts = {
        tumor: "gene,sample,count\ng1,s1,2\ng2,s2,1\n",
        normal: "gene,sample\ng3,m1\n",
    }
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    want = load_sparse(normal, tumor)
    for path, text in texts.items():
        path.write_text("\ufeff" + text, encoding="utf-8")
        got = load_sparse(normal, tumor)
        assert (got.gene_ids, got.samples) == (want.gene_ids, want.samples)


def test_sparse_ingestion(tmp_path):
    tumor = tmp_path / "tumor.csv"
    normal = tmp_path / "normal.csv"
    tumor.write_text("gene,sample,count\ng1,s1,2\ng2,s1,1\ng1,s2,0\n")
    normal.write_text("gene,sample\ng3,m1\n")
    m = load_sparse(normal, tumor)
    assert m.gene_ids == ("g1", "g2", "g3")
    assert [s.sample_id for s in m.samples] == ["s1", "s2", "m1"]
    s1, s2, m1 = m.samples
    assert s1.label is SampleLabel.TUMOR and s1.mutations == 0b011
    # Count 0 registers the sample but not the mutation.
    assert s2.mutations == 0
    assert m1.label is SampleLabel.NORMAL and m1.mutations == 0b100


def test_blank_lines_are_skipped(tmp_path):
    dense = tmp_path / "m.tsv"
    dense.write_text("sample_id\tlabel\tg1\n\nt1\ttumor\t1\n\nn1\tnormal\t0\n\n")
    m = load_dense(dense)
    assert [(s.sample_id, s.mutations) for s in m.samples] == [("t1", 1), ("n1", 0)]
    tumor = tmp_path / "tumor.csv"
    normal = tmp_path / "normal.csv"
    tumor.write_text("gene,sample,count\n\ng1,s1,1\n  \n")
    normal.write_text("gene,sample\n \ng2,m1\n\n")
    m = load_sparse(normal, tumor)
    assert m.gene_ids == ("g1", "g2")
    assert [(s.sample_id, s.mutations) for s in m.samples] == [("s1", 1), ("m1", 2)]


def test_sparse_errors(tmp_path):
    tumor = tmp_path / "tumor.csv"
    normal = tmp_path / "normal.csv"
    normal.write_text("gene,sample\ng1,n1\n")

    tumor.write_text("gene,sample,count\ng1,s1,-2\n")
    with pytest.raises(ValidationError):
        load_sparse(normal, tumor)

    tumor.write_text("gene,sample,count\ng1,s1,x\n")
    with pytest.raises(ParseError):
        load_sparse(normal, tumor)

    tumor.write_text("gene,sample\ng1,s1\n")
    with pytest.raises(ParseError):
        load_sparse(normal, tumor)

    tumor.write_text("gene,sample,count\ng1,n1,1\n")
    with pytest.raises(ValidationError):
        load_sparse(normal, tumor)

    # A row with a missing, extra or empty field names its line.
    for row, words in (
        ("g2,s2,1,9", "expected 3 fields, found 4"),
        ("g2,s2", "expected 3 fields, found 2"),
        ("g2, ,1", "empty field"),
        (",s2,1", "empty field"),
    ):
        tumor.write_text(f"gene,sample,count\ng1,s1,1\n{row}\n")
        with pytest.raises(ParseError, match=words) as err:
            load_sparse(normal, tumor)
        assert err.value.line == 3 and f"{tumor}:3: " in str(err.value)

    tumor.write_text("gene,sample,count\ng1,s1,1\n")
    normal.write_text("")
    with pytest.raises(ParseError, match="empty file") as err:
        load_sparse(normal, tumor)
    assert err.value.path == normal and err.value.line == 1

    normal.write_text("gene,sample\ng1,n1\n")
    tumor.write_bytes(b"gene,sample,count\ng1,s1,1\ng\xff,s2,1\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_sparse(normal, tumor)
    assert err.value.path == tumor and err.value.line == 3


def test_prune_drops_all_zero_genes():
    m = toy_matrix()
    extended = MutationMatrix(
        list(m.gene_ids) + ["dead1", "dead2"], list(m.samples)
    )
    pruned = prune_genes(extended)
    # g5 and g6 are never mutated either, so they go with the dead genes.
    assert pruned.gene_ids == ("g1", "g2", "g3", "g4", "g7")
    t, n = pruned.coverage((0, 1))
    assert t == 0b011 and n == 0b01
    assert pruned.samples[2].mutations == 0b10000  # t3's g7 remapped
    # Idempotent and order preserving.
    again = prune_genes(pruned)
    assert again.gene_ids == pruned.gene_ids
    assert again is pruned


def test_prune_keeps_normal_only_genes():
    samples = [
        SampleRecord("t1", SampleLabel.TUMOR, 0b01),
        SampleRecord("n1", SampleLabel.NORMAL, 0b10),
    ]
    m = MutationMatrix(["ga", "gb"], samples)
    assert prune_genes(m).gene_ids == ("ga", "gb")


def test_matrix_validation():
    with pytest.raises(ValidationError):
        MutationMatrix(["g1", "g1"], [])
    with pytest.raises(ValidationError):
        MutationMatrix(["g1"], [SampleRecord("s", SampleLabel.TUMOR, 0b10)])
    with pytest.raises(ValidationError):
        MutationMatrix(["g,1"], [])
    # An id that is not a str, or a label given as its text, is refused
    # as a ValidationError, not an AttributeError.
    with pytest.raises(ValidationError, match="^bad gene id 5$"):
        MutationMatrix([5, "g2"], [])
    with pytest.raises(ValidationError, match="^bad sample id 7$"):
        MutationMatrix(["g1"], [SampleRecord(7, SampleLabel.TUMOR, 0)])
    with pytest.raises(ValidationError, match="unknown label 'tumor'"):
        MutationMatrix(["g1"], [SampleRecord("s", "tumor", 0)])


def first_id_fault(kind, ids):
    """The message of the first bad or repeated id, checked one id at a time."""
    seen = set()
    for value in ids:
        if not value or value != value.strip():
            return f"bad {kind} id {value!r}"
        if any(ch in value for ch in "\t\n\r,"):
            return f"{kind} id {value!r} contains a reserved character"
        if value in seen:
            return f"duplicate {kind} id {value!r}"
        seen.add(value)
    return None


@pytest.mark.parametrize(
    "bad", ["", " g", "g ", "g\th", "g,h", "g\nh", "a", "\u00a0g", "g\u3000"]
)
@pytest.mark.parametrize("kind", ["gene", "sample"])
def test_id_faults_name_the_first_bad_id(kind, bad):
    # "a" repeats the first id; the later faults ("x,y", the second "d")
    # must not be named instead.
    ids = ["a", "b", bad, "d", "x,y", "d"]
    want = first_id_fault(kind, ids)
    assert want is not None and repr(bad) in want
    if kind == "gene":
        args = (ids, [])
    else:
        args = (["g"], [SampleRecord(i, SampleLabel.TUMOR, 0) for i in ids])
    with pytest.raises(ValidationError) as err:
        MutationMatrix(*args)
    assert type(err.value) is ValidationError and str(err.value) == want


def test_ids_with_inner_spaces_are_accepted():
    samples = [SampleRecord("sample 1", SampleLabel.TUMOR, 1)]
    m = MutationMatrix(["gene A", "gene\u00a0B"], samples)
    assert m.gene_ids == ("gene A", "gene\u00a0B")
    assert m.columns(0) == (1, 0) and m.columns(1) == (0, 0)


def test_building_columns_keeps_no_unpacked_array():
    # 1,000 tumors by 4,000 genes at ~1% density: the 0/1 array of the
    # tumor rows alone would take tumor_count * n_genes bytes.  Counting
    # the tumor frequencies and building the gene-major rows stay below it.
    rng = random.Random(7)
    n_genes = 4000
    samples = [
        SampleRecord(
            f"{label.value}{i}",
            label,
            sum(1 << j for j in rng.sample(range(n_genes), 40)),
        )
        for label, count in ((SampleLabel.TUMOR, 1000), (SampleLabel.NORMAL, 100))
        for i in range(count)
    ]
    gene_ids = [f"g{j}" for j in range(n_genes)]
    tracemalloc.start()
    try:
        m = MutationMatrix(gene_ids, samples)
        freq = m.tumor_frequencies()
        order, tumor, normal = m.gene_major
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.tumor_count * m.n_genes
    rows = unpack([samples[i].mutations for i in m.tumor_positions], n_genes)
    assert freq.tolist() == rows.sum(axis=0).tolist()
    assert m._columns == {}  # neither reads a gene column
    want = gene_rows_from_columns(m)
    assert order == want[0]
    assert_same_gene_rows(tumor, want[1])
    assert_same_gene_rows(normal, want[2])


def test_train_share_rounding():
    assert _train_share(0.75, 911) == 683
    assert _train_share(0.75, 331) == 248
    # Exact halves round down; this is what published split sizes use.
    # Decile shares of a 911/331 class pair, checked per class and in sum.
    deciles = {
        0.1: (91, 33),
        0.2: (182, 66),
        0.3: (273, 99),
        0.4: (364, 132),
        0.5: (455, 165),
        0.6: (547, 199),
        0.7: (638, 232),
        0.8: (729, 265),
        0.9: (820, 298),
    }
    for f, (t, n) in deciles.items():
        assert _train_share(f, 911) == t
        assert _train_share(f, 331) == n
    assert _train_share(1.0, 42) == 42
    assert _train_share(0.0, 42) == 0


def test_split_partition_and_determinism():
    rng = random.Random(5)
    m = random_matrix(rng, 10, 40, 24)
    train, test = split_train_test(m, 0.75, seed=9)
    train2, test2 = split_train_test(m, 0.75, seed=9)
    assert [s.sample_id for s in train.samples] == [s.sample_id for s in train2.samples]
    assert [s.sample_id for s in test.samples] == [s.sample_id for s in test2.samples]
    ids = sorted(s.sample_id for s in train.samples) + sorted(
        s.sample_id for s in test.samples
    )
    assert sorted(ids) == sorted(s.sample_id for s in m.samples)
    assert train.tumor_count == 30
    assert train.normal_count == 18
    # Matrix order is preserved inside each side.
    order = {s.sample_id: i for i, s in enumerate(m.samples)}
    pos = [order[s.sample_id] for s in train.samples]
    assert pos == sorted(pos)


def test_split_seed_changes_membership():
    rng = random.Random(6)
    m = random_matrix(rng, 8, 30, 20)
    a, _ = split_train_test(m, 0.5, seed=1)
    b, _ = split_train_test(m, 0.5, seed=2)
    assert [s.sample_id for s in a.samples] != [s.sample_id for s in b.samples]


def test_split_edges():
    rng = random.Random(7)
    m = random_matrix(rng, 6, 10, 5)
    train, test = split_train_test(m, 1.0, seed=0)
    assert train.n_samples == 15 and test.n_samples == 0
    train, test = split_train_test(m, 0.0, seed=0)
    assert train.n_samples == 0 and test.n_samples == 15
    only_tumors = MutationMatrix(
        ["g0"], [SampleRecord("t0", SampleLabel.TUMOR, 1)]
    )
    with pytest.raises(ValidationError):
        split_train_test(only_tumors, 0.5, seed=0)
    with pytest.raises(ValidationError):
        split_train_test(m, 1.5, seed=0)


def test_coverage_on_toy():
    m = toy_matrix()
    t, n = m.coverage((0, 1))
    assert t == 0b011  # t1 and t2
    assert n == 0b01  # n1
    t, n = m.coverage((2, 3))
    assert t == 0b010 and n == 0
    t, n = m.coverage(())
    assert t == m.all_tumor_mask and n == m.all_normal_mask
    with pytest.raises(ValidationError):
        m.coverage((99,))


def test_coverage_antitone_random():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, 9, 8, 6)
        genes = rng.sample(range(9), rng.randint(1, 3))
        extra = rng.choice([g for g in range(9) if g not in genes])
        t1, n1 = m.coverage(genes)
        t2, n2 = m.coverage(genes + [extra])
        assert t2 & t1 == t2  # cover can only shrink
        assert n2 & n1 == n2


def test_combination_canonical_form():
    m = toy_matrix()
    c = m.combination([1, 0, 1])
    assert c.genes == (0, 1)
    assert c.tumor_cover == 0b011
    with pytest.raises(ValidationError):
        m.combination([])
    with pytest.raises(ValidationError, match="sorted and distinct"):
        GeneCombination((2, 1), 0, 0)


def test_hit_range_parse():
    assert HitRange.parse("2-3") == HitRange(2, 3)
    assert HitRange.parse("7") == HitRange(7, 7)
    assert str(HitRange(2, 3)) == "2-3"
    assert str(HitRange(4, 4)) == "4"
    with pytest.raises(ValidationError):
        HitRange.parse("3-2")
    with pytest.raises(ValidationError):
        HitRange.parse("x")
    with pytest.raises(ValidationError):
        HitRange(0, 1)
    # A bool or a float is not a size, though both compare like one.
    for bounds in ((True, 2), (1.5, 3)):
        with pytest.raises(ValidationError, match="ints"):
            HitRange(*bounds)


def test_gene_rows_hold_each_class_both_ways():
    rng = random.Random(71)
    m = random_matrix(rng, 9, 7, 5, density=0.4)
    order, tumor, normal = m.gene_major
    assert sorted(order) == list(range(m.n_genes))
    freq = m.tumor_frequencies()[order].tolist()
    assert freq == sorted(freq, reverse=True)
    for rows, side, count in ((tumor, 0, m.tumor_count), (normal, 1, m.normal_count)):
        bits = unpack([m.columns(g)[side] for g in order], count)
        for r in range(len(order)):
            seg = rows.row_samples[rows.row_ptr[r] : rows.row_ptr[r + 1]]
            assert list(seg) == list(bits[r].nonzero()[0])
        for s in range(count):
            seg = rows.sample_rows[rows.sample_ptr[s] : rows.sample_ptr[s + 1]]
            assert list(seg) == list(bits[:, s].nonzero()[0])


def columns_by_loops(m, positions, gene):
    """Bit r is gene ``gene`` of the r-th sample at ``positions``, bit by bit."""
    return sum(
        ((m.samples[pos].mutations >> gene) & 1) << r for r, pos in enumerate(positions)
    )


@pytest.mark.parametrize("n_genes", [1, 7, 8, 9, 65])
def test_columns_match_a_per_bit_loop(n_genes):
    rng = random.Random(n_genes)
    for n_tumor, n_normal in ((9, 4), (0, 5), (6, 0), (17, 8)):
        m = random_matrix(rng, n_genes, n_tumor, n_normal, density=0.4)
        # The last gene is mutated nowhere: every row drops its top bit.
        m = MutationMatrix(
            m.gene_ids,
            [
                SampleRecord(s.sample_id, s.label, s.mutations & ~(1 << (n_genes - 1)))
                for s in m.samples
            ],
        )
        genes = list(range(n_genes))
        rng.shuffle(genes)  # built in any order, each on its first read
        for g in genes:
            want = (
                columns_by_loops(m, m.tumor_positions, g),
                columns_by_loops(m, m.normal_positions, g),
            )
            assert m.columns(g) == want
            assert m.columns(g) is m.columns(g)  # cached
        assert m.columns(n_genes - 1) == (0, 0)
        assert sorted(m._columns) == list(range(n_genes))
        assert m.tumor_frequencies().tolist() == [
            m.columns(g)[0].bit_count() for g in range(n_genes)
        ]
        for bad in (-1, n_genes, n_genes + 7, 8 * n_genes):
            with pytest.raises(ValidationError, match="out of range"):
                m.columns(bad)


def gene_rows_from_columns(m):
    """``gene_major`` as built from every gene's full columns."""
    freq = [m.columns(g)[0].bit_count() for g in range(m.n_genes)]
    order = sorted(range(m.n_genes), key=lambda g: (-freq[g], g))
    out = [order]
    for side, count in ((0, m.tumor_count), (1, m.normal_count)):
        r, i = np.nonzero(unpack([m.columns(g)[side] for g in order], count))
        by_sample = np.argsort(i, kind="stable")
        out.append(
            GeneRows(
                _pointers(r, m.n_genes), i, _pointers(i, count), r[by_sample]
            )
        )
    return tuple(out)


def assert_same_gene_rows(got, want):
    for name in ("row_ptr", "row_samples", "sample_ptr", "sample_rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_gene_major_equals_its_construction_from_full_columns():
    rng = random.Random(72)
    shapes = ((9, 7, 5), (40, 12, 6), (65, 0, 4), (8, 5, 0), (0, 3, 2), (200, 6, 4))
    for n_genes, n_tumor, n_normal in shapes:
        m = random_matrix(rng, n_genes, n_tumor, n_normal, density=0.3)
        order, tumor, normal = m.gene_major
        want = gene_rows_from_columns(m)
        assert order == want[0]
        assert_same_gene_rows(tumor, want[1])
        assert_same_gene_rows(normal, want[2])
