"""Shared instance builders and stand-ins for the test suite."""

import types

import scipy.sparse as sp

from multihit.data import MutationMatrix, SampleLabel, SampleRecord


def toy_matrix():
    """Seven genes, three tumors, two normals.

    The pair {g1, g2} covers t1, t2 and the normal n1; {g3, g4} covers only
    t2; t3 is reachable by no pair because only one gene is mutated there.
    Best objective with pairs and a selection budget of 2 is 1.
    """
    rows = {
        "t1": 0b0000011,
        "t2": 0b0001111,
        "t3": 0b1000000,
        "n1": 0b0000011,
        "n2": 0b0000100,
    }
    samples = [
        SampleRecord("t1", SampleLabel.TUMOR, rows["t1"]),
        SampleRecord("t2", SampleLabel.TUMOR, rows["t2"]),
        SampleRecord("t3", SampleLabel.TUMOR, rows["t3"]),
        SampleRecord("n1", SampleLabel.NORMAL, rows["n1"]),
        SampleRecord("n2", SampleLabel.NORMAL, rows["n2"]),
    ]
    return MutationMatrix([f"g{i}" for i in range(1, 8)], samples)


def random_matrix(rng, n_genes, n_tumor, n_normal, density=0.35):
    """I.i.d. random instance from a ``random.Random`` source."""
    samples = []
    for i in range(n_tumor):
        row = sum(1 << g for g in range(n_genes) if rng.random() < density)
        samples.append(SampleRecord(f"t{i}", SampleLabel.TUMOR, row))
    for i in range(n_normal):
        row = sum(1 << g for g in range(n_genes) if rng.random() < density)
        samples.append(SampleRecord(f"n{i}", SampleLabel.NORMAL, row))
    return MutationMatrix([f"g{j}" for j in range(n_genes)], samples)


def csc(a):
    """The CSC triple ``(data, indices, indptr)`` that ``LinearProgram``
    takes, of a dense array or any scipy sparse matrix; duplicate entries
    are summed and row indices sorted, stored zeros kept."""
    a = sp.csc_matrix(a, dtype=float, copy=True)
    a.sum_duplicates()
    return a.data, a.indices, a.indptr


def no_incumbent(*args, **kwargs):
    """A stand-in for ``scipy.optimize.milp`` that stops at its time limit
    before it finds a selection."""
    return types.SimpleNamespace(
        status=1,
        message="Time limit reached",
        x=None,
        fun=None,
        mip_dual_bound=None,
        mip_node_count=0,
    )
