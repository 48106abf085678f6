"""Token-document matrices and the cluster-count estimate.

The paper's chain: raw frequency matrix A -> column-normalized N ->
row-stochastic R (token importance across documents) and S (document
importance per token) -> their product C, a token-to-token similarity
matrix. The sum of C's diagonal (each token's separation factor) estimates
how many topic clusters the index needs: k = ceil(trace).

Every matrix is CSR arrays (`FrequencyMatrix`) on numpy alone. The build
reads only C's diagonal, which `separation_diagonal` computes from the
frequency matrix, bit for bit as the chain computes it. The whole chain is
built only by `matrix_pipeline`, for `estimate-k --dump-matrices` and the
tests; its C comes from `cooccurring_pairs`, which also finds distribute's
co-occurring token-center pairs.

Normalizations define 0/0 as 0 so degenerate rows and columns propagate as
zeros instead of NaNs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .crypto import CipherToken, token_to_b64
from .index import CentralIndex, TrimmedIndex, write_lines


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class FrequencyMatrix:
    """A token-document frequency matrix as CSR arrays.

    Row i holds the postings of the i-th token it was built from: the
    frequencies as floats in `data` and the documents' positions in the
    index's document order, ascending, in `indices`. The chain's matrices
    use the same arrays, with n_docs the column count.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_docs: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def row_of(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def rows(self, rows: Sequence[int] | np.ndarray) -> FrequencyMatrix:
        """The matrix of the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        at = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return FrequencyMatrix(self.data[at], self.indices[at], indptr, self.n_docs)

    def transpose(self) -> FrequencyMatrix:
        """The transposed matrix: a stable sort of the entries by column keeps each new row's columns ascending."""
        by_col = np.argsort(self.indices, kind="stable")
        indptr = np.searchsorted(self.indices[by_col], np.arange(self.n_docs + 1))
        return FrequencyMatrix(self.data[by_col], self.row_of()[by_col], indptr, self.n_rows)


def frequency_matrix(index: CentralIndex, tokens: Sequence[CipherToken]) -> FrequencyMatrix:
    """Token-document frequency matrix: rows follow `tokens`, columns `index.docs`."""
    lists = [index.entries[token] for token in tokens]
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)), out=indptr[1:])
    nnz = int(indptr[-1])
    doc_pos = {d: j for j, d in enumerate(index.docs)}
    indices = np.fromiter(map(doc_pos.__getitem__, chain.from_iterable(lists)), dtype=np.int64, count=nnz)
    data = np.fromiter(chain.from_iterable(map(dict.values, lists)), dtype=np.float64, count=nnz)
    return FrequencyMatrix(data, indices, indptr, len(index.docs))


def _normalized(a: FrequencyMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of N, R and S^T at A's stored positions.

    N divides each entry by its column maximum, by true division per entry
    (not multiplication by a reciprocal), which keeps the chain exactly
    invariant under integer rescaling. R divides N by its row sums, S^T by
    its column sums. Each sum adds its entries one by one with np.add.at, a
    row's in ascending column order and a column's in ascending row order.
    """
    col_max = np.zeros(a.n_docs)
    np.maximum.at(col_max, a.indices, a.data)
    n = a.data / col_max[a.indices]
    row_sum = np.zeros(a.n_rows)
    np.add.at(row_sum, a.row_of(), n)
    col_sum = np.zeros(a.n_docs)
    np.add.at(col_sum, a.indices, n)
    return n, n / row_sum[a.row_of()], n / col_sum[a.indices]


def separation_diagonal(a: FrequencyMatrix) -> np.ndarray:
    """diag(C) of the frequency matrix a, without forming C.

    C_ii = sum over documents d of R_id * S_di, added one product at a time
    in ascending d from 0.0, the order of the sparse product R . S, so the
    result equals matrix_pipeline's C diagonal bit for bit.
    """
    r, s_t = _normalized(a)[1:]  # N is not held through the products
    diag = np.zeros(a.n_rows)
    np.add.at(diag, a.row_of(), r * s_t)
    return diag


# expanded entries per block of rows: bounds cooccurring_pairs' temporaries, not its results
_PAIR_BLOCK = 1 << 16


def cooccurring_pairs(
    a: FrequencyMatrix, b: FrequencyMatrix, sums: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(row of a, column of b) of each nonzero of a . b, by row then column, and with sums their values.

    a's columns are b's rows: documents, for b a token-document matrix
    transposed. Each entry of a expands over b's row of its column, in
    blocks of a's rows of at most _PAIR_BLOCK expanded entries (or one row).
    Keys never mix between blocks, so each block's are sorted and deduplicated
    alone (np.unique would import numpy.ma). A value adds its products by
    np.add.at in expansion order, by ascending document from 0.0: the order
    of the row-wise sparse product. Without sums the third array is None.
    """
    before = np.concatenate(([0], np.cumsum(np.diff(b.indptr)[a.indices])))  # expanded entries before each of a's
    row_before = before[a.indptr]
    keys, values = [], []
    lo = 0
    while lo < a.n_rows:
        hi = max(lo + 1, int(np.searchsorted(row_before, row_before[lo] + _PAIR_BLOCK, side="right")) - 1)
        at = slice(a.indptr[lo], a.indptr[hi])
        counts = np.diff(before[a.indptr[lo]:a.indptr[hi] + 1])
        # expanded entry e of a's entry p is b's entry e - before[p] + (b's row start at p's column)
        q = np.arange(row_before[lo], row_before[hi]) + np.repeat(b.indptr[a.indices[at]] - before[at], counts)
        expanded = np.repeat(np.arange(lo, hi), np.diff(row_before[lo:hi + 1])) * b.n_docs + b.indices[q]
        block = np.sort(expanded)
        first = np.ones(len(block), dtype=bool)
        np.not_equal(block[1:], block[:-1], out=first[1:])
        keys.append(block[first])
        if sums:
            values.append(np.zeros(len(keys[-1])))
            np.add.at(values[-1], np.searchsorted(keys[-1], expanded), np.repeat(a.data[at], counts) * b.data[q])
        lo = hi
    pairs = np.concatenate(keys)
    return pairs // b.n_docs, pairs % b.n_docs, np.concatenate(values) if sums else None


@dataclass(frozen=True)
class KEstimate:
    k: int
    trace: float
    m: int


def estimate_k_from_diagonal(diag: np.ndarray) -> KEstimate:
    """k = ceil(sum of separation factors), clamped to [1, m]."""
    m = len(diag)
    trace = math.fsum(diag.tolist())
    return KEstimate(k=min(max(math.ceil(trace), 1), m), trace=trace, m=m)


# ---------------------------------------------------------------------------
# the A -> N -> R -> S -> C chain

@dataclass(frozen=True)
class LabeledMatrix:
    """A sparse matrix with row/column labels.

    Token labels are ciphertext bytes, document labels plain strings; both
    are kept in byte order so all matrix layouts are reproducible. Only the
    token-to-token matrix C has equal row and column labels.
    """

    row_labels: tuple
    col_labels: tuple
    mat: FrequencyMatrix

    def __post_init__(self) -> None:
        shape = (self.mat.n_rows, self.mat.n_docs)
        if shape != (len(self.row_labels), len(self.col_labels)):
            raise MatrixError(f"shape {shape} does not match labels ({len(self.row_labels)}, {len(self.col_labels)})")


def matrix_pipeline(trimmed: TrimmedIndex) -> dict[str, LabeledMatrix]:
    """Run A -> N -> R -> S -> C and return all five matrices by letter.

    A: raw frequencies, rows the kept tokens in byte order, columns
    index.docs (every document holding a posting, in id order). N, R and
    S^T hold `_normalized`'s entries at A's positions: N is A over its
    column maxima, R is N row-normalized (each token's importance
    distribution over documents), and S is N column-normalized and
    transposed (each document's distribution over tokens; documents with no
    kept token give empty rows). C = R . S, each row in label order.
    """
    if not trimmed.kept:
        raise MatrixError("trimmed index has no kept tokens")
    tokens = trimmed.kept
    docs = tuple(trimmed.index.docs)
    a = frequency_matrix(trimmed.index, tokens)
    n, r, s_t = _normalized(a)
    r_mat, s_mat = replace(a, data=r), replace(a, data=s_t).transpose()
    rows, cols, sums = cooccurring_pairs(r_mat, s_mat, sums=True)
    c_mat = FrequencyMatrix(sums, cols, np.searchsorted(rows, np.arange(len(tokens) + 1)), len(tokens))
    return {
        "A": LabeledMatrix(tokens, docs, a),
        "N": LabeledMatrix(tokens, docs, replace(a, data=n)),
        "R": LabeledMatrix(tokens, docs, r_mat),
        "S": LabeledMatrix(docs, tokens, s_mat),
        "C": LabeledMatrix(tokens, tokens, c_mat),
    }


def c_diagonal(c: LabeledMatrix) -> np.ndarray:
    """The diagonal of the chain's C, read from its CSR arrays; rejects the other four."""
    if c.row_labels != c.col_labels:
        raise MatrixError("separation factors need the token-to-token matrix C")
    row_of = c.mat.row_of()
    on = c.mat.indices == row_of
    return np.bincount(row_of[on], weights=c.mat.data[on], minlength=c.mat.n_rows)


def estimate_k(c: LabeledMatrix) -> KEstimate:
    """estimate_k_from_diagonal of the chain's C."""
    return estimate_k_from_diagonal(c_diagonal(c))


def _label_str(label) -> str:
    return token_to_b64(label) if isinstance(label, bytes) else str(label)


def dump_matrix(matrix: LabeledMatrix, path: str | Path) -> None:
    """Debug TSV: row label, then one `col:value` field per nonzero entry."""
    csr = matrix.mat
    cols = [_label_str(label) for label in matrix.col_labels]

    def row(i: int, label) -> str:
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        values = zip(csr.indices[lo:hi], csr.data[lo:hi])
        return "\t".join([_label_str(label), *(f"{cols[j]}:{value:.12g}" for j, value in values)])

    write_lines(path, (row(i, label) for i, label in enumerate(matrix.row_labels)))


def dump_matrices(matrices: dict[str, LabeledMatrix], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        dump_matrix(matrix, out / f"{name}.tsv")
