"""Token-document matrices and the cluster-count estimate.

The paper's chain: raw frequency matrix A -> column-normalized N ->
row-stochastic R (token importance across documents) and S (document
importance per token) -> their product C, a token-to-token similarity
matrix. The sum of C's diagonal (each token's separation factor) estimates
how many topic clusters the index needs: k = ceil(trace).

The build reads only C's diagonal, so it never forms C.
`frequency_matrix` builds the frequency matrix as plain CSR arrays and
`separation_diagonal` computes diag(C) from them directly, bit for bit as
the chain computes it. The whole chain, as scipy.sparse matrices, is built
only by `matrix_pipeline`, for `estimate-k --dump-matrices` and the tests;
scipy is imported there and nowhere else, so the build loads numpy alone.

Normalizations define 0/0 as 0 so degenerate rows and columns propagate as
zeros instead of NaNs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .crypto import CipherToken, token_to_b64
from .index import CentralIndex, TrimmedIndex, write_lines

if TYPE_CHECKING:
    from scipy import sparse


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class FrequencyMatrix:
    """A token-document frequency matrix as CSR arrays.

    Row i holds the postings of the i-th token it was built from: the
    frequencies as floats in `data` and the documents' positions in the
    index's document order, ascending, in `indices`.
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
    row_of = a.row_of()
    row_sum = np.zeros(a.n_rows)
    np.add.at(row_sum, row_of, n)
    col_sum = np.zeros(a.n_docs)
    np.add.at(col_sum, a.indices, n)
    return n, n / row_sum[row_of], n / col_sum[a.indices]


def separation_diagonal(a: FrequencyMatrix) -> np.ndarray:
    """diag(C) of the frequency matrix a, without forming C.

    C_ii = sum over documents d of R_id * S_di, added one product at a time
    in ascending d from 0.0, the order of the sparse product R . S, so the
    result equals matrix_pipeline's C diagonal bit for bit.
    """
    _, r, s_t = _normalized(a)
    diag = np.zeros(a.n_rows)
    np.add.at(diag, a.row_of(), r * s_t)
    return diag


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
# the A -> N -> R -> S -> C chain as scipy.sparse matrices

@dataclass(frozen=True)
class LabeledMatrix:
    """A sparse matrix with row/column labels.

    Token labels are ciphertext bytes, document labels plain strings; both
    are kept in byte order so all matrix layouts are reproducible. Only the
    token-to-token matrix C has equal row and column labels.
    """

    row_labels: tuple
    col_labels: tuple
    mat: sparse.csr_matrix

    def __post_init__(self) -> None:
        if self.mat.shape != (len(self.row_labels), len(self.col_labels)):
            raise MatrixError(
                f"shape {self.mat.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )


def matrix_pipeline(trimmed: TrimmedIndex) -> dict[str, LabeledMatrix]:
    """Run A -> N -> R -> S -> C and return all five matrices by letter.

    A: raw frequencies, rows the kept tokens in byte order, columns
    index.docs (every document holding a posting, in id order). N, R and
    S^T hold `_normalized`'s entries: N is A over its column maxima, R is N row-normalized (each
    token's importance distribution over documents), and S is N
    column-normalized and transposed (each document's distribution over
    tokens; documents with no kept token give zero rows). C = R . S, kept
    sparse.
    """
    from scipy import sparse

    if not trimmed.kept:
        raise MatrixError("trimmed index has no kept tokens")
    tokens = tuple(sorted(trimmed.kept))
    docs = tuple(trimmed.index.docs)
    a = frequency_matrix(trimmed.index, tokens)
    shape = (len(tokens), len(docs))

    def at_a(values: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((values, a.indices, a.indptr), shape=shape)

    n, r, s_t = _normalized(a)
    r_mat, s_mat = at_a(r), at_a(s_t).T.tocsr()
    return {
        "A": LabeledMatrix(tokens, docs, at_a(a.data)),
        "N": LabeledMatrix(tokens, docs, at_a(n)),
        "R": LabeledMatrix(tokens, docs, r_mat),
        "S": LabeledMatrix(docs, tokens, s_mat),
        "C": LabeledMatrix(tokens, tokens, (r_mat @ s_mat).tocsr()),
    }


def c_diagonal(c: LabeledMatrix) -> np.ndarray:
    """The diagonal of the chain's C (extracted without densifying); rejects the other four."""
    if c.row_labels != c.col_labels:
        raise MatrixError("separation factors need the token-to-token matrix C")
    return c.mat.diagonal()


def estimate_k(c: LabeledMatrix) -> KEstimate:
    """estimate_k_from_diagonal of the chain's C."""
    return estimate_k_from_diagonal(c_diagonal(c))


def _label_str(label) -> str:
    return token_to_b64(label) if isinstance(label, bytes) else str(label)


def dump_matrix(matrix: LabeledMatrix, path: str | Path) -> None:
    """Debug TSV: row label, then one `col:value` field per nonzero entry."""
    csr = matrix.mat.tocsr()
    lines = []
    for i, row_label in enumerate(matrix.row_labels):
        fields = [_label_str(row_label)]
        for pos in range(csr.indptr[i], csr.indptr[i + 1]):
            j = csr.indices[pos]
            fields.append(f"{_label_str(matrix.col_labels[j])}:{csr.data[pos]:.12g}")
        lines.append("\t".join(fields))
    write_lines(path, lines)


def dump_matrices(matrices: dict[str, LabeledMatrix], out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in matrices.items():
        dump_matrix(matrix, out / f"{name}.tsv")
