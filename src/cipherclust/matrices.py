"""Token-document matrix pipeline and the cluster-count estimate.

Pipeline: raw frequency matrix A -> column-normalized N -> row-stochastic R
(token importance across documents) and S (document importance per token) ->
their product C, a token-to-token similarity matrix. The sum of C's diagonal
(each token's separation factor) estimates how many topic clusters the index
needs: k = ceil(trace).

Everything is sparse; normalizations define 0/0 as 0 so degenerate rows and
columns propagate as zeros instead of NaNs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .crypto import CipherToken, token_to_b64
from .index import CentralIndex, TrimmedIndex, write_lines


class MatrixError(ValueError):
    pass


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


def frequency_matrix(index: CentralIndex, tokens: Sequence[CipherToken]) -> sparse.csr_matrix:
    """Token-document frequency matrix: rows follow `tokens`, columns `index.docs`.

    Entries are the stored frequencies as floats, zero elsewhere.
    """
    doc_pos = {d: j for j, d in enumerate(index.docs)}
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for token in tokens:
        for doc, freq in index.entries[token]:
            indices.append(doc_pos[doc])
            data.append(float(freq))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(tokens), len(index.docs)),
    )


def _row_normalized(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """Divide every entry by its row sum; all-zero rows stay zero."""
    csr = mat.tocsr(copy=True)
    sums = np.zeros(csr.shape[0])
    row_of = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    np.add.at(sums, row_of, csr.data)
    if csr.data.size:
        csr.data = csr.data / sums[row_of]
    return csr


def matrix_pipeline(trimmed: TrimmedIndex) -> dict[str, LabeledMatrix]:
    """Run A -> N -> R -> S -> C and return all five matrices by letter.

    A: raw frequencies, rows the kept tokens in byte order, columns every
    document of the index in id order. N: A divided by its column maxima,
    by true division per entry (not multiplication by a reciprocal), which
    keeps the chain exactly invariant under integer rescaling. R: N
    row-normalized, each token's importance distribution over documents.
    S: N column-normalized and transposed, each document's distribution
    over tokens (documents with no kept token give zero rows). C = R . S,
    kept sparse.
    """
    if not trimmed.kept:
        raise MatrixError("trimmed index has no kept tokens")
    tokens = tuple(sorted(trimmed.kept))
    docs = tuple(trimmed.index.docs)
    a = frequency_matrix(trimmed.index, tokens)

    csc = a.tocsc(copy=True)
    col_of = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
    col_max = np.zeros(csc.shape[1])
    np.maximum.at(col_max, col_of, csc.data)
    if csc.data.size:
        csc.data = csc.data / col_max[col_of]
    n = csc.tocsr()
    del csc, col_of, col_max  # not needed for R, S or C: free them before those are built

    r = _row_normalized(n)
    s = _row_normalized(n.T.tocsr())
    c = (r @ s).tocsr()
    return {
        "A": LabeledMatrix(tokens, docs, a),
        "N": LabeledMatrix(tokens, docs, n),
        "R": LabeledMatrix(tokens, docs, r),
        "S": LabeledMatrix(docs, tokens, s),
        "C": LabeledMatrix(tokens, tokens, c),
    }


@dataclass(frozen=True)
class KEstimate:
    k: int
    trace: float
    m: int


def separation_factors(c: LabeledMatrix) -> dict[CipherToken, float]:
    """Diagonal of C keyed by token (extracted without densifying)."""
    if c.row_labels != c.col_labels:
        raise MatrixError("separation factors need the token-to-token matrix C")
    diag = c.mat.diagonal()
    return {token: float(diag[i]) for i, token in enumerate(c.row_labels)}


def estimate_k(c: LabeledMatrix) -> KEstimate:
    """k = ceil(sum of separation factors), clamped to [1, m]."""
    if c.row_labels != c.col_labels:
        raise MatrixError("the k estimate needs the token-to-token matrix C")
    m = len(c.row_labels)
    trace = math.fsum(c.mat.diagonal())
    k = min(max(math.ceil(trace), 1), m)
    return KEstimate(k=k, trace=trace, m=m)


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
