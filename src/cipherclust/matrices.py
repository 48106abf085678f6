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
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .crypto import CipherToken, token_to_b64
from .index import CentralIndex, TrimmedIndex, write_lines


class MatrixRole(Enum):
    RAW_A = "A"
    NORMALIZED_N = "N"
    R_TOKEN_TO_DOC = "R"
    S_DOC_TO_TOKEN = "S"
    C_TOKEN_TO_TOKEN = "C"


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledMatrix:
    """A sparse matrix with a declared role and row/column labels.

    Token labels are ciphertext bytes, document labels plain strings; both
    are kept in byte order so all matrix layouts are reproducible.
    """

    role: MatrixRole
    row_labels: tuple
    col_labels: tuple
    mat: sparse.csr_matrix

    def __post_init__(self) -> None:
        if self.mat.shape != (len(self.row_labels), len(self.col_labels)):
            raise MatrixError(
                f"shape {self.mat.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )

    def entry(self, row_label, col_label) -> float:
        i = self.row_labels.index(row_label)
        j = self.col_labels.index(col_label)
        return float(self.mat[i, j])

    def dense(self) -> np.ndarray:
        return self.mat.toarray()


def _require(matrix: LabeledMatrix, role: MatrixRole) -> None:
    if matrix.role is not role:
        raise MatrixError(f"expected a {role.value} matrix, got {matrix.role.value}")


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


def build_A(trimmed: TrimmedIndex) -> LabeledMatrix:
    """Raw token-document frequency matrix over the kept tokens.

    Rows are kept tokens in byte order, columns are every document of the
    index in id order.
    """
    if not trimmed.kept:
        raise MatrixError("trimmed index has no kept tokens")
    tokens = tuple(sorted(trimmed.kept))
    mat = frequency_matrix(trimmed.index, tokens)
    return LabeledMatrix(MatrixRole.RAW_A, tokens, tuple(trimmed.index.docs), mat)


def normalize(a: LabeledMatrix) -> LabeledMatrix:
    """Divide every entry by its column maximum; all-zero columns stay zero.

    True division per entry (not multiplication by a reciprocal) keeps the
    pipeline exactly invariant under integer rescaling of the frequencies.
    """
    _require(a, MatrixRole.RAW_A)
    csc = a.mat.tocsc(copy=True)
    ncols = csc.shape[1]
    col_of = np.repeat(np.arange(ncols), np.diff(csc.indptr))
    col_max = np.zeros(ncols)
    np.maximum.at(col_max, col_of, csc.data)
    if csc.data.size:
        csc.data = csc.data / col_max[col_of]
    return LabeledMatrix(MatrixRole.NORMALIZED_N, a.row_labels, a.col_labels, csc.tocsr())


def _row_normalized(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    csr = mat.tocsr(copy=True)
    sums = np.zeros(csr.shape[0])
    row_of = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    np.add.at(sums, row_of, csr.data)
    if csr.data.size:
        csr.data = csr.data / sums[row_of]
    return csr


def build_R(n: LabeledMatrix) -> LabeledMatrix:
    """Row-normalize N: each row becomes the token's importance distribution."""
    _require(n, MatrixRole.NORMALIZED_N)
    return LabeledMatrix(
        MatrixRole.R_TOKEN_TO_DOC, n.row_labels, n.col_labels, _row_normalized(n.mat)
    )


def build_S(n: LabeledMatrix) -> LabeledMatrix:
    """Column-normalize N and transpose: rows are documents, columns tokens.

    Row d of S is document d's token-importance distribution; documents with
    no kept tokens yield zero rows.
    """
    _require(n, MatrixRole.NORMALIZED_N)
    s = _row_normalized(n.mat.T.tocsr())
    return LabeledMatrix(MatrixRole.S_DOC_TO_TOKEN, n.col_labels, n.row_labels, s)


def build_C(r: LabeledMatrix, s: LabeledMatrix) -> LabeledMatrix:
    """Token-to-token similarity C = R . S (sparse product, kept sparse)."""
    _require(r, MatrixRole.R_TOKEN_TO_DOC)
    _require(s, MatrixRole.S_DOC_TO_TOKEN)
    if r.col_labels != s.row_labels or r.row_labels != s.col_labels:
        raise MatrixError("R and S labels are inconsistent")
    c = (r.mat @ s.mat).tocsr()
    return LabeledMatrix(MatrixRole.C_TOKEN_TO_TOKEN, r.row_labels, s.col_labels, c)


@dataclass(frozen=True)
class KEstimate:
    k: int
    trace: float
    m: int


def separation_factors(c: LabeledMatrix) -> dict[CipherToken, float]:
    """Diagonal of C keyed by token (extracted without densifying)."""
    _require(c, MatrixRole.C_TOKEN_TO_TOKEN)
    diag = c.mat.diagonal()
    return {token: float(diag[i]) for i, token in enumerate(c.row_labels)}


def estimate_k(c: LabeledMatrix) -> KEstimate:
    """k = ceil(sum of separation factors), clamped to [1, m]."""
    _require(c, MatrixRole.C_TOKEN_TO_TOKEN)
    m = len(c.row_labels)
    trace = math.fsum(c.mat.diagonal())
    k = min(max(math.ceil(trace), 1), m)
    return KEstimate(k=k, trace=trace, m=m)


def matrix_pipeline(trimmed: TrimmedIndex) -> dict[str, LabeledMatrix]:
    """Run A -> N -> R -> S -> C and return all five matrices by role letter."""
    a = build_A(trimmed)
    n = normalize(a)
    r = build_R(n)
    s = build_S(n)
    c = build_C(r, s)
    return {"A": a, "N": n, "R": r, "S": s, "C": c}


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
