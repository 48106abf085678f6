import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust import matrices
from cipherclust.clustering import choose_centers
from cipherclust.crypto import IdentityTokenCodec
from cipherclust.index import TrimmedIndex, build_index_from_corpus, ingest, trim
from cipherclust.matrices import (
    MatrixError,
    cooccurring_pairs,
    dump_matrix,
    estimate_k,
    estimate_k_from_diagonal,
    FrequencyMatrix,
    frequency_matrix,
    matrix_pipeline,
    c_diagonal,
    separation_diagonal,
)

from conftest import (
    EXAMPLE_DOCS,
    EXAMPLE_FREQS,
    assert_same_csr,
    dense,
    entry,
    keep_all,
    random_index,
    records_from_freqs,
    structured_freqs,
)
from oracles import dense_pipeline, exact_pipeline, product_pairs, scipy_chain

# Frozen by the exact rational oracle over the worked example.
EXACT_TRACE = 2.1830616958374516

# Two-decimal reference tables for the worked example. The S-matrix d3 row
# and its d2 entry for vJHZ do not satisfy the column normalization the
# other rows obey (they do not sum to 1) and are treated as typos, as is the
# one diagonal entry of the similarity matrix they propagate into (tH7c).
TABLE_N = {
    b"Uh5W": [0.58, 0, 0.34, 0.07, 1, 0],
    b"/Vdn": [0.1, 0, 0, 1, 0.85, 0],
    b"oR1r": [0, 0.47, 0, 0.5, 0, 0],
    b"vJHZ": [1, 1, 0, 0.38, 0, 1],
    b"tH7c": [0, 0.92, 1, 0, 0.08, 0.19],
}
TABLE_R = {
    b"Uh5W": [0.29, 0, 0.17, 0.04, 0.50, 0],
    b"/Vdn": [0.05, 0, 0, 0.51, 0.43, 0],
    b"oR1r": [0, 0.48, 0, 0.52, 0, 0],
    b"vJHZ": [0.29, 0.29, 0, 0.11, 0, 0.29],
    b"tH7c": [0, 0.42, 0.45, 0, 0.03, 0.09],
}
# token order: Uh5W, /Vdn, oR1r, vJHZ, tH7c; d3 row excluded, d2/vJHZ flagged
TABLE_S = {
    "d1": [0.34, 0.06, 0, 0.60, 0],
    "d2": [0, 0, 0.19, None, 0.38],
    "d4": [0.04, 0.51, 0.25, 0.19, 0],
    "d5": [0.52, 0.44, 0, 0, 0.04],
    "d6": [0, 0, 0, 0.84, 0.16],
}
TABLE_C_DIAG = {b"Uh5W": 0.39, b"/Vdn": 0.45, b"oR1r": 0.21, b"vJHZ": 0.58}
REF_DIAG_ROUNDED = [0.39, 0.45, 0.21, 0.58, 0.37]

S_TOKEN_ORDER = [b"Uh5W", b"/Vdn", b"oR1r", b"vJHZ", b"tH7c"]


def example_matrices():
    index = ingest(records_from_freqs(EXAMPLE_FREQS, EXAMPLE_DOCS))
    return matrix_pipeline(keep_all(index))


def dense_example():
    tokens = sorted(EXAMPLE_FREQS)
    return [
        [float(EXAMPLE_FREQS[t].get(d, 0)) for d in EXAMPLE_DOCS] for t in tokens
    ], tokens


class TestWorkedExample:
    def test_A_matches_the_reference_frequencies(self):
        mats = example_matrices()
        a = mats["A"]
        assert dense(a).shape == (5, 6)
        assert entry(a, b"Uh5W", "d1") == 30
        assert entry(a, b"tH7c", "d3") == 68
        assert entry(a, b"oR1r", "d1") == 0

    def test_N_matches_reference_table(self):
        n = example_matrices()["N"]
        for token, row in TABLE_N.items():
            for d, want in zip(EXAMPLE_DOCS, row):
                assert entry(n, token, d) == pytest.approx(want, abs=0.01)

    def test_R_matches_reference_table(self):
        r = example_matrices()["R"]
        for token, row in TABLE_R.items():
            for d, want in zip(EXAMPLE_DOCS, row):
                assert entry(r, token, d) == pytest.approx(want, abs=0.01)

    def test_R_vJHZ_row_exact(self):
        r = example_matrices()["R"]
        want = [0.296, 0.296, 0, 0.112, 0, 0.296]
        for d, w in zip(EXAMPLE_DOCS, want):
            assert entry(r, b"vJHZ", d) == pytest.approx(w, abs=0.005)

    def test_S_matches_reference_table_outside_flagged_cells(self):
        s = example_matrices()["S"]
        for doc, row in TABLE_S.items():
            for token, want in zip(S_TOKEN_ORDER, row):
                if want is None:
                    continue
                assert entry(s, doc, token) == pytest.approx(want, abs=0.01)

    def test_S_d3_row_from_direct_normalization(self):
        s = example_matrices()["S"]
        assert entry(s, "d3", b"Uh5W") == pytest.approx(0.254, abs=0.005)
        assert entry(s, "d3", b"tH7c") == pytest.approx(0.746, abs=0.005)
        row = [entry(s, "d3", t) for t in S_TOKEN_ORDER]
        assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_C_diagonal_against_reference_values(self):
        c = example_matrices()["C"]
        for token, want in TABLE_C_DIAG.items():
            assert entry(c, token, token) == pytest.approx(want, abs=0.02)

    def test_C_matches_exact_oracle_and_k_is_3(self):
        mats = example_matrices()
        dense_a, tokens = dense_example()
        exact_c, exact_trace = exact_pipeline([[int(v) for v in row] for row in dense_a])
        got = dense(mats["C"])
        for i in range(5):
            for j in range(5):
                assert got[i][j] == pytest.approx(float(exact_c[i][j]), abs=1e-9)
        est = estimate_k(mats["C"])
        assert est.trace == pytest.approx(float(exact_trace), abs=1e-9)
        assert est.trace == pytest.approx(EXACT_TRACE, abs=1e-12)
        assert est.k == 3 and est.m == 5

    def test_reference_rounded_diagonal_sums_to_two(self):
        # the rounded reference diagonal's own arithmetic: trace 2.00, k 2
        assert sum(REF_DIAG_ROUNDED) == pytest.approx(2.00, abs=1e-12)
        assert math.ceil(sum(REF_DIAG_ROUNDED)) == 2

    def test_flagged_diagonal_entry_follows_the_exact_arithmetic(self):
        # the rounded reference shows 0.37 here, downstream of the flagged d3
        # row; exact arithmetic gives ~0.52
        c = example_matrices()["C"]
        dense_a, _ = dense_example()
        exact_c, _ = exact_pipeline([[int(v) for v in row] for row in dense_a])
        i = sorted(EXAMPLE_FREQS).index(b"tH7c")
        assert entry(c, b"tH7c", b"tH7c") == pytest.approx(float(exact_c[i][i]), abs=1e-9)


class TestBuildA:
    def test_single_cell(self):
        index = ingest([("d1", [(b"t", 7)])])
        a = matrix_pipeline(keep_all(index))["A"]
        assert dense(a).tolist() == [[7.0]]

    def test_missing_posting_is_zero(self):
        index = ingest([("d1", [(b"t", 7)]), ("d2", [(b"u", 1)])])
        a = matrix_pipeline(keep_all(index))["A"]
        assert entry(a, b"t", "d2") == 0.0

    def test_empty_kept_rejected(self, example_index):
        bad = TrimmedIndex(index=example_index, kept=())
        with pytest.raises(MatrixError):
            matrix_pipeline(bad)


class TestNormalize:
    def test_single_entry_column_becomes_one(self):
        index = ingest([("d1", [(b"t", 9)])])
        n = matrix_pipeline(keep_all(index))["N"]
        assert dense(n).tolist() == [[1.0]]

    def test_zero_column_stays_zero(self):
        # doc d2 holds only u, which the trim drops
        index = ingest([("d1", [(b"t", 3)]), ("d2", [(b"u", 1)])])
        n = matrix_pipeline(TrimmedIndex(index, (b"t",)))["N"]
        assert entry(n, b"t", "d2") == 0.0

    def test_columns_attain_one(self, example_index):
        n = matrix_pipeline(keep_all(example_index))["N"]
        assert np.allclose(dense(n).max(axis=0), 1.0)


class TestRandS:
    def test_single_nonzero_row_becomes_one(self):
        index = ingest([("d1", [(b"t", 5)]), ("d2", [(b"u", 2)])])
        r = matrix_pipeline(keep_all(index))["R"]
        assert entry(r, b"t", "d1") == 1.0

    def test_S_shape_and_zero_rows(self):
        # doc d2 holds only u, which the trim drops
        index = ingest([("d1", [(b"t", 3)]), ("d2", [(b"u", 1)])])
        s = matrix_pipeline(TrimmedIndex(index, (b"t",)))["S"]
        assert dense(s).shape == (2, 1)
        assert entry(s, "d2", b"t") == 0.0

    def test_one_token_C_is_identity(self):
        index = ingest([("d1", [(b"t", 4)]), ("d2", [(b"t", 9)])])
        mats = matrix_pipeline(keep_all(index))
        assert dense(mats["C"]).tolist() == [[1.0]]


class TestEstimateK:
    def test_disjoint_tokens_give_k_equals_m(self):
        records = [(f"d{i}", [(f"t{i}".encode(), i + 1)]) for i in range(6)]
        mats = matrix_pipeline(keep_all(ingest(records)))
        est = estimate_k(mats["C"])
        assert est.trace == pytest.approx(6.0, abs=1e-12)
        assert est.k == 6

    def test_identical_profiles_give_k_one(self):
        freqs = {f"t{i}".encode(): {"d1": 3, "d2": 5, "d3": 2} for i in range(4)}
        mats = matrix_pipeline(keep_all(ingest(records_from_freqs(freqs))))
        est = estimate_k(mats["C"])
        diag = dense(mats["C"]).diagonal()
        assert np.allclose(diag, 0.25, atol=1e-12)
        assert est.trace == pytest.approx(1.0, abs=1e-12)
        assert est.k == 1

    def test_separation_factors_match_diagonal(self, example_index):
        # the chain's C diagonal, row by row, is the diagonal the build computes from F
        mats = matrix_pipeline(keep_all(example_index))
        tokens = mats["C"].row_labels
        want = separation_diagonal(frequency_matrix(example_index, tokens))
        assert np.array_equal(c_diagonal(mats["C"]), want)
        for i in range(len(tokens)):
            assert c_diagonal(mats["C"])[i] == dense(mats["C"])[i, i]

    @pytest.mark.parametrize("name", ["A", "S"])
    def test_only_C_is_accepted(self, example_index, name):
        # A and S have token and document labels; only C's rows and columns are both tokens
        wrong = matrix_pipeline(keep_all(example_index))[name]
        with pytest.raises(MatrixError):
            estimate_k(wrong)
        with pytest.raises(MatrixError):
            c_diagonal(wrong)
        with pytest.raises(MatrixError):
            choose_centers(1, wrong, example_index)


class TestProperties:
    def test_stochastic_rows_and_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            index, _ = random_index(rng, int(rng.integers(1, 40)), int(rng.integers(1, 25)))
            mats = matrix_pipeline(trim(index))
            for name in ("R", "S", "C"):
                sums = dense(mats[name]).sum(axis=1)
                nonzero = sums > 1e-12
                assert np.allclose(sums[nonzero], 1.0, atol=1e-9), name
            c = mats["C"].mat
            assert c.data.min() >= -1e-12 and c.data.max() <= 1 + 1e-9
            est = estimate_k(mats["C"])
            assert 1 <= est.k <= est.m

    def test_scale_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        index, freqs = random_index(rng, 12, 8)
        base = matrix_pipeline(trim(index))
        for factor in (2, 10, 1000):
            scaled = {
                t: {d: f * factor for d, f in by.items()} for t, by in freqs.items()
            }
            mats = matrix_pipeline(trim(ingest(records_from_freqs(scaled, index.docs))))
            for name in ("N", "R", "S", "C"):
                assert np.array_equal(dense(base[name]), dense(mats[name])), name
            assert estimate_k(mats["C"]).k == estimate_k(base["C"]).k

    def test_input_order_permutation_is_identity(self):
        rng = np.random.default_rng(9)
        index, freqs = random_index(rng, 15, 10)
        base = matrix_pipeline(trim(index))
        records = records_from_freqs(freqs, index.docs)
        for _ in range(5):
            shuffled = [records[i] for i in rng.permutation(len(records))]
            shuffled = [
                (doc, [pairs[i] for i in rng.permutation(len(pairs))] if pairs else [])
                for doc, pairs in shuffled
            ]
            mats = matrix_pipeline(trim(ingest(shuffled)))
            for name in ("A", "N", "R", "S", "C"):
                assert np.array_equal(dense(base[name]), dense(mats[name])), name

    def test_relabeling_preserves_trace_and_k(self):
        rng = np.random.default_rng(31)
        index, freqs = random_index(rng, 15, 10)
        est = estimate_k(matrix_pipeline(trim(index))["C"])
        renamed = {
            bytes(reversed(t)): {f"x{d}": f for d, f in by.items()} for t, by in freqs.items()
        }
        docs = [f"x{d}" for d in index.docs]
        est2 = estimate_k(matrix_pipeline(trim(ingest(records_from_freqs(renamed, docs))))["C"])
        assert est2.trace == pytest.approx(est.trace, abs=1e-9)
        assert est2.k == est.k

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            index, freqs = random_index(rng, int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            mats = matrix_pipeline(keep_all(index))
            tokens = sorted(freqs)
            dense_a = [[float(freqs[t].get(d, 0)) for d in index.docs] for t in tokens]
            n, r, s, c = dense_pipeline(dense_a)
            assert np.allclose(dense(mats["N"]), n, atol=1e-9)
            assert np.allclose(dense(mats["R"]), r, atol=1e-9)
            assert np.allclose(dense(mats["S"]), s, atol=1e-9)
            assert np.allclose(dense(mats["C"]), c, atol=1e-9)


class TestDump:
    def test_dump_format(self, tmp_path, example_index):
        mats = matrix_pipeline(keep_all(example_index))
        out = tmp_path / "A.tsv"
        dump_matrix(mats["A"], out)
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        first = lines[0].split("\t")
        assert first[0]  # row label
        assert all(":" in field for field in first[1:])


@st.composite
def frequency_indexes(draw):
    """An index of 1-12 tokens over 1-8 documents, some of which may hold no token.

    Frequencies reach 10**6, so the divisions and sums of the chain round.
    """
    docs = [f"d{j}" for j in range(draw(st.integers(1, 8)))]
    names = draw(st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    top = draw(st.sampled_from([3, 10**6]))
    freqs = {
        name: draw(st.dictionaries(st.sampled_from(docs), st.integers(1, top), min_size=1)) for name in names
    }
    return ingest(records_from_freqs(freqs, docs))


class TestDirectDiagonal:
    """separation_diagonal must equal the diagonal of the chain's C and of scipy's product bit for bit."""

    @staticmethod
    def check(trimmed):
        c = matrix_pipeline(trimmed)["C"]
        want = scipy_chain(trimmed)["C"].diagonal()
        direct = separation_diagonal(frequency_matrix(trimmed.index, trimmed.kept))
        assert np.array_equal(direct, want)
        assert np.array_equal(c_diagonal(c), want)
        est = estimate_k_from_diagonal(direct)
        assert est == estimate_k(c)
        assert est.trace == math.fsum(want.tolist())

    @settings(max_examples=200, deadline=None)
    @given(index=frequency_indexes())
    def test_equals_the_chain_diagonal(self, index):
        self.check(trim(index))
        self.check(keep_all(index))

    def test_worked_example(self, example_index):
        self.check(keep_all(example_index))
        assert estimate_k_from_diagonal(
            separation_diagonal(frequency_matrix(example_index, example_index.tokens()))
        ).trace == pytest.approx(EXACT_TRACE, abs=1e-12)

    def test_criterion_10_generator(self):
        rng = np.random.default_rng(1010)
        freqs = structured_freqs(rng, n_tokens=10_000, n_docs=2_000, n_topics=100)
        self.check(trim(ingest(records_from_freqs(freqs, [f"d{j:04d}" for j in range(2_000)]))))

    def test_holds_neither_n_nor_its_row_ids_through_the_products(self):
        # About 200k entries. Holding N and the entries' row ids beside R, S^T and their product peaks
        # near 5.1x the matrix's data bytes; dropping both first peaks near 4.1x.
        rng = np.random.default_rng(39)
        n_rows, n_docs, width = 20_000, 4_000, 10
        keys = np.unique(np.repeat(np.arange(n_rows), width) * n_docs + rng.integers(0, n_docs, n_rows * width))
        rows, indices = keys // n_docs, keys % n_docs
        a = FrequencyMatrix(rng.integers(1, 40, len(keys)).astype(np.float64), indices,
                            np.searchsorted(rows, np.arange(n_rows + 1)), n_docs)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            separation_diagonal(a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(a.data) > 190_000
        assert peak < 4.5 * a.data.nbytes


class TestFrequencyMatrix:
    def test_matches_the_chain_A(self, example_index):
        f = frequency_matrix(example_index, example_index.tokens())
        a = scipy_chain(keep_all(example_index))["A"]
        assert np.array_equal(f.data, a.data)
        assert np.array_equal(f.indices, a.indices)
        assert np.array_equal(f.indptr, a.indptr)
        assert (f.n_rows, f.n_docs) == a.shape

    @given(index=frequency_indexes(), data=st.data())
    def test_rows_equal_a_matrix_built_over_those_tokens(self, index, data):
        tokens = index.tokens()
        rows = data.draw(st.lists(st.integers(0, len(tokens) - 1), max_size=len(tokens)))
        got = frequency_matrix(index, tokens).rows(rows)
        want = frequency_matrix(index, [tokens[i] for i in rows])
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.n_docs == want.n_docs == len(index.docs)


class TestAgainstScipyChain:
    """Each of the five matrices' indptr, indices and data equal the scipy chain's bit for bit."""

    @staticmethod
    def check(trimmed):
        mats, want = matrix_pipeline(trimmed), scipy_chain(trimmed)
        for name in ("A", "N", "R", "S", "C"):
            assert_same_csr(mats[name], want[name])

    def test_worked_example(self, example_index):
        self.check(keep_all(example_index))

    def test_mini_corpus(self, mini_corpus_dir):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        self.check(trim(index))
        self.check(keep_all(index))

    def test_structured_freqs(self):
        rng = np.random.default_rng(36)
        for _ in range(3):
            freqs = structured_freqs(rng, n_tokens=3_000, n_docs=600, n_topics=30)
            self.check(trim(ingest(records_from_freqs(freqs, [f"d{j:04d}" for j in range(600)]))))


# a and b lead with no pair; c expands to 5 entries alone; d and e share no document with the centers
BLOCK_FREQS = {
    b"a": {"d0": 1, "d1": 2},
    b"b": {"d1": 3},
    b"c": {"d2": 4, "d3": 5, "d4": 6},
    b"d": {"d0": 2, "d6": 1},
    b"e": {"d6": 8},
    b"m": {"d2": 7, "d3": 1, "d4": 2, "d5": 3},
    b"n": {"d2": 1, "d3": 9, "d5": 4},
    b"z": {"d5": 2},
}
CENTER_ROWS = [5, 6, 7]


class TestPairBlocks:
    """cooccurring_pairs gives the same pairs, sums and C in blocks of any size as in one block."""

    ONE_BLOCK = 1 << 40

    @staticmethod
    def expand(monkeypatch, block, a, b):
        monkeypatch.setattr(matrices, "_PAIR_BLOCK", block)
        return cooccurring_pairs(a, b.transpose(), sums=True)

    def check(self, monkeypatch, a, b):
        want = self.expand(monkeypatch, self.ONE_BLOCK, a, b)
        oracle = product_pairs(a, b)
        assert np.array_equal(want[0], oracle[0]) and np.array_equal(want[1], oracle[1])
        for block in (1, 3):
            got = self.expand(monkeypatch, block, a, b)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        return want

    @pytest.fixture
    def freq(self):
        index = ingest(records_from_freqs(BLOCK_FREQS))
        return frequency_matrix(index, index.tokens())

    def test_leading_rows_without_pairs_and_a_row_over_the_block(self, monkeypatch, freq):
        rows, _, _ = self.check(monkeypatch, freq, freq.rows(CENTER_ROWS))
        assert rows.min() == 2 and set(rows.tolist()) == {2, 5, 6, 7}

    def test_no_row_expands(self, monkeypatch, freq):
        rows, cols, sums = self.check(monkeypatch, freq.rows([0, 1, 3, 4]), freq.rows(CENTER_ROWS))
        assert rows.size == cols.size == sums.size == 0

    def test_product_sums(self, monkeypatch, freq):
        # F . F^T: each pair's sum of f * f over its shared documents, exact in integers
        rows, cols, sums = self.check(monkeypatch, freq, freq)
        by_doc = [BLOCK_FREQS[t] for t in sorted(BLOCK_FREQS)]
        assert sums.tolist() == [sum(f * by_doc[j].get(d, 0) for d, f in by_doc[i].items()) for i, j in zip(rows, cols)]

    @pytest.mark.parametrize("block", [1, 3])
    def test_chain_C(self, monkeypatch, block):
        rng = np.random.default_rng(3636)
        freqs = structured_freqs(rng, n_tokens=300, n_docs=60, n_topics=6)
        trimmed = trim(ingest(records_from_freqs(freqs, [f"d{j:04d}" for j in range(60)])))
        want = matrix_pipeline(trimmed)["C"]
        monkeypatch.setattr(matrices, "_PAIR_BLOCK", block)
        got = matrix_pipeline(trimmed)["C"]
        for name in ("indptr", "indices", "data"):
            assert getattr(got.mat, name).tobytes() == getattr(want.mat, name).tobytes()
        assert_same_csr(got, scipy_chain(trimmed)["C"])
