import base64
import gc
import json
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust.clustering import (
    Cluster,
    ClusterSet,
    ClusteringError,
    choose_centers,
    choose_centers_from_diagonal,
    cluster_index,
    distribute,
    read_clusters,
    write_clusters,
)
from cipherclust.crypto import IdentityTokenCodec, token_to_b64
from cipherclust.index import IndexDataError, build_index_from_corpus, ingest, trim
from cipherclust.matrices import cooccurring_pairs, estimate_k, frequency_matrix, matrix_pipeline

from conftest import (
    EXAMPLE_FREQS, dense, doc_sets, keep_all, posting_tuples, random_index, records_from_freqs, structured_freqs,
)
from oracles import (
    algorithm_centers,
    assignment_matches,
    contribution,
    cooccurrence,
    dense_distribute,
    product_pairs,
    relatedness_scores,
)

R_VJHZ_UH5W = -1.74591957360867  # frozen term-by-term evaluation over the example


def example_C(example_index):
    return matrix_pipeline(keep_all(example_index))["C"]


def select(k, freqs, diag):
    """choose_centers_from_diagonal over every token of freqs, checked against oracles.algorithm_centers.

    freqs maps token -> {doc: frequency}, diag token -> c_ii.
    """
    index = ingest(records_from_freqs(freqs))
    tokens = index.tokens()
    got = choose_centers_from_diagonal(
        k, tokens, np.array([diag[t] for t in tokens]), frequency_matrix(index, tokens)
    )
    assert got == algorithm_centers(k, diag, doc_sets(index))
    return got


def spread_over(*docs):
    return {doc: 1 for doc in docs}


class TestUniqueness:
    """Admission: a token enters when more of its documents are new than already covered."""

    def test_empty_coverage_is_infinite(self):
        # disjoint tokens: nothing is covered when each is visited, so every omega is infinite and
        # the ranking is by degree, then bytes, whatever the separation factors
        freqs = {b"a": spread_over("d1", "d2", "d3"), b"b": spread_over("d4"), b"c": spread_over("d5")}
        assert select(3, freqs, {b"a": 0.1, b"b": 0.9, b"c": 0.5}) == [b"a", b"b", b"c"]

    def test_ratio(self):
        # b: one of three documents covered, omega = 2, admitted with a finite score
        freqs = {b"a": spread_over("d1", "d2", "d3", "d4"), b"b": spread_over("d4", "d5", "d6")}
        assert select(2, freqs, {b"a": 0.5, b"b": 0.5}) == [b"a", b"b"]

    def test_ratio_of_one_is_not_admitted(self):
        # b: one document covered, one new, omega = 1
        freqs = {b"a": spread_over("d1", "d2"), b"b": spread_over("d2", "d3")}
        assert select(2, freqs, {b"a": 0.5, b"b": 0.5}) == [b"a"]

    def test_fully_covered_is_zero(self):
        freqs = {b"a": spread_over("d1", "d2", "d3"), b"b": spread_over("d1", "d2")}
        assert select(2, freqs, {b"a": 0.5, b"b": 0.5}) == [b"a"]

    def test_unknown_token(self, example_index):
        # C's tokens must be the index's
        other = ingest([("d1", [(b"zzz", 1)])])
        with pytest.raises(KeyError):
            choose_centers(1, matrix_pipeline(keep_all(other))["C"], example_index)


class TestCentrality:
    """Ranking: phi = omega * c_ii * (1 - c_ii), with an infinite omega giving inf, or 0 at no spread."""

    def test_plain_product(self):
        # u covers d3, d4; w: omega 3, spread 0.1875, phi 0.5625; t: omega 2, spread 0.25, phi 0.5.
        # By spread alone t would lead.
        freqs = {
            b"u": spread_over("d3", "d4", "d5", "d6"),
            b"w": spread_over("d4", "d7", "d8", "d9"),
            b"t": spread_over("d1", "d2", "d3"),
        }
        assert select(3, freqs, {b"u": 0.5, b"w": 0.25, b"t": 0.5}) == [b"u", b"w", b"t"]

    @pytest.mark.parametrize("c_ii", [0.0, 1.0])
    def test_boundary_separation_kills_score(self, c_ii):
        # p (infinite omega) and s (omega 2) both score phi = 0 and rank after q's finite phi = 0.5
        freqs = {
            b"p": spread_over("d1", "d2", "d3"),
            b"q": spread_over("d3", "d4", "d5"),
            b"s": spread_over("d1", "d7", "d8"),
            b"r": spread_over("d6"),
        }
        diag = {b"p": c_ii, b"q": 0.5, b"s": c_ii, b"r": 0.3}
        assert select(4, freqs, diag) == [b"r", b"q", b"p", b"s"]
        assert select(2, freqs, diag) == [b"r", b"q"]

    def test_infinite_uniqueness(self):
        # z has a tiny spread but an infinite omega: it outranks y's finite phi despite its degree
        freqs = {
            b"x": spread_over("d1", "d2", "d3", "d4"),
            b"y": spread_over("d4", "d5", "d6"),
            b"z": spread_over("d7"),
        }
        assert select(3, freqs, {b"x": 0.5, b"y": 0.5, b"z": 0.01}) == [b"x", b"z", b"y"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_transliteration(self, data):
        tokens = data.draw(st.lists(st.binary(min_size=1, max_size=2), min_size=1, max_size=10, unique=True))
        n_docs = data.draw(st.integers(1, 8))
        freqs = {
            t: data.draw(st.dictionaries(st.sampled_from([f"d{j}" for j in range(n_docs)]),
                                         st.integers(1, 9), min_size=1))
            for t in tokens
        }
        c_ii = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
        diag = {t: data.draw(c_ii) for t in tokens}
        select(data.draw(st.integers(1, len(tokens) + 1)), freqs, diag)


class TestChooseCenters:
    def test_disjoint_tokens_all_become_centers(self):
        records = [(f"d{i}", [(f"t{i}".encode(), 2)]) for i in range(5)]
        index = ingest(records)
        c = matrix_pipeline(keep_all(index))["C"]
        centers = choose_centers(5, c, index)
        assert sorted(centers) == sorted(index.tokens())

    def test_k_one_returns_single_center(self, example_index):
        centers = choose_centers(1, example_C(example_index), example_index)
        assert len(centers) == 1

    def test_worked_example_matches_transliteration(self, example_index):
        c = example_C(example_index)
        diag = {t: float(v) for t, v in zip(c.row_labels, dense(c).diagonal())}
        want = algorithm_centers(3, diag, doc_sets(example_index))
        got = choose_centers(3, c, example_index)
        assert got == want == [b"Uh5W"]  # the coverage gate admits only one

    def test_never_more_than_k(self, example_index):
        c = example_C(example_index)
        for k in (1, 2, 3, 10):
            assert len(choose_centers(k, c, example_index)) <= k

    def test_k_must_be_positive(self, example_index):
        with pytest.raises(ClusteringError):
            choose_centers(0, example_C(example_index), example_index)

    def test_matches_transliteration_on_random_indexes(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            index, _ = random_index(rng, int(rng.integers(2, 30)), int(rng.integers(2, 15)))
            c = matrix_pipeline(keep_all(index))["C"]
            diag = {t: float(v) for t, v in zip(c.row_labels, dense(c).diagonal())}
            for k in (1, 3, index.token_count):
                assert choose_centers(k, c, index) == algorithm_centers(k, diag, doc_sets(index))


class TestRelatednessMetrics:
    def test_contribution_example(self):
        assert contribution(EXAMPLE_FREQS, b"Uh5W", "d1") == pytest.approx(30 / 97, abs=1e-12)

    def test_contribution_single_document(self):
        assert contribution({b"t": {"d1": 8}}, b"t", "d1") == 1.0

    def test_contribution_absent_doc(self):
        assert contribution(EXAMPLE_FREQS, b"Uh5W", "d2") == 0.0

    def test_cooccurrence_example(self):
        got = cooccurrence(EXAMPLE_FREQS, b"Uh5W", "d1", b"vJHZ")
        assert got == pytest.approx(82 / 247, abs=1e-12)

    def test_cooccurrence_both_absent(self):
        assert cooccurrence(EXAMPLE_FREQS, b"Uh5W", "d2", b"/Vdn") == 0.0

    def test_cooccurrence_self_single_doc(self):
        assert cooccurrence({b"t": {"d1": 8}}, b"t", "d1", b"t") == 1.0

    def test_relatedness_frozen_value(self):
        assert relatedness_scores(EXAMPLE_FREQS, b"Uh5W", [b"vJHZ"])[b"vJHZ"] == pytest.approx(
            R_VJHZ_UH5W, abs=1e-9
        )

    def test_relatedness_max_is_zero(self):
        freqs = {b"t": {"d1": 3}, b"g": {"d1": 5}}
        assert relatedness_scores(freqs, b"t", [b"g"])[b"g"] == 0.0

    def test_disjoint_center_scores_lower(self):
        freqs = {b"t": {"d1": 2, "d2": 2}, b"same": {"d1": 2, "d2": 2}, b"none": {"d3": 4}}
        scores = relatedness_scores(freqs, b"t", [b"none", b"same"])
        assert scores[b"none"] < scores[b"same"]

    def test_relatedness_never_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            _, freqs = random_index(rng, 8, 5)
            tokens = sorted(freqs)
            for t in tokens[:4]:
                for g in tokens[:4]:
                    if t != g:
                        assert relatedness_scores(freqs, t, [g])[g] <= 1e-12


class TestDistribute:
    def test_single_center_takes_everything(self, example_index):
        cs = distribute(example_index, [b"Uh5W"])
        assert cs.k_used == 1
        assert sorted(cs.clusters[0].tokens) == example_index.tokens()

    def test_cooccurring_token_follows_its_center(self):
        idx = ingest(
            [("d1", [(b"c1", 5), (b"t", 2)]), ("d2", [(b"c2", 5)])]
        )
        cs = distribute(idx, [b"c1", b"c2"])
        by_center = {c.center: c.tokens for c in cs.clusters}
        assert b"t" in by_center[b"c1"]
        assert by_center[b"c2"] == (b"c2",)

    def test_worked_example_two_center_assignment(self, example_index):
        cs = distribute(example_index, [b"Uh5W", b"vJHZ"])
        by_center = {c.center: set(c.tokens) for c in cs.clusters}
        # frozen against the brute-force relatedness comparison
        assert by_center[b"Uh5W"] == {b"Uh5W", b"/Vdn", b"tH7c"}
        assert by_center[b"vJHZ"] == {b"vJHZ", b"oR1r"}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            index, freqs = random_index(rng, int(rng.integers(3, 40)), int(rng.integers(2, 20)))
            tokens = index.tokens()
            n_centers = int(rng.integers(1, min(4, len(tokens)) + 1))
            centers = [tokens[i] for i in rng.choice(len(tokens), size=n_centers, replace=False)]
            cs = distribute(index, centers)
            got = {
                token: cluster.center
                for cluster in cs.clusters
                for token in cluster.tokens
                if token != cluster.center
            }
            for token, center in got.items():
                assert assignment_matches(freqs, centers, token, center)

    def test_partition_property(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            index, _ = random_index(rng, int(rng.integers(2, 25)), int(rng.integers(1, 12)))
            tokens = index.tokens()
            centers = tokens[: int(rng.integers(1, len(tokens) + 1))]
            cs = distribute(index, centers)
            seen = [token for cluster in cs.clusters for token in cluster.tokens]
            assert len(seen) == len(set(seen)) == index.token_count
            assert set(seen) == set(tokens)

    def test_scale_invariance_of_assignments(self):
        rng = np.random.default_rng(88)
        index, freqs = random_index(rng, 20, 10)
        centers = index.tokens()[:3]
        base = distribute(index, centers)
        for factor in (2, 10, 1000):
            scaled = {t: {d: f * factor for d, f in by.items()} for t, by in freqs.items()}
            cs = distribute(ingest(records_from_freqs(scaled, index.docs)), centers)
            assert [c.tokens for c in cs.clusters] == [c.tokens for c in base.clusters]

    def test_rejects_bad_centers(self, example_index):
        with pytest.raises(ClusteringError):
            distribute(example_index, [])
        with pytest.raises(ClusteringError):
            distribute(example_index, [b"missing"])
        with pytest.raises(ClusteringError):
            distribute(example_index, [b"Uh5W", b"Uh5W"])


@st.composite
def distribute_cases(draw):
    """(token -> {doc: frequency}, centers) in four shapes.

    random: any postings, any centers. disjoint: each center alone in its own
    document with total T or T + 1 (equal and one-apart totals; T = 10**15
    makes log ties between different totals likely), no other token sharing
    a document with a center. shared: one document holds every token, so
    every center co-occurs with every token. all-centers: nothing to score.
    """
    shape = draw(st.sampled_from(["random", "disjoint", "shared", "all-centers"]))
    names = draw(st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    docs = [f"d{j}" for j in range(draw(st.integers(1, 6)))]
    postings = st.dictionaries(st.sampled_from(docs), st.integers(1, 4), min_size=1)
    freqs = {name: draw(postings) for name in names}
    if shape == "all-centers":
        return freqs, names
    n_centers = draw(st.integers(1, len(names)))
    centers = draw(st.permutations(names))[:n_centers]
    if shape == "disjoint":
        base = draw(st.sampled_from([3, 10**15]))
        for i, center in enumerate(centers):
            freqs[center] = {f"c{i}": base + draw(st.integers(0, 1))}
    elif shape == "shared":
        for name in names:
            freqs[name]["all"] = draw(st.integers(1, 4))
    return freqs, centers


class TestDistributeAgainstDenseScorer:
    """distribute skips disjoint pairs; the clusters must equal scoring every pair."""

    @staticmethod
    def check(index, centers):
        dense = dense_distribute(posting_tuples(index), index.docs, centers)
        want = tuple(Cluster(center=c, tokens=t) for c, t in dense)
        assert distribute(index, centers).clusters == want

    @settings(max_examples=300, deadline=None)
    @given(case=distribute_cases())
    def test_equal_cluster_sets(self, case):
        freqs, centers = case
        self.check(ingest(records_from_freqs(freqs)), centers)

    # t ties the three disjoint centers although their totals differ; the smallest bytes have the
    # largest total, or the smallest, so the T_c levels meet the winner last or first
    @pytest.mark.parametrize("order", [b"zma", b"amz"], ids=["winner-last", "winner-first"])
    def test_tie_between_different_totals_goes_to_the_smaller_ciphertext(self, order):
        idx = ingest([("d0", [(b"t", 2)])] + [(f"d{i + 1}", [(bytes([c]), 10**15 + i)]) for i, c in enumerate(order)])
        freqs = {t: dict(postings) for t, postings in idx.entries.items()}
        assert len(set(relatedness_scores(freqs, b"t", [b"z", b"m", b"a"]).values())) == 1
        self.check(idx, [b"z", b"m", b"a"])
        assert distribute(idx, [b"z", b"m", b"a"]).clusters[0].tokens == (b"a", b"t")

    def test_criterion_10_generator(self):
        rng = np.random.default_rng(1010)
        freqs = structured_freqs(rng, n_tokens=10_000, n_docs=2_000, n_topics=100)
        index = ingest(records_from_freqs(freqs, [f"d{j:04d}" for j in range(2_000)]))
        c = matrix_pipeline(trim(index))["C"]
        centers = choose_centers(estimate_k(c).k, c, index)
        assert len(centers) > 100
        self.check(index, centers)


class TestCooccurringPairs:
    """The expansion over F_c's transpose must find exactly the nonzeros of the boolean F . F_c^T."""

    @staticmethod
    def check(index, centers):
        tokens = index.tokens()
        freq = frequency_matrix(index, tokens)
        center_freq = freq.rows([tokens.index(c) for c in sorted(centers)])
        got = cooccurring_pairs(freq, center_freq.transpose())
        want = product_pairs(freq, center_freq)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(case=distribute_cases())
    def test_equal_to_the_sparse_product(self, case):
        freqs, centers = case
        self.check(ingest(records_from_freqs(freqs)), centers)

    def test_criterion_10_generator(self):
        rng = np.random.default_rng(1010)
        freqs = structured_freqs(rng, n_tokens=10_000, n_docs=2_000, n_topics=100)
        index = ingest(records_from_freqs(freqs, [f"d{j:04d}" for j in range(2_000)]))
        self.check(index, index.tokens()[::37])


class TestClusterIndexAndFiles:
    def test_auto_k_pipeline(self, example_index):
        cs, est = cluster_index(example_index, k="auto")
        # trimming keeps 3 of 5 tokens; exact oracle trace over the kept
        # submatrix is 1.870690690435894
        assert est is not None
        assert est.trace == pytest.approx(1.870690690435894, abs=1e-9)
        assert est.k == 2 and est.m == 3
        assert cs.k_used <= est.k
        assert set(cs.cluster_of) == set(example_index.tokens())

    def test_fixed_k_still_returns_estimate(self, example_index):
        cs, est = cluster_index(example_index, k=2)
        assert est == cluster_index(example_index, k="auto")[1]
        assert cs.k_requested == 2

    def test_round_trip(self, tmp_path, example_index):
        cs, _ = cluster_index(example_index, k="auto")
        path = tmp_path / "clusters.jsonl"
        write_clusters(cs, path)
        again = read_clusters(path)
        assert [(c.center, c.tokens) for c in again.clusters] == [
            (c.center, c.tokens) for c in cs.clusters
        ]
        assert posting_tuples(again.index) == posting_tuples(example_index)

    def test_read_clusters_builds_the_search_maps_as_it_loads(self, tmp_path, example_index):
        # every set has cluster_of from the start; a built set makes its views on first use, which
        # a build never makes, and a loaded one has them
        cs, _ = cluster_index(example_index, k="auto")
        assert "cluster_of" in vars(cs) and "views" not in vars(cs)
        path = tmp_path / "clusters.jsonl"
        write_clusters(cs, path)
        again = read_clusters(path)
        assert {"cluster_of", "views"} <= vars(again).keys()
        assert again.cluster_of == cs.cluster_of and again.views == cs.views == {}

    def test_holds_one_token_document_matrix_at_a_time(self, mini_corpus_dir, monkeypatch):
        # diag(C) and the centers read the kept tokens' matrix, which is dead before distribute builds
        # the matrix of every token
        from cipherclust import matrices

        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        n_kept, n_tokens = len(trim(index).kept), len(index.tokens())
        assert n_kept < n_tokens
        built, seen = [], []  # (rows, weak reference) per matrix built; the calls, in order
        build, diagonal = matrices.frequency_matrix, matrices.separation_diagonal

        def building(index, tokens):
            seen.append(("matrix", len(tokens), [rows for rows, ref in built if ref() is not None]))
            freq = build(index, tokens)
            built.append((freq.n_rows, weakref.ref(freq)))
            return freq

        def diagonal_of(a):
            seen.append(("diagonal", [rows for rows, _ in built]))
            return diagonal(a)

        monkeypatch.setattr(matrices, "frequency_matrix", building)
        monkeypatch.setattr(matrices, "separation_diagonal", diagonal_of)
        cluster_index(index, k="auto")
        assert seen == [("matrix", n_kept, []), ("diagonal", [n_kept]), ("matrix", n_tokens, [])]

    def test_serialization_is_deterministic(self, tmp_path, example_index):
        cs, _ = cluster_index(example_index, k="auto")
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_clusters(cs, p1)
        write_clusters(cluster_index(example_index, k="auto")[0], p2)
        assert p1.read_bytes() == p2.read_bytes()



@pytest.fixture
def mini_clusters_file(tmp_path, mini_corpus_dir):
    index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
    path = tmp_path / "clusters.jsonl"
    write_clusters(cluster_index(index, k="auto")[0], path)
    return path


def _edit_line(path, lineno: int, edit) -> None:
    """Apply edit to the cluster object on one (1-based) line and write the file back."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


class TestReadClustersRejectsDuplicates:
    @pytest.mark.parametrize("lineno", [1, 2], ids=["same-line", "other-line"])
    def test_token_listed_twice(self, mini_clusters_file, lineno):
        entry = json.loads(mini_clusters_file.read_text().splitlines()[0])["tokens"][0]
        # the copy carries other frequencies, which a merging reader would hide
        copy = {"t": entry["t"], "postings": [[d, f + 1] for d, f in entry["postings"]]}
        _edit_line(mini_clusters_file, lineno, lambda obj: obj["tokens"].append(copy))
        where = re.escape(f"{mini_clusters_file}:{lineno}:")
        with pytest.raises(IndexDataError, match=where + ".*listed twice"):
            read_clusters(mini_clusters_file)

    def test_document_listed_twice_in_one_posting_list(self, mini_clusters_file):
        def repeat_first_posting(obj):
            postings = obj["tokens"][0]["postings"]
            postings.append([postings[0][0], postings[0][1] + 3])

        _edit_line(mini_clusters_file, 2, repeat_first_posting)
        where = re.escape(f"{mini_clusters_file}:2:")
        with pytest.raises(IndexDataError, match=where + ".*lists document .* twice"):
            read_clusters(mini_clusters_file)


class TestReadClustersRejectsMalformedEntries:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda entry: entry.pop("t"),
            lambda entry: entry.pop("postings"),
            lambda entry: entry["postings"][0].__setitem__(1, "x"),
            lambda entry: entry["postings"][0].__setitem__(1, 1.5),
            lambda entry: entry["postings"][0].pop(),
            lambda entry: entry["postings"][0].__setitem__(0, 12345),
            lambda entry: entry["postings"][0].__setitem__(0, None),
            lambda entry: entry["postings"][0].__setitem__(0, "a:b"),
            lambda entry: entry["postings"][0].__setitem__(0, ""),
            lambda entry: entry["postings"][0].__setitem__(0, "a\tb"),
            lambda entry: entry["postings"][0].__setitem__(0, "a,b"),
        ],
        ids=["no-t", "no-postings", "string-frequency", "float-frequency", "short-posting",
             "integer-document", "null-document", "colon-document", "empty-document",
             "tab-document", "comma-document"],
    )
    def test_bad_token_entry(self, mini_clusters_file, edit):
        _edit_line(mini_clusters_file, 2, lambda obj: edit(obj["tokens"][0]))
        with pytest.raises(IndexDataError, match=re.escape(f"{mini_clusters_file}:2:")):
            read_clusters(mini_clusters_file)

    @pytest.mark.parametrize(
        "lineno, cid", [(1, "0"), (1, 0.0), (1, False), (1, None), (2, "1"), (2, 1.0), (2, True)]
    )
    def test_cluster_id_not_an_integer(self, mini_clusters_file, lineno, cid):
        # int() would take each of these, and on line 2 each equals 1
        _edit_line(mini_clusters_file, lineno, lambda obj: obj.__setitem__("id", cid))
        where = re.escape(f"{mini_clusters_file}:{lineno}: ")
        with pytest.raises(IndexDataError, match=f"^{where}cluster ids must be 0,1,2,... in order$"):
            read_clusters(mini_clusters_file)

    @pytest.mark.parametrize("field, fault", [("center", "malformed cluster line"), ("t", "malformed token entry")])
    def test_empty_token(self, mini_clusters_file, field, fault):
        # base64 "" decodes to b"", a token no codec makes
        _edit_line(mini_clusters_file, 2,
                   lambda obj: (obj if field == "center" else obj["tokens"][0]).__setitem__(field, ""))
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}{fault}: empty token$"):
            read_clusters(mini_clusters_file)

    def test_token_with_no_posting(self, mini_clusters_file):
        name = json.loads(mini_clusters_file.read_text().splitlines()[1])["tokens"][0]["t"]
        _edit_line(mini_clusters_file, 2, lambda obj: obj["tokens"][0].__setitem__("postings", []))
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}token {re.escape(name)} has no posting$"):
            read_clusters(mini_clusters_file)

    def test_frequency_below_one(self, mini_clusters_file):
        _edit_line(mini_clusters_file, 2, lambda obj: obj["tokens"][0]["postings"][0].__setitem__(1, 0))
        where = re.escape(f"{mini_clusters_file}:2:")
        with pytest.raises(IndexDataError, match=where + ".*frequency 0"):
            read_clusters(mini_clusters_file)

    def test_center_outside_its_cluster(self, mini_clusters_file):
        lines = mini_clusters_file.read_text().splitlines()
        foreign = json.loads(lines[0])["tokens"][-1]["t"]
        _edit_line(mini_clusters_file, 2, lambda obj: obj.__setitem__("center", foreign))
        where = re.escape(f"{mini_clusters_file}:2:")
        with pytest.raises(IndexDataError, match=where + ".*not among the cluster's tokens"):
            read_clusters(mini_clusters_file)

    def test_two_clusters_share_a_center(self, mini_clusters_file):
        first_center = json.loads(mini_clusters_file.read_text().splitlines()[0])["center"]
        _edit_line(mini_clusters_file, 2, lambda obj: obj.__setitem__("center", first_center))
        where = re.escape(f"{mini_clusters_file}:2:")
        with pytest.raises(IndexDataError, match=where + ".*not among the cluster's tokens"):
            read_clusters(mini_clusters_file)


class TestReadClustersFaultOrder:
    """Each token entry is filed as the decoder completes it: within a line its fault comes first, and an
    entry is accepted only in its line's tokens array."""

    def test_entry_fault_before_a_later_syntax_error(self, mini_clusters_file):
        name = json.loads(mini_clusters_file.read_text().splitlines()[1])["tokens"][0]["t"]
        _edit_line(mini_clusters_file, 2, lambda obj: obj["tokens"][0].__setitem__("postings", []))
        lines = mini_clusters_file.read_text().splitlines()
        lines[1] = lines[1].removesuffix("]}") + ",]}"  # a comma after the last entry
        mini_clusters_file.write_text("\n".join(lines) + "\n")
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}token {re.escape(name)} has no posting$"):
            read_clusters(mini_clusters_file)

    def test_entry_fault_before_the_line_id(self, mini_clusters_file):
        name = json.loads(mini_clusters_file.read_text().splitlines()[1])["tokens"][0]["t"]

        def no_posting_and_a_bad_id(obj):
            obj["tokens"][0]["postings"] = []
            obj["id"] = 5

        _edit_line(mini_clusters_file, 2, no_posting_and_a_bad_id)
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}token {re.escape(name)} has no posting$"):
            read_clusters(mini_clusters_file)

    def test_a_line_that_is_a_token_entry(self, mini_clusters_file):
        lines = mini_clusters_file.read_text().splitlines()
        lines[1] = json.dumps({"t": token_to_b64(b"stray"), "postings": [["d1", 1]]})
        mini_clusters_file.write_text("\n".join(lines) + "\n")
        where = re.escape(f"{mini_clusters_file}:2: ")
        fault = "malformed cluster line: byte indices must be integers or slices, not str"
        with pytest.raises(IndexDataError, match=f"^{where}{fault}$"):
            read_clusters(mini_clusters_file)

    def test_an_entry_with_an_extra_key_loads(self, mini_clusters_file):
        loaded = read_clusters(mini_clusters_file)
        _edit_line(mini_clusters_file, 2, lambda obj: obj["tokens"][0].__setitem__("note", 1))
        again = read_clusters(mini_clusters_file)
        assert again == loaded

    def test_a_decoded_entry_fault_is_not_rewrapped(self, mini_clusters_file):
        _edit_line(mini_clusters_file, 2, lambda obj: obj["tokens"][0]["postings"][0].__setitem__(0, "a\tb"))
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}document id 'a\\\\tb' contains reserved characters$"):
            read_clusters(mini_clusters_file)

    @pytest.mark.parametrize("place", ["line", "entry"])
    def test_a_token_entry_outside_the_tokens_array(self, mini_clusters_file, place):
        stray = {"t": token_to_b64(b"stray"), "postings": [["d1", 1]]}
        _edit_line(mini_clusters_file, 2,
                   lambda obj: (obj if place == "line" else obj["tokens"][0]).__setitem__("extra", stray))
        where = re.escape(f"{mini_clusters_file}:2: ")
        with pytest.raises(IndexDataError, match=f"^{where}a token entry lies outside the cluster's tokens array$"):
            read_clusters(mini_clusters_file)


def test_read_clusters_holds_one_string_per_document(mini_clusters_file):
    first = json.loads(mini_clusters_file.read_text().splitlines()[0])
    loaded = read_clusters(mini_clusters_file)
    members = {token: loaded.index.entries[token] for token in loaded.clusters[0].tokens}
    assert [(token.decode(), by_doc) for token, by_doc in members.items()] == [
        (base64.b64decode(entry["t"]).decode(), dict(map(tuple, entry["postings"])))
        for entry in first["tokens"]
    ]
    # one string per document, shared by every map of every line
    shared: dict[str, str] = {}
    entries = loaded.index.entries.values()
    assert all(shared.setdefault(doc, doc) is doc for by_doc in entries for doc in by_doc)
    assert len(shared) < sum(map(len, entries))
    _edit_line(mini_clusters_file, 2, lambda obj: obj.__setitem__("id", 5))
    with pytest.raises(IndexDataError, match=re.escape(f"{mini_clusters_file}:2: cluster ids must be")):
        read_clusters(mini_clusters_file)


def test_write_clusters_renders_one_token_entry_at_a_time(tmp_path):
    # One cluster of 120,000 postings, so one line. Building every entry's dict and posting tuples
    # before rendering the line peaks near 8x the bytes written; rendering each entry by itself holds
    # little more than the line, its pieces and its UTF-8 bytes.
    rng = random.Random(7)
    vocabulary = [f"tok{i:05d}".encode() for i in range(4000)]
    index = ingest([(f"doc{j:05d}", [(t, rng.randint(1, 99)) for t in rng.sample(vocabulary, 30)])
                    for j in range(4000)])
    tokens = index.tokens()
    cluster_set = ClusterSet(clusters=(Cluster(center=tokens[0], tokens=tuple(tokens)),), index=index, k_requested=1)
    path = tmp_path / "clusters.jsonl"
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_clusters(cluster_set, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(map(len, index.entries.values())) == 120_000
    assert peak < 4 * path.stat().st_size


def test_read_clusters_frees_each_token_entry_once_its_map_is_built(tmp_path):
    # One cluster, so one line holds all 30,000 postings, over 6,000 mostly short lists as in a text
    # corpus. Each token entry is filed as the decoder completes it, so the read holds the line and the
    # maps built so far, never the line's parse tree: it peaks near 1.5x what it keeps (decoding the
    # whole line first reads above 3x).
    rng = random.Random(5)
    vocabulary = [f"tok{i:05d}".encode() for i in range(6000)]
    index = ingest([(f"doc{j:05d}", [(t, rng.randint(1, 9)) for t in rng.sample(vocabulary, 10)])
                    for j in range(3000)])
    tokens = index.tokens()
    path = tmp_path / "clusters.jsonl"
    write_clusters(ClusterSet(clusters=(Cluster(center=tokens[0], tokens=tuple(tokens)),), index=index,
                              k_requested=1), path)
    del index
    line = path.read_text()

    def traced(fn) -> tuple[int, int]:
        """(bytes held after fn, peak bytes during fn), both above what was traced before it."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = fn()
            gc.collect()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
            del kept
            return held, peak
        finally:
            tracemalloc.stop()

    held, peak = traced(lambda: read_clusters(path))
    assert peak < 2 * held
    assert peak < 1.3 * traced(lambda: json.loads(line))[1]
