"""The three artifact formats: read(write(x)) == x, each writer returns its file's sha256, and the posting
maps every builder holds."""
import gc
import hashlib
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust import clustering
from cipherclust.cli import _validate_artifacts
from cipherclust.clustering import Cluster, ClusterSet, cluster_index, distribute, read_clusters, write_clusters
from cipherclust.config import PipelineConfig
from cipherclust.crypto import IdentityTokenCodec, token_to_b64
from cipherclust.index import IndexDataError, build_index_from_corpus, ingest, read_index, write_index
from cipherclust.search import (
    Abstracts, build_abstracts, check_pairing, prune, read_abstracts, search, write_abstracts,
)

from conftest import posting_tuples, random_index, records_from_freqs

# any character but the TSV / posting separators, U+2028 and U+0085 included
doc_ids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r:,"),
    min_size=1, max_size=6,
)
tokens = st.binary(min_size=1, max_size=8)


@st.composite
def indexes(draw):
    """An index ingested from records of which some may hold no posting, as a stopword-only document does."""
    docs = draw(st.lists(doc_ids, min_size=1, max_size=6, unique=True))
    token_list = draw(st.lists(tokens, min_size=1, max_size=10, unique=True))
    freqs = {
        token: draw(st.dictionaries(st.sampled_from(docs), st.integers(1, 10**6), min_size=1, max_size=len(docs)))
        for token in token_list
    }
    return ingest(records_from_freqs(freqs, docs))


@st.composite
def cluster_sets(draw):
    """Any partition of an index's tokens, each part with one of its tokens as center."""
    index = draw(indexes())
    token_list = index.tokens()
    labels = draw(st.lists(st.integers(0, len(token_list) - 1), min_size=len(token_list), max_size=len(token_list)))
    parts = [
        tuple(t for t, label in zip(token_list, labels) if label == part)
        for part in sorted(set(labels))
    ]
    clusters = tuple(Cluster(center=draw(st.sampled_from(part)), tokens=part) for part in parts)
    return ClusterSet(clusters=clusters, index=index, k_requested=len(clusters))


@st.composite
def abstract_maps(draw):
    """Up to five abstracts, their tokens drawn in any cluster order; no token is in two of them."""
    n = draw(st.integers(0, 5))
    token_list = draw(st.lists(tokens, max_size=6 * n, unique=True))
    owners = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=len(token_list), max_size=len(token_list)))
    freqs = draw(st.lists(st.integers(1, 10**6), min_size=len(token_list), max_size=len(token_list)))
    return Abstracts(n, dict(zip(token_list, freqs)), dict(zip(token_list, owners)))


def abstract_entries(abstracts):
    """Each abstract's (token, frequency) entries in order, as the file lists them."""
    return [
        [(t, abstracts.frequency[t]) for t, cid in abstracts.cluster.items() if cid == i] for i in range(abstracts.k)
    ]


class TestRoundTrip:
    @settings(deadline=None)
    @given(index=indexes())
    def test_index(self, tmp_path_factory, index):
        path = tmp_path_factory.getbasetemp() / "index.tsv"
        assert write_index(index, path) == hashlib.sha256(path.read_bytes()).hexdigest()
        again = read_index(path)
        assert again == index and again.docs == index.docs
        assert posting_tuples(again) == posting_tuples(index)

    @settings(deadline=None)
    @given(cluster_set=cluster_sets())
    def test_clusters(self, tmp_path_factory, cluster_set):
        path = tmp_path_factory.getbasetemp() / "clusters.jsonl"
        assert write_clusters(cluster_set, path) == hashlib.sha256(path.read_bytes()).hexdigest()
        again = read_clusters(path)
        assert again == cluster_set and again.index.docs == cluster_set.index.docs
        assert posting_tuples(again.index) == posting_tuples(cluster_set.index)

    @settings(deadline=None)
    @given(abstracts=abstract_maps())
    def test_abstracts(self, tmp_path_factory, abstracts):
        path = tmp_path_factory.getbasetemp() / "abstracts.jsonl"
        assert write_abstracts(abstracts, path) == hashlib.sha256(path.read_bytes()).hexdigest()
        again = read_abstracts(path)
        assert again == abstracts and abstract_entries(again) == abstract_entries(abstracts)


class TestPostingsLeaveTheCollector:
    """Posting maps are dicts of str and int, which the collector never tracks, not even at first."""

    def test_ingest_read_index_and_read_clusters(self, tmp_path):
        built, _ = random_index(np.random.default_rng(5), 300, 40)
        write_index(built, tmp_path / "index.tsv")
        write_clusters(distribute(built, built.tokens()[:5]), tmp_path / "clusters.jsonl")
        indexes = {
            "ingest": built,
            "read_index": read_index(tmp_path / "index.tsv"),
            "read_clusters": read_clusters(tmp_path / "clusters.jsonl").index,
        }
        for name, index in indexes.items():
            maps = list(index.entries.values())
            assert len(maps) == 300 and {type(postings) for postings in maps} == {dict}, name
            assert [postings for postings in maps if gc.is_tracked(postings)] == [], name


class TestPostingsInDocumentOrder:
    """Every builder holds each posting map in ascending document id order, whatever order its
    input gave. Dict equality ignores order, so these compare the maps' items as sequences."""

    @staticmethod
    def built(base, records, index_text, clusters_text):
        (base / "index.tsv").write_text(index_text, encoding="utf-8")
        (base / "clusters.jsonl").write_text(clusters_text, encoding="utf-8")
        return {
            "ingest": ingest(records),
            "read_index": read_index(base / "index.tsv"),
            "read_clusters": read_clusters(base / "clusters.jsonl").index,
        }

    @staticmethod
    def shuffled(index, rnd) -> tuple[list, str, str]:
        """index's ingest records, index.tsv text and clusters.jsonl text (one cluster), every list
        of documents and of postings in rnd's order."""
        pairs = {token: rnd.sample(list(ps.items()), len(ps)) for token, ps in index.entries.items()}
        by_doc: dict[str, list] = {}
        for token, token_pairs in pairs.items():
            for doc, freq in token_pairs:
                by_doc.setdefault(doc, []).append((token, freq))
        records = rnd.sample(list(by_doc.items()), len(by_doc))
        index_text = "".join(
            f"{token_to_b64(token)}\t" + ",".join(f"{doc}:{freq}" for doc, freq in token_pairs) + "\n"
            for token, token_pairs in pairs.items()
        )
        tokens = [{"t": token_to_b64(token), "postings": token_pairs} for token, token_pairs in pairs.items()]
        cluster = {"id": 0, "center": tokens[0]["t"], "tokens": tokens}
        return records, index_text, json.dumps(cluster, separators=(",", ":")) + "\n"

    def test_postings_listed_out_of_order(self, tmp_path):
        records = [("d3", [(b"T", 1)]), ("d1", [(b"T", 2), (b"U", 4)]), ("d2", [(b"T", 3)])]
        index_text = "VA==\td3:1,d1:2,d2:3\nVQ==\td1:4\n"
        clusters_text = '{"id":0,"center":"VA==","tokens":[{"t":"VA==","postings":[["d2",3],["d3",1],["d1",2]]},' \
                        '{"t":"VQ==","postings":[["d1",4]]}]}\n'
        for name, index in self.built(tmp_path, records, index_text, clusters_text).items():
            assert list(index.entries[b"T"].items()) == [("d1", 2), ("d2", 3), ("d3", 1)], name
            assert list(index.entries[b"U"].items()) == [("d1", 4)], name

    @settings(deadline=None)
    @given(index=indexes(), rnd=st.randoms(use_true_random=False))
    def test_any_input_order(self, tmp_path_factory, index, rnd):
        want = {token: tuple(sorted(postings.items())) for token, postings in index.entries.items()}
        for name, got in self.built(tmp_path_factory.getbasetemp(), *self.shuffled(index, rnd)).items():
            assert all(list(postings) == sorted(postings) for postings in got.entries.values()), name
            assert posting_tuples(got) == want, name


class TestPostingMapsAreReadOnly:
    """Posting maps are plain dicts, so nothing downstream of a builder may change one."""

    def test_no_stage_changes_a_posting_map(self, tmp_path, mini_corpus_dir):
        config = PipelineConfig()
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), config.keywords_per_doc)
        built, _ = cluster_index(index)
        paths = [tmp_path / name for name in ("index.tsv", "clusters.jsonl", "abstracts.jsonl")]
        write_index(index, paths[0])
        write_clusters(built, paths[1])
        loaded = read_clusters(paths[1])
        snapshots = [(held, posting_tuples(held)) for held in (index, loaded.index)]
        abstracts = build_abstracts(built, config.abstract_size)
        write_abstracts(abstracts, paths[2])
        tokens = index.tokens()
        queries = [tokens[i:i + 4] for i in range(0, len(tokens), 3)]

        def serve(cluster_set):
            check_pairing(abstracts, cluster_set, paths[2])
            for query in queries:
                search(query, cluster_set, prune(query, abstracts, config.prune_width), config.cutoff)
                search(query, cluster_set, range(cluster_set.k_used), config.cutoff)

        serve(built)
        serve(loaded)
        with pytest.MonkeyPatch.context() as mp:  # every list of 2 or more postings gets a view
            mp.setattr(clustering, "LONG_LIST_POSTINGS", 2)
            viewed = ClusterSet(clusters=loaded.clusters, index=loaded.index, k_requested=loaded.k_used)
            assert viewed.views
            serve(viewed)
        _validate_artifacts(index, *paths, config)
        for held, snapshot in snapshots:
            assert posting_tuples(held) == snapshot


def test_a_loaded_cluster_set_holds_few_bytes_per_posting(tmp_path):
    # 2,000 documents of up to 8 tokens drawn Zipf-like from 2,000 (about 14,800 postings over
    # 1,700 tokens) in 20 clusters. Everything the loaded set holds is counted: posting maps,
    # document ids, tokens, clusters and the search maps. Here 64 bytes a posting; 93 with
    # postings held as tuples of (doc, frequency) tuples.
    rng = random.Random(7)
    vocabulary = [f"tok{i:05d}".encode() for i in range(2000)]
    weights = [1 / rank for rank in range(1, len(vocabulary) + 1)]
    index = ingest(
        (f"doc{j:05d}", [(t, rng.randint(1, 9)) for t in sorted(set(rng.choices(vocabulary, weights, k=8)))])
        for j in range(2000)
    )
    n_postings = sum(map(len, index.entries.values()))
    assert n_postings >= 10_000
    tokens = index.tokens()
    write_clusters(ClusterSet(clusters=tuple(Cluster(center=tokens[i], tokens=tuple(tokens[i::20]))
                                             for i in range(20)), index=index, k_requested=20),
                   tmp_path / "clusters.jsonl")
    del index
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = read_clusters(tmp_path / "clusters.jsonl")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loaded.index.token_count == len(tokens)
    assert held / n_postings < 78


class TestOneSpellingPerToken:
    """YWF= decodes to b"aa" as YWE= does, as base64 decoding ignores a padded last character's unused bits;
    every reader refuses the spelling no writer writes, naming path:lineno, so a file loads only as written."""

    def test_index(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("YWE=\td1:1\nYWF=\td2:1\n")
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(path))}:2: malformed index line$"):
            read_index(path)

    @pytest.mark.parametrize("old, fault", [
        ('"center":"YWE="', "malformed cluster line"), ('"t":"YWE="', "malformed token entry"),
    ])
    def test_clusters(self, tmp_path, old, fault):
        index = ingest(records_from_freqs({b"aa": {"d1": 1}, b"bb": {"d2": 2}}, ["d1", "d2"]))
        path = tmp_path / "clusters.jsonl"
        write_clusters(ClusterSet(clusters=(Cluster(center=b"bb", tokens=(b"bb",)),
                                            Cluster(center=b"aa", tokens=(b"aa",))), index=index, k_requested=2), path)
        assert path.read_text().count(old) == 1
        path.write_text(path.read_text().replace(old, old.replace("YWE=", "YWF=")))
        where = re.escape(f"{path}:2: {fault}: 'YWF=' is not canonical base64")
        with pytest.raises(IndexDataError, match=f"^{where}$"):
            read_clusters(path)

    def test_abstracts(self, tmp_path):
        path = tmp_path / "abstracts.jsonl"
        path.write_text('{"cluster":0,"entries":[["YmI=",2]]}\n{"cluster":1,"entries":[["YWF=",1]]}\n')
        where = re.escape(f"{path}:2: malformed abstract line: 'YWF=' is not canonical base64")
        with pytest.raises(IndexDataError, match=f"^{where}$"):
            read_abstracts(path)
