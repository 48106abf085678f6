"""The three artifact formats: read(write(x)) == x, and postings the collector can drop."""
import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust.clustering import Cluster, ClusterSet, distribute, read_clusters, write_clusters
from cipherclust.index import ingest, read_index, write_index
from cipherclust.search import Abstract, read_abstracts, write_abstracts

from conftest import random_index, records_from_freqs

# any character but the TSV / posting separators, U+2028 and U+0085 included
doc_ids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r:,"),
    min_size=1, max_size=6,
)
tokens = st.binary(min_size=1, max_size=8)


@st.composite
def indexes(draw):
    """An index whose documents all hold a posting, as every reader's index does."""
    docs = draw(st.lists(doc_ids, min_size=1, max_size=6, unique=True))
    token_list = draw(st.lists(tokens, min_size=1, max_size=10, unique=True))
    freqs = {
        token: draw(st.dictionaries(st.sampled_from(docs), st.integers(1, 10**6), min_size=1, max_size=len(docs)))
        for token in token_list
    }
    return ingest(records_from_freqs(freqs))


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
def abstract_lists(draw):
    """Up to five abstracts; no token is in two of them, as no token is in two clusters."""
    n = draw(st.integers(0, 5))
    token_list = draw(st.lists(tokens, max_size=6 * n, unique=True))
    owners = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=len(token_list), max_size=len(token_list)))
    freqs = draw(st.lists(st.integers(1, 10**6), min_size=len(token_list), max_size=len(token_list)))
    return [
        Abstract(cluster_id=cid, entries=tuple((t, f) for t, f, o in zip(token_list, freqs, owners) if o == cid))
        for cid in range(n)
    ]


class TestRoundTrip:
    @settings(deadline=None)
    @given(index=indexes())
    def test_index(self, tmp_path_factory, index):
        path = tmp_path_factory.getbasetemp() / "index.tsv"
        write_index(index, path)
        assert read_index(path) == index

    @settings(deadline=None)
    @given(cluster_set=cluster_sets())
    def test_clusters(self, tmp_path_factory, cluster_set):
        path = tmp_path_factory.getbasetemp() / "clusters.jsonl"
        write_clusters(cluster_set, path)
        assert read_clusters(path) == cluster_set

    @settings(deadline=None)
    @given(abstracts=abstract_lists())
    def test_abstracts(self, tmp_path_factory, abstracts):
        path = tmp_path_factory.getbasetemp() / "abstracts.jsonl"
        write_abstracts(abstracts, path)
        assert list(read_abstracts(path)) == abstracts


class TestPostingsLeaveTheCollector:
    """Postings are exact tuples of str and int, which a collection stops tracking."""

    @staticmethod
    def tracked(index):
        return [p for postings in index.entries.values() for p in postings if gc.is_tracked(p)]

    def test_ingest_read_index_and_read_clusters(self, tmp_path):
        built, _ = random_index(np.random.default_rng(5), 300, 40)
        write_index(built, tmp_path / "index.tsv")
        write_clusters(distribute(built, built.tokens()[:5]), tmp_path / "clusters.jsonl")
        indexes = {
            "ingest": built,
            "read_index": read_index(tmp_path / "index.tsv"),
            "read_clusters": read_clusters(tmp_path / "clusters.jsonl").index,
        }
        gc.collect()
        for name, index in indexes.items():
            assert self.tracked(index) == [], name
