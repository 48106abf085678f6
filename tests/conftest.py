from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from cipherclust.config import CONFIG_ENV
from cipherclust.index import TrimmedIndex, ingest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)

# Token-document frequencies of the five-token worked example used across
# the suite; token names double as their ciphertext bytes.
EXAMPLE_FREQS = {
    b"Uh5W": {"d1": 30, "d3": 23, "d4": 4, "d5": 40},
    b"/Vdn": {"d1": 5, "d4": 60, "d5": 34},
    b"oR1r": {"d2": 23, "d4": 30},
    b"vJHZ": {"d1": 52, "d2": 49, "d4": 23, "d6": 26},
    b"tH7c": {"d2": 45, "d3": 68, "d5": 3, "d6": 5},
}
EXAMPLE_DOCS = ("d1", "d2", "d3", "d4", "d5", "d6")


def records_from_freqs(freqs: dict[bytes, dict[str, int]], docs=None) -> list:
    """Doc-major records for ingest() from a token-major frequency map.

    Documents come in id order, each with its (token, frequency) pairs in
    token order; one pass over the map's entries.
    """
    by_doc: dict[str, list] = {doc: [] for doc in docs or []}
    for token in sorted(freqs):
        for doc, freq in freqs[token].items():
            by_doc.setdefault(doc, []).append((token, freq))
    return sorted(by_doc.items())


def keep_all(index) -> TrimmedIndex:
    """A no-op trim: every token kept, so the matrices cover the whole index."""
    return TrimmedIndex(index, tuple(index.tokens()))


def doc_sets(index) -> dict[bytes, frozenset[str]]:
    """Each token's set of documents, for oracles.algorithm_centers."""
    return {token: frozenset(postings) for token, postings in index.entries.items()}


def posting_tuples(index) -> dict[bytes, tuple[tuple[str, int], ...]]:
    """Each token's (doc, frequency) pairs in held order: == on these compares posting order too."""
    return {token: tuple(postings.items()) for token, postings in index.entries.items()}


def entry(matrix, row_label, col_label) -> float:
    """One entry of a LabeledMatrix, addressed by its labels."""
    return float(matrix.mat[matrix.row_labels.index(row_label), matrix.col_labels.index(col_label)])


@pytest.fixture
def example_index():
    return ingest(records_from_freqs(EXAMPLE_FREQS, EXAMPLE_DOCS))


@pytest.fixture
def mini_corpus_dir() -> Path:
    return DATA_DIR / "mini_corpus"


@pytest.fixture
def embeddings_path() -> Path:
    return DATA_DIR / "synthetic_embeddings.txt"


@pytest.fixture
def queries_path() -> Path:
    return DATA_DIR / "queries.tsv"


@pytest.fixture
def judgments_path() -> Path:
    return DATA_DIR / "judgments.tsv"


def random_freqs(
    rng: np.random.Generator,
    n_tokens: int,
    n_docs: int,
    max_freq: int = 60,
    max_postings: int = 6,
) -> dict[bytes, dict[str, int]]:
    """Random sparse token-document frequencies; every token gets a posting."""
    docs = [f"d{j:04d}" for j in range(n_docs)]
    freqs: dict[bytes, dict[str, int]] = {}
    for i in range(n_tokens):
        prefix = bytes(rng.integers(33, 127, size=4).tolist())
        token = prefix + f"{i:04d}".encode()
        width = int(rng.integers(1, min(n_docs, max_postings) + 1))
        chosen = rng.choice(n_docs, size=width, replace=False)
        freqs[token] = {docs[j]: int(rng.integers(1, max_freq + 1)) for j in chosen}
    return freqs


def random_index(rng: np.random.Generator, n_tokens: int, n_docs: int, **kw):
    freqs = random_freqs(rng, n_tokens, n_docs, **kw)
    docs = [f"d{j:04d}" for j in range(n_docs)]
    return ingest(records_from_freqs(freqs, docs)), freqs


def structured_freqs(rng, n_tokens, n_docs, n_topics):
    """Topic-structured synthetic corpus: tokens post only into topic docs."""
    docs_per_topic = n_docs // n_topics
    freqs = {}
    for i in range(n_tokens):
        topic = i % n_topics
        base = topic * docs_per_topic
        width = int(rng.integers(3, 7))
        chosen = base + rng.choice(docs_per_topic, size=width, replace=False)
        token = bytes(rng.integers(33, 127, size=4).tolist()) + f"{i:05d}".encode()
        freqs[token] = {f"d{j:04d}": int(rng.integers(1, 40)) for j in chosen}
    return freqs
