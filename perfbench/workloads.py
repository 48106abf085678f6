"""Seeded input generators for the two benchmark workloads.

The vocabulary is the same for every seed (it comes from a fixed generator
seed); the run seed chooses the documents, the queries and the embedding
table. The program sees only the files written by `write_inputs` and the key.

topics-keywords: many topics, each with its own Zipfian vocabulary, and a
light shared background; passed to `pipeline --keywords` as a pre-extracted
keyword file, so the build is dominated by clustering, not extraction.

background-text: `.txt` documents with a heavy shared Zipfian background and
stopwords; the most frequent background word lands in nearly every document,
so center selection admits one center and clustering collapses to a single
cluster (the paper's method on such a corpus, not a failure).
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VOCAB_SEED = 190804960
KEYWORDS_PER_DOC = 20  # the program's default keywords_per_doc
QUERIES_PER_ROUND = 400
EMBED_DIM = 16
ZIPF_TOPIC = 1.1  # Zipf exponent of each topic's vocabulary
ZIPF_BACKGROUND = 1.0  # Zipf exponent of the shared background

# The program's default stopword list, kept here so the benchmark's own
# extraction does not share code with the program it checks.
STOPWORDS = frozenset(
    """a about above after again all also an and any are as at be because been
    before being below between both but by could did do does doing down during
    each few for from further had has have having he her here hers him his how
    i if in into is it its just me more most my no nor not of off on once only
    or other our out over own same she should so some such than that the their
    them then there these they this those through to too under until up very
    was we were what when where which while who whom why will with you your
    """.split()
)
_STOPWORD_LIST = sorted(STOPWORDS)
_WORD = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's corpus and query round."""

    docs: int
    topics: int
    topic_vocab: int  # words per topic
    background_vocab: int
    doc_words: int  # words drawn per document
    background_share: float
    stopword_share: float
    secondary_prob: float  # chance a document has a second topic
    secondary_share: float  # share of its topic words drawn from the second topic
    tail_queries: int  # single rare-term queries per round
    mixed_queries: int  # topic word + head background word, per round
    punctuated_queries: int  # fixed, seed-independent strings typed with punctuation
    text: bool = False  # write .txt documents instead of a keyword file


SPECS = {
    "topics-keywords": Spec(
        docs=4_000, topics=50, topic_vocab=250, background_vocab=1_500, doc_words=200,
        background_share=0.01, stopword_share=0.0, secondary_prob=0.1, secondary_share=0.2,
        tail_queries=30, mixed_queries=0, punctuated_queries=0,
    ),
    "background-text": Spec(
        docs=3_500, topics=175, topic_vocab=100, background_vocab=3_000, doc_words=300,
        background_share=0.50, stopword_share=0.15, secondary_prob=0.3, secondary_share=0.25,
        tail_queries=0, mixed_queries=20, punctuated_queries=8, text=True,
    ),
}


@dataclass
class Query:
    text: str
    topic: int  # -1 for the punctuated background queries


@dataclass
class Inputs:
    name: str
    spec: Spec
    seed: int
    doc_ids: list[str]
    keywords: dict[str, list[tuple[str, int]]]  # doc -> top-n (word, freq): the expected index
    doc_topics: dict[str, tuple[int, int]]  # doc -> (primary, secondary or -1)
    queries: list[Query]  # one round, in serving order
    embeddings: dict[str, np.ndarray]
    texts: dict[str, str] = field(default_factory=dict)  # background-text only


def vocabulary(n: int) -> list[str]:
    """n distinct pseudo-words, identical for every run seed (prefix-stable)."""
    rng = np.random.default_rng(VOCAB_SEED)
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    words: list[str] = []
    seen = set(STOPWORDS)
    while len(words) < n:
        lengths = rng.integers(2, 5, size=1024)
        picks = rng.integers(0, len(syllables), size=(1024, 4))
        for length, row in zip(lengths, picks):
            word = "".join(syllables[i] for i in row[:length])
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words[:n]


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), cdf.size - 1)


def extract_top(words: list[str], n: int = KEYWORDS_PER_DOC) -> list[tuple[str, int]]:
    """Top-n non-stopword words by count, ties by word."""
    counts = Counter(w for w in words if w not in STOPWORDS)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def extract_text(text: str, n: int = KEYWORDS_PER_DOC) -> list[tuple[str, int]]:
    """The benchmark's own extraction from text: [a-z0-9]+ tokens of the lowercased text."""
    return extract_top(_WORD.findall(text.lower()), n)


def _render(rng, words: list[str]) -> str:
    """Sentences of 8-16 words, capitalized, with a comma and a full stop."""
    lengths = rng.integers(8, 17, size=len(words) // 8 + 1).tolist()
    commas = rng.integers(2, 7, size=len(lengths)).tolist()
    out = []
    i = 0
    for length, comma in zip(lengths, commas):
        if i >= len(words):
            break
        sentence = words[i:i + length]
        i += length
        sentence[0] = sentence[0].capitalize()
        if comma < len(sentence) - 1:
            sentence[comma] += ","
        out.append(" ".join(sentence) + ".")
    return " ".join(out) + "\n"


def generate(name: str, seed: int) -> Inputs:
    spec = SPECS[name]
    rng = np.random.default_rng([seed, 1 if spec.text else 0])
    vocab = vocabulary(spec.background_vocab + spec.topics * spec.topic_vocab)
    background = vocab[: spec.background_vocab]
    topic_words = [
        vocab[spec.background_vocab + t * spec.topic_vocab: spec.background_vocab + (t + 1) * spec.topic_vocab]
        for t in range(spec.topics)
    ]
    word_topic = {w: -1 for w in background}
    for t, words in enumerate(topic_words):
        word_topic.update((w, t) for w in words)
    topic_cdf = _zipf_cdf(spec.topic_vocab, ZIPF_TOPIC)
    background_cdf = _zipf_cdf(spec.background_vocab, ZIPF_BACKGROUND)

    doc_ids = [f"d{j:05d}" for j in range(spec.docs)]
    keywords: dict[str, list[tuple[str, int]]] = {}
    doc_topics: dict[str, tuple[int, int]] = {}
    texts: dict[str, str] = {}
    # equal-sized topics: a topic with few documents yields a center with a
    # small total frequency, and relatedness favours such centers
    primaries = rng.permutation(np.arange(spec.docs) % spec.topics)
    alpha = np.argsort(np.argsort(np.array(vocab)))  # rank of each word id in word order
    topic_base = spec.background_vocab
    for doc, primary in zip(doc_ids, primaries.tolist()):
        secondary = -1
        if rng.random() < spec.secondary_prob:
            secondary = int((primary + rng.integers(1, spec.topics)) % spec.topics)
        n_stop = int(rng.binomial(spec.doc_words, spec.stopword_share))
        n_bg = int(rng.binomial(spec.doc_words - n_stop, spec.background_share / (1 - spec.stopword_share)))
        n_topic = spec.doc_words - n_stop - n_bg
        n_sec = int(rng.binomial(n_topic, spec.secondary_share)) if secondary >= 0 else 0
        parts = [_draw(rng, background_cdf, n_bg),
                 topic_base + primary * spec.topic_vocab + _draw(rng, topic_cdf, n_topic - n_sec)]
        if n_sec:
            parts.append(topic_base + secondary * spec.topic_vocab + _draw(rng, topic_cdf, n_sec))
        ids = np.concatenate(parts)
        # top-n by count, ties by word: the extraction the program is asked to do
        uniq, counts = np.unique(ids, return_counts=True)
        top = np.lexsort((alpha[uniq], -counts))[:KEYWORDS_PER_DOC]
        keywords[doc] = [(vocab[u], c) for u, c in zip(uniq[top].tolist(), counts[top].tolist())]
        doc_topics[doc] = (primary, secondary)
        if spec.text:
            words = [vocab[i] for i in ids.tolist()]
            words += [_STOPWORD_LIST[i] for i in rng.integers(0, len(_STOPWORD_LIST), size=n_stop).tolist()]
            texts[doc] = _render(rng, [words[i] for i in rng.permutation(len(words)).tolist()])

    queries = _queries(rng, spec, keywords, word_topic, topic_words, background, topic_cdf)
    embeddings = _embeddings(rng, vocab, word_topic)
    return Inputs(name, spec, seed, doc_ids, keywords, doc_topics, queries, embeddings, texts)


def _queries(rng, spec, keywords, word_topic, topic_words, background, topic_cdf) -> list[Query]:
    doc_freq = Counter(w for pairs in keywords.values() for w, _ in pairs)
    total_freq = Counter()
    for pairs in keywords.values():
        for w, f in pairs:
            total_freq[w] += f

    def topic_word(t: int) -> str:
        while True:
            word = topic_words[t][_draw(rng, topic_cdf, 1)[0]]
            if doc_freq[word]:
                return word

    queries: list[Query] = []
    n_topical = QUERIES_PER_ROUND - spec.tail_queries - spec.mixed_queries - spec.punctuated_queries
    for _ in range(n_topical):
        t = int(rng.integers(spec.topics))
        first = topic_word(t)
        second = topic_word(t)
        while second == first:
            second = topic_word(t)
        queries.append(Query(f"{first} {second}", t))
    # rarest indexed topic words: most of them sit outside every abstract, so
    # prune falls back to searching every cluster
    rare = sorted((w for w in doc_freq if word_topic[w] >= 0), key=lambda w: (total_freq[w], doc_freq[w], w))
    for word in rare[: spec.tail_queries]:
        queries.append(Query(word, word_topic[word]))
    # each pairs a topic word with one of the head background words, whose
    # long posting lists set the latency tail; the same heads for every seed
    for i in range(spec.mixed_queries):
        t = int(rng.integers(spec.topics))
        queries.append(Query(f"{topic_word(t)} {background[i]}", t))
    # typed the way users type; fixed strings, so every seed serves the same ones
    for i in range(spec.punctuated_queries):
        queries.append(Query(f"{background[2 * i].capitalize()}, {background[2 * i + 1]}!", -1))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _embeddings(rng, vocab, word_topic) -> dict[str, np.ndarray]:
    """Nonnegative vectors: every pair has cosine > 0, topic words share a direction."""
    table = {}
    noise = np.abs(rng.normal(0.0, 0.5, size=(len(vocab), EMBED_DIM))) + 0.3
    for i, word in enumerate(vocab):
        t = word_topic[word]
        vec = noise[i]
        if t >= 0:
            vec[t % EMBED_DIM] += 1.5
            vec[(7 * t + 3) % EMBED_DIM] += 1.5
        table[word] = vec
    return table


def write_inputs(inputs: Inputs, work: Path) -> list[str]:
    """Write the program's input files; return the pipeline input arguments."""
    if inputs.spec.text:
        corpus = work / "corpus"
        corpus.mkdir()
        for doc in inputs.doc_ids:
            (corpus / f"{doc}.txt").write_text(inputs.texts[doc], encoding="utf-8")
        return ["--corpus", str(corpus)]
    path = work / "keywords.tsv"
    lines = [f"{doc}\t" + ",".join(f"{w}:{f}" for w, f in inputs.keywords[doc]) for doc in inputs.doc_ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--keywords", str(path)]


def key_bytes(seed: int) -> bytes:
    return hashlib.sha256(f"perfbench key {seed}".encode()).digest()
