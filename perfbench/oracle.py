"""Checks of the program's outputs, computed apart from the program.

Nothing here imports `cipherclust`. Ciphertexts are mapped back to words
with the benchmark's own HMAC of the vocabulary; k, centers, assignments,
abstracts and search results are recomputed with plain loops or with the
closed forms the method defines.
"""
from __future__ import annotations

import base64
import hashlib
import hmac
import json
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import Inputs, extract_text

TAG_BYTES = 16
SAMPLED_ASSIGNMENTS = 100
_QUERY_WORD = re.compile(r"[a-z0-9]+")


def b64(token: bytes) -> str:
    return base64.b64encode(token).decode("ascii")


class Expected:
    """The index the benchmark derives from its own generator, keyed by ciphertext."""

    def __init__(self, inputs: Inputs, key: bytes) -> None:
        self.inputs = inputs
        self.key = key
        postings: dict[bytes, list[tuple[str, int]]] = defaultdict(list)
        self.word_of: dict[bytes, str] = {}
        token_of: dict[str, bytes] = {}
        for doc in sorted(inputs.doc_ids):
            for word, freq in inputs.keywords[doc]:
                if word not in token_of:
                    token_of[word] = self.cipher(word)
                    self.word_of[token_of[word]] = word
                postings[token_of[word]].append((doc, freq))
        self.postings = dict(postings)
        self.tokens = sorted(self.postings)
        self.total = {t: sum(f for _, f in ps) for t, ps in self.postings.items()}

    def cipher(self, word: str) -> bytes:
        return hmac.new(self.key, word.encode("utf-8"), hashlib.sha256).digest()[:TAG_BYTES]

    def index_text(self) -> str:
        lines = [
            f"{b64(t)}\t" + ",".join(f"{d}:{f}" for d, f in self.postings[t]) for t in self.tokens
        ]
        return "\n".join(lines) + "\n"

    def diagonal(self) -> dict[bytes, float]:
        """diag(C) over the kept tokens: sum_d (N_id/rowsum_i) * (N_id/colsum_d)."""
        mean = sum(len(ps) for ps in self.postings.values()) / len(self.postings)
        kept = [t for t in self.tokens if len(self.postings[t]) >= mean]
        col_max: dict[str, int] = defaultdict(int)
        for t in kept:
            for d, f in self.postings[t]:
                col_max[d] = max(col_max[d], f)
        n_rows = {t: [(d, f / col_max[d]) for d, f in self.postings[t]] for t in kept}
        col_sum: dict[str, float] = defaultdict(float)
        for row in n_rows.values():
            for d, v in row:
                col_sum[d] += v
        diag = {}
        for t, row in n_rows.items():
            row_sum = sum(v for _, v in row)
            diag[t] = sum((v / row_sum) * (v / col_sum[d]) for d, v in row)
        return diag

    def brute_force(self, words: list[str]) -> dict[str, int]:
        scores: dict[str, int] = defaultdict(int)
        for word in dict.fromkeys(words):
            for d, f in self.postings.get(self.cipher(word), ()):
                scores[d] += f
        return dict(scores)


def _centers(k: int, diag: dict[bytes, float], doc_sets: dict[bytes, set]) -> list[bytes]:
    """Single-pass center selection, line by line from the method's description."""
    order = sorted(diag, key=lambda t: (-len(doc_sets[t]), t))
    covered: set = set()
    admitted = []
    for token in order:
        outside = len(doc_sets[token] - covered)
        inside = len(doc_sets[token]) - outside
        omega = 0.0 if outside == 0 else (math.inf if inside == 0 else outside / inside)
        if omega > 1:
            covered |= doc_sets[token]
            spread = diag[token] * (1 - diag[token])
            phi = (math.inf if spread > 0 else 0.0) if math.isinf(omega) else omega * spread
            admitted.append((token, phi))

    def rank(pair):
        token, phi = pair
        return (0, -len(doc_sets[token]), token) if math.isinf(phi) else (1, -phi, token)

    return [t for t, _ in sorted(admitted, key=rank)[:k]]


def relatedness(exp: Expected, token: bytes, center: bytes, center_freq: dict[str, int]) -> float:
    """Sum over the token's documents of contribution * log(co-occurrence), as a plain loop."""
    acc = 0.0
    total = exp.total[token] + exp.total[center]
    for d, f in exp.postings[token]:
        acc += (f / exp.total[token]) * math.log((f + center_freq.get(d, 0)) / total)
    return acc


def assignment_sample(exp: Expected, centers: list[bytes], seed: int) -> list[bytes]:
    """The seeded sample of non-center tokens whose assignment is recomputed."""
    non_centers = [t for t in exp.tokens if t not in set(centers)]
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(non_centers), size=min(SAMPLED_ASSIGNMENTS, len(non_centers)), replace=False)
    return [non_centers[i] for i in picks]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_artifacts(exp: Expected, out: Path, abstract_size: int, seed: int) -> tuple[list[str], dict]:
    """Every build check; returns (failures, facts about the clustering)."""
    failures: list[str] = []
    if (out / "index.tsv").read_text(encoding="utf-8") != exp.index_text():
        failures.append("index.tsv differs from the index derived from the generator")

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    names = {"index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl"}
    if set(manifest["artifacts"]) != names:
        failures.append(f"manifest lists {sorted(manifest['artifacts'])}")
    for name, digest in manifest["artifacts"].items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            failures.append(f"manifest digest of {name} does not match the file")

    report = json.loads((out / "k_report.json").read_text(encoding="utf-8"))
    diag = exp.diagonal()
    trace = math.fsum(diag.values())
    m = len(diag)
    accepted = {min(max(math.ceil(trace), 1), m)}
    if abs(trace - round(trace)) <= 1e-9:
        accepted |= {min(max(round(trace) + i, 1), m) for i in (0, 1)}
    k = report["k_estimate"]
    if k not in accepted:
        failures.append(f"k_estimate {k} but ceil(sum diag C) gives {sorted(accepted)} (trace {trace!r})")
        k = min(accepted)

    clusters = read_jsonl(out / "clusters.jsonl")
    members = [[base64.b64decode(e["t"]) for e in c["tokens"]] for c in clusters]
    centers = [base64.b64decode(c["center"]) for c in clusters]
    if report["k_used"] != len(clusters):
        failures.append(f"k_used {report['k_used']} but {len(clusters)} clusters")
    doc_sets = {t: {d for d, _ in exp.postings[t]} for t in diag}
    if sorted(centers) != sorted(_centers(k, diag, doc_sets)):
        failures.append("centers differ from the single-pass selection")

    flat = [t for ts in members for t in ts]
    if len(flat) != len(set(flat)) or sorted(flat) != exp.tokens:
        failures.append("clusters do not partition the index tokens")
    for c in clusters:
        for e in c["tokens"]:
            t = base64.b64decode(e["t"])
            if [tuple(p) for p in e["postings"]] != exp.postings.get(t):
                failures.append(f"cluster {c['id']} carries wrong postings for a token")
                break

    cluster_of = {t: i for i, ts in enumerate(members) for t in ts}
    center_freq = {c: dict(exp.postings[c]) for c in centers}
    for token in assignment_sample(exp, centers, seed):
        if token not in cluster_of:
            failures.append("a sampled token has no cluster")
            break
        scores = {c: relatedness(exp, token, c, center_freq[c]) for c in centers}
        if scores[centers[cluster_of[token]]] < max(scores.values()) - 1e-9:
            failures.append(f"token {b64(token)} is not assigned to its most related center")
            break

    abstracts = read_jsonl(out / "abstracts.jsonl")
    if [a["cluster"] for a in abstracts] != list(range(len(clusters))):
        failures.append("abstracts are not one per cluster, in cluster order")
    for a, ts in zip(abstracts, members):
        top = sorted(ts, key=lambda t: (-exp.total[t], t))[:abstract_size]
        if a["entries"] != [[b64(t), exp.total[t]] for t in top]:
            failures.append(f"abstract {a['cluster']} is not its cluster's top-{abstract_size} tokens")
            break

    facts = {"members": members, "centers": centers, "abstracts": abstracts}
    return failures, facts


def check_queries(exp: Expected, checked: list[dict], cutoff: int) -> tuple[list[str], list[bool], dict]:
    """Search checks per distinct query; returns (failures, failed flags, quality)."""
    inputs = exp.inputs
    failures: list[str] = []
    failed: list[bool] = []
    tsap, recall = [], []
    for query, res in zip(inputs.queries, checked):
        words = _QUERY_WORD.findall(query.text.lower())
        scores = exp.brute_force(words)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:cutoff]
        pruned = [tuple(r) for r in res["pruned"]]
        full = [tuple(r) for r in res["full"]]
        typed_plain = query.text.split() == words
        if not typed_plain and ranked and not full and not pruned:
            failed.append(True)  # tokenized apart from the index: the known query-path fault
            continue
        failed.append(False)
        if full != ranked:
            failures.append(f"unpruned search for {query.text!r} differs from the brute-force top {cutoff}")
        if pruned != sorted(pruned, key=lambda r: (-r[1], r[0])):
            failures.append(f"pruned result for {query.text!r} is not sorted")
        if ranked and not pruned:
            failures.append(f"pruned result for {query.text!r} is empty")
        if any(s > scores.get(d, 0) for d, s in pruned):
            failures.append(f"pruned result for {query.text!r} scores a document above brute force")
        if ranked:
            recall.append(len({d for d, _ in pruned} & {d for d, _ in ranked}) / len(ranked))
        if query.topic >= 0:
            total = 0.0
            for i, (d, _) in enumerate(pruned, 1):
                primary, secondary = inputs.doc_topics.get(d, (-1, -1))
                total += 1 / i if primary == query.topic else (1 / (2 * i) if secondary == query.topic else 0.0)
            tsap.append(total / 10)
    quality = {
        "tsap10": math.fsum(tsap) / len(tsap),
        "recall10": math.fsum(recall) / len(recall),
    }
    return failures, failed, quality


def coherence(exp: Expected, members: list[list[bytes]]) -> float:
    """Mean over clusters of the mean pairwise cosine, as (|sum u|^2 - n) / (n (n - 1))."""
    table = exp.inputs.embeddings
    per_cluster = []
    for tokens in members:
        vecs = [table[exp.word_of[t]] for t in tokens if exp.word_of.get(t) in table]
        n = len(vecs)
        if n < 2:
            continue
        unit = np.array(vecs)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        s = unit.sum(axis=0)
        per_cluster.append((float(s @ s) - n) / (n * (n - 1)))
    return math.fsum(per_cluster) / len(per_cluster)


def work_counters(exp: Expected, facts: dict, checked: list[dict]) -> dict[str, float]:
    """Implied-work counters, derived from the program's outputs."""
    members, centers, abstracts = facts["members"], facts["centers"], facts["abstracts"]
    k_used = len(centers)
    center_set = set(centers)
    docs_of_center: dict[str, list[bytes]] = defaultdict(list)
    for c in centers:
        for d, _ in exp.postings[c]:
            docs_of_center[d].append(c)
    cooccurring = 0
    for t in exp.tokens:
        if t not in center_set:
            cooccurring += len({c for d, _ in exp.postings[t] for c in docs_of_center.get(d, ())})
    scored = (len(exp.tokens) - k_used) * k_used

    abstract_tokens = {base64.b64decode(e[0]) for a in abstracts for e in a["entries"]}
    entries = sum(len(a["entries"]) for a in abstracts)
    sizes = [len(ts) for ts in members]
    member_sets = [set(ts) for ts in members]
    scanned = found = postings = searched = fallback = 0
    for res in checked:
        tokens = [base64.b64decode(t) for t in res["tokens"]]
        selected = res["selected"]
        in_selected = [t for t in tokens if any(t in member_sets[c] for c in selected)]
        scanned += sum(sizes[c] for c in selected)
        found += len(in_selected)
        postings += sum(len(exp.postings[t]) for t in in_selected)
        searched += len(selected)
        fallback += not any(t in abstract_tokens for t in tokens)
    n = len(checked)
    return {
        "clustering.pairs_scored": scored,
        "clustering.pairs_cooccurring": cooccurring,
        "clustering.pair_yield": cooccurring / scored if scored else 1.0,
        "search.abstract_entries_per_query": entries,
        "search.cluster_tokens_per_query": scanned / n,
        "search.query_tokens_found_per_query": found / n,
        "search.token_scan_yield": found / scanned,
        "search.postings_per_query": postings / n,
        "search.clusters_per_query": searched / n,
        "search.fallback_queries": fallback,
    }


def check_extraction(inputs: Inputs, seed: int, sample: int = 50) -> list[str]:
    """The expected index counts words as generated; re-extract a sample of the written texts."""
    rng = np.random.default_rng([seed, 11])
    for i in rng.choice(len(inputs.doc_ids), size=min(sample, len(inputs.doc_ids)), replace=False):
        doc = inputs.doc_ids[i]
        if extract_text(inputs.texts[doc]) != inputs.keywords[doc]:
            return [f"benchmark extraction of {doc}.txt disagrees with its generated counts"]
    return []
