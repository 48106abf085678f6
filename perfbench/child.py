"""Work done in fresh child processes, each importing the program from `src/`.

    python3 perfbench/child.py setup KEY
    python3 perfbench/child.py serve JOB.json
    python3 perfbench/child.py trace-build JOB.json
    python3 perfbench/child.py trace-serve JOB.json

`setup` imports the package and loads the key, as every command start does.
`serve` loads clusters and abstracts and runs the closed query loop
(`encrypt_query` -> `prune` -> `search`). The `trace-*` modes make the same
calls `cmd_pipeline` and the serve loop make, in the same order, with a span
around each call; spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path


class Tracer:
    """Spans (name, trace id, span id, parent id, start ns, end ns) and counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: list[tuple] = []

    def span(self, name: str, trace: str, fn, parent: int | None = None):
        start = time.perf_counter_ns()
        out = fn()
        end = time.perf_counter_ns()
        self.spans.append((name, trace, len(self.spans), parent, start, end))
        return out

    def open(self, name: str, trace: str) -> int:
        self.spans.append([name, trace, len(self.spans), None, time.perf_counter_ns(), None])
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id][5] = time.perf_counter_ns()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, trace, sid, parent, start, end in self.spans:
                fh.write(json.dumps({"span": name, "trace": trace, "id": sid, "parent": parent,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for name, trace, value in self.counters:
                fh.write(json.dumps({"counter": name, "trace": trace, "value": value}) + "\n")


def _codec(key_path: str):
    from cipherclust.crypto import KeyedTokenCodec, load_key

    return KeyedTokenCodec(load_key(key_path))


def _traced_peak_bytes(fn) -> int:
    """Peak of memory allocated during fn(), under tracemalloc (run apart from any timing)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del out
    return peak


def _held_bytes(fn):
    """Bytes still allocated by fn()'s result once it returns, and the result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held, out


def setup(key_path: str) -> int:
    import cipherclust  # noqa: F401

    _codec(key_path)
    return 0


def trace_build(job: dict) -> int:
    from cipherclust.cli import _validate_artifacts
    from cipherclust.clustering import choose_centers, distribute, write_clusters
    from cipherclust.config import PipelineConfig
    from cipherclust.index import DEFAULT_STOPWORDS, extract_keywords, ingest, read_keyword_file, trim, write_index
    from cipherclust.matrices import estimate_k, matrix_pipeline
    from cipherclust.search import build_abstracts, write_abstracts

    tracer = Tracer()
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    codec = _codec(job["key"])
    n, a = job["keywords_per_doc"], job["abstract_size"]
    gc.collect()

    def span(name, fn):
        return tracer.span(name, "build", fn)

    # cmd_pipeline -> _build_index: build_index_from_corpus / build_index_from_keywords
    if job["corpus"]:
        paths = sorted(p for p in Path(job["corpus"]).iterdir() if p.is_file() and p.suffix == ".txt")
        terms = span("index.input", lambda: [
            (p.stem, extract_keywords(p.read_text(encoding="utf-8"), n, DEFAULT_STOPWORDS)) for p in paths
        ])
    else:
        terms = span("index.input", lambda: read_keyword_file(job["keywords"]))
    records = span("crypto.encrypt", lambda: [
        (doc, [(codec.encrypt_token(t), f) for t, f in pairs]) for doc, pairs in terms
    ])
    index = span("index.ingest", lambda: ingest(records))
    span("index.write", lambda: write_index(index, out / "index.tsv"))
    trimmed = span("index.trim", lambda: trim(index))
    mats = span("matrices.pipeline", lambda: matrix_pipeline(trimmed))
    est = span("matrices.estimate_k", lambda: estimate_k(mats["C"]))
    centers = span("clustering.centers", lambda: choose_centers(est.k, mats["C"], index))
    clusters = span("clustering.distribute", lambda: distribute(index, centers, k_requested=est.k))
    span("clustering.write", lambda: write_clusters(clusters, out / "clusters.jsonl"))
    abstracts = span("search.abstracts", lambda: build_abstracts(clusters, a))
    span("search.abstracts_write", lambda: write_abstracts(abstracts, out / "abstracts.jsonl"))

    config = PipelineConfig(keywords_per_doc=n, abstract_size=a)
    span("cli.validate", lambda: _validate_artifacts(
        index, out / "index.tsv", out / "clusters.jsonl", out / "abstracts.jsonl", config
    ))
    tracer.counters += [("matrices.m", "build", est.m), ("matrices.k", "build", est.k),
                        ("clustering.k_used", "build", clusters.k_used)]

    del mats
    peaks = {
        "matrices.peak_mb": _traced_peak_bytes(lambda: matrix_pipeline(trimmed)) / 1e6,
        "clustering.distribute_peak_mb": _traced_peak_bytes(lambda: distribute(index, centers, est.k)) / 1e6,
    }
    tracer.counters += [(name, "build", value) for name, value in peaks.items()]
    tracer.write(Path(job["trace_file"]))
    durations: dict[str, float] = {}
    for name, _, _, _, start, end in tracer.spans:
        durations[name] = (end - start) / 1e9
    Path(job["result"]).write_text(json.dumps({"spans_s": durations, "peaks_mb": peaks}))
    return 0


def serve(job: dict, traced: bool) -> int:
    from cipherclust.clustering import read_clusters
    from cipherclust.crypto import encrypt_query, token_to_b64
    from cipherclust.search import prune, read_abstracts, search

    codec = _codec(job["key"])
    queries: list[str] = job["queries"]
    c, top = job["prune_width"], job["cutoff"]
    clusters_path, abstracts_path = job["clusters"], job["abstracts"]
    tracer = Tracer()
    result: dict = {}

    if traced:
        gc.collect()
        clusters = tracer.span("clustering.read", "load", lambda: read_clusters(clusters_path))
        abstracts = tracer.span("search.abstracts_read", "load", lambda: read_abstracts(abstracts_path))
        del clusters
        held, clusters = _held_bytes(lambda: read_clusters(clusters_path))
        tracer.counters.append(("clustering.read_mb", "load", held / 1e6))
    else:
        load_s = []
        for _ in range(job["loads"]):
            clusters = abstracts = None
            gc.collect()
            start = time.perf_counter()
            clusters = read_clusters(clusters_path)
            abstracts = read_abstracts(abstracts_path)
            load_s.append(time.perf_counter() - start)
        result["load_s"] = load_s
        if job["check"]:
            del clusters, abstracts
            held, (clusters, abstracts) = _held_bytes(
                lambda: (read_clusters(clusters_path), read_abstracts(abstracts_path))
            )
            result["serve_bytes"] = held

    # warm-up round, untimed; in the checked slice its outputs are the ones the benchmark checks
    everything = list(range(len(clusters.clusters)))
    checked = []
    for text in queries:
        tokens = encrypt_query(codec, text)
        selected = prune(tokens, abstracts, c)
        pruned = search(tokens, clusters, selected, top)
        if job["check"]:
            checked.append({
                "tokens": [token_to_b64(t) for t in tokens],
                "selected": list(selected),
                "pruned": [list(r) for r in pruned.ranked],
                "full": [list(r) for r in search(tokens, clusters, everything, top).ranked],
            })
    result["checked"] = checked

    latencies: list[int] = []
    round_s: list[float] = []
    rounds = 0
    gc.collect()
    loop_start = round_start = time.perf_counter()
    while True:
        for qi, text in enumerate(queries):
            if traced:
                trace = f"q{rounds}.{qi}"
                root = tracer.open("query", trace)
                tokens = tracer.span("crypto.encrypt_query", trace, lambda: encrypt_query(codec, text), root)
                selected = tracer.span("search.prune", trace, lambda: prune(tokens, abstracts, c), root)
                tracer.span("search.search", trace, lambda: search(tokens, clusters, selected, top), root)
                tracer.close(root)
                tracer.span("search.fullscan", trace, lambda: search(tokens, clusters, everything, top))
            else:
                start = time.perf_counter_ns()
                tokens = encrypt_query(codec, text)
                selected = prune(tokens, abstracts, c)
                search(tokens, clusters, selected, top)
                latencies.append(time.perf_counter_ns() - start)
        rounds += 1
        now = time.perf_counter()
        round_s.append(now - round_start)
        round_start = now
        if now - loop_start >= job["seconds"] and rounds * len(queries) >= job["min_queries"]:
            break
    result.update(rounds=rounds, round_s=round_s)
    if traced:
        per_name: dict[str, list[int]] = {}
        for name, trace, _, _, start, end in tracer.spans:
            if trace.startswith("q"):
                per_name.setdefault(name, []).append(end - start)
        result["span_ns"] = per_name
        result["load_s"] = {name: (end - start) / 1e9 for name, trace, _, _, start, end in tracer.spans
                            if trace == "load"}
        result["counters"] = {name: value for name, _, value in tracer.counters}
        tracer.write(Path(job["trace_file"]))
    else:
        result["latency_ns"] = latencies
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    mode, arg = argv
    if mode == "setup":
        return setup(arg)
    job = json.loads(Path(arg).read_text(encoding="utf-8"))
    if mode == "trace-build":
        return trace_build(job)
    if mode in ("serve", "trace-serve"):
        return serve(job, traced=mode == "trace-serve")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
