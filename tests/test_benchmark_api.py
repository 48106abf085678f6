"""The benchmark drives the program through its library API: every name it imports must exist,
and its serve calls must keep their shapes and results.

perfbench/child.py is only read here, never imported or run, so a clean-up
that deletes or renames a name the benchmark uses, or changes what one of its
calls returns, fails in tier-1 instead of in the next benchmark run.
"""
import ast
import base64
import importlib
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cipherclust.cli import main
from cipherclust.clustering import choose_centers, cluster_index, distribute, read_clusters
from cipherclust.crypto import IdentityTokenCodec, KeyedTokenCodec, encrypt_query, load_key
from cipherclust.evaluation import load_queries
from cipherclust.config import PipelineConfig
from cipherclust.index import DEFAULT_STOPWORDS, build_index_from_corpus, extract_keywords, ingest, trim
from cipherclust.matrices import estimate_k, matrix_pipeline
from cipherclust.search import prune, read_abstracts, search

from conftest import records_from_freqs
from oracles import scan_prune, scan_search

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def cipherclust_imports() -> list[tuple[str, str | None]]:
    """(module, name) for each `from cipherclust... import name`; (module, None) for `import cipherclust...`."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(CHILD.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cipherclust":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "cipherclust")
    return out


def test_perfbench_child_imports_resolve():
    imports = cipherclust_imports()
    assert any(name == "matrix_pipeline" for _, name in imports)
    missing = []
    for module, name in imports:
        loaded = importlib.import_module(module)  # a missing module raises here
        if name is not None and not hasattr(loaded, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_serve_sequence_matches_scan_reference(tmp_path, mini_corpus_dir, queries_path):
    """child.py's serve loop, call for call, on a written mini-corpus build.

    The references read the artifacts with json and base64 alone, so they
    share no parsing with the program.
    """
    key = tmp_path / "bench.key"
    key.write_bytes(bytes(range(32)))
    out = tmp_path / "build"
    assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--key", str(key), "--out", str(out)]) == 0
    objs = {name: [json.loads(line) for line in (out / name).read_text().splitlines()]
            for name in ("clusters.jsonl", "abstracts.jsonl")}
    ref_abstracts = [(o["cluster"], [(base64.b64decode(t), f) for t, f in o["entries"]])
                     for o in objs["abstracts.jsonl"]]
    cluster_tokens = [[base64.b64decode(e["t"]) for e in o["tokens"]] for o in objs["clusters.jsonl"]]
    postings = {base64.b64decode(e["t"]): [tuple(p) for p in e["postings"]]
                for o in objs["clusters.jsonl"] for e in o["tokens"]}
    c, top = 3, 10  # perfbench/run.py's PRUNE_WIDTH and CUTOFF
    # beyond the bundled queries: tokens in all six clusters, so c = 3 leaves some out, and no known token
    extra = ["router server dinner dough goal gravy", "nothing here matches"]
    texts = [text for _, text in load_queries(queries_path)] + extra

    codec = KeyedTokenCodec(load_key(key))
    clusters = read_clusters(out / "clusters.jsonl")
    abstracts = read_abstracts(out / "abstracts.jsonl")
    everything = list(range(len(clusters.clusters)))
    for text in texts:
        tokens = encrypt_query(codec, text)
        selected = prune(tokens, abstracts, c)
        assert list(selected) == scan_prune(tokens, ref_abstracts, c), text
        for chosen in (selected, everything):
            ranked = [list(r) for r in search(tokens, clusters, chosen, top).ranked]
            assert ranked == [list(r) for r in scan_search(tokens, cluster_tokens, postings, chosen, top)], text


def test_traced_extraction_call_shape(mini_corpus_dir):
    """child.py's index.input span calls extract_keywords(text, n, DEFAULT_STOPWORDS) per document,
    as build_index_from_corpus does, so index.input_s times the extraction the pipeline runs."""
    n = PipelineConfig.keywords_per_doc
    extracted = set()
    for path in sorted(mini_corpus_dir.glob("*.txt")):
        out = extract_keywords(path.read_text(encoding="utf-8"), n, DEFAULT_STOPWORDS)
        assert type(out) is list and 0 < len(out) <= n
        assert all(type(kv) is tuple and len(kv) == 2 and type(kv[0]) is str and type(kv[1]) is int for kv in out)
        extracted.update(term.encode() for term, _ in out)
    assert set(build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n).entries) == extracted


def check_build_adapters(index):
    """child.py's traced build calls, on the chain's C, give cluster_index's k, centers and clusters."""
    trimmed = trim(index)
    mats = matrix_pipeline(trimmed)
    est = estimate_k(mats["C"])
    centers = choose_centers(est.k, mats["C"], index)
    clusters = distribute(index, centers, k_requested=est.k)
    want_clusters, want_est = cluster_index(index)
    assert est == want_est
    assert sorted(centers) == [cluster.center for cluster in want_clusters.clusters]
    assert clusters == want_clusters


def test_build_adapters_match_cluster_index_on_the_mini_corpus(mini_corpus_dir):
    check_build_adapters(build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), PipelineConfig.keywords_per_doc))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_adapters_match_cluster_index(data):
    docs = [f"d{j}" for j in range(data.draw(st.integers(1, 8)))]
    names = data.draw(st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    freqs = {name: data.draw(st.dictionaries(st.sampled_from(docs), st.integers(1, 50), min_size=1)) for name in names}
    check_build_adapters(ingest(records_from_freqs(freqs, docs)))
