"""Golden artifact digests: the mini-corpus artifacts must not change by a byte.

Criterion 06 compares two reruns of the same code; this pins the bytes
themselves, so a refactor that changes any artifact fails here.
manifest.json is not pinned: it records the absolute input path, which
differs between checkouts.
"""
import hashlib

import pytest

from cipherclust.cli import main
from cipherclust.clustering import read_clusters
from cipherclust.crypto import IdentityTokenCodec
from cipherclust.evaluation import load_queries, run_benchmark, write_results_file
from cipherclust.search import read_abstracts
from conftest import DATA_DIR

ARTIFACTS = ("index.tsv", "clusters.jsonl", "abstracts.jsonl", "k_report.json")

GOLDEN = {
    "identity-auto": {
        "index.tsv": "28ecbd9af94809510c8252700bec957366fefb2f2f7bc8ce61f48b3b30096237",
        "clusters.jsonl": "59f04b300f22a70ae93a320411eb3fdabea4abf98276733ea99063e0ce24e518",
        "abstracts.jsonl": "fc156745f82aedbb50d194da941c9cd09f7db4ffd10e314cca625d401c3d97fd",
        "k_report.json": "1dd3a450781867044853ad88b304152f4003346ad90e224f37f7f6bddc04162e",
    },
    "keyed-auto": {
        "index.tsv": "df05fcb260a903189af806dba3f09ff9f8e9b2bad36c832a2a4d655fe0bad067",
        "clusters.jsonl": "61007877972f3db588ab2239ce225a1bcdb03651f489824a735ded4f2abcc97d",
        "abstracts.jsonl": "fc166cdcf9fe3eb9f7319b26bc9641fe2050cfbd37c3f26a3c160983fb66a5be",
        "k_report.json": "1dd3a450781867044853ad88b304152f4003346ad90e224f37f7f6bddc04162e",
    },
    "keyed-k2": {
        "index.tsv": "df05fcb260a903189af806dba3f09ff9f8e9b2bad36c832a2a4d655fe0bad067",
        "clusters.jsonl": "2611117d0b622aaf3cc212b75902f20a1f0d205966b3cf8fb96a3c9fff88d94d",
        "abstracts.jsonl": "d2667cc21d18b84cd03864f50978a6e27a517dfef17006dc7f2a0b9376d06c36",
        "k_report.json": "1415b8c0135340f62551b6865dc75534a4975b70c6e711c52bac937bb67ac15f",
    },
}

# estimate-k --dump-matrices over the keyed-auto index.tsv
GOLDEN_MATRICES = {
    "A.tsv": "e8d3d32e44c9ff0648b806ffb81e5660fe2c938cb2269d841a34a3c737453094",
    "N.tsv": "91f55f7f0b6ef2d0d0388449d0fd4797ad74dc4f977bcbc345f9ca83ffa5784d",
    "R.tsv": "f5fac20eb1c719e93c6458202faa174edec5cdeecfc03e50fc0425d8c42757c3",
    "S.tsv": "d7190e77a3ec9e147b361b4b88a1e82248d0f19872270d10c49986a357631086",
    "C.tsv": "7009b94d9645676139ff477d2e0daf6c45d7c7d18dc0573af695e17b7df87129",
}


# evaluation outputs over the identity-auto build: the coherence report with
# the bundled embeddings, its comparison against the --k 10 build's report,
# the results TSV of data/queries.tsv at --c 3 --top 10, and its TSAP report
GOLDEN_EVALUATION = {
    "coherence": "4975c27c74cfaf7e3e98aacee6d1208192cf1ac69742094fb3f44e349c5e17cd",
    "compare": "2c41f6c294a85ac3f6d7bd5df8c957a2dcc5d7f8ed9968125a78102a506833df",
    "results": "1ce0e1cb1240dc7e40023de34fa843a8edcc500f7156d4cdd7625d05d6abfe16",
    "tsap": "3b613ec88100eae1d355787049191e0f36670617da0aca6bd7615bcb3fc6d0f1",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def key_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("key") / "test.key"
    path.write_bytes(bytes(range(32)))
    return path


def run_pipeline(name, out, corpus, key_file):
    codec = ["--identity"] if name.startswith("identity") else ["--key", str(key_file)]
    k = ["--k", "2"] if name.endswith("k2") else []
    assert main(["pipeline", "--corpus", str(corpus), *codec, *k, "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_artifacts(tmp_path, mini_corpus_dir, key_file, name):
    run_pipeline(name, tmp_path, mini_corpus_dir, key_file)
    assert {f: sha256(tmp_path / f) for f in ARTIFACTS} == GOLDEN[name]


def test_dumped_matrices(tmp_path, mini_corpus_dir, key_file):
    run_pipeline("keyed-auto", tmp_path / "run", mini_corpus_dir, key_file)
    dump = tmp_path / "dump"
    assert main(["estimate-k", "--index", str(tmp_path / "run" / "index.tsv"), "--dump-matrices", str(dump)]) == 0
    assert {f: sha256(dump / f) for f in GOLDEN_MATRICES} == GOLDEN_MATRICES


@pytest.fixture(scope="module")
def evaluation_dir(tmp_path_factory):
    """Both identity builds, their coherence reports and the results TSV."""
    out = tmp_path_factory.mktemp("evaluation")
    embeddings = str(DATA_DIR / "synthetic_embeddings.txt")
    for name, k in (("auto", []), ("k10", ["--k", "10"])):
        assert main(["pipeline", "--corpus", str(DATA_DIR / "mini_corpus"), "--identity", *k,
                     "--out", str(out / name)]) == 0
        assert main(["evaluate", "coherence", "--clusters", str(out / name / "clusters.jsonl"),
                     "--embeddings", embeddings, "--out", str(out / f"{name}.json")]) == 0
    results, _ = run_benchmark(
        load_queries(DATA_DIR / "queries.tsv"), read_clusters(out / "auto" / "clusters.jsonl"),
        read_abstracts(out / "auto" / "abstracts.jsonl"), IdentityTokenCodec(),
        prune_width=3, cutoff=10, repeats=1,
    )
    write_results_file(results, out / "results.tsv")
    return out


def evaluate_args(name, run):
    return {
        "coherence": ["coherence", "--clusters", str(run / "auto" / "clusters.jsonl"),
                      "--embeddings", str(DATA_DIR / "synthetic_embeddings.txt")],
        "compare": ["compare", "--dynamic", str(run / "auto.json"), "--static", str(run / "k10.json")],
        "tsap": ["tsap", "--results", str(run / "results.tsv"),
                 "--judgments", str(DATA_DIR / "judgments.tsv")],
    }[name]


def test_results_file(evaluation_dir):
    assert sha256(evaluation_dir / "results.tsv") == GOLDEN_EVALUATION["results"]


@pytest.mark.parametrize("name", ["coherence", "compare", "tsap"])
def test_evaluate_report_file(tmp_path, evaluation_dir, name):
    out = tmp_path / "report.json"
    assert main(["evaluate", *evaluate_args(name, evaluation_dir), "--out", str(out)]) == 0
    assert sha256(out) == GOLDEN_EVALUATION[name]


@pytest.mark.parametrize("name", ["coherence", "compare", "tsap"])
def test_evaluate_report_stdout(capsys, evaluation_dir, name):
    assert main(["evaluate", *evaluate_args(name, evaluation_dir)]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(printed).hexdigest() == GOLDEN_EVALUATION[name]


def test_evaluate_search_results_file(tmp_path, evaluation_dir):
    run = evaluation_dir / "auto"
    assert main(["evaluate", "search", "--queries", str(DATA_DIR / "queries.tsv"),
                 "--clusters", str(run / "clusters.jsonl"), "--abstracts", str(run / "abstracts.jsonl"),
                 "--identity", "--c", "3", "--top", "10", "--results", str(tmp_path / "results.tsv"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert sha256(tmp_path / "results.tsv") == GOLDEN_EVALUATION["results"]
