"""The search path and the file-only evaluate commands load neither numpy nor scipy.

Numeric commands load numpy and never load scipy; only estimate-k
--dump-matrices, which forms the whole A -> N -> R -> S -> C chain, loads
scipy.

Each check runs in a fresh interpreter, because this test process already
holds numpy and scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cipherclust.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent.parent / "data"

REPORT_NUMERIC = "print(json.dumps(sorted(m for m in ('numpy', 'scipy') if m in sys.modules)))"

# runs main(argv) and records which of numpy, scipy and scipy.sparse are loaded when it returns
RECORD_LOADED = """
import json, sys
from cipherclust.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "end": [m for m in ("numpy", "scipy", "scipy.sparse") if m in sys.modules]}))
"""


def run_python(code: str, *args: str):
    """Run code in a fresh interpreter with args as sys.argv[1:]; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lazy") / "run"
    assert main(["pipeline", "--corpus", str(DATA_DIR / "mini_corpus"), "--identity", "--out", str(out)]) == 0
    return out


def test_library_modules_load_neither_numpy_nor_scipy():
    code = (
        "import json, sys\n"
        "import cipherclust, cipherclust.crypto, cipherclust.index, cipherclust.search\n"
        "import cipherclust.clustering, cipherclust.cli, cipherclust.evaluation\n"
        + REPORT_NUMERIC
    )
    assert run_python(code) == []


@pytest.mark.parametrize("extra", [[], ["--no-prune"]])
def test_search_command_loads_neither_numpy_nor_scipy(run_dir, extra):
    code = "import json, sys\nfrom cipherclust.cli import main\nassert main(sys.argv[1:]) == 0\n" + REPORT_NUMERIC
    args = ["search", "--query", "garlic sauce", "--clusters", str(run_dir / "clusters.jsonl"),
            "--abstracts", str(run_dir / "abstracts.jsonl"), "--identity", *extra]
    assert run_python(code, *args) == []


@pytest.mark.parametrize("command", ["evaluate search", "evaluate tsap", "evaluate compare"])
def test_evaluation_file_commands_load_neither_numpy_nor_scipy(run_dir, tmp_path, command):
    if command == "evaluate search":
        args = ["--queries", str(DATA_DIR / "queries.tsv"), "--clusters", str(run_dir / "clusters.jsonl"),
                "--abstracts", str(run_dir / "abstracts.jsonl"), "--identity",
                "--results", str(tmp_path / "results.tsv"), "--out", str(tmp_path / "report.json")]
    elif command == "evaluate tsap":
        (tmp_path / "results.tsv").write_text("q1\t1\tdoc01\t5\n")
        (tmp_path / "judgments.tsv").write_text("q1\tdoc01\t2\n")
        args = ["--results", str(tmp_path / "results.tsv"), "--judgments", str(tmp_path / "judgments.tsv")]
    else:
        digests = {"corpus_sha256": "c", "embeddings_sha256": "e"}
        (tmp_path / "dynamic.json").write_text(json.dumps({"overall": 0.5, **digests}))
        (tmp_path / "static.json").write_text(json.dumps({"overall": 0.4, **digests}))
        args = ["--dynamic", str(tmp_path / "dynamic.json"), "--static", str(tmp_path / "static.json")]
    code = "import json, sys\nfrom cipherclust.cli import main\nassert main(sys.argv[1:]) == 0\n" + REPORT_NUMERIC
    assert run_python(code, *command.split(), *args) == []


@pytest.mark.parametrize("command", ["pipeline", "cluster", "estimate-k", "evaluate coherence"])
def test_numeric_commands_load_numpy_before_the_freeze_and_never_scipy(run_dir, tmp_path, command):
    args = {
        "pipeline": ["--corpus", str(DATA_DIR / "mini_corpus"), "--identity", "--out", str(tmp_path / "run")],
        "cluster": ["--index", str(run_dir / "index.tsv"), "--k", "2", "--out", str(tmp_path / "c.jsonl")],
        "estimate-k": ["--index", str(run_dir / "index.tsv")],
        "evaluate coherence": ["--clusters", str(run_dir / "clusters.jsonl"),
                               "--embeddings", str(DATA_DIR / "synthetic_embeddings.txt")],
    }[command]
    assert run_python(RECORD_LOADED, *command.split(), *args) == {"rc": 0, "end": ["numpy"]}


def test_dump_matrices_loads_scipy(run_dir, tmp_path):
    args = ["estimate-k", "--index", str(run_dir / "index.tsv"), "--dump-matrices", str(tmp_path / "m")]
    got = run_python(RECORD_LOADED, *args)
    assert got == {"rc": 0, "end": ["numpy", "scipy", "scipy.sparse"]}
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["A.tsv", "C.tsv", "N.tsv", "R.tsv", "S.tsv"]
