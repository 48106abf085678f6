"""scripts/scale_build.py, the build-at-scale measurement, run at scale 1 so a rename it depends on fails here."""
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_build.py"


def scale_build(**env: str) -> dict:
    """The one JSON line of a scale-1 run; env is added to this process's environment, which the build inherits."""
    run = subprocess.run([sys.executable, str(SCRIPT), "--scale", "1"],
                         capture_output=True, text=True, timeout=300, env={**os.environ, **env})
    assert run.returncode == 0, run.stderr
    [line] = run.stdout.splitlines()
    return json.loads(line)


def test_reports_the_build_it_ran_in_one_json_line():
    report = scale_build()
    # seed-7 topics-keywords: 4,000 documents of 20 keywords each, 50 clusters
    assert (report["scale"], report["postings"], report["k_used"]) == (1, 80_000, 50)
    assert 0 < report["tokens"] < report["postings"]
    assert report["wall_s"] > 0 and report["vmhwm_mb"] > 0
    # the built clusters and abstracts, loaded in a child of their own: a traced peak is at least what is kept
    assert report["load_s"] > 0 and 0 < report["load_held_mb"] <= report["load_peak_mb"]
    assert sorted(report["sha256"]) == ["abstracts.jsonl", "clusters.jsonl", "index.tsv", "k_report.json"]


def test_artifacts_do_not_depend_on_the_hash_seed():
    assert scale_build(PYTHONHASHSEED="1")["sha256"] == scale_build(PYTHONHASHSEED="2")["sha256"]
