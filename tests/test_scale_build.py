"""scripts/scale_build.py, the build-at-scale measurement, run at scale 1 so a rename it depends on fails here."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_build.py"


def test_reports_the_build_it_ran_in_one_json_line():
    run = subprocess.run([sys.executable, str(SCRIPT), "--scale", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    [line] = run.stdout.splitlines()
    report = json.loads(line)
    # seed-7 topics-keywords: 4,000 documents of 20 keywords each, 50 clusters
    assert (report["scale"], report["postings"], report["k_used"]) == (1, 80_000, 50)
    assert 0 < report["tokens"] < report["postings"]
    assert report["wall_s"] > 0 and report["vmhwm_mb"] > 0
    assert sorted(report["sha256"]) == ["abstracts.jsonl", "clusters.jsonl", "index.tsv", "k_report.json"]
