#!/usr/bin/env python3
"""Build the topics-keywords benchmark input at a larger scale and report the build's own peak memory.

    python3 scripts/scale_build.py [--scale 16]

Run from anywhere; nothing needs installing. The inputs are written to a
temporary directory by perfbench/workloads.py from seed 7, with the
topics-keywords spec's documents and topics multiplied by --scale (16: 64,000
documents, 800 topics). Then `cipherclust pipeline --keywords ... --key ...`
runs in a fresh child process, which reads its own VmHWM from
/proc/self/status once the build returns. ru_maxrss is not used: at exec Linux folds the spawning process's
high-water mark into the child's, and this process holds the generated inputs.

The one line of standard output is a JSON object: tokens and postings of the
built index, k_used, the build's wall seconds, vmhwm_mb (VmHWM's kB / 1024),
and the sha256 of the four artifacts that do not record the input's path. A
failed build exits non-zero. Only wall_s and vmhwm_mb vary between runs of the
same code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORKLOAD = "topics-keywords"
SEED = 7
ARTIFACTS = ("index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl")

# the child: one pipeline build, then its wall time and its own VmHWM on stdout (the build prints nothing there)
CHILD = """
import json, sys, time
from cipherclust.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
wall_s = time.perf_counter() - start
with open("/proc/self/status") as status:
    vmhwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"wall_s": wall_s, "vmhwm_kb": vmhwm_kb}))
sys.exit(rc)
"""


def write_scaled_inputs(scale: int, work: Path) -> list[str]:
    """The pipeline's input arguments for the scaled workload, written under work."""
    spec = workloads.SPECS[WORKLOAD]
    name = f"{WORKLOAD}-x{scale}"
    # a name of its own: the benchmark's spec under WORKLOAD is left as it is
    workloads.SPECS[name] = replace(spec, docs=spec.docs * scale, topics=spec.topics * scale)
    args = workloads.write_inputs(workloads.generate(name, SEED), work)
    key = work / "key"
    key.write_bytes(workloads.key_bytes(SEED))
    return [*args, "--key", str(key)]


def index_size(path: Path) -> tuple[int, int]:
    """(tokens, postings) of an index.tsv: one token per line, its postings comma-separated."""
    tokens = postings = 0
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            tokens += 1
            postings += line.count(",") + 1
    return tokens, postings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=16, help="multiplier of documents and topics (default 16)")
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error(f"--scale must be at least 1, got {args.scale}")

    with tempfile.TemporaryDirectory(prefix="scale_build_") as tmp:
        work = Path(tmp)
        input_args = write_scaled_inputs(args.scale, work)
        out = work / "out"
        child = subprocess.run([sys.executable, "-c", CHILD, "pipeline", *input_args, "--out", str(out)],
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            print(f"pipeline exited {child.returncode}", file=sys.stderr)
            return 1
        measured = json.loads(child.stdout.splitlines()[-1])
        tokens, postings = index_size(out / "index.tsv")
        k_used = json.loads((out / "k_report.json").read_text(encoding="utf-8"))["k_used"]
        sha256 = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    print(json.dumps({
        "workload": WORKLOAD, "scale": args.scale, "tokens": tokens, "postings": postings,
        "k_used": k_used, "wall_s": round(measured["wall_s"], 3), "vmhwm_mb": round(measured["vmhwm_kb"] / 1024, 1),
        "sha256": sha256,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
