#!/usr/bin/env python3
"""Build-and-serve benchmark for cipherclust.

    python3 perfbench/run.py --workload topics-keywords --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from `src/` in fresh
child processes; nothing needs installing. One run generates the workload's
inputs from the seed (outside every metric), then

  --trace 0: times interpreter set-up, one `cipherclust pipeline` build and one
             serve process (load clusters + abstracts, then a closed loop of
             queries for --seconds seconds, in whole rounds) and prints the
             end-to-end metrics;
  --trace 1: builds and serves again through the benchmark's own calls into
             each module, with a span around each call, and prints the
             per-layer metrics; spans and counters go to
             .perfbench/<workload>/trace.jsonl.

Either way every output is checked (see oracle.py) and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

PRUNE_WIDTH, CUTOFF, ABSTRACT_SIZE = 3, 10, 100  # the program's defaults
# Each end-to-end run makes CYCLES passes of (set-up processes, one build, one
# serve process that serves 1/CYCLES of the query time), so the samples of
# every metric are spread over the whole run. This machine switches between a
# fast and a slow state (up to 2x apart) for seconds at a time. A median of a
# few samples then flips between the two speeds from run to run, while a mean
# moves in proportion to the time spent in each, so the timings below are
# means of samples, and latency percentiles are taken per round or per process
# and then averaged.
CYCLES = 4
SETUPS_PER_CYCLE = 2
LOADS_PER_CYCLE = 2
MIN_QUERIES = 1_000  # per serve process: its p99 needs ten samples beyond it
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "build_s": "s", "build_peak_mb": "MB", "artifact_mb": "MB", "load_s": "s",
    "serve_mb": "MB", "query_p50_ms": "ms", "query_p99_ms": "ms", "query_qps": "1/s",
    "tsap10": "ratio", "recall10": "ratio", "coherence": "ratio",
}
PER_LAYER = {
    "crypto.encrypt_s": "s", "crypto.query_encrypt_ms": "ms", "index.input_s": "s", "index.ingest_s": "s",
    "index.write_s": "s", "index.trim_s": "s", "matrices.pipeline_s": "s", "matrices.peak_mb": "MB",
    "matrices.estimate_k_s": "s", "clustering.centers_s": "s", "clustering.distribute_s": "s",
    "clustering.distribute_peak_mb": "MB", "clustering.write_s": "s", "search.abstracts_s": "s",
    "search.abstracts_write_s": "s", "cli.validate_s": "s", "clustering.read_s": "s",
    "search.abstracts_read_s": "s", "clustering.read_mb": "MB", "search.prune_ms": "ms",
    "search.search_ms": "ms", "search.search_p99_ms": "ms", "search.fullscan_ms": "ms",
    "trace.build_spans_s": "s", "clustering.pairs_scored": "count", "clustering.pairs_cooccurring": "count",
    "clustering.pair_yield": "ratio", "search.abstract_entries_per_query": "count",
    "search.cluster_tokens_per_query": "count", "search.query_tokens_found_per_query": "count",
    "search.token_scan_yield": "ratio", "search.postings_per_query": "count",
    "search.clusters_per_query": "count", "search.fallback_queries": "count",
}
BUILD_SPANS = {
    "crypto.encrypt_s": "crypto.encrypt", "index.input_s": "index.input", "index.ingest_s": "index.ingest",
    "index.write_s": "index.write", "index.trim_s": "index.trim", "matrices.pipeline_s": "matrices.pipeline",
    "matrices.estimate_k_s": "matrices.estimate_k", "clustering.centers_s": "clustering.centers",
    "clustering.distribute_s": "clustering.distribute", "clustering.write_s": "clustering.write",
    "search.abstracts_s": "search.abstracts", "search.abstracts_write_s": "search.abstracts_write",
    "cli.validate_s": "cli.validate",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONNOUSERSITE="1")
    return env


def _timeout(signum, frame):
    raise BenchError(f"a child process ran longer than {CHILD_TIMEOUT_S} s")


def run_child(args: list[str]) -> tuple[float, float]:
    """Run one child to completion; return (wall seconds, peak RSS in MB)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as err:  # the run writes only inside the checkout
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=_child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
        except BenchError:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            message = err.read().decode(errors="replace").strip()[-2000:]
            raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {message}")
    return wall, usage.ru_maxrss * 1024 / 1e6


def machine_loop_ms() -> float:
    """A fixed pure-Python loop outside the program: a reading of machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def prepare(workload: str, seed: int) -> tuple[workloads.Inputs, Path, list[str], Path]:
    inputs = workloads.generate(workload, seed)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_args = workloads.write_inputs(inputs, work)
    key = work / "key"
    key.write_bytes(workloads.key_bytes(seed))
    # compile once so no timed process pays for writing bytecode
    run_child(["-m", "compileall", "-q", str(SRC), str(HERE)])
    return inputs, work, input_args, key


def build(input_args: list[str], key: Path, out: Path) -> tuple[float, float]:
    gc.collect()
    return run_child(["-m", "cipherclust.cli", "pipeline", *input_args, "--key", str(key), "--out", str(out)])


def serve(inputs, key: Path, out: Path, work: Path, seconds: float, traced: bool, check: bool) -> dict:
    """One serve process: load, an untimed round (checked if `check`), then timed rounds."""
    job = {
        "key": str(key), "queries": [q.text for q in inputs.queries], "prune_width": PRUNE_WIDTH,
        "cutoff": CUTOFF, "clusters": str(out / "clusters.jsonl"), "abstracts": str(out / "abstracts.jsonl"),
        "loads": LOADS_PER_CYCLE, "seconds": seconds, "check": check, "result": str(work / "serve.json"),
        "min_queries": MIN_QUERIES,
        "trace_file": str(work / "trace-serve.jsonl"),
    }
    (work / "serve-job.json").write_text(json.dumps(job))
    gc.collect()
    run_child([str(HERE / "child.py"), "trace-serve" if traced else "serve", str(work / "serve-job.json")])
    return json.loads((work / "serve.json").read_text())


def trace_build(input_args, key: Path, work: Path) -> dict:
    job = {
        "key": str(key), "out": str(work / "traced"), "keywords_per_doc": workloads.KEYWORDS_PER_DOC,
        "abstract_size": ABSTRACT_SIZE, "corpus": input_args[1] if input_args[0] == "--corpus" else None,
        "keywords": input_args[1] if input_args[0] == "--keywords" else None,
        "trace_file": str(work / "trace-build.jsonl"), "result": str(work / "trace-build.json"),
    }
    (work / "build-job.json").write_text(json.dumps(job))
    gc.collect()
    run_child([str(HERE / "child.py"), "trace-build", str(work / "build-job.json")])
    return json.loads((work / "trace-build.json").read_text())


def _p(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Phases:
    """Wall time of each phase, with a machine-speed reading taken after each."""

    def __init__(self) -> None:
        self.walls: list[tuple[str, float]] = []
        self.speed: list[float] = []
        self.last = time.perf_counter()

    def mark(self, name: str) -> None:
        self.walls.append((name, time.perf_counter() - self.last))
        self.speed.append(machine_loop_ms())
        self.last = time.perf_counter()


def end_to_end(inputs, work, input_args, key, seconds, phases) -> tuple[dict, dict, list[str]]:
    out = work / "out"
    run_child(["-c", "import cipherclust"])  # warm the file cache
    setups, builds, slices = [], [], []
    for cycle in range(CYCLES):
        setups += [run_child([str(HERE / "child.py"), "setup", str(key)])[0] for _ in range(SETUPS_PER_CYCLE)]
        phases.mark(f"setup{cycle}")
        dest = work / f"out{cycle}" if cycle else out
        builds.append(build(input_args, key, dest))
        if cycle:
            for name in ("index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl", "manifest.json"):
                if (dest / name).read_bytes() != (out / name).read_bytes():
                    raise BenchError(f"two builds of the same input wrote different {name}")
            shutil.rmtree(dest)
        phases.mark(f"build{cycle}")
        slices.append(serve(inputs, key, out, work, seconds / CYCLES, traced=False, check=cycle == 0))
        phases.mark(f"serve{cycle}")
    n = len(inputs.queries)
    round_p50 = [statistics.median(s["latency_ns"][i:i + n]) / 1e6
                 for s in slices for i in range(0, len(s["latency_ns"]), n)]
    load_s = [x for s in slices for x in s["load_s"]]
    queries = sum(len(s["latency_ns"]) for s in slices)
    metrics = dict(
        setup_s=statistics.fmean(setups), build_s=statistics.fmean(b for b, _ in builds),
        build_peak_mb=statistics.fmean(m for _, m in builds),
        artifact_mb=sum(p.stat().st_size for p in out.iterdir()) / 1e6,
        load_s=statistics.fmean(load_s), serve_mb=slices[0]["serve_bytes"] / 1e6,
        query_p50_ms=statistics.fmean(round_p50),
        query_p99_ms=_p([ns / 1e6 for s in slices for ns in s["latency_ns"]], 99),
        query_qps=queries / sum(x for s in slices for x in s["round_s"]),
    )
    served = {"checked": slices[0]["checked"], "rounds": len(round_p50)}
    notes = [f"queries timed: {queries} in {len(round_p50)} rounds of {n}, {CYCLES} serve processes",
             "setup_s samples: " + " ".join(f"{x:.4f}" for x in setups),
             "build_s samples: " + " ".join(f"{b:.4f}" for b, _ in builds),
             "load_s samples: " + " ".join(f"{x:.4f}" for x in load_s),
             "query_p50_ms per round: " + " ".join(f"{x:.3f}" for x in round_p50)]
    return metrics, served, notes


def traced(inputs, work, input_args, key, seconds, phases) -> tuple[dict, dict, list[str]]:
    build_s, _ = build(input_args, key, work / "out")
    phases.mark("build")
    built = trace_build(input_args, key, work)
    phases.mark("trace-build")
    served = serve(inputs, key, work / "out", work, seconds, traced=True, check=True)
    phases.mark("trace-serve")
    spans = built["spans_s"]
    metrics = {name: spans[span] for name, span in BUILD_SPANS.items()}
    metrics.update(built["peaks_mb"])
    metrics["trace.build_spans_s"] = sum(spans.values())
    metrics["clustering.read_s"] = served["load_s"]["clustering.read"]
    metrics["search.abstracts_read_s"] = served["load_s"]["search.abstracts_read"]
    metrics["clustering.read_mb"] = served["counters"]["clustering.read_mb"]
    per_call = {name: [ns / 1e6 for ns in v] for name, v in served["span_ns"].items()}
    metrics["crypto.query_encrypt_ms"] = statistics.median(per_call["crypto.encrypt_query"])
    metrics["search.prune_ms"] = statistics.median(per_call["search.prune"])
    metrics["search.search_ms"] = statistics.median(per_call["search.search"])
    metrics["search.search_p99_ms"] = _p(per_call["search.search"], 99)
    metrics["search.fullscan_ms"] = statistics.median(per_call["search.fullscan"])
    notes = [f"tracing overhead: build spans {metrics['trace.build_spans_s']:.3f} s "
             f"against the untraced pipeline's {build_s:.3f} s in this run",
             f"queries traced: {served['rounds'] * len(inputs.queries)} in {served['rounds']} rounds"]
    return metrics, served, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cipherclust build-and-serve benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cipherclust" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}/cipherclust", file=sys.stderr)
        return 2

    try:
        phases = Phases()
        inputs, work, input_args, key = prepare(args.workload, args.seed)
        phases.mark("prepare")
        run = traced if args.trace else end_to_end
        metrics, served, notes = run(inputs, work, input_args, key, args.seconds, phases)
        out = work / "out"
        exp = oracle.Expected(inputs, workloads.key_bytes(args.seed))
        failures, facts = oracle.check_artifacts(exp, out, ABSTRACT_SIZE, args.seed)
        query_failures, failed_flags, quality = oracle.check_queries(exp, served["checked"], CUTOFF)
        failures += query_failures
        if inputs.spec.text:
            failures += oracle.check_extraction(inputs, args.seed)
        if args.trace:
            for name in ("index.tsv", "clusters.jsonl", "abstracts.jsonl"):
                if (work / "traced" / name).read_bytes() != (out / name).read_bytes():
                    failures.append(f"traced build wrote a different {name} than the pipeline command")
            counters = oracle.work_counters(exp, facts, served["checked"])
            metrics.update(counters)
            _merge_trace(work, counters)
            notes.append(f"trace file: {(work / 'trace.jsonl').relative_to(ROOT)}")
            units = PER_LAYER
        else:
            metrics.update(quality, coherence=oracle.coherence(exp, facts["members"]))
            units = END_TO_END
        phases.mark("checks")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = served["rounds"]
    attempted = rounds * len(inputs.queries)
    failed = rounds * sum(failed_flags)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("phase wall s: " + " ".join(f"{name}={wall:.2f}" for name, wall in phases.walls))
    print("machine_loop_ms after each phase (a fixed loop outside the program, not divided into "
          "any metric): " + " ".join(f"{x:.2f}" for x in phases.speed))
    for note in notes:
        print(note)
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(f"attempted {attempted} failed {failed} (failed: punctuated queries, tokenized apart from the index)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("checks: " + ("all passed" if not failures else f"{len(failures)} failed"))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _merge_trace(work: Path, counters: dict) -> None:
    with (work / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for part in ("trace-build.jsonl", "trace-serve.jsonl"):
            fh.write((work / part).read_text(encoding="utf-8"))
            (work / part).unlink()
        for name, value in counters.items():
            fh.write(json.dumps({"counter": name, "trace": "serve", "value": value}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
