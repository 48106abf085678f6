#!/usr/bin/env python3
"""Show that every output check rejects a planted wrong output.

    python3 perfbench/selftest.py

Builds and serves a small version of each workload with the real program,
checks that all checks pass, then plants one fault per check in a copy of
the outputs and reports whether that check rejects it. Exits 1 if a planted
fault goes unnoticed or the clean outputs fail a check.
"""
from __future__ import annotations

import base64
import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run
import oracle
import workloads

SMALL = {
    "topics-keywords": dict(docs=600, topics=12, topic_vocab=120, background_vocab=300),
    "background-text": dict(docs=300, topics=20, topic_vocab=60, background_vocab=400),
}


def _rewrite_jsonl(path: Path, edit) -> None:
    rows = oracle.read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows), encoding="utf-8")


def _artifact_faults(exp: oracle.Expected, out: Path):
    """(name, expected failure text, function that plants the fault in a copy of out)."""
    clusters = oracle.read_jsonl(out / "clusters.jsonl")
    big = max(range(len(clusters)), key=lambda i: len(clusters[i]["tokens"]))

    def index_freq(d: Path):
        lines = (d / "index.tsv").read_text().splitlines()
        token, postings = lines[0].split("\t")
        first, sep, rest = postings.partition(",")
        doc, freq = first.rsplit(":", 1)
        lines[0] = f"{token}\t{doc}:{int(freq) + 1}{sep}{rest}"
        (d / "index.tsv").write_text("\n".join(lines) + "\n")

    def k_plus_one(d: Path):
        report = json.loads((d / "k_report.json").read_text())
        report["k_estimate"] += 1
        (d / "k_report.json").write_text(json.dumps(report))

    def swap_center(rows):
        c = rows[big]
        c["center"] = next(e["t"] for e in c["tokens"] if e["t"] != c["center"])

    def move_token(rows):
        # move a sampled token to the cluster whose center relates to it least
        centers = [base64.b64decode(r["center"]) for r in rows]
        token = oracle.assignment_sample(exp, centers, 1)[0]
        home = next(i for i, r in enumerate(rows) if oracle.b64(token) in {e["t"] for e in r["tokens"]})
        worst = min(range(len(rows)), key=lambda i: oracle.relatedness(
            exp, token, centers[i], dict(exp.postings[centers[i]])))
        entry = next(e for e in rows[home]["tokens"] if e["t"] == oracle.b64(token))
        rows[home]["tokens"].remove(entry)
        rows[worst]["tokens"].append(entry)
        rows[worst]["tokens"].sort(key=lambda e: base64.b64decode(e["t"]))

    def duplicate_token(rows):
        other = (big + 1) % len(rows)
        rows[other]["tokens"].append(rows[big]["tokens"][-1])

    def abstract_swap(rows):
        entries = rows[big]["entries"]
        entries[0], entries[-1] = entries[-1], entries[0]

    def manifest_digest(d: Path):
        manifest = json.loads((d / "manifest.json").read_text())
        digest = manifest["artifacts"]["clusters.jsonl"]
        manifest["artifacts"]["clusters.jsonl"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        (d / "manifest.json").write_text(json.dumps(manifest))

    faults = [
        ("index.tsv posting frequency +1", "index.tsv differs", index_freq),
        ("k_estimate +1", "k_estimate", k_plus_one),
        ("center replaced by a member", "centers differ",
         lambda d: _rewrite_jsonl(d / "clusters.jsonl", swap_center)),
        ("token listed in two clusters", "do not partition",
         lambda d: _rewrite_jsonl(d / "clusters.jsonl", duplicate_token)),
        ("abstract entries out of order", "top-",
         lambda d: _rewrite_jsonl(d / "abstracts.jsonl", abstract_swap)),
        ("manifest digest altered", "manifest digest", manifest_digest),
    ]
    if len(clusters) > 1:
        faults.append(("token moved to its least related center", "not assigned to its most related center",
                       lambda d: _rewrite_jsonl(d / "clusters.jsonl", move_token)))
    return faults


def _query_faults(checked: list[dict], exp: oracle.Expected):
    plain = next(i for i, q in enumerate(exp.inputs.queries)
                 if q.text.split() == q.text.lower().split() and len(checked[i]["pruned"]) >= 2)

    def edit(fn):
        def plant(rows):
            fn(rows[plain])
        return plant

    def bump_full(r):
        r["full"][0][1] += 1

    def unsort(r):
        r["pruned"][0], r["pruned"][1] = r["pruned"][1], r["pruned"][0]

    def empty(r):
        r["pruned"] = []

    def inflate(r):
        r["pruned"][0][1] += 1000

    return [
        ("unpruned score +1", "unpruned search", edit(bump_full)),
        ("pruned results swapped", "not sorted", edit(unsort)),
        ("pruned result emptied", "is empty", edit(empty)),
        ("pruned score +1000", "above brute force", edit(inflate)),
    ]


def selftest(name: str) -> bool:
    spec = dataclasses.replace(workloads.SPECS[name], **SMALL[name])
    workloads.SPECS[name] = spec
    inputs = workloads.generate(name, 1)
    work = run.WORK / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_args = workloads.write_inputs(inputs, work)
    key = work / "key"
    key.write_bytes(workloads.key_bytes(1))
    out = work / "out"
    run.build(input_args, key, out)
    served = run.serve(inputs, key, out, work, 0, traced=False, check=True)
    exp = oracle.Expected(inputs, workloads.key_bytes(1))

    failures, _ = oracle.check_artifacts(exp, out, run.ABSTRACT_SIZE, 1)
    query_failures, failed, _ = oracle.check_queries(exp, served["checked"], run.CUTOFF)
    failures += query_failures
    if spec.text:
        failures += oracle.check_extraction(inputs, 1)
    ok = not failures
    print(f"{name}: clean outputs pass every check: {'yes' if ok else 'NO ' + str(failures)}; "
          f"failed queries {sum(failed)} of {len(failed)}")

    for label, expect, plant in _artifact_faults(exp, out):
        bad = work / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        plant(bad)
        found, _ = oracle.check_artifacts(exp, bad, run.ABSTRACT_SIZE, 1)
        caught = any(expect in f for f in found)
        ok &= caught
        print(f"  {label:42s} rejected: {'yes' if caught else 'NO'}")
    for label, expect, plant in _query_faults(served["checked"], exp):
        rows = copy.deepcopy(served["checked"])
        plant(rows)
        found, _, _ = oracle.check_queries(exp, rows, run.CUTOFF)
        caught = any(expect in f for f in found)
        ok &= caught
        print(f"  {label:42s} rejected: {'yes' if caught else 'NO'}")
    if spec.text:
        doc = inputs.doc_ids[0]
        inputs.texts[doc] = inputs.texts[doc].replace(inputs.keywords[doc][0][0], "", 1)
        caught = bool(oracle.check_extraction(inputs, 1, sample=len(inputs.doc_ids)))
        ok &= caught
        print(f"  {'generated text loses a keyword':42s} rejected: {'yes' if caught else 'NO'}")
    shutil.rmtree(work)
    return ok


if __name__ == "__main__":
    results = [selftest(name) for name in sorted(workloads.SPECS)]
    sys.exit(0 if all(results) else 1)
