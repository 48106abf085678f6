"""Command-line front end.

Subcommands: build-index, estimate-k, cluster, abstracts, search, evaluate
(coherence | search | tsap | compare), pipeline. Stages talk to each other
only through the documented file formats, so any stage can be re-run or
replaced on its own. Each command reads its settings through _config:
defaults, then the config file (--config or CLUSTCRYPT_CONFIG), then flags.

Only the numeric commands (estimate-k, cluster, evaluate coherence,
pipeline) load numpy, through the functions they call; the others never
do. scipy is loaded only by estimate-k --dump-matrices, the one command
that forms the whole A -> N -> R -> S -> C chain.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from .clustering import cluster_index, read_clusters, write_clusters
from .config import PipelineConfig, coerce, load_config
from .crypto import (
    IdentityTokenCodec,
    KeyedTokenCodec,
    TokenCodec,
    encrypt_query,
    load_key,
)
from .index import (
    DEFAULT_STOPWORDS,
    build_index_from_corpus,
    index_digest,
    ingest,
    keyword_records,
    load_stopwords,
    read_index,
    trim,
    write_index,
    write_lines,
)
from .search import (
    build_abstracts,
    check_pairing,
    format_results,
    prune,
    read_abstracts,
    search,
    write_abstracts,
)

class CLIError(ValueError):
    pass


# each integer flag and the config field whose rule reads it
FLAG_FIELDS = {"--n": "keywords_per_doc", "--a": "abstract_size", "--abstract-size": "abstract_size",
               "--c": "prune_width", "--top": "cutoff", "--k": "k_mode"}


def _add_setting_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    parser.add_argument("--config", metavar="FILE")
    for flag in flags:
        name = FLAG_FIELDS[flag]
        parser.add_argument(flag, help=f"config key {name} (default {getattr(PipelineConfig, name)})")


def _flag_values(args) -> dict:
    """{field: value} for each integer flag given, read as a config file value is; errors name the flag."""
    given = ((flag, name, getattr(args, flag[2:].replace("-", "_"), None)) for flag, name in FLAG_FIELDS.items())
    return {name: coerce(name, raw, flag) for flag, name, raw in given if raw is not None}


def _config(args) -> PipelineConfig:
    """Defaults, then the config file (--config, else CLUSTCRYPT_CONFIG), then the flags; --key/--identity set codec."""
    codec = "identity" if getattr(args, "identity", False) else ("keyed" if getattr(args, "key", None) else None)
    return load_config(getattr(args, "config", None), {**_flag_values(args), "codec": codec})


def _codec(args, config: PipelineConfig) -> TokenCodec:
    if config.codec == "identity":
        return IdentityTokenCodec()
    if not args.key:
        raise CLIError("either --key <file> or --identity is required")
    return KeyedTokenCodec(load_key(args.key))


def _add_codec_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--key", metavar="PATH", help="key file: 32 raw bytes or 64 hex chars")
    group.add_argument(
        "--identity", action="store_true", help="identity codec (evaluation mode, readable tokens)"
    )


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> str:
    return write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _emit(obj, out: str | None) -> None:
    """Write a JSON report to the file out, or to stdout when out is None."""
    if out:
        _write_json(Path(out), obj)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _build_index(args, config: PipelineConfig, digest=None):
    """The index of --corpus or --keywords, refused if empty; a given digest is fed the corpus files as read."""
    for flag, given in (("--n", args.n), ("--stopwords", args.stopwords)):
        if args.keywords and given is not None:
            raise CLIError(f"{flag} applies to --corpus only: a keyword file's terms are indexed as given")
    codec = _codec(args, config)
    if args.corpus:
        stop = load_stopwords(args.stopwords) if args.stopwords else DEFAULT_STOPWORDS
        index = build_index_from_corpus(args.corpus, codec, config.keywords_per_doc, stop, digest)
    else:
        index = ingest(keyword_records(args.keywords), codec.encrypt_token)
    if not index.entries:
        raise CLIError(f"{args.corpus or args.keywords}: no document holds a keyword, so there is no index to build")
    return index


def cmd_build_index(args) -> int:
    index = _build_index(args, _config(args))
    write_index(index, args.out)
    return 0


def cmd_estimate_k(args) -> int:
    from .matrices import (
        dump_matrices,
        estimate_k_from_diagonal,
        frequency_matrix,
        matrix_pipeline,
        separation_diagonal,
    )

    trimmed = trim(read_index(args.index))
    est = estimate_k_from_diagonal(separation_diagonal(frequency_matrix(trimmed.index, trimmed.kept)))
    if args.dump_matrices:
        dump_matrices(matrix_pipeline(trimmed), args.dump_matrices)
    print(f"m={est.m} trace={est.trace:.12g} k={est.k}")
    return 0


def _warn_k_shortfall(clusters) -> None:
    """One JSON line on stderr when fewer clusters were formed than targeted; artifacts are unchanged.

    Fewer form only when fewer centers are admitted than targeted, so every
    admitted center is a cluster's center. The line says why admission
    stopped: the documents the centers' postings cover, out of all the
    index's documents, and the rule that a token is admitted only while more
    of its documents lie outside that coverage than inside.
    """
    target, used = clusters.k_requested, clusters.k_used
    if used < target:
        entries = clusters.index.entries
        covered = len(set().union(*(entries[cluster.center] for cluster in clusters.clusters)))
        total = len(clusters.index.docs)
        message = (f"{used} of {target} target clusters formed: only {used} "
                   f"{'center was' if used == 1 else 'centers were'} admitted, covering {covered} of {total} "
                   "documents; a token is admitted only while more of its documents lie outside the covered "
                   "ones than inside")
        if used == 1:
            message += "; every token is in one cluster, so pruning cannot narrow a search"
        warning = {"warning": "KShortfall", "message": message, "k_target": target, "k_used": used,
                   "single_cluster": used == 1, "docs_covered": covered, "docs_total": total}
        print(json.dumps(warning), file=sys.stderr)


def cmd_cluster(args) -> int:
    index = read_index(args.index)
    clusters, _ = cluster_index(index, k=_config(args).k_mode)
    _warn_k_shortfall(clusters)
    write_clusters(clusters, args.out)
    return 0


def cmd_abstracts(args) -> int:
    clusters = read_clusters(args.clusters)
    abstracts = build_abstracts(clusters, _config(args).abstract_size)
    write_abstracts(abstracts, args.out)
    return 0


def cmd_search(args) -> int:
    config = _config(args)
    codec = _codec(args, config)
    clusters = read_clusters(args.clusters)
    tokens = encrypt_query(codec, args.query)
    if args.no_prune:
        selected = range(clusters.k_used)
    else:
        abstracts = read_abstracts(args.abstracts)
        check_pairing(abstracts, clusters, args.abstracts)
        selected = prune(tokens, abstracts, config.prune_width)
    result = search(tokens, clusters, selected, config.cutoff)
    sys.stdout.write(format_results(result))
    return 0


def cmd_evaluate_coherence(args) -> int:
    from . import evaluation

    clusters = read_clusters(args.clusters)
    table = evaluation.load_embeddings(args.embeddings)
    _emit(asdict(evaluation.coherence_report(clusters, table)), args.out)
    return 0


def cmd_evaluate_search(args) -> int:
    from . import evaluation

    config = _config(args)
    codec = _codec(args, config)
    clusters = read_clusters(args.clusters)
    abstracts = read_abstracts(args.abstracts)
    check_pairing(abstracts, clusters, args.abstracts)
    queries = evaluation.load_queries(args.queries)
    results, timings = evaluation.run_benchmark(queries, clusters, abstracts, codec, config.prune_width, config.cutoff)
    evaluation.write_results_file(results, args.results)
    report = evaluation.EvaluationReport(search_times=timings, corpus_sha256=index_digest(clusters.index))
    _emit(asdict(report), args.out)
    return 0


def cmd_evaluate_tsap(args) -> int:
    from . import evaluation

    ranked = evaluation.read_results_file(args.results)
    judgments = evaluation.load_judgments(args.judgments)
    # every query the results or the judgments name; a judged query with no ranked document scores 0.0
    query_ids = dict.fromkeys([*ranked, *(q for q, _ in judgments)])
    scores = [evaluation.TsapScore(q, evaluation.tsap_at_10(ranked.get(q, []), judgments, q)) for q in query_ids]
    _emit(asdict(evaluation.EvaluationReport(tsap_per_query=scores)), args.out)
    return 0


def cmd_evaluate_compare(args) -> int:
    from . import evaluation

    dynamic = evaluation.EvaluationReport.load(args.dynamic)
    static = evaluation.EvaluationReport.load(args.static)
    _emit(evaluation.compare(dynamic, static), args.out)
    return 0


def cmd_pipeline(args) -> int:
    """Build and write every artifact, check the run, and write a manifest of the artifacts' digests.

    No artifact is parsed: the built objects are checked, and each file must hash to the digest its
    writer returned. The round trips of tests/test_formats.py show each reader parses what its writer wrote.
    """
    config = _config(args)
    corpus_digest = hashlib.sha256()
    index = _build_index(args, config, corpus_digest)
    input_sha256 = corpus_digest.hexdigest() if args.corpus else _file_sha256(Path(args.keywords))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / "index.tsv"
    written = {index_path: write_index(index, index_path)}

    clusters, est = cluster_index(index, k=config.k_mode)
    _warn_k_shortfall(clusters)
    clusters_path = out_dir / "clusters.jsonl"
    written[clusters_path] = write_clusters(clusters, clusters_path)

    abstracts = build_abstracts(clusters, config.abstract_size)
    abstracts_path = out_dir / "abstracts.jsonl"
    written[abstracts_path] = write_abstracts(abstracts, abstracts_path)

    k_report = {
        "m": est.m,
        "trace": est.trace,
        "k_estimate": est.k,
        "k_mode": config.k_mode,
        "k_target": clusters.k_requested,
        "k_used": clusters.k_used,
    }
    k_report_path = out_dir / "k_report.json"
    written[k_report_path] = _write_json(k_report_path, k_report)

    _check_run(index, clusters, abstracts, abstracts_path, config)
    for path, digest in written.items():
        if _file_sha256(path) != digest:
            raise CLIError(f"{path}: the file differs from the bytes written to it")

    manifest = {
        "config": asdict(config),
        "input": {"path": str(args.corpus or args.keywords), "sha256": input_sha256},
        "artifacts": {path.name: digest for path, digest in written.items()},
        "k": k_report,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return 0


def _validate_artifacts(index, index_path, clusters_path, abstracts_path, config) -> None:
    """Re-read every artifact through its reader and run pipeline's checks on what was read.

    pipeline no longer calls this (see cmd_pipeline); it is kept for
    perfbench/child.py's cli.validate span and for its own tests. A reader's
    fault anywhere in its file comes before any mismatch with the built index.
    """
    if read_index(index_path) != index:
        raise CLIError("index file round-trip mismatch")
    _check_run(index, read_clusters(clusters_path), read_abstracts(abstracts_path), abstracts_path, config)


def _check_run(index, clusters, abstracts, path, config) -> None:
    """Check that the clusters partition the index's tokens and hold its postings, and that the abstracts
    pair with the clusters and keep to config.abstract_size; path names the abstracts in messages."""
    if b"" in index.entries:
        raise CLIError("the index holds an empty token, which no reader reads")
    if clusters.cluster_of.keys() != index.entries.keys():
        raise CLIError("clusters file does not partition the index tokens")
    if clusters.index != index:
        raise CLIError("clusters file postings differ from the index")
    check_pairing(abstracts, clusters, path)
    if any(n > config.abstract_size for n in Counter(abstracts.cluster.values()).values()):
        raise CLIError("abstract exceeds the configured size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cipherclust",
        description="Cluster an encrypted keyword index and search it with cluster pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="extract keywords and build the encrypted index")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", metavar="DIR", help="directory of .txt documents")
    src.add_argument("--keywords", metavar="FILE", help="pre-extracted keyword TSV")
    _add_codec_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")
    _add_setting_flags(p, "--n")
    p.add_argument("--stopwords", metavar="FILE", help="stopwords file, split into words as documents are")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("estimate-k", help="estimate the cluster count from an index")
    p.add_argument("--index", required=True, metavar="FILE")
    p.add_argument("--dump-matrices", metavar="DIR")
    p.set_defaults(func=cmd_estimate_k)

    p = sub.add_parser("cluster", help="select centers and distribute tokens")
    p.add_argument("--index", required=True, metavar="FILE")
    _add_setting_flags(p, "--k")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("abstracts", help="build per-cluster abstracts")
    p.add_argument("--clusters", required=True, metavar="FILE")
    _add_setting_flags(p, "--a")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_abstracts)

    p = sub.add_parser("search", help="run one query against the clustered index")
    p.add_argument("--query", required=True)
    p.add_argument("--clusters", required=True, metavar="FILE")
    p.add_argument("--abstracts", metavar="FILE")
    _add_codec_flags(p)
    _add_setting_flags(p, "--c", "--top")
    p.add_argument("--no-prune", action="store_true", help="search every cluster")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="evaluation harness")
    esub = p.add_subparsers(dest="evaluate_command", required=True)

    pe = esub.add_parser("coherence", help="embedding-based cluster coherency")
    pe.add_argument("--clusters", required=True, metavar="FILE")
    pe.add_argument("--embeddings", required=True, metavar="FILE")
    pe.add_argument("--out", metavar="FILE")
    pe.set_defaults(func=cmd_evaluate_coherence)

    pe = esub.add_parser("search", help="search every query pruned and in full; write results and timings")
    pe.add_argument("--queries", required=True, metavar="FILE")
    pe.add_argument("--clusters", required=True, metavar="FILE")
    pe.add_argument("--abstracts", required=True, metavar="FILE")
    _add_codec_flags(pe)
    _add_setting_flags(pe, "--c", "--top")
    pe.add_argument("--results", required=True, metavar="FILE", help="results TSV for evaluate tsap")
    pe.add_argument("--out", metavar="FILE")
    pe.set_defaults(func=cmd_evaluate_search)

    pe = esub.add_parser("tsap", help="TSAP@10 relevance scores")
    pe.add_argument("--results", required=True, metavar="FILE")
    pe.add_argument("--judgments", required=True, metavar="FILE")
    pe.add_argument("--out", metavar="FILE")
    pe.set_defaults(func=cmd_evaluate_tsap)

    pe = esub.add_parser("compare", help="dynamic-k vs static-k coherency of two coherence reports")
    pe.add_argument("--dynamic", required=True, metavar="FILE")
    pe.add_argument("--static", required=True, metavar="FILE")
    pe.add_argument("--out", metavar="FILE")
    pe.set_defaults(func=cmd_evaluate_compare)

    p = sub.add_parser("pipeline", help="run the whole pipeline and write a manifest")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", metavar="DIR")
    src.add_argument("--keywords", metavar="FILE")
    _add_codec_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    _add_setting_flags(p, "--k", "--n", "--abstract-size", "--c", "--top")
    p.add_argument("--stopwords", metavar="FILE", help="stopwords file, split into words as documents are")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        if not args.no_prune and not args.abstracts:
            parser.error("search needs --abstracts unless --no-prune is given")
        for flag, given in (("--abstracts", args.abstracts), ("--c", args.c)):
            if args.no_prune and given is not None:
                parser.error(f"{flag} applies to a pruned search only: --no-prune searches every cluster")
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        # every domain error (config, crypto, index, matrix, clustering,
        # evaluation) is a ValueError subclass
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
