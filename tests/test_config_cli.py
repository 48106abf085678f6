import hashlib
import json
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from cipherclust.cli import main
from cipherclust.config import CONFIG_ENV, ConfigError, PipelineConfig, load_config, parse_config_file
from conftest import DATA_DIR


# config file lines that parse_config_file rejects: int() takes "1_0", "+5" and "\u0663" (ARABIC-INDIC
# DIGIT THREE), but an integer field holds ASCII digits only
BAD_FILE_LINES = [
    "keywords_per_doc = zero", "unknown_key = 1", "k_mode = -3", "cutoff = 1_0", "abstract_size = +5",
    "prune_width = \u0663", "keywords_per_doc = 5.0", "k_mode = 1_0", "k_mode = +7", "k_mode = \u0663",
    "cutoff =", "no equals sign", "codec = rsa", "cutoff = 0", "k_mode = 0",
]


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.keywords_per_doc == 20
        assert config.abstract_size == 100
        assert config.prune_width == 3
        assert config.cutoff == 10
        assert config.k_mode == "auto"
        assert config.codec == "keyed"

    @pytest.mark.parametrize("name, value, wanted", [
        ("cutoff", 0, "a positive integer"), ("cutoff", True, "a positive integer"),
        ("codec", "rsa", "'keyed' or 'identity'"), ("k_mode", "AUTO", "'auto' or a positive integer"),
    ])
    def test_an_invalid_value_is_refused_at_construction(self, name, value, wanted):
        message = f"^{name} must be {re.escape(wanted)}, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**{name: value})
        with pytest.raises(ConfigError, match=message):
            replace(PipelineConfig(), **{name: value})

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("# comment\nkeywords_per_doc = 5\nk_mode = 7\ncodec = identity\n\n")
        values = parse_config_file(path)
        assert values == {"keywords_per_doc": 5, "k_mode": 7, "codec": "identity"}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("prune_width = 9\n")
        config = load_config(str(path), {"prune_width": 2, "cutoff": None})
        assert config.prune_width == 2
        assert config.cutoff == 10

    def test_env_var_names_file(self, tmp_path, monkeypatch):
        path = tmp_path / "conf"
        path.write_text("abstract_size = 42\n")
        monkeypatch.setenv(CONFIG_ENV, str(path))
        assert load_config().abstract_size == 42

    @pytest.mark.parametrize("line", BAD_FILE_LINES)
    def test_bad_values_rejected(self, tmp_path, line):
        path = tmp_path / "conf"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("line", BAD_FILE_LINES)
    def test_file_errors_name_the_line(self, tmp_path, line):
        path = tmp_path / "conf"
        path.write_text(f"# {line}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: "):
            parse_config_file(path)

    def test_bad_file_value_rejected_under_a_flag(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("cutoff = 0\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: cutoff must be a positive integer"):
            load_config(str(path), {"cutoff": 5})

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("abstract_size = 5\n# again\nabstract_size = 7\n")
        where = re.escape(f"{path}:3: ")
        with pytest.raises(ConfigError, match=f"^{where}abstract_size is already set on line 1$"):
            parse_config_file(path)


@pytest.fixture
def key_file(tmp_path):
    path = tmp_path / "test.key"
    path.write_bytes(bytes(range(32)))
    return path


@pytest.fixture
def pipeline_dir(tmp_path, mini_corpus_dir):
    out = tmp_path / "run"
    rc = main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)])
    assert rc == 0
    return out


class TestPipelineCommand:
    def test_artifacts_exist_and_manifest_checks_out(self, pipeline_dir):
        names = ["index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl", "manifest.json"]
        for name in names:
            assert (pipeline_dir / name).exists(), name
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert manifest["config"]["codec"] == "identity"
        assert set(manifest["artifacts"]) == set(names) - {"manifest.json"}
        k_report = json.loads((pipeline_dir / "k_report.json").read_text())
        assert k_report["k_estimate"] >= 1
        assert k_report["k_used"] <= k_report["k_target"]
        cluster_lines = (pipeline_dir / "clusters.jsonl").read_text().splitlines()
        assert len(cluster_lines) == k_report["k_used"]

    def test_manifest_digests_the_corpus_as_read_once(self, tmp_path, mini_corpus_dir, monkeypatch):
        reads = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)

            def counting(path, *args, _name=name, _real=real, **kwargs):
                if path.suffix == ".txt":
                    reads.append(path.name)
                return _real(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, counting)
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)]) == 0
        monkeypatch.undo()
        docs = sorted(p for p in mini_corpus_dir.iterdir() if p.suffix == ".txt")
        assert reads == [p.name for p in docs]
        want = hashlib.sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() + b"\0" for p in docs))
        assert json.loads((out / "manifest.json").read_text())["input"]["sha256"] == want.hexdigest()

    def test_manifest_digests_a_keyword_file(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_bytes(b"d1\tnet:3,router:2\r\nd2\tnet:1\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--keywords", str(path), "--identity", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_reruns_are_byte_identical(self, tmp_path, mini_corpus_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)]) == 0
        for name in ("index.tsv", "k_report.json", "clusters.jsonl", "abstracts.jsonl", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_fixed_k_changes_only_cluster_artifacts(self, tmp_path, mini_corpus_dir, pipeline_dir):
        fixed = tmp_path / "fixed"
        assert main(
            ["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(fixed), "--k", "2"]
        ) == 0
        m_auto = json.loads((pipeline_dir / "manifest.json").read_text())
        m_fixed = json.loads((fixed / "manifest.json").read_text())
        assert m_auto["artifacts"]["index.tsv"] == m_fixed["artifacts"]["index.tsv"]
        assert m_auto["k"]["k_mode"] == "auto" and m_fixed["k"]["k_mode"] == 2
        assert m_auto["artifacts"]["clusters.jsonl"] != m_fixed["artifacts"]["clusters.jsonl"]

    @pytest.mark.parametrize("k", ["auto", "2"])
    def test_cluster_command_writes_the_pipeline_clusters(self, tmp_path, mini_corpus_dir, k):
        run = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(run), "--k", k]) == 0
        out = tmp_path / "clusters.jsonl"
        assert main(["cluster", "--index", str(run / "index.tsv"), "--k", k, "--out", str(out)]) == 0
        assert out.read_bytes() == (run / "clusters.jsonl").read_bytes()

    def test_fixed_k_reports_the_estimate(self, tmp_path, mini_corpus_dir, pipeline_dir):
        fixed = tmp_path / "fixed"
        assert main(
            ["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(fixed), "--k", "2"]
        ) == 0
        auto = json.loads((pipeline_dir / "k_report.json").read_text())
        two = json.loads((fixed / "k_report.json").read_text())
        assert two["k_target"] == 2
        for name in ("m", "trace", "k_estimate"):
            assert two[name] == auto[name], name

    def test_keyed_needs_key(self, tmp_path, mini_corpus_dir, capsys):
        rc = main(["pipeline", "--corpus", str(mini_corpus_dir), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        diagnostic = json.loads(err.splitlines()[-1])
        assert diagnostic == {"error": "CLIError", "message": "either --key <file> or --identity is required"}
        assert not (tmp_path / "x").exists()

    def test_document_named_with_a_line_separator(self, tmp_path, key_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a\u2028b.txt").write_text("router bandwidth router\n")
        (corpus / "c.txt").write_text("router cake\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(corpus), "--key", str(key_file), "--out", str(out)]) == 0
        from cipherclust.index import read_index

        assert read_index(out / "index.tsv").docs == ("a\u2028b", "c")

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["pipeline", "--corpus", str(tmp_path / "nope"), "--identity", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("missing", ["keyword file", "config file"])
    def test_a_missing_file_leaves_no_out(self, tmp_path, mini_corpus_dir, capsys, missing):
        nope = str(tmp_path / "nope")
        argv = (["--keywords", nope] if missing == "keyword file"
                else ["--corpus", str(mini_corpus_dir), "--config", nope])
        out = tmp_path / "x"
        assert main(["pipeline", *argv, "--identity", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert not out.exists()

    @pytest.mark.parametrize("given", ["corpus file", "keyword file", "stopwords file", "config file"])
    def test_a_file_not_in_utf8_is_named(self, tmp_path, mini_corpus_dir, capsys, given):
        # each holds a Latin-1 e-acute, which is no UTF-8 sequence
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.txt").write_text("router bandwidth router\n")
        bad = corpus / "bad.txt" if given == "corpus file" else tmp_path / "bad.txt"
        bad.write_bytes({"corpus file": "caf\u00e9 router\n", "keyword file": "d1\tcaf\u00e9:1\n",
                         "stopwords file": "the\ncaf\u00e9\n", "config file": "# caf\u00e9\n"}[given].encode("latin-1"))
        argv = {"corpus file": ["--corpus", str(corpus)], "keyword file": ["--keywords", str(bad)],
                "stopwords file": ["--corpus", str(mini_corpus_dir), "--stopwords", str(bad)],
                "config file": ["--corpus", str(mini_corpus_dir), "--config", str(bad)]}[given]
        out = tmp_path / "x"
        assert main(["pipeline", *argv, "--identity", "--out", str(out)]) == 1
        with pytest.raises(UnicodeDecodeError) as decoding:
            bad.read_bytes().decode("utf-8")
        assert json.loads(capsys.readouterr().err) == {"error": "IndexDataError", "message": f"{bad}: {decoding.value}"}
        assert not out.exists()


class TestKShortfall:
    """pipeline and cluster say on stderr when fewer clusters form than targeted."""

    @staticmethod
    def _warnings(capsys) -> list[dict]:
        return [json.loads(line) for line in capsys.readouterr().err.splitlines()]

    def test_pipeline_names_target_and_used(self, tmp_path, mini_corpus_dir, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)]) == 0
        k_report = json.loads((out / "k_report.json").read_text())
        assert k_report["k_used"] < k_report["k_target"]  # the mini corpus admits 6 of 9 centers
        [warning] = self._warnings(capsys)
        assert (warning["k_target"], warning["k_used"]) == (k_report["k_target"], k_report["k_used"])
        # the six centers cover 19 of the 20 documents, and no other token has more outside than inside
        assert warning == {
            "warning": "KShortfall",
            "message": "6 of 9 target clusters formed: only 6 centers were admitted, covering 19 of 20 documents; "
                       "a token is admitted only while more of its documents lie outside the covered ones than inside",
            "k_target": 9, "k_used": 6, "single_cluster": False, "docs_covered": 19, "docs_total": 20,
        }

    def test_cluster_command_warns_too(self, tmp_path, mini_corpus_dir, capsys):
        run = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(run), "--k", "50"]) == 0
        from_pipeline = self._warnings(capsys)
        assert main(["cluster", "--index", str(run / "index.tsv"), "--k", "50", "--out", str(tmp_path / "c.jsonl")]) == 0
        assert self._warnings(capsys) == from_pipeline
        assert from_pipeline[0]["k_target"] == 50

    def test_a_single_cluster_is_flagged(self, tmp_path, capsys):
        # "shared" is in every document and is admitted first; no other token then has more
        # documents outside the coverage set than inside
        kw = tmp_path / "kw.tsv"
        kw.write_text("".join(f"doc{i}\tw{i}:1,shared:2\n" for i in range(4)))
        out = tmp_path / "run"
        assert main(["pipeline", "--keywords", str(kw), "--identity", "--out", str(out), "--k", "3"]) == 0
        err = capsys.readouterr().err
        [warning] = [json.loads(line) for line in err.splitlines()]
        assert (warning["k_target"], warning["k_used"], warning["single_cluster"]) == (3, 1, True)
        assert err == json.dumps({
            "warning": "KShortfall",
            "message": "1 of 3 target clusters formed: only 1 center was admitted, covering 4 of 4 documents; "
                       "a token is admitted only while more of its documents lie outside the covered ones than "
                       "inside; every token is in one cluster, so pruning cannot narrow a search",
            "k_target": 3, "k_used": 1, "single_cluster": True, "docs_covered": 4, "docs_total": 4,
        }) + "\n"

    def test_silent_when_every_target_cluster_forms(self, tmp_path, mini_corpus_dir, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out), "--k", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestStageCommands:
    def test_build_index_from_keyword_file(self, tmp_path, key_file):
        kw = tmp_path / "kw.tsv"
        kw.write_text("doc1\tnet:3,traffic:1\ndoc2\tnet:2,book:4\n")
        index_path = tmp_path / "index.tsv"
        assert main(["build-index", "--keywords", str(kw), "--key", str(key_file),
                     "--out", str(index_path)]) == 0
        from cipherclust.index import read_index

        index = read_index(index_path)
        assert index.token_count == 3 and len(index.docs) == 2

    def test_pipeline_from_keyword_file(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("\n".join(f"doc{i}\tw{i}:3,shared:2" for i in range(6)) + "\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--keywords", str(kw), "--identity", "--out", str(out)]) == 0
        assert json.loads((out / "k_report.json").read_text())["k_used"] >= 1

    def test_keyword_file_term_is_found_by_its_query(self, tmp_path, key_file, capsys):
        kw = tmp_path / "kw.tsv"
        kw.write_text("d1\tCaf\u00e9:2,router:1\nd2\trouter:4,wifi:1\nd3\twifi:2\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pipeline", "--keywords", str(kw), "--key", str(key_file), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["search", "--query", "caf\u00e9", "--clusters", str(out / "clusters.jsonl"),
                     "--abstracts", str(out / "abstracts.jsonl"), "--key", str(key_file)]) == 0
        assert capsys.readouterr().out == "1\td1\t2\n"

    def test_stopwords_file_entries_are_split_into_words(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("don't don't apple t\n")
        stop = tmp_path / "stop.txt"
        stop.write_text("don't\n")
        index_path = tmp_path / "index.tsv"
        assert main(["build-index", "--corpus", str(corpus), "--identity", "--stopwords", str(stop),
                     "--out", str(index_path)]) == 0
        from cipherclust.index import read_index

        assert read_index(index_path).tokens() == [b"apple"]

    def test_stopword_only_document_is_in_no_index(self, tmp_path, mini_corpus_dir):
        from cipherclust.clustering import read_clusters
        from cipherclust.crypto import IdentityTokenCodec
        from cipherclust.index import build_index_from_corpus, read_index

        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        (corpus / "doc00.txt").write_text("The and of; to, the.\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(corpus), "--identity", "--out", str(out)]) == 0
        assert main(["cluster", "--index", str(out / "index.tsv"), "--out", str(tmp_path / "c.jsonl")]) == 0
        assert (tmp_path / "c.jsonl").read_bytes() == (out / "clusters.jsonl").read_bytes()
        built = build_index_from_corpus(corpus, IdentityTokenCodec(), PipelineConfig.keywords_per_doc)
        assert built.docs == read_index(out / "index.tsv").docs == read_clusters(out / "clusters.jsonl").index.docs
        assert built.docs == tuple(p.stem for p in sorted(mini_corpus_dir.iterdir()))

    def test_custom_stopwords_flag(self, tmp_path, key_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("apple apple banana widget\n")
        stop = tmp_path / "stop.txt"
        stop.write_text("apple\nwidget\n")
        index_path = tmp_path / "index.tsv"
        assert main(["build-index", "--corpus", str(corpus), "--key", str(key_file),
                     "--stopwords", str(stop), "--out", str(index_path)]) == 0
        from cipherclust.index import read_index

        assert read_index(index_path).token_count == 1  # only banana survives

    def test_build_index_then_estimate_k(self, tmp_path, mini_corpus_dir, key_file, capsys):
        index_path = tmp_path / "index.tsv"
        assert main(
            ["build-index", "--corpus", str(mini_corpus_dir), "--key", str(key_file), "--out", str(index_path)]
        ) == 0
        assert main(["estimate-k", "--index", str(index_path)]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(part.split("=") for part in out.split())
        assert set(fields) == {"m", "trace", "k"}
        assert int(fields["k"]) >= 1

    @pytest.mark.parametrize("codec", ["keyed", "identity"])
    def test_estimate_k_agrees_with_the_k_report(self, tmp_path, mini_corpus_dir, key_file, capsys, codec):
        # estimate-k forms the kept tokens' matrix itself; the pipeline selects kept rows of the whole index's
        codec_flags = ["--key", str(key_file)] if codec == "keyed" else ["--identity"]
        run = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), *codec_flags, "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["estimate-k", "--index", str(run / "index.tsv")]) == 0
        printed = dict(part.split("=") for part in capsys.readouterr().out.split())
        k_report = json.loads((run / "k_report.json").read_text())
        assert printed == {"m": str(k_report["m"]), "trace": f"{k_report['trace']:.12g}",
                           "k": str(k_report["k_estimate"])}

    @pytest.mark.parametrize("command", ["build-index", "pipeline"])
    @pytest.mark.parametrize("flag", ["--n", "--stopwords"])
    def test_corpus_only_flags_rejected_with_a_keyword_file(self, tmp_path, capsys, command, flag):
        kw = tmp_path / "kw.tsv"
        kw.write_text("d1\tnet:3,the:1,cake:2\n")
        stop = tmp_path / "stop.txt"
        stop.write_text("net\n")
        out = tmp_path / "out"
        value = "1" if flag == "--n" else str(stop)
        assert main([command, "--keywords", str(kw), "--identity", "--out", str(out), flag, value]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert json.loads(printed.err) == {
            "error": "CLIError",
            "message": f"{flag} applies to --corpus only: a keyword file's terms are indexed as given",
        }
        assert not out.exists()

    def test_keywords_per_doc_from_a_config_file_accepted_with_a_keyword_file(self, tmp_path):
        kw = tmp_path / "kw.tsv"
        kw.write_text("d1\tnet:3,the:1,cake:2\nd2\tnet:1\n")
        conf = tmp_path / "conf"
        conf.write_text("keywords_per_doc = 1\n")
        index_path, run = tmp_path / "index.tsv", tmp_path / "run"
        common = ["--keywords", str(kw), "--identity", "--config", str(conf)]
        assert main(["build-index", *common, "--out", str(index_path)]) == 0
        assert main(["pipeline", *common, "--out", str(run)]) == 0
        assert index_path.read_bytes() == (run / "index.tsv").read_bytes()
        assert json.loads((run / "manifest.json").read_text())["config"]["keywords_per_doc"] == 1

    def test_dump_matrices(self, tmp_path, mini_corpus_dir, key_file):
        index_path = tmp_path / "index.tsv"
        main(["build-index", "--corpus", str(mini_corpus_dir), "--key", str(key_file), "--out", str(index_path)])
        dump = tmp_path / "mats"
        assert main(["estimate-k", "--index", str(index_path), "--dump-matrices", str(dump)]) == 0
        assert sorted(p.name for p in dump.iterdir()) == ["A.tsv", "C.tsv", "N.tsv", "R.tsv", "S.tsv"]

    def test_cluster_abstracts_search(self, tmp_path, pipeline_dir, capsys):
        clusters = pipeline_dir / "clusters.jsonl"
        abstracts = tmp_path / "abs.jsonl"
        assert main(["abstracts", "--clusters", str(clusters), "--out", str(abstracts), "--a", "50"]) == 0
        assert main(
            ["search", "--query", "garlic sauce", "--clusters", str(clusters),
             "--abstracts", str(abstracts), "--identity", "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows, "expected at least one hit"
        assert [r[0] for r in rows] == [str(i) for i in range(1, len(rows) + 1)]
        scores = [int(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_search_no_prune(self, pipeline_dir, capsys):
        assert main(
            ["search", "--query", "router bandwidth", "--clusters", str(pipeline_dir / "clusters.jsonl"),
             "--identity", "--no-prune"]
        ) == 0
        assert capsys.readouterr().out.strip()

    def test_search_full_width_prune_equals_no_prune(self, pipeline_dir, queries_path, capsys):
        from cipherclust.evaluation import load_queries

        k_used = json.loads((pipeline_dir / "k_report.json").read_text())["k_used"]
        base = ["--clusters", str(pipeline_dir / "clusters.jsonl"), "--identity"]
        hits = 0
        for _, text in load_queries(queries_path):
            assert main(["search", "--query", text, *base, "--no-prune"]) == 0
            full = capsys.readouterr().out
            assert main(["search", "--query", text, *base, "--c", str(k_used),
                         "--abstracts", str(pipeline_dir / "abstracts.jsonl")]) == 0
            assert capsys.readouterr().out == full, text
            hits += bool(full)
        assert hits

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_search_rejects_a_cutoff_below_one(self, pipeline_dir, capsys, top):
        rc = main(["search", "--query", "garlic sauce", "--clusters", str(pipeline_dir / "clusters.jsonl"),
                   "--abstracts", str(pipeline_dir / "abstracts.jsonl"), "--identity", "--top", top])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert "--top: cutoff must be a positive integer" in out.err

    def test_search_reports_a_malformed_abstracts_file(self, tmp_path, pipeline_dir, capsys):
        abstracts = tmp_path / "abs.jsonl"
        abstracts.write_text('{"cluster":0,"entries":5}\n')
        rc = main(["search", "--query", "garlic sauce", "--clusters", str(pipeline_dir / "clusters.jsonl"),
                   "--abstracts", str(abstracts), "--identity"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic["error"] == "IndexDataError"
        assert diagnostic["message"].startswith(f"{abstracts}:1: malformed abstract line")

    def test_search_rejects_abstracts_of_other_clusters(self, tmp_path, pipeline_dir, capsys):
        clusters = tmp_path / "two.jsonl"
        assert main(["cluster", "--index", str(pipeline_dir / "index.tsv"), "--k", "2", "--out", str(clusters)]) == 0
        abstracts = pipeline_dir / "abstracts.jsonl"
        assert len(abstracts.read_text().splitlines()) == 6
        rc = main(["search", "--query", "garlic sauce", "--clusters", str(clusters),
                   "--abstracts", str(abstracts), "--identity"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic["error"] == "IndexDataError"
        assert diagnostic["message"] == (
            f"{abstracts}: 6 abstracts for 2 clusters; the abstract of cluster 2 has no cluster"
        )

    @staticmethod
    def _tampered_search(tmp_path, pipeline_dir, capsys, edit):
        """Search with pipeline_dir's abstracts after edit(list of parsed lines); return the diagnostic."""
        lines = [json.loads(line) for line in (pipeline_dir / "abstracts.jsonl").read_text().splitlines()]
        edit(lines)
        abstracts = tmp_path / "abs.jsonl"
        abstracts.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        rc = main(["search", "--query", "garlic sauce", "--clusters", str(pipeline_dir / "clusters.jsonl"),
                   "--abstracts", str(abstracts), "--identity"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic["error"] == "IndexDataError"
        assert diagnostic["message"].startswith(f"{abstracts}: abstract of cluster 1 ")
        return diagnostic["message"]

    def test_search_rejects_an_edited_abstract_frequency(self, tmp_path, pipeline_dir, capsys):
        original = []

        def edit(lines):
            entry = lines[1]["entries"][-1]
            original.append(entry[1])
            entry[1] += 1

        message = self._tampered_search(tmp_path, pipeline_dir, capsys, edit)
        assert message.endswith(f"frequency {original[0] + 1}; the clusters give {original[0]}")

    def test_search_rejects_a_token_of_another_cluster(self, tmp_path, pipeline_dir, capsys):
        def edit(lines):  # move cluster 0's top token to cluster 1's abstract
            lines[1]["entries"].append(lines[0]["entries"].pop(0))

        message = self._tampered_search(tmp_path, pipeline_dir, capsys, edit)
        assert message.endswith("which is not in that cluster")

    def test_pipeline_validation_checks_the_pairing(self, tmp_path, pipeline_dir):
        from cipherclust.cli import _validate_artifacts
        from cipherclust.config import PipelineConfig
        from cipherclust.index import IndexDataError, read_index

        index_path, clusters_path = pipeline_dir / "index.tsv", pipeline_dir / "clusters.jsonl"
        index, config = read_index(index_path), PipelineConfig()
        _validate_artifacts(index, index_path, clusters_path, pipeline_dir / "abstracts.jsonl", config)
        lines = (pipeline_dir / "abstracts.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["entries"][0][1] += 1
        abstracts = tmp_path / "abs.jsonl"
        abstracts.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(abstracts))}: abstract of cluster 0 gives token"):
            _validate_artifacts(index, index_path, clusters_path, abstracts, config)

    def test_pipeline_validation_checks_the_clusters_postings(self, tmp_path, mini_corpus_dir):
        # a frequency bumped on a token that no abstract lists: the partition and the pairing hold
        from cipherclust.cli import CLIError, _validate_artifacts
        from cipherclust.index import read_index

        run = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(run),
                     "--abstract-size", "1"]) == 0
        index_path, abstracts_path = run / "index.tsv", run / "abstracts.jsonl"
        index, config = read_index(index_path), PipelineConfig(abstract_size=1)
        listed = {t for line in abstracts_path.read_text().splitlines() for t, _ in json.loads(line)["entries"]}
        lines = [json.loads(line) for line in (run / "clusters.jsonl").read_text().splitlines()]
        entry = next(e for line in lines for e in line["tokens"] if e["t"] not in listed)
        entry["postings"][0][1] += 1
        clusters_path = tmp_path / "clusters.jsonl"
        clusters_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(CLIError, match="^clusters file postings differ from the index$"):
            _validate_artifacts(index, index_path, clusters_path, abstracts_path, config)

    def test_search_requires_abstracts_unless_no_prune(self, pipeline_dir):
        with pytest.raises(SystemExit):
            main(["search", "--query", "x", "--clusters", str(pipeline_dir / "clusters.jsonl"), "--identity"])

    @pytest.mark.parametrize("flag, value", [("--abstracts", "/nonexistent/abstracts.jsonl"), ("--c", "5")])
    def test_search_no_prune_refuses_a_pruning_flag(self, pipeline_dir, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--query", "router", "--clusters", str(pipeline_dir / "clusters.jsonl"), "--identity",
                  "--no-prune", flag, value])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"error: {flag} applies to a pruned search only: --no-prune searches every cluster" in out.err

    def test_search_no_prune_takes_a_config_file_with_a_prune_width(self, tmp_path, pipeline_dir, capsys):
        conf = tmp_path / "conf"
        conf.write_text("prune_width = 5\n")
        assert main(["search", "--query", "router", "--clusters", str(pipeline_dir / "clusters.jsonl"),
                     "--identity", "--no-prune", "--config", str(conf)]) == 0
        assert capsys.readouterr().out

    def test_key_and_identity_are_mutually_exclusive(self, tmp_path, mini_corpus_dir, key_file):
        with pytest.raises(SystemExit):
            main(
                ["build-index", "--corpus", str(mini_corpus_dir), "--key", str(key_file),
                 "--identity", "--out", str(tmp_path / "i.tsv")]
            )


class TestNothingToIndex:
    """An input of no keyword is refused where its index is built, naming the input, before any file is
    written; an index file of no token, or a clusters file of no cluster, is refused by the commands that
    read one, naming the file."""

    @staticmethod
    def keywordless(tmp_path, source) -> str:
        if source == "keyword file":
            path = tmp_path / "kw.tsv"
            path.write_text("d1\t\nd2\t\n")
        else:
            path = tmp_path / "corpus"
            path.mkdir()
            (path / "d1.txt").write_text("the and of\n")
        return str(path)

    @pytest.mark.parametrize("source", ["corpus", "keyword file"])
    @pytest.mark.parametrize("command", ["build-index", "pipeline"])
    def test_a_keywordless_input_is_refused(self, tmp_path, capsys, command, source):
        given = self.keywordless(tmp_path, source)
        out = tmp_path / "out"
        flag = "--keywords" if source == "keyword file" else "--corpus"
        assert main([command, flag, given, "--identity", "--out", str(out)]) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic == {"error": "CLIError",
                              "message": f"{given}: no document holds a keyword, so there is no index to build"}
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("command", ["cluster", "estimate-k"])
    def test_an_index_file_of_no_token_is_named(self, tmp_path, capsys, command, text):
        index = tmp_path / "index.tsv"
        index.write_text(text)
        out = ["--out", str(tmp_path / "clusters.jsonl")] if command == "cluster" else []
        assert main([command, "--index", str(index), *out]) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic == {"error": "IndexDataError", "message": f"{index}: the index holds no token"}
        assert not (tmp_path / "clusters.jsonl").exists()

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("command", ["abstracts", "evaluate coherence", "search", "evaluate search"])
    def test_a_clusters_file_of_no_cluster_is_named(self, tmp_path, pipeline_dir, embeddings_path, capsys, command,
                                                    text):
        clusters = tmp_path / "clusters.jsonl"
        clusters.write_text(text)
        queries, out = tmp_path / "queries.tsv", tmp_path / "out"
        queries.write_text("q1\tgarlic\n")
        argv = {
            "abstracts": ["abstracts", "--out", str(out)],
            "evaluate coherence": ["evaluate", "coherence", "--embeddings", str(embeddings_path), "--out", str(out)],
            "search": ["search", "--no-prune", "--query", "garlic", "--identity"],
            "evaluate search": ["evaluate", "search", "--queries", str(queries), "--identity", "--abstracts",
                                str(pipeline_dir / "abstracts.jsonl"), "--results", str(out)],
        }[command]
        assert main([*argv, "--clusters", str(clusters)]) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic == {"error": "IndexDataError", "message": f"{clusters}: the clusters file holds no cluster"}
        assert not out.exists()


class TestInputDiagnostics:
    """Each malformed input below is refused through the CLI with its exact message, naming the file at fault."""

    @staticmethod
    def _refused(capsys, *argv) -> dict:
        assert main([str(arg) for arg in argv]) == 1
        return json.loads(capsys.readouterr().err.splitlines()[-1])

    def test_a_keyword_line_without_a_tab(self, tmp_path, capsys):
        keywords, out = tmp_path / "kw.tsv", tmp_path / "out"
        keywords.write_text("d1 router:1\n")
        assert self._refused(capsys, "pipeline", "--keywords", keywords, "--identity", "--out", out) == {
            "error": "IndexDataError", "message": f"{keywords}:1: expected `docId<TAB>term:freq,...`"}
        assert not out.exists()

    def test_a_corpus_of_no_txt_document(self, tmp_path, capsys):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        corpus.mkdir()
        (corpus / "d1.md").write_text("router bandwidth\n")
        assert self._refused(capsys, "pipeline", "--corpus", corpus, "--identity", "--out", out) == {
            "error": "IndexDataError", "message": f"no .txt documents found in {corpus}"}
        assert not out.exists()

    def test_a_key_file_of_64_characters_not_hex(self, tmp_path, mini_corpus_dir, capsys):
        key, out = tmp_path / "bad.key", tmp_path / "out"
        key.write_text("g" * 64 + "\n")
        assert self._refused(capsys, "pipeline", "--corpus", mini_corpus_dir, "--key", key, "--out", out) == {
            "error": "CryptoError", "message": f"key file {key} must hold 32 raw bytes or 64 hex characters"}
        assert not out.exists()

    def test_conflicting_judgments(self, tmp_path, capsys):
        results, judgments = tmp_path / "results.tsv", tmp_path / "judgments.tsv"
        results.write_text("q1\t1\td1\t5\n")
        judgments.write_text("q1\td1\t2\nq1\td1\t1\n")
        assert self._refused(capsys, "evaluate", "tsap", "--results", results, "--judgments", judgments) == {
            "error": "EvaluationError", "message": f"{judgments}:2: conflicting grades for ('q1', 'd1')"}

    def test_an_embeddings_first_line_of_no_component(self, tmp_path, pipeline_dir, capsys):
        embeddings, out = tmp_path / "embeddings.txt", tmp_path / "coherence.json"
        embeddings.write_text("router\nbandwidth 1.0 0.0\n")
        assert self._refused(capsys, "evaluate", "coherence", "--clusters", pipeline_dir / "clusters.jsonl",
                             "--embeddings", embeddings, "--out", out) == {
            "error": "EvaluationError", "message": f"{embeddings}:1: vector has no components"}
        assert not out.exists()


class TestIntegerFlags:
    """An integer flag is read by its config field's rule and a fault names the flag, as a file names path:lineno."""

    # int() takes the first three; a config file rejects all four
    @pytest.mark.parametrize("value", ["\u0663", "1_0", "+5", "0"])
    @pytest.mark.parametrize("command, flag, wanted", [
        ("cluster", "--k", "k_mode must be 'auto' or a positive integer"),
        ("pipeline", "--k", "k_mode must be 'auto' or a positive integer"),
        ("search", "--c", "prune_width must be a positive integer"),
    ], ids=["cluster", "pipeline", "search"])
    def test_rejected_naming_the_flag(self, tmp_path, pipeline_dir, mini_corpus_dir, capsys, command, flag, wanted,
                                      value):
        out = tmp_path / "out"
        argv = {
            "cluster": ["--index", str(pipeline_dir / "index.tsv"), "--out", str(out)],
            "pipeline": ["--corpus", str(mini_corpus_dir), "--identity", "--out", str(out)],
            "search": ["--query", "garlic sauce", "--clusters", str(pipeline_dir / "clusters.jsonl"),
                       "--abstracts", str(pipeline_dir / "abstracts.jsonl"), "--identity"],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, flag, value]) == 1
        got = int(value) if value == "0" else value
        printed = capsys.readouterr()
        assert printed.out == ""
        assert json.loads(printed.err) == {"error": "ConfigError", "message": f"{flag}: {wanted}, got {got!r}"}
        assert not out.exists()

    def test_flag_and_file_share_the_rule(self, tmp_path, mini_corpus_dir, capsys):
        conf = tmp_path / "conf"
        conf.write_text("k_mode = 1_0\n")
        argv = ["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(tmp_path / "run")]
        assert main([*argv, "--config", str(conf)]) == 1
        from_file = json.loads(capsys.readouterr().err)["message"]
        assert main([*argv, "--k", "1_0"]) == 1
        from_flag = json.loads(capsys.readouterr().err)["message"]
        assert from_file.removeprefix(f"{conf}:1: ") == from_flag.removeprefix("--k: ") != from_flag

    @pytest.mark.parametrize("flags, k_target", [(["--k", "03"], 3), (["--k", "auto"], None), ([], None)])
    def test_accepted_values(self, tmp_path, mini_corpus_dir, flags, k_target):
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out), *flags]) == 0
        report = json.loads((out / "k_report.json").read_text())
        assert report["k_mode"] == (k_target or "auto")
        assert report["k_target"] == (k_target or report["k_estimate"])


class TestValidateArtifacts:
    """cli._validate_artifacts re-reads each artifact and runs pipeline's checks on what it read."""

    @staticmethod
    def _built(pipeline_dir):
        from cipherclust.index import read_index

        return read_index(pipeline_dir / "index.tsv"), PipelineConfig()

    @staticmethod
    def _rewrite(src, dst, edit):
        """Write src's lines to dst after edit(list of lines)."""
        lines = src.read_text().splitlines()
        edit(lines)
        dst.write_text("".join(line + "\n" for line in lines))
        return dst

    @staticmethod
    def _bump_first_frequency(line: str) -> str:
        """An index line with the frequency of its first posting raised by one."""
        token, rest = line.split("\t")
        first, *others = rest.split(",")
        doc, freq = first.rsplit(":", 1)
        return f"{token}\t" + ",".join([f"{doc}:{int(freq) + 1}", *others])

    @staticmethod
    def _clusters(path) -> list[dict]:
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _write_clusters(path, objs) -> None:
        path.write_text("".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs))

    def test_index_file_with_a_bumped_frequency(self, tmp_path, pipeline_dir):
        from cipherclust.cli import CLIError, _validate_artifacts

        index, config = self._built(pipeline_dir)

        def bump(lines):
            lines[0] = self._bump_first_frequency(lines[0])

        index_path = self._rewrite(pipeline_dir / "index.tsv", tmp_path / "index.tsv", bump)
        with pytest.raises(CLIError, match="^index file round-trip mismatch$"):
            _validate_artifacts(index, index_path, pipeline_dir / "clusters.jsonl",
                                pipeline_dir / "abstracts.jsonl", config)

    def test_index_file_missing_a_token(self, tmp_path, pipeline_dir):
        # every line it holds equals the built entry, but one token has no line
        from cipherclust.cli import CLIError, _validate_artifacts

        index, config = self._built(pipeline_dir)
        index_path = self._rewrite(pipeline_dir / "index.tsv", tmp_path / "index.tsv", lambda lines: lines.pop())
        with pytest.raises(CLIError, match="^index file round-trip mismatch$"):
            _validate_artifacts(index, index_path, pipeline_dir / "clusters.jsonl",
                                pipeline_dir / "abstracts.jsonl", config)

    def test_clusters_file_missing_a_token(self, tmp_path, pipeline_dir):
        from cipherclust.cli import CLIError, _validate_artifacts

        index, config = self._built(pipeline_dir)
        objs = self._clusters(pipeline_dir / "clusters.jsonl")
        tokens = objs[0]["tokens"]
        tokens.remove(next(entry for entry in tokens if entry["t"] != objs[0]["center"]))
        clusters_path = tmp_path / "clusters.jsonl"
        self._write_clusters(clusters_path, objs)
        with pytest.raises(CLIError, match="^clusters file does not partition the index tokens$"):
            _validate_artifacts(index, pipeline_dir / "index.tsv", clusters_path,
                                pipeline_dir / "abstracts.jsonl", config)

    def test_clusters_file_with_a_token_the_index_lacks(self, tmp_path, pipeline_dir):
        from cipherclust.cli import CLIError, _validate_artifacts

        index, config = self._built(pipeline_dir)
        objs = self._clusters(pipeline_dir / "clusters.jsonl")
        objs[-1]["tokens"].append({"t": "bm90LWluZGV4ZWQ=", "postings": [["doc01", 1]]})
        clusters_path = tmp_path / "clusters.jsonl"
        self._write_clusters(clusters_path, objs)
        with pytest.raises(CLIError, match="^clusters file does not partition the index tokens$"):
            _validate_artifacts(index, pipeline_dir / "index.tsv", clusters_path,
                                pipeline_dir / "abstracts.jsonl", config)

    def test_a_later_index_line_fault_comes_before_a_mismatch(self, tmp_path, pipeline_dir):
        from cipherclust.cli import _validate_artifacts
        from cipherclust.index import IndexDataError

        index, config = self._built(pipeline_dir)

        def bump_then_break(lines):
            lines[0] = self._bump_first_frequency(lines[0])
            lines[-1] = lines[-1] + ",doc01:0"

        index_path = self._rewrite(pipeline_dir / "index.tsv", tmp_path / "index.tsv", bump_then_break)
        n = len(index.entries)
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(index_path))}:{n}: bad frequency in 'doc01:0'"):
            _validate_artifacts(index, index_path, pipeline_dir / "clusters.jsonl",
                                pipeline_dir / "abstracts.jsonl", config)

    @pytest.mark.parametrize("mismatch", ["postings", "partition"])
    def test_a_later_clusters_line_fault_comes_before_a_mismatch(self, tmp_path, pipeline_dir, mismatch):
        from cipherclust.cli import _validate_artifacts
        from cipherclust.index import IndexDataError

        index, config = self._built(pipeline_dir)
        objs = self._clusters(pipeline_dir / "clusters.jsonl")
        if mismatch == "postings":
            objs[0]["tokens"][0]["postings"][0][1] += 1
        else:
            objs[0]["tokens"] = [entry for entry in objs[0]["tokens"] if entry["t"] == objs[0]["center"]]
        objs[-1]["id"] += 1
        clusters_path = tmp_path / "clusters.jsonl"
        self._write_clusters(clusters_path, objs)
        where = re.escape(f"{clusters_path}:{len(objs)}: ")
        with pytest.raises(IndexDataError, match=f"^{where}cluster ids must be 0,1,2,... in order$"):
            _validate_artifacts(index, pipeline_dir / "index.tsv", clusters_path,
                                pipeline_dir / "abstracts.jsonl", config)

    def test_an_abstract_over_the_configured_size(self, pipeline_dir):
        from cipherclust.cli import CLIError, _validate_artifacts
        from cipherclust.search import read_abstracts

        index, config = self._built(pipeline_dir)
        abstracts_path = pipeline_dir / "abstracts.jsonl"
        largest = max(Counter(read_abstracts(abstracts_path).cluster.values()).values())
        assert largest > 1
        paths = (pipeline_dir / "index.tsv", pipeline_dir / "clusters.jsonl", abstracts_path)
        _validate_artifacts(index, *paths, PipelineConfig(abstract_size=largest))
        with pytest.raises(CLIError, match="^abstract exceeds the configured size$"):
            _validate_artifacts(index, *paths, PipelineConfig(abstract_size=largest - 1))

    @pytest.mark.parametrize("name, fault", [("index.tsv", "the index holds no token"),
                                             ("clusters.jsonl", "the clusters file holds no cluster")])
    def test_an_empty_file_is_named(self, tmp_path, pipeline_dir, name, fault):
        from cipherclust.cli import _validate_artifacts
        from cipherclust.index import IndexDataError

        index, config = self._built(pipeline_dir)
        paths = {n: pipeline_dir / n for n in ("index.tsv", "clusters.jsonl", "abstracts.jsonl")}
        paths[name] = tmp_path / name
        paths[name].write_text("\n")
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(paths[name]))}: {fault}$"):
            _validate_artifacts(index, *paths.values(), config)

    def test_a_build_makes_no_search_structures(self, tmp_path, mini_corpus_dir, monkeypatch):
        from cipherclust import clustering

        def refuse(*args, **kwargs):
            raise AssertionError("a build searches nothing")

        monkeypatch.setattr(clustering, "impact_views", refuse)
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(tmp_path / "a")]) == 0
        monkeypatch.undo()
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(tmp_path / "b")]) == 0
        for name in ("index.tsv", "clusters.jsonl", "abstracts.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPipelineChecks:
    """pipeline checks the built objects and each artifact's digest; it parses none of its artifacts."""

    NAMES = ("index.tsv", "clusters.jsonl", "abstracts.jsonl", "k_report.json", "manifest.json")

    @staticmethod
    def pipeline(mini_corpus_dir, out, *flags):
        return main(["pipeline", "--corpus", str(mini_corpus_dir), "--identity", "--out", str(out), *flags])

    def test_parses_no_artifact_and_reads_each_once(self, tmp_path, mini_corpus_dir, monkeypatch):
        from cipherclust import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a build parses none of its artifacts")

        for name in ("read_index", "read_clusters", "read_abstracts"):
            monkeypatch.setattr(cli, name, refuse)
        reads = []

        def counting(path, *args, **kwargs):
            reads.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting, raising=False)
        assert self.pipeline(mini_corpus_dir, tmp_path / "a") == 0
        monkeypatch.undo()
        assert sorted(name for name in reads if name in self.NAMES) == sorted(self.NAMES[:-1])
        assert self.pipeline(mini_corpus_dir, tmp_path / "b") == 0
        for name in self.NAMES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_an_artifact_changed_after_its_write(self, tmp_path, mini_corpus_dir, monkeypatch, capsys):
        from cipherclust import cli

        write_clusters = cli.write_clusters

        def append_a_byte(clusters, path):
            digest = write_clusters(clusters, path)
            with open(path, "ab") as fh:
                fh.write(b"\n")  # a blank line, which every reader skips
            return digest

        monkeypatch.setattr(cli, "write_clusters", append_a_byte)
        out = tmp_path / "run"
        assert self.pipeline(mini_corpus_dir, out) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic == {"error": "CLIError",
                              "message": f"{out / 'clusters.jsonl'}: the file differs from the bytes written to it"}
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("fault, message", [
        ("empty token", "the index holds an empty token, which no reader reads"),
        ("partition", "clusters file does not partition the index tokens"),
        ("postings", "clusters file postings differ from the index"),
    ])
    def test_a_faulty_build_is_rejected(self, tmp_path, mini_corpus_dir, monkeypatch, capsys, fault, message):
        from cipherclust import cli
        from cipherclust.clustering import Cluster, ClusterSet, cluster_index
        from cipherclust.crypto import IdentityTokenCodec
        from cipherclust.index import CentralIndex

        class EmptyGarlic(IdentityTokenCodec):
            def encrypt_token(self, plaintext):
                return b"" if plaintext == "garlic" else super().encrypt_token(plaintext)

        def faulty(index, k):
            clusters, est = cluster_index(index, k)
            first, *rest = clusters.clusters
            if fault == "partition":  # a token of the first cluster is in none
                dropped = max(set(first.tokens) - {first.center})
                first = Cluster(first.center, tuple(t for t in first.tokens if t != dropped))
                return ClusterSet((first, *rest), index, clusters.k_requested), est
            token = first.tokens[0]
            entries = {**index.entries, token: {doc: freq + 1 for doc, freq in index.entries[token].items()}}
            return ClusterSet(clusters.clusters, CentralIndex(entries), clusters.k_requested), est

        if fault == "empty token":
            monkeypatch.setattr(cli, "IdentityTokenCodec", EmptyGarlic)
        else:
            monkeypatch.setattr(cli, "cluster_index", faulty)
        out = tmp_path / "run"
        assert self.pipeline(mini_corpus_dir, out) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {"error": "CLIError", "message": message}
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("fault, error, message", [
        ("oversized", "CLIError", "^abstract exceeds the configured size$"),
        ("mis-paired", "IndexDataError",
         r"abstracts\.jsonl: abstract of cluster 0 names token \S+, which is not in that cluster$"),
    ])
    def test_a_faulty_abstract_is_rejected(self, tmp_path, mini_corpus_dir, monkeypatch, capsys, fault, error,
                                           message):
        from cipherclust import cli
        from cipherclust.search import Abstracts, build_abstracts

        def faulty(clusters, a):
            if fault == "oversized":
                return build_abstracts(clusters, a + 1)
            built = build_abstracts(clusters, a)
            swapped = {t: {0: 1, 1: 0}.get(cid, cid) for t, cid in built.cluster.items()}
            # listed by id, as build_abstracts lists them, so cluster 0's abstract is checked first
            return Abstracts(built.k, built.frequency, dict(sorted(swapped.items(), key=lambda kv: kv[1])))

        monkeypatch.setattr(cli, "build_abstracts", faulty)
        out = tmp_path / "run"
        assert self.pipeline(mini_corpus_dir, out, "--abstract-size", "1") == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic["error"] == error and re.search(message, diagnostic["message"])
        assert not (out / "manifest.json").exists()


class TestEvaluateCommands:
    def test_coherence_and_compare(self, tmp_path, pipeline_dir, embeddings_path, mini_corpus_dir):
        dyn_report = tmp_path / "dyn.json"
        assert main(
            ["evaluate", "coherence", "--clusters", str(pipeline_dir / "clusters.jsonl"),
             "--embeddings", str(embeddings_path), "--out", str(dyn_report)]
        ) == 0
        static_clusters = tmp_path / "static.jsonl"
        assert main(
            ["cluster", "--index", str(pipeline_dir / "index.tsv"), "--k", "10",
             "--out", str(static_clusters)]
        ) == 0
        static_report = tmp_path / "static.json"
        assert main(
            ["evaluate", "coherence", "--clusters", str(static_clusters),
             "--embeddings", str(embeddings_path), "--out", str(static_report)]
        ) == 0
        comparison = tmp_path / "cmp.json"
        assert main(
            ["evaluate", "compare", "--dynamic", str(dyn_report), "--static", str(static_report),
             "--out", str(comparison)]
        ) == 0
        got = json.loads(comparison.read_text())
        assert {"dynamic_overall", "static_overall", "improvement_pct", "flags"} <= set(got)

    def test_compare_of_two_different_partitions(self, tmp_path, pipeline_dir, embeddings_path, capsys):
        # --k 10 admits the same 6 centers as auto, so that comparison reads +0.0%; --k 3 keeps 3 of them
        static_clusters = tmp_path / "k3.jsonl"
        assert main(["cluster", "--index", str(pipeline_dir / "index.tsv"), "--k", "3",
                     "--out", str(static_clusters)]) == 0
        assert static_clusters.read_bytes() != (pipeline_dir / "clusters.jsonl").read_bytes()
        reports = {}
        for name, clusters in (("dynamic", pipeline_dir / "clusters.jsonl"), ("static", static_clusters)):
            reports[name] = tmp_path / f"{name}.json"
            assert main(["evaluate", "coherence", "--clusters", str(clusters), "--embeddings", str(embeddings_path),
                         "--out", str(reports[name])]) == 0
        capsys.readouterr()
        assert main(["evaluate", "compare", "--dynamic", str(reports["dynamic"]), "--static", str(reports["static"])]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {
            "dynamic_overall": pytest.approx(0.7167361313293721, abs=1e-12),
            "static_overall": pytest.approx(0.7540122678235966, abs=1e-12),
            "improvement_pct": pytest.approx(-4.943704245266395, abs=1e-9),
            "flags": ["dynamic_below_static"],
        }

    def test_tsap_command(self, tmp_path, judgments_path, capsys):
        results = tmp_path / "results.tsv"
        results.write_text("q01\t1\tdoc01\t9\nq01\t2\tdoc08\t3\n")
        assert main(["evaluate", "tsap", "--results", str(results), "--judgments", str(judgments_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        scores = {row["query"]: row["score"] for row in report["tsap_per_query"]}
        assert scores["q01"] == pytest.approx(0.1)  # doc01 graded 2 at rank 1, doc08 unjudged

    def test_tsap_scores_a_judged_query_that_found_nothing(self, tmp_path, pipeline_dir, judgments_path, capsys):
        # no document holds q99's words, so evaluate search writes no row for it; a report without
        # it would average over the queries that found something only
        from cipherclust.evaluation import load_judgments, read_results_file, tsap_at_10

        queries, judgments, results = tmp_path / "queries.tsv", tmp_path / "judgments.tsv", tmp_path / "results.tsv"
        queries.write_text("q01\trouter bandwidth\nq99\tzzzz qqqq\n")
        q01 = [line for line in judgments_path.read_text().splitlines() if line.startswith("q01\t")]
        judgments.write_text("\n".join(["q99\tdoc01\t2", "q98\tdoc02\t1", *q01]) + "\n")
        assert main(["evaluate", "search", "--queries", str(queries), "--identity",
                     "--clusters", str(pipeline_dir / "clusters.jsonl"),
                     "--abstracts", str(pipeline_dir / "abstracts.jsonl"), "--results", str(results),
                     "--out", str(tmp_path / "timings.json")]) == 0
        ranked = read_results_file(results)
        assert list(ranked) == ["q01"]
        assert main(["evaluate", "tsap", "--results", str(results), "--judgments", str(judgments)]) == 0
        report = json.loads(capsys.readouterr().out)
        q01_score = tsap_at_10(ranked["q01"], load_judgments(judgments), "q01")
        assert q01_score > 0
        # results order first, then the judged-only queries in judgments order, each scoring 0.0
        assert report["tsap_per_query"] == [
            {"query": "q01", "score": q01_score}, {"query": "q99", "score": 0.0}, {"query": "q98", "score": 0.0},
        ]


    @staticmethod
    def _evaluate_search(tmp_path, clusters, abstracts, *extra):
        return main(["evaluate", "search", "--queries", str(DATA_DIR / "queries.tsv"),
                     "--clusters", str(clusters), "--abstracts", str(abstracts),
                     "--results", str(tmp_path / "results.tsv"), *extra])

    def test_search_results_match_the_search_command(self, tmp_path, pipeline_dir, queries_path, capsys):
        from cipherclust.evaluation import load_queries

        clusters, abstracts = pipeline_dir / "clusters.jsonl", pipeline_dir / "abstracts.jsonl"
        assert self._evaluate_search(tmp_path, clusters, abstracts, "--identity", "--out",
                                     str(tmp_path / "report.json")) == 0
        expected = []
        for query_id, text in load_queries(queries_path):
            assert main(["search", "--query", text, "--clusters", str(clusters),
                         "--abstracts", str(abstracts), "--identity"]) == 0
            expected += [f"{query_id}\t{line}" for line in capsys.readouterr().out.splitlines()]
        assert expected
        assert (tmp_path / "results.tsv").read_text().splitlines() == expected
        report = json.loads((tmp_path / "report.json").read_text())
        assert [t["query"] for t in report["search_times"]] == [q for q, _ in load_queries(queries_path)]

    def test_search_rejects_abstracts_of_other_clusters(self, tmp_path, pipeline_dir, capsys):
        clusters = tmp_path / "two.jsonl"
        assert main(["cluster", "--index", str(pipeline_dir / "index.tsv"), "--k", "2", "--out", str(clusters)]) == 0
        abstracts = pipeline_dir / "abstracts.jsonl"
        assert self._evaluate_search(tmp_path, clusters, abstracts, "--identity") == 1
        out = capsys.readouterr()
        assert out.out == "" and not (tmp_path / "results.tsv").exists()
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic == {
            "error": "IndexDataError",
            "message": f"{abstracts}: 6 abstracts for 2 clusters; the abstract of cluster 2 has no cluster",
        }

    def test_search_report_keys(self, tmp_path, pipeline_dir):
        # its timings keep it from a golden hash, so its keys are pinned here
        report = tmp_path / "report.json"
        assert self._evaluate_search(tmp_path, pipeline_dir / "clusters.jsonl", pipeline_dir / "abstracts.jsonl",
                                     "--identity", "--out", str(report)) == 0
        got = json.loads(report.read_text())
        assert set(got) == {"per_cluster", "overall", "tsap_per_query", "search_times", "corpus_sha256",
                            "embeddings_sha256"}
        assert got["search_times"] and all(
            set(row) == {"query", "pruned_ms", "full_ms", "prune_ms", "clusters_searched"}
            for row in got["search_times"]
        )

    def test_search_reports_every_cluster_searched_on_a_fallback(self, tmp_path, pipeline_dir):
        k_used = json.loads((pipeline_dir / "k_report.json").read_text())["k_used"]
        assert k_used > 1
        queries, report = tmp_path / "queries.tsv", tmp_path / "report.json"
        queries.write_text("q1\tzzz\n")  # a word no abstract holds
        assert main(["evaluate", "search", "--queries", str(queries), "--identity", "--clusters",
                     str(pipeline_dir / "clusters.jsonl"), "--abstracts", str(pipeline_dir / "abstracts.jsonl"),
                     "--results", str(tmp_path / "results.tsv"), "--out", str(report)]) == 0
        [timing] = json.loads(report.read_text())["search_times"]
        assert timing["clusters_searched"] == k_used

    def test_search_needs_a_codec(self, tmp_path, pipeline_dir, capsys):
        rc = self._evaluate_search(tmp_path, pipeline_dir / "clusters.jsonl", pipeline_dir / "abstracts.jsonl")
        out = capsys.readouterr()
        assert rc == 1 and out.out == "" and not (tmp_path / "results.tsv").exists()
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic == {"error": "CLIError", "message": "either --key <file> or --identity is required"}

    def test_compare_rejects_a_tsap_report(self, tmp_path, judgments_path, capsys):
        results, tsap = tmp_path / "results.tsv", tmp_path / "tsap.json"
        results.write_text("q01\t1\tdoc01\t9\n")
        assert main(["evaluate", "tsap", "--results", str(results), "--judgments", str(judgments_path),
                     "--out", str(tsap)]) == 0
        rc = main(["evaluate", "compare", "--dynamic", str(tsap), "--static", str(tsap)])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic["error"] == "EvaluationError"
        assert diagnostic["message"].startswith(f"{tsap}: not a coherence report")

    @pytest.mark.parametrize("side", ["--dynamic", "--static"])
    def test_compare_rejects_a_non_finite_overall(self, tmp_path, capsys, side):
        finite, non_finite = tmp_path / "finite.json", tmp_path / "non-finite.json"
        finite.write_text('{"overall": 0.5, "corpus_sha256": "x", "embeddings_sha256": "y"}')
        non_finite.write_text('{"overall": NaN, "corpus_sha256": "x", "embeddings_sha256": "y"}')
        reports = {"--dynamic": finite, "--static": finite, side: non_finite}
        rc = main(["evaluate", "compare", *(str(x) for item in reports.items() for x in item)])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        diagnostic = json.loads(out.err.strip().splitlines()[-1])
        assert diagnostic["message"].startswith(f"{non_finite}: not a coherence report")


class TestConfigCodecResolution:
    def test_pipeline_honors_identity_codec_from_config_file(self, tmp_path, mini_corpus_dir):
        conf = tmp_path / "conf"
        conf.write_text("codec = identity\n")
        out = tmp_path / "run"
        rc = main(["pipeline", "--corpus", str(mini_corpus_dir), "--out", str(out),
                   "--config", str(conf)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["codec"] == "identity"

    def test_env_config_reaches_the_cli(self, tmp_path, mini_corpus_dir, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text("codec = identity\nkeywords_per_doc = 5\n")
        monkeypatch.setenv("CLUSTCRYPT_CONFIG", str(conf))
        out = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["keywords_per_doc"] == 5


class TestStagesAgreeWithThePipeline:
    """Under one config file, each stage run on its own reads the settings the pipeline read."""

    CONF = "k_mode = 3\nabstract_size = 2\ncutoff = 2\nprune_width = 1\ncodec = identity\n"

    @pytest.fixture
    def run(self, tmp_path, mini_corpus_dir, monkeypatch):
        conf = tmp_path / "conf"
        conf.write_text(self.CONF)
        monkeypatch.setenv(CONFIG_ENV, str(conf))
        run = tmp_path / "run"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--out", str(run)]) == 0
        return run

    def test_cluster_and_abstracts_rewrite_the_pipeline_files(self, tmp_path, run):
        clusters, abstracts = tmp_path / "clusters.jsonl", tmp_path / "abstracts.jsonl"
        assert main(["cluster", "--index", str(run / "index.tsv"), "--out", str(clusters)]) == 0
        assert main(["abstracts", "--clusters", str(run / "clusters.jsonl"), "--out", str(abstracts)]) == 0
        assert clusters.read_bytes() == (run / "clusters.jsonl").read_bytes()
        assert abstracts.read_bytes() == (run / "abstracts.jsonl").read_bytes()

    def test_stages_take_the_config_flag(self, tmp_path, mini_corpus_dir, capsys):
        conf = tmp_path / "conf"
        conf.write_text(self.CONF)
        flag = ["--config", str(conf)]
        run, clusters, abstracts = tmp_path / "flagged", tmp_path / "clusters.jsonl", tmp_path / "abstracts.jsonl"
        assert main(["pipeline", "--corpus", str(mini_corpus_dir), "--out", str(run), *flag]) == 0
        assert main(["cluster", "--index", str(run / "index.tsv"), *flag, "--out", str(clusters)]) == 0
        assert main(["abstracts", "--clusters", str(run / "clusters.jsonl"), *flag, "--out", str(abstracts)]) == 0
        assert clusters.read_bytes() == (run / "clusters.jsonl").read_bytes()
        assert abstracts.read_bytes() == (run / "abstracts.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["search", "--query", "garlic sauce", "--clusters", str(run / "clusters.jsonl"),
                     "--abstracts", str(run / "abstracts.jsonl"), *flag]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        queries, results = tmp_path / "queries.tsv", tmp_path / "results.tsv"
        queries.write_text("q1\tgarlic sauce\n")
        assert main(["evaluate", "search", "--queries", str(queries), "--clusters", str(run / "clusters.jsonl"),
                     "--abstracts", str(run / "abstracts.jsonl"), "--results", str(results), *flag]) == 0
        assert len(results.read_text().splitlines()) == 2

    @pytest.mark.parametrize("flags, rows", [([], 2), (["--top", "3"], 3)])
    def test_search_takes_the_cutoff_from_the_file_unless_flagged(self, run, capsys, flags, rows):
        capsys.readouterr()
        assert main(["search", "--query", "garlic sauce", "--clusters", str(run / "clusters.jsonl"),
                     "--abstracts", str(run / "abstracts.jsonl"), *flags]) == 0
        assert len(capsys.readouterr().out.splitlines()) == rows

    def test_evaluate_search_takes_the_prune_width_from_the_file(self, tmp_path, run):
        from cipherclust.search import read_abstracts

        # every abstract's top token: a width above 1 would search more than one cluster
        abstracts = read_abstracts(run / "abstracts.jsonl")
        top = {cid: token for token, cid in reversed(abstracts.cluster.items())}  # each abstract's first entry
        query = " ".join(token.decode() for token in top.values())
        queries, results, report = tmp_path / "queries.tsv", tmp_path / "results.tsv", tmp_path / "report.json"
        queries.write_text(f"q1\t{query}\n")
        assert main(["evaluate", "search", "--queries", str(queries), "--clusters", str(run / "clusters.jsonl"),
                     "--abstracts", str(run / "abstracts.jsonl"), "--results", str(results),
                     "--out", str(report)]) == 0
        [timing] = json.loads(report.read_text())["search_times"]
        assert timing["clusters_searched"] == 1
        assert len(results.read_text().splitlines()) <= 2
