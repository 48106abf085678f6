import gc
import hashlib
import random
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cipherclust.index as index_module
from cipherclust.crypto import (
    IdentityTokenCodec, KeyedTokenCodec, SecretKey, encrypt_query, token_to_b64, words,
)
from cipherclust.index import (
    IndexDataError,
    build_index_from_corpus,
    data_lines,
    extract_keywords,
    ingest,
    keyword_records,
    load_stopwords,
    read_index,
    read_keyword_file,
    trim,
    write_index,
    write_lines,
)
from cipherclust.matrices import frequency_matrix

from conftest import (
    EXAMPLE_DOCS, EXAMPLE_FREQS, keep_all, posting_tuples, random_freqs, random_index, records_from_freqs,
)
from oracles import encrypted_postings, sorted_keywords


class TestExtractKeywords:
    def test_frequency_ranking(self):
        assert extract_keywords("a b b c c c", 2, {"a"}) == [("c", 3), ("b", 2)]

    def test_fewer_terms_than_n(self):
        assert extract_keywords("x x", 5, set()) == [("x", 2)]

    def test_all_stopwords(self):
        assert extract_keywords("the and of", 3, {"the", "and", "of"}) == []

    def test_ties_break_lexicographically(self):
        assert extract_keywords("b a", 2, set()) == [("a", 1), ("b", 1)]

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_keywords("x", 0, set())

    def test_corpus_stopwords_are_normalized(self, tmp_path):
        (tmp_path / "a.txt").write_text("apple apple banana\n")
        index = build_index_from_corpus(tmp_path, IdentityTokenCodec(), 5, stopwords=["Apple"])
        assert index.tokens() == [b"banana"]

    def test_crlf_document_gives_the_lf_index(self, tmp_path):
        # the corpus is read as bytes and not newline-translated; no [a-z0-9]+ token sees a CR
        text = "Apple pie\napple\rbanana\n\ncherry apple\n"
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "doc.txt").write_bytes(text.replace("\n", newline).encode("utf-8"))
        lf, crlf = (build_index_from_corpus(tmp_path / name, IdentityTokenCodec(), 5) for name in ("lf", "crlf"))
        assert crlf == lf
        assert list(crlf.entries[b"apple"].items()) == [("doc", 3)]

    @pytest.mark.parametrize("raw", [b"router bandwidth\n", b"\xff not UTF-8\n"], ids=["text", "undecodable"])
    def test_a_file_name_that_is_no_document_id_is_named_before_the_file_is_read(self, tmp_path, raw):
        (tmp_path / "a.txt").write_text("router\n")
        (tmp_path / "x:y.txt").write_bytes(raw)
        message = f"{tmp_path / 'x:y.txt'}: document id 'x:y' contains reserved characters"
        with pytest.raises(IndexDataError, match=f"^{re.escape(message)}$"):
            build_index_from_corpus(tmp_path, IdentityTokenCodec(), 5)

    def test_corpus_digest_covers_the_bytes_read(self, tmp_path):
        files = {"b.txt": b"beta\r\nbeta", "a.txt": b"alpha", "skip.md": b"not read"}
        for name, raw in files.items():
            (tmp_path / name).write_bytes(raw)
        digest = hashlib.sha256()
        build_index_from_corpus(tmp_path, IdentityTokenCodec(), 5, digest=digest)
        assert digest.hexdigest() == hashlib.sha256(b"a.txt\0alpha\0b.txt\0beta\r\nbeta\0").hexdigest()

    @given(text=st.text(alphabet="abc d", max_size=60), n=st.integers(1, 5))
    def test_size_and_monotone_frequencies(self, text, n):
        out = extract_keywords(text, n, set())
        assert len(out) <= n
        freqs = [f for _, f in out]
        assert freqs == sorted(freqs, reverse=True)


def counted_text(counts: dict[str, int], seed: int) -> str:
    """Each term written as often as its count, shuffled, in mixed case and separators."""
    rng = random.Random(seed)
    occurrences = [term for term, count in counts.items() for _ in range(count)]
    rng.shuffle(occurrences)
    return "".join(
        (t.upper() if rng.random() < 0.3 else t) + rng.choice([" ", "\n", ", ", "-", ". ", "\u2028"])
        for t in occurrences
    )


class TestExtractKeywordsAgainstSort:
    """extract_keywords equals the count-everything-then-sort reference, oracles.sorted_keywords."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_ties_at_the_nth_count(self, n):
        # 6 terms at 4, 20 at 3, 15 at 2, 10 at 1: the n-th count is tied for most n
        counts = {f"t{i:02d}": 4 if i < 6 else 3 if i < 26 else 2 if i < 41 else 1 for i in range(51)}
        text = counted_text(counts, n)
        stop = set(random.Random(-n).sample(sorted(counts), n % 5))
        got = extract_keywords(text, n, stop)
        assert got == sorted_keywords(text, n, stop)
        assert len(got) == n

    @pytest.mark.parametrize("n", range(1, 41))
    def test_exactly_n_and_fewer_than_n_terms(self, n):
        for distinct in (n, n - 1):
            counts = {f"w{i}": 1 + i % 3 for i in range(distinct)}
            text = counted_text(counts, n)
            got = extract_keywords(text, n, set())
            assert got == sorted_keywords(text, n, set())
            assert len(got) == distinct

    @given(
        terms=st.lists(st.text(alphabet="abAB0\u212a", min_size=1, max_size=3), max_size=60),
        separators=st.text(alphabet=" ,.\n\u00e9\u2028", min_size=1, max_size=2),
        n=st.integers(1, 40),
        data=st.data(),
    )
    def test_random_texts_and_stopwords(self, terms, separators, n, data):
        text = separators.join(terms)
        vocabulary = sorted({t.lower() for t in terms})
        stop = data.draw(st.sets(st.sampled_from(vocabulary))) if vocabulary else set()
        assert extract_keywords(text, n, frozenset(stop)) == sorted_keywords(text, n, stop)


class TestIngest:
    def test_merges_postings_per_token(self):
        idx = ingest([("d1", [(b"T", 3)]), ("d2", [(b"T", 5)])])
        assert list(idx.entries[b"T"].items()) == [("d1", 3), ("d2", 5)]

    def test_empty_input(self):
        idx = ingest([])
        assert idx.token_count == 0 and len(idx.docs) == 0
        with pytest.raises(IndexDataError):
            trim(idx)

    def test_worked_example_shape(self, example_index):
        assert example_index.token_count == 5
        assert len(example_index.docs) == 6
        uh5w = list(example_index.entries[b"Uh5W"].items())
        assert uh5w == [("d1", 30), ("d3", 23), ("d4", 4), ("d5", 40)]

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(IndexDataError, match="d1"):
            ingest([("d1", [(b"T", 3), (b"T", 4)])])

    def test_equal_duplicate_tolerated(self):
        idx = ingest([("d1", [(b"T", 3), (b"T", 3)])])
        assert list(idx.entries[b"T"].items()) == [("d1", 3)]

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(IndexDataError, match="duplicate"):
            ingest([("d1", [(b"T", 1)]), ("d1", [(b"U", 1)])])

    def test_zero_frequency_rejected(self):
        with pytest.raises(IndexDataError):
            ingest([("d1", [(b"T", 0)])])

    def test_reserved_doc_chars_rejected(self):
        with pytest.raises(IndexDataError):
            ingest([("d:1", [(b"T", 1)])])

    @pytest.mark.parametrize("records, message", [
        ([("d1", [(b"T", 3), (b"U", 1), (b"T", 4)])], "conflicting frequencies for (token=VA==, doc='d1'): 3 vs 4"),
        ([("d1", [(b"T", 1)]), ("d2", [(b"T", 0)])], "frequency must be >= 1 for token in 'd2', got 0"),
        ([("d1", [(b"T", 1)]), ("d1", [])], "duplicate document id 'd1'"),
    ])
    def test_messages(self, records, message):
        with pytest.raises(IndexDataError, match=f"^{re.escape(message)}$"):
            ingest(iter(records))

    def test_conflict_names_the_encrypted_token(self):
        codec = KeyedTokenCodec(SecretKey(bytes(32)))
        token = token_to_b64(codec.encrypt_token("net"))
        message = f"conflicting frequencies for (token={token}, doc='d1'): 3 vs 4"
        with pytest.raises(IndexDataError, match=f"^{re.escape(message)}$"):
            ingest([("d1", [("net", 3), ("cake", 1), ("net", 4)])], codec.encrypt_token)

    def test_two_terms_of_one_token_rejected(self):
        # merging their postings would silently change both terms' lists
        class CollidingCodec(IdentityTokenCodec):
            def encrypt_token(self, plaintext):
                return b"T"

        with pytest.raises(IndexDataError, match=f"^{re.escape('two keys map to the token VA==')}$"):
            ingest([("d1", [("net", 3)]), ("d2", [("cake", 1)])], CollidingCodec().encrypt_token)


@given(data=st.data())
def test_ingest_round_trips_triples(data):
    n_tokens = data.draw(st.integers(1, 6))
    n_docs = data.draw(st.integers(1, 5))
    freqs = {}
    for i in range(n_tokens):
        token = f"t{i}".encode()
        docs = data.draw(
            st.sets(st.integers(0, n_docs - 1), min_size=1, max_size=n_docs)
        )
        freqs[token] = {f"d{j}": data.draw(st.integers(1, 9)) for j in docs}
    idx = ingest(records_from_freqs(freqs))
    got = {(t, d, f) for t, postings in idx.entries.items() for d, f in postings.items()}
    want = {(t, d, f) for t, by in freqs.items() for d, f in by.items()}
    assert got == want


@pytest.mark.parametrize("codec", [IdentityTokenCodec(), KeyedTokenCodec(SecretKey(bytes(32)))],
                         ids=["identity", "keyed"])
@given(records=st.lists(
    st.tuples(st.sampled_from([f"d{j}" for j in range(8)]),
              st.dictionaries(st.sampled_from(["net", "cake", "caf\u00e9", "a", "zz"]), st.integers(1, 9),
                              max_size=4)),
    unique_by=lambda record: record[0], max_size=8,
))
def test_ingest_encrypts_terms_as_two_steps_would(codec, records):
    """Terms repeat across documents, records may be empty, and documents come in any id order."""
    records = [(doc, list(by_term.items())) for doc, by_term in records]
    index = ingest(iter(records), codec.encrypt_token)
    assert index == ingest([(doc, [(codec.encrypt_token(t), f) for t, f in pairs]) for doc, pairs in records])
    want = encrypted_postings(records, codec.encrypt_token)
    assert {t: list(p.items()) for t, p in index.entries.items()} == {t: list(p.items()) for t, p in want.items()}


class TestDocCooccurrence:
    """A token's document co-occurrence is its posting count: its row length in the frequency matrix."""

    @staticmethod
    def degrees(index, tokens):
        return np.diff(frequency_matrix(index, tokens).indptr).tolist()

    def test_worked_example(self, example_index):
        assert self.degrees(example_index, [b"Uh5W", b"oR1r"]) == [4, 2]

    def test_single_posting(self):
        idx = ingest([("d1", [(b"T", 1)])])
        assert self.degrees(idx, [b"T"]) == [1]

    def test_unknown_token(self, example_index):
        with pytest.raises(KeyError):
            frequency_matrix(example_index, [b"nope"])


class TestTrim:
    def test_worked_example(self, example_index):
        # document counts 4, 3, 2, 4, 4: mean 3.4, so /Vdn and oR1r go
        assert trim(example_index).kept == (b"Uh5W", b"tH7c", b"vJHZ")

    def test_equal_counts_keep_everything(self):
        idx = ingest([("d1", [(b"a", 1), (b"b", 2)]), ("d2", [(b"a", 1), (b"b", 1)])])
        trimmed = trim(idx)
        assert trimmed.kept == (b"a", b"b")

    def test_single_token(self):
        idx = ingest([("d1", [(b"only", 2)])])
        assert trim(idx).kept == (b"only",)

    def test_partition_and_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            idx, _ = random_index(rng, int(rng.integers(1, 30)), int(rng.integers(1, 15)))
            counts = {token: len(postings) for token, postings in idx.entries.items()}
            mean = sum(counts.values()) / len(counts)
            kept = trim(idx).kept
            assert kept
            assert kept == tuple(token for token in idx.tokens() if counts[token] >= mean)

    def test_keep_all(self, example_index):
        assert len(keep_all(example_index).kept) == 5


class TestIndexFile:
    def test_round_trip(self, tmp_path, example_index):
        path = tmp_path / "index.tsv"
        write_index(example_index, path)
        again = read_index(path)
        assert posting_tuples(again) == posting_tuples(example_index)

    def test_read_index_holds_one_string_per_document(self, tmp_path, mini_corpus_dir):
        index = build_index_from_corpus(mini_corpus_dir, IdentityTokenCodec(), n=20)
        path = tmp_path / "index.tsv"
        write_index(index, path)
        loaded = read_index(path)
        assert loaded == index
        # one string per document, shared by every line's map
        shared: dict[str, str] = {}
        entries = loaded.entries.values()
        assert all(shared.setdefault(doc, doc) is doc for by_doc in entries for doc in by_doc)
        assert len(shared) < sum(map(len, entries))

    def test_tokens_sorted_by_ciphertext_bytes(self, tmp_path):
        idx = ingest([("d1", [(b"\x01", 1), (b"zz", 2), (b"+a", 3)])])
        path = tmp_path / "index.tsv"
        write_index(idx, path)
        from cipherclust.crypto import token_from_b64

        tokens = [token_from_b64(line.split("\t")[0]) for line in path.read_text().splitlines()]
        assert tokens == sorted(tokens)

    def test_rewrite_is_byte_stable(self, tmp_path, example_index):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_index(example_index, p1)
        write_index(read_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("notbase64!!\td1:1\n")
        with pytest.raises(IndexDataError):
            read_index(path)

    def test_empty_token_rejected(self, tmp_path):
        # base64 "" decodes to b"", a token no codec makes
        path = tmp_path / "bad.tsv"
        path.write_text("VA==\td1:3\n\td1:2\n")
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(path))}:2: malformed index line$"):
            read_index(path)

    # "VA==" and "VQ==" are the tokens b"T" and b"U"
    @pytest.mark.parametrize("body, lineno, fault", [
        ("VA==\td1:3,d2:x\n", 1, "frequency 'x' of 'd2' is not an integer"),
        ("VA==\td1:3\nVQ==\td1:1\n\nVA==\td2:4\n", 4, "token VA== is listed twice"),
        ("VA==\td1:3,d1:3\n", 1, "document 'd1' is listed twice"),
        ("VA==\td1:3,d2:0\n", 1, "bad frequency in 'd2:0'"),
        ("VA==\td1:3,:2\n", 1, "malformed posting ':2'"),
        ("VA==\td1:3,d2\n", 1, "malformed posting 'd2'"),
        ("VA==\t\n", 1, "malformed posting ''"),
        ("VA==\td1:+3,d\tx: 4,d3:1_0\n", 1, "frequency '+3' of 'd1' is not an integer"),
        ("VA==\td1:3,d\tx:4\n", 1, "document id 'd\\tx' contains reserved characters"),
        ("VA==\td1: 4\n", 1, "frequency ' 4' of 'd1' is not an integer"),
        ("VA==\td1:1_0\n", 1, "frequency '1_0' of 'd1' is not an integer"),
        ("VA==\td1:\u0663\n", 1, "frequency '\u0663' of 'd1' is not an integer"),
        ("VA==\td1:3,d2:03\n", 1, "bad frequency in 'd2:03'"),
    ], ids=["non-integer", "token-twice", "document-twice", "zero", "no-doc", "no-colon", "empty",
            "sign", "tab-in-doc", "space", "underscore", "arabic-digit", "leading-zero"])
    def test_rejected_with_path_and_line(self, tmp_path, body, lineno, fault):
        path = tmp_path / "bad.tsv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(IndexDataError, match=re.escape(f"{path}:{lineno}: {fault}")):
            read_index(path)

    def test_document_ids_with_unicode_line_separators(self, tmp_path):
        idx = ingest([("a\u2028b", [(b"T", 2)]), ("c\x85d\x0be", [(b"T", 1), (b"U", 4)])])
        path = tmp_path / "index.tsv"
        write_index(idx, path)
        assert read_index(path) == idx


class TestWriteLines:
    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "index.tsv"
        write_lines(path, ["old 1", "old 2"])

        def lines():
            yield "new 1"
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old 1\nold 2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["index.tsv"]

    def test_replaces_and_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_lines(path, ["a"])
        write_lines(path, ["b", "c\u2028d"])
        assert path.read_bytes() == "b\nc\u2028d\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_data_lines_split_at_lf_only(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\u2028b\n \nc\x85d\x0c\r\ne\n".encode("utf-8"))
    assert list(data_lines(path)) == [(1, "a\u2028b"), (3, "c\x85d\x0c"), (4, "e")]


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), above what was allocated when it was called."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@settings(max_examples=200, deadline=None)
@given(pad=st.integers(8180, 8200), text=st.text(alphabet="ab \r\n\t\u2028\x85\u00e9\u4e2d", max_size=40))
def test_data_lines_equal_a_whole_file_split(tmp_path_factory, pad, text):
    # the padding puts the generated text, CR LF pairs included, across the reader's first 8 KiB chunk
    path = tmp_path_factory.mktemp("lines") / "lines.txt"
    path.write_bytes(("x" * pad + text).encode("utf-8"))
    whole = [(n, line) for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), 1) if line.strip()]
    assert list(data_lines(path)) == whole


def test_data_lines_reads_one_line_at_a_time(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("".join(f"{j:06d}\t" + "x" * 90 + "\n" for j in range(10_000)), encoding="utf-8")
    assert _traced_peak(lambda: deque(data_lines(path), maxlen=0)) < path.stat().st_size / 16


@pytest.mark.parametrize("tail", [b"", b"\xe2\x82"])
def test_data_lines_decoding_error_comes_first(tmp_path, tail):
    # line 1 is malformed, but the file is not UTF-8 (a stray byte at the end of a later 8 KiB
    # chunk, or a sequence cut off by the end of the file): the error a whole-file read raises wins
    path = tmp_path / "kw.tsv"
    path.write_bytes(b"doc1\tnet\n" + b"doc2\tcake:1\n" * 2000 + (b"\xff" if not tail else tail))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    with pytest.raises(IndexDataError) as got:
        read_keyword_file(path)
    assert str(got.value) == f"{path}: {whole.value}"


class TestKeywordFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_text("doc1\tnet:3,traffic:1\ndoc2\tbook:2\n")
        assert read_keyword_file(path) == [
            ("doc1", [("net", 3), ("traffic", 1)]),
            ("doc2", [("book", 2)]),
        ]

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_text("doc1\tnet\n")
        with pytest.raises(IndexDataError):
            read_keyword_file(path)

    @staticmethod
    def rejects(tmp_path, second_line, message):
        """The second of two lines is rejected with path:2 and message."""
        path = tmp_path / "kw.tsv"
        path.write_text("doc1\tnet:3\n" + second_line + "\n", encoding="utf-8")
        with pytest.raises(IndexDataError, match=re.escape(f"{path}:2: {message}")):
            read_keyword_file(path)

    @pytest.mark.parametrize("freq", ["+3", "1_0", "\u0663", "abc", " 3", "3 ", "-1", ""])
    def test_frequency_not_ascii_digits(self, tmp_path, freq):
        self.rejects(tmp_path, f"doc2\tfoo:{freq}", f"frequency {freq!r} of 'foo' is not an integer >= 1")

    @pytest.mark.parametrize("freq", ["0", "00"])
    def test_frequency_below_one(self, tmp_path, freq):
        self.rejects(tmp_path, f"doc2\tfoo:{freq}", f"frequency {freq!r} of 'foo' is not an integer >= 1")

    def test_term_empty_once_normalized(self, tmp_path):
        self.rejects(tmp_path, "doc2\tfoo:1,  :2", "term '  ' is empty once normalized")

    def test_term_given_twice(self, tmp_path):
        # terms are compared as normalized: Foo and foo are one token
        self.rejects(tmp_path, "doc2\tfoo:1,bar:2,Foo:1", "term 'foo' is given twice")

    @pytest.mark.parametrize("doc_id, message", [
        ("", "document id must be non-empty"),
        ("doc,2", "document id 'doc,2' contains reserved characters"),
    ])
    def test_doc_id_rejected_by_ingest(self, tmp_path, doc_id, message):
        self.rejects(tmp_path, f"{doc_id}\tfoo:1", message)

    def test_doc_id_repeated(self, tmp_path):
        self.rejects(tmp_path, "doc1\tfoo:1", "document id 'doc1' is also on line 1")

    def test_records_are_yielded_as_their_lines_pass(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_text("doc1\tnet:3\ndoc2\tnet\n")
        records = keyword_records(path)
        assert next(records) == ("doc1", [("net", 3)])
        with pytest.raises(IndexDataError, match=f"^{re.escape(str(path))}:2: malformed pair 'net'$"):
            next(records)

    @pytest.mark.parametrize("item, raw, found", [
        ("net-traffic:3", "net-traffic", "net, traffic"), ("don't:1", "don't", "don, t"), ("a:b:2", "a:b", "a, b"),
    ])
    def test_term_of_two_words(self, tmp_path, item, raw, found):
        # a query splits each of these into two words, so no query could reach one token for it
        message = f"term {raw!r} splits into the words {found}; a term must be one word"
        self.rejects(tmp_path, f"doc2\tfoo:1,{item}", message)

    def test_term_is_the_token_its_query_finds(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_text("d1\tCafé:2,net:1\nd2\tcafé:5\n", encoding="utf-8")
        codec = KeyedTokenCodec(SecretKey(bytes(32)))
        index = ingest(keyword_records(path), codec.encrypt_token)
        (token,) = encrypt_query(codec, "café")
        assert index.entries[token] == {"d1": 2, "d2": 5}

    def test_words_run_once_per_distinct_spelling(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(index_module, "words", lambda raw: calls.append(raw) or words(raw))
        path = tmp_path / "kw.tsv"
        path.write_text("d1\tnet:1,cake:2\nd2\tNet:3\nd3\tnet:4,cake:1\n")
        assert read_keyword_file(path) == [
            ("d1", [("net", 1), ("cake", 2)]), ("d2", [("net", 3)]), ("d3", [("net", 4), ("cake", 1)]),
        ]
        assert calls == ["net", "cake", "Net"]

    def test_leading_zero_and_normalization_accepted(self, tmp_path):
        path = tmp_path / "kw.tsv"
        path.write_text("doc1\t Net :03,cake:1\ndoc2\t\n")
        assert read_keyword_file(path) == [("doc1", [("net", 3), ("cake", 1)]), ("doc2", [])]


@given(raw=st.text(
    alphabet=st.one_of(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r,"),
                       st.sampled_from("aZ9 -:'\t\u212a\u00e9")),
    min_size=1, max_size=12,
))
def test_an_accepted_term_is_the_token_its_query_finds(tmp_path_factory, raw):
    """A raw term is accepted exactly when it is one word, and the query of its raw spelling finds its token."""
    path = tmp_path_factory.mktemp("kw") / "kw.tsv"
    path.write_text(f"d1\t{raw}:1\n", encoding="utf-8")
    codec = KeyedTokenCodec(SecretKey(bytes(32)))
    try:
        index = ingest(keyword_records(path), codec.encrypt_token)
    except IndexDataError as exc:
        assert len(words(raw)) != 1 and str(exc).startswith(f"{path}:1: term {raw!r} ")
        return
    assert index.tokens() == encrypt_query(codec, raw) == [codec.encrypt_token(*words(raw))]


class TestStopwordEntries:
    def test_file_entries_are_split_into_words(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("don't\n  The\nnet-traffic,\u00e9\n", encoding="utf-8")
        assert load_stopwords(path) == {"don", "t", "the", "net", "traffic"}

    def test_corpus_stopwords_are_split_into_words(self, tmp_path):
        (tmp_path / "a.txt").write_text("don't don t apple\n")
        index = build_index_from_corpus(tmp_path, IdentityTokenCodec(), 5, stopwords=["don't"])
        assert index.tokens() == [b"apple"]


class CountingCodec(IdentityTokenCodec):
    def __init__(self):
        self.calls: list[str] = []

    def encrypt_token(self, plaintext):
        self.calls.append(plaintext)
        return super().encrypt_token(plaintext)


class TestEncryptOncePerBuild:
    def test_keyword_records(self):
        records = [("d1", [("net", 3), ("cake", 1)]), ("d2", [("net", 2)]), ("d3", [("cake", 4), ("net", 1)])]
        codec = CountingCodec()
        index = ingest(records, codec.encrypt_token)
        assert sorted(codec.calls) == ["cake", "net"]
        assert index == ingest([(d, [(t.encode(), f) for t, f in pairs]) for d, pairs in records])
        # the term -> token map does not outlive a build
        ingest(records, codec.encrypt_token)
        assert sorted(codec.calls) == ["cake", "cake", "net", "net"]

    def test_records_are_encrypted_as_they_arrive(self):
        codec = CountingCodec()

        def records():
            yield "d1", [("net", 3)]
            assert codec.calls == ["net"]
            yield "d2", [("cake", 1), ("net", 2)]

        assert ingest(records(), codec.encrypt_token) == ingest([("d1", [(b"net", 3)]),
                                                                 ("d2", [(b"cake", 1), (b"net", 2)])])

    def test_a_keyword_file_build_holds_little_beyond_the_index(self, tmp_path):
        # each record is read, encrypted and ingested before the next, and each token's
        # per-document map is freed as its posting list is built: the peak stays near the index
        rng = random.Random(3)
        words = [f"w{i}" for i in range(2000)]
        path = tmp_path / "kw.tsv"
        path.write_text("".join(
            f"d{j:05d}\t" + ",".join(f"{w}:{rng.randint(1, 9)}" for w in rng.sample(words, 20)) + "\n"
            for j in range(3000)
        ))
        codec = KeyedTokenCodec(SecretKey(bytes(32)))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = ingest(keyword_records(path), codec.encrypt_token)
            gc.collect()
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert sum(map(len, index.entries.values())) == 60_000
        assert peak < 1.5 * held

    def test_corpus(self, mini_corpus_dir):
        codec = CountingCodec()
        index = build_index_from_corpus(mini_corpus_dir, codec, 20)
        assert len(codec.calls) == len(set(codec.calls)) == index.token_count


def test_records_from_freqs_matches_a_per_document_scan():
    def per_document_scan(freqs, docs):
        all_docs = set(docs) | {d for by_doc in freqs.values() for d in by_doc}
        return [(d, [(t, freqs[t][d]) for t in sorted(freqs) if d in freqs[t]]) for d in sorted(all_docs)]

    assert records_from_freqs(EXAMPLE_FREQS, EXAMPLE_DOCS) == per_document_scan(EXAMPLE_FREQS, EXAMPLE_DOCS)
    freqs = random_freqs(np.random.default_rng(3), 200, 40)
    docs = [f"d{j:04d}" for j in range(45)]  # five documents without tokens
    assert records_from_freqs(freqs, docs) == per_document_scan(freqs, docs)
    assert records_from_freqs(freqs) == per_document_scan(freqs, [])
