"""Encrypted central index: ingestion, trimming, and the on-disk TSV format.

The index is the system's source of truth: a map from encrypted token to a
posting list of (document id, frequency). Frequencies stay plaintext; only
token identities are ciphertext. A document's terms are its crypto.words,
which states the tokenizer rule.

ingest is the one loop that builds an index: postings accumulate under each
term, a term is encrypted where it is first seen, and the lists are keyed by
token when the input ends. An index is its posting lists: CentralIndex holds
nothing else, and its documents are those that hold a posting, derived only
where the matrices read them. A document with no keyword is in no index, so
ingest and the two readers build equal indexes from the same postings.

A posting list is a plain `{doc: frequency}` dict held in ascending
document-id order, from ingest and the readers through to search. CPython's
garbage collector never tracks a dict whose keys and values are all strs
and ints, so an index of any size adds nothing to any collection; for three
or more postings the dict is also smaller than a tuple of pairs.
"""
from __future__ import annotations

import codecs
import hashlib
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse, islice
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import Any, Iterable, Iterator

from .crypto import CipherToken, TokenCodec, token_from_b64, token_to_b64, words


class IndexDataError(ValueError):
    """Malformed or inconsistent index input."""


# Characters that would break the TSV / posting-list syntax.
_BAD_DOC_CHARS = re.compile(r"[\t\n\r:,]")

# One `docId:freq` posting as write_index writes it, and a whole posting field.
# [0-9], not \d: int() would also accept non-ASCII digits.
_POSTING = r"[^\t:,]+:[1-9][0-9]*"
_POSTING_FIELD = re.compile(f"{_POSTING}(?:,{_POSTING})*")

DEFAULT_STOPWORDS = frozenset(
    """a about above after again all also an and any are as at be because been
    before being below between both but by could did do does doing down during
    each few for from further had has have having he her here hers him his how
    i if in into is it its just me more most my no nor not of off on once only
    or other our out over own same she should so some such than that the their
    them then there these they this those through to too under until up very
    was we were what when where which while who whom why will with you your
    """.split()
)


@dataclass(frozen=True)
class CentralIndex:
    """Token -> postings map; not to be mutated.

    entries are keyed by ciphertext bytes, in no particular order; tokens()
    is the one place that orders them, by bytes, so every downstream
    artifact is reproducible. Each token's postings are a {document id:
    frequency} dict in ascending id order.
    """

    entries: dict[CipherToken, dict[str, int]]

    @cached_property
    def docs(self) -> tuple[str, ...]:
        """Every document holding a posting, in id order: the matrices' columns, computed on first use."""
        return tuple(sorted(set().union(*self.entries.values())))

    @property
    def token_count(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[CipherToken]:
        return sorted(self.entries)

    def total_frequency(self, token: CipherToken) -> int:
        return sum(self.entries[token].values())


@dataclass(frozen=True)
class TrimmedIndex:
    """The tokens of an index that reach its mean document co-occurrence, in byte order (readers do not re-sort).

    Only `kept` tokens enter matrix construction and center selection; the
    others rejoin at distribution time.
    """

    index: CentralIndex
    kept: tuple[CipherToken, ...]


def extract_keywords(
    document_text: str, n: int, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> list[tuple[str, int]]:
    """Top-n non-stopword terms of a document by in-document frequency.

    Terms are crypto.words of the text; a stopword drops the term equal to
    it, so each must be one such word. Ties break lexicographically; the
    same n must be used for every document of a corpus.

    Only terms whose count reaches the n-th largest count are sorted, by
    term and then stably by count, descending: the (-count, term) order,
    with both sorts keyed in C.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = Counter(filterfalse(stopwords.__contains__, words(document_text)))
    items = counts.items()
    if len(counts) > n:
        floor = sorted(counts.values(), reverse=True)[n - 1]
        items = [kv for kv in items if kv[1] >= floor]
    return sorted(sorted(items), key=itemgetter(1), reverse=True)[:n]


def in_doc_order(by_doc: dict[str, int]) -> dict[str, int]:
    """by_doc if its documents run in ascending id order, else a copy that does."""
    if all(map(lt, by_doc, islice(by_doc, 1, None))):
        return by_doc
    return dict(sorted(by_doc.items()))


def check_doc_id(doc_id: str, where: str = "") -> None:
    """Reject a document id that index.tsv cannot hold (empty, or holding a
    tab, line break, colon or comma); `where` prefixes the message."""
    if not doc_id:
        raise IndexDataError(f"{where}document id must be non-empty")
    if _BAD_DOC_CHARS.search(doc_id):
        raise IndexDataError(f"{where}document id {doc_id!r} contains reserved characters")


def ingest(records: Iterable[tuple[str, Iterable[tuple[Any, int]]]], token=bytes) -> CentralIndex:
    """Build a CentralIndex from per-document (key, frequency) lists, one record in flight at a time.

    token(key) is called once, where the key is first seen: a codec's
    encrypt_token for terms, bytes for token records. That map is local to
    the call, so no key-derived value outlives it. When the records end, each
    key's per-document map becomes its token's posting list (see
    in_doc_order), freed as it is copied. Rejects duplicate document ids, any
    (key, doc) pair given two frequencies, and two keys of one token. A
    document with no pair is checked, but holds no posting.
    """
    seen_docs: set[str] = set()
    acc: dict[Any, dict[str, int]] = {}
    token_of: dict[Any, CipherToken] = {}
    for doc_id, pairs in records:
        check_doc_id(doc_id)
        if doc_id in seen_docs:
            raise IndexDataError(f"duplicate document id {doc_id!r}")
        seen_docs.add(doc_id)
        for key, freq in pairs:
            if freq < 1:
                raise IndexDataError(f"frequency must be >= 1 for token in {doc_id!r}, got {freq}")
            by_doc = acc.get(key)
            if by_doc is None:
                by_doc = acc[key] = {}
                token_of[key] = token(key)
            if by_doc.setdefault(doc_id, freq) != freq:
                raise IndexDataError(
                    f"conflicting frequencies for (token={token_to_b64(token_of[key])}, doc={doc_id!r}): "
                    f"{by_doc[doc_id]} vs {freq}"
                )
    entries = {token_of[key]: in_doc_order(acc.pop(key)) for key in list(acc)}
    if len(entries) < len(token_of):
        [(shared, _)] = Counter(token_of.values()).most_common(1)
        raise IndexDataError(f"two keys map to the token {token_to_b64(shared)}")
    return CentralIndex(entries)


def trim(index: CentralIndex) -> TrimmedIndex:
    """Keep tokens whose document count reaches the mean document count.

    The max-count token always survives, so `kept` is never empty.
    """
    if index.token_count == 0:
        raise IndexDataError("cannot trim an empty index")
    tokens = index.tokens()
    counts = [len(index.entries[t]) for t in tokens]
    mean = sum(counts) / len(counts)
    return TrimmedIndex(index=index, kept=tuple(compress(tokens, [n >= mean for n in counts])))


# ---------------------------------------------------------------------------
# corpus / keyword-file ingestion

def build_index_from_corpus(
    corpus_dir: str | Path,
    codec: TokenCodec,
    n: int,
    stopwords: Iterable[str] = DEFAULT_STOPWORDS,
    digest: hashlib._Hash | None = None,
) -> CentralIndex:
    """Extract keywords from every *.txt file in a directory and ingest them, encrypted by codec.

    The file name (without extension) becomes the document id, checked
    before the file is read, and a fault names the file. Each file is read
    once, as bytes, decoded as UTF-8 and ingested before the next is read;
    line endings are kept, which no word (crypto.words) can tell apart. If a
    digest is given, each file's name and bytes are fed to it as read, in
    name order, each followed by a NUL byte, so it covers exactly the
    bytes indexed. The stopwords are split by crypto.words ("don't": don, t).
    """
    corpus = Path(corpus_dir)
    paths = sorted((p for p in corpus.iterdir() if p.is_file() and p.suffix == ".txt"), key=attrgetter("name"))
    if not paths:
        raise IndexDataError(f"no .txt documents found in {corpus}")
    stop = frozenset(words(" ".join(stopwords)))

    def read(path: Path) -> str:
        check_doc_id(path.stem, f"{path}: ")
        raw = path.read_bytes()
        if digest is not None:
            digest.update(path.name.encode("utf-8") + b"\0" + raw + b"\0")
        return _decode(raw, path)

    records = ((path.stem, extract_keywords(read(path), n, stop)) for path in paths)
    return ingest(records, codec.encrypt_token)


def keyword_records(path: str | Path) -> Iterator[tuple[str, list[tuple[str, int]]]]:
    """Parse a pre-extracted keyword file, `docId<TAB>term:freq[,term:freq]*`, one record per line.

    A term is the one crypto.words word of its raw spelling (split once per
    distinct spelling), as documents and queries are split. Rejected with
    path:lineno: a line without a tab, a malformed pair, a term of no word
    or of two (net-traffic), a term given twice on one line, a frequency not
    of ASCII digits or below 1, a document id that ingest rejects and a
    document id repeated on a later line. Each record is yielded once its
    line passes, so a consumer that drops it holds one record at a time.
    """
    first_line: dict[str, int] = {}
    term_of: dict[str, str] = {}
    for lineno, line in data_lines(path):
        where = f"{path}:{lineno}"
        try:
            doc_id, rest = line.split("\t", 1)
        except ValueError:
            raise IndexDataError(f"{where}: expected `docId<TAB>term:freq,...`")
        check_doc_id(doc_id, f"{where}: ")
        if doc_id in first_line:
            raise IndexDataError(f"{where}: document id {doc_id!r} is also on line {first_line[doc_id]}")
        first_line[doc_id] = lineno
        pairs: dict[str, int] = {}
        if rest.strip():
            for item in rest.split(","):
                raw, sep, freq_s = item.rpartition(":")
                if not sep or not raw:
                    raise IndexDataError(f"{where}: malformed pair {item!r}")
                term = term_of.get(raw)
                if term is None:
                    found = words(raw)
                    if len(found) != 1:
                        fault = f"splits into the words {', '.join(found)}; a term must be one word"
                        raise IndexDataError(f"{where}: term {raw!r} {fault if found else 'is empty once normalized'}")
                    term = term_of[raw] = found[0]
                if term in pairs:
                    raise IndexDataError(f"{where}: term {term!r} is given twice")
                freq = int(freq_s) if freq_s.isascii() and freq_s.isdigit() else 0
                if freq < 1:
                    raise IndexDataError(
                        f"{where}: frequency {freq_s!r} of {term!r} is not an integer >= 1 in ASCII digits"
                    )
                pairs[term] = freq
        yield doc_id, list(pairs.items())


def read_keyword_file(path: str | Path) -> list[tuple[str, list[tuple[str, int]]]]:
    """Every record of a keyword file (see keyword_records), in file order."""
    return list(keyword_records(path))


# ---------------------------------------------------------------------------
# line files: UTF-8 with LF line endings; readers skip blank lines

def write_lines(path: str | Path, lines: Iterable[str]) -> str:
    """Write each line followed by one LF, as UTF-8, replacing path atomically.

    Each line is encoded, hashed and written in turn to a temporary file
    beside path, which os.replace then moves over it; the sha256 hex digest
    of its bytes is returned. A failure before that removes the temporary
    file and leaves any earlier file at path as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    h = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for line in lines:
                data = (line + "\n").encode("utf-8")
                h.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return h.hexdigest()


def data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every non-blank line of a UTF-8 file, read one line at a time.

    Lines end at LF only (CR LF and CR read as LF). str.splitlines would also
    split at U+2028, U+0085 and other characters a document id may hold.
    The whole file is checked as UTF-8 before the first line is yielded, so
    a decoding error comes before any fault a reader finds in a line. It is
    an IndexDataError that names the path and the position in the whole
    file, for every reader that reads its file through here.
    """
    _check_utf8(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                yield lineno, line.removesuffix("\n")


def _check_utf8(path: str | Path) -> None:
    """Raise _decode's error for path's whole contents, if any, holding one chunk at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 13):
                decoder.decode(chunk)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        _decode(Path(path).read_bytes(), path)  # the same error, with its position in the whole file
        raise


def _decode(raw: bytes, path: str | Path) -> str:
    """raw, the contents of path, decoded as UTF-8; a decoding error names path and its position in raw."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexDataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# index file format (TSV)

def write_index(index: CentralIndex, path: str | Path) -> str:
    """One line per token: `<b64 token>\\t<docId>:<freq>[,<docId>:<freq>]*`; returns write_lines' digest."""
    return write_lines(path, (
        f"{token_to_b64(token)}\t" + ",".join(f"{doc}:{freq}" for doc, freq in index.entries[token].items())
        for token in index.tokens()
    ))


def read_index(path: str | Path) -> CentralIndex:
    """Parse an index file written by write_index.

    Rejected with path:lineno: a malformed line (an empty token among them)
    or posting, a document id holding a tab or colon, a frequency not
    written as write_index writes an integer >= 1 (ASCII digits, no sign,
    separator, space or leading zero), a token on two lines and a document
    listed twice for one token; and, naming the path, a file of no token.
    Every posting map holds one string per document id, the first one read.
    One regex match checks the posting field, so the per-posting loop only
    splits and converts; a line that fails a check is diagnosed by
    _posting_fault.
    """
    entries: dict[CipherToken, dict[str, int]] = {}
    docs: dict[str, str] = {}
    for lineno, line in data_lines(path):
        try:
            token_s, rest = line.split("\t", 1)
            token = token_from_b64(token_s)
        except ValueError:
            raise IndexDataError(f"{path}:{lineno}: malformed index line")
        if token in entries:
            raise IndexDataError(f"{path}:{lineno}: token {token_s} is listed twice")
        items = rest.split(",")
        if not _POSTING_FIELD.fullmatch(rest):
            raise IndexDataError(f"{path}:{lineno}: {_posting_fault(items)}")
        by_doc: dict[str, int] = {}
        for item in items:
            doc_id, _, freq_s = item.partition(":")
            by_doc[docs.setdefault(doc_id, doc_id)] = int(freq_s)
        if len(by_doc) != len(items):
            raise IndexDataError(f"{path}:{lineno}: {_posting_fault(items)}")
        entries[token] = in_doc_order(by_doc)
    if not entries:
        raise IndexDataError(f"{path}: the index holds no token")
    return CentralIndex(entries)


def _posting_fault(items: list[str]) -> str:
    """The first fault among a faulty line's `docId:freq` items, in line order."""
    seen: set[str] = set()
    for item in items:
        doc_id, sep, freq_s = item.rpartition(":")
        if not sep or not doc_id:
            return f"malformed posting {item!r}"
        if _BAD_DOC_CHARS.search(doc_id):
            return f"document id {doc_id!r} contains reserved characters"
        if not re.fullmatch("[0-9]+", freq_s):
            return f"frequency {freq_s!r} of {doc_id!r} is not an integer of ASCII digits"
        if not re.fullmatch(_POSTING, item):
            return f"bad frequency in {item!r}; need an integer >= 1 with no leading zero"
        if doc_id in seen:
            return f"document {doc_id!r} is listed twice"
        seen.add(doc_id)
    raise AssertionError("_posting_fault called on a valid line")


def index_digest(index: CentralIndex) -> str:
    """sha256 over the (token, doc, frequency) triples, tokens in byte order."""
    h = hashlib.sha256()
    for token in index.tokens():
        name = token_to_b64(token)
        for doc, freq in index.entries[token].items():
            h.update(f"{name}\0{doc}\0{freq}\n".encode("utf-8"))
    return h.hexdigest()


def load_stopwords(path: str | Path) -> frozenset[str]:
    """The crypto.words of a stopwords file: an entry "don't" gives don and t."""
    return frozenset(words(_decode(Path(path).read_bytes(), path)))
