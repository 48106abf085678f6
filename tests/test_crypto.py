import base64
import hashlib
import hmac
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cipherclust.crypto import (
    CryptoError,
    IdentityTokenCodec,
    KeyedTokenCodec,
    SecretKey,
    encrypt_query,
    load_key,
    token_from_b64,
    token_to_b64,
    words,
)
from cipherclust.index import extract_keywords

KEY_A = SecretKey(bytes(range(32)))
KEY_B = SecretKey(bytes(range(1, 33)))

plain_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=24)


class TestKeyedCodec:
    def test_deterministic(self):
        codec = KeyedTokenCodec(KEY_A)
        assert codec.encrypt_token("net") == codec.encrypt_token("net")

    def test_keyed(self):
        assert KeyedTokenCodec(KEY_A).encrypt_token("net") != KeyedTokenCodec(KEY_B).encrypt_token("net")

    def test_fixed_width(self):
        codec = KeyedTokenCodec(KEY_A)
        assert len(codec.encrypt_token("a")) == len(codec.encrypt_token("a" * 120)) == 16

    def test_empty_rejected(self):
        with pytest.raises(CryptoError):
            KeyedTokenCodec(KEY_A).encrypt_token("")

    def test_redeterminism_bulk(self):
        # 10k random words re-encrypt to byte-identical ciphertexts
        rng = np.random.default_rng(7)
        vocab = ["w%d%04d" % (rng.integers(0, 10), i) for i in range(10_000)]
        codec = KeyedTokenCodec(KEY_A)
        first = [codec.encrypt_token(w) for w in vocab]
        second = [codec.encrypt_token(w) for w in vocab]
        assert first == second

    @given(key=st.binary(min_size=32, max_size=32), terms=st.lists(st.text(min_size=1, max_size=30), max_size=5))
    def test_tags_are_truncated_hmac_sha256(self, key, terms):
        # one codec serves every term from its keyed state: no term's tag depends on an earlier one
        codec = KeyedTokenCodec(SecretKey(key))
        for term in terms + terms:
            assert codec.encrypt_token(term) == hmac.new(key, term.encode("utf-8"), hashlib.sha256).digest()[:16]

    def test_repr_hides_the_key(self):
        key = bytes(range(100, 132))
        codec = KeyedTokenCodec(SecretKey(key))
        text = repr(codec) + repr(vars(codec))
        assert key.hex() not in text and repr(key) not in text and "SecretKey" not in repr(codec)

    def test_no_collisions_at_desk_scale(self):
        codec = KeyedTokenCodec(KEY_A)
        tokens = {codec.encrypt_token(f"word{i}") for i in range(100_000)}
        assert len(tokens) == 100_000


class TestIdentityCodec:
    def test_b64_decodes_to_word(self):
        token = IdentityTokenCodec().encrypt_token("net")
        assert base64.b64decode(token_to_b64(token)).decode() == "net"

    @given(word=plain_words)
    def test_round_trip(self, word):
        codec = IdentityTokenCodec()
        assert codec.encrypt_token(word).decode("utf-8") == word


class TestEncryptQuery:
    def test_normalizes_and_orders(self):
        codec = KeyedTokenCodec(KEY_A)
        assert encrypt_query(codec, "Net Traffic") == [
            codec.encrypt_token("net"),
            codec.encrypt_token("traffic"),
        ]

    def test_dedup(self):
        codec = KeyedTokenCodec(KEY_A)
        assert encrypt_query(codec, "net net") == [codec.encrypt_token("net")]

    def test_empty(self):
        assert encrypt_query(KeyedTokenCodec(KEY_A), "") == []
        assert encrypt_query(KeyedTokenCodec(KEY_A), "   ") == []
        assert encrypt_query(KeyedTokenCodec(KEY_A), " ,;!? ") == []

    def test_punctuation_splits_as_in_documents(self):
        codec = IdentityTokenCodec()
        assert encrypt_query(codec, "Junijudu, jomime!") == [b"junijudu", b"jomime"]
        assert encrypt_query(codec, "net-traffic (NET)") == [b"net", b"traffic"]

    def test_stopwords_are_kept(self):
        # an index built with other stopwords may hold "the"
        assert encrypt_query(IdentityTokenCodec(), "the net") == [b"the", b"net"]

    @given(text=st.one_of(
        st.text(),
        st.text(alphabet=st.one_of(st.characters(), st.sampled_from("aZ9 -,.!\r\x00\u2028\u0130\u212a\u00df"))),
    ))
    def test_query_tokens_are_the_document_tokens(self, text):
        # the query tokens are the words of the text, first occurrences in order, and each is a
        # token of the text indexed as a document
        codec = KeyedTokenCodec(KEY_A)
        tokens = encrypt_query(codec, text)
        assert tokens == [codec.encrypt_token(w) for w in dict.fromkeys(words(text))]
        document = {codec.encrypt_token(term) for term, _ in extract_keywords(text, 10**6, frozenset())}
        assert set(tokens) <= document


class TestKeyHandling:
    def test_key_must_be_32_bytes(self):
        with pytest.raises(CryptoError):
            SecretKey(b"short")

    def test_load_raw_and_hex(self, tmp_path):
        raw = tmp_path / "raw.key"
        raw.write_bytes(bytes(range(32)))
        assert load_key(raw).data == bytes(range(32))
        hexfile = tmp_path / "hex.key"
        hexfile.write_text(bytes(range(32)).hex() + "\n")
        assert load_key(hexfile).data == bytes(range(32))

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"nope")
        with pytest.raises(CryptoError):
            load_key(bad)

    def test_repr_hides_material(self):
        assert "00" not in repr(SecretKey(bytes(32)))


@given(text=st.text(max_size=10))
def test_words_idempotent(text):
    # the words of a text, joined by spaces, are their own words
    once = words(text)
    assert words(" ".join(once)) == once


@given(token=st.binary(min_size=1, max_size=40))
def test_b64_round_trip(token):
    assert token_from_b64(token_to_b64(token)) == token


B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@given(token=st.binary(min_size=1, max_size=40), data=st.data())
def test_b64_reads_only_the_written_spelling(token, data):
    # decoding skips a stray character, and the unused low bits of a padded last character
    text = token_to_b64(token)
    at = data.draw(st.integers(0, len(text)))
    spellings = [text[:at] + " " + text[at:]]
    pad = text.count("=")
    if pad:
        last = B64_ALPHABET.index(text[-pad - 1]) ^ data.draw(st.integers(1, (1 << 2 * pad) - 1))
        spellings.append(text[:-pad - 1] + B64_ALPHABET[last] + "=" * pad)
    for spelling in spellings:
        assert base64.b64decode(spelling) == token
        with pytest.raises(CryptoError, match=f"^{re.escape(repr(spelling))} is not canonical base64$"):
            token_from_b64(spelling)


def test_one_of_the_sixteen_spellings_of_a_byte_is_read():
    # "a" is 011000 01, so its second character's low four bits are padding
    spellings = [f"Y{c}==" for c in B64_ALPHABET if base64.b64decode(f"Y{c}==") == b"a"]
    assert len(spellings) == 16

    def reads(text):
        try:
            return token_from_b64(text) == b"a"
        except CryptoError:
            return False

    assert [text for text in spellings if reads(text)] == ["YQ=="] == [token_to_b64(b"a")]


class TestWords:
    """words(text) is re.findall("[a-z0-9]+", text.lower()) for every str."""

    @pytest.mark.parametrize("text, expected", [
        ("", []),
        ("\u212a\u212aelvin", ["kkelvin"]),  # KELVIN SIGN lower-cases to ASCII k
        ("\u0130stanbul", ["i", "stanbul"]),  # lower() gives i + U+0307, a separator
        ("line\u2028sep", ["line", "sep"]),
        ("next\u0085line", ["next", "line"]),
        ("nul\x00byte", ["nul", "byte"]),
        ("cr\rlf\r\n", ["cr", "lf"]),
        ("lone\ud800surrogate", ["lone", "surrogate"]),
        ("Stra\u00dfe \ufb01ne x\u0663y 12ab", ["stra", "e", "ne", "x", "y", "12ab"]),
    ])
    def test_cases(self, text, expected):
        assert words(text) == expected == re.findall("[a-z0-9]+", text.lower())

    @given(text=st.one_of(
        st.text(),
        st.text(alphabet=st.one_of(st.characters(), st.sampled_from("aZ9 -\r\x0b\x00\u0085\u2028\u0130\u212a\u00df\ufb01"))),
    ))
    def test_equals_regex_on_lowered_text(self, text):
        assert words(text) == re.findall("[a-z0-9]+", text.lower())
