"""Deterministic token encryption.

Equal plaintexts must map to equal ciphertexts so that exact-match lookups
work over the encrypted index. Two codecs are provided: a keyed PRF that
emits fixed-width tags, and an identity codec that leaves tokens readable
for embedding-based evaluation runs.
"""
from __future__ import annotations

import binascii
import hashlib
import hmac
from dataclasses import dataclass
from pathlib import Path

# Encrypted tokens are raw bytes throughout; files render them base64.
CipherToken = bytes

KEY_BYTES = 32
TAG_BYTES = 16


class CryptoError(ValueError):
    pass


@dataclass(frozen=True)
class SecretKey:
    """256-bit key material. Never serialized into any output artifact."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != KEY_BYTES:
            raise CryptoError(f"secret key must be {KEY_BYTES} bytes, got {len(self.data)}")

    def __repr__(self) -> str:  # keep key material out of logs
        return "SecretKey(<32 bytes>)"


def load_key(path: str | Path) -> SecretKey:
    """Read a key file: either 32 raw bytes or 64 hex characters."""
    raw = Path(path).read_bytes()
    if len(raw) == KEY_BYTES:
        return SecretKey(raw)
    text = raw.decode("ascii", errors="replace").strip()
    if len(text) == 2 * KEY_BYTES:
        try:
            return SecretKey(bytes.fromhex(text))
        except ValueError:
            pass
    raise CryptoError(f"key file {path} must hold 32 raw bytes or 64 hex characters")


# Every byte outside [a-z0-9] becomes a space.
SEPARATORS = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))


def words(text: str) -> list[str]:
    """The words of a text: its maximal runs of [a-z0-9] after lower().

    This is the tokenizer rule, equal to re.findall("[a-z0-9]+", text.lower()).
    Every character outside [a-z0-9] separates words, so a non-ASCII
    character left by lower() is encoded as "?" and then translated to a
    space with the rest; a character whose lower case is ASCII, such as
    U+212A KELVIN SIGN, still gives its letter. All the per-character work
    runs in C.
    """
    return text.lower().encode("ascii", "replace").translate(SEPARATORS).decode("ascii").split()


class TokenCodec:
    """Deterministic word -> CipherToken mapping; subclasses plug in schemes."""

    def encrypt_token(self, plaintext: str) -> CipherToken:
        raise NotImplementedError


class KeyedTokenCodec(TokenCodec):
    """Keyed PRF over a plaintext word, truncated to a fixed-width tag.

    Output length never depends on input length, so token sizes leak nothing
    about the underlying words. The tag is HMAC-SHA256(key, plaintext); the
    keyed state is set up once, and each token copies it and feeds it the
    plaintext's UTF-8 bytes.
    """

    def __init__(self, key: SecretKey) -> None:
        self._mac = hmac.new(key.data, digestmod=hashlib.sha256)

    def encrypt_token(self, plaintext: str) -> CipherToken:
        if not plaintext:
            raise CryptoError("cannot encrypt an empty token")
        mac = self._mac.copy()
        mac.update(plaintext.encode("utf-8"))
        return mac.digest()[:TAG_BYTES]


class IdentityTokenCodec(TokenCodec):
    """Pass-through codec for evaluation mode: tokens stay readable."""

    def encrypt_token(self, plaintext: str) -> CipherToken:
        if not plaintext:
            raise CryptoError("cannot encrypt an empty token")
        return plaintext.encode("utf-8")


def encrypt_query(codec: TokenCodec, query: str) -> list[CipherToken]:
    """Encrypt the words of a query; order kept, duplicates dropped.

    The words are those of words(), the rule documents are tokenized by, so
    "Net-traffic!" finds the documents indexed under net and traffic.
    Stopwords are kept: an index built with other stopwords may hold them,
    and a token the index lacks matches nothing anyway.
    """
    return list(dict.fromkeys(map(codec.encrypt_token, words(query))))


def token_to_b64(token: CipherToken) -> str:
    return binascii.b2a_base64(token, newline=False).decode("ascii")


def token_from_b64(text: str) -> CipherToken:
    """The token that token_to_b64 rendered as text; no codec makes an empty token, so none is read. Decoding
    skips stray characters and a padded last character's unused bits, so only the text written is read back."""
    token = binascii.a2b_base64(text)
    if not token:
        raise CryptoError("empty token")
    if binascii.b2a_base64(token, newline=False).decode("ascii") != text:
        raise CryptoError(f"{text!r} is not canonical base64")
    return token
