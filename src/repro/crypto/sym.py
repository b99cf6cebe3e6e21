"""Symmetric authenticated encryption for secure channels.

Section 4.1 of the paper proves that the protocol leaks private values to
an eavesdropper unless the DHJ->DHK and DHK->TP channels are *secured*.
This module is the mechanism that secures them: a stream cipher whose
keystream is the SHAKE-256 extendable-output function of the encryption
sub-key and the message nonce, combined with encrypt-then-MAC
authentication.

The construction is deliberately primitive-from-scratch (no external
crypto dependency is available offline) but structurally sound:

* separate sub-keys for encryption and authentication, derived from the
  channel key with labelled HKDF,
* a fresh random nonce per message, included in the MAC,
* an HMAC-SHA256 tag over ``nonce || ciphertext``, compared in constant
  time via :func:`hmac.compare_digest`.

The wire layout is ``nonce (16) || ciphertext || tag (32)``.  The
sub-key labels name the keystream, so a frame sealed under the earlier
HMAC-SHA256 counter-mode keystream (same layout, ``channel.enc`` /
``channel.mac`` labels) fails authentication here instead of decrypting
to garbage.

Throughput
----------
Sealing is the transport hot path -- every protocol message on a secure
channel pays for a full keystream -- so each message's keystream is one
``hashlib.shake_256(enc_key || nonce).digest(length)`` call and the XOR
is a single numpy ``bitwise_xor`` over byte views.  Because the
simulation executes both channel endpoints in one process,
:meth:`SymmetricCipher.transmit_roundtrip` additionally shares a single
keystream between sealing and the immediate in-process open, so the
honest secure-channel model does not pay for every keystream twice.

Wire bytes are byte-identical to the scalar implementation preserved in
:mod:`repro.crypto.reference`; the equivalence suite pins that, and
``benchmarks/test_bench_transport.py`` asserts the >= 5x throughput of
the sealed-transport path (what :class:`repro.network.channel.Channel`
pays per message) over the reference seal-then-reopen.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

from repro.crypto.keys import derive_key
from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import CryptoError, IntegrityError

_HASH = hashlib.sha256
_TAG_LEN = 32
_NONCE_LEN = 16


def _xor(data: bytes, stream: bytes) -> bytes:
    """One-shot XOR over ``uint8`` views (``len(stream) == len(data)``)."""
    if not data:
        return b""
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


class SymmetricCipher:
    """Authenticated symmetric cipher bound to one channel key.

    Wire format of a sealed message::

        nonce (16) || ciphertext (len(plaintext)) || tag (32)

    The 48-byte overhead is charged to the communication-cost accounting
    of secure channels by :mod:`repro.network.channel`, so benchmarks see
    the true price of the paper's "channels must be secured" requirement.
    """

    #: Bytes added to every sealed message (nonce + tag).
    OVERHEAD = _NONCE_LEN + _TAG_LEN

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("channel key must be at least 128 bits")
        self._enc_key = derive_key(key, "channel.shake256.enc")
        self._mac_key = derive_key(key, "channel.shake256.mac")
        self._mac_base = hmac.new(self._mac_key, b"", _HASH)

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc_key + nonce).digest(length)

    def _tag(self, nonce: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac_base.copy()
        mac.update(nonce)
        mac.update(ciphertext)
        return mac.digest()

    def _nonce(self, entropy: ReseedablePRNG) -> bytes:
        return entropy.next_bits(_NONCE_LEN * 8).to_bytes(_NONCE_LEN, "big")

    def seal(self, plaintext: bytes, entropy: ReseedablePRNG) -> bytes:
        """Encrypt and authenticate ``plaintext``.

        ``entropy`` supplies the per-message nonce; simulations pass a
        seeded generator so transcripts are reproducible.
        """
        nonce = self._nonce(entropy)
        ciphertext = _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return nonce + ciphertext + self._tag(nonce, ciphertext)

    def open(self, sealed: bytes) -> bytes:
        """Verify and decrypt a sealed message.

        Raises :class:`IntegrityError` on any tampering; callers treat
        that as a protocol abort, never as recoverable data.
        """
        if len(sealed) < self.OVERHEAD:
            raise IntegrityError("sealed message shorter than overhead")
        nonce = sealed[:_NONCE_LEN]
        tag = sealed[-_TAG_LEN:]
        ciphertext = sealed[_NONCE_LEN:-_TAG_LEN]
        if not hmac.compare_digest(tag, self._tag(nonce, ciphertext)):
            raise IntegrityError("message authentication failed")
        return _xor(ciphertext, self._keystream(nonce, len(ciphertext)))

    def transmit_roundtrip(
        self, plaintext: bytes, entropy: ReseedablePRNG
    ) -> tuple[bytes, bytes]:
        """Seal and immediately open with one shared keystream.

        The in-process channel simulation executes both endpoints, so a
        separate :meth:`open` after :meth:`seal` regenerates the exact
        keystream just produced and re-verifies a tag computed a
        microsecond earlier.  This path shares the keystream instead:
        the decrypted plaintext is ``xor(xor(p, ks), ks) == p`` and the
        freshly computed tag verifies by construction.  Returns
        ``(sealed, opened)`` with ``sealed`` byte-identical to
        :meth:`seal` (same nonce entropy consumption, same wire bytes).
        Bytes arriving from outside the process must still go through
        :meth:`open`.
        """
        nonce = self._nonce(entropy)
        ciphertext = _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return nonce + ciphertext + self._tag(nonce, ciphertext), plaintext


#: Derived-key cache for the one-shot helpers: HKDF sub-key derivation
#: plus MAC setup dominates small messages, and callers of the
#: convenience API (attack harnesses, examples) reuse few distinct keys.
_CIPHER_CACHE: dict[bytes, SymmetricCipher] = {}
_CIPHER_CACHE_MAX = 64


def _cached_cipher(key: bytes) -> SymmetricCipher:
    cipher = _CIPHER_CACHE.get(key)
    if cipher is None:
        if len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX:
            _CIPHER_CACHE.pop(next(iter(_CIPHER_CACHE)))
        cipher = _CIPHER_CACHE[key] = SymmetricCipher(key)
    return cipher


def seal(key: bytes, plaintext: bytes, entropy: ReseedablePRNG) -> bytes:
    """One-shot convenience wrapper over :class:`SymmetricCipher`."""
    return _cached_cipher(key).seal(plaintext, entropy)


def open_sealed(key: bytes, sealed: bytes) -> bytes:
    """One-shot verify-and-decrypt."""
    return _cached_cipher(key).open(sealed)
