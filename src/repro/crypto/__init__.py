"""Cryptographic substrate for the privacy-preserving protocols.

The paper assumes the availability of (a) high-quality seeded pseudo-random
number generators shared pairwise between parties, (b) secured channels, and
(c) a shared-key encryption scheme for categorical attributes.  This package
provides all three from scratch, plus a Paillier cryptosystem used by the
Atallah et al. [8] baseline protocol:

* :mod:`repro.crypto.prng` -- re-seedable PRNGs with the exact reset
  semantics the protocols rely on,
* :mod:`repro.crypto.keys` -- finite-field Diffie-Hellman pairwise key
  agreement and seed/key derivation,
* :mod:`repro.crypto.sym` -- symmetric authenticated encryption for secure
  channels: a SHAKE-256 keystream with an HMAC-SHA256 tag, on the
  unchanged wire layout ``nonce (16) || ciphertext || tag (32)``,
* :mod:`repro.crypto.detenc` -- deterministic encryption for categorical
  equality comparison,
* :mod:`repro.crypto.paillier` -- additively homomorphic Paillier
  cryptosystem,
* :mod:`repro.crypto.numbers` -- number-theoretic helpers.
"""

from repro.crypto.detenc import DeterministicEncryptor
from repro.crypto.keys import DiffieHellman, PairwiseSecret, derive_seed, derive_key
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.prng import (
    HashDRBG,
    Lcg64,
    ReseedablePRNG,
    XorShift64Star,
    make_prng,
)
from repro.crypto.sym import SymmetricCipher, seal, open_sealed

__all__ = [
    "DeterministicEncryptor",
    "DiffieHellman",
    "PairwiseSecret",
    "derive_seed",
    "derive_key",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_paillier_keypair",
    "HashDRBG",
    "Lcg64",
    "ReseedablePRNG",
    "XorShift64Star",
    "make_prng",
    "SymmetricCipher",
    "seal",
    "open_sealed",
]
