"""Enclave identity, attestation documents, and a mock key-management
service.

The platform measurement model is deliberately small: pcr0 measures the
enclave image (code plus configuration), pcr8 measures the certificate
of whoever signed the image.  Digests use sha256 under a "pcr" domain
tag.  A single mock authority keypair stands in for the platform PKI,
and the mock KMS binds key policies to pcr8 so that only enclaves signed
by the same certificate can unwrap a stored secret.  Policy updates are
always refused, mirroring a write-once key policy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .keys import Point, keypair_from_seed, sign_digest, verify_signature


class AttestationError(Exception):
    pass


class AttestationInvalid(AttestationError):
    pass


class KmsPolicyDenied(AttestationError):
    pass


class PolicyUpdateDenied(AttestationError):
    pass


def pcr_digest(*parts: bytes) -> str:
    return hashlib.sha256(b"pcr" + b"".join(parts)).hexdigest()


@dataclass(frozen=True)
class EnclaveImage:
    code_id: bytes  # digest of the enclave code
    config: bytes  # launch configuration
    signer_cert: bytes  # certificate of the image signer

    @property
    def pcr0(self) -> str:
        return pcr_digest(self.code_id, self.config)

    @property
    def pcr8(self) -> str:
        return pcr_digest(self.signer_cert)


@dataclass(frozen=True)
class Attestation:
    pcr0: str
    pcr8: str
    ao_pubkey: str  # compressed point, hex
    checkpoint_slot: int
    checkpoint_digest: str
    user_data: str  # 32-byte digest, hex
    signature: bytes

    def payload(self) -> bytes:
        return hashlib.sha256(
            b"attestation"
            + bytes.fromhex(self.pcr0)
            + bytes.fromhex(self.pcr8)
            + bytes.fromhex(self.ao_pubkey)
            + self.checkpoint_slot.to_bytes(8, "big")
            + bytes.fromhex(self.checkpoint_digest)
            + bytes.fromhex(self.user_data)
        ).digest()

    def verify(self, authority_public: Point) -> bool:
        return verify_signature(authority_public, self.payload(), self.signature)


class MockAttestationAuthority:
    """Stands in for the platform attestation PKI: one root keypair whose
    signature every simulated party trusts."""

    def __init__(self, seed: bytes = b"attestation-authority"):
        self.keypair = keypair_from_seed(seed)

    @property
    def public(self) -> Point:
        return self.keypair.public

    def issue(
        self,
        image: EnclaveImage,
        ao_pubkey: str,
        checkpoint_slot: int,
        checkpoint_digest: str,
        user_data: bytes,
    ) -> Attestation:
        doc = Attestation(
            pcr0=image.pcr0,
            pcr8=image.pcr8,
            ao_pubkey=ao_pubkey,
            checkpoint_slot=checkpoint_slot,
            checkpoint_digest=checkpoint_digest,
            user_data=hashlib.sha256(user_data).hexdigest(),
            signature=b"",
        )
        return replace(doc, signature=sign_digest(self.keypair, doc.payload()))


@dataclass
class _KmsKey:
    secret: bytes
    required_pcr8: str


class MockKms:
    """Key wrapping with a pcr8-bound, immutable policy per key."""

    def __init__(self, seed: bytes = b"kms"):
        self.seed = seed
        self._keys: dict[str, _KmsKey] = {}
        self._counter = 0

    def create_key(self, required_pcr8: str) -> str:
        self._counter += 1
        key_id = f"kms-{self._counter}"
        secret = hashlib.sha256(self.seed + key_id.encode()).digest()
        self._keys[key_id] = _KmsKey(secret=secret, required_pcr8=required_pcr8)
        return key_id

    def _pad(self, key_id: str, length: int) -> bytes:
        secret = self._keys[key_id].secret
        out = b""
        block = 0
        while len(out) < length:
            out += hashlib.sha256(secret + b"pad" + block.to_bytes(4, "big")).digest()
            block += 1
        return out[:length]

    def encrypt(self, key_id: str, plaintext: bytes) -> bytes:
        if key_id not in self._keys:
            raise AttestationError(f"unknown key {key_id}")
        pad = self._pad(key_id, len(plaintext))
        return bytes(a ^ b for a, b in zip(plaintext, pad))

    def decrypt(
        self,
        key_id: str,
        ciphertext: bytes,
        caller_attestation: Attestation,
        authority_public: Point,
    ) -> bytes:
        if key_id not in self._keys:
            raise AttestationError(f"unknown key {key_id}")
        if not caller_attestation.verify(authority_public):
            raise AttestationInvalid("attestation signature does not verify")
        if caller_attestation.pcr8 != self._keys[key_id].required_pcr8:
            raise KmsPolicyDenied(
                f"pcr8 {caller_attestation.pcr8[:16]}... does not match policy"
            )
        pad = self._pad(key_id, len(ciphertext))
        return bytes(a ^ b for a, b in zip(ciphertext, pad))

    def update_policy(self, key_id: str, *_args, **_kwargs) -> None:
        raise PolicyUpdateDenied("key policies are write-once")
