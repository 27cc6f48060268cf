"""The arbitration oracle: an enclave-modeled referee that countersigns
challenge resolutions after independently re-deriving everything the
request claims.

Trust model
-----------
The oracle trusts only:

* its own enclave identity (a keypair whose secret is wrapped by a KMS
  policy bound to the image signer measurement),
* finalized destination-chain checkpoints it witnessed while online, and
* operator-signed checkpoints no older than the default weak
  subjectivity period, used only to re-bootstrap after long downtime.

Every resolution decision is computed from an imported finalized
snapshot, never from live mutable state.  All checks fail closed: a
missing record, an unverifiable signature, an address mismatch, a stale
view, or an expired version each independently block signing.

``view`` is the checkpoint's registry from ``DestChain.view_at``: the
chain parses each finalized state once per change and gives every
checkpoint its own copy, shared by every oracle synced to that
checkpoint.  It is read-only: nothing here writes to it, and only tests
that model a corrupted view do, which then reaches no other
checkpoint.  The oracle attests the checkpoint's own digest, kept at
sync.

Resolution rules
----------------
* An unbond challenge resolves for the depositor only when the deposit
  record shows the wrapped amount was burned (Withdrawn) or the deposit
  was never activated (Rejected).
* A rebalance challenge resolves for the depositor unless the record was
  marked SpentOnRebalance by the registry contract, which only happens
  when a genuine imbalance covered it.

Both rules leave the timeout leaf as the operator's default: when the
oracle refuses, the challenge output falls to the operator after the
dispute delay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .attestation import (
    Attestation,
    EnclaveImage,
    MockAttestationAuthority,
    MockKms,
)
from .chain import Outpoint, SimTx, TxRejected, check_witness
from .destchain import (
    DEFAULT_WSP_SLOTS,
    DestChain,
    DestChainError,
    SignedCheckpoint,
    TO_SIGNER,
)
from .keys import (
    Keypair,
    TweakData,
    build_protocol_addresses,
    keypair_from_secret,
    keypair_from_seed,
)
from .psbt import (
    PsbtTemplate,
    ProtocolInstance,
    Transition,
    sign_psbt,
    verify_psbt_against_instance,
)
from .registry import EXIT_STATUSES, Registry, UtxoStatus


class OracleError(Exception):
    pass


class NotSynced(OracleError):
    pass


class StaleCheckpoint(OracleError):
    pass


class NotVerified(OracleError):
    pass


@dataclass(frozen=True)
class Rejection:
    """A verification pipeline stopped at a named gate."""

    step: int
    check: str
    detail: str


@dataclass(frozen=True)
class VerifiedContext:
    """Proof that a verification pipeline ran to completion.

    Only ``verify_rebalance_inputs`` / ``verify_unbond_inputs`` construct
    these; the resolve methods refuse any context issued by a different
    oracle instance, so signing is impossible without verification.
    """

    kind: str  # "unbond" | "rebalance"
    outpoint: str
    status: UtxoStatus
    tweak_digest: str
    spend_txid: str  # txid whose output 0 the resolution spends
    spend_value: int
    issuer_id: int


def _verify_two_party_spend(
    tx: SimTx,
    expected_outpoint: Outpoint,
    source_address,
    digest_index: int = 0,
) -> str | None:
    """Check that input 0 spends the expected outpoint through the
    cooperative leaf with two valid signatures.  Returns an error string
    or None."""
    if not tx.inputs:
        return "transaction has no inputs"
    inp = tx.inputs[digest_index]
    if inp.outpoint != expected_outpoint:
        return f"spends {inp.outpoint}, expected {expected_outpoint}"
    leaf = source_address.leaf("dep_to")
    if leaf is None or inp.path_id != "dep_to":
        return f"path {inp.path_id!r} is not the cooperative leaf"
    try:
        digest = tx.sighash(digest_index)
        check_witness(leaf.policy.keys(), digest, inp.witness, "cooperative leaf")
    except TxRejected as exc:
        return str(exc)
    return None


class ArbitrationOracle:
    """One arbitration oracle: enclave identity, light-client view, and
    the two verification/resolution pipelines."""

    def __init__(
        self,
        name: str,
        image: EnclaveImage,
        authority: MockAttestationAuthority,
        kms: MockKms,
        seed: bytes,
        default_wsp: int = DEFAULT_WSP_SLOTS,
    ):
        self.name = name
        self.image = image
        self.authority = authority
        self.kms = kms
        self.seed = seed
        self.default_wsp = default_wsp

        self.keypair: Keypair | None = None
        self.key_id: str | None = None
        self.encrypted_secret: bytes | None = None

        self.view: Registry | None = None
        self._view_digest = "0" * 64  # state digest of the checkpoint synced to
        self.last_synced_slot: int | None = None
        self.last_seen_slot = 0
        self.wsp_known = default_wsp

    # -- key lifecycle ----------------------------------------------------

    def key_init(self) -> Keypair:
        """Generate the oracle identity inside the enclave and wrap the
        secret under a policy bound to the image signer."""
        self.keypair = keypair_from_seed(self.seed)
        self.key_id = self.kms.create_key(required_pcr8=self.image.pcr8)
        self.encrypted_secret = self.kms.encrypt(
            self.key_id, self.keypair.secret.to_bytes(32, "big")
        )
        return self.keypair

    def produce_attestation(self, user_data: bytes = b"") -> Attestation:
        if self.keypair is None:
            raise OracleError("no identity key yet")
        return self.authority.issue(
            self.image,
            self.keypair.public_hex,
            self.last_synced_slot or 0,
            self._view_digest,
            user_data,
        )

    def key_restore(self, image: EnclaveImage | None = None) -> Keypair:
        """Unwrap the identity secret from a (possibly patched) image.
        The KMS releases it only when the running image carries the same
        signer measurement the key was created under."""
        if self.key_id is None or self.encrypted_secret is None:
            raise OracleError("key was never initialized")
        if image is not None:
            self.image = image
        pub_hint = self.keypair.public_hex if self.keypair else "0" * 66
        att = self.authority.issue(
            self.image,
            pub_hint,
            self.last_synced_slot or 0,
            self._view_digest,
            b"key-restore",
        )
        secret_bytes = self.kms.decrypt(
            self.key_id, self.encrypted_secret, att, self.authority.public
        )
        self.keypair = keypair_from_secret(int.from_bytes(secret_bytes, "big"))
        return self.keypair

    # -- light client -------------------------------------------------------

    def sync(
        self,
        dest: DestChain,
        to_checkpoint: SignedCheckpoint | None = None,
    ) -> None:
        """Refresh the finalized view.

        Downtime strictly shorter than the last known weak subjectivity
        period lets the oracle extend its own prior state.  Anything
        longer requires an operator-signed checkpoint no older than the
        protocol default period; without one the oracle stays unsynced.
        Both views are the chain's shared view (``DestChain.view_at``).
        """
        downtime = dest.slot - self.last_seen_slot
        if downtime >= self.wsp_known or self.view is None:
            if to_checkpoint is None:
                raise StaleCheckpoint(
                    f"offline {downtime} slots with period {self.wsp_known}"
                )
            if to_checkpoint.signer_kind != TO_SIGNER:
                raise StaleCheckpoint("re-bootstrap requires an operator signature")
            if not to_checkpoint.verify():
                raise StaleCheckpoint("checkpoint signature does not verify")
            cp = to_checkpoint.checkpoint
            if dest.slot - cp.slot > self.default_wsp:
                raise StaleCheckpoint(
                    f"checkpoint is {dest.slot - cp.slot} slots old, "
                    f"limit {self.default_wsp}"
                )
            try:
                snapshot = dest.snapshot_at(cp)
            except DestChainError:
                raise StaleCheckpoint(
                    f"slot {cp.slot} was never finalized or is no longer served"
                ) from None
            if hashlib.sha256(snapshot.encode()).hexdigest() != cp.state_digest:
                raise StaleCheckpoint("checkpoint digest does not match state")
            if dest.view_at(cp).to_pubkey != to_checkpoint.signer_public:
                raise StaleCheckpoint("checkpoint signer is not the operator")

        latest = dest.latest_finalized()
        self.view = dest.view_at(latest)
        self._view_digest = latest.state_digest
        self.last_synced_slot = latest.slot
        self.last_seen_slot = dest.slot
        self.wsp_known = dest.wsp_current

    def is_operational(self) -> bool:
        return self.keypair is not None and self.view is not None

    @property
    def now_slot(self) -> int:
        if self.last_synced_slot is None:
            raise NotSynced(self.name)
        return self.last_synced_slot

    # -- version governance gates -----------------------------------------

    def version_ok(self) -> bool:
        """The running image must have an unexpired operator-registered
        version."""
        if self.view is None:
            return False
        expiry = self.view.get_version_expiry(self.image.pcr0)
        return expiry is not None and expiry > self.now_slot

    def accepts_initial_version(self) -> bool:
        """Joining a new instance requires the running version to outlive
        the full governance delay."""
        if self.view is None:
            return False
        expiry = self.view.get_version_expiry(self.image.pcr0)
        if expiry is None:
            return False
        return expiry - self.now_slot > self.view.t3

    def accepts_upgrade(self, new_image: EnclaveImage) -> bool:
        """An image swap is acceptable only when the new version strictly
        extends the current expiry."""
        if self.view is None:
            return False
        old = self.view.get_version_expiry(self.image.pcr0)
        new = self.view.get_version_expiry(new_image.pcr0)
        return old is not None and new is not None and new > old

    # -- shared pipeline pieces ---------------------------------------------

    def _load_record(self, outpoint: str):
        record = self.view.records.get(outpoint)
        if record is None:
            return None, None, "no registry record for this outpoint"
        tweak_dict = self.view.tweaks.get(record.tweak_digest)
        if tweak_dict is None:
            return None, None, "record references unknown instance parameters"
        tweak = TweakData.from_dict(tweak_dict)
        if tweak.digest_hex() != record.tweak_digest:
            return None, None, "instance parameters fail their own digest"
        if self.keypair is None or all(
            self.keypair.public != pk for pk in tweak.ao_pks
        ):
            return None, None, "this oracle is not a member of the instance"
        return record, tweak, None

    def _issue(self, kind, outpoint, record, spend_txid, spend_value) -> VerifiedContext:
        return VerifiedContext(
            kind=kind,
            outpoint=outpoint,
            status=record.status,
            tweak_digest=record.tweak_digest,
            spend_txid=spend_txid,
            spend_value=spend_value,
            issuer_id=id(self),
        )

    # -- rebalance pipeline ---------------------------------------------------

    def verify_rebalance_inputs(
        self, outpoint: str, request_tx: SimTx
    ) -> VerifiedContext | Rejection:
        """Gate sequence for a rebalance dispute: record, signatures,
        addresses, version.  Any failure rejects with the gate index."""
        if not self.is_operational():
            raise NotSynced(self.name)

        record, tweak, err = self._load_record(outpoint)
        if err:
            return Rejection(1, "record", err)
        addresses = build_protocol_addresses(tweak)

        txid, index = outpoint.rsplit(":", 1)
        err = _verify_two_party_spend(
            request_tx, Outpoint(txid, int(index)), addresses.va
        )
        if err:
            return Rejection(2, "signatures", err)
        if all(tweak.to_pk != k for k in addresses.va.leaf("dep_to").policy.keys()):
            return Rejection(2, "signatures", "operator key absent from the leaf")

        if not request_tx.outputs:
            return Rejection(3, "address", "no outputs")
        main = request_tx.outputs[0]
        if main.address_id != addresses.rca.address_id:
            return Rejection(3, "address", "output is not the rebalance challenge")

        if not self.version_ok():
            return Rejection(4, "version", "running version expired or unknown")

        return self._issue("rebalance", outpoint, record, request_tx.txid, main.value)

    def resolve_rebalance(self, ctx: VerifiedContext) -> PsbtTemplate | None:
        """Sign the stored resolution returning funds to the depositor,
        unless the registry marked the record spent on a real rebalance."""
        self._require_context(ctx, "rebalance")
        if ctx.status is UtxoStatus.SPENT_ON_REBALANCE:
            return None
        return self._sign_stored(ctx, Transition.REBALANCE_RESOLVE)

    # -- unbond pipeline --------------------------------------------------------

    def verify_unbond_inputs(
        self, outpoint: str, request_tx: SimTx, challenge_tx: SimTx
    ) -> VerifiedContext | Rejection:
        """Gate sequence for an unbond dispute: record, request
        signatures, challenge signatures, chain link, both intermediate
        addresses, version."""
        if not self.is_operational():
            raise NotSynced(self.name)

        record, tweak, err = self._load_record(outpoint)
        if err:
            return Rejection(1, "record", err)
        addresses = build_protocol_addresses(tweak)

        txid, index = outpoint.rsplit(":", 1)
        err = _verify_two_party_spend(
            request_tx, Outpoint(txid, int(index)), addresses.va
        )
        if err:
            return Rejection(2, "request_signatures", err)

        err = _verify_two_party_spend(
            challenge_tx, Outpoint(request_tx.txid, 0), addresses.uta
        )
        if err:
            return Rejection(3, "challenge_signatures", err)

        if challenge_tx.inputs[0].outpoint.txid != request_tx.txid:
            return Rejection(4, "chain_link", "challenge does not spend the request")

        if not request_tx.outputs or request_tx.outputs[0].address_id != (
            addresses.uta.address_id
        ):
            return Rejection(5, "uta_address", "request output is not the timelock address")

        if not challenge_tx.outputs or challenge_tx.outputs[0].address_id != (
            addresses.uca.address_id
        ):
            return Rejection(6, "uca_address", "challenge output is not the dispute address")

        if not self.version_ok():
            return Rejection(7, "version", "running version expired or unknown")

        return self._issue(
            "unbond", outpoint, record, challenge_tx.txid, challenge_tx.outputs[0].value
        )

    def resolve_unbond_challenge(self, ctx: VerifiedContext) -> PsbtTemplate | None:
        """Sign the stored resolution returning funds to the depositor,
        but only when the record shows the tokens were burned (or the
        deposit was rejected before activation)."""
        self._require_context(ctx, "unbond")
        if ctx.status not in EXIT_STATUSES:
            return None
        return self._sign_stored(ctx, Transition.UNBOND_RESOLVE)

    # -- resolution plumbing ----------------------------------------------------

    def _require_context(self, ctx: VerifiedContext, kind: str) -> None:
        if not isinstance(ctx, VerifiedContext) or ctx.issuer_id != id(self):
            raise NotVerified("context was not issued by this oracle")
        if ctx.kind != kind:
            raise NotVerified(f"context is for {ctx.kind}, not {kind}")

    def _sign_stored(
        self, ctx: VerifiedContext, transition: Transition
    ) -> PsbtTemplate | None:
        record = self.view.records.get(ctx.outpoint)
        tweak = TweakData.from_dict(self.view.tweaks[record.tweak_digest])
        text = record.psbts.get(transition.value)
        if text is None:
            return None
        try:
            template = PsbtTemplate.from_text(text)
        except (ValueError, KeyError):
            return None
        if template.transition is not transition:
            return None
        expected = Outpoint(ctx.spend_txid, 0)
        if template.outpoint != expected or template.input_value != ctx.spend_value:
            return None
        if not verify_psbt_against_instance(
            template, ProtocolInstance(tweak), expected, ctx.spend_value
        ):
            return None
        if tweak.dep_pk.compressed().hex() not in template.partial_sigs:
            return None
        sign_psbt(template, self.keypair, tweak)
        return template
