"""The arbitration oracle: an enclave-modeled referee that countersigns
challenge resolutions after independently re-deriving everything the
request claims.

Trust model
-----------
The oracle trusts only:

* its own enclave identity (a keypair whose secret is wrapped by a KMS
  policy bound to the image signer measurement),
* finalized destination-chain checkpoints it witnessed while online, and
* checkpoints no older than the chain's weak subjectivity period and
  signed by the operator key in their own state, only to re-bootstrap.

Every resolution decision is computed from an imported finalized
snapshot, never from live mutable state.  All checks fail closed: a
missing record, an unverifiable signature, an address mismatch, a stale
view, or an expired version each independently block signing.

``sync`` keeps the checkpoint it synced to, and copies and hashes
nothing: the checkpoint holds its finalized state and is the oracle's
one handle on it.  ``view`` is the checkpoint's own ``view``, read the
first time any oracle asks for it and kept on the checkpoint, so every
oracle synced to one checkpoint shares one view.  Each viewed
checkpoint parses its own text once, so no two checkpoints share a view.
Because the checkpoint holds its state, the view can be read, and its
digest attested, after the chain has dropped the checkpoint.  The view
is read-only: nothing here writes to it, and only tests that model a
corrupted view do, which then reaches no other checkpoint.  The oracle
attests the checkpoint's own digest, which the checkpoint hashes the
first time it is read.

Dispute check
-------------
``verify_rebalance_inputs`` and ``verify_unbond_inputs`` name the
broadcast rows of a dispute, from the vault onward: the rebalance
request, or the unbond request and the unbond challenge.  One walk,
``_verify_dispute``, reads each row's source address, leaf and
destination from ``keys.TRANSITION_SPECS`` and stops at the first gate
that fails, returning a ``Rejection`` with the gate's number.  The
gates, in order:

* record: the view holds a record for the deposit, its instance
  parameters match their digest, and this oracle is a member;
* signatures, one gate per row: input 0 spends the deposit (the first
  row) or output 0 of the row before, through the row's leaf, with a
  valid signature for every key of that leaf;
* address, one gate per row: output 0 pays the row's destination;
* version: the running image has an unexpired registered version.

So a rebalance has gates 1 record, 2 request signatures, 3 request
address, 4 version, and an unbond has 1 record, 2 request signatures,
3 challenge signatures, 4 request address, 5 challenge address,
6 version.

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

from dataclasses import dataclass, field

from .attestation import (
    Attestation,
    EnclaveImage,
    MockAttestationAuthority,
    MockKms,
)
from .chain import Outpoint, SimTx, TxRejected, check_witness
from .destchain import DestChain, FinalizedCheckpoint, SignedCheckpoint
from .keys import (
    TRANSITION_SPECS,
    Keypair,
    Transition,
    keypair_from_secret,
    keypair_from_seed,
)
from .psbt import (
    PsbtError,
    PsbtTemplate,
    ProtocolInstance,
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
    """The dispute check stopped at a numbered, named gate."""

    step: int
    check: str
    detail: str


@dataclass(frozen=True)
class VerifiedContext:
    """Proof that the dispute check ran to completion.

    Only ``ArbitrationOracle._verify_dispute`` constructs these; the
    resolve methods refuse any context issued by a different
    oracle instance, so signing is impossible without verification.
    ``instance`` is the one the check built and matched against the
    record's tweak digest; the resolution signs against it.
    """

    kind: str  # "unbond" | "rebalance"
    outpoint: str
    status: UtxoStatus
    spend_txid: str  # txid whose output 0 the resolution spends
    spend_value: int
    issuer_id: int
    instance: ProtocolInstance = field(compare=False)


class ArbitrationOracle:
    """One arbitration oracle: enclave identity, light-client view, the
    dispute check, and the two resolutions."""

    def __init__(
        self,
        name: str,
        image: EnclaveImage,
        authority: MockAttestationAuthority,
        kms: MockKms,
        seed: bytes,
    ):
        self.name = name
        self.image = image
        self.authority = authority
        self.kms = kms
        self.seed = seed

        self.keypair: Keypair | None = None
        self.key_id: str | None = None
        self.encrypted_secret: bytes | None = None

        self.checkpoint: FinalizedCheckpoint | None = None  # the checkpoint synced to
        self.last_seen_slot = 0

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
            self.image, self.keypair.public_hex, *self._attested_checkpoint(), user_data
        )

    def _attested_checkpoint(self) -> tuple[int, str]:
        """The slot and state digest an attestation names."""
        if self.checkpoint is None:
            return 0, "0" * 64
        return self.checkpoint.slot, self.checkpoint.state_digest

    def key_restore(self, image: EnclaveImage | None = None) -> Keypair:
        """Unwrap the identity secret from a (possibly patched) image.
        The KMS releases it only when the image carries the same signer
        measurement the key was created under; the oracle switches to
        ``image`` only once the key is released, so a refusal leaves it
        as it was."""
        if self.key_id is None or self.encrypted_secret is None:
            raise OracleError("key was never initialized")
        candidate = self.image if image is None else image
        pub_hint = self.keypair.public_hex if self.keypair else "0" * 66
        att = self.authority.issue(
            candidate, pub_hint, *self._attested_checkpoint(), b"key-restore"
        )
        secret_bytes = self.kms.decrypt(
            self.key_id, self.encrypted_secret, att, self.authority.public
        )
        self.image = candidate
        self.keypair = keypair_from_secret(int.from_bytes(secret_bytes, "big"))
        return self.keypair

    # -- light client -------------------------------------------------------

    def sync(
        self,
        dest: DestChain,
        to_checkpoint: SignedCheckpoint | None = None,
    ) -> None:
        """Move to the latest finalized checkpoint.

        Downtime strictly shorter than the chain's period ``dest.wsp``
        lets the oracle extend its own prior state.  Anything longer, or
        a first sync, needs ``to_checkpoint`` at most ``dest.wsp`` slots
        old, served by the chain with the same digest, and signed by the
        operator key in that served state; else ``StaleCheckpoint``.
        The view of the new checkpoint is read only when ``view`` is.
        """
        downtime = dest.slot - self.last_seen_slot
        if downtime >= dest.wsp or self.checkpoint is None:
            if to_checkpoint is None:
                raise StaleCheckpoint(f"offline {downtime} slots with period {dest.wsp}")
            cp = to_checkpoint.checkpoint
            age = dest.slot - cp.slot
            if age > dest.wsp:
                raise StaleCheckpoint(f"checkpoint is {age} slots old, limit {dest.wsp}")
            served = dest.snapshots.get(cp.slot)
            if served is None:
                raise StaleCheckpoint(
                    f"slot {cp.slot} was never finalized or is no longer served"
                )
            if served.state_digest != cp.state_digest:
                raise StaleCheckpoint("checkpoint digest does not match state")
            if not to_checkpoint.verify(served.view.to_pubkey):
                raise StaleCheckpoint("checkpoint is not signed by the operator")

        self.checkpoint = dest.latest_finalized()
        self.last_seen_slot = dest.slot

    @property
    def view(self) -> Registry | None:
        """The registry finalized at the synced checkpoint, or ``None``
        before the first sync."""
        return None if self.checkpoint is None else self.checkpoint.view

    @property
    def last_synced_slot(self) -> int | None:
        return None if self.checkpoint is None else self.checkpoint.slot

    def is_operational(self) -> bool:
        return self.keypair is not None and self.checkpoint is not None

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

    # -- the dispute check ------------------------------------------------------

    def _verify_dispute(
        self, kind: str, outpoint: str, rows: tuple[tuple[Transition, SimTx], ...]
    ) -> VerifiedContext | Rejection:
        """Walk the broadcast ``rows`` from the vault onward through the
        gates listed in the module docstring: record, one signature gate
        per row, one address gate per row, version."""
        if not self.is_operational():
            raise NotSynced(self.name)

        record = self.view.records.get(outpoint)
        if record is None:
            return Rejection(1, "record", "no registry record for this outpoint")
        tweak_data = self.view.tweaks.get(record.tweak_digest)
        if tweak_data is None:
            return Rejection(1, "record", "record references unknown instance parameters")
        instance = ProtocolInstance(tweak_data)
        if instance.tweak_digest != record.tweak_digest:
            return Rejection(1, "record", "instance parameters fail their own digest")
        if all(self.keypair.public != pk for pk in instance.tweak_data.ao_pks):
            return Rejection(1, "record", "this oracle is not a member of the instance")

        spent = Outpoint.parse(outpoint)
        for step, (transition, tx) in enumerate(rows, start=2):
            spec = TRANSITION_SPECS[transition]
            inp = tx.inputs[0] if tx.inputs else None
            err = None
            if inp is None:
                err = "transaction has no inputs"
            elif inp.outpoint != spent:
                err = f"spends {inp.outpoint}, expected {spent}"
            elif inp.path_id != spec.path:
                err = f"path {inp.path_id!r} is not the {spec.path} leaf"
            else:
                (leaf,) = instance.addresses.rows[transition]
                try:
                    check_witness(leaf.policy.keys(), tx.sighash(0), inp.witness, spec.path)
                except TxRejected as exc:
                    err = str(exc)
            if err:
                return Rejection(step, f"{transition.value}_signatures", err)
            spent = Outpoint(tx.txid, 0)

        for step, (transition, tx) in enumerate(rows, start=2 + len(rows)):
            dest = TRANSITION_SPECS[transition].dest
            if not tx.outputs or tx.outputs[0].address_id != instance.address_ids[dest]:
                return Rejection(step, f"{transition.value}_address", f"output 0 is not the {dest}")

        if not self.version_ok():
            return Rejection(2 + 2 * len(rows), "version", "running version expired or unknown")

        last = rows[-1][1]
        return VerifiedContext(
            kind=kind,
            outpoint=outpoint,
            status=record.status,
            spend_txid=last.txid,
            spend_value=last.outputs[0].value,
            issuer_id=id(self),
            instance=instance,
        )

    # -- rebalance ----------------------------------------------------------------

    def verify_rebalance_inputs(
        self, outpoint: str, request_tx: SimTx
    ) -> VerifiedContext | Rejection:
        """Gates 1 record, 2 request signatures, 3 request address,
        4 version."""
        return self._verify_dispute(
            "rebalance", outpoint, ((Transition.REBALANCE_REQUEST, request_tx),)
        )

    def resolve_rebalance(self, ctx: VerifiedContext) -> PsbtTemplate | None:
        """Sign the stored resolution returning funds to the depositor,
        unless the registry marked the record spent on a real rebalance."""
        self._require_context(ctx, "rebalance")
        if ctx.status is UtxoStatus.SPENT_ON_REBALANCE:
            return None
        return self._sign_stored(ctx, Transition.REBALANCE_RESOLVE)

    # -- unbond -------------------------------------------------------------------

    def verify_unbond_inputs(
        self, outpoint: str, request_tx: SimTx, challenge_tx: SimTx
    ) -> VerifiedContext | Rejection:
        """Gates 1 record, 2 request signatures, 3 challenge signatures,
        4 request address, 5 challenge address, 6 version."""
        return self._verify_dispute(
            "unbond",
            outpoint,
            (
                (Transition.UNBOND_REQUEST, request_tx),
                (Transition.UNBOND_CHALLENGE, challenge_tx),
            ),
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
        instance = ctx.instance
        text = self.view.records.get(ctx.outpoint).psbts.get(transition.value)
        if text is None:
            return None
        try:
            template = PsbtTemplate.from_text(text)
        except PsbtError:
            return None
        if template.transition is not transition:
            return None
        if not verify_psbt_against_instance(
            template, instance, Outpoint(ctx.spend_txid, 0), ctx.spend_value
        ):
            return None
        if instance.tweak_data.dep_pk.compressed().hex() not in template.partial_sigs:
            return None
        sign_psbt(template, self.keypair, instance)
        return template
