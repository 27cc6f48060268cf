"""Destination chain: a slot clock with periodic finality.

The contract registry lives on this chain.  Every ``finality_interval``
slots the chain emits a finalized checkpoint carrying a digest and a full
canonical snapshot of registry state; light clients (the arbitration
oracles) only ever read registry state through one of these snapshots.
A checkpoint that re-bootstraps an oracle is one of these, a slot and
a digest, signed by the operator.

Each finalized state is rendered once per change of state, hashed only
when its digest is read, and parsed only when its view is read:

* One render per change.  The canonical snapshot is
  ``{...,"current_slot":N,...}`` with sorted keys, so it is a head, the
  clock and a tail.  Each advance compares the registry's and its
  ledger's write counts (``writes``) with the pair kept at the last
  render, and calls ``export_snapshot`` only when they differ, so a
  clock-only advance encodes nothing and costs the same at 4 records as
  at 64 (3.2 and 3.6 µs on a 2-core machine, Python 3.11).  Every
  checkpoint holds that body and its slot, and its text is the registry
  at its slot: ``advance`` sets the clock to each slot it crosses and
  applies the upgrades due by then before it finalizes that slot.
* One hash per checkpoint, and only when read.  A checkpoint's digest
  is the sha256 of head, slot and tail, the digest of the full text.
  It is computed the first time ``state_digest`` is read, when an
  oracle attests it or an operator signs the checkpoint, and then kept.
  The bytes it hashes were captured at finalization, never the live
  registry, so a late read gives the digest of the state finalized then.
* One parse per viewed checkpoint, and only when read.  A checkpoint's
  ``view`` is parsed from its own text the first time it is asked for,
  and then kept on the checkpoint, as its digest is, so a corrupted view
  never leaks into another checkpoint, and every oracle that reads one
  checkpoint shares its one read-only ``Registry``.  An oracle keeps the
  checkpoint when it syncs and reads its view only when it has a
  dispute to judge that it has not judged from the same body, so a
  checkpoint no oracle judges from is never parsed, and an oracle can
  read that view after the chain has dropped the checkpoint.  A
  re-bootstrap parses none: each body keeps the operator key it
  rendered, ``to_pubkey``, and the signed checkpoint is checked under
  the key of the served checkpoint's body.

One slot-ordered map, ``snapshots``, holds the retained checkpoints; the
latest finalized is its last entry.  ``sync`` refuses a checkpoint more
than the chain's ``wsp`` slots old before it reads the snapshot, so
``_finalize`` drops every checkpoint more than ``wsp`` slots behind the
one it finalizes, with its view: no oracle can accept it any more.
Retention is therefore bounded by the period, not by the length of the
run: at most ``wsp // finality_interval + 1`` checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .keys import Keypair, Point, sign_digest, verify_signature
from .registry import Registry


# protocol default weak subjectivity period, in slots
DEFAULT_WSP_SLOTS = 1344


class DestChainError(Exception):
    pass


MAX_SLOT = 0xFFFF_FFFF_FFFF_FFFF  # ``FinalizedCheckpoint.encode`` writes a slot in eight bytes


class FinalizedCheckpoint:
    """A finalized slot and the digest of its state.

    A checkpoint the chain finalizes holds its body, hashes its text at
    its slot the first time ``state_digest`` is read and parses it the
    first time ``view`` is; one built with an explicit digest, as a
    forged or transported checkpoint is, holds none."""

    __slots__ = ("slot", "body", "_digest", "_view")

    def __init__(self, slot: int, state_digest: str | None, body: _Body | None = None):
        self.slot = slot
        self.body = body
        self._digest = state_digest
        self._view: Registry | None = None

    @property
    def state_digest(self) -> str:
        if self._digest is None:
            self._digest = self.body.digest(self.slot)
        return self._digest

    @property
    def view(self) -> Registry:
        """The registry state this checkpoint holds.  Read-only.  Each
        checkpoint's view is its own parse of its own text, clock
        included, so views of different checkpoints share no mutable
        object."""
        if self._view is None:
            self._view = Registry.import_snapshot(self.body.text(self.slot))
        return self._view

    def encode(self) -> bytes:
        return self.slot.to_bytes(8, "big") + bytes.fromhex(self.state_digest)


@dataclass(frozen=True)
class SignedCheckpoint:
    """A checkpoint and a signature, checked against the key ``verify`` is given."""

    checkpoint: FinalizedCheckpoint
    signature: bytes

    def verify(self, signer: Point) -> bool:
        return verify_signature(signer, _checkpoint_digest(self.checkpoint), self.signature)


def _checkpoint_digest(cp: FinalizedCheckpoint) -> bytes:
    """What a checkpoint signer signs: the checkpoint under its domain tag."""
    return hashlib.sha256(b"checkpoint" + cp.encode()).digest()


def sign_checkpoint(cp: FinalizedCheckpoint, keypair: Keypair) -> SignedCheckpoint:
    return SignedCheckpoint(cp, sign_digest(keypair, _checkpoint_digest(cp)))


@dataclass
class _Body:
    """One finalized state without its clock, shared by every checkpoint
    finalized while the registry's body was the same: its snapshot at a
    slot is ``head + str(slot) + tail``, kept as ASCII bytes for hashing,
    and ``to_pubkey`` is the operator key that text holds."""

    writes: tuple[int, int]  # the registry's and its ledger's write counts when rendered
    head: bytes
    tail: bytes
    to_pubkey: Point

    def digest(self, slot: int) -> str:
        hasher = hashlib.sha256(self.head)
        hasher.update(b"%d" % slot)
        hasher.update(self.tail)
        return hasher.hexdigest()

    def text(self, slot: int) -> str:
        return (self.head + b"%d" % slot + self.tail).decode()


class DestChain:
    def __init__(
        self,
        registry,
        finality_interval: int = 32,
        wsp: int = DEFAULT_WSP_SLOTS,  # weak subjectivity period, in slots
    ):
        if finality_interval <= 0:
            raise DestChainError("finality interval must be positive")
        self.registry = registry
        self.finality_interval = finality_interval
        self.wsp = wsp
        self.slot = 0
        # finalized slot -> its checkpoint, which holds its body; within the period
        self.snapshots: dict[int, FinalizedCheckpoint] = {}
        self._body: _Body | None = None  # the body last rendered
        self._finalize(0)

    def _finalize(self, slot: int) -> FinalizedCheckpoint:
        """Set the registry's clock to ``slot``, apply the upgrades due by
        then and finalize that state: a render only if a write count
        moved, and no hash."""
        self.registry.current_slot = slot
        self.registry.apply_due_upgrades()
        writes = (self.registry.writes, self.registry.ledger.writes)
        if self._body is None or self._body.writes != writes:
            snapshot = self.registry.export_snapshot().encode()
            head = self.registry.snapshot_head().encode()
            tail = snapshot[len(head) + len(b"%d" % slot):]
            self._body = _Body(writes, head, tail, self.registry.to_pubkey)
        checkpoint = self.snapshots[slot] = FinalizedCheckpoint(slot, None, self._body)
        # Checkpoints are inserted in slot order, so the expired ones are a
        # prefix, and the one just finalized is not in it.
        while (oldest := next(iter(self.snapshots))) < slot - self.wsp:
            del self.snapshots[oldest]
        return checkpoint

    def advance(self, n_slots: int) -> list[FinalizedCheckpoint]:
        """Move the slot clock forward, finalizing each finality interval
        it crosses at its own slot, then set the registry's clock to the
        end and apply the upgrades due there."""
        if n_slots < 1:
            raise DestChainError("advance needs at least one slot")
        first = (self.slot // self.finality_interval + 1) * self.finality_interval
        self.slot += n_slots
        new = [self._finalize(s) for s in range(first, self.slot + 1, self.finality_interval)]
        self.registry.current_slot = self.slot
        self.registry.apply_due_upgrades()
        return new

    def latest_finalized(self) -> FinalizedCheckpoint:
        return next(reversed(self.snapshots.values()))
