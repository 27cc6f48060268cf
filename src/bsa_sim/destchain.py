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
  checkpoint holds that body and its clock.  ``advance`` moves the clock
  before it finalizes, so the checkpoints it crosses share one text.
* One hash per checkpoint, and only when read.  A checkpoint's digest
  is the sha256 of head, clock and tail, the digest of the full text.
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
  dispute to judge, so a checkpoint no oracle judges from is never
  parsed, and an oracle can read that view after the chain has dropped
  the checkpoint.

One slot-ordered map, ``snapshots``, holds the retained checkpoints; the
latest finalized is its last entry.  A checkpoint is kept only while
some oracle could still accept it.  ``sync`` refuses a checkpoint more
than the chain's ``wsp`` slots old before it reads the snapshot, so
``_finalize`` drops every checkpoint more than ``wsp`` slots behind the
clock, with its state and view.  The latest checkpoint is always kept.
Retention is therefore bounded by the period, not by the length of the
run: at most ``wsp // finality_interval + 2`` checkpoints.
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

    A checkpoint the chain finalizes holds that state, ``(body, clock)``,
    hashes it the first time ``state_digest`` is read and parses it the
    first time ``view`` is; one built with an explicit digest, as a
    forged or transported checkpoint is, holds none."""

    __slots__ = ("slot", "state", "_digest", "_view")

    def __init__(self, slot: int, state_digest: str | None, state: tuple[_Body, int] | None = None):
        self.slot = slot
        self.state = state
        self._digest = state_digest
        self._view: Registry | None = None

    @property
    def state_digest(self) -> str:
        if self._digest is None:
            body, clock = self.state
            self._digest = body.digest(clock)
        return self._digest

    @property
    def view(self) -> Registry:
        """The registry state this checkpoint holds.  Read-only.  Each
        checkpoint's view is its own parse of its own text, clock
        included, so views of different checkpoints share no mutable
        object."""
        if self._view is None:
            body, clock = self.state
            self._view = Registry.import_snapshot(body.text(clock))
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
    finalized while the registry's body was the same: its snapshot is
    ``head + str(clock) + tail``, kept as ASCII bytes for hashing."""

    writes: tuple[int, int]  # the registry's and its ledger's write counts when rendered
    head: bytes
    tail: bytes

    def digest(self, clock: int) -> str:
        hasher = hashlib.sha256(self.head)
        hasher.update(b"%d" % clock)
        hasher.update(self.tail)
        return hasher.hexdigest()

    def text(self, clock: int) -> str:
        return (self.head + b"%d" % clock + self.tail).decode()


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
        # finalized slot -> its checkpoint, which holds the state; within the period
        self.snapshots: dict[int, FinalizedCheckpoint] = {}
        self._body: _Body | None = None  # the body last rendered
        registry.current_slot = 0
        self._finalize([0])

    def _finalize(self, slots: list[int]) -> list[FinalizedCheckpoint]:
        """Finalize ``slots`` with the current state: one render, shared by
        every checkpoint, only if a write count moved, and no hash."""
        if not slots:
            return []
        clock = self.registry.current_slot
        writes = (self.registry.writes, self.registry.ledger.writes)
        if self._body is None or self._body.writes != writes:
            snapshot = self.registry.export_snapshot().encode()
            head = self.registry.snapshot_head().encode()
            self._body = _Body(writes, head, snapshot[len(head) + len(b"%d" % clock):])
        state = (self._body, clock)
        new = [FinalizedCheckpoint(s, None, state) for s in slots]
        self.snapshots.update((cp.slot, cp) for cp in new)
        # Checkpoints are inserted in slot order, so the expired ones are a
        # prefix; the last one finalized is never in it.
        horizon = min(self.slot - self.wsp, slots[-1])
        while (oldest := next(iter(self.snapshots))) < horizon:
            del self.snapshots[oldest]
        return new

    def advance(self, n_slots: int) -> list[FinalizedCheckpoint]:
        """Move the slot clock forward, emitting one finalized checkpoint
        per finality interval crossed."""
        if n_slots < 1:
            raise DestChainError("advance needs at least one slot")
        start = self.slot
        self.slot += n_slots
        self.registry.current_slot = self.slot
        self.registry.apply_due_upgrades()
        first = (start // self.finality_interval + 1) * self.finality_interval
        return self._finalize(list(range(first, self.slot + 1, self.finality_interval)))

    def latest_finalized(self) -> FinalizedCheckpoint:
        return next(reversed(self.snapshots.values()))
