"""Destination chain: a slot clock with periodic finality.

The contract registry lives on this chain.  Every ``finality_interval``
slots the chain emits a finalized checkpoint carrying a digest and a full
canonical snapshot of registry state; light clients (the arbitration
oracles) only ever read registry state through one of these snapshots.
Trusted checkpoints used for light-client resync are the same data
wrapped with an operator or self-attested signature.

Each finalized state is produced once and parsed once:

* One export per advance.  ``advance`` moves the slot clock before it
  finalizes, so every checkpoint crossed in one advance has the same
  state; they share one snapshot string and one digest.
* One parsed view per checkpoint.  ``view_at`` parses a checkpoint's
  snapshot and keeps only the most recent parse, so every oracle synced
  to that checkpoint shares one read-only ``Registry``.  An oracle that
  goes offline keeps its own reference to its older view.

Finalized state is kept only while some oracle could still accept it.
``sync`` refuses a checkpoint older than the oracle's ``default_wsp``
before it reads the snapshot, and worlds set that to the chain's
schedule, so ``_finalize`` drops every snapshot more than
``WspSchedule.longest()`` slots behind the clock.  The latest checkpoint
is always kept.  Retention is therefore bounded by the period, not by
the length of the run.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from .keys import Keypair, Point, sign_digest, verify_signature
from .registry import Registry


class DestChainError(Exception):
    pass


@dataclass(frozen=True)
class FinalizedCheckpoint:
    slot: int
    state_digest: str
    timestamp: int

    def encode(self) -> bytes:
        return (
            self.slot.to_bytes(8, "big")
            + bytes.fromhex(self.state_digest)
            + self.timestamp.to_bytes(8, "big")
        )


TO_SIGNER = "token_operator"
AO_SELF_SIGNER = "ao_self_attested"


@dataclass(frozen=True)
class SignedCheckpoint:
    checkpoint: FinalizedCheckpoint
    signer_kind: str  # TO_SIGNER | AO_SELF_SIGNER
    signer_public: Point
    signature: bytes

    def verify(self) -> bool:
        digest = hashlib.sha256(
            b"checkpoint" + self.signer_kind.encode() + self.checkpoint.encode()
        ).digest()
        return verify_signature(self.signer_public, digest, self.signature)


def sign_checkpoint(cp: FinalizedCheckpoint, keypair: Keypair, signer_kind: str) -> SignedCheckpoint:
    if signer_kind not in (TO_SIGNER, AO_SELF_SIGNER):
        raise DestChainError(f"unknown signer kind {signer_kind!r}")
    digest = hashlib.sha256(b"checkpoint" + signer_kind.encode() + cp.encode()).digest()
    return SignedCheckpoint(cp, signer_kind, keypair.public, sign_digest(keypair, digest))


@dataclass
class WspSchedule:
    """Weak subjectivity period as a step function of slot."""

    base: int
    steps: list[tuple[int, int]] = field(default_factory=list)  # (from_slot, wsp)

    def at(self, slot: int) -> int:
        wsp = self.base
        for from_slot, value in sorted(self.steps):
            if slot >= from_slot:
                wsp = value
        return wsp

    def longest(self) -> int:
        """The largest period the schedule can take at any slot."""
        return max([self.base, *(wsp for _, wsp in self.steps)])


class DestChain:
    def __init__(
        self,
        registry,
        finality_interval: int = 32,
        wsp_schedule: WspSchedule | None = None,
    ):
        if finality_interval <= 0:
            raise DestChainError("finality interval must be positive")
        self.registry = registry
        self.finality_interval = finality_interval
        self.wsp_schedule = wsp_schedule or WspSchedule(base=1344)
        self.slot = 0
        self.finalized: list[FinalizedCheckpoint] = []
        self.snapshots: dict[int, str] = {}  # finalized slot -> snapshot, within the period
        self._view: tuple[int, Registry] | None = None  # most recent parse
        registry.current_slot = 0
        self._finalize([0])

    @property
    def wsp_current(self) -> int:
        return self.wsp_schedule.at(self.slot)

    def _finalize(self, slots: list[int]) -> list[FinalizedCheckpoint]:
        """Finalize ``slots`` with the current state: one export and one
        digest, shared by every checkpoint."""
        if not slots:
            return []
        snapshot = self.registry.export_snapshot()
        digest = hashlib.sha256(snapshot.encode()).hexdigest()
        new = [FinalizedCheckpoint(slot=s, state_digest=digest, timestamp=s) for s in slots]
        self.finalized.extend(new)
        for slot in slots:
            self.snapshots[slot] = snapshot
        # Snapshots are inserted in slot order, so the expired ones are a prefix.
        horizon = min(self.slot - self.wsp_schedule.longest(), slots[-1])
        for slot in list(itertools.takewhile(lambda s: s < horizon, self.snapshots)):
            del self.snapshots[slot]
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
        return self.finalized[-1]

    def snapshot_at(self, cp: FinalizedCheckpoint) -> str:
        try:
            return self.snapshots[cp.slot]
        except KeyError:
            raise DestChainError(f"no snapshot for slot {cp.slot}")

    def view_at(self, cp: FinalizedCheckpoint) -> Registry:
        """The registry state finalized at ``cp``, parsed once and shared
        by every caller until another slot is parsed.  Read-only."""
        if self._view is None or self._view[0] != cp.slot:
            self._view = (cp.slot, Registry.import_snapshot(self.snapshot_at(cp)))
        return self._view[1]
