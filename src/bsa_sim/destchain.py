"""Destination chain: a slot clock with periodic finality.

The contract registry lives on this chain.  Every ``finality_interval``
slots the chain emits a finalized checkpoint carrying a digest and a full
canonical snapshot of registry state; light clients (the arbitration
oracles) only ever read registry state through one of these snapshots.
Trusted checkpoints used for light-client resync are the same data
wrapped with an operator or self-attested signature.

Each finalized state is rendered once per change of state, and parsed
at most once per change:

* One render per change.  The canonical snapshot is
  ``{...,"current_slot":N,...}`` with sorted keys, so it is a head, the
  clock and a tail.  Each advance compares ``Registry.body_key()`` (the
  live field values of everything but the clock) with a copy of the
  key taken at the last render, and calls ``export_snapshot`` only when
  they differ.  Change is detected by value, so no mutator marks
  anything, and a clock-only advance encodes nothing.  Every checkpoint
  stores that body and its clock; its digest is the sha256 of head,
  clock and tail, the digest of the full text.  ``advance`` moves the
  slot clock before it finalizes, so every checkpoint crossed in one
  advance has the same text and digest.
* One parse per change, and only when read.  ``view_at`` parses a body
  the first time a checkpoint with it is viewed; each checkpoint's view
  is a fresh copy of that parse with its own ``current_slot``, so a
  corrupted view never leaks into another checkpoint.  Only the most
  recent view is kept, so every oracle that reads one checkpoint shares
  one read-only ``Registry``.  An oracle keeps the checkpoint's state
  (``state_at``) when it syncs and reads its view only when it has a
  dispute to judge, so a clock-only checkpoint costs it no copy, and it
  can still read that view after the chain has dropped the state.

Finalized state is kept only while some oracle could still accept it.
``sync`` refuses a checkpoint older than the oracle's ``default_wsp``
before it reads the snapshot, and worlds set that to the chain's
schedule, so ``_finalize`` drops every checkpoint's state more than
``WspSchedule.longest()`` slots behind the clock.  The latest checkpoint
is always kept.  Retention is therefore bounded by the period, not by
the length of the run.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from dataclasses import dataclass, field

from .keys import Keypair, Point, sign_digest, verify_signature
from .registry import Registry


# protocol default weak subjectivity period, in slots
DEFAULT_WSP_SLOTS = 1344


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
        digest = _checkpoint_digest(self.checkpoint, self.signer_kind)
        return verify_signature(self.signer_public, digest, self.signature)


def _checkpoint_digest(cp: FinalizedCheckpoint, signer_kind: str) -> bytes:
    """What a checkpoint signer signs: the checkpoint under its kind."""
    return hashlib.sha256(b"checkpoint" + signer_kind.encode() + cp.encode()).digest()


def sign_checkpoint(cp: FinalizedCheckpoint, keypair: Keypair, signer_kind: str) -> SignedCheckpoint:
    if signer_kind not in (TO_SIGNER, AO_SELF_SIGNER):
        raise DestChainError(f"unknown signer kind {signer_kind!r}")
    digest = _checkpoint_digest(cp, signer_kind)
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


@dataclass
class _Body:
    """One finalized state without its clock, shared by every checkpoint
    finalized while the registry's body was the same: its snapshot is
    ``head + str(clock) + tail``, kept as ASCII bytes for hashing."""

    key: tuple[list, dict]  # a copy of Registry.body_key() when it was rendered
    head: bytes
    tail: bytes
    parsed: bytes | None = None  # pickle of the first parse, the template of every view

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
        wsp_schedule: WspSchedule | None = None,
    ):
        if finality_interval <= 0:
            raise DestChainError("finality interval must be positive")
        self.registry = registry
        self.finality_interval = finality_interval
        self.wsp_schedule = wsp_schedule or WspSchedule(base=DEFAULT_WSP_SLOTS)
        self.slot = 0
        self.finalized: list[FinalizedCheckpoint] = []
        # finalized slot -> (body, clock), within the period
        self.snapshots: dict[int, tuple[_Body, int]] = {}
        self._body: _Body | None = None  # the body last rendered
        self._view: tuple[int, Registry] | None = None  # most recent view
        registry.current_slot = 0
        self._finalize([0])

    @property
    def wsp_current(self) -> int:
        return self.wsp_schedule.at(self.slot)

    def _finalize(self, slots: list[int]) -> list[FinalizedCheckpoint]:
        """Finalize ``slots`` with the current state: one digest, shared by
        every checkpoint, and one render only if the body changed."""
        if not slots:
            return []
        clock = self.registry.current_slot
        key = self.registry.body_key()
        if self._body is None or self._body.key != key:
            snapshot = self.registry.export_snapshot().encode()
            head = self.registry.snapshot_head().encode()
            records, sections = key
            # The sections are the registry's own objects, so keep a copy:
            # a pickle round trip keeps each value's type and is faster
            # than ``copy.deepcopy``.  The record tuples are new and
            # immutable; kept as they are, they share their strings with
            # later keys, which then compare by identity.
            self._body = _Body(
                (records, pickle.loads(pickle.dumps(sections))),
                head,
                snapshot[len(head) + len(b"%d" % clock):],
            )
        body = self._body
        digest = body.digest(clock)
        new = [FinalizedCheckpoint(slot=s, state_digest=digest, timestamp=s) for s in slots]
        self.finalized.extend(new)
        for slot in slots:
            self.snapshots[slot] = (body, clock)
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

    def state_at(self, cp: FinalizedCheckpoint) -> tuple[_Body, int]:
        """The finalized state of ``cp`` while the chain retains it."""
        try:
            return self.snapshots[cp.slot]
        except KeyError:
            raise DestChainError(f"no snapshot for slot {cp.slot}")

    def snapshot_at(self, cp: FinalizedCheckpoint) -> str:
        body, clock = self.state_at(cp)
        return body.text(clock)

    def view_at(self, cp: FinalizedCheckpoint, state: tuple[_Body, int] | None = None) -> Registry:
        """The registry state finalized at ``cp``, shared by every caller
        until another slot is viewed.  Read-only.  A body is parsed once;
        each checkpoint's view is a fresh copy of that parse with its own
        clock, so views of different checkpoints share no mutable object.
        The copy is a pickle round trip, about a quarter of the cost of a
        parse or of ``copy.deepcopy``.  ``state`` is ``cp``'s state as
        ``state_at`` gave it, for a reader that kept it and may come after
        the chain has dropped it."""
        if self._view is None or self._view[0] != cp.slot:
            body, clock = self.state_at(cp) if state is None else state
            if body.parsed is None:
                body.parsed = pickle.dumps(Registry.import_snapshot(body.text(clock)))
            view = pickle.loads(body.parsed)
            view.current_slot = clock
            self._view = (cp.slot, view)
        return self._view[1]
