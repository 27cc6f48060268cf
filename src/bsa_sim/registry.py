"""Smart-contract registry on the destination chain.

Tracks one record per deposited UTXO (status lifecycle below), the token
ledger for the wrapped asset, perimeter adapters used for imbalance
detection, approved enclave version expiries, and timelock parameters
with delayed governance upgrades.

Status lifecycle: the rows of ``_TRANSITIONS``; any other move is
refused.  A record enters as Registered through ``register_deposit`` and
is never removed, so ``records`` is in registration order, which is the
seizure order unless the owner sets a permutation
(``active_records``).  Each row has one entry point, the only place a
status changes, which checks the row (``_check_move``) and then applies
the row's ledger effect:

    Registered --(operator, activate_on_mint: mints the amount)--> Active
    Registered --(owner, reject_deposit: no ledger effect)--> Rejected
    Active     --(owner, burn_deposit: burns the amount)--> Withdrawn
    Active     --(operator, mark_rebalance: no ledger effect)--> SpentOnRebalance

``mark_rebalance`` checks the claimed imbalance against balances the
contract can see, so SpentOnRebalance is trustworthy for third parties.
An exit is authorised only in ``EXIT_STATUSES`` (Withdrawn, Rejected).

Timelock units: t1 and t2 are Bitcoin blocks, t3 is destination-chain
slots; ``slots_per_block`` converts when the three are compared.

The canonical snapshot is written by one table and read back by one
parse: ``_SECTIONS`` names each section of state that a ``Registry``
attribute holds, with how ``import_snapshot`` rebuilds it from the
parsed text.  ``export_snapshot`` encodes those sections, the
parameters, the operator key and the clock in one call, so a new
section of state is one entry in the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

from .chain import Outpoint, SighashFlag, TxOutput
from .curve import decode_point
from .keys import SAR_ROWS, Point, Transition, TweakData, verify_signature

# the one canonical encoder of every stored text: the snapshot, a stored
# template and the trace digest (``json.dumps`` with arguments builds a
# new encoder on each call).  It writes an Enum as its value, bytes and a
# point as hex, an outpoint or an output as the array of its fields and
# any other dataclass as its fields, read with getattr because asking
# for an instance's ``__dict__`` makes later attribute reads slower on
# CPython 3.11; ``from_fields`` reads each back.
encode = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    default=lambda o: (
        o.value if isinstance(o, Enum)
        else o.hex() if isinstance(o, bytes)
        else o.compressed().hex() if isinstance(o, Point)
        else [getattr(o, name) for name in o.__dataclass_fields__]
        if isinstance(o, (Outpoint, TxOutput))
        else {name: getattr(o, name) for name in o.__dataclass_fields__}
    ),
).encode


class RegistryError(Exception):
    pass


class DuplicateOutpoint(RegistryError):
    pass


class MissingPsbt(RegistryError):
    pass


class NotTO(RegistryError):
    pass


class NoImbalance(RegistryError):
    pass


class NotAPermutation(RegistryError):
    pass


class UnauthorizedTransition(RegistryError):
    pass


class SignatureInvalid(RegistryError):
    pass


class TimelockRelationViolated(RegistryError):
    pass


class UnknownRecord(RegistryError):
    pass


class LedgerError(RegistryError):
    pass


class UtxoStatus(Enum):
    REGISTERED = "registered"
    ACTIVE = "active"
    WITHDRAWN = "withdrawn"
    REJECTED = "rejected"
    SPENT_ON_REBALANCE = "spent_on_rebalance"


# the status table: (from, to) -> who may make the move, the operator
# ("to") or the record's owner ("owner")
_TRANSITIONS = {
    (UtxoStatus.REGISTERED, UtxoStatus.ACTIVE): "to",
    (UtxoStatus.REGISTERED, UtxoStatus.REJECTED): "owner",
    (UtxoStatus.ACTIVE, UtxoStatus.WITHDRAWN): "owner",
    (UtxoStatus.ACTIVE, UtxoStatus.SPENT_ON_REBALANCE): "to",
}

# the statuses under which the contract authorises a depositor's exit
EXIT_STATUSES = frozenset({UtxoStatus.WITHDRAWN, UtxoStatus.REJECTED})

# the three stored rows that protect the depositor / enable arbitration
REQUIRED_PSBT_SLOTS = tuple(t.value for t in SAR_ROWS)

# ``Registry.version_payload`` writes an expiry slot in eight bytes
MAX_EXPIRY = 0xFFFF_FFFF_FFFF_FFFF


def _check_move(record: UtxoRecord, new_status: UtxoStatus, caller: str) -> None:
    """Raise unless ``_TRANSITIONS`` lets ``caller`` move ``record`` to
    ``new_status``."""
    rule = _TRANSITIONS.get((record.status, new_status))
    if rule is None:
        raise UnauthorizedTransition(f"{record.status.value} -> {new_status.value}")
    if rule == "to" and caller != "to":
        raise NotTO(caller)
    if rule == "owner" and caller != record.owner:
        raise UnauthorizedTransition(f"{new_status.value} requires the owner")


@dataclass
class UtxoRecord:
    outpoint: str  # "txid:index"
    owner: str  # destination-chain account of the depositor
    amount: int
    status: UtxoStatus
    tweak_digest: str
    psbts: dict[str, str] = field(default_factory=dict)  # transition -> canonical text
    rebalance_position: int = 0  # registration order within the owner's records


@dataclass
class Adapter:
    adapter_id: str
    registered_at: int
    removal_effective_at: int | None = None
    balances: dict[str, int] = field(default_factory=dict)

    def in_perimeter(self, slot: int) -> bool:
        if slot < self.registered_at:
            return False
        return self.removal_effective_at is None or slot < self.removal_effective_at

    def balance_of(self, owner: str) -> int:
        return self.balances.get(owner, 0)


@dataclass
class RebalanceEvent:
    slot: int
    owner: str
    delta: int
    selected: list[tuple[str, int]]  # (outpoint, amount)
    over_seizure: int


@dataclass
class TokenLedger:
    """Account-model ledger for the wrapped token."""

    balances: dict[str, int] = field(default_factory=dict)
    total_minted: int = 0
    total_burned: int = 0
    log: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.writes = 0  # mint, burn and transfer calls that succeeded; not exported

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def mint(self, account: str, amount: int) -> None:
        if amount <= 0:
            raise LedgerError("mint amount must be positive")
        self.balances[account] = self.balance(account) + amount
        self.total_minted += amount
        self.log.append({"op": "mint", "account": account, "amount": amount})
        self.writes += 1

    def burn(self, account: str, amount: int) -> None:
        if amount <= 0:
            raise LedgerError("burn amount must be positive")
        if self.balance(account) < amount:
            raise LedgerError("insufficient balance to burn")
        self.balances[account] -= amount
        self.total_burned += amount
        self.log.append({"op": "burn", "account": account, "amount": amount})
        self.writes += 1

    def transfer(self, src: str, dst: str, amount: int) -> None:
        if amount <= 0:
            raise LedgerError("transfer amount must be positive")
        if self.balance(src) < amount:
            raise LedgerError("insufficient balance")
        self.balances[src] -= amount
        self.balances[dst] = self.balance(dst) + amount
        self.log.append({"op": "transfer", "src": src, "dst": dst, "amount": amount})
        self.writes += 1

    def outstanding(self) -> int:
        return self.total_minted - self.total_burned


def timelock_relation_holds(t1_blocks: int, t2_blocks: int, t3_slots: int, slots_per_block: int) -> bool:
    """Governance delay must strictly dominate the dispute window."""
    return t3_slots > (t1_blocks + t2_blocks) * slots_per_block


def check_timelocks(t1: int, t2: int, t3: int, slots_per_block: int) -> None:
    """Raise ``TimelockRelationViolated`` unless every parameter is
    positive and the governance delay dominates the dispute window."""
    if min(t1, t2, t3, slots_per_block) <= 0:
        raise TimelockRelationViolated("timelock parameters must be positive")
    if not timelock_relation_holds(t1, t2, t3, slots_per_block):
        raise TimelockRelationViolated(
            f"t3={t3} slots must exceed (t1+t2)={t1 + t2} blocks "
            f"* {slots_per_block} slots/block"
        )


def _in_effect_order(upgrades: list[tuple[dict, int]]) -> list[tuple[dict, int]]:
    """Queued upgrades in the order they take effect: by effective slot,
    ties in the order they were scheduled."""
    return sorted(upgrades, key=lambda upgrade: upgrade[1])


def _as_read(value):
    return value


def _read_point(text: str) -> Point:
    return decode_point(bytes.fromhex(text))


def _from_array(cls, values: list):
    """``cls`` from the array of its fields that ``encode`` writes."""
    if not isinstance(values, list):
        raise TypeError(f"{cls.__name__} is written as an array, not {values!r}")
    return cls(*values)


# a field's declared type -> how ``from_fields`` reads it back from what
# ``encode`` wrote; a field of any other type is used as read
_READ = {
    "bytes": bytes.fromhex,
    "Point": _read_point,
    "tuple[Point, ...]": lambda texts: tuple(map(_read_point, texts)),
    "UtxoStatus": UtxoStatus,
    "Transition": Transition,
    "SighashFlag": SighashFlag,
    "Outpoint": lambda values: _from_array(Outpoint, values),
    "list[TxOutput]": lambda outputs: [_from_array(TxOutput, o) for o in outputs],
    "dict[str, bytes]": lambda texts: {k: bytes.fromhex(v) for k, v in texts.items()},
    "list[tuple[str, int]]": lambda pairs: list(map(tuple, pairs)),
}


def from_fields(cls, fields: dict):
    """The dataclass ``cls`` built from the parsed ``fields`` that
    ``encode`` wrote, each read through ``_READ`` by its declared type;
    ``TypeError`` unless ``fields`` names every field and no other."""
    declared = cls.__dataclass_fields__
    if fields.keys() != declared.keys():
        raise TypeError(f"{cls.__name__} has fields {sorted(declared)}, not {sorted(fields)}")
    return cls(**{
        name: _READ[f.type](fields[name]) if f.type in _READ else fields[name]
        for name, f in declared.items()
    })


# section name, which is also the ``Registry`` attribute that holds it ->
# how ``import_snapshot`` rebuilds it from the parsed text
_SECTIONS = {
    # the text lists records by outpoint; registration order is restored
    "records": lambda records: {
        v["outpoint"]: from_fields(UtxoRecord, v)
        for v in sorted(records.values(), key=lambda v: v["rebalance_position"])
    },
    "tweaks": lambda tweaks: {k: from_fields(TweakData, t) for k, t in tweaks.items()},
    "orders": _as_read,
    "adapters": lambda adapters: {k: from_fields(Adapter, a) for k, a in adapters.items()},
    "versions": lambda versions: {k: tuple(v) for k, v in versions.items()},
    "pending_upgrades": lambda upgrades: [tuple(u) for u in upgrades],
    "ledger": lambda ledger: from_fields(TokenLedger, ledger),
    "claimable": _as_read,
    "claim_paid": _as_read,
    "rebalance_events": lambda events: [from_fields(RebalanceEvent, e) for e in events],
}


class Registry:
    """The contract's state.  It changes only through these methods and
    the ledger's; each that writes exported state counts a success in its
    object's ``writes``, and the destination chain renders when one moves."""

    def __init__(self, t1: int, t2: int, t3: int, slots_per_block: int, to_pubkey: Point):
        check_timelocks(t1, t2, t3, slots_per_block)
        self.writes = 0
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.slots_per_block = slots_per_block
        self.to_pubkey = to_pubkey
        self.current_slot = 0
        self.records: dict[str, UtxoRecord] = {}
        self.tweaks: dict[str, TweakData] = {}  # digest -> the instance parameters
        self.orders: dict[str, list[int]] = {}  # owner -> permutation
        self.adapters: dict[str, Adapter] = {}
        self.versions: dict[str, tuple[int, str]] = {}  # pcr0 -> (expiry slot, sig hex)
        self.pending_upgrades: list[tuple[dict, int]] = []  # (change, effective slot)
        self.ledger = TokenLedger()
        self.claimable: dict[str, int] = {}  # owner -> over-seizure owed
        self.claim_paid: dict[str, int] = {}
        self.rebalance_events: list[RebalanceEvent] = []

    # -- deposits ------------------------------------------------------------

    def store_tweak_data(self, tweak_data: TweakData) -> str:
        digest = tweak_data.digest_hex()
        self.tweaks[digest] = tweak_data
        self.writes += 1
        return digest

    def register_deposit(self, record: UtxoRecord, caller: str) -> None:
        if caller != "to":
            raise NotTO(caller)
        if record.outpoint in self.records:
            raise DuplicateOutpoint(record.outpoint)
        if record.status is not UtxoStatus.REGISTERED:
            raise UnauthorizedTransition("new records start as Registered")
        missing = [slot for slot in REQUIRED_PSBT_SLOTS if slot not in record.psbts]
        if missing:
            raise MissingPsbt(", ".join(missing))
        if record.tweak_digest not in self.tweaks:
            raise UnknownRecord("tweak data must be stored before registering")
        # no record is ever removed: the owner's count is the next index
        record.rebalance_position = sum(r.owner == record.owner for r in self.records.values())
        self.records[record.outpoint] = record
        self.writes += 1

    def get_record(self, outpoint: str) -> UtxoRecord:
        if outpoint not in self.records:
            raise UnknownRecord(outpoint)
        return self.records[outpoint]

    def get_stored_psbt(self, outpoint: str, transition: str) -> str | None:
        return self.get_record(outpoint).psbts.get(transition)

    def activate_on_mint(self, outpoint: str, caller: str) -> None:
        """Operator flips Registered -> Active and mints the wrapped amount
        to the owner's destination account."""
        record = self.get_record(outpoint)
        _check_move(record, UtxoStatus.ACTIVE, caller)
        self.ledger.mint(record.owner, record.amount)
        record.status = UtxoStatus.ACTIVE
        self.writes += 1

    def burn_deposit(self, outpoint: str, caller: str) -> None:
        """Full per-UTXO burn: burns exactly the record amount and flips the
        record to Withdrawn.  Smaller burns via the ledger never change
        status."""
        record = self.get_record(outpoint)
        _check_move(record, UtxoStatus.WITHDRAWN, caller)
        self.ledger.burn(record.owner, record.amount)
        record.status = UtxoStatus.WITHDRAWN
        self.writes += 1

    def reject_deposit(self, outpoint: str, caller: str) -> None:
        """Owner exits before activation; nothing was minted."""
        record = self.get_record(outpoint)
        _check_move(record, UtxoStatus.REJECTED, caller)
        record.status = UtxoStatus.REJECTED
        self.writes += 1

    # -- imbalance and rebalancing ------------------------------------------

    def active_records(self, owner: str) -> list[UtxoRecord]:
        """The owner's Active records in seizure order: the owner's
        permutation when it orders exactly that many, else registration
        order, which is the order of ``records``."""
        records = [
            r
            for r in self.records.values()
            if r.owner == owner and r.status is UtxoStatus.ACTIVE
        ]
        perm = self.orders.get(owner)
        if perm is None or len(perm) != len(records):
            # stale or absent permutation: registration order applies
            return records
        return [records[i] for i in perm]

    def perimeter_balance(self, owner: str) -> tuple[int, int]:
        personal = self.ledger.balance(owner)
        defi = sum(
            a.balance_of(owner)
            for a in self.adapters.values()
            if a.in_perimeter(self.current_slot)
        )
        return personal, defi

    def detect_imbalance(self, owner: str) -> int:
        deposited = sum(r.amount for r in self.active_records(owner))
        personal, defi = self.perimeter_balance(owner)
        return max(0, deposited - (defi + personal))

    def set_rebalance_order(self, owner: str, permutation: list[int], caller: str) -> None:
        if caller != owner:
            raise UnauthorizedTransition("only the owner orders their own deposits")
        if sorted(permutation) != list(range(len(permutation))):
            raise NotAPermutation(str(permutation))
        self.orders[owner] = list(permutation)
        self.writes += 1

    def select_for_rebalance(self, owner: str, delta: int) -> list[UtxoRecord]:
        """Shortest prefix of the owner-ordered active records whose sum
        covers delta."""
        selected: list[UtxoRecord] = []
        covered = 0
        for record in self.active_records(owner):
            selected.append(record)
            covered += record.amount
            if covered >= delta:
                return selected
        return selected

    def mark_rebalance(self, owner: str, delta: int, caller: str) -> RebalanceEvent:
        if delta <= 0:
            raise NoImbalance("delta must be positive")
        if delta > self.detect_imbalance(owner):
            raise NoImbalance(f"claimed {delta}, observed {self.detect_imbalance(owner)}")
        selected = self.select_for_rebalance(owner, delta)
        for record in selected:
            _check_move(record, UtxoStatus.SPENT_ON_REBALANCE, caller)
        total = sum(r.amount for r in selected)
        for record in selected:
            record.status = UtxoStatus.SPENT_ON_REBALANCE
        over = total - delta
        if over > 0:
            self.claimable[owner] = self.claimable.get(owner, 0) + over
        event = RebalanceEvent(
            slot=self.current_slot,
            owner=owner,
            delta=delta,
            selected=[(r.outpoint, r.amount) for r in selected],
            over_seizure=over,
        )
        self.rebalance_events.append(event)
        self.writes += 1
        return event

    def record_claim_paid(self, owner: str, amount: int, caller: str) -> None:
        """Operator books a repayment of over-seized value to ``owner``."""
        if caller != "to":
            raise NotTO(caller)
        owed = self.claimable.get(owner, 0)
        if amount <= 0 or amount > owed:
            raise RegistryError(f"claim payment {amount} vs owed {owed}")
        self.claimable[owner] = owed - amount
        self.claim_paid[owner] = self.claim_paid.get(owner, 0) + amount
        self.writes += 1

    # -- adapters --------------------------------------------------------------

    def adapter_admin(self, action: str, adapter_id: str, caller: str) -> None:
        if caller != "to":
            raise NotTO(caller)
        if action == "add":
            if adapter_id in self.adapters:
                raise RegistryError(f"adapter {adapter_id} already registered")
            self.adapters[adapter_id] = Adapter(adapter_id, registered_at=self.current_slot)
        elif action == "remove":
            adapter = self.adapters.get(adapter_id)
            if adapter is None:
                raise RegistryError(f"no adapter {adapter_id}")
            adapter.removal_effective_at = self.current_slot + self.t3
        else:
            raise RegistryError(f"unknown adapter action {action!r}")
        self.writes += 1

    # -- enclave versions --------------------------------------------------------

    @staticmethod
    def version_payload(pcr0: str, expiry: int) -> bytes:
        return hashlib.sha256(
            b"version" + bytes.fromhex(pcr0) + expiry.to_bytes(8, "big")
        ).digest()

    def set_version_expiry(self, pcr0: str, expiry: int, signature: bytes) -> None:
        if not verify_signature(self.to_pubkey, self.version_payload(pcr0, expiry), signature):
            raise SignatureInvalid("version expiry needs a valid operator signature")
        self.versions[pcr0] = (expiry, signature.hex())
        self.writes += 1

    def get_version_expiry(self, pcr0: str) -> int | None:
        entry = self.versions.get(pcr0)
        return entry[0] if entry else None

    # -- governance upgrades ---------------------------------------------------

    def schedule_upgrade(self, change: dict, caller: str) -> int:
        """Queue a parameter change; it becomes effective t3 slots from now.
        The parameters after every queued change, taken in the order they
        will apply, must keep the dispute/governance relation valid."""
        if caller != "to":
            raise NotTO(caller)
        effective_at = self.current_slot + self.t3
        queued = [*self.pending_upgrades, (dict(change), effective_at)]
        t1, t2, t3 = self.t1, self.t2, self.t3
        for pending, _ in _in_effect_order(queued):
            t1 = pending.get("t1", t1)
            t2 = pending.get("t2", t2)
            t3 = pending.get("t3", t3)
            check_timelocks(t1, t2, t3, self.slots_per_block)
        self.pending_upgrades = queued
        self.writes += 1
        return effective_at

    def apply_due_upgrades(self) -> None:
        due = [u for u in self.pending_upgrades if self.current_slot >= u[1]]
        if not due:
            return
        for change, _ in _in_effect_order(due):
            self.t1 = change.get("t1", self.t1)
            self.t2 = change.get("t2", self.t2)
            self.t3 = change.get("t3", self.t3)
        self.pending_upgrades = [
            u for u in self.pending_upgrades if self.current_slot < u[1]
        ]
        self.writes += 1

    # -- canonical snapshot ---------------------------------------------------

    def _sections(self) -> dict:
        """Every section of the canonical state, as the live objects: the
        encoder sorts every key and encodes an object as its fields."""
        sections = {name: getattr(self, name) for name in _SECTIONS}
        sections["params"] = {
            "t1": self.t1,
            "t2": self.t2,
            "t3": self.t3,
            "slots_per_block": self.slots_per_block,
        }
        sections["to_pubkey"] = self.to_pubkey
        sections["current_slot"] = self.current_slot
        # a retired section, kept empty so every digest stays as it was
        sections["collaborative_pending"] = {}
        return sections

    def export_snapshot(self) -> str:
        """The canonical state: sorted keys, no whitespace."""
        return encode(self._sections())

    def snapshot_head(self) -> str:
        """The text of ``export_snapshot()`` up to the value of
        ``current_slot``: the sections that sort before it, which always
        exist, without their closing brace."""
        head = {name: v for name, v in self._sections().items() if name < "current_slot"}
        return encode(head)[:-1] + ',"current_slot":'

    def state_digest(self) -> str:
        return hashlib.sha256(self.export_snapshot().encode()).hexdigest()

    @classmethod
    def import_snapshot(cls, snapshot: str) -> "Registry":
        d = json.loads(snapshot)
        reg = cls(**d["params"], to_pubkey=_read_point(d["to_pubkey"]))
        reg.current_slot = d["current_slot"]
        for name, rebuild in _SECTIONS.items():
            setattr(reg, name, rebuild(d[name]))
        return reg
