"""Finalized state on the destination chain: whatever the registry does
between advances, every retained checkpoint carries the digest, the text
and the parsed view of a full export of the registry at its own slot,
and views of different checkpoints share nothing mutable.

The chain renders only when a write count moved, so every method of
``Registry`` and ``TokenLedger`` is listed here as a counted writer or
as a reader, and whole graded runs check each new checkpoint against a
fresh export.  A test that writes a field in place declares the write
(``reg.writes += 1``)."""

import copy
import dataclasses
import hashlib
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsa_sim.destchain import DestChain, FinalizedCheckpoint, _Body
from bsa_sim.harness import MATRIX_DIR, random_adversarial_config, run_scenario
from bsa_sim.keys import TweakData, key_address_id, keypair_from_seed, sign_digest
from bsa_sim.registry import (
    REQUIRED_PSBT_SLOTS,
    Adapter,
    RebalanceEvent,
    Registry,
    RegistryError,
    TokenLedger,
    UtxoRecord,
    UtxoStatus,
)
from bsa_sim.scenario import load_scenario

# The example count comes from the Hypothesis profile (tests/conftest.py).
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)

INTERVAL = 4
WSP = 3 * INTERVAL  # a few checkpoints are retained, older ones are evicted
OWNERS = ("acct:a", "acct:b", "acct:c")
TO = keypair_from_seed(b"fin-to")
DEP = keypair_from_seed(b"fin-dep")
AO = keypair_from_seed(b"fin-ao")
TWEAKS = [
    TweakData(
        dep_pk=DEP.public,
        to_pk=TO.public,
        ao_pks=(AO.public,),
        t1=t1,
        t2=6,
        destination_chain_address=OWNERS[0].encode(),
        return_address=key_address_id(DEP.public).encode(),
    )
    for t1 in (4, 5, 6)
]
PCR0S = ("aa" * 48, "bb" * 48)
ADAPTERS = ("pool-1", "pool-2")
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def outpoint(i: int) -> str:
    return f"{i:02x}:0"


def nth_record(reg: Registry, i: int, *statuses: UtxoStatus) -> UtxoRecord:
    """The ``i``-th record (counted round) in one of ``statuses``, or in
    any status when none is given."""
    records = [r for r in reg.records.values() if not statuses or r.status in statuses]
    if not records:
        raise RegistryError("no such record yet")
    return records[i % len(records)]


def register(reg: Registry, i: int, owner: str, amount: int) -> None:
    reg.register_deposit(
        UtxoRecord(
            outpoint=outpoint(i),
            owner=owner,
            amount=amount,
            status=UtxoStatus.REGISTERED,
            tweak_digest=TWEAKS[0].digest_hex(),
            psbts={slot: f'{{"row":"{slot}","deposit":{i}}}' for slot in REQUIRED_PSBT_SLOTS},
        ),
        caller="to",
    )


def set_expiry(reg: Registry, pcr0: str, expiry: int) -> None:
    reg.set_version_expiry(pcr0, expiry, sign_digest(TO, Registry.version_payload(pcr0, expiry)))


def activate(reg: Registry, i: int) -> None:
    reg.activate_on_mint(nth_record(reg, i, UtxoStatus.REGISTERED).outpoint, caller="to")


def withdraw(reg: Registry, i: int) -> None:
    record = nth_record(reg, i, UtxoStatus.ACTIVE)
    reg.burn_deposit(record.outpoint, caller=record.owner)


def held(reg: Registry, account: str, amount: int) -> int:
    """``amount``, cut to what ``account`` holds when it holds anything."""
    return max(1, min(amount, reg.ledger.balance(account)))


def rebalance(reg: Registry, owner: str, moved: int) -> None:
    """``owner`` sends tokens out of the perimeter, then the operator
    seizes what the registry sees missing."""
    if reg.ledger.balance(owner):
        reg.ledger.transfer(owner, "acct:pool", held(reg, owner, moved))
    reg.mark_rebalance(owner, reg.detect_imbalance(owner), caller="to")


def rewrite_row(reg: Registry, i: int, slot: str) -> None:
    """A stored row rewritten in place, as a tampered record would be."""
    nth_record(reg, i).psbts[slot] = f'{{"row":"rewritten","step":{i}}}'
    reg.writes += 1  # no registry method made the write, so declare it


def pay_claim(reg: Registry, owner: str, amount: int) -> None:
    """The operator books a repayment of part of what ``owner`` is owed."""
    reg.record_claim_paid(owner, max(1, min(amount, reg.claimable.get(owner, 0))), caller="to")


def reorder(reg: Registry, owner: str, shift: int) -> None:
    """``owner`` orders their active records, rotated by ``shift``."""
    positions = list(range(len(reg.active_records(owner))))
    reg.set_rebalance_order(owner, positions[shift:] + positions[:shift], caller=owner)


def rewrite(reg: Registry, section: str, n: int) -> None:
    REWRITES[section](reg, n)
    reg.writes += 1  # no registry method made the write, so declare it


# sections that no registry method writes alone, each rewritten in place
REWRITES = {
    "params": lambda reg, n: setattr(reg, "t3", 20 + n),  # keeps t3 > (t1 + t2) * 2
    "to_pubkey": lambda reg, n: setattr(reg, "to_pubkey", (TO, AO)[n % 2].public),
    "claimable": lambda reg, n: reg.claimable.update({OWNERS[n % 3]: n}),
    "claim_paid": lambda reg, n: reg.claim_paid.update({OWNERS[n % 3]: n}),
    "rebalance_events": lambda reg, n: reg.rebalance_events.append(
        RebalanceEvent(n, OWNERS[n % 3], n, [], 0)
    ),
}


OPERATIONS = {
    "register": (register, st.integers(0, 7), st.sampled_from(OWNERS), st.integers(1, 900)),
    "activate": (activate, st.integers(0, 7)),
    "withdraw": (withdraw, st.integers(0, 7)),
    "mint": (lambda reg, a, n: reg.ledger.mint(a, n), st.sampled_from(OWNERS), st.integers(1, 500)),
    "burn": (lambda reg, a, n: reg.ledger.burn(a, held(reg, a, n)), st.sampled_from(OWNERS), st.integers(1, 500)),
    "transfer": (
        lambda reg, a, b, n: reg.ledger.transfer(a, b, held(reg, a, n)),
        st.sampled_from(OWNERS),
        st.sampled_from(OWNERS + ("acct:pool",)),
        st.integers(1, 500),
    ),
    "store_tweak": (lambda reg, t: reg.store_tweak_data(TWEAKS[t]), st.integers(0, 2)),
    "version_expiry": (set_expiry, st.sampled_from(PCR0S), st.integers(100, 102)),
    "upgrade": (lambda reg, t3: reg.schedule_upgrade({"t3": t3}, caller="to"), st.integers(31, 33)),
    "mark_rebalance": (rebalance, st.sampled_from(OWNERS), st.integers(1, 500)),
    "rewrite_row": (rewrite_row, st.integers(0, 7), st.sampled_from(REQUIRED_PSBT_SLOTS)),
    "claim_paid": (pay_claim, st.sampled_from(OWNERS), st.integers(1, 500)),
    "rebalance_order": (reorder, st.sampled_from(OWNERS), st.integers(0, 3)),
    "adapter": (
        lambda reg, action, a: reg.adapter_admin(action, a, caller="to"),
        st.sampled_from(("add", "remove")),
        st.sampled_from(ADAPTERS),
    ),
    "rewrite": (
        rewrite,
        st.sampled_from(sorted(REWRITES)),
        st.integers(1, 40),
    ),
}

# One step: a registry operation, then an advance of 0 to 3 intervals in slots.
STEPS = st.lists(
    st.tuples(
        st.one_of([st.tuples(st.just(name), *args) for name, (_, *args) in OPERATIONS.items()]),
        st.integers(0, 3 * INTERVAL),
    ),
    min_size=12,
    max_size=60,
)


def corrupt(view: Registry) -> None:
    """Write to every section of a view that a snapshot holds, both to
    the objects it already has and by adding new ones."""
    view.current_slot += 1
    view.t1, view.t2, view.t3, view.slots_per_block = 99, 99, 99, 99
    view.to_pubkey = DEP.public
    for record in view.records.values():
        record.status = UtxoStatus.REJECTED
        record.psbts[REQUIRED_PSBT_SLOTS[0]] = "{}"
    for digest, tweak in view.tweaks.items():  # frozen: replaced, not written
        view.tweaks[digest] = dataclasses.replace(tweak, t1=99)
    for order in view.orders.values():
        order.append(99)
    view.orders["acct:corrupt"] = [0]
    for adapter in view.adapters.values():
        adapter.removal_effective_at = 0
        adapter.balances["acct:corrupt"] = 1
    view.adapters["corrupt"] = Adapter("corrupt", registered_at=0)
    view.versions["cc" * 48] = (1, "00")
    for change, _ in view.pending_upgrades:
        change["t3"] = 0
    view.pending_upgrades.append(({"t1": 0}, 0))
    for entry in view.ledger.log:
        entry["amount"] = -1
    view.ledger.balances["acct:corrupt"] = 1
    view.ledger.total_minted += 1
    view.ledger.total_burned += 1
    view.claimable["acct:corrupt"] = 1
    view.claim_paid["acct:corrupt"] = 1
    for event in view.rebalance_events:
        event.selected.append(("corrupt:0", 1))
    view.rebalance_events.append(RebalanceEvent(0, "acct:corrupt", 1, [], 0))


def advance_checked(
    dest: DestChain, n_slots: int, advance=DestChain.advance
) -> list[tuple[FinalizedCheckpoint, str]]:
    """Advance ``dest`` by ``advance``, the method as defined here even
    where a test patches it, and pair each checkpoint it finalized with a
    fresh export of the registry at that checkpoint's slot: a copy taken
    before the advance, its clock set to the slot and the upgrades due by
    then applied.  The live registry must then be the copy moved on to
    the chain's slot."""
    copied = copy.deepcopy(dest.registry)
    new = advance(dest, n_slots)
    exported = []
    for slot in [cp.slot for cp in new] + [dest.slot]:
        copied.current_slot = slot
        copied.apply_due_upgrades()
        exported.append(copied.export_snapshot())
    assert exported.pop() == dest.registry.export_snapshot()
    return list(zip(new, exported))


def run_steps(steps) -> tuple[DestChain, dict[int, str]]:
    """Apply ``steps``, returning the chain and a fresh export of the
    registry at every checkpoint, at the checkpoint's own slot."""
    reg = Registry(4, 6, 30, 2, TO.public)
    reg.store_tweak_data(TWEAKS[0])
    dest = DestChain(reg, finality_interval=INTERVAL, wsp=WSP)
    exported = {0: reg.export_snapshot()}
    for (name, *args), slots in steps:
        try:
            OPERATIONS[name][0](reg, *args)
        except RegistryError:
            pass  # refused
        if slots:
            exported.update((cp.slot, text) for cp, text in advance_checked(dest, slots))
    return dest, exported


@PROPERTY_SETTINGS
@given(steps=STEPS)
def test_every_retained_checkpoint_is_its_fresh_export(steps):
    dest, exported = run_steps(steps)
    retained = list(dest.snapshots.values())
    assert [cp.slot for cp in retained] == sorted(dest.snapshots)
    assert retained[-1] is dest.latest_finalized()
    for cp in retained:
        text = exported[cp.slot]
        assert cp.state_digest == hashlib.sha256(text.encode()).hexdigest()
    # Each view is read after the one before it was corrupted, and a
    # corrupted view reaches no later checkpoint's view.
    assert retained[0].view.export_snapshot() == exported[retained[0].slot]
    for earlier, later in itertools.pairwise(retained):
        corrupt(earlier.view)
        view = later.view
        assert view.export_snapshot() == exported[later.slot]
        assert view.state_digest() == later.state_digest


def test_digest_is_hashed_once_and_only_when_read(monkeypatch):
    """Advances hash nothing; the first read of a checkpoint's digest
    hashes the text finalized then, whatever the registry did since, and
    later reads hash nothing."""
    hashed = []
    digest = _Body.digest

    def counted(body, slot):
        hashed.append(slot)
        return digest(body, slot)

    monkeypatch.setattr(_Body, "digest", counted)
    reg = Registry(4, 6, 30, 2, TO.public)
    dest = DestChain(reg, finality_interval=INTERVAL, wsp=WSP)
    reg.store_tweak_data(TWEAKS[0])  # the body changes
    dest.advance(INTERVAL)
    text = reg.export_snapshot()
    cp = dest.latest_finalized()
    for n in (1, INTERVAL, 3 * INTERVAL):  # clock-only advances
        dest.advance(n)
    assert hashed == []
    reg.store_tweak_data(TWEAKS[1])  # the registry changes before the read
    dest.advance(INTERVAL)
    assert cp.state_digest == hashlib.sha256(text.encode()).hexdigest()
    assert len(hashed) == 1
    assert cp.state_digest == cp.state_digest and len(hashed) == 1


def changed(value):
    """A different value of the same type, for any ``UtxoRecord`` field."""
    if isinstance(value, UtxoStatus):
        return next(status for status in UtxoStatus if status != value)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, dict):
        return {**value, "extra": '{"row":"extra"}'}
    raise TypeError(f"no changed value for {value!r}")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(UtxoRecord)])
def test_a_change_to_any_record_field_is_finalized(name):
    """A change to any one record field, written in place and declared
    as a write, reaches the next checkpoint."""
    reg = Registry(4, 6, 30, 2, TO.public)
    dest = DestChain(reg, finality_interval=INTERVAL, wsp=WSP)
    reg.store_tweak_data(TWEAKS[0])
    register(reg, 0, OWNERS[0], 700)
    dest.advance(INTERVAL)
    record = reg.records[outpoint(0)]
    setattr(record, name, changed(getattr(record, name)))
    reg.writes += 1  # no registry method made the write, so declare it
    dest.advance(INTERVAL)
    fresh = hashlib.sha256(reg.export_snapshot().encode()).hexdigest()
    assert dest.latest_finalized().state_digest == fresh


def populated() -> Registry:
    """A registry on which each call in ``WRITERS`` succeeds: a registered
    record (3), active records of every owner, an imbalance of
    ``acct:b``'s, over-seizure owed to ``acct:c``, an adapter and an
    upgrade due at slot 30."""
    reg = Registry(4, 6, 30, 2, TO.public)
    reg.store_tweak_data(TWEAKS[0])
    for i, (owner, amount) in enumerate(
        [(OWNERS[0], 700), (OWNERS[0], 300), (OWNERS[1], 500), (OWNERS[0], 200), (OWNERS[2], 600)]
    ):
        register(reg, i, owner, amount)
    for i in (0, 1, 2, 4):
        reg.activate_on_mint(outpoint(i), caller="to")
    reg.ledger.transfer(OWNERS[1], "acct:pool", 200)
    reg.ledger.transfer(OWNERS[2], "acct:pool", 100)
    reg.mark_rebalance(OWNERS[2], 100, caller="to")
    reg.adapter_admin("add", ADAPTERS[0], caller="to")
    reg.schedule_upgrade({"t3": 31}, caller="to")
    return reg


def due_upgrade(reg: Registry) -> None:
    reg.current_slot = 30  # the chain's clock, which is not a write
    reg.apply_due_upgrades()


# every method that writes exported state -> a call of it that succeeds
# on ``populated()``; each must add to its object's ``writes``
WRITERS = {
    "Registry.store_tweak_data": lambda reg: reg.store_tweak_data(TWEAKS[1]),
    "Registry.register_deposit": lambda reg: register(reg, 9, OWNERS[1], 400),
    "Registry.activate_on_mint": lambda reg: reg.activate_on_mint(outpoint(3), caller="to"),
    "Registry.burn_deposit": lambda reg: reg.burn_deposit(outpoint(0), caller=OWNERS[0]),
    "Registry.reject_deposit": lambda reg: reg.reject_deposit(outpoint(3), caller=OWNERS[0]),
    "Registry.set_rebalance_order": lambda reg: reorder(reg, OWNERS[0], 1),
    "Registry.mark_rebalance": lambda reg: reg.mark_rebalance(OWNERS[1], 200, caller="to"),
    "Registry.record_claim_paid": lambda reg: reg.record_claim_paid(OWNERS[2], 100, caller="to"),
    "Registry.adapter_admin": lambda reg: reg.adapter_admin("remove", ADAPTERS[0], caller="to"),
    "Registry.set_version_expiry": lambda reg: set_expiry(reg, PCR0S[0], 100),
    "Registry.schedule_upgrade": lambda reg: reg.schedule_upgrade({"t3": 32}, caller="to"),
    "Registry.apply_due_upgrades": due_upgrade,
    "TokenLedger.mint": lambda reg: reg.ledger.mint(OWNERS[0], 5),
    "TokenLedger.burn": lambda reg: reg.ledger.burn(OWNERS[0], 5),
    "TokenLedger.transfer": lambda reg: reg.ledger.transfer(OWNERS[0], "acct:pool", 5),
}

# every other public method -> a call of it; none may write
READERS = {
    "Registry.get_record": lambda reg: reg.get_record(outpoint(0)),
    "Registry.get_stored_psbt": lambda reg: reg.get_stored_psbt(outpoint(0), REQUIRED_PSBT_SLOTS[0]),
    "Registry.active_records": lambda reg: reg.active_records(OWNERS[0]),
    "Registry.perimeter_balance": lambda reg: reg.perimeter_balance(OWNERS[1]),
    "Registry.detect_imbalance": lambda reg: reg.detect_imbalance(OWNERS[1]),
    "Registry.select_for_rebalance": lambda reg: reg.select_for_rebalance(OWNERS[0], 800),
    "Registry.version_payload": lambda reg: reg.version_payload(PCR0S[0], 100),
    "Registry.get_version_expiry": lambda reg: reg.get_version_expiry(PCR0S[0]),
    "Registry.export_snapshot": lambda reg: reg.export_snapshot(),
    "Registry.snapshot_head": lambda reg: reg.snapshot_head(),
    "Registry.state_digest": lambda reg: reg.state_digest(),
    "Registry.import_snapshot": lambda reg: Registry.import_snapshot(reg.export_snapshot()),
    "TokenLedger.balance": lambda reg: reg.ledger.balance(OWNERS[0]),
    "TokenLedger.outstanding": lambda reg: reg.ledger.outstanding(),
}


def public_methods(cls: type) -> set[str]:
    return {
        f"{cls.__name__}.{name}"
        for name in vars(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }


def counts(reg: Registry) -> tuple[int, int]:
    return reg.writes, reg.ledger.writes


def body(reg: Registry) -> dict:
    """The exported state without its clock."""
    state = json.loads(reg.export_snapshot())
    del state["current_slot"]
    return state


def test_every_public_method_is_a_counted_writer_or_a_reader():
    """A new method fails here until it is listed as a writer, which
    must count its writes, or as a reader."""
    assert not set(WRITERS) & set(READERS)
    assert set(WRITERS) | set(READERS) == public_methods(Registry) | public_methods(TokenLedger)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_writer_that_succeeds_counts_its_write(name):
    reg = populated()
    counter = reg.ledger if name.startswith("TokenLedger.") else reg
    before, state = counter.writes, body(reg)
    WRITERS[name](reg)
    assert counter.writes == before + 1
    assert body(reg) != state


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_reader_writes_nothing(name):
    reg = populated()
    before, state = counts(reg), body(reg)
    READERS[name](reg)
    assert counts(reg) == before
    assert body(reg) == state


def test_an_advance_renders_only_when_a_count_moved():
    """Advances before the queued upgrade is due count no write and keep
    the body; the advance that applies it counts one and renders."""
    reg = populated()
    dest = DestChain(reg, finality_interval=INTERVAL, wsp=WSP)
    before, rendered = counts(reg), dest._body
    for _ in range(7):  # to slot 28; the upgrade is due at 30
        dest.advance(INTERVAL)
        assert counts(reg) == before and dest._body is rendered
    dest.advance(INTERVAL)
    assert counts(reg) == (before[0] + 1, before[1]) and dest._body is not rendered
    assert dest.latest_finalized().view.t3 == 31


def test_an_upgrade_due_between_crossed_slots_reaches_the_later_checkpoint_only(monkeypatch):
    """One advance crosses two boundaries and an upgrade falls due between
    them: each checkpoint is the registry at its own slot, so the upgrade
    is in the later one's view only, and the one export the advance makes
    is the later one's, the earlier sharing the body rendered before."""
    reg = Registry(4, 6, 30, 2, TO.public)
    dest = DestChain(reg, finality_interval=INTERVAL, wsp=WSP)
    assert reg.schedule_upgrade({"t3": 31}, caller="to") == 30
    dest.advance(26)  # renders the queued upgrade
    exports = []
    export = Registry.export_snapshot
    monkeypatch.setattr(Registry, "export_snapshot", lambda reg: exports.append(reg) or export(reg))
    earlier, later = dest.advance(2 * INTERVAL)  # to slot 34, crossing 28 and 32
    assert len(exports) == 1
    assert (earlier.slot, later.slot, reg.current_slot, reg.t3) == (28, 32, 34, 31)
    assert [cp.view.current_slot for cp in (earlier, later)] == [earlier.slot, later.slot]
    assert (earlier.view.t3, earlier.view.pending_upgrades) == (30, [({"t3": 31}, 30)])
    assert (later.view.t3, later.view.pending_upgrades) == (31, [])


def whole_runs() -> list:
    """The graded scenario files, then the first 20 draws of the
    trust-model sweep (seed 7)."""
    files = sorted(SCENARIO_DIR.glob("*.scn")) + sorted(MATRIX_DIR.glob("*.scn"))
    rng = random.Random(7)
    return [load_scenario(str(path)) for path in files] + [
        random_adversarial_config(rng, i) for i in range(20)
    ]


@pytest.mark.parametrize("config", whole_runs(), ids=lambda config: config.name)
def test_every_checkpoint_of_a_whole_run_is_its_fresh_export(config, monkeypatch):
    """No write path in ``src/`` goes uncounted: block by block, each
    checkpoint an advance finalizes holds the registry at its own slot,
    its digest that of a fresh export at that slot and its view, parsed
    from the checkpoint's text, that same export."""
    checked_slots = []

    def checked(dest: DestChain, n_slots: int):
        new = advance_checked(dest, n_slots)
        for checkpoint, fresh in new:
            assert checkpoint.state_digest == hashlib.sha256(fresh.encode()).hexdigest()
            assert checkpoint.view.export_snapshot() == fresh
            assert checkpoint.view.current_slot == checkpoint.slot
            checked_slots.append(checkpoint.slot)
        return [checkpoint for checkpoint, _ in new]

    monkeypatch.setattr(DestChain, "advance", checked)
    run_scenario(config)
    assert checked_slots
