"""Registry state machine: record lifecycle, token ledger, imbalance
detection, rebalance selection against a brute-force oracle, enclave
version table, governance delays, and canonical snapshots."""

import itertools
import json
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsa_sim.keys import TweakData, key_address_id, keypair_from_seed, sign_digest
from bsa_sim.registry import (
    DuplicateOutpoint,
    LedgerError,
    MissingPsbt,
    NoImbalance,
    NotAPermutation,
    NotTO,
    REQUIRED_PSBT_SLOTS,
    Registry,
    RegistryError,
    SignatureInvalid,
    TimelockRelationViolated,
    TokenLedger,
    UnauthorizedTransition,
    UnknownRecord,
    UtxoRecord,
    UtxoStatus,
    _SECTIONS,
    _TRANSITIONS,
    check_timelocks,
    timelock_relation_holds,
)

OWNER = "acct:reg-owner"


def make_tweak() -> TweakData:
    dep = keypair_from_seed(b"reg-dep")
    to = keypair_from_seed(b"reg-to")
    ao = keypair_from_seed(b"reg-ao")
    return TweakData(
        dep_pk=dep.public,
        to_pk=to.public,
        ao_pks=(ao.public,),
        t1=4,
        t2=6,
        destination_chain_address=OWNER.encode(),
        return_address=key_address_id(dep.public).encode(),
    )


def make_registry(t1=4, t2=6, t3=30, spb=2) -> Registry:
    to = keypair_from_seed(b"reg-to")
    reg = Registry(t1, t2, t3, spb, to.public)
    reg._tweak = make_tweak()
    reg._digest = reg.store_tweak_data(reg._tweak)
    return reg


def make_record(reg: Registry, outpoint: str, amount: int, owner=OWNER) -> UtxoRecord:
    return UtxoRecord(
        outpoint=outpoint,
        owner=owner,
        amount=amount,
        status=UtxoStatus.REGISTERED,
        tweak_digest=reg._digest,
        psbts={slot: "{}" for slot in REQUIRED_PSBT_SLOTS},
    )


def add_active(reg: Registry, outpoint: str, amount: int, owner=OWNER) -> None:
    reg.register_deposit(make_record(reg, outpoint, amount, owner), caller="to")
    reg.activate_on_mint(outpoint, caller="to")


# -- lifecycle ----------------------------------------------------------------


def test_register_activate_mints():
    reg = make_registry()
    add_active(reg, "aa:0", 500)
    assert reg.get_record("aa:0").status is UtxoStatus.ACTIVE
    assert reg.ledger.balance(OWNER) == 500
    assert reg.ledger.outstanding() == 500


def test_register_guards():
    reg = make_registry()
    rec = make_record(reg, "aa:0", 500)
    reg.register_deposit(rec, caller="to")
    with pytest.raises(DuplicateOutpoint):
        reg.register_deposit(make_record(reg, "aa:0", 500), caller="to")
    bad = make_record(reg, "bb:0", 500)
    del bad.psbts["unbond_resolve"]
    with pytest.raises(MissingPsbt):
        reg.register_deposit(bad, caller="to")
    stranger = make_record(reg, "cc:0", 500)
    stranger.tweak_digest = "00" * 32
    with pytest.raises(UnknownRecord):
        reg.register_deposit(stranger, caller="to")
    active = make_record(reg, "dd:0", 500)
    active.status = UtxoStatus.ACTIVE
    with pytest.raises(UnauthorizedTransition):
        reg.register_deposit(active, caller="to")
    with pytest.raises(NotTO):
        reg.register_deposit(make_record(reg, "ee:0", 500), caller=OWNER)
    assert "ee:0" not in reg.records


def test_activation_requires_operator():
    reg = make_registry()
    reg.register_deposit(make_record(reg, "aa:0", 500), caller="to")
    with pytest.raises(NotTO):
        reg.activate_on_mint("aa:0", caller=OWNER)
    reg.activate_on_mint("aa:0", caller="to")
    with pytest.raises(UnauthorizedTransition):
        reg.activate_on_mint("aa:0", caller="to")


def test_burn_for_exit():
    reg = make_registry()
    add_active(reg, "aa:0", 500)
    with pytest.raises(UnauthorizedTransition):
        reg.burn_deposit("aa:0", caller="someone-else")
    reg.burn_deposit("aa:0", caller=OWNER)
    assert reg.get_record("aa:0").status is UtxoStatus.WITHDRAWN
    assert reg.ledger.balance(OWNER) == 0
    assert reg.ledger.outstanding() == 0
    with pytest.raises(UnauthorizedTransition):
        reg.burn_deposit("aa:0", caller=OWNER)


def test_reject_before_activation():
    reg = make_registry()
    reg.register_deposit(make_record(reg, "aa:0", 500), caller="to")
    with pytest.raises(UnauthorizedTransition):
        reg.reject_deposit("aa:0", caller="to")
    reg.reject_deposit("aa:0", caller=OWNER)
    assert reg.get_record("aa:0").status is UtxoStatus.REJECTED


STRANGER = "acct:stranger"


def registry_with(status: UtxoStatus) -> Registry:
    """A registry holding the one record "aa:0" (500 tokens), brought to
    ``status`` through the public entry points."""
    reg = make_registry()
    reg.register_deposit(make_record(reg, "aa:0", 500), caller="to")
    if status is UtxoStatus.REJECTED:
        reg.reject_deposit("aa:0", caller=OWNER)
    elif status is not UtxoStatus.REGISTERED:
        reg.activate_on_mint("aa:0", caller="to")
    if status is UtxoStatus.WITHDRAWN:
        reg.burn_deposit("aa:0", caller=OWNER)
    elif status is UtxoStatus.SPENT_ON_REBALANCE:
        reg.ledger.transfer(OWNER, "thief", 500)
        reg.mark_rebalance(OWNER, 500, caller="to")
    assert reg.get_record("aa:0").status is status
    return reg


# the public way into each status, if there is one; rebalancing claims
# the whole observed imbalance (at least 1)
ENTRY_POINTS = {
    UtxoStatus.REGISTERED: lambda reg, c: reg.register_deposit(make_record(reg, "aa:0", 500), c),
    UtxoStatus.ACTIVE: lambda reg, c: reg.activate_on_mint("aa:0", c),
    UtxoStatus.REJECTED: lambda reg, c: reg.reject_deposit("aa:0", c),
    UtxoStatus.WITHDRAWN: lambda reg, c: reg.burn_deposit("aa:0", c),
    UtxoStatus.SPENT_ON_REBALANCE: lambda reg, c: reg.mark_rebalance(
        OWNER, max(1, reg.detect_imbalance(OWNER)), c
    ),
}


def test_status_transition_table_is_closed():
    """Every (from, to, caller) driven through the public entry points:
    exactly the four table rows succeed, each with its ledger effect, and
    a refused move changes nothing."""
    succeeded = set()
    for source, target in itertools.product(UtxoStatus, repeat=2):
        for caller in ("to", OWNER, STRANGER):
            reg = registry_with(source)
            # a rebalance needs the owner's tokens out of the perimeter
            if target is UtxoStatus.SPENT_ON_REBALANCE and reg.ledger.balance(OWNER):
                reg.ledger.transfer(OWNER, "thief", reg.ledger.balance(OWNER))
            minted, burned = reg.ledger.total_minted, reg.ledger.total_burned
            before = reg.state_digest()
            try:
                ENTRY_POINTS[target](reg, caller)
            except RegistryError:
                assert reg.state_digest() == before, (source, target, caller)
                continue
            succeeded.add((source, target, caller))
            assert reg.get_record("aa:0").status is target
            assert reg.ledger.total_minted - minted == (500 if target is UtxoStatus.ACTIVE else 0)
            assert reg.ledger.total_burned - burned == (500 if target is UtxoStatus.WITHDRAWN else 0)
    assert succeeded == {
        (source, target, "to" if rule == "to" else OWNER)
        for (source, target), rule in _TRANSITIONS.items()
    }


# -- token ledger -------------------------------------------------------------


def test_ledger_rules():
    led = TokenLedger()
    led.mint("a", 100)
    led.transfer("a", "b", 40)
    assert led.balance("a") == 60 and led.balance("b") == 40
    assert led.outstanding() == 100
    led.burn("b", 40)
    assert led.outstanding() == 60
    with pytest.raises(LedgerError):
        led.transfer("a", "b", 61)
    with pytest.raises(LedgerError):
        led.burn("a", 61)
    with pytest.raises(LedgerError):
        led.mint("a", -5)
    with pytest.raises(LedgerError):
        led.transfer("a", "b", 0)


# -- imbalance detection ------------------------------------------------------


def test_imbalance_counts_perimeter_and_adapters():
    reg = make_registry()
    add_active(reg, "aa:0", 1_000)
    assert reg.detect_imbalance(OWNER) == 0
    reg.ledger.transfer(OWNER, "thief", 300)
    assert reg.detect_imbalance(OWNER) == 300

    reg.adapter_admin("add", "pool", caller="to")
    reg.adapters["pool"].balances[OWNER] = 300
    reg.ledger.burn("thief", 300)  # tokens reappear inside the adapter
    assert reg.detect_imbalance(OWNER) == 0

    # removal takes effect only after the governance delay
    reg.adapter_admin("remove", "pool", caller="to")
    assert reg.detect_imbalance(OWNER) == 0
    reg.current_slot += reg.t3
    assert reg.detect_imbalance(OWNER) == 300


def test_adapter_admin_guards():
    reg = make_registry()
    with pytest.raises(NotTO):
        reg.adapter_admin("add", "pool", caller=OWNER)
    reg.adapter_admin("add", "pool", caller="to")
    with pytest.raises(RegistryError):
        reg.adapter_admin("add", "pool", caller="to")
    with pytest.raises(RegistryError):
        reg.adapter_admin("drop", "pool", caller="to")
    with pytest.raises(RegistryError):
        reg.adapter_admin("remove", "ghost", caller="to")


# -- rebalance selection ------------------------------------------------------


def oracle_selection(values: list[int], delta: int) -> int:
    """Independent answer: the number of records the shortest covering
    prefix takes, via cumulative sums."""
    sums = list(itertools.accumulate(values))
    k = bisect_left(sums, delta)
    return min(k + 1, len(values))


def selection_matches(values, delta) -> bool:
    reg = make_registry()
    for i, v in enumerate(values):
        add_active(reg, f"m{i:02d}:0", v)
    records = reg.active_records(OWNER)
    selected = reg.select_for_rebalance(OWNER, delta)
    k = oracle_selection(list(values), delta)
    return selected == records[:k]


def test_selection_exhaustive_small():
    for size in range(1, 4):
        for values in itertools.combinations_with_replacement(range(1, 9), size):
            for delta in range(1, sum(values) + 1):
                assert selection_matches(values, delta), (values, delta)


def test_selection_randomized_orderings():
    rng = random.Random(12)
    for _ in range(80):
        size = rng.randrange(1, 7)
        values = [rng.randrange(1, 21) for _ in range(size)]
        delta = rng.randrange(1, sum(values) + 1)
        assert selection_matches(values, delta), (values, delta)


def test_owner_permutation_changes_selection():
    reg = make_registry()
    for i, v in enumerate([10, 2, 3]):
        add_active(reg, f"p{i}:0", v)
    assert [r.amount for r in reg.select_for_rebalance(OWNER, 4)] == [10]
    reg.set_rebalance_order(OWNER, [1, 2, 0], caller=OWNER)
    assert [r.amount for r in reg.select_for_rebalance(OWNER, 4)] == [2, 3]
    with pytest.raises(NotAPermutation):
        reg.set_rebalance_order(OWNER, [0, 0, 1], caller=OWNER)
    with pytest.raises(UnauthorizedTransition):
        reg.set_rebalance_order(OWNER, [0, 1, 2], caller="to")


def test_stale_permutation_falls_back_to_registration_order():
    reg = make_registry()
    for i, v in enumerate([5, 6]):
        add_active(reg, f"s{i}:0", v)
    reg.set_rebalance_order(OWNER, [1, 0], caller=OWNER)
    add_active(reg, "s2:0", 7)
    assert [r.amount for r in reg.active_records(OWNER)] == [5, 6, 7]


def test_mark_rebalance_records_over_seizure():
    reg = make_registry()
    for i, v in enumerate([4, 9, 2]):
        add_active(reg, f"r{i}:0", v)
    reg.ledger.transfer(OWNER, "thief", 6)
    with pytest.raises(NotTO):
        reg.mark_rebalance(OWNER, 6, caller=OWNER)
    with pytest.raises(NoImbalance):
        reg.mark_rebalance(OWNER, 7, caller="to")  # claims more than observed
    event = reg.mark_rebalance(OWNER, 6, caller="to")
    assert [a for _, a in event.selected] == [4, 9]
    assert event.over_seizure == 7
    assert reg.claimable[OWNER] == 7
    for outpoint, _ in event.selected:
        assert reg.get_record(outpoint).status is UtxoStatus.SPENT_ON_REBALANCE
    with pytest.raises(NoImbalance):
        reg.mark_rebalance(OWNER, 0, caller="to")


def test_claim_payment_bookkeeping():
    reg = make_registry()
    add_active(reg, "c0:0", 10)
    reg.ledger.transfer(OWNER, "thief", 4)
    reg.mark_rebalance(OWNER, 4, caller="to")
    assert reg.claimable[OWNER] == 6
    with pytest.raises(RegistryError):
        reg.record_claim_paid(OWNER, 7, caller="to")
    for caller in (OWNER, STRANGER):
        with pytest.raises(NotTO):
            reg.record_claim_paid(OWNER, 6, caller=caller)
    assert reg.claimable[OWNER] == 6 and OWNER not in reg.claim_paid
    reg.record_claim_paid(OWNER, 6, caller="to")
    assert reg.claimable[OWNER] == 0
    assert reg.claim_paid[OWNER] == 6
    with pytest.raises(RegistryError):
        reg.record_claim_paid(OWNER, 1, caller="to")


# -- versions and governance --------------------------------------------------


def test_version_expiry_requires_operator_signature():
    reg = make_registry()
    to = keypair_from_seed(b"reg-to")
    outsider = keypair_from_seed(b"reg-outsider")
    pcr0 = "ab" * 32
    payload = Registry.version_payload(pcr0, 900)
    with pytest.raises(SignatureInvalid):
        reg.set_version_expiry(pcr0, 900, sign_digest(outsider, payload))
    assert reg.get_version_expiry(pcr0) is None
    reg.set_version_expiry(pcr0, 900, sign_digest(to, payload))
    assert reg.get_version_expiry(pcr0) == 900


def test_upgrades_take_effect_after_governance_delay():
    reg = make_registry()
    with pytest.raises(TimelockRelationViolated):
        reg.schedule_upgrade({"t3": 5}, caller="to")
    with pytest.raises(NotTO):
        reg.schedule_upgrade({"t1": 5}, caller=OWNER)
    effective = reg.schedule_upgrade({"t1": 5}, caller="to")
    assert effective == reg.current_slot + reg.t3
    reg.current_slot = effective - 1
    reg.apply_due_upgrades()
    assert reg.t1 == 4
    reg.current_slot = effective
    reg.apply_due_upgrades()
    assert reg.t1 == 5
    assert reg.pending_upgrades == []


def test_upgrade_checked_against_the_queued_parameters():
    to = keypair_from_seed(b"reg-to")
    reg = Registry(6, 10, 900, 50, to.public)
    reg.schedule_upgrade({"t3": 850}, caller="to")
    queued = list(reg.pending_upgrades)
    # 7 + 10 blocks of 50 slots is 850, which the queued t3 does not exceed
    with pytest.raises(TimelockRelationViolated):
        reg.schedule_upgrade({"t1": 7}, caller="to")
    assert reg.pending_upgrades == queued
    # and a change valid only after a queued one is accepted
    reg.schedule_upgrade({"t3": 2000}, caller="to")
    reg.schedule_upgrade({"t1": 20}, caller="to")
    reg.current_slot = 900
    reg.apply_due_upgrades()
    assert (reg.t1, reg.t2, reg.t3) == (20, 10, 2000)


def test_upgrades_apply_in_effective_order():
    """A later-scheduled change can take effect first once t3 shrinks; it
    applies first however far one advance moves the clock."""

    def queue() -> Registry:
        reg = Registry(4, 6, 2000, 50, keypair_from_seed(b"reg-to").public)
        reg.schedule_upgrade({"t3": 900}, caller="to")  # effective at 2000
        reg.current_slot = 1000
        assert reg.schedule_upgrade({"t1": 5}, caller="to") == 3000
        reg.current_slot = 2000
        reg.apply_due_upgrades()
        assert reg.schedule_upgrade({"t1": 7}, caller="to") == 2900
        return reg

    stepped, jumped = queue(), queue()
    for slot in (2900, 3000):
        stepped.current_slot = slot
        stepped.apply_due_upgrades()
    jumped.current_slot = 3000
    jumped.apply_due_upgrades()
    assert stepped.t1 == jumped.t1 == 5
    assert stepped.pending_upgrades == jumped.pending_upgrades == []


def test_timelock_relation_boundary():
    assert not timelock_relation_holds(4, 6, 20, 2)
    assert timelock_relation_holds(4, 6, 21, 2)
    assert timelock_relation_holds(4, 6, 11, 1)
    assert not timelock_relation_holds(4, 6, 10, 1)
    check_timelocks(4, 6, 21, 2)
    for params in [(4, 6, 20, 2), (0, 6, 100, 2), (4, 6, 21, 0)]:
        with pytest.raises(TimelockRelationViolated):
            check_timelocks(*params)


# -- snapshots ----------------------------------------------------------------


def test_snapshot_round_trip():
    reg = make_registry()
    for i, v in enumerate([4, 9, 2]):
        add_active(reg, f"r{i}:0", v)
    reg.ledger.transfer(OWNER, "thief", 6)
    reg.mark_rebalance(OWNER, 6, caller="to")
    reg.set_rebalance_order(OWNER, [2, 0, 1], caller=OWNER)
    reg.adapter_admin("add", "pool", caller="to")
    pcr0 = "ab" * 32
    payload = Registry.version_payload(pcr0, 900)
    reg.set_version_expiry(pcr0, 900, sign_digest(keypair_from_seed(b"reg-to"), payload))
    reg.schedule_upgrade({"t3": 40}, caller="to")
    reg.current_slot = 17
    snapshot = reg.export_snapshot()
    clone = Registry.import_snapshot(snapshot)
    assert clone.state_digest() == reg.state_digest()
    # every section the table names comes back equal, type for type (a
    # tuple is never equal to a list), and nothing is exported that is
    # not imported
    for name in _SECTIONS:
        assert getattr(clone, name) == getattr(reg, name), name
    assert set(json.loads(snapshot)) == {
        *_SECTIONS, "params", "to_pubkey", "current_slot", "collaborative_pending"
    }
    assert list(clone.records) == list(reg.records)
    assert clone.get_record("r1:0").status is UtxoStatus.SPENT_ON_REBALANCE
    assert clone.claimable[OWNER] == 7
    assert clone.ledger.balance("thief") == 6
    assert clone.current_slot == 17
    # a retired section the canonical text keeps, empty, for its digests
    assert '"collaborative_pending":{}' in snapshot
    assert clone.export_snapshot() == snapshot
    # digest is order-insensitive on insertion but sensitive to content
    clone.ledger.mint(OWNER, 1)
    assert clone.state_digest() != reg.state_digest()


# -- status machine property ----------------------------------------------------

# The example count comes from the Hypothesis profile (tests/conftest.py).
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)

OWNERS = (OWNER, "acct:reg-other")
ACCOUNTS = (*OWNERS, "acct:pool")
# half the time None: the caller the table names for the move
CALLERS = st.one_of(st.none(), st.sampled_from(("to", *OWNERS, STRANGER)))


def nth_outpoint(reg: Registry, i: int, status: UtxoStatus | None) -> str:
    """The ``i``-th record's outpoint (counted round) among the records
    in ``status``, or among all records when ``status`` is None."""
    records = [k for k, r in reg.records.items() if status in (None, r.status)]
    if not records:
        raise UnknownRecord("no such record yet")
    return records[i % len(records)]


def move(entry_point: str, source: UtxoStatus, by: str):
    """An operation calling ``entry_point`` on a record taken from the
    records in ``source``, or from all records; ``by`` ("to" or "owner")
    is the caller the table names for it."""

    def run(reg: Registry, i: int, anywhere: bool, caller: str | None) -> str:
        outpoint = nth_outpoint(reg, i, None if anywhere else source)
        if caller is None:
            caller = "to" if by == "to" else reg.records[outpoint].owner
        getattr(reg, entry_point)(outpoint, caller)
        return caller

    return (run, st.integers(0, 7), st.booleans(), CALLERS)


def transfer(reg: Registry, i: int, dst: str, amount: int) -> None:
    """The ``i``-th account holding tokens (counted round) sends up to
    ``amount`` of them to ``dst``."""
    funded = sorted(a for a, balance in reg.ledger.balances.items() if balance)
    if not funded:
        raise LedgerError("no account holds tokens yet")
    src = funded[i % len(funded)]
    reg.ledger.transfer(src, dst, min(amount, reg.ledger.balance(src)))


def rebalance(reg: Registry, owner: str, delta: int, caller: str | None) -> str:
    """Claim ``delta``, cut to the imbalance the registry sees (at least 1)."""
    caller = "to" if caller is None else caller
    reg.mark_rebalance(owner, max(1, min(delta, reg.detect_imbalance(owner))), caller)
    return caller


OPERATIONS = {
    "register": (
        lambda reg, i, owner, amount: reg.register_deposit(
            make_record(reg, f"{i:02x}:0", amount, owner), caller="to"
        ),
        st.integers(0, 7),
        st.sampled_from(OWNERS),
        st.integers(1, 900),
    ),
    "activate": move("activate_on_mint", UtxoStatus.REGISTERED, by="to"),
    "reject": move("reject_deposit", UtxoStatus.REGISTERED, by="owner"),
    "burn": move("burn_deposit", UtxoStatus.ACTIVE, by="owner"),
    "mark_rebalance": (rebalance, st.sampled_from(OWNERS), st.integers(1, 900), CALLERS),
    "transfer": (transfer, st.integers(0, 2), st.sampled_from(ACCOUNTS), st.integers(1, 900)),
}

STEPS = st.lists(
    st.one_of([st.tuples(st.just(name), *args) for name, (_, *args) in OPERATIONS.items()]),
    min_size=12,
    max_size=60,
)


@PROPERTY_SETTINGS
@given(steps=STEPS)
def test_status_machine_keeps_supply_with_its_moves(steps):
    """Random status moves and transfers by random callers: only
    registration adds a record and none is ever removed, every status
    change is a table row made by the caller the row names, a refused
    operation changes nothing, supply follows the moves, and the snapshot
    round-trips byte for byte into a view that keeps registration order."""
    reg = make_registry()
    reached_active = withdrawn = 0
    for name, *args in steps:
        before = {k: r.status for k, r in reg.records.items()}
        snapshot = reg.export_snapshot()
        try:
            caller = OPERATIONS[name][0](reg, *args)
        except RegistryError:
            assert reg.export_snapshot() == snapshot, name
            continue
        assert before.keys() <= reg.records.keys(), name
        assert name == "register" or before.keys() == reg.records.keys(), name
        for outpoint, record in reg.records.items():
            old = before.get(outpoint, UtxoStatus.REGISTERED)
            if record.status is old:
                continue
            rule = _TRANSITIONS.get((old, record.status))
            assert rule is not None, (name, old, record.status)
            assert caller == ("to" if rule == "to" else record.owner), (name, caller)
            if record.status is UtxoStatus.ACTIVE:
                reached_active += record.amount
            elif record.status is UtxoStatus.WITHDRAWN:
                withdrawn += record.amount
        ledger = reg.ledger
        assert ledger.total_minted == reached_active
        assert ledger.total_burned == withdrawn
        assert sum(ledger.balances.values()) == ledger.total_minted - ledger.total_burned
    text = reg.export_snapshot()
    view = Registry.import_snapshot(text)
    assert view.export_snapshot() == text
    # ``records`` is in registration order, live and imported alike, so
    # both seize an owner's deposits in the same order
    for owner in OWNERS:
        for r in (reg, view):
            positions = [rec.rebalance_position for rec in r.records.values() if rec.owner == owner]
            assert positions == list(range(len(positions))), owner
        seized = [[rec.outpoint for rec in r.active_records(owner)] for r in (reg, view)]
        assert seized[0] == seized[1], owner
