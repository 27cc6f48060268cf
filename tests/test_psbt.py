"""Pre-signed template construction, the setup ceremony, fee tooling,
and the two signature-binding properties the templates rely on:
ANYONECANPAY inputs can be added without breaking signatures, and any
output change breaks every prior signature."""

import dataclasses
import json
import pathlib
import random

import pytest

from bsa_sim.actors import pay
from bsa_sim.attestation import EnclaveImage, MockAttestationAuthority
from bsa_sim.chain import (
    BadSignature,
    BtcChain,
    Outpoint,
    SighashFlag,
    StepSchedule,
    TxOutput,
    verify_spend,
    weight,
)
from bsa_sim import psbt as psbt_module
from bsa_sim.harness import MATRIX_DIR, run_scenario
from bsa_sim.keys import (
    SAR_ROWS,
    TO_ROWS,
    TRANSITION_SPECS,
    Keypair,
    Transition,
    TweakData,
    key_address_id,
    keypair_from_seed,
    sign_digest,
)
from bsa_sim.psbt import (
    ANCHOR_VALUE,
    BASE_FEE_RATE,
    AoIdentity,
    FlagViolation,
    InsufficientFunds,
    MissingCounterpartySig,
    NotASigner,
    ProtocolInstance,
    PsbtError,
    PsbtTemplate,
    VerificationFailed,
    add_fee_input,
    build_deposit_psbt_set,
    build_psbt,
    finalize_to_tx,
    required_child_fee,
    run_setup_ceremony,
    sign_psbt,
    verify_partial_sigs,
    verify_psbt_against_instance,
)
from bsa_sim.registry import (
    Registry,
    TimelockRelationViolated,
    UtxoStatus,
    encode,
    from_fields,
)
from bsa_sim.scenario import load_scenario

IMAGE = EnclaveImage(b"arbiter-v1", b"standard", b"oracle-vendor")


def op(outpoint_str: str) -> Outpoint:
    txid, index = outpoint_str.split(":")
    return Outpoint(txid, int(index))


class World:
    def __init__(self, amounts=(10_000,), n_oracles=2, t1=4, t2=6, t3=30, base_rate=1):
        self.chain = BtcChain(StepSchedule(base_rate))
        self.dep = keypair_from_seed(b"unit-dep")
        self.to = keypair_from_seed(b"unit-to")
        self.oracles = [
            keypair_from_seed(f"unit-ao-{i}".encode()) for i in range(n_oracles)
        ]
        self.registry = Registry(t1, t2, t3, 1, self.to.public)
        self.authority = MockAttestationAuthority()
        self.identities = [
            AoIdentity(
                kp.public,
                self.authority.issue(IMAGE, kp.public_hex, 0, "00" * 32, b""),
            )
            for kp in self.oracles
        ]
        dep_addr = self.chain.ensure_key_address(self.dep.public)
        self.sources = [
            (self.chain.seed_utxo(dep_addr, amount + 50), amount) for amount in amounts
        ]

    def ceremony(self, **kw):
        self.instance = run_setup_ceremony(
            self.dep,
            self.to,
            self.identities,
            self.sources,
            self.chain,
            self.registry,
            self.authority,
            owner_account="acct:unit",
            expected_pcr0=IMAGE.pcr0,
            **kw,
        )
        return self.instance


@pytest.fixture
def world():
    w = World()
    w.ceremony()
    return w


# -- transition catalog -------------------------------------------------------


def test_transition_catalog():
    rows = {
        t.value: (s.source, s.dest, s.path, s.creator, s.stored_on, s.executor, s.fee_mode)
        for t, s in TRANSITION_SPECS.items()
    }
    assert rows == {
        "unbond_request": ("VA", "UTA", "dep_to", "to", "sar", "dep", "anchor"),
        "unbond_finalize": ("UTA", "dep_return", "dep_delay", None, None, "dep", "self"),
        "unbond_challenge": ("UTA", "UCA", "dep_to", "dep", "to", "to", "anchor"),
        "unbond_resolve": ("UCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"),
        "unbond_resolve_expired": ("UCA", "to_key", "to_delay", None, None, "to", "self"),
        "rebalance_request": ("VA", "RCA", "dep_to", "dep", "to", "to", "anchor"),
        "rebalance_resolve": ("RCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"),
        "rebalance_resolve_expired": ("RCA", "to_key", "to_delay", None, None, "to", "self"),
        "cooperative_unbond": ("VA", "dep_return", "dep_to", "to", None, "dep", "anchor"),
    }


def test_instance_public_half_derives_from_tweak_data(world):
    inst = world.instance
    view = ProtocolInstance(inst.tweak_data)
    assert [a.address_id for a in view.addresses.all()] == [
        a.address_id for a in inst.addresses.all()
    ]
    assert view.owner == inst.owner == "acct:unit"
    assert view.address_ids["dep_return"] == inst.address_ids["dep_return"] == key_address_id(world.dep.public)
    assert view.address_ids["to_key"] == inst.address_ids["to_key"] == key_address_id(world.to.public)
    assert (view.funding_txid, view.deposits, view.to_psbts) == ("", {}, {})


def test_build_psbt_shapes(world):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    outpoint = op(outpoint_str)

    req = build_psbt(Transition.UNBOND_REQUEST, inst, (outpoint, value))
    assert req.flag is SighashFlag.ALL
    assert req.anchor_index == 1
    assert req.outputs[0].address_id == inst.addresses.uta.address_id
    assert req.outputs[1].value == ANCHOR_VALUE
    assert req.outputs[1].address_id == inst.address_ids["dep_return"]  # executor dep
    assert req.fee == BASE_FEE_RATE * 3

    resolve = build_psbt(
        Transition.REBALANCE_RESOLVE,
        inst,
        (Outpoint("ab" * 32, 0), 5_000),
    )
    assert resolve.flag is SighashFlag.ALL_ANYONECANPAY
    assert resolve.anchor_index is None
    assert resolve.outputs[0].address_id == inst.address_ids["dep_return"]
    assert resolve.fee == BASE_FEE_RATE * 2

    with pytest.raises(InsufficientFunds):
        build_psbt(Transition.UNBOND_REQUEST, inst, (outpoint, 3))


def test_template_text_round_trip(world):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    stored = world.registry.get_stored_psbt(outpoint_str, "unbond_resolve")
    psbt = PsbtTemplate.from_text(stored)
    assert psbt.to_text() == stored
    assert psbt.transition is Transition.UNBOND_RESOLVE
    assert verify_partial_sigs(psbt, inst)


# -- the stored-text codec ----------------------------------------------------

GRADED_FILES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn")
) + sorted(MATRIX_DIR.glob("*.scn"))


@pytest.mark.parametrize("path", GRADED_FILES, ids=lambda path: path.stem)
def test_every_stored_text_of_a_graded_run_reads_back_as_written(path):
    """Every stored row, every operator row and the instance parameters
    in the registry and in every view of a graded run: the text reads
    back to the same value, and that value writes the same text."""
    world = run_scenario(load_scenario(str(path))).world
    stored = [text for r in world.registry.records.values() for text in r.psbts.values()]
    held = [
        row.to_text()
        for instance in world.instances
        for rows in instance.to_psbts.values()
        for row in rows.values()
    ]
    assert stored and held
    for text in stored + held:
        row = PsbtTemplate.from_text(text)
        assert row.to_text() == text
        assert PsbtTemplate.from_text(row.to_text()) == row
    views = [world.registry] + [cp.view for cp in world.dest.snapshots.values()]
    views += [actor.oracle.view for actor in world.oracles if actor.oracle.view is not None]
    tweaks = [item for view in views for item in view.tweaks.items()]
    assert tweaks
    for digest, tweak in tweaks:
        text = encode(tweak)
        assert from_fields(TweakData, json.loads(text)) == tweak
        assert encode(from_fields(TweakData, json.loads(text))) == text
        assert tweak.digest_hex() == digest


def stored_fields(world) -> dict:
    outpoint_str = next(iter(world.instance.deposits))
    return json.loads(world.registry.get_stored_psbt(outpoint_str, "unbond_resolve"))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PsbtTemplate)])
def test_template_text_without_a_field_is_refused(world, name):
    fields = stored_fields(world)
    del fields[name]
    with pytest.raises(PsbtError):
        PsbtTemplate.from_text(json.dumps(fields))


def test_template_text_with_an_extra_field_is_refused(world):
    fields = stored_fields(world)
    fields["fee"] = 1
    with pytest.raises(PsbtError):
        PsbtTemplate.from_text(json.dumps(fields))


@pytest.mark.parametrize("text", ["not json", "[]", '"text"', "5", "null", "true"])
def test_text_that_is_no_json_object_is_no_template(text):
    with pytest.raises(PsbtError):
        PsbtTemplate.from_text(text)


# -- ceremony -----------------------------------------------------------------


def test_ceremony_funds_and_registers(world):
    inst = world.instance
    va = inst.addresses.va.address_id
    assert sum(u.value for u in world.chain.utxos_at(va)) == 10_000
    assert world.registry.ledger.balance("acct:unit") == 10_000
    for outpoint_str, value in inst.deposits.items():
        record = world.registry.get_record(outpoint_str)
        assert record.status is UtxoStatus.ACTIVE
        outpoint = op(outpoint_str)
        request = PsbtTemplate.from_text(
            world.registry.get_stored_psbt(outpoint_str, "unbond_request")
        )
        assert verify_psbt_against_instance(request, inst, outpoint, value)
        # the two resolve rows chain off unbroadcast parents: rebuild the
        # whole set and compare everything except signatures
        rebuilt = build_deposit_psbt_set(inst, outpoint, value, None, None)
        for name, transition in (
            ("unbond_resolve", Transition.UNBOND_RESOLVE),
            ("rebalance_resolve", Transition.REBALANCE_RESOLVE),
        ):
            stored = PsbtTemplate.from_text(world.registry.get_stored_psbt(outpoint_str, name))
            expect = rebuilt[transition]
            assert stored.skeleton().txid == expect.skeleton().txid
            assert verify_partial_sigs(stored, inst)
        held = inst.to_psbts[outpoint_str]
        assert set(held) == {Transition.UNBOND_CHALLENGE, Transition.REBALANCE_REQUEST}


def test_ceremony_aborts_on_tampered_registry_row():
    w = World()

    def corrupt(outpoint, stored):
        stored = dict(stored)
        stored["unbond_resolve"] = stored["rebalance_resolve"]
        return stored

    with pytest.raises(VerificationFailed):
        w.ceremony(sar_tamper=corrupt)
    # abort happened before funding: nothing sits at any vault address
    assert all(u.value == 10_050 for u in w.chain.utxo_set.values())
    assert w.registry.ledger.balance("acct:unit") == 0


def test_ceremony_rejects_operator_row_signed_by_another_key(monkeypatch):
    w = World()
    stranger = keypair_from_seed(b"stranger")
    build = psbt_module.build_deposit_psbt_set
    row = TO_ROWS[0]

    def forged(instance, outpoint, value, dep_keypair, to_keypair):
        rows = build(instance, outpoint, value, dep_keypair, to_keypair)
        sigs = rows[row].partial_sigs
        sigs[dep_keypair.public_hex] = sign_digest(stranger, rows[row].sighash())
        return rows

    monkeypatch.setattr(psbt_module, "build_deposit_psbt_set", forged)
    with pytest.raises(VerificationFailed, match=f"bad depositor signature on {row.value}$"):
        w.ceremony()
    assert w.registry.records == {}


def _forge_flip_s(row, dep, stranger):
    sig = row.partial_sigs[dep.public_hex]
    row.partial_sigs[dep.public_hex] = sig[:64] + bytes([sig[64] ^ 1])


def _forge_drop(row, dep, stranger):
    row.partial_sigs.clear()


def _forge_stranger(row, dep, stranger):
    row.partial_sigs.clear()
    row.partial_sigs[stranger.public_hex] = sign_digest(stranger, row.sighash())


@pytest.mark.parametrize("forge", [_forge_flip_s, _forge_drop, _forge_stranger], ids=["forged", "dropped", "stranger"])
def test_ceremony_batch_failure_names_the_bad_row(monkeypatch, forge):
    # Step 2a checks every operator row in one batch; when that fails it
    # re-checks row by row, so the error still names the bad row and the
    # ceremony stops before anything is registered or funded.
    w = World(amounts=(10_000, 7_000, 3_000))
    stranger = keypair_from_seed(b"stranger")
    build = psbt_module.build_deposit_psbt_set
    row = TO_ROWS[1]

    def spoiled(instance, outpoint, value, dep_keypair, to_keypair):
        rows = build(instance, outpoint, value, dep_keypair, to_keypair)
        if outpoint.index == 2:  # the last deposit
            forge(rows[row], dep_keypair, stranger)
        return rows

    monkeypatch.setattr(psbt_module, "build_deposit_psbt_set", spoiled)
    with pytest.raises(VerificationFailed, match=f"^bad depositor signature on {row.value}$"):
        w.ceremony()
    assert w.registry.records == {}
    dep_addr = key_address_id(w.dep.public)
    assert {u.address_id for u in w.chain.utxo_set.values()} == {dep_addr}


def test_ceremony_rejects_forged_attestation():
    w = World()
    stranger = keypair_from_seed(b"stranger")
    w.identities[0] = AoIdentity(
        stranger.public,
        w.authority.issue(IMAGE, w.oracles[0].public_hex, 0, "00" * 32, b""),
    )
    with pytest.raises(VerificationFailed):
        w.ceremony()


def test_ceremony_rejects_oracle_under_another_image():
    w = World()
    other = EnclaveImage(b"arbiter-v2", b"standard", b"oracle-vendor")
    w.identities[0] = AoIdentity(
        w.oracles[0].public,
        w.authority.issue(other, w.oracles[0].public_hex, 0, "00" * 32, b""),
    )
    with pytest.raises(VerificationFailed, match="oracle image measurement mismatch"):
        w.ceremony()
    assert w.registry.records == {}


def test_ceremony_rejects_unattested_oracle():
    w = World()
    w.identities[0] = AoIdentity(w.oracles[0].public, None)
    with pytest.raises(VerificationFailed):
        w.ceremony()


def test_ceremony_requires_governance_delay_dominance():
    w = World()
    w.registry = Registry(4, 6, 11, 1, w.to.public)
    w.registry.t3 = 10  # t3 no longer exceeds (t1 + t2) * slots_per_block
    with pytest.raises(TimelockRelationViolated):
        w.ceremony()


def test_registry_constructor_enforces_timelock_relation():
    w = World()
    with pytest.raises(TimelockRelationViolated):
        Registry(4, 6, 10, 1, w.to.public)


# -- signing rules ------------------------------------------------------------


def test_sign_psbt_rejects_outsiders(world):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    outpoint = op(outpoint_str)
    psbt = build_psbt(Transition.UNBOND_REQUEST, inst, (outpoint, value))
    intruder = keypair_from_seed(b"intruder")
    with pytest.raises(NotASigner):
        sign_psbt(psbt, intruder, inst)
    # oracles are not signers of the request row either
    with pytest.raises(NotASigner):
        sign_psbt(psbt, world.oracles[0], inst)


def test_finalize_requires_counterparty_signature(world):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    outpoint = op(outpoint_str)
    bare = build_psbt(Transition.UNBOND_REQUEST, inst, (outpoint, value))
    with pytest.raises(MissingCounterpartySig):
        finalize_to_tx(bare, world.dep, inst)


def leaf_instance(n_oracles: int) -> tuple[ProtocolInstance, dict[str, Keypair]]:
    """An instance with ``n_oracles`` oracle keys, and every party's
    keypair by role ("dep", "to", "ao") and by public key."""
    dep, to = keypair_from_seed(b"leaf-dep"), keypair_from_seed(b"leaf-to")
    oracles = [keypair_from_seed(f"leaf-ao-{i}".encode()) for i in range(n_oracles)]
    tweak = TweakData(
        dep_pk=dep.public,
        to_pk=to.public,
        ao_pks=tuple(kp.public for kp in oracles),
        t1=4,
        t2=6,
        destination_chain_address=b"acct:leaf",
        return_address=key_address_id(dep.public).encode(),
    )
    parties = {"dep": dep, "to": to, "ao": oracles[-1]}
    parties.update((kp.public_hex, kp) for kp in [dep, to, *oracles])
    return ProtocolInstance(tweak), parties


def row_leaf_ids(transition: Transition, n_oracles: int) -> list[str]:
    path = TRANSITION_SPECS[transition].path
    if path == "dep_ao_*":
        return [f"dep_ao_{i}" for i in range(n_oracles)]
    return [path]


@pytest.mark.parametrize("n_oracles", range(1, 6))
@pytest.mark.parametrize("transition", list(Transition))
def test_allowed_signers_are_the_row_leaf_keys(transition, n_oracles):
    inst, parties = leaf_instance(n_oracles)
    spec = TRANSITION_SPECS[transition]
    dep, to = parties["dep"].public, parties["to"].public
    oracles = inst.tweak_data.ao_pks
    # the leaf layout written out again, independently of ``build_protocol_addresses``
    keys_of = {"dep_to": (dep, to), "dep_delay": (dep,), "to_delay": (to,)}
    keys_of.update((f"dep_ao_{i}", (dep, ao)) for i, ao in enumerate(oracles))
    leaves = inst.addresses.rows[transition]
    assert [leaf.path_id for leaf in leaves] == row_leaf_ids(transition, n_oracles)
    assert [leaf.policy.keys() for leaf in leaves] == [
        keys_of[path_id] for path_id in row_leaf_ids(transition, n_oracles)
    ]
    source = next(a for a in inst.addresses.all() if a.kind == spec.source)
    assert all(leaf in source.leaves for leaf in leaves)


@pytest.mark.parametrize("n_oracles", range(1, 6))
@pytest.mark.parametrize("transition", list(Transition))
def test_finalize_refuses_each_missing_leaf_key(transition, n_oracles):
    inst, parties = leaf_instance(n_oracles)
    spec = TRANSITION_SPECS[transition]
    executor = parties[spec.executor]
    # an oracle executes through its own leaf
    path_id = row_leaf_ids(transition, n_oracles)[-1]
    leaf = inst.addresses.rows[transition][-1]
    others = [pk.compressed().hex() for pk in leaf.policy.keys()]
    others.remove(executor.public_hex)
    spent = (Outpoint("ab" * 32, 0), 10_000)
    for missing in others:
        template = build_psbt(transition, inst, spent)
        for pub_hex in others:
            if pub_hex != missing:
                sign_psbt(template, parties[pub_hex], inst)
        before = dict(template.partial_sigs)
        with pytest.raises(MissingCounterpartySig):
            finalize_to_tx(template, executor, inst)
        assert template.partial_sigs == before
    template = build_psbt(transition, inst, spent)
    for pub_hex in others:
        sign_psbt(template, parties[pub_hex], inst)
    before = dict(template.partial_sigs)
    tx = finalize_to_tx(template, executor, inst)
    assert tx.inputs[0].path_id == path_id
    assert len(tx.inputs[0].witness) == len(others) + 1
    # the executor signs the transaction, not the template
    assert template.partial_sigs == before


RESOLVE_ROWS = [Transition.UNBOND_RESOLVE, Transition.REBALANCE_RESOLVE]


@pytest.mark.parametrize("transition", RESOLVE_ROWS, ids=lambda t: t.value)
def test_depositor_resolves_through_lowest_signed_oracle_leaf(transition):
    inst, parties = leaf_instance(3)
    dep = parties["dep"]
    oracles = [parties[pk.compressed().hex()] for pk in inst.tweak_data.ao_pks]
    template = build_psbt(transition, inst, (Outpoint("ab" * 32, 0), 10_000))
    sign_psbt(template, dep, inst)
    for oracle in (oracles[2], oracles[1]):
        sign_psbt(template, oracle, inst)
    tx = finalize_to_tx(template, dep, inst)
    assert tx.inputs[0].path_id == "dep_ao_1"
    assert tx.inputs[0].witness == [
        template.partial_sigs[dep.public_hex],
        template.partial_sigs[oracles[1].public_hex],
    ]


@pytest.mark.parametrize("transition", RESOLVE_ROWS, ids=lambda t: t.value)
def test_depositor_resolve_refusals_leave_signatures_unchanged(transition):
    inst, parties = leaf_instance(3)
    template = build_psbt(transition, inst, (Outpoint("ab" * 32, 0), 10_000))
    sign_psbt(template, parties["dep"], inst)
    before = dict(template.partial_sigs)
    with pytest.raises(MissingCounterpartySig):
        finalize_to_tx(template, parties["dep"], inst)
    assert template.partial_sigs == before
    with pytest.raises(NotASigner):
        finalize_to_tx(template, keypair_from_seed(b"intruder"), inst)
    assert template.partial_sigs == before


def test_rewritten_path_id_does_not_widen_the_signers():
    """The catalogue row, not the template's ``path_id``, names the leaves
    a row's signers come from."""
    inst, parties = leaf_instance(2)
    spent = (Outpoint("ab" * 32, 0), 10_000)
    resolve = build_psbt(Transition.UNBOND_RESOLVE, inst, spent)
    resolve.path_id = "to_delay"  # the operator's own leaf on the same address
    with pytest.raises(NotASigner):
        sign_psbt(resolve, parties["to"], inst)
    sign_psbt(resolve, parties["dep"], inst)
    with pytest.raises(NotASigner):
        finalize_to_tx(resolve, parties["to"], inst)
    request = build_psbt(Transition.UNBOND_REQUEST, inst, spent)
    request.path_id = "dep_delay"  # a leaf the depositor spends alone
    with pytest.raises(MissingCounterpartySig):
        finalize_to_tx(request, parties["dep"], inst)
    assert request.partial_sigs == {}


def test_psbt_steps_derive_no_addresses(monkeypatch):
    inst, parties = leaf_instance(2)

    def refuse(tweak_data):
        raise AssertionError("a PSBT step derived the instance addresses again")

    monkeypatch.setattr(psbt_module, "build_protocol_addresses", refuse)
    spent = (Outpoint("ab" * 32, 0), 10_000)
    template = build_psbt(Transition.UNBOND_RESOLVE, inst, spent)
    sign_psbt(template, parties["dep"], inst)
    sign_psbt(template, parties["ao"], inst)
    assert verify_partial_sigs(template, inst)
    assert verify_psbt_against_instance(template, inst, *spent)
    tx = finalize_to_tx(template, parties["ao"], inst)
    assert tx.inputs[0].path_id == "dep_ao_1"


def test_unbond_request_round_trip(world):
    inst = world.instance
    outpoint_str, _ = next(iter(inst.deposits.items()))
    stored = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    tx = finalize_to_tx(stored, world.dep, inst)
    world.chain.submit_tx(tx)
    assert tx.txid in world.chain.mine_block()
    uta = inst.addresses.uta.address_id
    assert sum(u.value for u in world.chain.utxos_at(uta)) == tx.outputs[0].value


# -- fee machinery ------------------------------------------------------------


def test_required_child_fee_formula():
    assert required_child_fee(0, 6, 4) == 10
    assert required_child_fee(3, 6, 4) == 7
    assert required_child_fee(11, 6, 4) == 0
    rng = random.Random(5)
    for _ in range(200):
        f0 = rng.randrange(0, 30)
        fr = rng.randrange(0, 30)
        ft = rng.randrange(0, 30)
        need = required_child_fee(f0, fr, ft)
        assert need >= 0
        assert f0 + need >= fr + ft or need == 0


def anchor_of(parent):
    """The ``(Outpoint, value)`` of a row's anchor output."""
    return Outpoint(parent.txid, parent.anchor_index), parent.outputs[parent.anchor_index].value


def test_cpfp_bump_confirms_underpaying_request(world):
    # raise the prevailing rate after the templates were pre-signed
    chain = world.chain
    chain.fee_schedule = StepSchedule(chain.fee_schedule.base, [(chain.height + 1, 4)])
    inst = world.instance
    outpoint_str, _ = next(iter(inst.deposits.items()))
    stored = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    parent = finalize_to_tx(stored, world.dep, inst)
    chain.submit_tx(parent)
    assert parent.txid not in chain.mine_block()  # 3 sat fee vs 12 required

    fee_utxo = chain.seed_utxo(inst.address_ids["dep_return"], 200)
    rate = chain.next_rate()
    target = required_child_fee(stored.fee, rate * parent.weight, rate * weight(2, 1))
    child = pay(chain, world.dep, [], target, spend=(anchor_of(parent),))
    assert [i.outpoint for i in child.inputs] == [anchor_of(parent)[0], fee_utxo.outpoint]
    mined = chain.mine_block()
    assert parent.txid in mined and child.txid in mined


def test_the_chain_refuses_a_child_that_spends_another_keys_anchor(world):
    inst = world.instance
    chain = world.chain
    outpoint_str, _ = next(iter(inst.deposits.items()))
    stored = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    parent = finalize_to_tx(stored, world.dep, inst)  # its anchor pays the depositor
    chain.submit_tx(parent)
    chain.seed_utxo(chain.ensure_key_address(world.to.public), 100)
    with pytest.raises(BadSignature):
        pay(chain, world.to, [], 5, spend=(anchor_of(parent),))
    assert list(chain.mempool) == [parent.txid]


def test_add_fee_input_preserves_acp_signatures(world):
    inst = world.instance
    chain = world.chain
    outpoint_str, _ = next(iter(inst.deposits.items()))
    request = inst.to_psbts[outpoint_str][Transition.REBALANCE_REQUEST]
    sign_psbt(request, world.to, inst)
    req_tx = finalize_to_tx(request, world.to, inst)
    chain.submit_tx(req_tx)
    chain.mine_block()

    resolve = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "rebalance_resolve")
    )
    tx = finalize_to_tx(resolve, world.oracles[0], inst)
    before = list(tx.inputs[0].witness)
    fee_utxo = chain.seed_utxo(key_address_id(world.dep.public), 40)
    bumped = add_fee_input(tx, fee_utxo, world.dep)
    assert bumped.inputs[0].witness == before
    assert bumped.sighash(0) == tx.sighash(0)
    assert verify_spend(bumped, chain)
    chain.submit_tx(bumped)
    assert bumped.txid in chain.mine_block()
    del req_tx


def test_add_fee_input_refuses_all_flag(world):
    inst = world.instance
    outpoint_str, _ = next(iter(inst.deposits.items()))
    stored = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    tx = finalize_to_tx(stored, world.dep, inst)
    fee_utxo = world.chain.seed_utxo(inst.address_ids["dep_return"], 40)
    with pytest.raises(FlagViolation):
        add_fee_input(tx, fee_utxo, world.dep)


def test_acp_fee_input_fuzz_preserves_signatures():
    rng = random.Random(99)
    w = World(amounts=(9_000, 5_000))
    w.ceremony()
    inst = w.instance
    deposits = list(inst.deposits.items())
    for trial in range(60):
        outpoint_str, value = deposits[rng.randrange(len(deposits))]
        name = rng.choice(["unbond_resolve", "rebalance_resolve"])
        resolve = PsbtTemplate.from_text(w.registry.get_stored_psbt(outpoint_str, name))
        executor = w.oracles[rng.randrange(len(w.oracles))]
        tx = finalize_to_tx(resolve, executor, inst)
        digest_before = tx.sighash(0)
        witness_before = list(tx.inputs[0].witness)
        fee_value = rng.randrange(1, 500)
        fee_utxo = w.chain.seed_utxo(key_address_id(w.dep.public), fee_value)
        bumped = add_fee_input(tx, fee_utxo, w.dep)
        assert bumped.sighash(0) == digest_before, trial
        assert bumped.inputs[0].witness == witness_before, trial
        # a second fee input stacks the same way
        fee2 = w.chain.seed_utxo(key_address_id(w.dep.public), fee_value + 1)
        again = add_fee_input(bumped, fee2, w.dep)
        assert again.inputs[0].witness == witness_before, trial
        assert again.inputs[1].witness == bumped.inputs[1].witness, trial


# -- covenant soundness -------------------------------------------------------


def mutate_one_output(psbt: PsbtTemplate, rng: random.Random, attacker_addr: str) -> PsbtTemplate:
    outputs = list(psbt.outputs)
    idx = rng.randrange(len(outputs))
    if rng.random() < 0.5:
        outputs[idx] = TxOutput(attacker_addr, outputs[idx].value)
    else:
        outputs[idx] = TxOutput(outputs[idx].address_id, outputs[idx].value + 1)
    return PsbtTemplate(
        transition=psbt.transition,
        outpoint=psbt.outpoint,
        input_value=psbt.input_value,
        path_id=psbt.path_id,
        flag=psbt.flag,
        outputs=outputs,
        anchor_index=psbt.anchor_index,
        creator=psbt.creator,
        intended_executor=psbt.intended_executor,
        partial_sigs=dict(psbt.partial_sigs),
    )


def test_output_mutation_invalidates_presignatures(world):
    rng = random.Random(4)
    inst = world.instance
    attacker = key_address_id(keypair_from_seed(b"thief").public)
    outpoint_str, value = next(iter(inst.deposits.items()))
    names = ["unbond_request", "unbond_resolve", "rebalance_resolve"]
    for trial in range(60):
        name = names[trial % len(names)]
        psbt = PsbtTemplate.from_text(world.registry.get_stored_psbt(outpoint_str, name))
        assert verify_partial_sigs(psbt, inst)
        mutated = mutate_one_output(psbt, rng, attacker)
        assert not verify_partial_sigs(mutated, inst), (trial, name)


def test_mutated_request_rejected_on_chain(world):
    inst = world.instance
    chain = world.chain
    outpoint_str, _ = next(iter(inst.deposits.items()))
    psbt = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    attacker = key_address_id(keypair_from_seed(b"thief").public)
    mutated = mutate_one_output(psbt, random.Random(1), attacker)
    tx = finalize_to_tx(mutated, world.dep, inst)
    with pytest.raises(BadSignature):
        chain.submit_tx(tx)


# -- the row table --------------------------------------------------------------


def test_row_sets_follow_the_catalog():
    assert SAR_ROWS == (
        Transition.UNBOND_REQUEST,
        Transition.UNBOND_RESOLVE,
        Transition.REBALANCE_RESOLVE,
    )
    assert TO_ROWS == (Transition.UNBOND_CHALLENGE, Transition.REBALANCE_REQUEST)


def test_deposit_set_has_one_presignature_per_row(world):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    outpoint = op(outpoint_str)
    per = build_deposit_psbt_set(inst, outpoint, value, world.dep, world.to)
    assert set(per) == {
        Transition.UNBOND_REQUEST,
        Transition.UNBOND_CHALLENGE,
        Transition.UNBOND_RESOLVE,
        Transition.REBALANCE_REQUEST,
        Transition.REBALANCE_RESOLVE,
    }
    keypairs = {"dep": world.dep, "to": world.to}
    for t, template in per.items():
        spec = TRANSITION_SPECS[t]
        assert list(template.partial_sigs) == [keypairs[spec.creator].public_hex], t
        if spec.source == "VA":
            assert (template.outpoint, template.input_value) == (outpoint, value), t
            continue
        # any other row spends output 0 of the row paying to its source
        parents = [
            p for p in per.values() if TRANSITION_SPECS[p.transition].dest == spec.source
        ]
        assert len(parents) == 1, t
        assert template.outpoint == Outpoint(parents[0].txid, 0), t
        assert template.input_value == parents[0].outputs[0].value, t


# one changed value for each field verify_psbt_against_instance compares
FIELD_CHANGES = {
    "transition": lambda p: Transition.COOPERATIVE_UNBOND,
    "outpoint": lambda p: Outpoint(p.outpoint.txid, p.outpoint.index + 1),
    "input_value": lambda p: p.input_value + 1,
    "path_id": lambda p: "dep_delay",
    "flag": lambda p: SighashFlag.ALL_ANYONECANPAY,
    "outputs": lambda p: [TxOutput(p.outputs[0].address_id, p.outputs[0].value - 1)]
    + p.outputs[1:],
    "anchor_index": lambda p: None,
    "creator": lambda p: "dep",
    "intended_executor": lambda p: "to",
}


def test_field_changes_cover_every_compared_field():
    fields = {f.name for f in dataclasses.fields(PsbtTemplate)}
    assert set(FIELD_CHANGES) == fields - {"partial_sigs"}


@pytest.mark.parametrize("name", sorted(FIELD_CHANGES))
def test_verify_against_instance_rejects_one_changed_field(world, name):
    inst = world.instance
    outpoint_str, value = next(iter(inst.deposits.items()))
    outpoint = op(outpoint_str)
    stored = PsbtTemplate.from_text(
        world.registry.get_stored_psbt(outpoint_str, "unbond_request")
    )
    assert verify_psbt_against_instance(stored, inst, outpoint, value)
    changed = dataclasses.replace(
        stored, partial_sigs={}, **{name: FIELD_CHANGES[name](stored)}
    )
    # re-signed, so only the field comparison can tell the two apart
    sign_psbt(changed, world.to, inst)
    assert verify_partial_sigs(changed, inst)
    assert not verify_psbt_against_instance(changed, inst, outpoint, value)
