"""Arbitration oracle: both verification pipelines checked gate by gate
against an independently written decision function, the status-based
signing rules, light-client resync boundaries, one judgment per body
and rows, key custody, and version governance gates."""

import copy
import gc
import hashlib
import types
from collections import Counter

import pytest
from test_destchain import whole_runs

from bsa_sim import arbitration
from bsa_sim.arbitration import (
    ArbitrationOracle,
    NotSynced,
    NotVerified,
    Rejection,
    StaleCheckpoint,
    VerifiedContext,
)
from bsa_sim.attestation import (
    EnclaveImage,
    KmsPolicyDenied,
    MockAttestationAuthority,
    MockKms,
)
from bsa_sim.chain import BtcChain, Outpoint, SighashFlag, SimTx, StepSchedule, TxInput, TxOutput
from bsa_sim.destchain import (
    DestChain,
    FinalizedCheckpoint,
    _Body,
    sign_checkpoint,
)
from bsa_sim.harness import run_scenario
from bsa_sim.keys import (
    Transition,
    build_protocol_addresses,
    key_address_id,
    keypair_from_seed,
    sign_digest,
    verify_signature,
)
from bsa_sim.psbt import (
    AoIdentity,
    finalize_to_tx,
    run_setup_ceremony,
    sign_psbt,
    verify_partial_sigs,
)
from bsa_sim.registry import Registry, UtxoStatus

IMAGE = EnclaveImage(b"arbiter-v1", b"standard", b"oracle-vendor")

ALL_STATUSES = (
    UtxoStatus.REGISTERED,
    UtxoStatus.ACTIVE,
    UtxoStatus.WITHDRAWN,
    UtxoStatus.REJECTED,
    UtxoStatus.SPENT_ON_REBALANCE,
)


class ArbWorld:
    def __init__(self, n_oracles=2, t1=4, t2=6, t3=40, wsp=64, interval=4, version_expiry=4_000):
        self.chain = BtcChain(StepSchedule(1))
        self.dep = keypair_from_seed(b"arb-dep")
        self.to = keypair_from_seed(b"arb-to")
        self.registry = Registry(t1, t2, t3, 1, self.to.public)
        self.dest = DestChain(self.registry, finality_interval=interval, wsp=wsp)
        self.authority = MockAttestationAuthority()
        self.kms = MockKms()
        self.registry.set_version_expiry(
            IMAGE.pcr0,
            version_expiry,
            sign_digest(self.to, Registry.version_payload(IMAGE.pcr0, version_expiry)),
        )
        self.oracles = []
        for i in range(n_oracles):
            oracle = ArbitrationOracle(
                f"ao-{i}", IMAGE, self.authority, self.kms,
                seed=f"arb-ao-{i}".encode(),
            )
            oracle.key_init()
            self.oracles.append(oracle)
        identities = [
            AoIdentity(o.keypair.public, o.produce_attestation()) for o in self.oracles
        ]
        dep_addr = self.chain.ensure_key_address(self.dep.public)
        sources = [(self.chain.seed_utxo(dep_addr, 10_050), 10_000)]
        self.instance = run_setup_ceremony(
            self.dep, self.to, identities, sources,
            self.chain, self.registry, self.authority, owner_account="acct:arb",
            expected_pcr0=IMAGE.pcr0,
        )
        self.outpoint = next(iter(self.instance.deposits))
        self.value = self.instance.deposits[self.outpoint]
        self.resync()

    def resync(self):
        self.dest.advance(self.dest.finality_interval)
        bootstrap = sign_checkpoint(self.dest.latest_finalized(), self.to)
        for oracle in self.oracles:
            if oracle.checkpoint is None:
                oracle.sync(self.dest, bootstrap)
            else:
                oracle.sync(self.dest)

    @property
    def oracle(self) -> ArbitrationOracle:
        return self.oracles[0]

    def set_status(self, status: UtxoStatus):
        self.registry.records[self.outpoint].status = status
        self.registry.writes += 1  # no registry method made the write, so declare it
        self.resync()

    def set_version_expiry(self, expiry: int):
        self.registry.versions.pop(IMAGE.pcr0, None)
        self.registry.writes += 1  # no registry method made the write, so declare it
        if expiry is not None:
            self.registry.set_version_expiry(
                IMAGE.pcr0, expiry,
                sign_digest(self.to, Registry.version_payload(IMAGE.pcr0, expiry)),
            )
        self.resync()

    # -- request/challenge builders ----------------------------------------

    def rebalance_request_tx(self) -> SimTx:
        template = self.instance.to_psbts[self.outpoint][Transition.REBALANCE_REQUEST]
        template = type(template).from_text(template.to_text())  # private copy
        sign_psbt(template, self.to, self.instance)
        return finalize_to_tx(template, self.to, self.instance)

    def unbond_pair(self) -> tuple[SimTx, SimTx]:
        from bsa_sim.psbt import PsbtTemplate

        request = PsbtTemplate.from_text(
            self.registry.get_stored_psbt(self.outpoint, "unbond_request")
        )
        request_tx = finalize_to_tx(request, self.dep, self.instance)
        challenge = self.instance.to_psbts[self.outpoint][Transition.UNBOND_CHALLENGE]
        challenge = PsbtTemplate.from_text(challenge.to_text())
        sign_psbt(challenge, self.to, self.instance)
        challenge_tx = finalize_to_tx(challenge, self.to, self.instance)
        return request_tx, challenge_tx

    def craft_two_party(self, outpoint: Outpoint, source_kind: str, dest_addr: str, value: int) -> SimTx:
        """Hand-rolled cooperative spend with both protocol keys; lets the
        tests place outputs anywhere while keeping signatures valid."""
        tx = SimTx(
            inputs=[TxInput(outpoint, "dep_to", SighashFlag.ALL)],
            outputs=[TxOutput(dest_addr, value)],
        )
        digest = tx.sighash(0)
        addr = next(a for a in self.instance.addresses.all() if a.kind == source_kind)
        witness = []
        for key in addr.leaf("dep_to").policy.keys():
            kp = self.dep if key == self.dep.public else self.to
            witness.append(sign_digest(kp, digest))
        tx.inputs[0].witness = witness
        return tx


@pytest.fixture(scope="module")
def world():
    return ArbWorld()


def flip_byte(tx: SimTx, input_index=0, witness_index=0) -> SimTx:
    w = bytearray(tx.inputs[input_index].witness[witness_index])
    w[0] ^= 0xFF
    mutated = SimTx(
        inputs=[TxInput(i.outpoint, i.path_id, i.flag, list(i.witness)) for i in tx.inputs],
        outputs=list(tx.outputs),
        anchor_index=tx.anchor_index,
    )
    mutated.inputs[input_index].witness[witness_index] = bytes(w)
    return mutated


# -- independent decision functions ------------------------------------------


def _sigs_ok(tx, expected_outpoint, address) -> bool:
    if not tx.inputs:
        return False
    inp = tx.inputs[0]
    leaf = address.leaf("dep_to")
    if inp.outpoint != expected_outpoint or inp.path_id != "dep_to" or leaf is None:
        return False
    keys = leaf.policy.keys()
    if len(inp.witness) != len(keys):
        return False
    digest = tx.sighash(0)
    return all(verify_signature(k, digest, s) for s, k in zip(inp.witness, keys))


def _version_live(view, pcr0, now) -> bool:
    expiry = view.get_version_expiry(pcr0)
    return expiry is not None and expiry > now


def expect_rebalance(view, oracle_pub, pcr0, now, outpoint, request_tx):
    record = view.records.get(outpoint)
    if record is None or record.tweak_digest not in view.tweaks:
        return ("reject", 1)
    tweak = view.tweaks[record.tweak_digest]
    if all(oracle_pub != pk for pk in tweak.ao_pks):
        return ("reject", 1)
    addrs = build_protocol_addresses(tweak)
    txid, index = outpoint.rsplit(":", 1)
    if not _sigs_ok(request_tx, Outpoint(txid, int(index)), addrs.va):
        return ("reject", 2)
    if not request_tx.outputs or request_tx.outputs[0].address_id != addrs.rca.address_id:
        return ("reject", 3)
    if not _version_live(view, pcr0, now):
        return ("reject", 4)
    if record.status is UtxoStatus.SPENT_ON_REBALANCE:
        return ("refuse",)
    return ("sign",)


def expect_unbond(view, oracle_pub, pcr0, now, outpoint, request_tx, challenge_tx):
    record = view.records.get(outpoint)
    if record is None or record.tweak_digest not in view.tweaks:
        return ("reject", 1)
    tweak = view.tweaks[record.tweak_digest]
    if all(oracle_pub != pk for pk in tweak.ao_pks):
        return ("reject", 1)
    addrs = build_protocol_addresses(tweak)
    txid, index = outpoint.rsplit(":", 1)
    if not _sigs_ok(request_tx, Outpoint(txid, int(index)), addrs.va):
        return ("reject", 2)
    if not _sigs_ok(challenge_tx, Outpoint(request_tx.txid, 0), addrs.uta):
        return ("reject", 3)
    if not request_tx.outputs or request_tx.outputs[0].address_id != addrs.uta.address_id:
        return ("reject", 4)
    if not challenge_tx.outputs or challenge_tx.outputs[0].address_id != addrs.uca.address_id:
        return ("reject", 5)
    if not _version_live(view, pcr0, now):
        return ("reject", 6)
    if record.status in (UtxoStatus.WITHDRAWN, UtxoStatus.REJECTED):
        return ("sign",)
    return ("refuse",)


def run_rebalance(oracle, outpoint, request_tx):
    result = oracle.verify_rebalance_inputs(outpoint, request_tx)
    if isinstance(result, Rejection):
        return ("reject", result.step)
    template = oracle.resolve_rebalance(result)
    return ("refuse",) if template is None else ("sign", template)


def run_unbond(oracle, outpoint, request_tx, challenge_tx):
    result = oracle.verify_unbond_inputs(outpoint, request_tx, challenge_tx)
    if isinstance(result, Rejection):
        return ("reject", result.step)
    template = oracle.resolve_unbond_challenge(result)
    return ("refuse",) if template is None else ("sign", template)


# -- pipeline vs oracle decision cross product --------------------------------


def _wrong_path(tx: SimTx) -> SimTx:
    return SimTx(
        inputs=[TxInput(i.outpoint, "to_delay", i.flag, list(i.witness)) for i in tx.inputs],
        outputs=list(tx.outputs),
        anchor_index=tx.anchor_index,
    )


def rebalance_variants(world):
    valid = world.rebalance_request_tx()
    attacker = key_address_id(keypair_from_seed(b"arb-thief").public)
    deposit = Outpoint.parse(world.outpoint)
    return [
        ("valid", world.outpoint, valid),
        ("unknown-record", "ff" * 32 + ":0", valid),
        ("tampered-signature", world.outpoint, flip_byte(valid)),
        ("wrong-path", world.outpoint, _wrong_path(valid)),
        ("diverted-output", world.outpoint, world.craft_two_party(
            deposit, "VA", attacker, world.value - 3)),
    ]


def test_rebalance_pipeline_matches_reference_for_all_statuses(world):
    oracle = world.oracle
    for status in ALL_STATUSES:
        world.set_status(status)
        for name, outpoint, tx in rebalance_variants(world):
            got = run_rebalance(oracle, outpoint, tx)
            want = expect_rebalance(
                oracle.view, oracle.keypair.public, IMAGE.pcr0, oracle.now_slot, outpoint, tx
            )
            assert got[0] == want[0], (status, name, got, want)
            if want[0] == "reject":
                assert got[1] == want[1], (status, name)
            if got[0] == "sign":
                template = got[1]
                assert verify_partial_sigs(template, world.instance)
                assert oracle.keypair.public_hex in template.partial_sigs
    world.set_status(UtxoStatus.ACTIVE)


def test_rebalance_version_gate_matches_reference(world):
    oracle = world.oracle
    tx = world.rebalance_request_tx()
    for expiry in (None, 1, oracle.now_slot + world.dest.finality_interval, 4_000):
        world.set_version_expiry(expiry)
        got = run_rebalance(oracle, world.outpoint, tx)
        want = expect_rebalance(
            oracle.view, oracle.keypair.public, IMAGE.pcr0, oracle.now_slot, world.outpoint, tx
        )
        assert got[0] == want[0], (expiry, got, want)
        if want[0] == "reject":
            assert got == want
    world.set_version_expiry(4_000)


def unbond_variants(world):
    request, challenge = world.unbond_pair()
    attacker = key_address_id(keypair_from_seed(b"arb-thief").public)
    deposit = Outpoint.parse(world.outpoint)
    addrs = world.instance.addresses

    # request valid but paying the wrong place; challenge re-signed on top
    stray_request = world.craft_two_party(deposit, "VA", attacker, world.value - 3)
    chained_challenge = world.craft_two_party(
        Outpoint(stray_request.txid, 0), "UTA", addrs.uca.address_id, world.value - 6
    )
    # request fine, challenge diverts its output
    stray_challenge = world.craft_two_party(
        Outpoint(request.txid, 0), "UTA", attacker, world.value - 6
    )
    return [
        ("valid", world.outpoint, request, challenge),
        ("unknown-record", "ff" * 32 + ":0", request, challenge),
        ("tampered-request-sig", world.outpoint, flip_byte(request), challenge),
        ("tampered-challenge-sig", world.outpoint, request, flip_byte(challenge)),
        ("wrong-path-request", world.outpoint, _wrong_path(request), challenge),
        ("wrong-path-challenge", world.outpoint, request, _wrong_path(challenge)),
        ("request-diverted", world.outpoint, stray_request, chained_challenge),
        ("challenge-diverted", world.outpoint, request, stray_challenge),
        ("unlinked-challenge", world.outpoint, request,
         world.craft_two_party(Outpoint("aa" * 32, 0), "UTA", addrs.uca.address_id, 99)),
    ]


def test_unbond_pipeline_matches_reference_for_all_statuses(world):
    oracle = world.oracle
    for status in ALL_STATUSES:
        world.set_status(status)
        for name, outpoint, request, challenge in unbond_variants(world):
            got = run_unbond(oracle, outpoint, request, challenge)
            want = expect_unbond(
                oracle.view, oracle.keypair.public, IMAGE.pcr0, oracle.now_slot,
                outpoint, request, challenge,
            )
            assert got[0] == want[0], (status, name, got, want)
            if want[0] == "reject":
                assert got[1] == want[1], (status, name)
            if got[0] == "sign":
                assert verify_partial_sigs(got[1], world.instance)
    world.set_status(UtxoStatus.ACTIVE)


def test_unbond_version_gate_matches_reference(world):
    oracle = world.oracle
    world.set_status(UtxoStatus.WITHDRAWN)
    request, challenge = world.unbond_pair()
    for expiry in (None, 1, 4_000):
        world.set_version_expiry(expiry)
        got = run_unbond(oracle, world.outpoint, request, challenge)
        want = expect_unbond(
            oracle.view, oracle.keypair.public, IMAGE.pcr0, oracle.now_slot,
            world.outpoint, request, challenge,
        )
        assert got[0] == want[0], (expiry,)
    world.set_version_expiry(4_000)
    world.set_status(UtxoStatus.ACTIVE)


def test_outside_oracle_is_rejected_at_the_record_gate(world):
    outsider = ArbitrationOracle(
        "outsider", IMAGE, world.authority, world.kms, seed=b"arb-outsider"
    )
    outsider.key_init()
    outsider.sync(world.dest, sign_checkpoint(world.dest.latest_finalized(), world.to))
    tx = world.rebalance_request_tx()
    got = run_rebalance(outsider, world.outpoint, tx)
    assert got == ("reject", 1)


# -- context-token gating -----------------------------------------------------


def test_resolution_requires_context_from_same_oracle(world):
    a, b = world.oracles[0], world.oracles[1]
    tx = world.rebalance_request_tx()
    ctx = a.verify_rebalance_inputs(world.outpoint, tx)
    assert isinstance(ctx, VerifiedContext)
    with pytest.raises(NotVerified):
        b.resolve_rebalance(ctx)
    with pytest.raises(NotVerified):
        a.resolve_unbond_challenge(ctx)  # right issuer, wrong kind
    forged = VerifiedContext(
        kind="rebalance",
        outpoint=world.outpoint,
        status=UtxoStatus.ACTIVE,
        spend_txid=tx.txid,
        spend_value=tx.outputs[0].value,
        issuer_id=id(object()),
        instance=world.instance,
    )
    with pytest.raises(NotVerified):
        a.resolve_rebalance(forged)


def test_unsynced_oracle_refuses_to_verify(world):
    fresh = ArbitrationOracle(
        "fresh", IMAGE, world.authority, world.kms, seed=b"arb-fresh"
    )
    fresh.key_init()
    assert not fresh.is_operational()
    with pytest.raises(NotSynced):
        fresh.verify_rebalance_inputs(world.outpoint, world.rebalance_request_tx())


# what a corrupted view holds in the rebalance resolve slot, from the
# stored rows: another row, or text that is no template at all
STORED_ROW_REWRITES = {
    "swapped-row": lambda psbts: psbts["unbond_resolve"],
    "not-json": lambda psbts: "not json",
    "json-list": lambda psbts: "[]",
    "outpoint-not-a-pair": lambda psbts: '{"transition":"rebalance_resolve","outpoint":5}',
}


@pytest.mark.parametrize(
    "rewrite", STORED_ROW_REWRITES.values(), ids=list(STORED_ROW_REWRITES)
)
def test_sign_stored_rejects_swapped_registry_row(world, rewrite):
    world.set_status(UtxoStatus.ACTIVE)
    oracle = world.oracle
    tx = world.rebalance_request_tx()
    ctx = oracle.verify_rebalance_inputs(world.outpoint, tx)
    assert isinstance(ctx, VerifiedContext)
    record = oracle.view.records[world.outpoint]
    record.psbts["rebalance_resolve"] = rewrite(record.psbts)
    assert oracle.resolve_rebalance(ctx) is None
    world.resync()  # restore an honest view
    ctx = oracle.verify_rebalance_inputs(world.outpoint, tx)
    assert oracle.resolve_rebalance(ctx) is not None


# -- light-client resync boundaries -------------------------------------------


def make_sync_world(wsp=16):
    return ArbWorld(n_oracles=1, wsp=wsp, interval=1)


def test_downtime_one_below_period_syncs_without_checkpoint():
    w = make_sync_world()
    oracle = w.oracle
    w.dest.advance(w.dest.wsp - 1)
    oracle.sync(w.dest)  # no checkpoint needed
    assert oracle.last_seen_slot == w.dest.slot


def test_downtime_at_period_needs_operator_checkpoint():
    w = make_sync_world()
    oracle = w.oracle
    w.dest.advance(w.dest.wsp)
    with pytest.raises(StaleCheckpoint):
        oracle.sync(w.dest)
    cp = sign_checkpoint(w.dest.latest_finalized(), w.to)
    oracle.sync(w.dest, to_checkpoint=cp)
    assert oracle.last_seen_slot == w.dest.slot


def test_self_signed_checkpoint_cannot_rebootstrap():
    w = make_sync_world()
    oracle = w.oracle
    w.dest.advance(w.dest.wsp + 1)
    cp = sign_checkpoint(w.dest.latest_finalized(), oracle.keypair)
    with pytest.raises(StaleCheckpoint):
        oracle.sync(w.dest, to_checkpoint=cp)


def test_checkpoint_from_non_operator_key_rejected():
    w = make_sync_world()
    oracle = w.oracle
    w.dest.advance(w.dest.wsp + 1)
    cp = sign_checkpoint(w.dest.latest_finalized(), w.dep)
    with pytest.raises(StaleCheckpoint):
        oracle.sync(w.dest, to_checkpoint=cp)


def test_checkpoint_older_than_default_period_rejected():
    w = make_sync_world()
    oracle = w.oracle
    old = w.dest.latest_finalized()
    w.dest.advance(w.dest.wsp + 9)
    cp = sign_checkpoint(old, w.to)
    with pytest.raises(StaleCheckpoint):
        oracle.sync(w.dest, to_checkpoint=cp)


def test_checkpoint_with_tampered_digest_rejected():
    w = make_sync_world()
    oracle = w.oracle
    w.dest.advance(w.dest.wsp)
    latest = w.dest.latest_finalized()
    forged_digest = FinalizedCheckpoint(latest.slot, "ab" * 32)
    # a slot the chain never finalized fails closed too, naming the slot
    forged_slot = FinalizedCheckpoint(latest.slot + 1, latest.state_digest)
    for forged, reason in ((forged_digest, "digest"), (forged_slot, f"slot {latest.slot + 1}")):
        cp = sign_checkpoint(forged, w.to)
        with pytest.raises(StaleCheckpoint, match=reason):
            oracle.sync(w.dest, to_checkpoint=cp)
    assert oracle.last_seen_slot < w.dest.slot


def test_tampered_digest_rejected_after_another_oracle_parsed_the_slot():
    w = ArbWorld(n_oracles=2, wsp=16, interval=1)
    late, honest = w.oracles
    w.dest.advance(w.dest.wsp)
    latest = w.dest.latest_finalized()
    honest.sync(w.dest, sign_checkpoint(latest, w.to))
    honest.view  # parses latest.slot
    forged = FinalizedCheckpoint(latest.slot, "ab" * 32)
    with pytest.raises(StaleCheckpoint, match="digest"):
        late.sync(w.dest, to_checkpoint=sign_checkpoint(forged, w.to))
    assert late.view is not honest.view


def test_rebootstrap_accepts_exactly_a_served_operator_checkpoint_within_the_period():
    """Every signer, every age from one slot ahead to twice the period,
    true and forged digests: ``sync`` succeeds exactly when the operator
    signed a checkpoint of a finalized slot at most ``wsp`` slots old with
    the digest the chain finalized, and every refusal leaves the oracle
    as it was."""
    w = ArbWorld(n_oracles=1, wsp=8, interval=2)
    finalized = {cp.slot: cp.state_digest for cp in w.dest.snapshots.values()}
    for _ in range(3 * w.dest.wsp):  # odd slots are never finalized
        finalized.update((cp.slot, cp.state_digest) for cp in w.dest.advance(1))
    now, wsp = w.dest.slot, w.dest.wsp
    offline = w.oracle
    assert now - offline.last_seen_slot >= wsp
    signers = {"operator": w.to, "oracle": offline.keypair, "depositor": w.dep}
    accepted = 0
    for age in range(-1, 2 * wsp + 1):
        slot = now - age
        true_digest = finalized.get(slot, finalized[max(s for s in finalized if s <= slot)])
        for forged in (False, True):
            digest = "ab" * 32 if forged else true_digest
            for name, keypair in signers.items():
                oracle = copy.copy(offline)
                signed = sign_checkpoint(FinalizedCheckpoint(slot, digest), keypair)
                case = (age, forged, name)
                if name == "operator" and 0 <= age <= wsp and slot in finalized and not forged:
                    oracle.sync(w.dest, to_checkpoint=signed)
                    assert oracle.checkpoint is w.dest.latest_finalized(), case
                    assert oracle.last_seen_slot == now, case
                    accepted += 1
                else:
                    with pytest.raises(StaleCheckpoint):
                        oracle.sync(w.dest, to_checkpoint=signed)
                    assert oracle.checkpoint is offline.checkpoint, case
                    assert oracle.last_seen_slot == offline.last_seen_slot, case
    assert accepted == wsp // w.dest.finality_interval + 1


def test_rebootstrap_parses_no_view_and_refuses_other_signers(monkeypatch):
    w = make_sync_world()
    oracle = w.oracle
    w.registry.ledger.mint("acct:other", 5)  # a body no view has parsed
    w.dest.advance(w.dest.wsp)
    imports = count_calls(monkeypatch, Registry, "import_snapshot")
    latest = w.dest.latest_finalized()
    for signer in (w.dep, oracle.keypair):
        with pytest.raises(StaleCheckpoint, match="not signed by the operator"):
            oracle.sync(w.dest, to_checkpoint=sign_checkpoint(latest, signer))
    oracle.sync(w.dest, to_checkpoint=sign_checkpoint(latest, w.to))
    assert oracle.checkpoint is latest
    assert len(imports) == 0
    assert latest.body.to_pubkey == w.to.public == latest.view.to_pubkey


# -- finalized-state retention ------------------------------------------------


def test_snapshots_are_retained_for_the_longest_period_only():
    w = ArbWorld(n_oracles=1, wsp=24, interval=4)
    window = w.dest.wsp
    bound = window // w.dest.finality_interval + 1
    for n in (1, 3, 4, 7, 13, 40, 2) * 4:  # single slots, whole intervals, many at once
        w.dest.advance(n)
        for cp in w.dest.snapshots.values():
            cp.view  # read, and kept on the checkpoint
        slots = list(w.dest.snapshots)
        latest = w.dest.latest_finalized().slot
        assert len(slots) <= bound
        assert slots[-1] == latest and slots[0] >= latest - window
        # No list beside the map keeps a checkpoint, the body it holds or its view.
        held = reachable(w.dest, (FinalizedCheckpoint, _Body, Registry))
        checkpoints = [o for o in held if isinstance(o, FinalizedCheckpoint)]
        assert sorted(map(id, checkpoints)) == sorted(map(id, w.dest.snapshots.values()))
        assert len([o for o in held if isinstance(o, _Body)]) <= bound
        views = [o for o in held if isinstance(o, Registry) and o is not w.dest.registry]
        assert len(views) <= bound
    assert w.dest.slot > 10 * window


def reachable(root, kinds) -> list:
    """The instances of ``kinds`` reachable from ``root`` through object
    references, not through classes, modules or functions."""
    seen, found, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_latest_snapshot_is_kept_when_the_interval_exceeds_the_period():
    w = ArbWorld(n_oracles=1, wsp=4, interval=8)
    w.dest.advance(13)  # finalizes one checkpoint and ends 5 slots past it
    latest = w.dest.latest_finalized()
    assert w.dest.slot - latest.slot > w.dest.wsp
    assert list(w.dest.snapshots) == [latest.slot]
    assert latest.view.state_digest() == latest.state_digest


@pytest.mark.parametrize("step", [1, None], ids=["slot-by-slot", "one-advance"])
@pytest.mark.parametrize("wsp", [8, 24], ids=["period-8", "period-24"])
def test_checkpoint_default_wsp_old_rebootstraps_and_one_older_is_refused(step, wsp):
    for extra in (0, 1):
        w = make_sync_world(wsp)
        oracle = w.oracle
        old = w.dest.latest_finalized()
        age = w.dest.wsp + extra
        for n in [step] * age if step else [age]:
            w.dest.advance(n)
        cp = sign_checkpoint(old, w.to)
        if extra == 0:
            oracle.sync(w.dest, to_checkpoint=cp)
            assert oracle.last_seen_slot == w.dest.slot
        else:
            assert old.slot not in w.dest.snapshots
            with pytest.raises(StaleCheckpoint, match=f"{age} slots old"):
                oracle.sync(w.dest, to_checkpoint=cp)


# -- one render and one parse per change of state -----------------------------


def count_calls(monkeypatch, cls, name) -> list:
    """Record every call of ``cls.name`` for the rest of the test."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_each_viewed_checkpoint_parses_once_for_all_its_oracles(monkeypatch):
    w = ArbWorld(n_oracles=3)
    offline = w.oracles[2]
    old_view = offline.view
    imports = count_calls(monkeypatch, Registry, "import_snapshot")
    w.registry.ledger.mint("acct:other", 5)  # the state changes
    w.dest.advance(w.dest.finality_interval)
    for oracle in w.oracles[:2]:
        oracle.sync(w.dest)
    assert len(imports) == 0  # sync alone parses nothing
    assert w.oracles[0].view is w.oracles[1].view
    assert len(imports) == 1
    assert w.oracles[0].view is w.dest.latest_finalized().view
    changed = w.oracles[0].view
    w.dest.advance(w.dest.finality_interval)  # only the clock moves
    for oracle in w.oracles[:2]:
        oracle.sync(w.dest)
    assert w.oracles[0].view is w.oracles[1].view
    assert len(imports) == 2  # one parse per viewed checkpoint
    assert w.oracles[0].view is not changed
    assert w.oracles[0].view.current_slot == w.dest.slot == changed.current_slot + w.dest.finality_interval
    assert offline.view is old_view and old_view is not changed


def test_clock_only_checkpoints_copy_nothing(monkeypatch):
    w = ArbWorld(n_oracles=3)
    calls = [
        count_calls(monkeypatch, Registry, "export_snapshot"),
        count_calls(monkeypatch, Registry, "import_snapshot"),
    ]
    start = w.dest.latest_finalized().slot
    for n in (w.dest.finality_interval, 1, 3 * w.dest.finality_interval):
        w.dest.advance(n)
        for oracle in w.oracles:
            oracle.sync(w.dest)
    latest = w.dest.latest_finalized().slot
    assert latest > start and {o.last_synced_slot for o in w.oracles} == {latest}
    assert [len(c) for c in calls] == [0, 0]


def test_view_is_read_after_the_chain_dropped_its_checkpoint():
    w = make_sync_world()
    oracle = w.oracle
    w.registry.ledger.mint("acct:other", 5)  # a body no view has parsed
    w.dest.advance(1)
    oracle.sync(w.dest)  # the view is not read
    synced = w.dest.latest_finalized()
    w.dest.advance(w.dest.wsp + 1)
    assert synced.slot not in w.dest.snapshots
    assert oracle.view.state_digest() == synced.state_digest
    assert oracle.view.current_slot == synced.slot


def test_offline_oracle_attests_its_checkpoint_after_the_chain_dropped_it():
    w = make_sync_world()
    oracle = w.oracle
    w.registry.ledger.mint("acct:other", 5)  # a body nothing has hashed
    w.dest.advance(1)
    oracle.sync(w.dest)
    synced = w.dest.latest_finalized()
    text = w.registry.export_snapshot()  # what the checkpoint holds: the interval is 1
    w.registry.ledger.mint("acct:other", 7)  # the registry changes while it is offline
    w.dest.advance(w.dest.wsp + 1)
    assert synced.slot not in w.dest.snapshots
    att = oracle.produce_attestation()
    assert att.checkpoint_slot == synced.slot
    assert att.checkpoint_digest == hashlib.sha256(text.encode()).hexdigest()
    assert att.checkpoint_digest != w.dest.latest_finalized().state_digest


def test_advance_across_two_boundaries_exports_once(monkeypatch):
    w = ArbWorld(n_oracles=1)
    exports = count_calls(monkeypatch, Registry, "export_snapshot")
    w.registry.ledger.mint("acct:other", 5)  # the state changes
    first, second = w.dest.advance(2 * w.dest.finality_interval)
    assert len(exports) == 1
    assert second.slot == first.slot + w.dest.finality_interval
    (third,) = w.dest.advance(w.dest.finality_interval)  # only the clock moves
    assert len(exports) == 1
    fresh = w.registry.export_snapshot()
    assert third.state_digest == hashlib.sha256(fresh.encode()).hexdigest()
    # one body, read at each checkpoint's own slot
    assert first.body is second.body
    assert len({first.state_digest, second.state_digest, third.state_digest}) == 3
    assert [cp.view.current_slot for cp in (first, second)] == [first.slot, second.slot]


def test_attested_digest_is_the_checkpoint_digest():
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    w.resync()
    latest = w.dest.latest_finalized()
    att = oracle.produce_attestation()
    assert att.checkpoint_slot == latest.slot
    assert att.checkpoint_digest == latest.state_digest == oracle.view.state_digest()


# -- one judgment per body and rows ------------------------------------------


def clock_only_resync(w: ArbWorld) -> None:
    """Resync ``w`` to a later checkpoint of the body it is synced to."""
    body = w.dest.latest_finalized().body
    w.resync()
    assert w.dest.latest_finalized().body is body


def test_a_standing_dispute_is_judged_once_per_body(monkeypatch):
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    request, challenge = w.unbond_pair()
    disputes = [(request, challenge), (request, flip_byte(challenge))]
    first = [oracle.verify_unbond_inputs(w.outpoint, *rows) for rows in disputes]
    assert isinstance(first[0], VerifiedContext) and first[0].status is UtxoStatus.ACTIVE
    assert first[1].step == 3
    assert oracle.resolve_unbond_challenge(first[0]) is None  # refused: not burned
    imports = count_calls(monkeypatch, Registry, "import_snapshot")
    witnesses = count_calls(monkeypatch, arbitration, "check_witness")
    clock_only_resync(w)
    again = [oracle.verify_unbond_inputs(w.outpoint, *rows) for rows in disputes]
    assert again == first
    assert again[0].instance is first[0].instance
    assert oracle.resolve_unbond_challenge(again[0]) is None
    assert (len(imports), len(witnesses)) == (0, 0)


@pytest.mark.parametrize(
    "row, gate",
    [(0, (2, "unbond_request_signatures")), (1, (3, "unbond_challenge_signatures"))],
    ids=["request", "challenge"],
)
def test_a_changed_witness_byte_is_judged_afresh(row, gate):
    w = ArbWorld(n_oracles=1)
    rows = list(w.unbond_pair())
    assert isinstance(w.oracle.verify_unbond_inputs(w.outpoint, *rows), VerifiedContext)
    txid = rows[row].txid
    rows[row] = flip_byte(rows[row])
    assert rows[row].txid == txid  # a txid commits to no witness
    clock_only_resync(w)
    got = w.oracle.verify_unbond_inputs(w.outpoint, *rows)
    assert (got.step, got.check) == gate


def test_a_burn_after_a_refused_resolution_is_judged_from_the_new_body():
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    request, challenge = w.unbond_pair()
    refused = oracle.verify_unbond_inputs(w.outpoint, request, challenge)
    assert oracle.resolve_unbond_challenge(refused) is None
    body = oracle.checkpoint.body
    w.registry.burn_deposit(w.outpoint, caller="acct:arb")
    w.resync()
    assert oracle.checkpoint.body is not body
    ctx = oracle.verify_unbond_inputs(w.outpoint, request, challenge)
    assert ctx.status is UtxoStatus.WITHDRAWN
    template = oracle.resolve_unbond_challenge(ctx)
    assert template is not None and verify_partial_sigs(template, w.instance)


def test_an_expiry_passing_within_one_body_is_refused_at_the_version_gate():
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    w.set_version_expiry(oracle.now_slot + 2 * w.dest.finality_interval)
    tx = w.rebalance_request_tx()
    assert isinstance(oracle.verify_rebalance_inputs(w.outpoint, tx), VerifiedContext)
    clock_only_resync(w)  # the clock reaches the expiry
    got = oracle.verify_rebalance_inputs(w.outpoint, tx)
    assert (got.step, got.check) == (4, "version")
    assert not oracle.version_ok()


def test_no_judgment_of_an_earlier_body_survives_a_body_change(monkeypatch):
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    request, challenge = w.unbond_pair()
    rebalance = w.rebalance_request_tx()
    oracle.verify_unbond_inputs(w.outpoint, request, challenge)
    oracle.verify_rebalance_inputs(w.outpoint, rebalance)
    earlier = dict(oracle._judged)
    assert len(earlier) == 3  # two disputes and the image's expiry
    w.registry.ledger.mint("acct:other", 5)  # the body changes
    w.resync()
    oracle.verify_rebalance_inputs(w.outpoint, rebalance)
    assert oracle._judged_body is oracle.checkpoint.body
    assert len(oracle._judged) == 2
    assert all(oracle._judged[key] is not earlier[key] for key in oracle._judged)
    witnesses = count_calls(monkeypatch, arbitration, "check_witness")
    oracle.verify_unbond_inputs(w.outpoint, request, challenge)
    assert len(witnesses) == 2  # judged afresh: one check per row


def test_a_checkpoint_with_no_body_is_judged_afresh_every_time(monkeypatch):
    w = ArbWorld(n_oracles=1)
    oracle = w.oracle
    tx = w.rebalance_request_tx()
    latest = oracle.checkpoint
    transported = FinalizedCheckpoint(latest.slot, latest.state_digest)
    transported._view = latest.view
    oracle.checkpoint = transported
    witnesses = count_calls(monkeypatch, arbitration, "check_witness")
    outcomes = [oracle.verify_rebalance_inputs(w.outpoint, tx) for _ in range(2)]
    assert outcomes[0] == outcomes[1] and isinstance(outcomes[0], VerifiedContext)
    assert len(witnesses) == 2
    assert oracle._judged == {}


@pytest.mark.parametrize("config", whole_runs(), ids=lambda config: config.name)
def test_every_judgment_of_a_whole_run_equals_a_fresh_check(config, monkeypatch):
    """At every judgment of a whole run, the outcome equals the same
    check made with nothing kept, and a run in which one oracle refuses
    one deposit's resolution at two blocks judges some dispute from what
    it kept.  (In ``04_oracle_key_leak.scn`` each oracle refuses once, so
    it has nothing to re-judge.)"""
    verify, check = ArbitrationOracle._verify_dispute, ArbitrationOracle._check_rows
    checks, hits = [], []

    def counted(self, *args):
        checks.append(args)
        return check(self, *args)

    def compared(self, kind, outpoint, rows):
        before = len(checks)
        outcome = verify(self, kind, outpoint, rows)
        hits.append(len(checks) == before)
        kept = self._judged_body, self._judged
        self._judged_body = None
        fresh = verify(self, kind, outpoint, rows)
        self._judged_body, self._judged = kept
        assert outcome == fresh
        if isinstance(outcome, VerifiedContext):
            assert outcome.instance.tweak_digest == fresh.instance.tweak_digest
        return outcome

    monkeypatch.setattr(ArbitrationOracle, "_check_rows", counted)
    monkeypatch.setattr(ArbitrationOracle, "_verify_dispute", compared)
    refusals = Counter(
        (entry["actor"], entry["outpoint"])
        for entry in run_scenario(config).trace
        if entry["action"] == "resolution_refused"
    )
    if any(n > 1 for n in refusals.values()):
        assert any(hits)


# -- key custody --------------------------------------------------------------


def test_key_restore_under_same_signer(world):
    oracle = world.oracle
    original = oracle.keypair.public
    patched = EnclaveImage(b"arbiter-v2", b"standard", b"oracle-vendor")
    restored = oracle.key_restore(image=patched)
    assert restored.public == original
    oracle.image = IMAGE  # put the world back


def test_key_restore_denied_for_foreign_signer(world):
    oracle = world.oracle
    foreign = EnclaveImage(b"arbiter-v2", b"standard", b"someone-else")
    keypair, version_ok = oracle.keypair, oracle.version_ok()
    with pytest.raises(KmsPolicyDenied):
        oracle.key_restore(image=foreign)
    assert oracle.image == IMAGE
    assert oracle.keypair is keypair
    assert version_ok and oracle.version_ok()


def test_kms_policy_is_write_once(world):
    from bsa_sim.attestation import PolicyUpdateDenied

    with pytest.raises(PolicyUpdateDenied):
        world.kms.update_policy(world.oracle.key_id, required_pcr8="00" * 32)


# -- version governance gates --------------------------------------------------


def test_version_ok_boundary(world):
    oracle = world.oracle
    now = oracle.now_slot
    world.set_version_expiry(oracle.now_slot + world.dest.finality_interval)
    # after resync now_slot advanced by one interval: expiry == now -> dead
    assert oracle.now_slot == now + world.dest.finality_interval
    assert not oracle.version_ok()
    world.set_version_expiry(oracle.now_slot + world.dest.finality_interval + 1)
    assert oracle.version_ok()
    world.set_version_expiry(4_000)


def test_initial_membership_needs_room_beyond_governance_delay(world):
    oracle = world.oracle
    t3 = world.registry.t3
    world.set_version_expiry(oracle.now_slot + world.dest.finality_interval + t3)
    assert oracle.version_ok()
    assert not oracle.accepts_initial_version()
    world.set_version_expiry(oracle.now_slot + world.dest.finality_interval + t3 + 1)
    assert oracle.accepts_initial_version()
    world.set_version_expiry(4_000)


def test_upgrade_must_extend_expiry(world):
    oracle = world.oracle
    new_image = EnclaveImage(b"arbiter-v2", b"standard", b"oracle-vendor")
    world.registry.set_version_expiry(
        new_image.pcr0, 3_999,
        sign_digest(world.to, Registry.version_payload(new_image.pcr0, 3_999)),
    )
    world.resync()
    assert not oracle.accepts_upgrade(new_image)  # 3999 < 4000
    world.registry.set_version_expiry(
        new_image.pcr0, 4_001,
        sign_digest(world.to, Registry.version_payload(new_image.pcr0, 4_001)),
    )
    world.resync()
    assert oracle.accepts_upgrade(new_image)
