"""Actor behavior driving the simulated protocol: wallet utilities, the
exit state machine with exact timelock timing, oracle-defended disputes,
and operator liquidation/repayment duties."""

import collections
import pathlib

import pytest

from bsa_sim.actors import (
    DepositorActor,
    OracleActor,
    OracleBehavior,
    TokenOperatorActor,
    carve_fee_utxo,
    send_btc,
    spendable_utxos,
)
from bsa_sim.chain import BtcChain, FeeSchedule, Outpoint
from bsa_sim.harness import (
    build_world,
    compute_verdicts,
    extra_scenarios,
    liquidation_spans,
    matrix_scenarios,
    run_scenario,
)
from bsa_sim.keys import keypair_from_seed
from bsa_sim.psbt import PsbtTemplate, Transition, finalize_to_tx
from bsa_sim.scenario import DepositorBehavior, OperatorBehavior, ScenarioConfig, load_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


# -- wallet helpers -----------------------------------------------------------


def funded_chain(value=10_000):
    chain = BtcChain(FeeSchedule(1))
    kp = keypair_from_seed(b"wallet")
    addr = chain.ensure_key_address(kp.public)
    chain.seed_utxo(addr, value)
    return chain, kp, addr


def test_carve_fee_utxo_exact_value():
    chain, kp, addr = funded_chain()
    utxo = carve_fee_utxo(chain, kp, 500)
    assert utxo is not None and utxo.value == 500
    chain.mine_block()
    values = sorted(u.value for u in chain.utxos_at(addr))
    assert values == [500, 10_000 - 500 - 3]


def test_carve_fee_utxo_without_funds():
    chain, kp, _ = funded_chain(value=100)
    assert carve_fee_utxo(chain, kp, 200) is None


def test_send_btc_with_change():
    chain, kp, addr = funded_chain()
    other = chain.ensure_key_address(keypair_from_seed(b"other").public)
    tx = send_btc(chain, kp, other, 1_000)
    assert tx is not None
    chain.mine_block()
    assert chain.balance_of(other) == 1_000
    assert chain.balance_of(addr) == 10_000 - 1_000 - 3
    assert send_btc(chain, kp, other, 10_000) is None


def test_spendable_utxos_excludes_mempool_pending():
    chain, kp, addr = funded_chain()
    assert len(spendable_utxos(chain, addr)) == 1
    other = chain.ensure_key_address(keypair_from_seed(b"other").public)
    tx = send_btc(chain, kp, other, 1_000)
    assert spendable_utxos(chain, addr) == []
    assert chain.spender(tx.inputs[0].outpoint) is tx  # still in the mempool
    chain.mine_block()
    assert chain.spender(tx.inputs[0].outpoint) is tx  # confirmed
    assert chain.spender(Outpoint(tx.txid, 0)) is None
    change = Outpoint(tx.txid, 1)
    assert [u.outpoint for u in spendable_utxos(chain, addr)] == [change]
    send_btc(chain, kp, other, 1_000)
    assert spendable_utxos(chain, addr) == []


def test_oracle_online_window_is_half_open():
    actor = OracleActor(
        "o", oracle=None, behavior=OracleBehavior(offline=(5, 8)), t_op_blocks=1
    )
    assert actor.is_online(4)
    assert not actor.is_online(5)
    assert not actor.is_online(7)
    assert actor.is_online(8)
    assert OracleActor("p", None, OracleBehavior(), 1).is_online(123)


# -- exit timing --------------------------------------------------------------


def exit_config(**kw) -> ScenarioConfig:
    base = dict(
        name="exit-timing",
        horizon_blocks=34,
        depositor=DepositorBehavior(exit_at=8),
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("t1", [4, 6, 9])
def test_honest_exit_confirms_exactly_after_t1(t1):
    config = exit_config(t1=t1)
    result = run_scenario(config)
    world = result.world
    conf = world.chain.confirmed_at
    request = next(e for e in world.trace if e["action"] == "unbond_request")
    request_conf = conf[request["txid"]]
    finalize_txid = world.chain.spent_by[Outpoint(request["txid"], 0)]
    assert conf[finalize_txid] == request_conf + t1
    finalize = world.chain.tx_index[finalize_txid]
    instance = world.instances[0]
    assert finalize.outputs[0].address_id == instance.return_address_id
    assert any(e["action"] == "exit_complete" for e in world.trace)
    assert result.verdicts.depositor_safe
    assert result.verdicts.triple() == (True, True, True)
    # started at exit_at, done within t1 plus the reaction margin
    done = next(e for e in world.trace if e["action"] == "exit_complete")
    assert done["height"] <= 8 + t1 + config.margin_blocks


def test_unfairly_challenged_exit_resolved_by_oracles():
    t1, t2 = 6, 10
    config = exit_config(
        t1=t1,
        t2=t2,
        operator=OperatorBehavior(challenge_legitimate=True),
    )
    result = run_scenario(config)
    world = result.world
    conf = world.chain.confirmed_at
    request = next(e for e in world.trace if e["action"] == "unbond_request")
    challenge_txid = world.chain.spent_by[Outpoint(request["txid"], 0)]
    resolve_txid = world.chain.spent_by[Outpoint(challenge_txid, 0)]
    resolve = world.chain.tx_index[resolve_txid]
    instance = world.instances[0]

    assert resolve.outputs[0].address_id == instance.return_address_id
    assert resolve.inputs[0].path_id.startswith("dep_ao_")
    assert any(e["action"] == "unbond_resolved" for e in world.trace)
    # resolved well before the operator's timeout leaf would unlock
    assert conf[resolve_txid] - conf[challenge_txid] < t2
    assert conf[resolve_txid] <= request["height"] + t1 + t2 + config.margin_blocks
    assert result.verdicts.depositor_safe


def test_theft_is_challenged_and_liquidated_on_timeout():
    t2 = 10
    config = exit_config(
        t2=t2,
        depositor=DepositorBehavior(exit_at=8, burn_before_exit=False),
    )
    result = run_scenario(config)
    world = result.world
    conf = world.chain.confirmed_at
    request = next(e for e in world.trace if e["action"] == "unbond_request")
    challenge_txid = world.chain.spent_by[Outpoint(request["txid"], 0)]
    claim_txid = world.chain.spent_by[Outpoint(challenge_txid, 0)]
    claim = world.chain.tx_index[claim_txid]
    instance = world.instances[0]

    # oracles saw the live record and refused; the timeout leaf paid the operator
    refusals = [e for e in world.trace if e["action"] == "resolution_refused"]
    assert refusals and all(e["status"] == "active" for e in refusals)
    assert claim.inputs[0].path_id == "to_delay"
    assert claim.outputs[0].address_id == instance.to_key_address_id
    assert conf[claim_txid] == conf[challenge_txid] + t2
    assert result.verdicts.operator_safe
    assert result.verdicts.protocol_safe


# -- liquidation and repayment ------------------------------------------------


def test_legitimate_rebalance_liquidates_within_bound_and_repays():
    config = load_scenario(str(SCENARIO_DIR / "legitimate_rebalance.scn"))
    result = run_scenario(config)
    world = result.world
    registry = world.registry

    marked = next(e for e in world.trace if e["action"] == "rebalance_marked")
    assert marked["over_seizure"] == 1_000  # [7000] covers a 6000 hole

    spans = liquidation_spans(world)
    assert spans, "no liquidation completed"
    for start, end in spans:
        assert end - start == config.t2  # timeout leaf claimed exactly at maturity

    repaid = next(e for e in world.trace if e["action"] == "over_seizure_repaid")
    assert repaid["amount"] == 1_000
    assert registry.claimable.get(config.owner, 0) == 0
    assert registry.claim_paid[config.owner] == 1_000
    assert result.verdicts.triple() == (True, True, True)

    # the grade reads repayments from the registry, not from the operator's log
    world.trace[:] = [e for e in world.trace if e["action"] != "over_seizure_repaid"]
    assert compute_verdicts(world, config).triple() == (True, True, True)
    registry.claim_paid[config.owner] = 10**9
    assert not compute_verdicts(world, config).operator_safe


def test_false_rebalance_is_defended_by_oracles():
    config = ScenarioConfig(
        name="false-rebalance",
        horizon_blocks=30,
        operator=OperatorBehavior(false_rebalance_at=10),
    )
    result = run_scenario(config)
    world = result.world
    assert any(e["action"] == "false_rebalance_request" for e in world.trace)
    assert any(e["action"] == "rebalance_resolved" for e in world.trace)
    request = next(e for e in world.trace if e["action"] == "false_rebalance_request")
    deposit_outpoint = request["outpoint"]
    record = world.registry.get_record(deposit_outpoint)
    # never marked: the registry still counts the deposit as live
    assert record.status.value == "active"
    assert result.verdicts.depositor_safe


def test_fee_spike_is_absorbed_by_cpfp():
    config = exit_config(fee_steps=[(6, 4)])
    result = run_scenario(config)
    world = result.world
    assert any(e["action"] == "cpfp_child" for e in world.trace)
    assert any(e["action"] == "exit_complete" for e in world.trace)
    assert result.verdicts.depositor_safe


# -- World.execute when the fee cannot be topped up ---------------------------


def short_of_fees_world():
    """A world whose next block asks 500 sat per weight unit, far above the
    rate the templates commit, and whose parties hold 100 sat each."""
    return build_world(ScenarioConfig(fee_funds=100, fee_steps=[(7, 500)]))


def stored_row(world, transition: Transition) -> PsbtTemplate:
    outpoint = next(iter(world.instances[0].deposits))
    return PsbtTemplate.from_text(world.registry.get_stored_psbt(outpoint, transition.value))


def test_execute_anchor_row_without_cpfp_funds_stays_in_mempool():
    world = short_of_fees_world()
    depositor = world.depositors[0]
    template = stored_row(world, Transition.UNBOND_REQUEST)
    tx = world.execute(template, depositor.keypair, world.instances[0], depositor.name)
    assert tx is not None and tx.txid == template.txid
    assert list(world.chain.mempool) == [tx.txid]  # admitted, with no child
    assert world.trace[-1] == {
        "height": world.chain.height,
        "actor": depositor.name,
        "action": "cpfp_no_funds",
        "parent": tx.txid,
    }


def test_execute_acp_row_without_fee_funds_leaves_mempool_unchanged():
    world = short_of_fees_world()
    oracle = world.oracles[0]
    template = stored_row(world, Transition.UNBOND_RESOLVE)
    row = finalize_to_tx(
        PsbtTemplate.from_text(template.to_text()), oracle.oracle.keypair, world.instances[0]
    )
    mempool = dict(world.chain.mempool)
    tx = world.execute(template, oracle.oracle.keypair, world.instances[0], oracle.name)
    assert tx is None
    assert world.chain.mempool == mempool
    assert world.trace[-1] == {
        "height": world.chain.height,
        "actor": oracle.name,
        "action": "fee_input_no_funds",
        "txid": row.txid,
    }


# -- one reading of the ledger per block --------------------------------------


def test_stuck_challenge_is_seen_the_block_after_it_arrives():
    """Two griefing challenges go out without a CPFP child at height 9
    and wait in the mempool until the fee rate falls at 13; the depositor
    notes each once, at height 10."""
    result = run_scenario(load_scenario(str(SCENARIO_DIR / "stuck_challenge.scn")))
    chain, trace = result.world.chain, result.world.trace
    stuck = [e for e in trace if e["action"] == "cpfp_no_funds"]
    assert [e["height"] for e in stuck] == [9, 9]
    assert [chain.confirmed_at[e["parent"]] for e in stuck] == [13, 13]
    seen = [e for e in trace if e["action"] == "saw_challenge"]
    assert [e["height"] for e in seen] == [10, 10]
    # each note names the deposit its stuck challenge disputes
    requests = [chain.tx_index[e["parent"]].inputs[0].outpoint.txid for e in stuck]
    deposits = [str(chain.tx_index[txid].inputs[0].outpoint) for txid in requests]
    assert [e["outpoint"] for e in seen] == deposits


SCRIPTED = [load_scenario(str(p)) for p in sorted(SCENARIO_DIR.glob("*.scn"))]
SCRIPTED += matrix_scenarios() + extra_scenarios()


def swap_in_fresh_actors(world) -> None:
    """Replace the depositor and the operator with new actors that carry
    only their attempt records."""
    old = world.depositors[0]
    depositor = DepositorActor(old.name, old.keypair, old.owner, old.behavior)
    depositor.exit_started_at = dict(old.exit_started_at)
    depositor._leaked = old._leaked
    world.depositors = [depositor]
    old = world.operator
    world.operator = TokenOperatorActor(old.name, old.keypair, old.behavior)
    world.operator._rebalanced = old._rebalanced
    world.operator._false_rebalanced = set(old._false_rebalanced)


@pytest.mark.parametrize("config", SCRIPTED, ids=lambda c: c.name)
def test_fresh_depositor_and_operator_continue_the_same_run(config):
    """The chain and the registry are the actors' memory: fresh actors
    swapped in mid-run finish it exactly as the originals would."""
    reference = run_scenario(config)
    world = build_world(config)
    for _ in range(config.horizon_blocks):
        if world.chain.height in (9, 11, 13, 17):
            swap_in_fresh_actors(world)
        world.tick()
    assert world.trace == reference.trace
    assert world.registry.state_digest() == reference.snapshot_digest
    verdicts = compute_verdicts(world, config)
    assert (verdicts.triple(), verdicts.reasons) == (
        reference.verdicts.triple(),
        reference.verdicts.reasons,
    )


def test_the_ledger_is_read_once_a_block(monkeypatch):
    """In a dispute-free world of 16 deposits and 5 oracles, each tick
    follows every deposit's spine once and never scans the UTXO set."""
    config = ScenarioConfig(
        amounts=[2_000] * 16,
        n_oracles=5,
        depositor=DepositorBehavior(exit_at=8, exit_deposit_index=0),
    )
    world = build_world(config)
    calls = collections.Counter()
    for name in ("utxos_at", "spine_end"):
        method = getattr(BtcChain, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(BtcChain, name, counted)
    for _ in range(24):
        calls.clear()
        world.tick()
        assert (calls["utxos_at"], calls["spine_end"]) == (0, 16)
    # the reading saw the one exit through to the depositor's key
    deposit = next(iter(world.instances[0].deposits))
    assert [(op, kind) for _, op, _, kind in world.resting] == [(deposit, "dep_return")]
    assert any(e["action"] == "exit_complete" for e in world.trace)


def test_oracles_take_challenges_in_utxo_set_order(monkeypatch):
    """Every scan arbitrates an instance's unspent challenge outputs in
    the order a scan of the UTXO set gives: UCA before RCA, each kind by
    confirmed height, then outpoint.  In this world (owner ``victor``),
    the three outputs the oracles find on waking sort differently by
    deposit, by outpoint alone and by height ignoring kind."""
    scans = []
    scan, arbitrate = OracleActor._scan_challenges, OracleActor._arbitrate

    def recording_scan(self, world, instance):
        chain = world.chain
        expected = [
            (kind, utxo)
            for kind in ("UCA", "RCA")
            for utxo in chain.utxos_at(instance.address_ids[kind])
            if chain.spender(utxo.outpoint) is None
        ]
        scans.append((expected, []))
        scan(self, world, instance)

    def recording_arbitrate(self, world, instance, kind, utxo):
        scans[-1][1].append((kind, utxo))
        return arbitrate(self, world, instance, kind, utxo)

    monkeypatch.setattr(OracleActor, "_scan_challenges", recording_scan)
    monkeypatch.setattr(OracleActor, "_arbitrate", recording_arbitrate)
    run_scenario(
        ScenarioConfig(
            owner="victor",
            amounts=[5000, 2500, 2500],
            depositor=DepositorBehavior(exit_at=8, exit_deposit_index=2),
            operator=OperatorBehavior(challenge_legitimate=True, false_rebalance_at=9),
            oracles=[OracleBehavior(offline=(0, 15)) for _ in range(3)],
        )
    )
    assert max(len(expected) for expected, _ in scans) == 3
    for expected, arbitrated in scans:
        assert arbitrated == expected
