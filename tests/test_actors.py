"""Actor behavior driving the simulated protocol: wallet utilities, the
exit state machine with exact timelock timing, oracle-defended disputes,
and operator liquidation/repayment duties."""

import collections
import importlib.util
import itertools
import json
import pathlib
import random
import sys

import pytest
from test_harness import co_sign_the_first_vault

from bsa_sim.actors import (
    DepositorActor,
    OracleActor,
    OracleBehavior,
    TokenOperatorActor,
    World,
    carve_fee_utxo,
    send_btc,
    spendable_utxos,
)
from bsa_sim.arbitration import ArbitrationOracle
from bsa_sim.chain import BtcChain, Outpoint, StepSchedule
from bsa_sim.harness import (
    MATRIX_DIR,
    build_world,
    compute_verdicts,
    liquidation_spans,
    random_adversarial_config,
    run_scenario,
)
from bsa_sim.keys import Transition, keypair_from_seed
from bsa_sim.psbt import PsbtTemplate, finalize_to_tx
from bsa_sim.scenario import (
    DepositorBehavior,
    OperatorBehavior,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


# -- wallet helpers -----------------------------------------------------------


def funded_chain(value=10_000):
    chain = BtcChain(StepSchedule(1))
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
    assert sum(u.value for u in chain.utxos_at(other)) == 1_000
    assert sum(u.value for u in chain.utxos_at(addr)) == 10_000 - 1_000 - 3
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
    assert finalize.outputs[0].address_id == instance.address_ids["dep_return"]
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

    assert resolve.outputs[0].address_id == instance.address_ids["dep_return"]
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
    assert claim.outputs[0].address_id == instance.address_ids["to_key"]
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


def run_refusing(text: str, refused: str, first: int):
    """Run a scenario whose token ledger refuses the depositor from height
    ``first`` on; check that the refusal is logged each block to the
    horizon and that the run grades clean."""
    config = parse_scenario(text)
    result = run_scenario(config)
    refusals = [e for e in result.trace if e["action"] == refused]
    assert [e["height"] for e in refusals] == list(range(first, result.final_height))
    assert result.final_height == 6 + config.horizon_blocks  # the ceremony mines 6
    assert (result.verdicts.triple(), result.verdicts.reasons) == ((True, True, True), [])
    return result, refusals


def test_a_refused_burn_moves_nothing_and_the_exit_waits():
    """The leak leaves 4,000 tokens, too few to burn the 7,000 deposit:
    that burn is refused each block, the deposit stays active on its
    vault with no exit for the grader to time, and the 3,000 one exits."""
    text = (
        "[deposit]\namounts = 7000, 3000\n[depositor]\nexit_at = 10\n"
        "leak_tokens_at = 8\nleak_token_amount = 6000\n"
    )
    result, refusals = run_refusing(text, "burn_refused", 10)
    world = result.world
    vault = next(iter(world.instances[0].deposits))
    assert {e["outpoint"] for e in refusals} == {vault}
    assert vault not in world.depositors[0].exit_started_at
    assert vault not in world.resting
    assert world.registry.records[vault].status.value == "active"
    assert world.registry.ledger.balance("alice") == 10_000 - 6_000 - 3_000
    assert any(e["action"] == "exit_complete" for e in result.trace)


def test_a_refused_leak_moves_nothing():
    """The burn leaves no tokens to leak: the leak is refused each block
    and the exit completes."""
    text = "[depositor]\nexit_at = 8\nleak_tokens_at = 12\nleak_token_amount = 3000\n"
    result, _ = run_refusing(text, "leak_refused", 12)
    assert not any(e["action"] == "tokens_left_perimeter" for e in result.trace)
    assert result.world.registry.ledger.balance("outside-perimeter") == 0
    assert any(e["action"] == "exit_complete" for e in result.trace)


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


def slow_arbitration_theft() -> ScenarioConfig:
    """``theft-defeated`` with oracles that wait 3 blocks before they
    arbitrate, so a challenge is pending in their own records across a
    swap; with the default wait of 1 they act the block they see it."""
    config = load_scenario(str(SCENARIO_DIR / "theft_defeated.scn"))
    config.name, config.t_op_blocks = "theft-defeated-t-op-3", 3
    return config


GRADED = [
    load_scenario(str(path))
    for directory in (SCENARIO_DIR, MATRIX_DIR)
    for path in sorted(directory.glob("*.scn"))
]
SCRIPTED = GRADED + [slow_arbitration_theft()]


def swap_in_fresh_actors(world) -> None:
    """Replace the depositor, the operator and every oracle actor with new
    actors that carry only their own records: the depositor's and the
    operator's attempts, and when each oracle first saw each challenge.
    A fresh oracle actor wraps the same ``ArbitrationOracle``."""
    old = world.depositors[0]
    depositor = DepositorActor(old.name, old.keypair, old.owner, old.behavior)
    depositor.exit_started_at = dict(old.exit_started_at)
    world.depositors = [depositor]
    old = world.operator
    world.operator = TokenOperatorActor(old.name, old.keypair, old.behavior)
    world.operator._rebalanced = old._rebalanced
    world.operator._false_rebalanced = set(old._false_rebalanced)
    fresh = []
    for old in world.oracles:
        oracle = OracleActor(old.name, old.oracle, old.behavior, old.t_op_blocks)
        oracle.first_seen = dict(old.first_seen)
        fresh.append(oracle)
    world.oracles = fresh


@pytest.mark.parametrize("config", SCRIPTED, ids=lambda c: c.name)
def test_fresh_depositor_and_operator_continue_the_same_run(config):
    """The chain and the registry are the actors' memory: fresh actors
    swapped in before every block finish the run exactly as the
    originals would."""
    reference = run_scenario(config)
    world = build_world(config)
    for _ in range(config.horizon_blocks):
        swap_in_fresh_actors(world)
        world.tick()
    assert world.trace == reference.trace
    assert world.registry.state_digest() == reference.snapshot_digest
    verdicts = compute_verdicts(world, config)
    assert (verdicts.triple(), verdicts.reasons) == (
        reference.verdicts.triple(),
        reference.verdicts.reasons,
    )


@pytest.mark.parametrize("config", GRADED, ids=lambda c: c.name)
def test_a_run_leaves_the_operators_rows_as_the_ceremony_made_them(config):
    """Executing a stored row signs the transaction, not the row: every
    ``to_psbts`` row ends the run with the text ``build_world`` gave it."""
    world = build_world(config)

    def texts():
        return [
            row.to_text()
            for instance in world.instances
            for rows in instance.to_psbts.values()
            for row in rows.values()
        ]

    built = texts()
    world.run(config.horizon_blocks)
    assert texts() == built


def count_ledger_reads(monkeypatch) -> collections.Counter:
    """Count calls of ``BtcChain.utxos_at`` and ``spine``, of
    ``Outpoint.parse`` and of ``OracleActor._scan_challenges``."""
    calls = collections.Counter()
    for owner, name in (
        (BtcChain, "utxos_at"),
        (BtcChain, "spine"),
        (OracleActor, "_scan_challenges"),
    ):
        method = getattr(owner, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, counted)
    parse = Outpoint.parse

    def counted_parse(cls, text):
        calls["parse"] += 1
        return parse(text)

    monkeypatch.setattr(Outpoint, "parse", classmethod(counted_parse))
    return calls


def test_the_ledger_is_read_once_a_block(monkeypatch):
    """In a world of 16 deposits and 5 oracles where one deposit exits,
    a tick follows every spine, once each, only when the last block
    spent an outpoint, and no spine otherwise; it never scans the UTXO
    set, parses no outpoint text and scans for no challenge.  The
    grader's one reading follows all 16."""
    config = ScenarioConfig(
        amounts=[2_000] * 16,
        n_oracles=5,
        depositor=DepositorBehavior(exit_at=8, exit_deposit_index=0),
    )
    world = build_world(config)
    chain = world.chain
    calls = count_ledger_reads(monkeypatch)
    walks, spent = {}, {}
    for _ in range(24):
        calls.clear()
        height = chain.height
        spent[height] = len(chain.spent_by)
        world.tick()
        assert (calls["utxos_at"], calls["parse"], calls["_scan_challenges"]) == (0, 0, 0)
        walks[height] = calls["spine"]
    # the block mined at the end of one tick is read at the start of the next
    grew = {h for h in walks if h - 1 in spent and spent[h] > spent[h - 1]}
    assert walks == {h: len(world.vaults) * (h in grew) for h in walks}
    # each hop of the exiting deposit's spine is one of those blocks
    deposit = next(iter(world.instances[0].deposits))
    hops, end = [], Outpoint.parse(deposit)
    while end in chain.spent_by:
        hops.append(chain.confirmed_at[chain.spent_by[end]])
        end = Outpoint(chain.spent_by[end], 0)
    assert len(hops) == 2 and hops[-1] < chain.height  # unbond_request and finalize
    assert set(hops) <= grew
    # the reading saw the one exit through to the depositor's key
    calls.clear()
    assert [(op, kind) for op, (_, _, kind, _) in world.resting.items()] == [
        (deposit, "dep_return")
    ]
    assert any(e["action"] == "exit_complete" for e in world.trace)
    assert calls["spine"] == 0
    assert compute_verdicts(world, config).triple() == (True, True, True)
    assert (calls["utxos_at"], calls["spine"], calls["parse"]) == (0, 16, 0)


@pytest.mark.parametrize("n_deposits", [4, 16, 64])
def test_a_quiet_block_costs_the_same_at_any_deposit_count(monkeypatch, n_deposits):
    """With nothing moving, a tick follows no spine and scans for no
    challenge, however many deposits the world holds."""
    world = build_world(ScenarioConfig(amounts=[2_000] * n_deposits, n_oracles=5))
    world.run(2)
    calls = count_ledger_reads(monkeypatch)
    world.tick()
    assert (calls["spine"], calls["_scan_challenges"]) == (0, 0)
    assert world.resting == world.read_resting() == {}


def assert_resting_is_kept(world, step, blocks: int) -> int:
    """Run ``blocks`` blocks of ``world``, one ``step(world)`` each, and
    check after every block that the kept ``resting`` is a fresh reading,
    items and order, and that ``challenge_rests`` says whether a challenge
    is among them.  Returns how many blocks first moved a deposit listed
    before one that had moved already, so that the order was at stake."""
    position = {deposit: i for i, deposit in enumerate(world.vaults)}
    out_of_order, moved = 0, set()
    for _ in range(blocks):
        step(world)
        fresh = world.read_resting()
        assert list(world.resting.items()) == list(fresh.items())
        kinds = [kind for _, _, kind, _ in fresh.values()]
        assert world.challenge_rests == ("UCA" in kinds or "RCA" in kinds)
        last = max((position[d] for d in moved), default=-1)
        out_of_order += any(position[d] < last for d in fresh.keys() - moved)
        moved |= fresh.keys()
    return out_of_order


def mine_outside_tick(world) -> None:
    """The actors step, then the chain mines a block and finality
    advances, all outside ``World.tick``."""
    for actor in [*world.depositors, world.operator, *world.oracles]:
        actor.step(world)
    world.chain.mine_block()
    world.dest.advance(world.registry.slots_per_block)


def _kept_resting_worlds() -> list[ScenarioConfig]:
    rng = random.Random(29)
    sample = [random_adversarial_config(rng, i) for i in range(24)]
    # deposit 2 exits before deposit 0 is seized: a later deposit moves first
    late_first = ScenarioConfig(
        name="late-deposit-moves-first",
        amounts=[5000, 2500, 2500],
        depositor=DepositorBehavior(exit_at=8, exit_deposit_index=2),
        operator=OperatorBehavior(challenge_legitimate=True, false_rebalance_at=9),
    )
    return GRADED + sample + [late_first]


@pytest.mark.parametrize("outside", [False, True], ids=["tick", "mined-outside-tick"])
def test_the_kept_resting_matches_a_fresh_reading(outside):
    """``World.resting``, kept across blocks, equals ``read_resting()``
    after every block of every graded run and of 24 random adversarial
    worlds, also when the chain mines the blocks outside ``World.tick``."""
    out_of_order = 0
    for config in _kept_resting_worlds():
        step = mine_outside_tick if outside else World.tick
        out_of_order += assert_resting_is_kept(build_world(config), step, config.horizon_blocks)
    assert out_of_order > 0


def trace_liquidation_spans(world) -> list[tuple[int, int]]:
    """The reference reading of ``liquidation_spans`` from the operator's
    own log: each ``rebalance_request`` entry's transaction, if it
    confirmed, and the spend of its output 0, if that confirmed."""
    chain = world.chain
    spans = []
    for entry in world.trace:
        if entry["action"] != "rebalance_request":
            continue
        request_txid = entry.get("txid")
        start = chain.confirmed_at.get(request_txid)
        if start is None:
            continue
        claim_txid = chain.spent_by.get(Outpoint(request_txid, 0))
        end = chain.confirmed_at.get(claim_txid)
        if end is not None:
            spans.append((start, end))
    return spans


def _sweep_stream_configs(seed: int, n: int) -> list[ScenarioConfig]:
    """The first ``n`` scenarios of the benchmark's sweep stream."""
    root = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    params = json.loads((root / "spec.json").read_text())["workloads"]["sweep"]["params"]
    stream = itertools.chain.from_iterable(workloads.sweep_stream(seed, params))
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize(
    "configs",
    [SCRIPTED, _sweep_stream_configs(1, 48)],
    ids=["graded-runs", "sweep-stream-seed-1"],
)
def test_liquidation_spans_read_from_the_chain_match_the_trace(configs):
    """The chain alone gives the rebalance spans that the operator's log
    names, in the same order, on runs where some and none happened."""
    with_spans = 0
    for config in configs:
        world = run_scenario(config).world
        assert liquidation_spans(world) == trace_liquidation_spans(world), config.name
        with_spans += bool(liquidation_spans(world))
    assert 0 < with_spans < len(configs)


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

    def recording_arbitrate(self, world, deposit):
        _, utxo, kind, _ = world.resting[deposit]
        scans[-1][1].append((kind, utxo))
        return arbitrate(self, world, deposit)

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


def walk_back(chain, challenge, kind) -> tuple[str, list]:
    """The reference reading of a dispute, backwards from its challenge
    output through ``tx_index`` and each row's input 0: the deposit the
    first row spends and the rows from it, the request and for UCA the
    challenge."""
    rows = [chain.tx_index[challenge.outpoint.txid]]
    if kind == "UCA":
        rows.insert(0, chain.tx_index[rows[0].inputs[0].outpoint.txid])
    return str(rows[0].inputs[0].outpoint), rows


@pytest.mark.parametrize(
    "configs",
    [GRADED, _sweep_stream_configs(1, 48)],
    ids=["graded-runs", "sweep-stream-seed-1"],
)
def test_every_arbitration_verifies_the_rows_a_walk_back_finds(monkeypatch, configs):
    """Every verifier call an oracle makes gets the deposit and rows that
    a walk back from the challenge output it arbitrates finds, on runs
    with unbond and with rebalance disputes.  The verifiers are patched on
    the class after import, as a tracer patches them, and still called."""
    arbitrate = OracleActor._arbitrate
    expected, given = [], []

    def recording_arbitrate(self, world, deposit):
        _, challenge, kind, _ = world.resting[deposit]
        expected.append(walk_back(world.chain, challenge, kind))
        return arbitrate(self, world, deposit)

    def recording(method):
        def verify(self, outpoint, *rows):
            given.append((outpoint, list(rows)))
            return method(self, outpoint, *rows)

        return verify

    monkeypatch.setattr(OracleActor, "_arbitrate", recording_arbitrate)
    for name in ("verify_unbond_inputs", "verify_rebalance_inputs"):
        monkeypatch.setattr(ArbitrationOracle, name, recording(getattr(ArbitrationOracle, name)))
    for config in configs:
        run_scenario(config)
    assert given == expected
    assert {len(rows) for _, rows in given} == {1, 2}


def test_a_challenge_output_paid_without_the_dispute_rows_is_left_to_its_timeout(monkeypatch):
    """The depositor and the operator can co-sign the vault's ``dep_to``
    leaf straight to the UCA address.  No request row precedes that
    output, so no oracle has rows to verify, and the operator claims it
    after t2 as any challenge output nobody resolved."""
    verified = []
    monkeypatch.setattr(ArbitrationOracle, "verify_unbond_inputs", lambda *a: verified.append(a))
    config = ScenarioConfig()
    world = build_world(config)
    co_sign_the_first_vault(lambda world: world.instances[0].address_ids["UCA"])(world)
    world.run(config.horizon_blocks)
    assert verified == []
    assert [kind for _, _, kind, _ in world.resting.values()] == ["to_key"]
    assert any(e["action"] == "unbond_resolve_expired" for e in world.trace)
