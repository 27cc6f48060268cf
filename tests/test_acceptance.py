"""Top-level acceptance gate: ten checks, one test each, every one
printing a single PASS/FAIL line with its measured numbers.

Tolerances are stated inline: equality checks are exact, uptime bounds
compare at six decimal places, runtime budgets and trial counts are
spelled out in the asserts.
"""

import itertools
import pathlib
import random
import time
from bisect import bisect_left

import pytest

import test_actors as actors
import test_arbitration as arb
import test_availability as avail
import test_chain as chain_tests
import test_keys_addresses as keys_tests
import test_psbt as psbt_tests

from bsa_sim.attestation import EnclaveImage, KmsPolicyDenied
from bsa_sim.arbitration import StaleCheckpoint
from bsa_sim.availability import (
    challenge_uptime_bound,
    gap_condition,
    serves_all_challenges,
    sync_uptime_bound,
)
from bsa_sim.chain import Outpoint
from bsa_sim.curve import NUMS_BASE, NUMS_X
from bsa_sim.destchain import sign_checkpoint
from bsa_sim.harness import run_matrix, run_scenario, trust_model_sweep
from bsa_sim.keys import Transition, build_protocol_addresses, key_address_id, keypair_from_seed
from bsa_sim.psbt import (
    PsbtTemplate,
    TxOutput,
    add_fee_input,
    finalize_to_tx,
    required_child_fee,
    verify_partial_sigs,
)
from bsa_sim.registry import REQUIRED_PSBT_SLOTS, Registry, UtxoRecord, UtxoStatus
from bsa_sim.scenario import DepositorBehavior, load_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def arbworld():
    return arb.ArbWorld()


# -- 1: scripted failure matrix ------------------------------------------------


def test_c01_failure_matrix_exact_within_ten_seconds():
    """All 8 scripted failure rows produce their expected verdict
    triples exactly, in under 10 seconds wall clock."""
    start = time.monotonic()
    rows = run_matrix()
    elapsed = time.monotonic() - start
    matched = sum(r.ok for r in rows)
    ok = len(rows) == 8 and matched == 8 and elapsed < 10.0
    _report(1, ok, f"{matched}/8 rows exact in {elapsed:.2f}s (budget 10s)")


# -- 2: arbiter decisions equal an independent reimplementation ----------------


def test_c02_arbiter_matches_reference_decision_table(arbworld):
    """Every record status crossed with every single-fault input
    variant gives the same outcome (and the same rejection gate) as the
    independently written decision functions; the signing rule is exactly
    status != spent-on-rebalance for seizures and status in
    {withdrawn, rejected} for exit disputes."""
    world = arbworld
    oracle = world.oracle
    cases = mismatches = 0
    sign_kind = {"rebalance": {}, "unbond": {}}
    try:
        for status in arb.ALL_STATUSES:
            world.set_status(status)
            for name, outpoint, tx in arb.rebalance_variants(world):
                got = arb.run_rebalance(oracle, outpoint, tx)
                want = arb.expect_rebalance(
                    oracle.view, oracle.keypair.public, arb.IMAGE.pcr0,
                    oracle.now_slot, outpoint, tx,
                )
                cases += 1
                if got[0] != want[0] or (want[0] == "reject" and got[1] != want[1]):
                    mismatches += 1
                if name == "valid":
                    sign_kind["rebalance"][status] = got[0]
            for name, outpoint, request, challenge in arb.unbond_variants(world):
                got = arb.run_unbond(oracle, outpoint, request, challenge)
                want = arb.expect_unbond(
                    oracle.view, oracle.keypair.public, arb.IMAGE.pcr0,
                    oracle.now_slot, outpoint, request, challenge,
                )
                cases += 1
                if got[0] != want[0] or (want[0] == "reject" and got[1] != want[1]):
                    mismatches += 1
                if name == "valid":
                    sign_kind["unbond"][status] = got[0]
    finally:
        world.set_status(UtxoStatus.ACTIVE)
    rebalance_rule = all(
        (kind == "sign") == (status is not UtxoStatus.SPENT_ON_REBALANCE)
        for status, kind in sign_kind["rebalance"].items()
    )
    unbond_rule = all(
        (kind == "sign") == (status in (UtxoStatus.WITHDRAWN, UtxoStatus.REJECTED))
        for status, kind in sign_kind["unbond"].items()
    )
    ok = cases == 70 and mismatches == 0 and rebalance_rule and unbond_rule
    _report(
        2,
        ok,
        f"{cases - mismatches}/{cases} status-by-variant decisions match the"
        f" reference; signing rules hold on all 5 statuses",
    )


# -- 3: unspendable internal key, golden addresses, avalanche ------------------


def test_c03_internal_key_constant_goldens_and_avalanche():
    """The unspendable base point x is the frozen constant, the golden
    address vectors reproduce byte for byte, and 1000 single-field
    changes each move all four addresses with zero collisions."""
    want_x = 0x50929B74C1A04954B78B4B6035E97A5E078A5A0F28EC96D547BFEE9ACE803AC0
    constant_ok = NUMS_X == want_x and NUMS_BASE.x == want_x

    td = keys_tests.make_tweak_data("golden", n_oracles=3, t1=6, t2=10)
    addresses = build_protocol_addresses(td)
    lines = [f"tweak_digest {td.digest_hex()}"]
    for addr in addresses.all():
        lines.append(
            f"{addr.kind} {addr.address_id}"
            f" internal={addr.internal_key.compressed().hex()}"
            f" root={addr.merkle_root.hex()}"
        )
    golden_ok = lines == keys_tests.GOLDEN.read_text().strip().splitlines()

    rng = random.Random(2026)
    flips = moved = 0
    seen: dict[str, str] = {}
    collisions = 0
    round_no = 0
    while flips < 1000:
        base_td = keys_tests.make_tweak_data(f"avalanche-{round_no}")
        round_no += 1
        base = keys_tests.address_ids(base_td)
        for addr_id in base:
            prior = seen.setdefault(addr_id, base_td.digest_hex())
            if prior != base_td.digest_hex():
                collisions += 1
        for variant in keys_tests.field_variants(base_td, rng):
            changed = keys_tests.address_ids(variant)
            flips += 1
            if all(a != b for a, b in zip(base, changed)):
                moved += 1
            for addr_id in changed:
                prior = seen.setdefault(addr_id, variant.digest_hex())
                if prior != variant.digest_hex():
                    collisions += 1
            if flips >= 1000:
                break
    ok = constant_ok and golden_ok and moved == flips == 1000 and collisions == 0
    _report(
        3,
        ok,
        f"constant exact, goldens stable, {moved}/1000 field flips moved all"
        f" four addresses, {collisions} collisions across {len(seen)} addresses",
    )


# -- 4: package fee rule and ANYONECANPAY fee inputs ---------------------------


def test_c04_fee_rule_grid_and_acp_preservation():
    """(a) On randomized fee grids a parent/child package confirms
    exactly when own-fee or combined-fee meets the rate-times-weight
    requirement, and the minimum child fee formula is tight at the
    boundary. (b) Adding fee inputs to ANYONECANPAY rows preserves the
    existing signatures in 1000/1000 fuzz cases."""
    rng = random.Random(41)
    grid_cases = grid_mismatches = 0
    for rate in (1, 2, 3, 4):
        kp = chain_tests.keypair(f"accept-package-{rate}")
        for _ in range(50):
            parent_fee = rng.randrange(0, 3 * rate + 2)
            child_fee = rng.randrange(0, 6 * rate + 6)
            chain = chain_tests.fresh_chain(base_rate=rate)
            addr = chain.ensure_key_address(kp.public)
            parent, child = chain_tests.build_anchor_package(
                chain, kp, addr, parent_fee, child_fee
            )
            mined = set(chain.mine_block())
            parent_alone = parent_fee >= rate * parent.weight
            package = parent_fee + child_fee >= rate * (parent.weight + child.weight)
            child_alone_after = child_fee >= rate * child.weight
            if parent_alone:
                # a self-sufficient parent never subsidizes its child
                expect_parent, expect_child = True, child_alone_after
            else:
                expect_parent = expect_child = package
            grid_cases += 1
            if (parent.txid in mined) != expect_parent or (
                child.txid in mined
            ) != expect_child:
                grid_mismatches += 1

    boundary_cases = boundary_mismatches = 0
    for _ in range(100):
        rate = rng.randrange(1, 5)
        kp = chain_tests.keypair(f"accept-boundary-{boundary_cases}")
        parent_fee = rng.randrange(0, 3 * rate)  # parent underpays on its own
        need = required_child_fee(parent_fee, rate * 3, rate * 3)
        outcomes = []
        for child_fee in (need, need - 1):
            chain = chain_tests.fresh_chain(base_rate=rate)
            addr = chain.ensure_key_address(kp.public)
            parent, child = chain_tests.build_anchor_package(
                chain, kp, addr, parent_fee, child_fee
            )
            outcomes.append(parent.txid in set(chain.mine_block()))
        boundary_cases += 1
        if outcomes != [True, False]:
            boundary_mismatches += 1

    w = psbt_tests.World(amounts=(9_000, 5_000))
    w.ceremony()
    inst = w.instance
    deposits = list(inst.deposits.items())
    acp_trials = acp_preserved = 0
    for _ in range(1000):
        outpoint_str, _value = deposits[rng.randrange(len(deposits))]
        name = rng.choice(["unbond_resolve", "rebalance_resolve"])
        resolve = PsbtTemplate.from_text(w.registry.get_stored_psbt(outpoint_str, name))
        executor = w.oracles[rng.randrange(len(w.oracles))]
        tx = finalize_to_tx(resolve, executor, inst)
        digest_before = tx.sighash(0)
        witness_before = list(tx.inputs[0].witness)
        fee_utxo = w.chain.seed_utxo(
            key_address_id(w.dep.public), rng.randrange(1, 500)
        )
        bumped = add_fee_input(tx, fee_utxo, w.dep)
        fee2 = w.chain.seed_utxo(key_address_id(w.dep.public), rng.randrange(1, 500))
        stacked = add_fee_input(bumped, fee2, w.dep)
        acp_trials += 1
        if (
            bumped.sighash(0) == digest_before
            and bumped.inputs[0].witness == witness_before
            and stacked.inputs[0].witness == witness_before
            and stacked.inputs[1].witness == bumped.inputs[1].witness
        ):
            acp_preserved += 1

    ok = (
        grid_mismatches == 0
        and grid_cases == 200
        and boundary_mismatches == 0
        and acp_preserved == acp_trials == 1000
    )
    _report(
        4,
        ok,
        f"package rule exact on {grid_cases - grid_mismatches}/{grid_cases}"
        f" grid cases, child-fee boundary tight on"
        f" {boundary_cases - boundary_mismatches}/{boundary_cases} cases,"
        f" ACP signatures preserved {acp_preserved}/1000",
    )


# -- 5: seizure selection vs exhaustive search ---------------------------------


def _selection_registry(values, to_public, tweak, outpoints):
    reg = Registry(4, 6, 30, 2, to_public)
    digest = reg.store_tweak_data(tweak)
    for i, v in enumerate(values):
        reg.register_deposit(
            UtxoRecord(
                outpoint=outpoints[i],
                owner="acct:sweep",
                amount=v,
                status=UtxoStatus.REGISTERED,
                tweak_digest=digest,
                psbts={slot: "{}" for slot in REQUIRED_PSBT_SLOTS},
            ),
            caller="to",
        )
        reg.activate_on_mint(outpoints[i], caller="to")
    return reg


def test_c05_selection_exhaustive_and_over_seizure_repaid():
    """For every deposit multiset of size <= 6 with values <= 20, the
    seizure selector returns the shortest covering prefix found by
    exhaustive cumulative search, checked at every prefix-sum boundary
    (and its neighbours) plus a random interior delta. A full scripted
    run records the over-seizure and pays the claim out exactly."""
    to = keypair_from_seed(b"reg-to")
    dep = keypair_from_seed(b"reg-dep")
    ao = keypair_from_seed(b"reg-ao")
    from bsa_sim.keys import TweakData

    tweak = TweakData(
        dep_pk=dep.public,
        to_pk=to.public,
        ao_pks=(ao.public,),
        t1=4,
        t2=6,
        destination_chain_address=b"acct:sweep",
        return_address=key_address_id(dep.public).encode(),
    )
    outpoints = [f"m{i:02d}:0" for i in range(6)]
    rng = random.Random(55)
    start = time.monotonic()
    multisets = checks = mismatches = 0
    for size in range(1, 7):
        for values in itertools.combinations_with_replacement(range(1, 21), size):
            multisets += 1
            reg = _selection_registry(values, to.public, tweak, outpoints)
            records = reg.active_records("acct:sweep")
            sums = list(itertools.accumulate(values))
            total = sums[-1]
            deltas = {1, total, total + 1, rng.randrange(1, total + 1)}
            for s in sums:
                deltas.update((max(1, s - 1), s, s + 1))
            for delta in deltas:
                k = min(bisect_left(sums, delta) + 1, size)
                checks += 1
                if reg.select_for_rebalance("acct:sweep", delta) != records[:k]:
                    mismatches += 1
    elapsed = time.monotonic() - start

    config = load_scenario(str(SCENARIO_DIR / "legitimate_rebalance.scn"))
    result = run_scenario(config)
    trace = result.trace
    marked = next(e for e in trace if e["action"] == "rebalance_marked")
    repaid = next(e for e in trace if e["action"] == "over_seizure_repaid")
    registry = result.world.registry
    repay_ok = (
        marked["over_seizure"] == 1_000
        and repaid["amount"] == 1_000
        and registry.claimable.get(config.owner, 0) == 0
        and registry.claim_paid[config.owner] == 1_000
    )

    ok = multisets == 230_229 and mismatches == 0 and repay_ok
    _report(
        5,
        ok,
        f"{multisets} multisets, {checks} covering-prefix checks,"
        f" {mismatches} mismatches in {elapsed:.1f}s;"
        f" over-seizure recorded and repaid 1000/1000 units",
    )


# -- 6: exit timing lands exactly on the configured delays ---------------------


def test_c06_lifecycle_timing_exact():
    """Honest exits complete exactly t1 blocks after the request
    confirms, and challenge timeouts pay out exactly t2 blocks after the
    challenge confirms, for several configured delay values."""
    cases = exact = 0
    for t1 in (4, 6, 9):
        result = run_scenario(actors.exit_config(t1=t1))
        world = result.world
        conf = world.chain.confirmed_at
        request = next(e for e in world.trace if e["action"] == "unbond_request")
        finalize_txid = world.chain.spent_by[Outpoint(request["txid"], 0)]
        cases += 1
        if (
            conf[finalize_txid] == conf[request["txid"]] + t1
            and result.verdicts.triple() == (True, True, True)
        ):
            exact += 1
    for t2 in (6, 10):
        config = actors.exit_config(
            t2=t2, depositor=DepositorBehavior(exit_at=8, burn_before_exit=False)
        )
        result = run_scenario(config)
        world = result.world
        conf = world.chain.confirmed_at
        request = next(e for e in world.trace if e["action"] == "unbond_request")
        challenge_txid = world.chain.spent_by[Outpoint(request["txid"], 0)]
        claim_txid = world.chain.spent_by[Outpoint(challenge_txid, 0)]
        claim = world.chain.tx_index[claim_txid]
        cases += 1
        if (
            conf[claim_txid] == conf[challenge_txid] + t2
            and claim.inputs[0].path_id == "to_delay"
        ):
            exact += 1
    ok = exact == cases == 5
    _report(6, ok, f"{exact}/{cases} lifecycle timings land exactly on t1/t2")


# -- 7: uptime bounds to six decimals, simulation vs windowed condition --------


FROZEN_BOUNDS = [
    # (t2, t3, t_op, t_check, wsp) -> challenge, sync, required
    ((48, 720, 1, 4, 1344), ("0.934722", "0.002976", "0.934722")),
    ((144, 4320, 6, 48, 1344), ("0.968056", "0.035714", "0.968056")),
    ((10, 100, 2, 7, 28), ("0.920000", "0.250000", "0.920000")),
]


def test_c07_uptime_bounds_and_schedule_simulation():
    """The two duty-cycle bounds match frozen hand-computed values to
    six decimal places on three parameter sets, and on 500 randomized
    duty schedules the brute-force challenge simulation agrees with the
    closed-form offline-gap condition every time."""
    bounds_ok = True
    for (t2, t3, t_op, t_check, wsp), frozen in FROZEN_BOUNDS:
        challenge = challenge_uptime_bound(t2, t3, t_op)
        sync = sync_uptime_bound(t_check, wsp)
        got = (
            f"{float(challenge):.6f}",
            f"{float(sync):.6f}",
            f"{float(max(challenge, sync)):.6f}",
        )
        if got != frozen:
            bounds_ok = False

    rng = random.Random(2026)
    agreements = 0
    for _ in range(500):
        sched = avail.random_schedule(rng)
        t_op = rng.randrange(0, 4)
        t2 = t_op + rng.randrange(1, 20)
        if serves_all_challenges(sched, t2, t_op) == gap_condition(sched, t2, t_op):
            agreements += 1
    ok = bounds_ok and agreements == 500
    _report(
        7,
        ok,
        f"3/3 parameter sets exact at 6 decimals;"
        f" simulation agrees with the gap condition on {agreements}/500 schedules",
    )


# -- 8: version expiry, resync boundary, sealed key policy ---------------------


def test_c08_version_expiry_resync_boundary_and_key_policy(arbworld):
    """(a) With an expired enclave version the arbiter signs nothing,
    across every record status and both flows, and matches the reference
    rejection gate. (b) The light-client resync requirement flips exactly
    at the weak-subjectivity period: wsp-1 slots offline syncs bare,
    wsp and wsp+1 need an operator-signed checkpoint. (c) Key recovery
    under a foreign image signer is denied 100/100 times."""
    world = arbworld
    oracle = world.oracle
    signed = comparisons = reference_mismatches = 0
    boundary_expiry = lambda: oracle.now_slot + world.dest.finality_interval  # noqa: E731
    try:
        for expiry_maker in (lambda: None, lambda: 1, boundary_expiry):
            world.set_version_expiry(expiry_maker())
            for status in arb.ALL_STATUSES:
                world.set_status(status)
                tx = world.rebalance_request_tx()
                got = arb.run_rebalance(oracle, world.outpoint, tx)
                want = arb.expect_rebalance(
                    oracle.view, oracle.keypair.public, arb.IMAGE.pcr0,
                    oracle.now_slot, world.outpoint, tx,
                )
                comparisons += 1
                if got[0] == "sign":
                    signed += 1
                if got[0] != want[0] or (want[0] == "reject" and got[1] != want[1]):
                    reference_mismatches += 1
                request, challenge = world.unbond_pair()
                got = arb.run_unbond(oracle, world.outpoint, request, challenge)
                want = arb.expect_unbond(
                    oracle.view, oracle.keypair.public, arb.IMAGE.pcr0,
                    oracle.now_slot, world.outpoint, request, challenge,
                )
                comparisons += 1
                if got[0] == "sign":
                    signed += 1
                if got[0] != want[0] or (want[0] == "reject" and got[1] != want[1]):
                    reference_mismatches += 1
    finally:
        world.set_version_expiry(4_000)
        world.set_status(UtxoStatus.ACTIVE)

    below = arb.make_sync_world()
    below.dest.advance(below.dest.wsp - 1)
    below.oracle.sync(below.dest)
    below_ok = below.oracle.last_seen_slot == below.dest.slot

    boundary_ok = []
    for extra in (0, 1):
        w = arb.make_sync_world()
        w.dest.advance(w.dest.wsp + extra)
        try:
            w.oracle.sync(w.dest)
            boundary_ok.append(False)
            continue
        except StaleCheckpoint:
            pass
        cp = sign_checkpoint(w.dest.latest_finalized(), w.to)
        w.oracle.sync(w.dest, to_checkpoint=cp)
        boundary_ok.append(w.oracle.last_seen_slot == w.dest.slot)

    rng = random.Random(88)
    denied = 0
    original = oracle.keypair.public
    try:
        for _ in range(100):
            foreign = EnclaveImage(b"arbiter-v2", b"standard", rng.randbytes(12))
            try:
                oracle.key_restore(image=foreign)
            except KmsPolicyDenied:
                denied += 1
    finally:
        oracle.image = arb.IMAGE
        restored = oracle.key_restore()

    ok = (
        signed == 0
        and reference_mismatches == 0
        and comparisons == 30
        and below_ok
        and all(boundary_ok)
        and len(boundary_ok) == 2
        and denied == 100
        and restored.public == original
    )
    _report(
        8,
        ok,
        f"0 signatures from {comparisons} expired-version attempts;"
        f" resync flips exactly at the weak-subjectivity period;"
        f" foreign-signer key restore denied {denied}/100",
    )


# -- 9: any output mutation breaks the pre-signatures --------------------------


def test_c09_output_mutation_invalidates_presignatures():
    """Changing any output address (or value) of any pre-signed template
    invalidates at least one stored signature, 1000/1000 trials."""
    w = psbt_tests.World(amounts=(9_000, 5_000))
    w.ceremony()
    inst = w.instance
    deposits = list(inst.deposits)
    stored_slots = ["unbond_request", "unbond_resolve", "rebalance_resolve"]
    held_slots = [Transition.UNBOND_CHALLENGE, Transition.REBALANCE_REQUEST]
    rng = random.Random(2027)
    trials = invalidated = 0
    while trials < 1000:
        outpoint_str = deposits[rng.randrange(len(deposits))]
        if rng.random() < 0.6:
            slot = stored_slots[rng.randrange(3)]
            psbt = PsbtTemplate.from_text(w.registry.get_stored_psbt(outpoint_str, slot))
        else:
            held = inst.to_psbts[outpoint_str][held_slots[rng.randrange(2)]]
            psbt = PsbtTemplate.from_text(held.to_text())
        assert psbt.partial_sigs and verify_partial_sigs(psbt, inst)
        attacker = key_address_id(keypair_from_seed(rng.randbytes(8)).public)
        outputs = list(psbt.outputs)
        idx = rng.randrange(len(outputs))
        if rng.random() < 0.75:
            if outputs[idx].address_id == attacker:
                continue
            outputs[idx] = TxOutput(attacker, outputs[idx].value)
        else:
            outputs[idx] = TxOutput(outputs[idx].address_id, outputs[idx].value + 1)
        mutated = PsbtTemplate(
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
        trials += 1
        if not verify_partial_sigs(mutated, inst):
            invalidated += 1
    ok = invalidated == trials == 1000
    _report(9, ok, f"{invalidated}/1000 output mutations invalidated a pre-signature")


# -- 10: randomized trust-model sweep ------------------------------------------


def test_c10_trust_model_sweep():
    """Across 200 seeded adversarial scenarios, honest participants
    never lose funds while at least one arbiter is correct or the
    operator is honest; at least one run outside those assumptions shows
    real loss; the whole sweep stays under 2 minutes."""
    start = time.monotonic()
    rows = trust_model_sweep(200, seed=7)
    elapsed = time.monotonic() - start
    violations = [r for r in rows if not r.consistent]
    counterexamples = [
        r for r in rows if not r.assumption_holds and not r.honest_parties_safe
    ]
    ok = (
        len(rows) == 200
        and not violations
        and len(counterexamples) >= 1
        and elapsed < 120.0
    )
    _report(
        10,
        ok,
        f"200 scenarios in {elapsed:.1f}s (budget 120s): {len(violations)}"
        f" safety violations under the trust assumptions,"
        f" {len(counterexamples)} counterexamples outside them",
    )
