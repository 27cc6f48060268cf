"""Failure-injection harness: builds complete worlds from scenario
configs, runs them, and grades the outcome.

Grading is accounting-based, computed from the final chain and registry
state rather than from the actors' own claims:

* depositor safety: every deposit owned by an honest depositor must end
  either still locked (with no exit pending past its deadline), paid to
  the depositor's key in time, or seized with a matching
  spent-on-rebalance record and any over-seizure repaid.
* operator safety: tokens visible inside the tracked perimeter must not
  exceed the face value of still-locked deposits plus what the operator
  legitimately gained on-chain, net of over-seizure repayments.
* protocol safety: both of the above.

Deposits are traced at face value to the end of their spine, the chain
of confirmed spends through output 0 that ``BtcChain.spine_end`` walks,
which makes the verdicts independent of fee noise.

The failure matrix re-runs eight scripted scenarios spanning honest
operation, a lying operator, depositor theft (with and without a leaked
oracle key), a halted destination chain, a corrupted oracle quorum, and
a combined attack, and compares each verdict triple with the documented
expectation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from .actors import (
    DepositorActor,
    DepositorBehavior,
    OperatorBehavior,
    OracleActor,
    OracleBehavior,
    TokenOperatorActor,
    World,
)
from .arbitration import ArbitrationOracle
from .attestation import EnclaveImage, MockAttestationAuthority, MockKms
from .chain import BtcChain, FeeSchedule, Outpoint
from .destchain import DestChain, TO_SIGNER, WspSchedule, sign_checkpoint
from .keys import keypair_from_seed, sign_digest
from .psbt import AoIdentity, VerificationFailed, run_setup_ceremony
from .registry import Registry, UtxoStatus
from .scenario import ScenarioConfig


@dataclass
class Verdicts:
    depositor_safe: bool
    operator_safe: bool
    protocol_safe: bool
    reasons: list[str] = field(default_factory=list)

    def triple(self) -> tuple[bool, bool, bool]:
        return (self.depositor_safe, self.operator_safe, self.protocol_safe)


@dataclass
class ScenarioResult:
    name: str
    verdicts: Verdicts
    trace: list[dict]
    trace_digest: str
    final_height: int
    snapshot_digest: str
    world: World


def build_world(config: ScenarioConfig, sar_tamper=None) -> World:
    """Assemble chain, destination chain, registry, a registered oracle
    version, funded wallets, synced oracles, and actors, and run the
    deposit setup ceremony."""
    chain = BtcChain(FeeSchedule(config.fee_base, list(config.fee_steps)))
    to_keypair = keypair_from_seed(b"operator")
    registry = Registry(
        t1=config.t1,
        t2=config.t2,
        t3=config.t3,
        slots_per_block=config.slots_per_block,
        to_pubkey=to_keypair.public,
    )
    dest = DestChain(
        registry,
        finality_interval=config.finality_interval,
        wsp_schedule=WspSchedule(base=config.wsp_slots),
    )
    authority = MockAttestationAuthority()
    kms = MockKms()
    image = EnclaveImage(
        code_id=b"arbiter-v1", config=b"standard", signer_cert=b"oracle-vendor"
    )
    expiry = config.t3 * 10
    registry.set_version_expiry(
        image.pcr0,
        expiry,
        sign_digest(to_keypair, Registry.version_payload(image.pcr0, expiry)),
    )

    oracle_actors: list[OracleActor] = []
    for i, behavior in enumerate(config.oracles):
        oracle = ArbitrationOracle(
            name=f"oracle-{i}",
            image=image,
            authority=authority,
            kms=kms,
            seed=f"oracle-seed-{i}".encode(),
            default_wsp=config.wsp_slots,
        )
        oracle.key_init()
        oracle.sync(dest, sign_checkpoint(dest.latest_finalized(), to_keypair, TO_SIGNER))
        oracle_actors.append(OracleActor(oracle.name, oracle, behavior, config.t_op_blocks))

    dep_keypair = keypair_from_seed(b"depositor-" + config.owner.encode())
    dep_address = chain.ensure_key_address(dep_keypair.public)
    to_address = chain.ensure_key_address(to_keypair.public)
    funding_margin = 4 * config.fee_base
    sources = [
        chain.seed_utxo(dep_address, amount + funding_margin)
        for amount in config.amounts
    ]
    chain.seed_utxo(dep_address, config.fee_funds)
    chain.seed_utxo(to_address, config.fee_funds)
    for actor in oracle_actors:
        addr = chain.ensure_key_address(actor.oracle.keypair.public)
        chain.seed_utxo(addr, config.fee_funds)

    identities = [
        AoIdentity(a.oracle.keypair.public, a.oracle.produce_attestation())
        for a in oracle_actors
    ]
    instance = run_setup_ceremony(
        dep_keypair=dep_keypair,
        to_keypair=to_keypair,
        ao_identities=identities,
        deposits=list(zip(sources, config.amounts)),
        chain=chain,
        registry=registry,
        authority=authority,
        owner_account=config.owner,
        expected_pcr0=image.pcr0,
        sar_tamper=sar_tamper,
    )
    dest.advance(6 * config.slots_per_block)

    world = World(
        chain=chain,
        dest=dest,
        registry=registry,
        operator=TokenOperatorActor("operator", to_keypair, config.operator),
        depositors=[
            DepositorActor("depositor", dep_keypair, config.owner, config.depositor)
        ],
        oracles=oracle_actors,
        instances=[instance],
    )
    world.dest_halted_at = config.dest_halted_at
    return world


# ---------------------------------------------------------------------------
# verdict accounting


def _location(instance, address_id: str) -> str:
    kind = instance.address_kinds.get(address_id)
    if kind is None:
        return "other"
    return {"dep_return": "depositor", "to_key": "operator"}.get(kind, "instance")


def _instance_for(world: World, record) -> object | None:
    for instance in world.instances:
        if instance.tweak_digest == record.tweak_digest:
            return instance
    return None


def _deposit_index(instance, outpoint: str) -> int | None:
    vault = Outpoint.parse(outpoint)
    return vault.index if vault.txid == instance.funding_txid else None


def _deposit_attacked(config: ScenarioConfig, index: int | None) -> bool:
    """True when the scripted depositor exits this deposit dishonestly
    (see ``depositor_honest``), so its owner is not graded as honest."""
    b = config.depositor
    return (
        b.exit_at is not None
        and not depositor_honest(b)
        and (b.exit_deposit_index is None or b.exit_deposit_index == index)
    )


def compute_verdicts(world: World, config: ScenarioConfig) -> Verdicts:
    chain = world.chain
    registry = world.registry
    reasons: list[str] = []

    dep_safe = True
    locations: dict[str, str] = {}
    for outpoint, record in sorted(registry.records.items()):
        if record.status is UtxoStatus.REJECTED:
            continue
        instance = _instance_for(world, record)
        if instance is None:
            continue
        terminal, moved_at = chain.spine_end(Outpoint.parse(outpoint))
        utxo = chain.utxo_set.get(terminal)
        if utxo is None:
            locations[outpoint] = "other"
            if not _deposit_attacked(config, _deposit_index(instance, outpoint)):
                dep_safe = False
                reasons.append(f"{outpoint}: value untracked at horizon")
            continue
        location = _location(instance, utxo.address_id)
        locations[outpoint] = location
        deposit_index = _deposit_index(instance, outpoint)
        if _deposit_attacked(config, deposit_index):
            continue

        exit_started = world.depositors[0].exit_started_at.get(outpoint)
        deadline = None
        if exit_started is not None:
            tweak = instance.tweak_data
            deadline = exit_started + tweak.t1 + tweak.t2 + config.margin_blocks
        if location == "instance":
            if deadline is not None and chain.height >= deadline:
                dep_safe = False
                reasons.append(f"{outpoint}: exit not finished by height {deadline}")
        elif location == "depositor":
            if deadline is not None and moved_at is not None and moved_at > deadline:
                dep_safe = False
                reasons.append(
                    f"{outpoint}: exit completed at {moved_at}, deadline {deadline}"
                )
        elif location == "operator":
            if record.status is not UtxoStatus.SPENT_ON_REBALANCE:
                dep_safe = False
                reasons.append(
                    f"{outpoint}: seized by the operator with status {record.status.value}"
                )
        else:
            dep_safe = False
            reasons.append(f"{outpoint}: value left the protocol")

    unpaid = {o: v for o, v in registry.claimable.items() if v > 0}
    if unpaid:
        dep_safe = False
        reasons.append(f"over-seizure unpaid: {unpaid}")

    owners = {r.owner for r in registry.records.values()}
    perimeter = 0
    for owner in sorted(owners):
        personal, defi = registry.perimeter_balance(owner)
        perimeter += personal + defi
    live_locked = sum(
        record.amount
        for outpoint, record in registry.records.items()
        if locations.get(outpoint) == "instance"
        and record.status is not UtxoStatus.REJECTED
    )
    to_gain = sum(
        record.amount
        for outpoint, record in registry.records.items()
        if locations.get(outpoint) == "operator"
    )
    repaid = sum(registry.claim_paid.values())
    to_safe = perimeter <= live_locked + to_gain - repaid
    if not to_safe:
        reasons.append(
            f"perimeter supply {perimeter} exceeds backing "
            f"{live_locked} locked + {to_gain} gained - {repaid} repaid"
        )

    return Verdicts(
        depositor_safe=dep_safe,
        operator_safe=to_safe,
        protocol_safe=dep_safe and to_safe,
        reasons=reasons,
    )


def liquidation_spans(world: World) -> list[tuple[int, int]]:
    """(request confirmed, seizure claim confirmed) height pairs for
    every rebalance that went through the challenge timeout."""
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


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    world = build_world(config)
    world.run(config.horizon_blocks)
    verdicts = compute_verdicts(world, config)
    canonical = json.dumps(world.trace, sort_keys=True, separators=(",", ":"))
    return ScenarioResult(
        name=config.name,
        verdicts=verdicts,
        trace=world.trace,
        trace_digest=hashlib.sha256(canonical.encode()).hexdigest(),
        final_height=world.chain.height,
        snapshot_digest=world.registry.state_digest(),
        world=world,
    )


# ---------------------------------------------------------------------------
# the failure matrix


def _offline_all(horizon: int) -> list[OracleBehavior]:
    return [OracleBehavior(offline=(0, horizon)) for _ in range(3)]


def _no_consensus() -> OperatorBehavior:
    """An operator whose signing quorum is down: it can neither
    challenge, claim, rebalance, nor issue checkpoints."""
    return OperatorBehavior(
        challenge_thefts=False,
        claim_expired=False,
        pay_over_seizure=False,
        provide_checkpoints=False,
    )


def matrix_scenarios() -> list[ScenarioConfig]:
    """Eight scripted runs covering the failure space: each row names a
    failure condition and carries the expected verdict triple."""
    base = dict(horizon_blocks=32)
    horizon = base["horizon_blocks"]
    rows = [
        # One oracle dark, the rest honest; the depositor burns and exits.
        ScenarioConfig(
            name="one-oracle-offline",
            depositor=DepositorBehavior(exit_at=10),
            oracles=[
                OracleBehavior(offline=(0, horizon)),
                OracleBehavior(),
                OracleBehavior(),
            ],
            expected_verdicts=(True, True, True),
            **base,
        ),
        # Every oracle dark, honest operator: a theft attempt is
        # challenged and recovered through the timeout path alone.
        ScenarioConfig(
            name="all-oracles-offline-honest-operator",
            depositor=DepositorBehavior(exit_at=10, burn_before_exit=False),
            oracles=_offline_all(horizon),
            expected_verdicts=(True, True, True),
            **base,
        ),
        # Every oracle dark, malicious operator: an unmarked seizure of a
        # passive depositor's vault goes unopposed.
        ScenarioConfig(
            name="all-oracles-offline-malicious-operator",
            operator=OperatorBehavior(false_rebalance_at=12),
            oracles=_offline_all(horizon),
            expected_verdicts=(False, True, False),
            **base,
        ),
        # An oracle key leaks to a thieving depositor, who uses it to
        # resolve the operator's challenge in their own favor.
        ScenarioConfig(
            name="oracle-key-leak",
            depositor=DepositorBehavior(
                exit_at=10, burn_before_exit=False, use_leaked_key=True
            ),
            oracles=[
                OracleBehavior(leak_secret=True),
                OracleBehavior(),
                OracleBehavior(),
            ],
            expected_verdicts=(True, False, False),
            **base,
        ),
        # The operator's signing quorum is down, so a theft goes
        # unchallenged even though the oracles are fine.
        ScenarioConfig(
            name="operator-no-consensus",
            depositor=DepositorBehavior(exit_at=10, burn_before_exit=False),
            operator=_no_consensus(),
            expected_verdicts=(True, False, False),
            **base,
        ),
        # Signing quorum down and every oracle dark.
        ScenarioConfig(
            name="operator-no-consensus-oracles-offline",
            depositor=DepositorBehavior(exit_at=10, burn_before_exit=False),
            operator=_no_consensus(),
            oracles=_offline_all(horizon),
            expected_verdicts=(True, False, False),
            **base,
        ),
        # A corrupted operator quorum attempts an unmarked seizure; a
        # correct oracle resolves it back to the depositor, so the
        # operator's own perimeter accounting breaks.
        ScenarioConfig(
            name="corrupted-operator-oracles-correct",
            operator=OperatorBehavior(false_rebalance_at=12),
            expected_verdicts=(True, False, False),
            **base,
        ),
        # Corrupted operator quorum with every oracle dark: it both
        # ignores a theft and seizes the remaining vault unopposed.
        ScenarioConfig(
            name="corrupted-operator-oracles-offline",
            amounts=[7000, 3000],
            depositor=DepositorBehavior(
                exit_at=10, exit_deposit_index=0, burn_before_exit=False
            ),
            operator=OperatorBehavior(
                challenge_thefts=False, false_rebalance_at=12
            ),
            oracles=_offline_all(horizon),
            expected_verdicts=(False, False, False),
            **base,
        ),
    ]
    return rows


def extra_scenarios() -> list[ScenarioConfig]:
    """Additional scripted runs used by tests: paths the matrix rows do
    not cover (destination-chain halt, griefing challenges with and
    without oracle protection, a do-nothing baseline)."""
    base = dict(horizon_blocks=32)
    return [
        ScenarioConfig(
            name="honest-hold",
            expected_verdicts=(True, True, True),
            **base,
        ),
        # Theft attempted while the destination chain stops finalizing:
        # oracles keep their frozen view and the timeout path still
        # protects the operator.
        ScenarioConfig(
            name="theft-during-halt",
            depositor=DepositorBehavior(exit_at=10, burn_before_exit=False),
            dest_halted_at=9,
            expected_verdicts=(True, True, True),
            **base,
        ),
        # Operator challenges a legitimate burned exit; a correct oracle
        # verifies the burn and releases the funds to the depositor.
        ScenarioConfig(
            name="griefing-challenge-defended",
            depositor=DepositorBehavior(exit_at=10),
            operator=OperatorBehavior(challenge_legitimate=True),
            expected_verdicts=(True, True, True),
            **base,
        ),
        # Same griefing challenge, but every oracle refuses to arbitrate,
        # so the operator takes the honest depositor's funds at timeout.
        ScenarioConfig(
            name="griefing-challenge-unprotected",
            depositor=DepositorBehavior(exit_at=10),
            operator=OperatorBehavior(challenge_legitimate=True),
            oracles=[OracleBehavior(refuse_resolutions=True) for _ in range(3)],
            expected_verdicts=(False, True, False),
            **base,
        ),
    ]


@dataclass
class MatrixRow:
    name: str
    expected: tuple[bool, bool, bool]
    actual: tuple[bool, bool, bool]
    reasons: list[str]

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def run_matrix() -> list[MatrixRow]:
    rows = []
    for config in matrix_scenarios():
        result = run_scenario(config)
        rows.append(
            MatrixRow(
                name=config.name,
                expected=config.expected_verdicts,
                actual=result.verdicts.triple(),
                reasons=result.verdicts.reasons,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# setup ceremony walkthrough


def ceremony_demo() -> list[str]:
    """Run the deposit setup ceremony twice (honest, then with a tampered
    registry copy) and narrate what happened."""
    lines = []
    config = ScenarioConfig(name="ceremony-demo", amounts=[9_000, 4_000])

    world = build_world(config)
    instance, registry = world.instances[0], world.registry
    lines.append("honest ceremony")
    lines.append(f"  funding txid: {instance.funding_txid}")
    for addr in instance.addresses.all():
        lines.append(f"  {addr.kind:<3} {addr.address_id}")
    for i, (outpoint, value) in enumerate(instance.deposits.items()):
        record = registry.records[outpoint]
        lines.append(
            f"  deposit {i}: {outpoint[:20]}.. value={value}"
            f" status={record.status.name}"
        )
        lines.append(f"    registry holds: {', '.join(sorted(record.psbts))}")
        held = sorted(t.value for t in instance.to_psbts[outpoint])
        lines.append(f"    operator holds: {', '.join(held)}")
    minted = registry.ledger.balance(config.owner)
    lines.append(f"  tokens minted to {config.owner}: {minted}")

    def corrupt(outpoint, texts):
        tampered = dict(texts)
        tampered["unbond_resolve"] = tampered["rebalance_resolve"]
        return tampered

    lines.append("tampered ceremony (registry swaps one stored row)")
    try:
        build_world(
            ScenarioConfig(name="ceremony-tamper", amounts=[9_000, 4_000]),
            sar_tamper=corrupt,
        )
    except VerificationFailed as exc:
        lines.append(f"  rejected before funding: {exc}")
    else:
        lines.append("  ERROR: tampered copy was accepted")
    return lines


# ---------------------------------------------------------------------------
# trust-model sweep


def oracle_correct(behavior: OracleBehavior) -> bool:
    """Correct means available for the whole run and willing to
    arbitrate. Oracles with any offline window are conservatively
    counted as not correct."""
    return (
        not behavior.refuse_resolutions
        and not behavior.leak_secret
        and behavior.offline is None
    )


def operator_honest(behavior: OperatorBehavior) -> bool:
    return (
        behavior.false_rebalance_at is None
        and not behavior.challenge_legitimate
        and behavior.challenge_thefts
        and behavior.claim_expired
        and behavior.pay_over_seizure
        and behavior.provide_checkpoints
    )


def depositor_honest(behavior: DepositorBehavior) -> bool:
    if behavior.use_leaked_key:
        return False
    return behavior.exit_at is None or behavior.burn_before_exit


def random_adversarial_config(rng: random.Random, index: int) -> ScenarioConfig:
    """One random scenario inside the baseline failure model: depositor
    and operator may deviate to their own advantage, oracles fail only
    by being unavailable (offline or refusing to arbitrate)."""
    horizon = 40
    amounts = list(rng.choice([[10_000], [7_000, 3_000], [5_000, 2_500, 2_500]]))
    dep_kind = rng.choice(["passive", "exit", "theft"])
    depositor = DepositorBehavior()
    if dep_kind == "exit":
        depositor = DepositorBehavior(exit_at=rng.choice([8, 10, 12]))
    elif dep_kind == "theft":
        depositor = DepositorBehavior(
            exit_at=rng.choice([8, 10, 12]),
            exit_deposit_index=rng.randrange(len(amounts)),
            burn_before_exit=False,
        )
    op_kind = rng.choice(["honest", "griefing", "seize", "griefing-seize"])
    operator = OperatorBehavior(
        challenge_legitimate="griefing" in op_kind,
        false_rebalance_at=rng.choice([10, 12, 14]) if "seize" in op_kind else None,
    )
    oracles = []
    for _ in range(3):
        roll = rng.random()
        if roll < 0.45:
            oracles.append(OracleBehavior())
        elif roll < 0.65:
            oracles.append(OracleBehavior(refuse_resolutions=True))
        elif roll < 0.85:
            oracles.append(OracleBehavior(offline=(0, horizon)))
        else:
            start = rng.randrange(0, 20)
            end = start + rng.randrange(4, 16)
            oracles.append(OracleBehavior(offline=(start, end)))
    return ScenarioConfig(
        name=f"sweep-{index}",
        amounts=amounts,
        horizon_blocks=horizon,
        depositor=depositor,
        operator=operator,
        oracles=oracles,
    )


@dataclass
class SweepRow:
    name: str
    assumption_holds: bool  # >= 1 correct oracle, or honest operator
    honest_parties_safe: bool
    triple: tuple[bool, bool, bool]

    @property
    def consistent(self) -> bool:
        return self.honest_parties_safe or not self.assumption_holds


def trust_model_sweep(n: int = 200, seed: int = 7) -> list[SweepRow]:
    """Run n randomized adversarial scenarios and grade each against the
    protocol's trust claim: as long as at least one oracle is correct or
    the operator is honest, no honest participant loses funds."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        config = random_adversarial_config(rng, i)
        result = run_scenario(config)
        verdicts = result.verdicts
        safe = (
            not depositor_honest(config.depositor) or verdicts.depositor_safe
        ) and (not operator_honest(config.operator) or verdicts.operator_safe)
        rows.append(
            SweepRow(
                name=config.name,
                assumption_holds=any(oracle_correct(b) for b in config.oracles)
                or operator_honest(config.operator),
                honest_parties_safe=safe,
                triple=verdicts.triple(),
            )
        )
    return rows
