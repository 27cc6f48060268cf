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
of confirmed spends through output 0 that ``BtcChain.spine`` walks,
which makes the verdicts independent of fee noise.  The grader reads
where each deposit rests with the reading the actors use: one
``World.read_resting()`` after the last block follows every deposit's
spine from ``World.vaults``, as ``World.resting`` does whenever a block
has spent.  A moved deposit is graded by the address kind it rests on,
and its exit completed at that output's confirmed height; a deposit
the reading leaves out rests on its vault; one that does neither is
untracked.  ``liquidation_spans`` reads the first two rows of each path
the reading keeps.

The failure matrix re-runs eight scripted scenarios spanning honest
operation, a lying operator, depositor theft (with and without a leaked
oracle key), a halted destination chain, a corrupted oracle quorum, and
a combined attack, and compares each verdict triple with the documented
expectation.  Its rows are scenario files shipped with the package,
``matrix/NN_<name>.scn``, read in name order through the same
``parse_scenario`` as any other file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from importlib import resources

from .actors import DepositorActor, OracleActor, TokenOperatorActor, World
from .arbitration import ArbitrationOracle
from .attestation import EnclaveImage, MockAttestationAuthority, MockKms
from .chain import BtcChain, StepSchedule
from .destchain import DestChain, sign_checkpoint
from .keys import keypair_from_seed, sign_digest
from .psbt import ACTIVATION_DEPTH, AoIdentity, VerificationFailed, run_setup_ceremony
from .registry import Registry, UtxoStatus, encode
from .scenario import (
    VERSION_LIFETIME, DepositorBehavior, OperatorBehavior, OracleBehavior, ScenarioConfig,
    parse_scenario,
)


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
    chain = BtcChain(StepSchedule(config.fee_base, config.fee_steps))
    to_keypair = keypair_from_seed(b"operator")
    registry = Registry(
        t1=config.t1,
        t2=config.t2,
        t3=config.t3,
        slots_per_block=config.slots_per_block,
        to_pubkey=to_keypair.public,
    )
    dest = DestChain(registry, finality_interval=config.finality_interval, wsp=config.wsp_slots)
    authority = MockAttestationAuthority()
    kms = MockKms()
    image = EnclaveImage(
        code_id=b"arbiter-v1", config=b"standard", signer_cert=b"oracle-vendor"
    )
    expiry = config.t3 * VERSION_LIFETIME
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
        )
        oracle.key_init()
        oracle.sync(dest, sign_checkpoint(dest.latest_finalized(), to_keypair))
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
    dest.advance(ACTIVATION_DEPTH * config.slots_per_block)  # the blocks the ceremony mined

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


def _location(kind: str | None) -> str:
    if kind is None:
        return "other"
    return {"dep_return": "depositor", "to_key": "operator"}.get(kind, "instance")


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
    resting = world.read_resting()
    for outpoint, (instance, vault) in sorted(world.vaults.items()):
        record = registry.records[outpoint]
        if record.status is UtxoStatus.REJECTED:
            continue
        # a deposit not in the reading rests on its vault, if that is unspent
        _, utxo, kind, *_ = resting.get(outpoint) or (instance, chain.utxo_set.get(vault), "VA")
        attacked = _deposit_attacked(config, vault.index)
        if utxo is None:
            locations[outpoint] = "other"
            if not attacked:
                dep_safe = False
                reasons.append(f"{outpoint}: value untracked at horizon")
            continue
        location = _location(kind)
        locations[outpoint] = location
        if attacked:
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
            moved_at = utxo.confirmed_height
            if deadline is not None and moved_at > deadline:
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
    """(request confirmed, challenge output spent) height pairs for every
    deposit whose path in ``World.resting`` starts with a rebalance
    request to its RCA output and goes on with that output's spend, by
    the operator's claim after the timeout or an oracle's resolution."""
    confirmed_at = world.chain.confirmed_at
    return [
        (confirmed_at[path[0].txid], confirmed_at[path[1].txid])
        for instance, _, _, path in world.resting.values()
        if len(path) > 1 and path[0].outputs[0].address_id == instance.address_ids["RCA"]
    ]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    world = build_world(config)
    world.run(config.horizon_blocks)
    verdicts = compute_verdicts(world, config)
    return ScenarioResult(
        name=config.name,
        verdicts=verdicts,
        trace=world.trace,
        trace_digest=hashlib.sha256(encode(world.trace).encode()).hexdigest(),
        final_height=world.chain.height,
        snapshot_digest=world.registry.state_digest(),
        world=world,
    )


# ---------------------------------------------------------------------------
# the failure matrix


MATRIX_DIR = resources.files(__package__) / "matrix"


def matrix_scenarios() -> list[ScenarioConfig]:
    """The failure matrix: one packaged ``matrix/NN_<name>.scn`` file per
    row, parsed in name order.  Each row names a failure condition and
    carries the verdict triple it expects in its ``[expect]`` section."""
    files = sorted(
        (f for f in MATRIX_DIR.iterdir() if f.name.endswith(".scn")), key=lambda f: f.name
    )
    return [parse_scenario(f.read_text(encoding="utf-8")) for f in files]


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
