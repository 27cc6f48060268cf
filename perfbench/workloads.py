"""Seeded workload generators and the per-operation output checks.

Each workload turns a seed into an endless, deterministic stream of
blocks of inputs for the public API of ``bsa_sim`` and runs one input at
a time (a closed loop with one caller).  Streams follow a fixed design:
block ``k`` of a stream holds the same mix of the input properties that set
the cost of an operation (deposit count, depositor and operator
behaviour, oracle kinds, fee spikes, tampering) on every seed, and the
seed draws the order within the block and every other parameter.  Runs
of whole blocks therefore do comparable work on every seed, so the
spread between runs is mostly the machine's.

Calls into ``bsa_sim`` go through module attributes (``harness.run_scenario``)
so that the tracer's patched bindings are the ones that run.  Each
``run_*`` function takes ``checking``, a context-manager factory under
which it computes its own check digests, so that a traced run does not
count the benchmark's checks as program work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from bsa_sim import harness
from bsa_sim.actors import DepositorBehavior, OperatorBehavior, OracleBehavior
from bsa_sim.psbt import VerificationFailed
from bsa_sim.scenario import ScenarioConfig


@dataclass
class OpOutcome:
    """What one operation produced, as the benchmark sees it."""

    digest: str
    failure: str | None  # None when every check passed
    units: int  # scenarios, blocks or deposits completed
    busy_s: float  # time inside the measured calls
    samples: list[float] = field(default_factory=list)  # latencies, seconds


Checking = Callable[[], AbstractContextManager]


def _sha(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def trace_digest(trace: list[dict]) -> str:
    """The digest ``harness.run_scenario`` computes over a world trace."""
    canonical = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _triple(verdicts) -> str:
    return "".join("Y" if v else "N" for v in verdicts.triple())


def _amounts(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    return [rng.randrange(low, high + 1) for _ in range(n)]


# ---------------------------------------------------------------------------
# sweep: randomized adversarial scenarios, graded against the trust claim

# The behaviour space and probabilities of harness.random_adversarial_config:
# each depositor kind 1/3, each operator kind 1/4, each amount split 1/3, and
# each of the 3 oracles correct 45%, refusing 20%, offline 20%, offline for a
# window 15%.  A block of twelve scenarios holds these shares as whole counts.
DEP_KINDS = ("passive", "exit", "theft")
OP_KINDS = ("honest", "griefing", "seize", "griefing-seize")
# Correct oracles per scenario in one block: 2/5/4/1 scenarios with 0/1/2/3,
# the binomial(3, 0.45) shares (17/41/33/9%) in twelfths, 16 of 36 oracles.
CORRECT_ORACLES = (0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3)
# The other 20 oracles of a block: refusing, offline, window in 20:20:15.
FAULTY_DECK = ("refuse", "offline", "window") * 6 + ("refuse", "offline")


def _oracle(kind: str, rng: random.Random, p: dict) -> OracleBehavior:
    if kind == "correct":
        return OracleBehavior()
    if kind == "refuse":
        return OracleBehavior(refuse_resolutions=True)
    if kind == "offline":
        return OracleBehavior(offline=(0, p["horizon_blocks"]))
    start = rng.randrange(*p["window_start_range"])
    return OracleBehavior(offline=(start, start + rng.randrange(*p["window_length_range"])))


def sweep_design(block: int, n_splits: int) -> list[tuple]:
    """The structure of one block of twelve scenarios, the same for every
    seed: each (depositor kind i, operator kind j) pair once, with amount
    split ``(i + j + block) % n_splits``, the correct-oracle count
    ``CORRECT_ORACLES[(4i + j + block) % 12]`` and the remaining oracles
    dealt from ``FAULTY_DECK`` in turn, and a fee spike on two of the four
    scenarios of each depositor kind.  Over twelve blocks each pair meets
    every entry of ``CORRECT_ORACLES`` once."""
    cells, dealt = [], block
    for i, dep in enumerate(DEP_KINDS):
        for j, op in enumerate(OP_KINDS):
            correct = CORRECT_ORACLES[(len(OP_KINDS) * i + j + block) % len(CORRECT_ORACLES)]
            oracles = ["correct"] * correct
            for _ in range(3 - correct):
                oracles.append(FAULTY_DECK[dealt % len(FAULTY_DECK)])
                dealt += 1
            split = (i + j + block) % n_splits
            cells.append((split, dep, op, oracles, (i + 2 * j + block) % 4 < 2))
    return cells


def _sweep_config(rng: random.Random, p: dict, index: int, cell: tuple) -> ScenarioConfig:
    """One scenario as ``harness.random_adversarial_config`` draws it, with
    the choices that ``sweep_design`` fixes taken from ``cell``, plus an
    optional fee spike (``fee_steps``)."""
    split, dep_kind, op_kind, oracles, fee_spike = cell
    amounts = list(p["amount_splits"][split])
    depositor = DepositorBehavior()
    if dep_kind == "exit":
        depositor = DepositorBehavior(exit_at=rng.choice(p["exit_heights"]))
    elif dep_kind == "theft":
        depositor = DepositorBehavior(
            exit_at=rng.choice(p["exit_heights"]),
            exit_deposit_index=rng.randrange(len(amounts)),
            burn_before_exit=False,
        )
    operator = OperatorBehavior(
        challenge_legitimate="griefing" in op_kind,
        false_rebalance_at=rng.choice(p["seize_heights"]) if "seize" in op_kind else None,
    )
    fee_steps = []
    if fee_spike:
        start = rng.randrange(*p["fee_spike_start_range"])
        fee_steps = [
            (start, rng.choice(p["fee_spike_rates"])),
            (start + rng.randrange(*p["fee_spike_length_range"]), 1),
        ]
    return ScenarioConfig(
        name=f"sweep-{index}",
        amounts=amounts,
        horizon_blocks=p["horizon_blocks"],
        fee_steps=fee_steps,
        depositor=depositor,
        operator=operator,
        oracles=[_oracle(kind, rng, p) for kind in rng.sample(oracles, len(oracles))],
    )


def sweep_stream(seed: int, p: dict) -> Iterator[list[ScenarioConfig]]:
    """Blocks of twelve scenarios with the structure of ``sweep_design``;
    the seed draws their order within the block, the oracles' positions
    and every other parameter.  Any run of whole blocks therefore has the
    same mix of costly and cheap scenarios on every seed."""
    rng = random.Random(seed)
    index = 0
    for block in itertools.count():
        cells = sweep_design(block, len(p["amount_splits"]))
        rng.shuffle(cells)
        configs = []
        for cell in cells:
            configs.append(_sweep_config(rng, p, index, cell))
            index += 1
        yield configs


def run_sweep(config: ScenarioConfig, checking: Checking) -> OpOutcome:
    t0 = time.perf_counter()
    result = harness.run_scenario(config)
    busy = time.perf_counter() - t0
    verdicts = result.verdicts
    # graded as harness.trust_model_sweep grades each scenario
    row = harness.SweepRow(
        name=config.name,
        assumption_holds=any(harness.oracle_correct(b) for b in config.oracles)
        or harness.operator_honest(config.operator),
        honest_parties_safe=(
            not harness.depositor_honest(config.depositor) or verdicts.depositor_safe
        ) and (not harness.operator_honest(config.operator) or verdicts.operator_safe),
        triple=verdicts.triple(),
    )
    failure = None
    if not row.consistent:
        failure = f"{config.name}: trust claim broken {_triple(verdicts)} {verdicts.reasons}"
    digest = _sha(result.trace_digest, result.snapshot_digest, _triple(verdicts))
    return OpOutcome(digest, failure, 1, busy, [busy])


# ---------------------------------------------------------------------------
# hold: one long, dispute-free world per operation


def hold_stream(seed: int, p: dict) -> Iterator[list[ScenarioConfig]]:
    """Blocks of two worlds whose deposit counts add up to ``low + high``:
    block ``k`` holds ``low + j`` and ``high - j`` deposits with
    ``j = k % (span // 2 + 1)``, the same on every seed, so that any run of
    whole blocks averages the middle of the range and small and large
    registries alternate.  The seed draws the offline windows, amounts and
    owner."""
    rng = random.Random(seed)
    low, high = p["deposit_range"]
    index = 0
    for block in itertools.count():
        j = block % ((high - low) // 2 + 1)
        worlds = []
        for n in (low + j, high - j):
            oracles = [OracleBehavior() for _ in range(p["n_oracles"] - p["n_windowed"])]
            for _ in range(p["n_windowed"]):
                start = rng.randrange(*p["window_start_range"])
                length = rng.randrange(*p["window_length_range"])
                oracles.append(OracleBehavior(offline=(start, start + length)))
            rng.shuffle(oracles)
            worlds.append(ScenarioConfig(
                name=f"hold-{index}",
                owner=f"holder-{rng.getrandbits(32):08x}",
                amounts=_amounts(rng, n, *p["amount_range"]),
                horizon_blocks=p["horizon_blocks"],
                oracles=oracles,
            ))
            index += 1
        yield worlds


def simulate(config: ScenarioConfig):
    """What ``harness.run_scenario`` does, one block at a time so that each
    block is timed.  Returns the world, its verdicts and the block times."""
    world = harness.build_world(config)
    ticks = []
    for _ in range(config.horizon_blocks):
        t0 = time.perf_counter()
        world.tick()
        ticks.append(time.perf_counter() - t0)
    return world, harness.compute_verdicts(world, config), ticks


def run_hold(config: ScenarioConfig, checking: Checking) -> OpOutcome:
    world, verdicts, ticks = simulate(config)
    failure = None
    refused = [e for e in world.trace if e["action"] == "sync_refused"]
    if verdicts.triple() != (True, True, True) or refused:
        failure = f"{config.name}: {_triple(verdicts)}, {len(refused)} sync refusals"
    synced = ",".join(str(a.oracle.last_synced_slot) for a in world.oracles)
    with checking():
        state = world.registry.state_digest()
    digest = _sha(trace_digest(world.trace), state, _triple(verdicts), synced)
    return OpOutcome(digest, failure, len(ticks), sum(ticks), ticks)


# ---------------------------------------------------------------------------
# ceremony: build_world only, some with a tampered registry copy


@dataclass
class Ceremony:
    config: ScenarioConfig
    tampered: bool


def _swap_resolve_rows(outpoint, texts):
    tampered = dict(texts)
    tampered["unbond_resolve"] = tampered["rebalance_resolve"]
    return tampered


def ceremony_stream(seed: int, p: dict) -> Iterator[list[Ceremony]]:
    """Blocks that each run every deposit count twice, each half in seeded
    order.  With ``key = deposits + span * half + 5 * block``, a ceremony
    has ``low + key % span`` oracles and is tampered when ``key`` is a
    multiple of ``tamper_every``: a block covers ``2 * span`` consecutive
    keys, so one ceremony in ``tamper_every`` is tampered and the oracle
    counts are spread evenly, the same on every seed."""
    rng = random.Random(seed)
    low, high = p["deposit_range"]
    o_low, o_high = p["oracle_range"]
    span = high - low + 1
    index = 0
    for block in itertools.count():
        ceremonies = []
        for half in range(2):
            for n in rng.sample(range(low, high + 1), span):
                key = n + span * half + 5 * block
                config = ScenarioConfig(
                    name=f"ceremony-{index}",
                    owner=f"owner-{rng.getrandbits(32):08x}",
                    amounts=_amounts(rng, n, *p["amount_range"]),
                    n_oracles=o_low + key % (o_high - o_low + 1),
                )
                ceremonies.append(Ceremony(config, key % p["tamper_every"] == 0))
                index += 1
        yield ceremonies


def run_ceremony(item: Ceremony, checking: Checking) -> OpOutcome:
    config = item.config
    tamper = _swap_resolve_rows if item.tampered else None
    t0 = time.perf_counter()
    try:
        world = harness.build_world(config, sar_tamper=tamper)
    except VerificationFailed as exc:
        busy = time.perf_counter() - t0
        if not item.tampered:
            raise
        return OpOutcome(_sha("rejected", str(exc)), None, 0, busy, [busy])
    busy = time.perf_counter() - t0
    if item.tampered:
        failure = f"{config.name}: tampered registry copy was accepted"
        return OpOutcome(_sha("accepted"), failure, 0, busy, [busy])
    instance = world.instances[0]
    with checking():
        state = world.registry.state_digest()
    digest = _sha(
        instance.funding_txid, state, *(a.address_id for a in instance.addresses.all())
    )
    return OpOutcome(digest, None, len(config.amounts), busy, [busy])


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int, dict], Iterator[list]]  # blocks of operations
    run: Callable[[object, Checking], OpOutcome]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_stream, run_sweep),
        Workload("hold", hold_stream, run_hold),
        Workload("ceremony", ceremony_stream, run_ceremony),
    )
}
