"""Deterministic simulator for a two-ledger, self-custodial collateral
protocol: covenant-emulated vaults on a simulated Bitcoin-like chain,
a token registry on a simulated finality-based chain, and TEE-modeled
arbitration oracles in between, plus a failure-injection harness that
grades safety from final chain state.
"""

from .arbitration import ArbitrationOracle, Rejection
from .availability import (
    availability_report,
    challenge_uptime_bound,
    required_uptime,
    sync_uptime_bound,
)
from .chain import BtcChain, Outpoint
from .destchain import DestChain
from .harness import (
    build_world,
    compute_verdicts,
    run_matrix,
    run_scenario,
)
from .keys import Transition, build_protocol_addresses
from .psbt import (
    ProtocolInstance,
    PsbtTemplate,
    build_psbt,
    run_setup_ceremony,
)
from .registry import Registry, UtxoStatus
from .scenario import ScenarioConfig, load_scenario, parse_scenario

__all__ = [
    "ArbitrationOracle",
    "BtcChain",
    "DestChain",
    "Outpoint",
    "ProtocolInstance",
    "PsbtTemplate",
    "Registry",
    "Rejection",
    "ScenarioConfig",
    "Transition",
    "UtxoStatus",
    "availability_report",
    "build_protocol_addresses",
    "build_psbt",
    "build_world",
    "challenge_uptime_bound",
    "compute_verdicts",
    "load_scenario",
    "parse_scenario",
    "required_uptime",
    "run_matrix",
    "run_scenario",
    "run_setup_ceremony",
    "sync_uptime_bound",
]

__version__ = "0.1.0"
