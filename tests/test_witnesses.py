"""Every safeguard has a witness run: a graded file whose verdict triple
or reasons change when the safeguard is switched off.

Each row of ``WITNESSED`` names a safeguard, a patch that switches it
off (the patch lives here only; ``src/`` has no flag for it) and the
graded files that witness it: exactly those whose outcome changes under
the patch.

Safeguards with no witness yet, listed in ``UNWITNESSED``: switching
each off changes no graded outcome, because no graded actor tries what
it refuses.

- the chain's relative timelock on a delay leaf (``BtcChain.check_input``):
  no graded actor spends before the delay has passed;
- the chain's witness signature check (``chain.check_witness`` calling
  ``verify_signature``, at admission and again at mining): no graded
  actor forges a signature or signs another role's leaf;
- the oracle's version gate (``ArbitrationOracle.version_ok``): no graded
  oracle image has an expired version;
- the signature gates of the oracle's dispute check (``check_witness`` in
  ``ArbitrationOracle._verify_dispute``): no graded actor forges a request
  or a challenge signature, and the chain has already checked the same
  witnesses before an oracle reads the rows;
- the oracle's check of the stored row it co-signs
  (``verify_psbt_against_instance`` in ``ArbitrationOracle._sign_stored``):
  no graded registry holds a row other than the one the ceremony stored,
  so only unit tests (a swapped or malformed stored row, one changed
  field) show it refusing.

When a new graded file gives one of these a witness, its row moves from
``UNWITNESSED`` to ``WITNESSED``.
"""

import pytest
from test_golden_digests import CONFIGS, GOLDEN

from bsa_sim import actors, arbitration, chain
from bsa_sim.harness import run_scenario
from bsa_sim.keys import Transition
from bsa_sim.registry import UtxoStatus

# each graded file's pinned (verdict triple, reasons)
PINNED = {row[0]: tuple(row[3:]) for row in GOLDEN}


def changed_runs() -> set[str]:
    """The graded files whose verdict triple or reasons differ from the
    pinned ones."""
    changed = set()
    for name, config in CONFIGS.items():
        verdicts = run_scenario(config).verdicts
        if (verdicts.triple(), verdicts.reasons) != PINNED[name]:
            changed.add(name)
    return changed


def resolve_every_rebalance(self, ctx):
    """``resolve_rebalance`` without its SpentOnRebalance refusal."""
    self._require_context(ctx, "rebalance")
    return self._sign_stored(ctx, Transition.REBALANCE_RESOLVE)


def idle(self, world) -> None:
    pass


# (safeguard, patch applied through ``monkeypatch.setattr``, witnesses)
WITNESSED = [
    (
        "unbond resolution only for an exit status",
        (arbitration, "EXIT_STATUSES", frozenset(UtxoStatus)),
        {"rebalance-races-theft", "theft-defeated", "theft-during-halt"},
    ),
    (
        "no rebalance resolution for a record spent on a rebalance",
        (arbitration.ArbitrationOracle, "resolve_rebalance", resolve_every_rebalance),
        {"legitimate-rebalance"},
    ),
    (
        "the operator challenges an unbond that keeps tokens alive",
        (actors.TokenOperatorActor, "_challenge_thefts", idle),
        {
            "griefing-challenge-unprotected",
            "rebalance-races-theft",
            "theft-defeated",
            "theft-during-halt",
            "all-oracles-offline-honest-operator",
        },
    ),
    (
        "the operator claims an expired challenge output",
        (actors.TokenOperatorActor, "_claim_expired", idle),
        {
            "griefing-challenge-unprotected",
            "all-oracles-offline-malicious-operator",
            "corrupted-operator-oracles-offline",
        },
    ),
]

UNWITNESSED = [
    ("relative timelock", (chain, "SingleAfterDelay", type("NoDelayLeaf", (), {}))),
    ("witness signature check", (chain, "verify_signature", lambda *args: True)),
    ("oracle version gate", (arbitration.ArbitrationOracle, "version_ok", lambda self: True)),
    ("dispute signature gate", (arbitration, "check_witness", lambda *args: None)),
    ("stored-row check", (arbitration, "verify_psbt_against_instance", lambda *args: True)),
]


@pytest.mark.parametrize(
    "patch, witnesses", [row[1:] for row in WITNESSED], ids=[row[0] for row in WITNESSED]
)
def test_each_safeguard_has_a_witness_run(monkeypatch, patch, witnesses):
    monkeypatch.setattr(*patch)
    assert changed_runs() == witnesses


@pytest.mark.parametrize(
    "patch", [row[1] for row in UNWITNESSED], ids=[row[0] for row in UNWITNESSED]
)
def test_safeguards_without_a_witness_change_no_graded_run(monkeypatch, patch):
    monkeypatch.setattr(*patch)
    assert changed_runs() == set()
