"""Golden trace and registry digests, verdicts and reasons.

Every run below is seeded and deterministic, so its trace digest, its
final registry digest, its verdict triple and the grader's reasons are
fixed.  A change that keeps behaviour (a refactor or a speed-up) must
leave all of them byte-identical; a change that means to alter behaviour
updates them here and says why.
"""

import pathlib

import pytest

from bsa_sim.harness import MATRIX_DIR, run_scenario
from bsa_sim.scenario import load_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# (config name, trace_digest, snapshot_digest, verdict triple, reasons)
GOLDEN = [
    (
        "griefing-challenge-defended",
        "bb370b0b3cfc6e986225f9ccc3f535dc9841a999eab8debb06fcc0af8ed9e7cf",
        "7a6e8e40a73375af1784de3d768e89f897093d58d653b0ebb335b15ef80117a7",
        (True, True, True),
        [],
    ),
    (
        "griefing-challenge-unprotected",
        "b8afd8c9e043c828dba94354e7a7381c133f9d8bd305c7f8b6c83c1d2042cb72",
        "7a6e8e40a73375af1784de3d768e89f897093d58d653b0ebb335b15ef80117a7",
        (False, True, False),
        [
            "3143e48292b6aa77f712e2b135daad65b359b0735bab7bb3e675298290732582:0:"
            " seized by the operator with status withdrawn",
        ],
    ),
    (
        "honest-exit",
        "53ee25d91042251f741284412df35cae4b9fdcd60b3d02f0449c49900bfa1084",
        "643a9a4d345431c14ca27b19fdf832393342082b8a82e79afc4cbabb44abe425",
        (True, True, True),
        [],
    ),
    (
        "honest-hold",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, True, True),
        [],
    ),
    (
        "legitimate-rebalance",
        "4c811a8e364730ca5bc29a0072c6ea0f514fdebe7ccdb61469497675d8cffcd9",
        "b4485703566a529c660fc0147b221090dbf43f6c4a7645c8da7ecc058cf20454",
        (True, True, True),
        [],
    ),
    (
        "rebalance-races-theft",
        "923b04642a78deff80a396d854ad06e0d54092594cb8d1f5f1232c93b4ec2de7",
        "7c40c3dfee27863cb2d4060aa70765a2573369057fdfb8bff6d863835fead56b",
        (True, True, True),
        [],
    ),
    (
        "stuck-challenge",
        "cf1d624a24a3e4b8d7e17f382bc0318c3d29335cbb2c97bcc968ad42c9d0b2bf",
        "e0a5a3b66400a5314d066faf249f294cefad0b01c274928366815b9aef77da1b",
        (True, True, True),
        [],
    ),
    (
        "theft-defeated",
        "91b196114bf4ed32f1aa5ae9d2614c94966920cf53dd0676359b9c6af7cd71ae",
        "5c4ff55f7248f7479ab90ab53939d8aa64ae35a5b6c61a5f07f6137c6466499b",
        (True, True, True),
        [],
    ),
    (
        "theft-during-halt",
        "8552abaebe121bcf8e138ae58e367b2fa7184822efaba1927af7d48f6084ce32",
        "991e709209052f754887545b27bddafcbcb69f0121f27cdeb80d0a3591f5bd59",
        (True, True, True),
        [],
    ),
    (
        "one-oracle-offline",
        "53ee25d91042251f741284412df35cae4b9fdcd60b3d02f0449c49900bfa1084",
        "7a6e8e40a73375af1784de3d768e89f897093d58d653b0ebb335b15ef80117a7",
        (True, True, True),
        [],
    ),
    (
        "all-oracles-offline-honest-operator",
        "67e2c53407f1d85b64d64fa7ceb168223b6518d9f4fcf8345fefd2d889fa6f63",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, True, True),
        [],
    ),
    (
        "all-oracles-offline-malicious-operator",
        "c420538a5c364ba574332a18d8114aa173f9b1667fa3006f511c2cca025f9828",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (False, True, False),
        [
            "3143e48292b6aa77f712e2b135daad65b359b0735bab7bb3e675298290732582:0:"
            " seized by the operator with status active",
        ],
    ),
    (
        "oracle-key-leak",
        "b99ee76b225330f1110c0aa07e2ea35ac13c6170119032fcb33aa418d54d1fcd",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, False, False),
        [
            "perimeter supply 10000 exceeds backing 0 locked + 0 gained - 0 repaid",
        ],
    ),
    (
        "operator-no-consensus",
        "57ee3cb72e083f0b1949d43fac283a27ec337f19c59dcfaed89014852fa55c95",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, False, False),
        [
            "perimeter supply 10000 exceeds backing 0 locked + 0 gained - 0 repaid",
        ],
    ),
    (
        "operator-no-consensus-oracles-offline",
        "31b3121f3d29cfe53375cf5aab7f909c8fb3170322ab7ef3ca2f8db203876673",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, False, False),
        [
            "perimeter supply 10000 exceeds backing 0 locked + 0 gained - 0 repaid",
        ],
    ),
    (
        "corrupted-operator-oracles-correct",
        "f373050267b736a7be073093bbad00de684e9b388e2ce18be1d3ca9135f0de29",
        "290bb70e823474a785eb6ad716bebc3c07266f366f47184b6922c8eba8ef4daf",
        (True, False, False),
        [
            "perimeter supply 10000 exceeds backing 0 locked + 0 gained - 0 repaid",
        ],
    ),
    (
        "corrupted-operator-oracles-offline",
        "b4391dffca78cc39501895875434c81f57aec59138b5ef66cdad62b3692329c6",
        "af452a4128012f9043a4949a878e1779593faf7d3bb463ba3b8e59d04718ce7a",
        (False, False, False),
        [
            "3de863f5434f157abdde933aa021f850c002426bf14b3d9a2b88d565482b7c6f:1:"
            " seized by the operator with status active",
            "perimeter supply 10000 exceeds backing 0 locked + 3000 gained - 0 repaid",
        ],
    ),
]


CONFIGS = {
    config.name: config
    for config in (
        load_scenario(str(path))
        for directory in (SCENARIO_DIR, MATRIX_DIR)
        for path in sorted(directory.glob("*.scn"))
    )
}


def test_golden_covers_every_scripted_run():
    assert [row[0] for row in GOLDEN] == list(CONFIGS)


@pytest.mark.parametrize(
    "name, trace_digest, snapshot_digest",
    [row[:3] for row in GOLDEN],
    ids=[row[0] for row in GOLDEN],
)
def test_digests_match_golden(name, trace_digest, snapshot_digest):
    result = run_scenario(CONFIGS[name])
    assert (result.trace_digest, result.snapshot_digest) == (trace_digest, snapshot_digest)


@pytest.mark.parametrize(
    "name, triple, reasons",
    [(row[0], *row[3:]) for row in GOLDEN],
    ids=[row[0] for row in GOLDEN],
)
def test_verdicts_match_golden(name, triple, reasons):
    verdicts = run_scenario(CONFIGS[name]).verdicts
    assert (verdicts.triple(), verdicts.reasons) == (triple, reasons)
