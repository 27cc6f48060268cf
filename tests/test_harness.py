"""End-to-end runs: scenario file parsing, the scripted failure matrix,
determinism of traces, the ceremony walkthrough, and the CLI."""

import dataclasses
import json
import pathlib
import re

import pytest

from bsa_sim.cli import main
from bsa_sim.harness import (
    ceremony_demo,
    extra_scenarios,
    matrix_scenarios,
    run_scenario,
)
from bsa_sim import scenario
from bsa_sim.psbt import MIN_DEPOSIT
from bsa_sim.scenario import (
    DepositorBehavior,
    OperatorBehavior,
    OracleBehavior,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    parse_scenario,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.scn"))


def test_scenario_files_present():
    assert [p.name for p in SCENARIO_FILES] == [
        "honest_exit.scn",
        "legitimate_rebalance.scn",
        "rebalance_races_theft.scn",
        "stuck_challenge.scn",
        "theft_defeated.scn",
    ]


def test_parse_honest_exit_file():
    config = load_scenario(str(SCENARIO_DIR / "honest_exit.scn"))
    assert config.name == "honest-exit"
    assert (config.t1, config.t2, config.t3) == (6, 10, 1200)
    assert config.amounts == [10000]
    assert config.depositor.exit_at == 10
    assert config.depositor.burn_before_exit
    assert config.expected_verdicts == (True, True, True)


def test_parse_oracle_sections_and_optionals():
    config = load_scenario(str(SCENARIO_DIR / "theft_defeated.scn"))
    assert not config.depositor.burn_before_exit
    assert config.oracles[0].offline == (8, 22)
    text = """
    [params]
    dest_halted_at = none
    fee_steps = 6:4, 9:1
    [operator]
    challenge_thefts = no
    [oracle.0]
    refuse = yes
    """
    parsed = parse_scenario(text)
    assert parsed.dest_halted_at is None
    assert parsed.fee_steps == [(6, 4), (9, 1)]
    assert not parsed.operator.challenge_thefts
    assert parsed.oracles[0].refuse_resolutions
    # oracle.N sections are ordered by N, not as strings
    text = "".join(f"[oracle.{i}]\nrefuse = {i == 10}\n" for i in range(11))
    parsed = parse_scenario(text)
    assert [o.refuse_resolutions for o in parsed.oracles] == [False] * 10 + [True]


def test_oracle_count_and_placement():
    assert len(parse_scenario("[params]\nn_oracles = 1\n").oracles) == 1
    assert len(parse_scenario("[params]\nn_oracles = 2\n").oracles) == 2
    assert len(parse_scenario("").oracles) == 3
    # [oracle.N] sets oracle N; the ones between are honest
    parsed = parse_scenario("[oracle.0]\nrefuse = yes\n[oracle.2]\nleak = yes\n")
    assert parsed.oracles == [
        OracleBehavior(refuse_resolutions=True),
        OracleBehavior(),
        OracleBehavior(leak_secret=True),
    ]
    assert parsed.n_oracles == 3
    parsed = parse_scenario("[params]\nn_oracles = 5\n[oracle.1]\nrefuse = yes\n")
    assert [o.refuse_resolutions for o in parsed.oracles] == [False, True, False, False, False]
    parsed = parse_scenario("[params]\nn_oracles = 1\n[oracle.3]\nrefuse = yes\n")
    assert [o.refuse_resolutions for o in parsed.oracles] == [False, False, False, True]
    with pytest.raises(ScenarioError, match=re.escape("[oracle.01]")):
        parse_scenario("[oracle.1]\nrefuse = yes\n[oracle.01]\nrefuse = no\n")
    with pytest.raises(ScenarioError, match=re.escape("[oracle.-1]")):
        parse_scenario("[oracle.-1]\nrefuse = yes\n")
    with pytest.raises(ScenarioError, match=re.escape("[params] n_oracles")):
        parse_scenario("[params]\nn_oracles = 0\n")


def test_one_oracle_scenario_runs_as_graded():
    text = (SCENARIO_DIR / "honest_exit.scn").read_text()
    config = parse_scenario(text.replace("[params]\n", "[params]\nn_oracles = 1\n"))
    result = run_scenario(config)
    assert len(result.world.oracles) == 1
    assert len(result.world.instances[0].tweak_data.ao_pks) == 1
    assert result.verdicts.triple() == config.expected_verdicts


def test_parse_rejections():
    with pytest.raises(ScenarioError):
        parse_scenario("[deposit]\namounts = 10, -3\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[operator]\nclaim_expired = maybe\n")
    with pytest.raises(ScenarioError):
        parse_scenario("not an ini file [")
    for text, where in [
        ("[oracle.0]\noffline = 5\n", "[oracle.0] offline"),
        ("[params]\nfee_steps = 6-4\n", "[params] fee_steps"),
        ("[params]\nt1 = six\n", "[params] t1"),
        ("[oracle.x]\nrefuse = no\n", "[oracle.x]"),
        ("[depositor]\nexit_att = 10\n", "[depositor] exit_att"),
        ("[depositer]\nexit_at = 10\n", "[depositer]"),
        ("[expect]\nsafe = yes\n", "[expect] safe"),
        ("[DEFAULT]\nt1 = 6\n", "[DEFAULT]"),
        ("[params]\nsignature_scheme = mock\n", "[params] signature_scheme"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(where)):
            parse_scenario(text)


@pytest.mark.parametrize(
    "text, where",
    [
        ("[deposit]\namounts = 7000, 3000\n[depositor]\nexit_deposit_index = 2\n",
         "[depositor] exit_deposit_index"),
        ("[depositor]\nexit_deposit_index = -1\n", "[depositor] exit_deposit_index"),
        ("[oracle.1]\noffline = 12..12\n", "[oracle.1] offline"),
        ("[oracle.0]\noffline = 20..12\n", "[oracle.0] offline"),
        ("[params]\nfee_steps = 20:-3\n", "[params] fee_steps"),
        ("[params]\nfee_steps = 20:3, -1:1\n", "[params] fee_steps"),
        ("[params]\nfee_steps = 20:1, 20:3\n", "[params] fee_steps = '20:1, 20:3': height 20"),
        ("[params]\nfee_steps = 20:3, 20:1\n", "[params] fee_steps = '20:3, 20:1': height 20"),
        ("[params]\nhorizon_blocks = 0\n", "[params] horizon_blocks"),
        ("[params]\nt1 = 0\n", "[params] t1"),
        ("[params]\nslots_per_block = 0\n", "[params] slots_per_block"),
        ("[params]\nt3 = 100\n", "[params] t3"),
        ("[params]\nfinality_interval = 0\n", "[params] finality_interval"),
        ("[params]\nfee_funds = 0\n", "[params] fee_funds"),
        ("[params]\nfee_base = -1\n", "[params] fee_base"),
        ("[params]\nwsp_slots = 0\n", "[params] wsp_slots"),
        ("[params]\nwsp_slots = -3\n", "[params] wsp_slots"),
        ("[params]\nt_op_blocks = -2\n", "[params] t_op_blocks"),
        ("[params]\nmargin_blocks = -50\n", "[params] margin_blocks"),
        ("[params]\nn_oracles = -1\n", "[params] n_oracles"),
        ("[params]\ndest_halted_at = -1\n", "[params] dest_halted_at"),
        ("[depositor]\nleak_tokens_at = 8\nleak_token_amount = -5\n",
         "[depositor] leak_token_amount"),
        ("[depositor]\nleak_tokens_at = 8\nleak_token_amount = 0\n",
         "[depositor] leak_token_amount"),
        ("[depositor]\nexit_at = -3\n", "[depositor] exit_at"),
        ("[depositor]\nleak_tokens_at = -1\n", "[depositor] leak_tokens_at"),
        ("[operator]\nrebalance_at = -1\n", "[operator] rebalance_at"),
        ("[operator]\nfalse_rebalance_at = -1\n", "[operator] false_rebalance_at"),
        ("[deposit]\namounts = 10, -3\n",
         "[deposit] amounts = '10, -3': deposit amounts must be positive"),
        ("[deposit]\namounts = 7000, 668\n", "[deposit] amounts = '7000, 668': "),
        ("[deposit]\nowner =\n", "[deposit] owner = '': must not be empty"),
    ],
    ids=[
        "exit-index-past-end", "exit-index-negative", "empty-window", "reversed-window",
        "negative-rate", "negative-height", "repeated-height-rising",
        "repeated-height-falling", "zero-horizon", "zero-t1",
        "zero-slots-per-block", "t3-within-dispute-window", "zero-finality-interval",
        "zero-fee-funds", "negative-fee-base", "zero-wsp-slots", "negative-wsp-slots",
        "negative-t-op-blocks", "negative-margin-blocks", "negative-n-oracles",
        "negative-dest-halted-at", "negative-leak-amount", "zero-leak-amount",
        "negative-exit-at", "negative-leak-tokens-at", "negative-rebalance-at",
        "negative-false-rebalance-at", "negative-amount", "amount-below-min-deposit",
        "empty-owner",
    ],
)
def test_parse_rejects_out_of_range_values(text, where):
    with pytest.raises(ScenarioError, match=re.escape(where)):
        parse_scenario(text)


def test_smallest_deposit_builds_every_row():
    """``MIN_DEPOSIT`` is the first amount the parser accepts, and a
    deposit of exactly that amount builds, pre-signs and runs."""
    assert MIN_DEPOSIT == 669  # BASE_FEE_RATE 1 and ANCHOR_VALUE 330
    config = parse_scenario(f"[deposit]\namounts = {MIN_DEPOSIT}\n")
    assert config.amounts == [MIN_DEPOSIT]
    assert run_scenario(config).verdicts.triple() == (True, True, True)


def test_parser_key_tables_cover_every_field():
    def names(cls, *excluded):
        return sorted(f.name for f in dataclasses.fields(cls) if f.name not in excluded)

    def attributes(*tables):
        return sorted(attr for table in tables for attr, _ in table.values())

    nested = ("depositor", "operator", "oracles", "expected_verdicts")
    assert attributes(scenario._SCENARIO, scenario._PARAMS, scenario._DEPOSIT) == names(
        ScenarioConfig, *nested
    )
    assert attributes(scenario._DEPOSITOR) == names(DepositorBehavior)
    assert attributes(scenario._OPERATOR) == names(OperatorBehavior)
    assert attributes(scenario._ORACLE) == names(OracleBehavior)


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_scenario_file_runs_as_graded(path):
    config = load_scenario(str(path))
    result = run_scenario(config)
    assert result.verdicts.triple() == config.expected_verdicts, result.verdicts.reasons


def test_matrix_row_catalog():
    rows = matrix_scenarios()
    assert [r.name for r in rows] == [
        "one-oracle-offline",
        "all-oracles-offline-honest-operator",
        "all-oracles-offline-malicious-operator",
        "oracle-key-leak",
        "operator-no-consensus",
        "operator-no-consensus-oracles-offline",
        "corrupted-operator-oracles-correct",
        "corrupted-operator-oracles-offline",
    ]
    patterns = [
        "".join("Y" if v else "N" for v in r.expected_verdicts) for r in rows
    ]
    assert patterns == ["YYY", "YYY", "NYN", "YNN", "YNN", "YNN", "YNN", "NNN"]


def test_extra_scenarios_run_as_graded():
    for config in extra_scenarios():
        result = run_scenario(config)
        assert result.verdicts.triple() == config.expected_verdicts, (
            config.name,
            result.verdicts.reasons,
        )


def test_network_fee_base_leaves_scripted_verdicts():
    """``fee_base`` sets the network's rate only: templates still commit
    ``BASE_FEE_RATE``, so at a higher network rate every row keeps its
    verdicts and executors top up what the templates commit."""
    for config in matrix_scenarios() + extra_scenarios():
        pricier = dataclasses.replace(config, fee_base=2, oracles=list(config.oracles))
        result = run_scenario(pricier)
        assert result.verdicts.triple() == config.expected_verdicts, (
            config.name,
            result.verdicts.reasons,
        )
        if config.name == "griefing-challenge-defended":
            actions = {entry["action"] for entry in result.trace}
            assert {"cpfp_child", "broadcast_with_fee"} <= actions


def test_failed_verdicts_carry_reasons():
    config = next(
        c for c in matrix_scenarios() if c.name == "corrupted-operator-oracles-offline"
    )
    result = run_scenario(config)
    assert result.verdicts.triple() == (False, False, False)
    assert result.verdicts.reasons
    assert all(isinstance(reason, str) and reason for reason in result.verdicts.reasons)


def test_runs_are_deterministic():
    first = load_scenario(str(SCENARIO_DIR / "honest_exit.scn"))
    second = load_scenario(str(SCENARIO_DIR / "honest_exit.scn"))
    a = run_scenario(first)
    b = run_scenario(second)
    c = run_scenario(second)  # same config object reused
    assert a.trace_digest == b.trace_digest == c.trace_digest
    assert a.snapshot_digest == b.snapshot_digest == c.snapshot_digest
    assert a.final_height == b.final_height == c.final_height
    assert a.trace == b.trace


def test_ceremony_demo_narrative():
    lines = ceremony_demo()
    assert lines[0] == "honest ceremony"
    assert any(line.startswith("  funding txid: ") for line in lines)
    kinds = {line.split()[0] for line in lines if line.startswith("  ") and len(line.split()) == 2}
    assert {"VA", "UTA", "UCA", "RCA"} <= kinds
    assert "  tokens minted to alice: 13000" in lines
    assert "tampered ceremony (registry swaps one stored row)" in lines
    assert lines[-1].startswith("  rejected before funding: ")
    assert not any("ERROR" in line for line in lines)


# -- command line -------------------------------------------------------------


README = SCENARIO_DIR.parent / "README.md"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "scenarios/honest_exit.scn"],
        ["matrix"],
        ["avail", "--t1", "24", "--t2", "48", "--t3", "720",
         "--t-op", "1", "--t-check", "4", "--wsp", "1344"],
    ],
    ids=["run", "matrix", "avail"],
)
def test_readme_transcripts_match_the_cli(argv, monkeypatch, capsys):
    """Each command's output is, verbatim, a ``text`` block of README.md."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    assert main(argv) == 0
    out = capsys.readouterr().out
    block = f"```text\n$ bsa-sim {' '.join(argv)}\n{out}```\n"
    assert block in README.read_text()


def test_cli_run_graded_ok(capsys):
    code = main(["run", str(SCENARIO_DIR / "honest_exit.scn")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: honest-exit" in out
    assert "expected verdicts matched (Y/Y/Y)" in out


def test_cli_run_mismatch_exits_nonzero(tmp_path, capsys):
    text = (SCENARIO_DIR / "honest_exit.scn").read_text()
    text = text.replace("protocol_safe = true", "protocol_safe = false")
    path = tmp_path / "wrong.scn"
    path.write_text(text)
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH: expected Y/Y/N, got Y/Y/Y" in out


def test_cli_run_malformed_file_exits_two_naming_the_key(tmp_path, capsys):
    path = tmp_path / "misspelt.scn"
    path.write_text("[params]\nt_one = 6\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bsa-sim: {path}: [params] t_one: unknown key\n"


def test_cli_run_missing_file_exits_two(tmp_path, capsys):
    path = tmp_path / "no-such.scn"
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bsa-sim: {path}: No such file or directory\n"


def test_cli_run_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "utf16.scn"
    path.write_bytes(b"\xff\xfe[\x00p\x00")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bsa-sim: {path}: not UTF-8 text (invalid start byte)\n"


def test_cli_run_trace_prints_json_lines(capsys):
    code = main(["run", "--trace", str(SCENARIO_DIR / "honest_exit.scn")])
    out = capsys.readouterr().out
    assert code == 0
    events = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert any(e.get("action") == "exit_complete" for e in events)
    assert any(e.get("action") == "block" for e in events)


def test_cli_matrix_all_rows_match(capsys):
    code = main(["matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "8/8 rows matched" in out
    assert "MISMATCH" not in out


def test_cli_avail_prints_report(capsys):
    code = main(
        [
            "avail",
            "--t1", "24", "--t2", "48", "--t3", "720",
            "--t-op", "1", "--t-check", "4", "--wsp", "1344",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "challenge-response uptime bound: 0.934722" in out
    assert "required uptime:                 0.934722" in out


def test_cli_ceremony_demo(capsys):
    code = main(["ceremony", "--demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "honest ceremony" in out
    assert "rejected before funding" in out
