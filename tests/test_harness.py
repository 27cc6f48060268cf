"""End-to-end runs: scenario file parsing, the scripted failure matrix,
determinism of traces, the ceremony walkthrough, and the CLI."""

import dataclasses
import json
import pathlib
import re

import pytest

from bsa_sim.chain import SimTx, TxInput, TxOutput
from bsa_sim.cli import main
from bsa_sim.harness import (
    MATRIX_DIR,
    build_world,
    ceremony_demo,
    compute_verdicts,
    matrix_scenarios,
    run_scenario,
)
from bsa_sim import scenario
from bsa_sim.keys import MAX_ORACLES, keypair_from_seed, sign_digest
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
# every graded run: the scenario files, then the failure matrix rows
GRADED_FILES = SCENARIO_FILES + sorted(MATRIX_DIR.glob("*.scn"))
# one deposit more than a funding transaction can hold
TOO_MANY_DEPOSITS = ", ".join(["669"] * 65536)


def test_scenario_files_present():
    assert [p.name for p in SCENARIO_FILES] == [
        "griefing_challenge_defended.scn",
        "griefing_challenge_unprotected.scn",
        "honest_exit.scn",
        "honest_hold.scn",
        "legitimate_rebalance.scn",
        "rebalance_races_theft.scn",
        "stuck_challenge.scn",
        "theft_defeated.scn",
        "theft_during_halt.scn",
    ]


def test_every_graded_file_expects_verdicts_under_its_own_name():
    configs = [load_scenario(str(path)) for path in GRADED_FILES]
    assert all(config.expected_verdicts is not None for config in configs)
    names = [config.name for config in configs]
    assert len(set(names)) == len(names)
    assert ScenarioConfig().name not in names


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
        ("[deposit]\namounts = 7000, 3000\n[depositor]\nexit_at = 8\nexit_deposit_index = 2\n",
         "[depositor] exit_deposit_index = 2: there are 2 deposits"),
        ("[depositor]\nexit_deposit_index = -1\n", "[depositor] exit_deposit_index"),
        ("[oracle.1]\noffline = 12..12\n", "[oracle.1] offline"),
        ("[oracle.0]\noffline = 20..12\n", "[oracle.0] offline"),
        ("[oracle.0]\noffline = -3..5\n",
         "[oracle.0] offline = -3..5: a window must not start below 0"),
        ("[params]\nfee_steps = 20:-3\n", "[params] fee_steps"),
        ("[params]\nfee_steps = 20:3, -1:1\n", "[params] fee_steps"),
        ("[params]\nfee_steps = 20:1, 20:3\n", "[params] fee_steps = 20:1, 20:3: height 20"),
        ("[params]\nfee_steps = 20:3, 20:1\n", "[params] fee_steps = 20:3, 20:1: height 20"),
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
        ("[params]\nn_oracles = 65536\n", "[params] n_oracles = 65536: at most 65535 oracles"),
        ("[oracle.65535]\nrefuse = true\n", "[oracle.65535]: at most 65535 oracles"),
        ("[oracle.70000]\n", "[oracle.70000]: at most 65535 oracles"),
        ("[params]\ndest_halted_at = -1\n", "[params] dest_halted_at"),
        ("[depositor]\nleak_tokens_at = 8\nleak_token_amount = -5\n",
         "[depositor] leak_token_amount"),
        ("[depositor]\nleak_tokens_at = 8\nleak_token_amount = 0\n",
         "[depositor] leak_tokens_at = 8: no leak_token_amount is set"),
        ("[depositor]\nexit_at = -3\n", "[depositor] exit_at"),
        ("[depositor]\nleak_tokens_at = -1\n", "[depositor] leak_tokens_at"),
        ("[depositor]\nleak_tokens_at = 5\n",
         "[depositor] leak_tokens_at = 5: no leak_token_amount is set"),
        ("[depositor]\nleak_token_amount = 6000\n",
         "[depositor] leak_token_amount = 6000: no leak_tokens_at is set"),
        ("[depositor]\nexit_deposit_index = 0\n",
         "[depositor] exit_deposit_index = 0: no exit_at is set"),
        ("[depositor]\nburn_before_exit = false\n",
         "[depositor] burn_before_exit = false: no exit_at is set"),
        ("[depositor]\nuse_leaked_key = true\n",
         "[depositor] use_leaked_key = true: no exit_at is set"),
        ("[operator]\nrebalance_at = -1\n", "[operator] rebalance_at"),
        ("[operator]\nfalse_rebalance_at = -1\n", "[operator] false_rebalance_at"),
        ("[deposit]\namounts = 10, -3\n",
         "[deposit] amounts = 10, -3: deposit amounts must be positive"),
        ("[deposit]\namounts = 7000, 668\n", "[deposit] amounts = 7000, 668: "),
        ("[deposit]\nowner =\n", "[deposit] owner = : must not be empty"),
        ("[oracle.0]\noffline = 3\n",
         "[oracle.0] offline = '3': expected start..until, got '3'"),
        ("[oracle.0]\noffline = 1..2..3\n",
         "[oracle.0] offline = '1..2..3': expected start..until"),
        ("[params]\nfee_steps = 5:2, 7\n",
         "[params] fee_steps = '5:2, 7': expected height:rate, got '7'"),
        ("[params]\nfee_steps = 5:2:1\n", "[params] fee_steps = '5:2:1': expected height:rate"),
        ("[deposit]\namounts = 2000,,3000\n",
         "[deposit] amounts = '2000,,3000': an item of the list is empty"),
        ("[deposit]\namounts = 2000,\n",
         "[deposit] amounts = '2000,': an item of the list is empty"),
        ("[params]\nfee_steps = 5:2,\n",
         "[params] fee_steps = '5:2,': an item of the list is empty"),
        ("[expect]\ndepositor_safe = false\nprotocol_safe = true\n",
         "[expect] protocol_safe = true: a run is protocol-safe exactly when"),
        ("[expect]\noperator_safe = false\nprotocol_safe = true\n",
         "[expect] protocol_safe = true: "),
        ("[expect]\nprotocol_safe = false\n", "[expect] protocol_safe = false: "),
        ("[expect]\ndepositor_safe = true\noperator_safe = true\nprotocol_safe = false\n",
         "[expect] protocol_safe = false: "),
        ("[deposit]\namounts = 20000000000000000000\n",
         "[deposit] amounts = 20000000000000000000: they total 20000000000000000000 sat,"
         " above 18446744073709551615"),
        ("[deposit]\namounts = 10000000000000000000, 10000000000000000000\n",
         "[deposit] amounts = 10000000000000000000, 10000000000000000000: they total"),
        ("[params]\nt1 = 5000000000\nt3 = 999999999999999\n",
         "[params] t1 = 5000000000: at most 4294967295 blocks"),
        ("[params]\nt2 = 5000000000\nt3 = 999999999999999\n",
         "[params] t2 = 5000000000: at most 4294967295 blocks"),
        ("[params]\nt3 = 2000000000000000000\n",
         "[params] t3 = 2000000000000000000: at most 1844674407370955161 slots"),
        ("[params]\nfee_funds = 20000000000000000000\nfee_steps = 9:4\n[depositor]\nexit_at = 8\n",
         "[params] fee_funds = 20000000000000000000: 5 wallets and the deposits hold"),
        ("[params]\nfee_funds = 3689348814741910323\n",
         "[params] fee_funds = 3689348814741910323: 5 wallets and the deposits hold"
         " 18446744073709561615 sat, above 18446744073709551615"),
        ("[params]\nslots_per_block = 100000000000000000\nt3 = 1700000000000000000\n"
         "horizon_blocks = 200\n",
         "[params] horizon_blocks = 200: the run reaches slot 20600000000000000000,"
         " above 18446744073709551615"),
        (f"[deposit]\namounts = {TOO_MANY_DEPOSITS}\n",
         f"[deposit] amounts = {TOO_MANY_DEPOSITS}: at most 65535 deposits"),
    ],
    ids=[
        "exit-index-past-end", "exit-index-negative", "empty-window", "reversed-window",
        "window-starts-below-zero",
        "negative-rate", "negative-height", "repeated-height-rising",
        "repeated-height-falling", "zero-horizon", "zero-t1",
        "zero-slots-per-block", "t3-within-dispute-window", "zero-finality-interval",
        "zero-fee-funds", "negative-fee-base", "zero-wsp-slots", "negative-wsp-slots",
        "negative-t-op-blocks", "negative-margin-blocks", "negative-n-oracles",
        "n-oracles-past-two-bytes", "oracle-section-past-two-bytes",
        "oracle-section-far-past-two-bytes",
        "negative-dest-halted-at", "negative-leak-amount", "zero-leak-amount",
        "negative-exit-at", "negative-leak-tokens-at", "leak-without-amount",
        "amount-without-leak", "exit-index-without-exit", "no-burn-without-exit",
        "leaked-key-without-exit",
        "negative-rebalance-at",
        "negative-false-rebalance-at", "negative-amount", "amount-below-min-deposit",
        "empty-owner", "window-without-dots", "window-of-three", "fee-step-without-colon",
        "fee-step-of-three", "amounts-empty-item", "amounts-trailing-comma",
        "fee-steps-trailing-comma", "expect-protocol-safe-depositor-not",
        "expect-protocol-safe-operator-not", "expect-protocol-unsafe-by-default",
        "expect-protocol-unsafe-both-safe", "amount-past-eight-bytes",
        "amounts-total-past-eight-bytes", "t1-past-four-bytes", "t2-past-four-bytes",
        "t3-expiry-past-eight-bytes", "fee-funds-past-eight-bytes",
        "fee-funds-with-deposits-past-eight-bytes", "horizon-slot-past-eight-bytes",
        "deposit-count-past-two-bytes",
    ],
)
def test_parse_rejects_out_of_range_values(text, where):
    with pytest.raises(ScenarioError, match=re.escape(where)):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text, triple",
    [
        ("[expect]\n", (True, True, True)),
        ("[expect]\ndepositor_safe = false\n", (False, True, False)),
        ("[expect]\noperator_safe = false\n", (True, False, False)),
        ("[expect]\ndepositor_safe = false\noperator_safe = false\n", (False, False, False)),
        ("[expect]\noperator_safe = false\nprotocol_safe = false\n", (True, False, False)),
    ],
    ids=["empty", "depositor-unsafe", "operator-unsafe", "both-unsafe", "all-given"],
)
def test_a_missing_expected_protocol_verdict_follows_the_other_two(text, triple):
    """The grader derives protocol safety from the other two verdicts,
    so a file expects only what a run can produce."""
    assert parse_scenario(text).expected_verdicts == triple


def test_a_leak_of_nothing_is_refused_when_built():
    """The rule the parser reports as ``leak-without-amount`` holds for a
    behaviour built in code too, where it would leak nothing."""
    with pytest.raises(ValueError, match="leak_tokens_at = 5: no leak_token_amount is set"):
        DepositorBehavior(leak_tokens_at=5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"leak_token_amount": 6000}, "leak_token_amount = 6000: no leak_tokens_at is set"),
        ({"exit_deposit_index": 0}, "exit_deposit_index = 0: no exit_at is set"),
        ({"burn_before_exit": False}, "burn_before_exit = false: no exit_at is set"),
        ({"use_leaked_key": True}, "use_leaked_key = true: no exit_at is set"),
    ],
    ids=["amount-without-leak", "exit-index-without-exit", "no-burn-without-exit",
         "leaked-key-without-exit"],
)
def test_a_key_without_its_height_is_refused_when_built(kwargs, message):
    """A key read only once its trigger height comes would do nothing
    without that height, in code as in a scenario file."""
    with pytest.raises(ValueError, match=re.escape(message)):
        DepositorBehavior(**kwargs)
    height = "leak_tokens_at" if "leak_token_amount" in kwargs else "exit_at"
    DepositorBehavior(**kwargs, **{height: 8})  # with its height it is accepted


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t3": 100}, "[params] t3: t3=100 slots must exceed"),
        ({"fee_funds": 3689348814741910323},
         "[params] fee_funds = 3689348814741910323: 5 wallets and the deposits hold"),
        ({"slots_per_block": 10**17, "t3": 17 * 10**17, "horizon_blocks": 200},
         "[params] horizon_blocks = 200: the run reaches slot 20600000000000000000"),
        ({"amounts": [10_000], "depositor": DepositorBehavior(exit_at=10, exit_deposit_index=3)},
         "[depositor] exit_deposit_index = 3: there are 1 deposits"),
        ({"n_oracles": 0}, "[params] n_oracles: a scenario needs at least one oracle"),
    ],
    ids=["t3-within-dispute-window", "fee-funds-with-deposits-past-eight-bytes",
         "horizon-slot-past-eight-bytes", "exit-index-past-end", "no-oracle"],
)
def test_a_config_whose_values_do_not_fit_together_is_refused_when_built(kwargs, message):
    """The checks that relate one value to others hold for a config built
    in code as for a parsed one, with the parser's messages."""
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig(**kwargs)


# -- a file and a built config take one path ----------------------------------

MOST = scenario.MAX_VALUE
# the section whose keys set each bounded field, and the dataclass holding it
HOLDER = {
    **{attr: ("params", ScenarioConfig) for attr, _ in scenario._PARAMS.values()},
    **{attr: ("depositor", DepositorBehavior) for attr, _ in scenario._DEPOSITOR.values()},
    **{attr: ("operator", OperatorBehavior) for attr, _ in scenario._OPERATOR.values()},
}
# what else an edge value needs to be accepted: (more file text, more fields)
EDGE_CONTEXT = {
    "t1": ("t3 = 1000000000000000\n", {"t3": 10**15}),
    "t2": ("t3 = 1000000000000000\n", {"t3": 10**15}),
    "n_oracles": ("[oracle.0]\n", {"oracles": [OracleBehavior()]}),
    "exit_deposit_index": ("exit_at = 8\n", {"exit_at": 8}),
    "leak_tokens_at": ("leak_token_amount = 100\n", {"leak_token_amount": 100}),
}
# t3's least is below what the timelock relation allows with t1, t2 and
# slots_per_block at their least, so that relation refuses the edge
T3_LEAST_EDGE = "[params] t3: t3=1 slots must exceed (t1+t2)=16 blocks * 50 slots/block"


def _bound_cases():
    """One case for each end of each ``BOUNDS`` entry: the value just
    outside it, then the edge value, each as file text and as a build."""
    for name, (least, most, unit) in scenario.BOUNDS.items():
        section, cls = HOLDER[name]
        more_text, more = EDGE_CONTEXT.get(name, ("", {}))
        ends = [("least", least - 1, least,
                 f"must be at least {least}" if least else "must not be negative")]
        if most is not None:
            ends.append(("most", most + 1, most, f"at most {most} {unit}"))
        for end, outside, edge, reason in ends:
            lacks = "" if cls is ScenarioConfig else section
            yield pytest.param(
                lacks,
                f"[{section}]\n{name} = {outside}\n{more_text}",
                lambda cls=cls, kwargs={**more, name: outside}: cls(**kwargs),
                ("" if lacks else f"[{section}] ") + f"{name} = {outside}: {reason}",
                f"[{section}]\n{name} = {edge}\n{more_text}",
                lambda cls=cls, kwargs={**more, name: edge}: cls(**kwargs),
                T3_LEAST_EDGE if (name, end) == ("t3", "least") else None,
                id=f"{name}-{end}",
            )


WINDOW_END = "a window must end after it starts"
# Each rule that is not a bound, and each value that a config built in
# code ran with before its dataclass refused it: the section a built
# behaviour's refusal lacks, the refused value's file text, its build and
# the build's message, then the accepted edge's file text and build.
RULE_CASES = {
    "amounts-empty": (
        "", "[deposit]\namounts =\n", lambda: ScenarioConfig(amounts=[]),
        "[deposit] amounts = : deposit amounts must be positive",
        "[deposit]\namounts = 669\n", lambda: ScenarioConfig(amounts=[669])),
    "amounts-negative": (
        "", "[deposit]\namounts = 7000, -3\n", lambda: ScenarioConfig(amounts=[7000, -3]),
        "[deposit] amounts = 7000, -3: deposit amounts must be positive", None, None),
    "amounts-below-min-deposit": (
        "", "[deposit]\namounts = 7000, 668\n", lambda: ScenarioConfig(amounts=[7000, 668]),
        "[deposit] amounts = 7000, 668: a deposit below 669 cannot pay its pre-signed rows",
        "[deposit]\namounts = 7000, 669\n", lambda: ScenarioConfig(amounts=[7000, 669])),
    "amounts-tiny": (
        "", "[deposit]\namounts = 500\n", lambda: ScenarioConfig(amounts=[500]),
        "[deposit] amounts = 500: a deposit below 669 cannot pay its pre-signed rows", None, None),
    "amounts-total-past-eight-bytes": (
        "", f"[deposit]\namounts = {MOST + 1}\n", lambda: ScenarioConfig(amounts=[MOST + 1]),
        f"[deposit] amounts = {MOST + 1}: they total {MOST + 1} sat, above {MOST}",
        f"[params]\nfee_funds = 1\n[deposit]\namounts = {MOST - 5}\n",
        lambda: ScenarioConfig(fee_funds=1, amounts=[MOST - 5])),
    "deposit-count-past-two-bytes": (
        "", f"[deposit]\namounts = {TOO_MANY_DEPOSITS}\n",
        lambda: ScenarioConfig(amounts=[669] * 65536),
        f"[deposit] amounts = {TOO_MANY_DEPOSITS}: at most 65535 deposits, one funding output each",
        f"[deposit]\namounts = {TOO_MANY_DEPOSITS[5:]}\n",
        lambda: ScenarioConfig(amounts=[669] * 65535)),
    "fee-step-negative-rate": (
        "", "[params]\nfee_steps = 20:-1\n", lambda: ScenarioConfig(fee_steps=[(20, -1)]),
        "[params] fee_steps = 20:-1: heights and rates must not be negative",
        "[params]\nfee_steps = 20:0\n", lambda: ScenarioConfig(fee_steps=[(20, 0)])),
    "fee-step-negative-height": (
        "", "[params]\nfee_steps = 5:2, -1:1\n",
        lambda: ScenarioConfig(fee_steps=[(5, 2), (-1, 1)]),
        "[params] fee_steps = 5:2, -1:1: heights and rates must not be negative",
        "[params]\nfee_steps = 5:2, 0:1\n", lambda: ScenarioConfig(fee_steps=[(5, 2), (0, 1)])),
    "fee-step-height-twice": (
        "", "[params]\nfee_steps = 9:4, 9:1\n", lambda: ScenarioConfig(fee_steps=[(9, 4), (9, 1)]),
        "[params] fee_steps = 9:4, 9:1: height 9 is given twice",
        "[params]\nfee_steps = 9:4, 10:1\n",
        lambda: ScenarioConfig(fee_steps=[(9, 4), (10, 1)])),
    "empty-owner": (
        "", "[deposit]\nowner =\n", lambda: ScenarioConfig(owner=""),
        "[deposit] owner = : must not be empty",
        "[deposit]\nowner = a\n", lambda: ScenarioConfig(owner="a")),
    "window-starts-below-zero": (
        "oracle.0", "[oracle.0]\noffline = -1..5\n", lambda: OracleBehavior(offline=(-1, 5)),
        "offline = -1..5: a window must not start below 0",
        "[oracle.0]\noffline = 0..5\n", lambda: OracleBehavior(offline=(0, 5))),
    "empty-window": (
        "oracle.0", "[oracle.0]\noffline = 9..9\n", lambda: OracleBehavior(offline=(9, 9)),
        f"offline = 9..9: {WINDOW_END}",
        "[oracle.0]\noffline = 9..10\n", lambda: OracleBehavior(offline=(9, 10))),
    "reversed-window": (
        "oracle.2", "[oracle.2]\noffline = 9..3\n", lambda: OracleBehavior(offline=(9, 3)),
        f"offline = 9..3: {WINDOW_END}", None, None),
    "expect-protocol-safe-operator-not": (
        "", "[expect]\noperator_safe = false\nprotocol_safe = true\n",
        lambda: ScenarioConfig(expected_verdicts=(True, False, True)),
        "[expect] protocol_safe = true: a run is protocol-safe exactly when it is"
        " depositor-safe and operator-safe",
        "[expect]\noperator_safe = false\nprotocol_safe = false\n",
        lambda: ScenarioConfig(expected_verdicts=(True, False, False))),
    "t1-past-four-bytes": (
        "", "[params]\nt1 = 5000000000\nt3 = 1000000000000000\n",
        lambda: ScenarioConfig(t1=5_000_000_000, t3=10**15),
        "[params] t1 = 5000000000: at most 4294967295 blocks", None, None),
    "zero-finality-interval": (
        "", "[params]\nfinality_interval = 0\n", lambda: ScenarioConfig(finality_interval=0),
        "[params] finality_interval = 0: must be at least 1", None, None),
    "negative-horizon": (
        "", "[params]\nhorizon_blocks = -3\n", lambda: ScenarioConfig(horizon_blocks=-3),
        "[params] horizon_blocks = -3: must be at least 1", None, None),
    "zero-horizon": (
        "", "[params]\nhorizon_blocks = 0\n", lambda: ScenarioConfig(horizon_blocks=0),
        "[params] horizon_blocks = 0: must be at least 1", None, None),
}


def _refusal_of(build) -> str | None:
    """The message of the ``ScenarioError`` that ``build`` raises, or None."""
    try:
        build()
    except ScenarioError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "section, text, build, message, edge_text, edge_build, edge_refusal",
    [
        *_bound_cases(),
        *(pytest.param(*case, None, id=case_id) for case_id, case in RULE_CASES.items()),
    ],
)
def test_a_file_and_a_built_config_are_refused_alike(
    section, text, build, message, edge_text, edge_build, edge_refusal
):
    """Every value the dataclasses refuse is refused from a file and from
    a config built in code, with one message (a behaviour built in code
    names no section, which the parser adds), and the edge value is
    accepted by both."""
    assert _refusal_of(build) == message
    named = (f"[{section}] " if section else "") + message
    assert _refusal_of(lambda: parse_scenario(text)) == named
    if edge_text is not None:
        assert _refusal_of(lambda: parse_scenario(edge_text)) == edge_refusal
        assert _refusal_of(edge_build) == edge_refusal


def test_an_oracle_count_past_two_bytes_is_refused_before_any_oracle_is_built(monkeypatch):
    built = []
    post_init = OracleBehavior.__post_init__
    monkeypatch.setattr(
        OracleBehavior, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    message = "[params] n_oracles = 65536: at most 65535 oracles"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig(n_oracles=65536)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario("[params]\nn_oracles = 65536\n")
    assert built == []
    ScenarioConfig(n_oracles=2)  # the count sees the oracles a config pads with
    assert len(built) == 2


def test_parse_accepts_as_many_oracles_as_tweak_data_holds():
    # parsed only: no world is built with this many oracles
    for text in ("[params]\nn_oracles = 65535\n", "[oracle.65534]\nrefuse = true\n"):
        assert len(parse_scenario(text).oracles) == MAX_ORACLES == 65535
    assert parse_scenario("[oracle.0]\noffline = 0..5\n").oracles[0].offline == (0, 5)


def test_parse_accepts_values_at_the_widths_they_are_stored_in():
    """Each bound the parser sets on a value is the largest its encoder
    writes: an output count in two bytes, a delay in four, an expiry, an
    output value and a checkpoint slot in eight.  Parsed only: no world
    is built."""
    most = 2**64 - 1
    assert (scenario.MAX_DELAY, scenario.MAX_VALUE, scenario.MAX_EXPIRY, scenario.MAX_SLOT) == (
        2**32 - 1, most, most, most,
    )
    assert scenario.MAX_OUTPUTS == 2**16 - 1
    widest = ", ".join(["669"] * scenario.MAX_OUTPUTS)
    assert len(parse_scenario(f"[deposit]\namounts = {widest}\n").amounts) == 65535
    bound_t3 = most // scenario.VERSION_LIFETIME
    config = parse_scenario(
        f"[params]\nt1 = {2**32 - 1}\nt2 = {2**32 - 1}\nt3 = {bound_t3}\n"
        f"fee_funds = 1000\n[deposit]\namounts = {most - 5 * 1000}\n"
    )
    assert (config.t1, config.t2, config.t3) == (2**32 - 1, 2**32 - 1, bound_t3)
    assert sum(config.amounts) + 5 * config.fee_funds == most
    spb = 10**17
    config = parse_scenario(
        f"[params]\nslots_per_block = {spb}\nt3 = {17 * spb}\n"
        f"horizon_blocks = {most // spb - 6}\n"
    )
    assert (6 + config.horizon_blocks) * spb <= most


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


def test_network_fee_base_leaves_scripted_verdicts():
    """``fee_base`` sets the network's rate only: templates still commit
    ``BASE_FEE_RATE``, so at a higher network rate every graded run keeps
    its verdicts and executors top up what the templates commit."""
    for path in GRADED_FILES:
        config = load_scenario(str(path))
        pricier = dataclasses.replace(config, fee_base=2)
        result = run_scenario(pricier)
        assert result.verdicts.triple() == config.expected_verdicts, (
            config.name,
            result.verdicts.reasons,
        )
        if config.name == "griefing-challenge-defended":
            actions = {entry["action"] for entry in result.trace}
            assert {"cpfp_child", "broadcast_with_fee"} <= actions


def test_failed_verdicts_carry_reasons():
    config = load_scenario(str(MATRIX_DIR / "08_corrupted_operator_oracles_offline.scn"))
    result = run_scenario(config)
    assert result.verdicts.triple() == (False, False, False)
    assert result.verdicts.reasons
    assert all(isinstance(reason, str) and reason for reason in result.verdicts.reasons)


def co_sign_the_first_vault(address=None):
    """Before the run, the depositor and the operator co-sign the first
    vault's ``dep_to`` leaf to ``address(world)`` or, with no address, to
    a transaction with no outputs."""

    def act(world):
        vault = next(iter(world.vaults.values()))[1]
        outputs = []
        if address is not None:
            outputs = [TxOutput(address(world), world.chain.utxo_set[vault].value - 2)]
        tx = SimTx([TxInput(vault, "dep_to")], outputs)
        signers = (world.depositors[0].keypair, world.operator.keypair)
        tx.inputs[0].witness = [sign_digest(kp, tx.sighash(0)) for kp in signers]
        world.chain.submit_tx(tx)

    return act


def outside_key(world) -> str:
    return world.chain.ensure_key_address(keypair_from_seed(b"outside").public)


def griefed_exit(**oracle) -> ScenarioConfig:
    """An honest exit at 10 that the operator challenges and never
    claims, its deadline 10 + t1 + t2 + margin = 32, with three oracles
    that each behave as ``oracle`` says."""
    return ScenarioConfig(
        horizon_blocks=50,
        depositor=DepositorBehavior(exit_at=10),
        operator=OperatorBehavior(challenge_legitimate=True, claim_expired=False),
        oracles=[OracleBehavior(**oracle) for _ in range(3)],
    )


def _graded(name: str) -> ScenarioConfig:
    return load_scenario(str(GRADED_FILES[[p.stem for p in GRADED_FILES].index(name)]))


# (a world, what is done to it before the run, one reason the grader gives)
GRADER_REASONS = {
    "untracked": (
        ScenarioConfig(), co_sign_the_first_vault(), "{deposit}: value untracked at horizon"
    ),
    "not-finished": (
        griefed_exit(refuse_resolutions=True), None, "{deposit}: exit not finished by height 32"
    ),
    "completed-late": (
        griefed_exit(offline=(0, 36)), None, "{deposit}: exit completed at 37, deadline 32"
    ),
    "seized": (
        _graded("griefing_challenge_unprotected"),
        None,
        "{deposit}: seized by the operator with status withdrawn",
    ),
    "left-the-protocol": (
        ScenarioConfig(), co_sign_the_first_vault(outside_key), "{deposit}: value left the protocol"
    ),
    "over-seizure-unpaid": (
        dataclasses.replace(
            _graded("legitimate_rebalance"),
            operator=OperatorBehavior(rebalance_at=10, pay_over_seizure=False),
        ),
        None,
        "over-seizure unpaid: {{'alice': 1000}}",
    ),
    "perimeter": (
        _graded("04_oracle_key_leak"),
        None,
        "perimeter supply 10000 exceeds backing 0 locked + 0 gained - 0 repaid",
    ),
}


@pytest.mark.parametrize("case", GRADER_REASONS)
def test_every_grader_reason_has_a_witness(case):
    """Each reason ``compute_verdicts`` can give is given by some run;
    ``{deposit}`` is the first deposit."""
    config, act, reason = GRADER_REASONS[case]
    world = build_world(config)
    if act is not None:
        act(world)
    world.run(config.horizon_blocks)
    deposit = next(iter(world.vaults))
    assert reason.format(deposit=deposit) in compute_verdicts(world, config).reasons


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


def test_cli_matrix_reads_the_rows_shipped_with_the_package(tmp_path, monkeypatch, capsys):
    """The matrix rows are package data, not files found through the
    working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["matrix"]) == 0
    assert capsys.readouterr().out.endswith("\n8/8 rows matched\n")


def test_cli_run_graded_ok(capsys):
    code = main(["run", str(SCENARIO_DIR / "honest_exit.scn")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: honest-exit" in out
    assert "expected verdicts matched (Y/Y/Y)" in out


def test_cli_run_mismatch_exits_nonzero(tmp_path, capsys):
    text = (SCENARIO_DIR / "honest_exit.scn").read_text()
    text = text.replace("depositor_safe = true", "depositor_safe = false")
    text = text.replace("protocol_safe = true", "protocol_safe = false")
    path = tmp_path / "wrong.scn"
    path.write_text(text)
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH: expected N/Y/N, got Y/Y/Y" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("[params]\nt_one = 6\n", "[params] t_one: unknown key"),
        ("[params]\nt3 = 100\n",
         "[params] t3: t3=100 slots must exceed (t1+t2)=16 blocks * 50 slots/block"),
        ("[deposit]\namounts = 500\n",
         "[deposit] amounts = 500: a deposit below 669 cannot pay its pre-signed rows"),
        ("[params]\nfee_steps = 20:3, 20:1\n",
         "[params] fee_steps = 20:3, 20:1: height 20 is given twice"),
        ("[deposit]\nowner =\n", "[deposit] owner = : must not be empty"),
        ("[params]\nn_oracles = 65536\n", "[params] n_oracles = 65536: at most 65535 oracles"),
        ("[depositor]\nleak_tokens_at = 5\n",
         "[depositor] leak_tokens_at = 5: no leak_token_amount is set"),
        ("[depositor]\nuse_leaked_key = true\n",
         "[depositor] use_leaked_key = true: no exit_at is set"),
        ("[oracle.0]\noffline = 3\n",
         "[oracle.0] offline = '3': expected start..until, got '3'"),
        ("[deposit]\namounts = 2000,,3000\n",
         "[deposit] amounts = '2000,,3000': an item of the list is empty"),
        ("[expect]\noperator_safe = false\nprotocol_safe = true\n",
         "[expect] protocol_safe = true: a run is protocol-safe exactly when it is"
         " depositor-safe and operator-safe"),
        ("[deposit]\namounts = 20000000000000000000\n",
         "[deposit] amounts = 20000000000000000000: they total 20000000000000000000 sat,"
         " above 18446744073709551615"),
        ("[params]\nt1 = 5000000000\nt3 = 999999999999999\n",
         "[params] t1 = 5000000000: at most 4294967295 blocks"),
        ("[params]\nt3 = 2000000000000000000\n",
         "[params] t3 = 2000000000000000000: at most 1844674407370955161 slots"),
        ("[params]\nfee_funds = 20000000000000000000\nfee_steps = 9:4\n[depositor]\nexit_at = 8\n",
         "[params] fee_funds = 20000000000000000000: 5 wallets and the deposits hold"
         " 100000000000000010000 sat, above 18446744073709551615"),
    ],
    ids=["misspelt", "short-t3", "tiny-deposit", "fee-step-twice", "blank-owner",
         "too-many-oracles", "leak-without-amount", "leaked-key-without-exit",
         "window-without-dots", "amounts-empty-item", "expect-contradictory",
         "amount-past-eight-bytes", "t1-past-four-bytes", "t3-expiry-past-eight-bytes",
         "fee-funds-past-eight-bytes"],
)
def test_cli_run_malformed_file_exits_two_naming_the_key(tmp_path, capsys, text, message):
    path = tmp_path / "malformed.scn"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bsa-sim: {path}: {message}\n"


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


AVAIL = {"--t1": "24", "--t2": "48", "--t3": "720", "--t-op": "1", "--t-check": "4", "--wsp": "1344"}


@pytest.mark.parametrize(
    "changed, flag",
    [
        ({"--t1": "0"}, "--t1"),
        ({"--t1": "-24", "--t-op": "-1"}, "--t1"),
        ({"--t2": "0"}, "--t2"),
        ({"--t3": "-5"}, "--t3"),
        ({"--t-op": "-1"}, "--t-op"),
        ({"--t-check": "0"}, "--t-check"),
        ({"--wsp": "0"}, "--wsp"),
        ({"--t2": "1", "--t-op": "1"}, "--t2"),
        ({"--t-check": "1345"}, "--t-check"),
        ({"--t3": "60"}, "--t3"),
        ({"--t3": "72"}, "--t3"),
    ],
    ids=["zero-t1", "negative-t1-and-t-op", "zero-t2", "negative-t3", "negative-t-op",
         "zero-t-check", "zero-wsp", "t2-not-above-t-op", "t-check-above-wsp",
         "t3-below-t1-plus-t2", "t3-equal-to-t1-plus-t2"],
)
def test_cli_avail_bad_value_exits_two_naming_the_flag(changed, flag, capsys):
    argv = ["avail"] + [item for pair in {**AVAIL, **changed}.items() for item in pair]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bsa-sim: avail: {flag} ")
    assert captured.err.count("\n") == 1


def test_cli_avail_accepts_the_edges(capsys):
    """``t_op`` may be 0, ``t2`` one above it, ``t3`` one above ``t1 + t2``
    and ``t_check`` the whole period."""
    edges = {"--t1": "1", "--t2": "1", "--t3": "3", "--t-op": "0", "--t-check": "7", "--wsp": "7"}
    assert main(["avail"] + [item for pair in edges.items() for item in pair]) == 0
    assert "sync uptime bound:               1.000000" in capsys.readouterr().out


def test_cli_ceremony_demo(capsys):
    code = main(["ceremony", "--demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "honest ceremony" in out
    assert "rejected before funding" in out
