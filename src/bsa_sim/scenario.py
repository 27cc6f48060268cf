"""Scenario configuration: what a single simulation run looks like.

Scenario files use INI syntax.  Everything has a default, so the
smallest valid file is empty.  Example:

    [scenario]
    name = honest-exit

    [params]
    t1 = 6
    t2 = 10
    t3 = 1200
    slots_per_block = 50
    horizon_blocks = 40
    fee_base = 1
    fee_steps = 20:3, 30:1

    [deposit]
    owner = alice
    amounts = 7000, 3000

    [depositor]
    exit_at = 10
    burn_before_exit = true

    [operator]
    rebalance_at = none
    false_rebalance_at = none

    [oracle.0]
    offline = 12..20
    refuse = false
    leak = false

``fee_base`` is the Bitcoin network's base feerate (sat per weight
unit) before any ``fee_steps``; it also sizes the depositor's funding
margin.  It does not change the fee that pre-signed templates commit,
which is the protocol constant ``psbt.BASE_FEE_RATE``: when the network
rate is above it, executors top up with anchor children or fee inputs.

Section ``[oracle.N]`` sets oracle N (N is a decimal number; each N
may appear once).  There are max(``n_oracles``, highest N + 1) oracles,
at least one, ``n_oracles`` defaulting to 3, and every oracle without a
section is honest.  An unknown section or key is a ``ScenarioError`` naming it, so
a misspelt key cannot silently fall back to its default.  So is a value
out of its range: ``t1``, ``t2``, ``t3``, ``slots_per_block``,
``finality_interval``, ``fee_funds``, ``horizon_blocks``,
``t_op_blocks``, ``wsp_slots`` or ``leak_token_amount`` below 1, a
negative ``fee_base``, ``margin_blocks`` or ``n_oracles``, a ``t3``
that does not exceed (``t1`` + ``t2``) blocks of ``slots_per_block``
slots (``registry.check_timelocks``), a negative height (``exit_at``,
``leak_tokens_at``, ``rebalance_at``, ``false_rebalance_at``,
``dest_halted_at``, or one in ``fee_steps``) or rate in ``fee_steps``,
a ``fee_steps`` height given twice, an empty ``owner``, an ``offline``
window that does not end after it starts, an ``exit_deposit_index``
that names no deposit, and ``amounts`` that are empty or hold one below
``psbt.MIN_DEPOSIT``, too small to pay the base fees and anchors of its
pre-signed rows.  So is a file that is not UTF-8 text.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .actors import DepositorBehavior, OperatorBehavior, OracleBehavior
from .destchain import DEFAULT_WSP_SLOTS
from .psbt import MIN_DEPOSIT
from .registry import TimelockRelationViolated, check_timelocks


class ScenarioError(Exception):
    pass


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    t1: int = 6
    t2: int = 10
    t3: int = 1200
    slots_per_block: int = 50
    t_op_blocks: int = 1
    margin_blocks: int = 6
    horizon_blocks: int = 40
    fee_base: int = 1
    fee_steps: list[tuple[int, int]] = field(default_factory=list)
    finality_interval: int = 32
    wsp_slots: int = DEFAULT_WSP_SLOTS
    n_oracles: int = 3
    owner: str = "alice"
    amounts: list[int] = field(default_factory=lambda: [10_000])
    fee_funds: int = 200_000
    depositor: DepositorBehavior = field(default_factory=DepositorBehavior)
    operator: OperatorBehavior = field(default_factory=OperatorBehavior)
    oracles: list[OracleBehavior] = field(default_factory=list)
    dest_halted_at: int | None = None
    expected_verdicts: tuple[bool, bool, bool] | None = None

    def __post_init__(self):
        # n_oracles is a floor: oracles beyond the list are honest
        while len(self.oracles) < self.n_oracles:
            self.oracles.append(OracleBehavior())
        if len(self.oracles) > self.n_oracles:
            self.n_oracles = len(self.oracles)


def _opt_non_negative_int(value: str) -> int | None:
    value = value.strip().lower()
    if value in ("", "none", "never", "-"):
        return None
    return _non_negative_int(value)


def _bool(value: str) -> bool:
    value = value.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ScenarioError(f"not a boolean: {value!r}")


def _amounts(value: str) -> list[int]:
    amounts = [int(part.strip()) for part in value.split(",") if part.strip()]
    if not amounts or min(amounts) <= 0:
        raise ValueError("deposit amounts must be positive")
    if min(amounts) < MIN_DEPOSIT:
        raise ValueError(f"a deposit below {MIN_DEPOSIT} cannot pay its pre-signed rows")
    return amounts


def _nonempty(value: str) -> str:
    if not value:
        raise ValueError("must not be empty")
    return value


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise ValueError("must be at least 1")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise ValueError("must not be negative")
    return number


def _step_list(value: str) -> list[tuple[int, int]]:
    steps = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        left, right = part.split(":")
        height, rate = int(left), int(right)
        if height < 0 or rate < 0:
            raise ValueError("heights and rates must not be negative")
        if any(height == h for h, _ in steps):
            raise ValueError(f"height {height} is given twice")
        steps.append((height, rate))
    return steps


def _range(value: str) -> tuple[int, int] | None:
    value = value.strip().lower()
    if value in ("", "none", "-"):
        return None
    start, end = value.split("..")
    start, end = int(start), int(end)
    if end <= start:
        raise ValueError("a window must end after it starts")
    return (start, end)


def _keys(convert, *keys: str) -> dict:
    return {key: (key, convert) for key in keys}


# Per section: key -> (attribute it sets, converter of the text value).
_SCENARIO = _keys(str, "name")
_PARAMS = {
    **_keys(
        _positive_int, "t1", "t2", "t3", "slots_per_block", "finality_interval",
        "fee_funds", "horizon_blocks", "t_op_blocks", "wsp_slots",
    ),
    **_keys(_non_negative_int, "fee_base", "margin_blocks", "n_oracles"),
    **_keys(_step_list, "fee_steps"),
    **_keys(_opt_non_negative_int, "dest_halted_at"),
}
_DEPOSIT = {**_keys(_nonempty, "owner"), **_keys(_amounts, "amounts")}
_DEPOSITOR = {
    **_keys(_opt_non_negative_int, "exit_at", "exit_deposit_index", "leak_tokens_at"),
    **_keys(_bool, "burn_before_exit", "use_leaked_key"),
    **_keys(_positive_int, "leak_token_amount"),
}
_OPERATOR = {
    **_keys(
        _bool, "challenge_thefts", "challenge_legitimate", "claim_expired",
        "pay_over_seizure", "provide_checkpoints",
    ),
    **_keys(_opt_non_negative_int, "rebalance_at", "false_rebalance_at"),
}
_ORACLE = {
    "offline": ("offline", _range),
    "refuse": ("refuse_resolutions", _bool),
    "leak": ("leak_secret", _bool),
}
_EXPECT = _keys(_bool, "depositor_safe", "operator_safe", "protocol_safe")


def _reject_unknown_sections(parser: configparser.ConfigParser) -> None:
    if parser.defaults():
        raise ScenarioError("[DEFAULT]: unknown section")
    known = ("scenario", "params", "deposit", "depositor", "operator", "expect")
    for name in parser.sections():
        if name not in known and not name.startswith("oracle."):
            raise ScenarioError(f"[{name}]: unknown section")


def _values(parser: configparser.ConfigParser, name: str, table: dict) -> dict:
    """The attributes that the keys of section ``name`` set, converted;
    a key that ``table`` does not list is a ``ScenarioError``."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key, text in parser[name].items():
        if key not in table:
            raise ScenarioError(f"[{name}] {key}: unknown key")
        attr, convert = table[key]
        try:
            values[attr] = convert(text)
        except (ValueError, ScenarioError) as exc:
            raise ScenarioError(f"[{name}] {key} = {text!r}: {exc}") from exc
    return values


def _oracle_number(section: str) -> int:
    number = section.removeprefix("oracle.")
    if not (number.isascii() and number.isdigit()):
        raise ScenarioError(f"[{section}]: oracle sections are named oracle.N")
    return int(number)


def _oracles(parser: configparser.ConfigParser) -> list[OracleBehavior]:
    """Oracle N as section [oracle.N] sets it, up to the highest N listed;
    unlisted oracles are honest."""
    sections: dict[int, str] = {}
    for section in parser.sections():
        if not section.startswith("oracle."):
            continue
        number = _oracle_number(section)
        if number in sections:
            raise ScenarioError(f"[{section}]: oracle {number} is also [{sections[number]}]")
        sections[number] = section
    oracles = [OracleBehavior() for _ in range(max(sections, default=-1) + 1)]
    for number, section in sections.items():
        oracles[number] = OracleBehavior(**_values(parser, section, _ORACLE))
    return oracles


def parse_scenario(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"bad scenario file: {exc}") from exc

    _reject_unknown_sections(parser)

    expected_verdicts = None
    if parser.has_section("expect"):
        verdicts = {**dict.fromkeys(_EXPECT, True), **_values(parser, "expect", _EXPECT)}
        expected_verdicts = tuple(verdicts[key] for key in _EXPECT)

    config = ScenarioConfig(
        **_values(parser, "scenario", _SCENARIO),
        **_values(parser, "params", _PARAMS),
        **_values(parser, "deposit", _DEPOSIT),
        depositor=DepositorBehavior(**_values(parser, "depositor", _DEPOSITOR)),
        operator=OperatorBehavior(**_values(parser, "operator", _OPERATOR)),
        oracles=_oracles(parser),
        expected_verdicts=expected_verdicts,
    )
    try:
        check_timelocks(config.t1, config.t2, config.t3, config.slots_per_block)
    except TimelockRelationViolated as exc:
        raise ScenarioError(f"[params] t3: {exc}") from exc
    index = config.depositor.exit_deposit_index
    if index is not None and not 0 <= index < len(config.amounts):
        raise ScenarioError(
            f"[depositor] exit_deposit_index = {index}: there are {len(config.amounts)} deposits"
        )
    if not config.oracles:
        raise ScenarioError("[params] n_oracles: a scenario needs at least one oracle")
    return config


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text ({exc.reason})") from exc
    return parse_scenario(text)
