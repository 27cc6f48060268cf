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
section is honest.  An unknown section or key is a ``ScenarioError``
naming it, so a misspelt key cannot silently fall back to its default.
So is a value out of its range: ``t1``, ``t2``, ``t3``,
``slots_per_block``, ``finality_interval``, ``fee_funds``,
``horizon_blocks``, ``t_op_blocks``, ``wsp_slots`` or
``leak_token_amount`` below 1, a negative ``fee_base``,
``margin_blocks`` or ``n_oracles``, more than ``keys.MAX_ORACLES``
(65,535) oracles by ``n_oracles`` or by an ``[oracle.N]`` section (the
tweak data stores the count in two bytes), a ``t3`` that does not exceed
(``t1`` + ``t2``) blocks of ``slots_per_block`` slots
(``registry.check_timelocks``), a negative height (``exit_at``,
``leak_tokens_at``, ``rebalance_at``, ``false_rebalance_at``,
``dest_halted_at``, or one in ``fee_steps``) or rate in ``fee_steps``,
a ``fee_steps`` height given twice, a ``leak_tokens_at`` or
``leak_token_amount`` without the other, an ``exit_deposit_index``,
``burn_before_exit = false`` or ``use_leaked_key = true`` without an
``exit_at`` (nothing reads them before that height), an empty
``owner``, an ``offline`` window that starts below 0 or does not end
after it starts, an ``exit_deposit_index`` that names no deposit,
``amounts`` that are empty or hold one below ``psbt.MIN_DEPOSIT``, too
small to pay the base fees and anchors of its pre-signed rows, and an
``[expect]`` ``protocol_safe`` other than ``depositor_safe and
operator_safe``, which a missing one defaults to (a missing other key
defaults to true).  So is a value wider than the field its encoder
writes it in, each bound named beside that encoder: a ``t1`` or ``t2``
above ``keys.MAX_DELAY``, a ``t3`` above ``registry.MAX_EXPIRY`` //
``VERSION_LIFETIME``, ``amounts`` that total more than
``chain.MAX_VALUE`` sat or count more than ``chain.MAX_OUTPUTS``, a
``fee_funds`` for which the wallets it funds and the deposits hold more
than ``chain.MAX_VALUE``, and a ``horizon_blocks`` that runs past slot
``destchain.MAX_SLOT``.  So is a value of the wrong shape: an
``offline`` window not written ``start..until``, a ``fee_steps`` item
not written ``height:rate``, or an empty item in the comma list of
``amounts`` or ``fee_steps`` (``2000,,3000``, ``5:2,``).  So is a file
that is not UTF-8 text.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .actors import DepositorBehavior, OperatorBehavior, OracleBehavior
from .chain import MAX_OUTPUTS, MAX_VALUE
from .destchain import DEFAULT_WSP_SLOTS, MAX_SLOT
from .keys import MAX_DELAY, MAX_ORACLES
from .psbt import ACTIVATION_DEPTH, MIN_DEPOSIT
from .registry import MAX_EXPIRY, TimelockRelationViolated, check_timelocks

VERSION_LIFETIME = 10  # a world's enclave version expires at slot t3 * VERSION_LIFETIME


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
        # the checks that relate one value to others, made on a config
        # built in code as on a parsed one
        try:
            check_timelocks(self.t1, self.t2, self.t3, self.slots_per_block)
        except TimelockRelationViolated as exc:
            raise ScenarioError(f"[params] t3: {exc}") from exc
        # ``build_world`` funds the depositor, the operator and each oracle with
        # fee_funds, and a transaction can gather those and the deposits in one output
        wallets = 2 + len(self.oracles)
        held = sum(self.amounts) + wallets * self.fee_funds
        if held > MAX_VALUE:
            raise ScenarioError(
                f"[params] fee_funds = {self.fee_funds}: {wallets} wallets and the deposits"
                f" hold {held} sat, above {MAX_VALUE}"
            )
        last_slot = (ACTIVATION_DEPTH + self.horizon_blocks) * self.slots_per_block
        if last_slot > MAX_SLOT:
            raise ScenarioError(
                f"[params] horizon_blocks = {self.horizon_blocks}: the run reaches slot"
                f" {last_slot}, above {MAX_SLOT}"
            )
        index = self.depositor.exit_deposit_index
        if index is not None and not 0 <= index < len(self.amounts):
            raise ScenarioError(
                f"[depositor] exit_deposit_index = {index}: there are {len(self.amounts)} deposits"
            )
        if not self.oracles:
            raise ScenarioError("[params] n_oracles: a scenario needs at least one oracle")


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


def _items(value: str) -> list[str]:
    """The items of a comma list, none of them empty; an empty value is
    an empty list."""
    if not value.strip():
        return []
    items = [part.strip() for part in value.split(",")]
    if "" in items:
        raise ValueError("an item of the list is empty")
    return items


def _int_pair(text: str, sep: str, shape: str) -> tuple[int, int]:
    """Two integers written ``left{sep}right``; ``shape`` names them."""
    left, _, right = text.partition(sep)
    try:
        return int(left), int(right)
    except ValueError:
        raise ValueError(f"expected {shape}, got {text!r}") from None


def _amounts(value: str) -> list[int]:
    amounts = [int(part) for part in _items(value)]
    if not amounts or min(amounts) <= 0:
        raise ValueError("deposit amounts must be positive")
    if min(amounts) < MIN_DEPOSIT:
        raise ValueError(f"a deposit below {MIN_DEPOSIT} cannot pay its pre-signed rows")
    if sum(amounts) > MAX_VALUE:
        raise ValueError(f"they total {sum(amounts)} sat, above {MAX_VALUE}")
    if len(amounts) > MAX_OUTPUTS:
        raise ValueError(f"at most {MAX_OUTPUTS} deposits, one funding output each")
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


def _at_most(bound: int, unit: str, convert=_positive_int):
    """``convert``, refusing a number above ``bound``, counted in ``unit``."""

    def checked(value: str) -> int:
        number = convert(value)
        if number > bound:
            raise ValueError(f"at most {bound} {unit}")
        return number

    return checked


def _step_list(value: str) -> list[tuple[int, int]]:
    steps = []
    for part in _items(value):
        height, rate = _int_pair(part, ":", "height:rate")
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
    start, end = _int_pair(value, "..", "start..until")
    if start < 0:
        raise ValueError("a window must not start below 0")
    if end <= start:
        raise ValueError("a window must end after it starts")
    return (start, end)


def _keys(convert, *keys: str) -> dict:
    return {key: (key, convert) for key in keys}


# Per section: key -> (attribute it sets, converter of the text value).
_SCENARIO = _keys(str, "name")
_PARAMS = {
    **_keys(
        _positive_int, "slots_per_block", "finality_interval", "fee_funds",
        "horizon_blocks", "t_op_blocks", "wsp_slots",
    ),
    **_keys(_at_most(MAX_DELAY, "blocks"), "t1", "t2"),
    **_keys(_at_most(MAX_EXPIRY // VERSION_LIFETIME, "slots"), "t3"),
    **_keys(_non_negative_int, "fee_base", "margin_blocks"),
    **_keys(_at_most(MAX_ORACLES, "oracles", _non_negative_int), "n_oracles"),
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
    if int(number) >= MAX_ORACLES:
        raise ScenarioError(f"[{section}]: at most {MAX_ORACLES} oracles, numbered from 0")
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
        given = _values(parser, "expect", _EXPECT)
        dep_safe, to_safe = given.get("depositor_safe", True), given.get("operator_safe", True)
        protocol_safe = dep_safe and to_safe  # as the grader derives it
        if given.get("protocol_safe", protocol_safe) != protocol_safe:
            raise ScenarioError(
                f"[expect] protocol_safe = {str(not protocol_safe).lower()}: a run is"
                " protocol-safe exactly when it is depositor-safe and operator-safe"
            )
        expected_verdicts = (dep_safe, to_safe, protocol_safe)

    try:
        depositor = DepositorBehavior(**_values(parser, "depositor", _DEPOSITOR))
    except ValueError as exc:
        raise ScenarioError(f"[depositor] {exc}") from exc
    return ScenarioConfig(
        **_values(parser, "scenario", _SCENARIO),
        **_values(parser, "params", _PARAMS),
        **_values(parser, "deposit", _DEPOSIT),
        depositor=depositor,
        operator=OperatorBehavior(**_values(parser, "operator", _OPERATOR)),
        oracles=_oracles(parser),
        expected_verdicts=expected_verdicts,
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text ({exc.reason})") from exc
    return parse_scenario(text)
