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
section is honest.

Each value is checked once, in the ``__post_init__`` of the dataclass
that holds it, so a config or a behaviour built in code is refused as a
parsed one is: by a ``ScenarioError`` that reads ``[section] key =
value: reason`` (a behaviour built in code names no section; the parser
adds it).  ``BOUNDS`` gives each number its least and its most value; a
most is the width the value's encoder writes.  Besides, ``amounts`` are
not empty, each is at least ``psbt.MIN_DEPOSIT`` (less cannot pay the
base fees and anchors of its pre-signed rows), and there are at most
``chain.MAX_OUTPUTS`` of them totalling at most ``chain.MAX_VALUE`` sat;
no ``fee_steps`` height or rate is negative and no height is given
twice; ``owner`` is not empty; an ``offline`` window starts at 0 or
later and ends after it starts; ``[expect]`` ``protocol_safe`` is
``depositor_safe and operator_safe``, which a missing one defaults to (a
missing other key defaults to true); ``leak_tokens_at`` and
``leak_token_amount`` come together, and ``exit_deposit_index``,
``burn_before_exit = false`` and ``use_leaked_key = true`` need an
``exit_at`` (nothing reads them before that height).  Last, the values
are checked against each other: ``t3`` exceeds (``t1`` + ``t2``) blocks
of ``slots_per_block`` slots (``registry.check_timelocks``), the
deposits and the wallets funded with ``fee_funds`` hold at most
``chain.MAX_VALUE``, the run ends by slot ``destchain.MAX_SLOT``,
``exit_deposit_index`` names a deposit, and there is an oracle.

The parser only reads text, each key by its field's declared type
(``_READ``).  It refuses an unknown section or key, naming it, so a
misspelt key cannot silently fall back to its default; an oracle section
not named ``oracle.N``, numbered past ``keys.MAX_ORACLES`` or given
twice; a value that does not read as its type, such as an ``offline``
window not written ``start..until``, a ``fee_steps`` item not written
``height:rate`` or an empty item in a comma list (``2000,,3000``,
``5:2,``); and a file that is not UTF-8 text.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .chain import MAX_OUTPUTS, MAX_VALUE
from .destchain import DEFAULT_WSP_SLOTS, MAX_SLOT
from .keys import MAX_DELAY, MAX_ORACLES
from .psbt import ACTIVATION_DEPTH, MIN_DEPOSIT
from .registry import MAX_EXPIRY, TimelockRelationViolated, check_timelocks

VERSION_LIFETIME = 10  # a world's enclave version expires at slot t3 * VERSION_LIFETIME

# field -> (least value, most value or None, unit) of every number a
# scenario holds; a most is the width the value's encoder writes
BOUNDS = {
    "t1": (1, MAX_DELAY, "blocks"),
    "t2": (1, MAX_DELAY, "blocks"),
    "t3": (1, MAX_EXPIRY // VERSION_LIFETIME, "slots"),
    "slots_per_block": (1, None, "slots"),
    "t_op_blocks": (1, None, "blocks"),
    "margin_blocks": (0, None, "blocks"),
    "horizon_blocks": (1, None, "blocks"),
    "fee_base": (0, None, "sat per weight unit"),
    "finality_interval": (1, None, "slots"),
    "wsp_slots": (1, None, "slots"),
    "n_oracles": (0, MAX_ORACLES, "oracles"),
    "fee_funds": (1, None, "sat"),
    "dest_halted_at": (0, None, "height"),
    "exit_at": (0, None, "height"),
    "exit_deposit_index": (0, None, "deposit index"),
    "leak_tokens_at": (0, None, "height"),
    "leak_token_amount": (0, None, "tokens"),
    "rebalance_at": (0, None, "height"),
    "false_rebalance_at": (0, None, "height"),
}


class ScenarioError(ValueError):
    pass


def _refusal(key: str, value, reason: str, section: str = "") -> ScenarioError:
    """The one form of a refused value, ``[section] key = value: reason``,
    with the value written as a scenario file writes it: a window as
    ``start..until`` and a list with commas, a fee step as ``height:rate``."""
    if isinstance(value, tuple):
        value = "..".join(map(str, value))
    elif isinstance(value, list):
        value = ", ".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)
    elif isinstance(value, bool):
        value = str(value).lower()
    where = f"[{section}] " if section else ""
    return ScenarioError(f"{where}{key} = {value}: {reason}")


def _check_bounds(values, section: str = "") -> None:
    """Refuse a number of the dataclass ``values`` outside its ``BOUNDS``."""
    for name in values.__dataclass_fields__:
        if name not in BOUNDS or (number := getattr(values, name)) is None:
            continue
        least, most, unit = BOUNDS[name]
        if number < least:
            reason = f"must be at least {least}" if least else "must not be negative"
            raise _refusal(name, number, reason, section)
        if most is not None and number > most:
            raise _refusal(name, number, f"at most {most} {unit}", section)


@dataclass
class DepositorBehavior:
    exit_at: int | None = None  # height at which to start a unilateral exit
    exit_deposit_index: int | None = None  # which funding output to exit (None = all)
    burn_before_exit: bool = True  # False models an exit without giving up tokens
    use_leaked_key: bool = False  # resolve own challenge with a leaked oracle secret
    leak_tokens_at: int | None = None  # move tokens outside the tracked perimeter
    leak_token_amount: int = 0

    def __post_init__(self):
        _check_bounds(self)
        # a leak of nothing is one the ledger refuses every block
        if self.leak_tokens_at is not None and self.leak_token_amount == 0:
            raise _refusal("leak_tokens_at", self.leak_tokens_at, "no leak_token_amount is set")
        # a key that qualifies a height is read only once that height comes
        for key, height in (("leak_token_amount", "leak_tokens_at"),
                            ("exit_deposit_index", "exit_at"), ("burn_before_exit", "exit_at"),
                            ("use_leaked_key", "exit_at")):
            value = getattr(self, key)
            if value != self.__dataclass_fields__[key].default and getattr(self, height) is None:
                raise _refusal(key, value, f"no {height} is set")


@dataclass
class OperatorBehavior:
    challenge_thefts: bool = True
    challenge_legitimate: bool = False  # dispute even burned exits (malicious)
    claim_expired: bool = True
    rebalance_at: int | None = None  # height to run imbalance detection
    false_rebalance_at: int | None = None  # seize without marking the registry
    pay_over_seizure: bool = True
    provide_checkpoints: bool = True

    def __post_init__(self):
        _check_bounds(self)


@dataclass
class OracleBehavior:
    offline: tuple[int, int] | None = None  # [from_height, until_height)
    refuse_resolutions: bool = False  # verifies but never signs (corrupted)
    leak_secret: bool = False  # identity key handed to the adversary at setup

    def __post_init__(self):
        start, until = self.offline or (0, 1)  # None: never offline
        if start < 0:
            raise _refusal("offline", self.offline, "a window must not start below 0")
        if until <= start:
            raise _refusal("offline", self.offline, "a window must end after it starts")


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
        _check_bounds(self, "params")  # first, so nothing is built from a value out of bounds
        if not self.owner:
            raise _refusal("owner", self.owner, "must not be empty", "deposit")
        amounts, reason = self.amounts, None
        if not amounts or min(amounts) <= 0:
            reason = "deposit amounts must be positive"
        elif min(amounts) < MIN_DEPOSIT:
            reason = f"a deposit below {MIN_DEPOSIT} cannot pay its pre-signed rows"
        elif sum(amounts) > MAX_VALUE:
            reason = f"they total {sum(amounts)} sat, above {MAX_VALUE}"
        elif len(amounts) > MAX_OUTPUTS:
            reason = f"at most {MAX_OUTPUTS} deposits, one funding output each"
        if reason:
            raise _refusal("amounts", amounts, reason, "deposit")
        heights = set()
        for height, rate in self.fee_steps:
            if height < 0 or rate < 0:
                reason = "heights and rates must not be negative"
            elif height in heights:
                reason = f"height {height} is given twice"
            if reason:
                raise _refusal("fee_steps", self.fee_steps, reason, "params")
            heights.add(height)
        if self.expected_verdicts is not None:
            depositor_safe, operator_safe, protocol_safe = self.expected_verdicts
            if protocol_safe != (depositor_safe and operator_safe):  # as the grader derives it
                raise _refusal("protocol_safe", protocol_safe, "a run is protocol-safe exactly"
                               " when it is depositor-safe and operator-safe", "expect")
        # n_oracles is a floor: oracles beyond the list are honest
        self.oracles.extend(OracleBehavior() for _ in range(self.n_oracles - len(self.oracles)))
        self.n_oracles = len(self.oracles)
        # the checks that relate one value to others
        try:
            check_timelocks(self.t1, self.t2, self.t3, self.slots_per_block)
        except TimelockRelationViolated as exc:
            raise ScenarioError(f"[params] t3: {exc}") from exc
        # ``build_world`` funds the depositor, the operator and each oracle with
        # fee_funds, and a transaction can gather those and the deposits in one output
        wallets = 2 + len(self.oracles)
        held = sum(self.amounts) + wallets * self.fee_funds
        if held > MAX_VALUE:
            raise _refusal("fee_funds", self.fee_funds, f"{wallets} wallets and the deposits"
                           f" hold {held} sat, above {MAX_VALUE}", "params")
        last_slot = (ACTIVATION_DEPTH + self.horizon_blocks) * self.slots_per_block
        if last_slot > MAX_SLOT:
            raise _refusal("horizon_blocks", self.horizon_blocks, f"the run reaches slot"
                           f" {last_slot}, above {MAX_SLOT}", "params")
        index = self.depositor.exit_deposit_index
        if index is not None and not 0 <= index < len(self.amounts):
            raise _refusal("exit_deposit_index", index, f"there are {len(self.amounts)} deposits",
                           "depositor")
        if not self.oracles:
            raise ScenarioError("[params] n_oracles: a scenario needs at least one oracle")


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


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


def _or_none(read):
    """``read``, but an empty value, ``none``, ``never`` or ``-`` reads as None."""
    return lambda text: None if text.strip().lower() in ("", "none", "never", "-") else read(text)


# a field's declared type -> how a scenario file's text reads as that type
_READ = {
    "str": str,
    "int": int,
    "bool": _bool,
    "int | None": _or_none(int),
    "tuple[int, int] | None": _or_none(lambda text: _int_pair(text, "..", "start..until")),
    "list[int]": lambda text: [int(item) for item in _items(text)],
    "list[tuple[int, int]]": lambda text: [
        _int_pair(item, ":", "height:rate") for item in _items(text)
    ],
}


def _keys(cls, *keys: str, **renamed: str) -> dict:
    """key -> (the field of ``cls`` it sets, the reader of that field's
    declared type), for ``keys`` named as their field and ``renamed`` keys."""
    fields = cls.__dataclass_fields__
    named = {**{key: key for key in keys}, **renamed}
    return {key: (name, _READ[fields[name].type]) for key, name in named.items()}


# Per section: key -> (field it sets, reader of its text).
_SCENARIO = _keys(ScenarioConfig, "name")
_PARAMS = _keys(
    ScenarioConfig, "t1", "t2", "t3", "slots_per_block", "t_op_blocks", "margin_blocks",
    "horizon_blocks", "fee_base", "fee_steps", "finality_interval", "wsp_slots", "n_oracles",
    "fee_funds", "dest_halted_at",
)
_DEPOSIT = _keys(ScenarioConfig, "owner", "amounts")
_DEPOSITOR = _keys(DepositorBehavior, *DepositorBehavior.__dataclass_fields__)
_OPERATOR = _keys(OperatorBehavior, *OperatorBehavior.__dataclass_fields__)
_ORACLE = _keys(OracleBehavior, "offline", refuse="refuse_resolutions", leak="leak_secret")
_EXPECT = {key: (key, _bool) for key in ("depositor_safe", "operator_safe", "protocol_safe")}


def _reject_unknown_sections(parser: configparser.ConfigParser) -> None:
    if parser.defaults():
        raise ScenarioError("[DEFAULT]: unknown section")
    known = ("scenario", "params", "deposit", "depositor", "operator", "expect")
    for name in parser.sections():
        if name not in known and not name.startswith("oracle."):
            raise ScenarioError(f"[{name}]: unknown section")


def _values(parser: configparser.ConfigParser, name: str, table: dict) -> dict:
    """The fields that the keys of section ``name`` set, read from their
    text; a key that ``table`` does not list is a ``ScenarioError``."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key, text in parser[name].items():
        if key not in table:
            raise ScenarioError(f"[{name}] {key}: unknown key")
        attr, read = table[key]
        try:
            values[attr] = read(text)
        except ValueError as exc:
            raise ScenarioError(f"[{name}] {key} = {text!r}: {exc}") from exc
    return values


def _behavior(cls, parser: configparser.ConfigParser, section: str, table: dict):
    """``cls`` as section ``section`` sets it, naming the section in its refusal."""
    values = _values(parser, section, table)
    try:
        return cls(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"[{section}] {exc}") from exc


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
        oracles[number] = _behavior(OracleBehavior, parser, section, _ORACLE)
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
        safe = given.get("depositor_safe", True), given.get("operator_safe", True)
        expected_verdicts = (*safe, given.get("protocol_safe", all(safe)))

    return ScenarioConfig(
        **_values(parser, "scenario", _SCENARIO),
        **_values(parser, "params", _PARAMS),
        **_values(parser, "deposit", _DEPOSIT),
        depositor=_behavior(DepositorBehavior, parser, "depositor", _DEPOSITOR),
        operator=_behavior(OperatorBehavior, parser, "operator", _OPERATOR),
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
