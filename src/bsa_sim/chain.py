"""Discrete-block UTXO ledger with script-path spends, relative
timelocks, a height-indexed fee market, and parent+child package
confirmation.

Weight is modeled as input_count + output_count (``weight``, the one
count every fee is priced by).  A transaction id
commits to inputs (outpoints, path ids, sighash flags) and outputs but
not witnesses, so chained pre-signed transactions can reference each
other before any signature exists.

Signature digests:
  ALL                  sha256 over (all input outpoints, all outputs)
  ALL_ANYONECANPAY     sha256 over (own outpoint, all outputs)

Confirmation rule per block at required feerate ``rate``:
  * a tx with fee >= rate * weight confirms on its own;
  * otherwise, if a mempool child spends its anchor output and
    fee + child_fee >= rate * (weight + child_weight), parent and child
    confirm together (same block, parent first);
  * parents always confirm before children inside a block, and a spend
    of an output confirmed in the same block sees a zero-block delay
    (relative timelocks never pass same-block).

Validation: one input checker, ``BtcChain.check_input``, holds the
spending rule: the path exists, the witness has one signature per key
in key order (``check_witness``, which the arbitration oracle shares),
and a delay leaf's relative timelock has passed.  One routine,
``BtcChain._check_tx``, checks and prices a transaction: it resolves
each input from the UTXO set or from unconfirmed parents (the mempool
at admission and in ``verify_spend``, the transactions already chosen
when ``mine_block`` assembles a block), rejects a negative fee and runs
``check_input`` on every input.  Admission skips the timelock, which
can mature later; an unconfirmed prevout has aged zero blocks, so a
delay spend never confirms in the block of its parent.

Spend facts have one source each.  ``BtcChain.spender`` returns the
transaction spending an outpoint: the confirmed one, else the mempool
one, else None; admission's double-spend check, the anchor-package rule
and the actors' wallet ask it.  ``confirmed_at`` maps each confirmed
txid to its height, in confirmation order, and ``spent_by`` each spent
outpoint to its confirmed spender, in the order blocks spent them; it
only grows, so its length tells a reader whether a block has spent.
``BtcChain.spine`` is the one walk of a deposit's spine, its confirmed
spends through output 0, for the reading the actors and the grader
share (``World.read_resting``).
``Outpoint.parse`` reads the ``txid:index`` spelling, and
``BtcChain.next_rate`` is the feerate the next block asks for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .keys import (
    Point,
    ProtocolAddress,
    SingleAfterDelay,
    key_address_id,
    verify_signature,
)


class ChainError(Exception):
    pass


class TxRejected(ChainError):
    """A refused transaction; the message is the refusal's class name
    and the detail."""

    def __init__(self, detail: str = ""):
        name = type(self).__name__
        super().__init__(f"{name}: {detail}" if detail else name)


class UnknownInput(TxRejected):
    pass


class DoubleSpend(TxRejected):
    pass


class Duplicate(TxRejected):
    pass


class MalformedWitness(TxRejected):
    pass


class BadSignature(TxRejected):
    pass


class TimelockNotExpired(TxRejected):
    pass


class UnknownPath(TxRejected):
    pass


class InvalidValue(TxRejected):
    pass


def check_witness(
    keys: tuple[Point, ...], digest: bytes, witness: list[bytes], what: str
) -> None:
    """The witness rule of every spend path: one signature per key, in key
    order.  ``what`` names the spend in the error."""
    if len(witness) != len(keys):
        raise MalformedWitness(f"{what} needs {len(keys)} signatures, has {len(witness)}")
    for sig, key in zip(witness, keys):
        if not verify_signature(key, digest, sig):
            raise BadSignature(what)


class SighashFlag(Enum):
    ALL = "all"
    ALL_ANYONECANPAY = "all_anyonecanpay"


@dataclass(frozen=True)
class Outpoint:
    txid: str
    index: int

    def encode(self) -> bytes:
        return bytes.fromhex(self.txid) + self.index.to_bytes(4, "big")

    def __str__(self) -> str:
        return f"{self.txid}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Outpoint":
        """Read the ``txid:index`` spelling that ``str`` writes."""
        txid, index = text.rsplit(":", 1)
        return cls(txid, int(index))


@dataclass
class TxInput:
    outpoint: Outpoint
    path_id: str
    flag: SighashFlag = SighashFlag.ALL
    witness: list[bytes] = field(default_factory=list)


MAX_VALUE = 0xFFFF_FFFF_FFFF_FFFF  # ``TxOutput.encode`` writes a value in eight bytes
MAX_OUTPUTS = 0xFFFF  # ``SimTx.txid`` writes the input and the output count in two bytes


def weight(n_inputs: int, n_outputs: int) -> int:
    """The weight of a transaction with this many inputs and outputs."""
    return n_inputs + n_outputs


@dataclass(frozen=True)
class TxOutput:
    address_id: str
    value: int

    def encode(self) -> bytes:
        addr = self.address_id.encode()
        return len(addr).to_bytes(2, "big") + addr + self.value.to_bytes(8, "big")


@dataclass
class SimTx:
    inputs: list[TxInput]
    outputs: list[TxOutput]
    anchor_index: int | None = None
    _txid: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.inputs:
            raise InvalidValue("transaction needs at least one input")
        for out in self.outputs:
            if out.value <= 0:
                raise InvalidValue("output values must be positive")
        if self.anchor_index is not None and not (0 <= self.anchor_index < len(self.outputs)):
            raise InvalidValue("anchor marker out of range")

    @property
    def weight(self) -> int:
        return weight(len(self.inputs), len(self.outputs))

    @property
    def txid(self) -> str:
        if self._txid is None:
            parts = [b"tx", len(self.inputs).to_bytes(2, "big")]
            for inp in self.inputs:
                pid = inp.path_id.encode()
                parts.append(inp.outpoint.encode())
                parts.append(len(pid).to_bytes(2, "big") + pid)
                parts.append(b"\x01" if inp.flag is SighashFlag.ALL_ANYONECANPAY else b"\x00")
            parts.append(len(self.outputs).to_bytes(2, "big"))
            parts.extend(out.encode() for out in self.outputs)
            parts.append(
                b"\xff" if self.anchor_index is None else self.anchor_index.to_bytes(1, "big")
            )
            self._txid = hashlib.sha256(b"".join(parts)).hexdigest()
        return self._txid

    def sighash(self, input_index: int) -> bytes:
        """Digest a signature for the given input commits to."""
        inp = self.inputs[input_index]
        out_blob = b"".join(out.encode() for out in self.outputs)
        if inp.flag is SighashFlag.ALL_ANYONECANPAY:
            return hashlib.sha256(b"sighash-acp" + inp.outpoint.encode() + out_blob).digest()
        in_blob = b"".join(i.outpoint.encode() for i in self.inputs)
        return hashlib.sha256(b"sighash-all" + in_blob + out_blob).digest()

    def output_sum(self) -> int:
        return sum(out.value for out in self.outputs)


@dataclass(frozen=True)
class Utxo:
    outpoint: Outpoint
    value: int
    address_id: str
    confirmed_height: int

    def __post_init__(self):
        if self.value <= 0:
            raise InvalidValue("utxo value must be positive")


@dataclass(frozen=True)
class KeyAddress:
    public: Point

    @property
    def address_id(self) -> str:
        return key_address_id(self.public)


@dataclass(frozen=True)
class StepSchedule:
    """A step function: ``base`` until the first step, then the value of
    the last step that starts at or below the point.  It schedules the
    fee rate (sats per weight unit) by block height.  The steps are
    sorted once, when it is built."""

    base: int
    steps: tuple[tuple[int, int], ...] = ()  # (from, value)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(sorted(self.steps)))

    def at(self, point: int) -> int:
        value = self.base
        for start, step in self.steps:
            if point < start:
                break
            value = step
        return value


class BtcChain:
    def __init__(self, fee_schedule: StepSchedule | None = None):
        self.height = 0
        self.fee_schedule = fee_schedule or StepSchedule(1)
        self.utxo_set: dict[Outpoint, Utxo] = {}
        self.mempool: dict[str, SimTx] = {}
        self.mempool_arrival: dict[str, int] = {}
        self.addresses: dict[str, ProtocolAddress | KeyAddress] = {}
        self.confirmed_at: dict[str, int] = {}  # txid -> height, in confirmation order
        self.tx_index: dict[str, SimTx] = {}
        # outpoint -> spending txid (confirmed), in the order blocks spent them
        self.spent_by: dict[Outpoint, str] = {}
        self._seed_counter = 0

    # -- address and utxo management -------------------------------------

    def register_address(self, addr: ProtocolAddress | KeyAddress) -> str:
        self.addresses[addr.address_id] = addr
        return addr.address_id

    def ensure_key_address(self, public: Point) -> str:
        addr = KeyAddress(public)
        self.addresses.setdefault(addr.address_id, addr)
        return addr.address_id

    def seed_utxo(self, address_id: str, value: int) -> Utxo:
        """Grant a fresh unspent output outside transaction validation
        (scenario setup only)."""
        if address_id not in self.addresses:
            raise ChainError(f"unknown address {address_id}")
        self._seed_counter += 1
        marker = hashlib.sha256(f"seed-{self._seed_counter}".encode()).hexdigest()
        utxo = Utxo(Outpoint(marker, 0), value, address_id, self.height)
        self.utxo_set[utxo.outpoint] = utxo
        return utxo

    def utxos_at(self, address_id: str) -> list[Utxo]:
        out = [u for u in self.utxo_set.values() if u.address_id == address_id]
        out.sort(key=lambda u: (u.confirmed_height, str(u.outpoint)))
        return out

    def spine(self, outpoint: Outpoint) -> list[SimTx]:
        """The confirmed spends along the output-0 spine from ``outpoint``,
        in order: its spender, then the spender of that one's output 0,
        and so on, empty when ``outpoint`` is unspent."""
        path = []
        while (txid := self.spent_by.get(outpoint)) is not None:
            path.append(self.tx_index[txid])
            outpoint = Outpoint(txid, 0)
        return path

    def next_rate(self) -> int:
        """The feerate the next block asks for."""
        return self.fee_schedule.at(self.height + 1)

    # -- input validation ---------------------------------------------------

    def check_input(
        self,
        tx: SimTx,
        index: int,
        prevout: TxOutput,
        conf_height: int | None,
        height: int | None,
    ) -> None:
        """Validate input ``index`` of ``tx``, which spends ``prevout``: the
        path exists, the witness passes ``check_witness`` and, unless
        ``height`` is None (admission), a delay leaf's relative timelock has
        passed.  An unconfirmed prevout (``conf_height`` None) has aged zero
        blocks."""
        inp = tx.inputs[index]
        spec = self.addresses.get(prevout.address_id)
        if spec is None:
            raise UnknownPath(f"no spending rules for {prevout.address_id}")
        if isinstance(spec, KeyAddress):
            if inp.path_id != "key":
                raise UnknownPath(f"{inp.path_id!r} on key address")
            keys, policy = (spec.public,), None
        else:
            leaf = spec.leaf(inp.path_id)
            if leaf is None:
                raise UnknownPath(f"{inp.path_id!r} not in {spec.kind} tree")
            keys, policy = leaf.policy.keys(), leaf.policy
        check_witness(keys, tx.sighash(index), inp.witness, f"input {index} path {inp.path_id}")
        if isinstance(policy, SingleAfterDelay) and height is not None:
            age = 0 if conf_height is None else height - conf_height
            if age < policy.delay_blocks:
                raise TimelockNotExpired(
                    f"input {index} needs {policy.delay_blocks} blocks, has {age}"
                )

    def _check_tx(self, tx: SimTx, parents: dict[str, SimTx], height: int | None) -> int:
        """Resolve the inputs of ``tx`` from the UTXO set or from unconfirmed
        ``parents``, reject a negative fee, run ``check_input`` on every
        input at ``height`` and return the fee."""
        prevouts: list[tuple[TxOutput, int | None]] = []
        for inp in tx.inputs:
            op = inp.outpoint
            utxo = self.utxo_set.get(op)
            if utxo is not None:
                prevouts.append((TxOutput(utxo.address_id, utxo.value), utxo.confirmed_height))
                continue
            parent = parents.get(op.txid)
            if parent is not None and op.index < len(parent.outputs):
                prevouts.append((parent.outputs[op.index], None))
            elif op in self.spent_by:
                raise DoubleSpend(f"{op} already spent by {self.spent_by[op]}")
            else:
                raise UnknownInput(str(op))
        fee = sum(prevout.value for prevout, _ in prevouts) - tx.output_sum()
        if fee < 0:
            raise InvalidValue("outputs exceed inputs")
        for i, (prevout, conf_height) in enumerate(prevouts):
            self.check_input(tx, i, prevout, conf_height, height)
        return fee

    # -- mempool -----------------------------------------------------------

    def submit_tx(self, tx: SimTx) -> str:
        """Validate and admit a transaction to the mempool.

        Witness shape and signatures are checked here; relative timelocks
        are only checked at mining time since they can mature later.
        """
        if tx.txid in self.mempool or tx.txid in self.tx_index:
            raise Duplicate(tx.txid)
        spends: set[Outpoint] = set()
        for inp in tx.inputs:
            if inp.outpoint in spends:
                raise DoubleSpend("transaction spends an outpoint twice")
            spends.add(inp.outpoint)
            other = self.spender(inp.outpoint)
            if other is not None:
                raise DoubleSpend(f"{inp.outpoint} already spent by {other.txid}")
        self._check_tx(tx, self.mempool, None)
        self.mempool[tx.txid] = tx
        self.mempool_arrival[tx.txid] = self.height
        return tx.txid

    def spender(self, outpoint: Outpoint) -> SimTx | None:
        """The confirmed transaction that spent ``outpoint``, else the
        mempool transaction spending it, else None."""
        txid = self.spent_by.get(outpoint)
        if txid is not None:
            return self.tx_index[txid]
        for tx in self.mempool.values():
            if any(inp.outpoint == outpoint for inp in tx.inputs):
                return tx
        return None

    def mine_block(self) -> list[str]:
        """Advance one block, confirming every mempool transaction whose
        own or anchor-package feerate meets the schedule."""
        self.height += 1
        height = self.height
        rate = self.fee_schedule.at(height)
        chosen: dict[str, SimTx] = {}  # in confirmation order
        order = sorted(self.mempool, key=lambda t: (self.mempool_arrival[t], t))

        changed = True
        while changed:
            changed = False
            for txid in order:
                if txid in chosen:
                    continue
                tx = self.mempool[txid]
                try:
                    fee = self._check_tx(tx, chosen, height)
                except TxRejected:
                    continue
                package = [tx]
                if fee < rate * tx.weight:
                    anchor = None if tx.anchor_index is None else Outpoint(txid, tx.anchor_index)
                    child = None if anchor is None else self.spender(anchor)
                    if child is None or child.txid in chosen:
                        continue
                    try:
                        fee += self._check_tx(child, {**chosen, txid: tx}, height)
                    except TxRejected:
                        continue
                    if fee < rate * (tx.weight + child.weight):
                        continue
                    package.append(child)
                for member in package:
                    chosen[member.txid] = member
                changed = True

        for tx in chosen.values():
            for inp in tx.inputs:
                self.utxo_set.pop(inp.outpoint, None)
                self.spent_by[inp.outpoint] = tx.txid
            for i, out in enumerate(tx.outputs):
                op = Outpoint(tx.txid, i)
                self.utxo_set[op] = Utxo(op, out.value, out.address_id, height)
            del self.mempool[tx.txid]
            del self.mempool_arrival[tx.txid]
            self.confirmed_at[tx.txid] = height
            self.tx_index[tx.txid] = tx

        # drop mempool entries that now conflict with a confirmed spend
        stale = [
            txid
            for txid, tx in self.mempool.items()
            if any(inp.outpoint in self.spent_by for inp in tx.inputs)
        ]
        for txid in stale:
            del self.mempool[txid]
            del self.mempool_arrival[txid]

        return list(chosen)


def verify_spend(tx: SimTx, chain: BtcChain, at_height: int | None = None) -> bool:
    """Check all inputs of ``tx`` against the chain's spending rules at the
    given height (default: next block).  Raises a TxRejected subclass on
    the first violated rule; returns True when every input is valid."""
    height = chain.height + 1 if at_height is None else at_height
    chain._check_tx(tx, chain.mempool, height)
    return True
