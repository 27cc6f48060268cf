"""Covenant emulation: pre-signed transaction templates, the deposit
setup ceremony, and the fee machinery (anchor children, appended fee
inputs).

Transition catalog (source -> destination, leaf spent and its keys,
who executes, how fees are topped up):

  unbond_request             VA  -> UTA     dep_to    Dep & TO     exec Dep anchor
  unbond_finalize            UTA -> Dep     dep_delay Dep after t1          self
  unbond_challenge           UTA -> UCA     dep_to    Dep & TO     exec TO  anchor
  unbond_resolve             UCA -> Dep     dep_ao_*  Dep & AO     exec AO  acp fee input
  unbond_resolve_expired     UCA -> TO      to_delay  TO after t2           self
  rebalance_request          VA  -> RCA     dep_to    Dep & TO     exec TO  anchor
  rebalance_resolve          RCA -> Dep     dep_ao_*  Dep & AO     exec AO  acp fee input
  rebalance_resolve_expired  RCA -> TO      to_delay  TO after t2           self
  cooperative_unbond         VA  -> Dep     dep_to    Dep & TO     exec Dep anchor
  resplit                    VA  -> VA + VA dep_to    Dep & TO     exec TO  none

Address kinds have one spelling: the four script addresses are ``VA``,
``UTA``, ``UCA`` and ``RCA`` (``ProtocolAddress.kind``), and the two key
addresses are ``dep_return`` and ``to_key``.  Both catalogue columns
name them that way, ``ProtocolInstance.address_ids`` maps each kind
to its address id and ``ProtocolInstance.address_kinds`` maps back.

Every step on a template (build, sign, verify, finalize) takes the
``ProtocolInstance`` and reads the addresses it derived once; none
derives them again from the ``TweakData``.  One leaf rule serves all of
them: a row's leaves are those its catalogue ``path`` names on its
source address (``dep_ao_*`` names every oracle's leaf).  The keys of
those leaves may sign the row (``allowed_signers``), and the executor
spends through the first of them that holds its key and whose other
keys have all signed (``finalize_to_tx``): the address tree the chain
checks witnesses against is the one statement of that rule.

The setup ceremony pre-signs, for each deposit, the catalog rows that
have a keeper (``stored_on``): the registry keeps the unbond request and
the two resolve rows, the operator keeps the challenge and the rebalance
request.  ``DEPOSIT_ROWS``, ``SAR_ROWS`` and ``TO_ROWS`` are derived from
the catalog, so it is the one place that says which rows guard a
deposit, who pre-signs each and who keeps it.

Templates commit the exact input value minus a base fee of
``BASE_FEE_RATE`` sat per weight unit, a protocol constant like
``ANCHOR_VALUE``: the ceremony and every oracle rebuild templates at the
same rate, and the executor tops up whatever the network asks beyond
it.  Rows executed by an arbitration oracle carry ANYONECANPAY|ALL
signatures so a fee input can be appended without re-signing;
multi-party rows carry an anchor output of ``ANCHOR_VALUE`` dust,
spendable by the executor for child-pays-for-parent bumps.
A template's transaction id never covers witnesses, which is what lets
the ceremony chain templates off unbroadcast parents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from fnmatch import fnmatchcase

from .attestation import Attestation, MockAttestationAuthority
from .chain import (
    BtcChain,
    Outpoint,
    SighashFlag,
    SimTx,
    TxInput,
    TxOutput,
    Utxo,
)
from .keys import (
    InstanceAddresses,
    Keypair,
    Point,
    SpendPath,
    TweakData,
    build_protocol_addresses,
    key_address_id,
    sign_digest,
    verify_signature,
    verify_signatures,
)
from .registry import Registry, UtxoRecord, UtxoStatus, check_timelocks

BASE_FEE_RATE = 1  # sats per weight unit committed at template time
ANCHOR_VALUE = 330  # dust value carried by anchor outputs


class PsbtError(Exception):
    pass


class WrongSourceAddress(PsbtError):
    pass


class NotASigner(PsbtError):
    pass


class AlreadySigned(PsbtError):
    pass


class MissingCounterpartySig(PsbtError):
    pass


class FlagViolation(PsbtError):
    pass


class NoAnchor(PsbtError):
    pass


class InsufficientFunds(PsbtError):
    pass


class VerificationFailed(PsbtError):
    pass


class BadSplit(PsbtError):
    pass


class Transition(Enum):
    UNBOND_REQUEST = "unbond_request"
    UNBOND_FINALIZE = "unbond_finalize"
    UNBOND_CHALLENGE = "unbond_challenge"
    UNBOND_RESOLVE = "unbond_resolve"
    UNBOND_RESOLVE_EXPIRED = "unbond_resolve_expired"
    REBALANCE_REQUEST = "rebalance_request"
    REBALANCE_RESOLVE = "rebalance_resolve"
    REBALANCE_RESOLVE_EXPIRED = "rebalance_resolve_expired"
    COOPERATIVE_UNBOND = "cooperative_unbond"
    RESPLIT = "resplit"


@dataclass(frozen=True)
class TransitionSpec:
    source: str  # address kind the spent output must sit on
    dest: str  # address kind the main outputs pay to
    path: str  # leaf id; "dep_ao_*" names every oracle leaf, and a spend takes one
    creator: str | None
    stored_on: str | None  # "sar" | "to" | None
    executor: str  # "dep"|"to"|"ao"
    fee_mode: str  # "anchor"|"acp"|"self"|"none"


TRANSITION_SPECS: dict[Transition, TransitionSpec] = {
    Transition.UNBOND_REQUEST: TransitionSpec(
        "VA", "UTA", "dep_to", "to", "sar", "dep", "anchor"
    ),
    Transition.UNBOND_FINALIZE: TransitionSpec(
        "UTA", "dep_return", "dep_delay", None, None, "dep", "self"
    ),
    Transition.UNBOND_CHALLENGE: TransitionSpec(
        "UTA", "UCA", "dep_to", "dep", "to", "to", "anchor"
    ),
    Transition.UNBOND_RESOLVE: TransitionSpec(
        "UCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"
    ),
    Transition.UNBOND_RESOLVE_EXPIRED: TransitionSpec(
        "UCA", "to_key", "to_delay", None, None, "to", "self"
    ),
    Transition.REBALANCE_REQUEST: TransitionSpec(
        "VA", "RCA", "dep_to", "dep", "to", "to", "anchor"
    ),
    Transition.REBALANCE_RESOLVE: TransitionSpec(
        "RCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"
    ),
    Transition.REBALANCE_RESOLVE_EXPIRED: TransitionSpec(
        "RCA", "to_key", "to_delay", None, None, "to", "self"
    ),
    Transition.COOPERATIVE_UNBOND: TransitionSpec(
        "VA", "dep_return", "dep_to", "to", None, "dep", "anchor"
    ),
    Transition.RESPLIT: TransitionSpec(
        "VA", "VA", "dep_to", "to", None, "to", "none"
    ),
}

# the rows pre-signed for every deposit, in catalog order, and who keeps them
DEPOSIT_ROWS = tuple(t for t, s in TRANSITION_SPECS.items() if s.stored_on is not None)
SAR_ROWS = tuple(t for t in DEPOSIT_ROWS if TRANSITION_SPECS[t].stored_on == "sar")
TO_ROWS = tuple(t for t in DEPOSIT_ROWS if TRANSITION_SPECS[t].stored_on == "to")


def _base_cost(spec: TransitionSpec, n_main: int = 1) -> tuple[int, int]:
    """The base fee and the anchor dust a row with ``n_main`` main outputs
    takes off its input value."""
    has_anchor = spec.fee_mode == "anchor"
    return BASE_FEE_RATE * (1 + n_main + has_anchor), ANCHOR_VALUE * has_anchor


def _min_deposit() -> int:
    """The smallest deposit on which every row of ``DEPOSIT_ROWS`` keeps a
    main output, each row taking its base cost off what its parent pays."""
    taken = {"VA": 0}  # address kind -> value the rows up to it have taken
    most = 0
    for transition in DEPOSIT_ROWS:
        spec = TRANSITION_SPECS[transition]
        taken[spec.dest] = taken[spec.source] + sum(_base_cost(spec))
        most = max(most, taken[spec.dest])
    return most + 1


MIN_DEPOSIT = _min_deposit()  # sat; a smaller deposit cannot build its rows


@dataclass
class PsbtTemplate:
    transition: Transition
    outpoint: Outpoint
    input_value: int
    path_id: str
    flag: SighashFlag
    outputs: list[TxOutput]
    anchor_index: int | None
    creator: str | None
    intended_executor: str
    partial_sigs: dict[str, bytes] = field(default_factory=dict)  # pubkey hex -> sig

    def skeleton(self) -> SimTx:
        return SimTx(
            inputs=[TxInput(self.outpoint, self.path_id, self.flag)],
            outputs=list(self.outputs),
            anchor_index=self.anchor_index,
        )

    @property
    def txid(self) -> str:
        return self.skeleton().txid

    def sighash(self) -> bytes:
        return self.skeleton().sighash(0)

    @property
    def fee(self) -> int:
        return self.input_value - sum(o.value for o in self.outputs)

    def main_output(self) -> TxOutput:
        for i, out in enumerate(self.outputs):
            if i != self.anchor_index:
                return out
        raise PsbtError("template has no main output")

    def to_text(self) -> str:
        return json.dumps(
            {
                "transition": self.transition.value,
                "outpoint": [self.outpoint.txid, self.outpoint.index],
                "input_value": self.input_value,
                "path_id": self.path_id,
                "flag": self.flag.value,
                "outputs": [[o.address_id, o.value] for o in self.outputs],
                "anchor_index": self.anchor_index,
                "creator": self.creator,
                "intended_executor": self.intended_executor,
                "partial_sigs": {
                    k: v.hex() for k, v in sorted(self.partial_sigs.items())
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_text(cls, text: str) -> "PsbtTemplate":
        d = json.loads(text)
        return cls(
            transition=Transition(d["transition"]),
            outpoint=Outpoint(d["outpoint"][0], d["outpoint"][1]),
            input_value=d["input_value"],
            path_id=d["path_id"],
            flag=SighashFlag(d["flag"]),
            outputs=[TxOutput(a, v) for a, v in d["outputs"]],
            anchor_index=d["anchor_index"],
            creator=d["creator"],
            intended_executor=d["intended_executor"],
            partial_sigs={k: bytes.fromhex(v) for k, v in d["partial_sigs"].items()},
        )


@dataclass
class ProtocolInstance:
    """Everything public about one live deposit arrangement.

    The addresses, account identifiers and parameter digest are
    functions of the tweak data, derived once here; every step on a
    template reads them from the instance."""

    tweak_data: TweakData
    funding_txid: str = ""
    deposits: dict[str, int] = field(default_factory=dict)  # outpoint str -> value
    # operator-held rows
    to_psbts: dict[str, dict[Transition, PsbtTemplate]] = field(default_factory=dict)
    addresses: InstanceAddresses = field(init=False)
    tweak_digest: str = field(init=False)
    owner: str = field(init=False)  # depositor's destination-chain account
    return_address_id: str = field(init=False)
    to_key_address_id: str = field(init=False)
    address_ids: dict[str, str] = field(init=False)  # catalogue address kind -> id
    address_kinds: dict[str, str] = field(init=False)  # id -> catalogue address kind

    def __post_init__(self):
        tweak = self.tweak_data
        self.addresses = build_protocol_addresses(tweak)
        self.tweak_digest = tweak.digest_hex()
        self.owner = tweak.destination_chain_address.decode()
        self.return_address_id = tweak.return_address.decode()
        self.to_key_address_id = key_address_id(tweak.to_pk)
        self.address_ids = {addr.kind: addr.address_id for addr in self.addresses.all()}
        self.address_ids["dep_return"] = self.return_address_id
        self.address_ids["to_key"] = self.to_key_address_id
        self.address_kinds = {aid: kind for kind, aid in self.address_ids.items()}


def build_psbt(
    transition: Transition,
    instance: ProtocolInstance,
    spent: tuple[Outpoint, int],
    value_split: list[int] | None = None,
    fee: int | None = None,
) -> PsbtTemplate:
    """Construct an unsigned template for one transition spending
    ``spent``, an ``(outpoint, value)`` pair on the row's source address.

    The committed outputs are the transition's destination address for
    the full input value minus the base fee (and minus the anchor dust
    when the row carries an anchor).  ``value_split`` puts several main
    outputs at the destination address instead of one.
    """
    spec = TRANSITION_SPECS[transition]
    outpoint, value = spent
    dest = instance.address_ids[spec.dest]
    base_fee, anchor_value = _base_cost(spec, len(value_split) if value_split else 1)
    if fee is None:
        fee = base_fee

    if value_split is not None:
        if sum(value_split) != value - fee - anchor_value:
            raise BadSplit(
                f"split {value_split} must sum to {value - fee - anchor_value}"
            )
        main_values = list(value_split)
    else:
        main_values = [value - fee - anchor_value]
    if any(v <= 0 for v in main_values):
        raise InsufficientFunds(f"{transition.value} on value {value} leaves no output")

    outputs = [TxOutput(dest, v) for v in main_values]
    anchor_index = None
    if anchor_value:
        anchor_kind = "dep_return" if spec.executor == "dep" else "to_key"
        outputs.append(TxOutput(instance.address_ids[anchor_kind], anchor_value))
        anchor_index = len(outputs) - 1

    flag = SighashFlag.ALL_ANYONECANPAY if spec.fee_mode == "acp" else SighashFlag.ALL
    return PsbtTemplate(
        transition=transition,
        outpoint=outpoint,
        input_value=value,
        path_id=spec.path,
        flag=flag,
        outputs=outputs,
        anchor_index=anchor_index,
        creator=spec.creator,
        intended_executor=spec.executor,
    )


def _row_leaves(psbt: PsbtTemplate, instance: ProtocolInstance) -> list[SpendPath]:
    """The leaves the row's catalogue ``path`` names on its source
    address; the catalogue, not the template's ``path_id``, names them,
    so a tampered template cannot widen the signer set."""
    spec = TRANSITION_SPECS[psbt.transition]
    source = instance.addresses.by_kind(spec.source)
    return [leaf for leaf in source.leaves if fnmatchcase(leaf.path_id, spec.path)]


def allowed_signers(psbt: PsbtTemplate, instance: ProtocolInstance) -> list[Point]:
    """The keys of the row's leaves, each once."""
    leaves = _row_leaves(psbt, instance)
    return list(dict.fromkeys(pk for leaf in leaves for pk in leaf.policy.keys()))


def sign_psbt(psbt: PsbtTemplate, keypair: Keypair, instance: ProtocolInstance) -> None:
    if all(keypair.public != pk for pk in allowed_signers(psbt, instance)):
        raise NotASigner(f"{keypair.public_hex[:16]}... on {psbt.transition.value}")
    if keypair.public_hex in psbt.partial_sigs:
        raise AlreadySigned(psbt.transition.value)
    psbt.partial_sigs[keypair.public_hex] = sign_digest(keypair, psbt.sighash())


def _signed_triples(
    psbt: PsbtTemplate, instance: ProtocolInstance
) -> list[tuple[Point, bytes, bytes]] | None:
    """``(key, sighash, signature)`` for each stored partial signature, or
    None when there is none or one is stored under a key that may not sign
    the row."""
    allowed = {pk.compressed().hex(): pk for pk in allowed_signers(psbt, instance)}
    if not psbt.partial_sigs or any(pub_hex not in allowed for pub_hex in psbt.partial_sigs):
        return None
    digest = psbt.sighash()
    return [(allowed[pub_hex], digest, sig) for pub_hex, sig in psbt.partial_sigs.items()]


def verify_partial_sigs(psbt: PsbtTemplate, instance: ProtocolInstance) -> bool:
    """Every stored partial signature must verify against a signer key."""
    triples = _signed_triples(psbt, instance)
    return triples is not None and all(verify_signature(*t) for t in triples)


def finalize_to_tx(
    psbt: PsbtTemplate,
    executor: Keypair,
    instance: ProtocolInstance,
) -> SimTx:
    """Countersign as the executor and spend through the first of the
    row's leaves that holds the executor's key and whose other keys have
    all signed; return the broadcastable transaction.  Every check runs
    before the executor signs, so a refused call leaves ``partial_sigs``
    as it was."""
    leaves = [
        leaf for leaf in _row_leaves(psbt, instance) if executor.public in leaf.policy.keys()
    ]
    if not leaves:
        raise NotASigner("executor is not a signer of this transition")
    for leaf in leaves:
        leaf_keys = [pk.compressed().hex() for pk in leaf.policy.keys()]
        if all(k == executor.public_hex or k in psbt.partial_sigs for k in leaf_keys):
            break
    else:
        raise MissingCounterpartySig(f"no signature for a leaf key on {psbt.transition.value}")

    if executor.public_hex not in psbt.partial_sigs:
        psbt.partial_sigs[executor.public_hex] = sign_digest(executor, psbt.sighash())
    witness = [psbt.partial_sigs[k] for k in leaf_keys]
    return SimTx(
        inputs=[TxInput(psbt.outpoint, leaf.path_id, psbt.flag, witness)],
        outputs=list(psbt.outputs),
        anchor_index=psbt.anchor_index,
    )


# ---------------------------------------------------------------------------
# fee machinery


def required_child_fee(f0: int, f_required: int, f_tilde_required: int) -> int:
    """Fee an anchor child must pay so parent and child clear together."""
    return max(0, f_required + f_tilde_required - f0)


def attach_cpfp_child(
    parent: SimTx,
    executor_utxo: Utxo,
    target_fee: int,
    executor: Keypair,
    chain: BtcChain,
) -> SimTx:
    """Spend the parent's anchor plus one executor-owned output, burning
    ``target_fee`` as fees; submits the child and returns it."""
    if parent.anchor_index is None:
        raise NoAnchor("parent carries no anchor output")
    anchor_out = parent.outputs[parent.anchor_index]
    executor_addr = key_address_id(executor.public)
    if anchor_out.address_id != executor_addr:
        raise NotASigner("anchor is not spendable by this executor")
    total_in = anchor_out.value + executor_utxo.value
    change = total_in - target_fee
    if change < 0:
        raise InsufficientFunds(f"need {target_fee}, inputs total {total_in}")
    outputs = [TxOutput(executor_addr, change)] if change > 0 else []
    child = SimTx(
        inputs=[
            TxInput(Outpoint(parent.txid, parent.anchor_index), "key", SighashFlag.ALL),
            TxInput(executor_utxo.outpoint, "key", SighashFlag.ALL),
        ],
        outputs=outputs,
    )
    for i in range(len(child.inputs)):
        child.inputs[i].witness = [sign_digest(executor, child.sighash(i))]
    chain.submit_tx(child)
    return child


def add_fee_input(tx: SimTx, fee_utxo: Utxo, keypair: Keypair) -> SimTx:
    """Append a fee input to a transaction whose existing signatures all
    use ANYONECANPAY; the whole fee utxo value becomes additional fee."""
    for inp in tx.inputs:
        if inp.flag is not SighashFlag.ALL_ANYONECANPAY:
            raise FlagViolation("existing inputs must be ANYONECANPAY to extend")
    if fee_utxo.address_id != key_address_id(keypair.public):
        raise NotASigner("fee utxo is not owned by the signing key")
    new_inputs = [
        TxInput(i.outpoint, i.path_id, i.flag, list(i.witness)) for i in tx.inputs
    ]
    new_inputs.append(
        TxInput(fee_utxo.outpoint, "key", SighashFlag.ALL_ANYONECANPAY)
    )
    bumped = SimTx(inputs=new_inputs, outputs=list(tx.outputs), anchor_index=tx.anchor_index)
    bumped.inputs[-1].witness = [sign_digest(keypair, bumped.sighash(len(new_inputs) - 1))]
    return bumped


# ---------------------------------------------------------------------------
# setup ceremony


@dataclass(frozen=True)
class AoIdentity:
    public: Point
    attestation: Attestation | None


def build_deposit_psbt_set(
    instance: ProtocolInstance,
    outpoint: Outpoint,
    value: int,
    dep_keypair: Keypair | None,
    to_keypair: Keypair | None,
) -> dict[Transition, PsbtTemplate]:
    """The templates of ``DEPOSIT_ROWS`` guarding one deposit UTXO.

    A row whose source is the vault spends the deposit; any other row
    spends output 0 of the row that pays to its source.  Each row's
    creator pre-signs it when that party's keypair is given.
    """
    signers = {"dep": dep_keypair, "to": to_keypair}
    rows: dict[Transition, PsbtTemplate] = {}
    paid_to: dict[str, PsbtTemplate] = {}  # address kind -> row paying to it
    for transition in DEPOSIT_ROWS:
        spec = TRANSITION_SPECS[transition]
        if spec.source == "VA":
            spent = (outpoint, value)
        else:
            parent = paid_to[spec.source]
            spent = (Outpoint(parent.txid, 0), parent.main_output().value)
        template = build_psbt(transition, instance, spent)
        keypair = signers[spec.creator]
        if keypair is not None:
            sign_psbt(template, keypair, instance)
        rows[transition] = template
        paid_to[spec.dest] = template
    return rows


def _registered_record(
    instance: ProtocolInstance,
    outpoint: Outpoint,
    amount: int,
    rows: dict[Transition, PsbtTemplate],
) -> UtxoRecord:
    """The registry record of a new deposit: its ``SAR_ROWS`` as text."""
    return UtxoRecord(
        outpoint=str(outpoint),
        owner=instance.owner,
        amount=amount,
        status=UtxoStatus.REGISTERED,
        tweak_digest=instance.tweak_digest,
        psbts={t.value: rows[t].to_text() for t in SAR_ROWS},
    )


def verify_psbt_against_instance(
    psbt: PsbtTemplate, instance: ProtocolInstance, outpoint: Outpoint, value: int
) -> bool:
    """Recompute the template from instance parameters and compare every
    field but the signatures, then check the signatures it does carry."""
    rebuilt = build_psbt(psbt.transition, instance, (outpoint, value))
    if replace(psbt, partial_sigs={}) != rebuilt:
        return False
    return verify_partial_sigs(psbt, instance)


def run_setup_ceremony(
    dep_keypair: Keypair,
    to_keypair: Keypair,
    ao_identities: list[AoIdentity],
    deposits: list[tuple[Utxo, int]],
    chain: BtcChain,
    registry: Registry,
    authority: MockAttestationAuthority,
    owner_account: str,
    expected_pcr0: str,
    sar_tamper=None,
) -> ProtocolInstance:
    """Run the deposit setup end to end.

    Ordering guarantees the depositor never funds before the registry
    holds the three rows that protect them, and the operator never sees
    a funded vault before holding the challenge row:

      0. depositor announces the outputs that will fund the vault
      1. operator pre-signs the unbond request; depositor pre-signs the
         challenge, rebalance request, and both resolve rows
      2. operator verifies the depositor's signatures, then posts the
         unbond request and the two resolve rows to the registry
      3. depositor verifies the registry rows match what they signed
      4. depositor broadcasts the funding transaction
      5. after 6 confirmations the operator activates the records and
         mints the wrapped amount

    Any verification failure aborts before step 4, so an aborted ceremony
    leaves nothing spendable at the vault.
    """
    check_timelocks(registry.t1, registry.t2, registry.t3, registry.slots_per_block)

    for ident in ao_identities:
        att = ident.attestation
        if att is None:
            raise VerificationFailed("oracle missing an attestation")
        if not att.verify(authority.public):
            raise VerificationFailed("oracle attestation does not verify")
        if att.ao_pubkey != ident.public.compressed().hex():
            raise VerificationFailed("attestation binds a different oracle key")
        if att.pcr0 != expected_pcr0:
            raise VerificationFailed("oracle image measurement mismatch")

    tweak_data = TweakData(
        dep_pk=dep_keypair.public,
        to_pk=to_keypair.public,
        ao_pks=tuple(ident.public for ident in ao_identities),
        t1=registry.t1,
        t2=registry.t2,
        destination_chain_address=owner_account.encode(),
        return_address=key_address_id(dep_keypair.public).encode(),
    )
    instance = ProtocolInstance(tweak_data)
    addresses = instance.addresses
    for addr in addresses.all():
        chain.register_address(addr)
    return_addr = chain.ensure_key_address(dep_keypair.public)
    chain.ensure_key_address(to_keypair.public)

    # step 0: the funding transaction (unsigned) fixes the vault outpoints
    source_total = 0
    funding_inputs = []
    for source, _amount in deposits:
        if source.address_id != return_addr:
            raise WrongSourceAddress("funding sources must be depositor key outputs")
        funding_inputs.append(TxInput(source.outpoint, "key", SighashFlag.ALL))
        source_total += source.value
    amounts = [amount for _, amount in deposits]
    if source_total < sum(amounts):
        raise InsufficientFunds("sources do not cover the deposit amounts")
    funding = SimTx(
        inputs=funding_inputs,
        outputs=[TxOutput(addresses.va.address_id, amount) for amount in amounts],
    )
    outpoints = [Outpoint(funding.txid, index) for index in range(len(amounts))]
    instance.funding_txid = funding.txid

    # step 1: both parties pre-sign their rows
    psbt_sets = [
        build_deposit_psbt_set(instance, outpoint, amount, dep_keypair, to_keypair)
        for outpoint, amount in zip(outpoints, amounts)
    ]

    # step 2a: operator checks the depositor's signatures on the rows it
    # keeps, all of them in one batch; when the batch fails, row by row
    # names the first bad row
    signed = [_signed_triples(per[t], instance) for per in psbt_sets for t in TO_ROWS]
    if None in signed or not verify_signatures(tuple(t for row in signed for t in row)):
        for per in psbt_sets:
            for transition in TO_ROWS:
                if not verify_partial_sigs(per[transition], instance):
                    raise VerificationFailed(f"bad depositor signature on {transition.value}")

    # step 2b: operator stores the registry rows
    registry.store_tweak_data(tweak_data)
    for outpoint, amount, per in zip(outpoints, amounts, psbt_sets):
        record = _registered_record(instance, outpoint, amount, per)
        if sar_tamper is not None:
            record.psbts = sar_tamper(record.outpoint, record.psbts)
        registry.register_deposit(record, caller="to")

    # step 3: depositor verifies the registry rows byte for byte
    for outpoint, per in zip(outpoints, psbt_sets):
        for transition in SAR_ROWS:
            stored_text = registry.get_stored_psbt(str(outpoint), transition.value)
            if stored_text != per[transition].to_text():
                for rejected in outpoints:
                    registry.reject_deposit(str(rejected), owner_account)
                raise VerificationFailed(
                    f"registry copy of {transition.value} does not match"
                )

    # step 4: depositor funds the vault
    for i in range(len(funding.inputs)):
        funding.inputs[i].witness = [sign_digest(dep_keypair, funding.sighash(i))]
    chain.submit_tx(funding)

    instance.deposits = {str(op): amount for op, amount in zip(outpoints, amounts)}
    instance.to_psbts = {
        str(op): {t: per[t] for t in TO_ROWS} for op, per in zip(outpoints, psbt_sets)
    }

    # step 5: confirmations, activation, mint
    for _ in range(6):
        chain.mine_block()
    for op in instance.deposits:
        registry.activate_on_mint(op, caller="to")
    return instance


@dataclass
class ResplitOutcome:
    tx: SimTx
    new_deposits: list[tuple[Outpoint, int]]


def collaborative_resplit(
    instance: ProtocolInstance,
    outpoint: Outpoint,
    value: int,
    split_amounts: list[int],
    deadline_block: int,
    current_block: int,
    dep_keypair: Keypair | None,
    to_keypair: Keypair,
    chain: BtcChain,
    registry: Registry,
    fee: int = 0,
) -> ResplitOutcome | None:
    """Cooperative rebalance: split one vault output into parts so only
    the imbalanced amount moves.  Returns None when the depositor did not
    sign by the deadline (the caller then rebalances the full UTXO).

    As in the setup ceremony, the registry accepts the new records before
    any coins move: a resplit it refuses broadcasts nothing and leaves
    ``instance`` as it was."""
    if dep_keypair is None or current_block > deadline_block:
        return None
    resplit = build_psbt(
        Transition.RESPLIT, instance, (outpoint, value), value_split=split_amounts, fee=fee
    )
    sign_psbt(resplit, dep_keypair, instance)
    tx = finalize_to_tx(resplit, to_keypair, instance)

    new_deposits = [(Outpoint(tx.txid, i), amount) for i, amount in enumerate(split_amounts)]
    psbt_sets = [
        build_deposit_psbt_set(instance, new_op, amount, dep_keypair, to_keypair)
        for new_op, amount in new_deposits
    ]
    new_records = [
        _registered_record(instance, new_op, amount, per)
        for (new_op, amount), per in zip(new_deposits, psbt_sets)
    ]
    registry.check_resplit(str(outpoint), new_records, caller="to")
    chain.submit_tx(tx)
    registry.resplit_deposit(str(outpoint), new_records, caller="to")

    del instance.deposits[str(outpoint)]
    instance.to_psbts.pop(str(outpoint), None)
    for (new_op, amount), per in zip(new_deposits, psbt_sets):
        instance.deposits[str(new_op)] = amount
        instance.to_psbts[str(new_op)] = {t: per[t] for t in TO_ROWS}
    return ResplitOutcome(tx=tx, new_deposits=new_deposits)
