"""Covenant emulation: pre-signed transaction templates, the deposit
setup ceremony, and the fee arithmetic of a top-up (the fee an anchor
child must pay, an appended ANYONECANPAY fee input).  The wallet spends
that pay for top-ups, anchor children among them, are built by
``actors.pay``.

Every step on a template (build, sign, verify, finalize) takes the
``ProtocolInstance`` and reads what it derived once: the address id of
each catalogue address kind (``address_ids``, and ``address_kinds``
back) and the leaves of each row (``addresses.rows``), keyed by the
template's catalogue transition, never by its ``path_id``, so a
tampered template cannot widen the signer set.  The executor spends
through the first of the row's leaves that holds its key and whose
other keys have all signed (``finalize_to_tx``).  The setup ceremony
pre-signs the rows of ``keys.DEPOSIT_ROWS`` for each deposit and hands
out those of ``SAR_ROWS`` to the registry, ``TO_ROWS`` to the operator.

Templates commit the exact input value minus a base fee of
``BASE_FEE_RATE`` sat per weight unit, a protocol constant like
``ANCHOR_VALUE``: the ceremony and every oracle rebuild templates at the
same rate, and the executor tops up whatever the network asks beyond
it.  Rows executed by an arbitration oracle carry ANYONECANPAY|ALL
signatures so a fee input can be appended without re-signing;
multi-party rows carry an anchor output of ``ANCHOR_VALUE`` dust at
the executor's key, which a child-pays-for-parent bump spends.
A template's transaction id never covers witnesses, which is what lets
the ceremony chain templates off unbroadcast parents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .attestation import Attestation, MockAttestationAuthority
from .chain import (
    BtcChain,
    Outpoint,
    SighashFlag,
    SimTx,
    TxInput,
    TxOutput,
    Utxo,
    weight,
)
from .keys import (
    DEPOSIT_ROWS,
    SAR_ROWS,
    TO_ROWS,
    TRANSITION_SPECS,
    InstanceAddresses,
    Keypair,
    Point,
    Transition,
    TransitionSpec,
    TweakData,
    build_protocol_addresses,
    key_address_id,
    sign_digest,
    verify_signature,
    verify_signatures,
)
from .registry import Registry, UtxoRecord, UtxoStatus, check_timelocks, encode, from_fields

BASE_FEE_RATE = 1  # sats per weight unit committed at template time
ANCHOR_VALUE = 330  # dust value carried by anchor outputs
ACTIVATION_DEPTH = 6  # blocks the ceremony mines over the funding before activation


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


class InsufficientFunds(PsbtError):
    pass


class VerificationFailed(PsbtError):
    pass


def _base_cost(spec: TransitionSpec, rate: int = BASE_FEE_RATE) -> tuple[int, int]:
    """The fee at ``rate`` and the anchor dust a row takes off its input
    value: the fee pays for one input, one main output and the anchor if
    any."""
    has_anchor = spec.fee_mode == "anchor"
    return rate * weight(1, 1 + has_anchor), ANCHOR_VALUE * has_anchor


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
        return encode(self)

    @classmethod
    def from_text(cls, text: str) -> "PsbtTemplate":
        """Parse ``to_text``'s form; ``PsbtError`` for any other text."""
        try:
            return from_fields(cls, json.loads(text))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise PsbtError(f"not a template: {exc!r}") from exc


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
    address_ids: dict[str, str] = field(init=False)  # catalogue address kind -> id
    address_kinds: dict[str, str] = field(init=False)  # id -> catalogue address kind

    def __post_init__(self):
        tweak = self.tweak_data
        self.addresses = build_protocol_addresses(tweak)
        self.tweak_digest = tweak.digest_hex()
        self.owner = tweak.destination_chain_address.decode()
        self.address_ids = {addr.kind: addr.address_id for addr in self.addresses.all()}
        self.address_ids["dep_return"] = tweak.return_address.decode()
        self.address_ids["to_key"] = key_address_id(tweak.to_pk)
        self.address_kinds = {aid: kind for kind, aid in self.address_ids.items()}


def build_psbt(
    transition: Transition,
    instance: ProtocolInstance,
    spent: tuple[Outpoint, int],
    rate: int = BASE_FEE_RATE,
) -> PsbtTemplate:
    """Construct an unsigned template for one transition spending
    ``spent``, an ``(outpoint, value)`` pair on the row's source address.

    The committed outputs are the transition's destination address for
    the full input value minus the fee at ``rate`` (and minus the anchor
    dust when the row carries an anchor).
    """
    spec = TRANSITION_SPECS[transition]
    outpoint, value = spent
    fee, anchor_value = _base_cost(spec, rate)
    main_value = value - fee - anchor_value
    if main_value <= 0:
        raise InsufficientFunds(f"{transition.value} on value {value} leaves no output")

    outputs = [TxOutput(instance.address_ids[spec.dest], main_value)]
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


def sign_psbt(psbt: PsbtTemplate, keypair: Keypair, instance: ProtocolInstance) -> None:
    leaves = instance.addresses.rows[psbt.transition]
    if all(keypair.public not in leaf.policy.keys() for leaf in leaves):
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
    leaves = instance.addresses.rows[psbt.transition]
    allowed = {pk.compressed().hex(): pk for leaf in leaves for pk in leaf.policy.keys()}
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
    all signed; return the broadcastable transaction.  The executor's
    signature goes into the witness only (a stored one is reused), so
    ``psbt`` is left as it was whether the call refuses or succeeds."""
    row = instance.addresses.rows[psbt.transition]
    leaves = [leaf for leaf in row if executor.public in leaf.policy.keys()]
    if not leaves:
        raise NotASigner("executor is not a signer of this transition")
    for leaf in leaves:
        leaf_keys = [pk.compressed().hex() for pk in leaf.policy.keys()]
        if all(k == executor.public_hex or k in psbt.partial_sigs for k in leaf_keys):
            break
    else:
        raise MissingCounterpartySig(f"no signature for a leaf key on {psbt.transition.value}")

    sigs = dict(psbt.partial_sigs)
    if executor.public_hex not in sigs:
        sigs[executor.public_hex] = sign_digest(executor, psbt.sighash())
    witness = [sigs[k] for k in leaf_keys]
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
      5. after ``ACTIVATION_DEPTH`` confirmations the operator activates
         the records and mints the wrapped amount

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

    # step 2b: operator stores the registry rows, each written once
    registry.store_tweak_data(tweak_data)
    sar_texts = [{t.value: per[t].to_text() for t in SAR_ROWS} for per in psbt_sets]
    for outpoint, amount, texts in zip(outpoints, amounts, sar_texts):
        record = UtxoRecord(
            outpoint=str(outpoint),
            owner=instance.owner,
            amount=amount,
            status=UtxoStatus.REGISTERED,
            tweak_digest=instance.tweak_digest,
            psbts=dict(texts),
        )
        if sar_tamper is not None:
            record.psbts = sar_tamper(record.outpoint, record.psbts)
        registry.register_deposit(record, caller="to")

    # step 3: depositor verifies the registry rows byte for byte
    for outpoint, texts in zip(outpoints, sar_texts):
        for transition in SAR_ROWS:
            stored_text = registry.get_stored_psbt(str(outpoint), transition.value)
            if stored_text != texts[transition.value]:
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
    for _ in range(ACTIVATION_DEPTH):
        chain.mine_block()
    for op in instance.deposits:
        registry.activate_on_mint(op, caller="to")
    return instance

