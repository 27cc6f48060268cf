"""Actor state machines and the simulation world.

One tick is one Bitcoin block: depositors act, then the operator, then
the arbitration oracles, then a block is mined and the destination chain
advances a fixed number of slots.  All behavior is deterministic; attack
and failure scenarios are expressed as behavior flags with trigger
heights, never as random events.

Money handling conventions:

* anchor rows (requests, challenges, cooperative exits) are broadcast
  together with a child spending the anchor whenever the committed fee
  is below the current feerate,
* oracle resolutions extend the transaction with a fee input carved to
  the exact missing amount (the carving parent confirms in the same
  block),
* timelocked claims are submitted as soon as the signer is willing; they
  mature in the mempool and confirm at the first legal height.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arbitration import ArbitrationOracle, Rejection, StaleCheckpoint
from .chain import BtcChain, Outpoint, SighashFlag, SimTx, TxInput, TxOutput, TxRejected, Utxo
from .destchain import DestChain, TO_SIGNER, sign_checkpoint
from .keys import Keypair, sign_digest
from .psbt import (
    ProtocolInstance,
    PsbtTemplate,
    Transition,
    add_fee_input,
    attach_cpfp_child,
    build_psbt,
    finalize_to_tx,
    required_child_fee,
    sign_psbt,
)
from .registry import EXIT_STATUSES, Registry, UtxoStatus

# ---------------------------------------------------------------------------
# wallet helpers


def spendable_utxos(chain: BtcChain, address_id: str) -> list[Utxo]:
    """Confirmed outputs at an address not already spent by anything in
    the mempool."""
    return [u for u in chain.utxos_at(address_id) if chain.spender(u.outpoint) is None]


def carve_fee_utxo(chain: BtcChain, keypair: Keypair, amount: int) -> Utxo | None:
    """Create an exact-value output at the signer's key address by
    splitting one of its confirmed outputs.  The carving parent sits in
    the mempool, so a child appended in the same tick confirms with it."""
    address_id = chain.ensure_key_address(keypair.public)
    parent = send_btc(chain, keypair, address_id, amount)
    if parent is None:
        return None
    return Utxo(Outpoint(parent.txid, 0), amount, address_id, chain.height)


def send_btc(
    chain: BtcChain, keypair: Keypair, dest_address_id: str, amount: int
) -> SimTx | None:
    """Plain key-spend payment with change."""
    address_id = chain.ensure_key_address(keypair.public)
    rate = chain.fee_schedule.rate_at(chain.height + 1)
    fee = rate * 3
    for utxo in spendable_utxos(chain, address_id):
        if utxo.value < amount + fee:
            continue
        outputs = [TxOutput(dest_address_id, amount)]
        change = utxo.value - amount - fee
        if change > 0:
            outputs.append(TxOutput(address_id, change))
        tx = SimTx(inputs=[TxInput(utxo.outpoint, "key", SighashFlag.ALL)], outputs=outputs)
        tx.inputs[0].witness = [sign_digest(keypair, tx.sighash(0))]
        chain.submit_tx(tx)
        return tx
    return None


# ---------------------------------------------------------------------------
# behaviors


@dataclass
class DepositorBehavior:
    exit_at: int | None = None  # height at which to start a unilateral exit
    exit_deposit_index: int | None = None  # which funding output to exit (None = all)
    burn_before_exit: bool = True  # False models an exit without giving up tokens
    use_leaked_key: bool = False  # resolve own challenge with a leaked oracle secret
    leak_tokens_at: int | None = None  # move tokens outside the tracked perimeter
    leak_token_amount: int = 0


@dataclass
class OperatorBehavior:
    challenge_thefts: bool = True
    challenge_legitimate: bool = False  # dispute even burned exits (malicious)
    claim_expired: bool = True
    rebalance_at: int | None = None  # height to run imbalance detection
    false_rebalance_at: int | None = None  # seize without marking the registry
    pay_over_seizure: bool = True
    provide_checkpoints: bool = True


@dataclass
class OracleBehavior:
    offline: tuple[int, int] | None = None  # [from_height, until_height)
    refuse_resolutions: bool = False  # verifies but never signs (corrupted)
    leak_secret: bool = False  # identity key handed to the adversary at setup


# ---------------------------------------------------------------------------
# actors


class DepositorActor:
    def __init__(self, name: str, keypair: Keypair, owner: str, behavior: DepositorBehavior):
        self.name = name
        self.keypair = keypair
        self.owner = owner
        self.behavior = behavior
        self.flows: dict[str, dict] = {}  # deposit outpoint -> progress
        self.exit_started_at: dict[str, int] = {}

    def _flow(self, outpoint: str) -> dict:
        return self.flows.setdefault(outpoint, {"state": "idle"})

    def step(self, world: "World") -> None:
        b = self.behavior
        if (
            b.leak_tokens_at is not None
            and world.chain.height >= b.leak_tokens_at
            and not self.flows.get("_leaked")
        ):
            world.registry.ledger.transfer(
                self.owner, "outside-perimeter", b.leak_token_amount
            )
            self.flows["_leaked"] = True
            world.log(self.name, "tokens_left_perimeter", amount=b.leak_token_amount)
        for instance in world.instances:
            if instance.owner != self.owner:
                continue
            for index, outpoint in enumerate(list(instance.deposits)):
                if (
                    b.exit_deposit_index is not None
                    and index != b.exit_deposit_index
                ):
                    continue
                self._step_deposit(world, instance, outpoint)

    def _step_deposit(self, world: "World", instance: ProtocolInstance, outpoint: str) -> None:
        flow = self._flow(outpoint)
        b = self.behavior
        chain = world.chain
        height = chain.height

        if flow["state"] == "idle" and b.exit_at is not None and height >= b.exit_at:
            record = world.registry.records.get(outpoint)
            if record is None or record.status not in (
                UtxoStatus.ACTIVE,
                UtxoStatus.REGISTERED,
            ):
                return
            if b.burn_before_exit:
                world.registry.burn_deposit(outpoint, self.owner)
            text = world.registry.get_stored_psbt(outpoint, Transition.UNBOND_REQUEST.value)
            template = PsbtTemplate.from_text(text)
            world.broadcast_anchor_row(template, self.keypair, instance, self.name)
            flow["state"] = "requested"
            flow["request_txid"] = template.txid
            self.exit_started_at[outpoint] = height
            world.log(
                self.name,
                "unbond_request",
                outpoint=outpoint,
                burned=b.burn_before_exit,
                txid=template.txid,
            )
            return

        if flow["state"] == "requested":
            uta_op = Outpoint(flow["request_txid"], 0)
            utxo = chain.utxo_set.get(uta_op)
            if utxo is not None:
                spender = chain.spender(uta_op)
                if spender is not None and spender.txid != flow.get("finalize_txid"):
                    flow["state"] = "challenged"
                    flow["challenge_txid"] = spender.txid
                    world.log(self.name, "saw_challenge", outpoint=outpoint)
                    return
                t1 = instance.tweak_data.t1
                if height >= utxo.confirmed_height + t1 - 1 and not flow.get("finalize_txid"):
                    template = build_psbt(
                        Transition.UNBOND_FINALIZE,
                        instance,
                        (uta_op, utxo.value),
                        fee=chain.fee_schedule.rate_at(height + 1) * 2,
                    )
                    sign_psbt(template, self.keypair, instance)
                    tx = finalize_to_tx(template, self.keypair, instance)
                    if world.safe_submit(tx, self.name, "unbond_finalize"):
                        flow["finalize_txid"] = tx.txid
                return
            if chain.spent_by.get(uta_op):
                spender = chain.tx_index[chain.spent_by[uta_op]]
                if spender.txid == flow.get("finalize_txid"):
                    flow["state"] = "done"
                    world.log(self.name, "exit_complete", outpoint=outpoint, height=height)
                else:
                    flow["state"] = "challenged"
                    flow["challenge_txid"] = spender.txid
            return

        if flow["state"] == "challenged" and b.use_leaked_key:
            leaked = world.leaked_oracle_keypair
            if leaked is None:
                return
            ch_op = Outpoint(flow["challenge_txid"], 0)
            utxo = chain.utxo_set.get(ch_op)
            if utxo is None or chain.spender(ch_op) is not None:
                return
            text = world.registry.get_stored_psbt(outpoint, Transition.UNBOND_RESOLVE.value)
            template = PsbtTemplate.from_text(text)
            if template.outpoint != ch_op:
                return
            sign_psbt(template, leaked, instance)
            tx = finalize_to_tx(template, leaked, instance)
            world.broadcast_with_fee_input(tx, template.fee, self.keypair, self.name)
            world.log(self.name, "self_resolved_with_leaked_key", outpoint=outpoint)
            flow["state"] = "stolen"


class TokenOperatorActor:
    def __init__(self, name: str, keypair: Keypair, behavior: OperatorBehavior):
        self.name = name
        self.keypair = keypair
        self.behavior = behavior
        self.disputes: dict[str, dict] = {}  # deposit outpoint -> challenge progress
        self._rebalanced = False
        self._false_rebalanced: set[str] = set()

    def signed_checkpoint(self, dest: DestChain):
        return sign_checkpoint(dest.latest_finalized(), self.keypair, TO_SIGNER)

    def step(self, world: "World") -> None:
        self._watch_vaults(world)
        if self.behavior.false_rebalance_at is not None:
            self._false_rebalance(world)
        if self.behavior.rebalance_at is not None:
            self._rebalance_duty(world)
        if self.behavior.claim_expired:
            self._claim_expired(world)
        if self.behavior.pay_over_seizure:
            self._pay_claims(world)

    # -- duty: challenge unbond requests that keep tokens alive -------------

    def _watch_vaults(self, world: "World") -> None:
        if not self.behavior.challenge_thefts:
            return
        chain = world.chain
        for instance in world.instances:
            for outpoint in instance.deposits:
                dispute = self.disputes.setdefault(outpoint, {})
                if "challenge_txid" in dispute:
                    continue
                txid, index = outpoint.rsplit(":", 1)
                spender = chain.spent_by.get(Outpoint(txid, int(index)))
                if spender is None:
                    continue
                request = chain.tx_index[spender]
                if not request.outputs:
                    continue
                if request.outputs[0].address_id != instance.addresses.uta.address_id:
                    continue  # not an unbond request (rebalance or cooperative)
                record = world.registry.records.get(outpoint)
                if (
                    record is not None
                    and record.status in EXIT_STATUSES
                    and not self.behavior.challenge_legitimate
                ):
                    continue  # legitimate exit, nothing to dispute
                templates = instance.to_psbts.get(outpoint)
                if templates is None:
                    continue
                template = templates[Transition.UNBOND_CHALLENGE]
                if template.outpoint.txid != request.txid:
                    continue  # request was not the pre-agreed chain
                world.broadcast_anchor_row(template, self.keypair, instance, self.name)
                dispute["challenge_txid"] = template.txid
                dispute["kind"] = "UCA"
                world.log(self.name, "unbond_challenge", outpoint=outpoint)

    # -- duty and attack: rebalance --------------------------------------------

    def _broadcast_rebalance(self, world: "World", instance: ProtocolInstance, outpoint: str):
        templates = instance.to_psbts.get(outpoint)
        if templates is None:
            return None
        template = templates[Transition.REBALANCE_REQUEST]
        world.broadcast_anchor_row(template, self.keypair, instance, self.name)
        dispute = self.disputes.setdefault(outpoint, {})
        dispute["challenge_txid"] = template.txid
        dispute["kind"] = "RCA"
        return template

    def _false_rebalance(self, world: "World") -> None:
        if world.chain.height < self.behavior.false_rebalance_at:
            return
        for instance in world.instances:
            for outpoint in instance.deposits:
                if outpoint in self._false_rebalanced:
                    continue
                record = world.registry.records.get(outpoint)
                if record is None or record.status is not UtxoStatus.ACTIVE:
                    continue
                utxo_txid, index = outpoint.rsplit(":", 1)
                if Outpoint(utxo_txid, int(index)) not in world.chain.utxo_set:
                    continue
                if self._broadcast_rebalance(world, instance, outpoint) is not None:
                    self._false_rebalanced.add(outpoint)
                    world.log(self.name, "false_rebalance_request", outpoint=outpoint)
                    return  # one seizure attempt per scenario

    def _rebalance_duty(self, world: "World") -> None:
        if self._rebalanced or world.chain.height < self.behavior.rebalance_at:
            return
        self._rebalanced = True
        registry = world.registry
        owners = {r.owner for r in registry.records.values()}
        for owner in sorted(owners):
            delta = registry.detect_imbalance(owner)
            if delta <= 0:
                continue
            event = registry.mark_rebalance(owner, delta, caller="to")
            world.log(
                self.name,
                "rebalance_marked",
                owner=owner,
                delta=delta,
                selected=[list(s) for s in event.selected],
                over_seizure=event.over_seizure,
            )
            for outpoint, _amount in event.selected:
                for instance in world.instances:
                    if outpoint in instance.deposits:
                        self._broadcast_rebalance(world, instance, outpoint)
                        break

    # -- duty: collect expired challenge outputs -----------------------------

    def _claim_expired(self, world: "World") -> None:
        chain = world.chain
        for instance in world.instances:
            for outpoint, dispute in self.disputes.items():
                if "challenge_txid" not in dispute or dispute.get("claim_txid"):
                    continue
                if outpoint not in instance.deposits:
                    continue
                ch_op = Outpoint(dispute["challenge_txid"], 0)
                utxo = chain.utxo_set.get(ch_op)
                if utxo is None:
                    continue
                if chain.spender(ch_op) is not None:
                    continue
                if chain.height < utxo.confirmed_height + instance.tweak_data.t2 - 1:
                    continue
                transition = (
                    Transition.UNBOND_RESOLVE_EXPIRED
                    if dispute["kind"] == "UCA"
                    else Transition.REBALANCE_RESOLVE_EXPIRED
                )
                template = build_psbt(
                    transition,
                    instance,
                    (ch_op, utxo.value),
                    fee=chain.fee_schedule.rate_at(chain.height + 1) * 2,
                )
                sign_psbt(template, self.keypair, instance)
                tx = finalize_to_tx(template, self.keypair, instance)
                if world.safe_submit(tx, self.name, transition.value):
                    dispute["claim_txid"] = tx.txid

    # -- duty: repay over-seized value ----------------------------------------

    def _pay_claims(self, world: "World") -> None:
        registry = world.registry
        for owner in sorted(registry.claimable):
            owed = registry.claimable[owner]
            if owed <= 0:
                continue
            instance = next(
                (i for i in world.instances if i.owner == owner), None
            )
            if instance is None:
                continue
            tx = send_btc(world.chain, self.keypair, instance.return_address_id, owed)
            if tx is not None:
                registry.record_claim_paid(owner, owed, caller="to")
                world.log(self.name, "over_seizure_repaid", owner=owner, amount=owed)


class OracleActor:
    def __init__(
        self,
        name: str,
        oracle: ArbitrationOracle,
        behavior: OracleBehavior,
        t_op_blocks: int,
    ):
        self.name = name
        self.oracle = oracle
        self.behavior = behavior
        self.t_op_blocks = t_op_blocks  # blocks a challenge waits before arbitration
        self.first_seen: dict[str, int] = {}  # challenge txid -> height noticed

    def is_online(self, height: int) -> bool:
        if self.behavior.offline is None:
            return True
        start, until = self.behavior.offline
        return not (start <= height < until)

    def step(self, world: "World") -> None:
        height = world.chain.height
        if not self.is_online(height):
            return
        try:
            self.oracle.sync(world.dest)
        except StaleCheckpoint:
            if world.operator.behavior.provide_checkpoints:
                try:
                    self.oracle.sync(
                        world.dest, world.operator.signed_checkpoint(world.dest)
                    )
                except StaleCheckpoint as exc:
                    world.log(self.name, "sync_refused", reason=str(exc))
                    return
            else:
                world.log(self.name, "sync_refused", reason="no fresh checkpoint")
                return
        if self.behavior.refuse_resolutions:
            return
        for instance in world.instances:
            if all(self.oracle.keypair.public != pk for pk in instance.tweak_data.ao_pks):
                continue
            self._scan_challenges(world, instance)

    def _scan_challenges(self, world: "World", instance: ProtocolInstance) -> None:
        chain = world.chain
        for kind in ("UCA", "RCA"):
            for utxo in chain.utxos_at(instance.address_ids[kind]):
                if chain.spender(utxo.outpoint) is not None:
                    continue
                seen = self.first_seen.setdefault(utxo.outpoint.txid, chain.height)
                if chain.height - seen < self.t_op_blocks - 1:
                    continue
                self._arbitrate(world, instance, kind, utxo)

    def _arbitrate(self, world: "World", instance: ProtocolInstance, kind: str, utxo: Utxo):
        chain = world.chain
        challenge_tx = chain.tx_index[utxo.outpoint.txid]
        if kind == "RCA":
            request_tx = challenge_tx
            deposit_op = request_tx.inputs[0].outpoint
            outcome = self.oracle.verify_rebalance_inputs(str(deposit_op), request_tx)
            resolve, action = self.oracle.resolve_rebalance, "rebalance_resolved"
        else:
            request_tx = chain.tx_index[challenge_tx.inputs[0].outpoint.txid]
            deposit_op = request_tx.inputs[0].outpoint
            outcome = self.oracle.verify_unbond_inputs(
                str(deposit_op), request_tx, challenge_tx
            )
            resolve, action = self.oracle.resolve_unbond_challenge, "unbond_resolved"
        if isinstance(outcome, Rejection):
            world.log(self.name, "verify_rejected", step=outcome.step, check=outcome.check)
            return
        template = resolve(outcome)
        if template is None:
            world.log(
                self.name,
                "resolution_refused",
                outpoint=str(deposit_op),
                status=outcome.status.value,
            )
            return
        tx = finalize_to_tx(template, self.oracle.keypair, instance)
        if world.broadcast_with_fee_input(tx, template.fee, self.oracle.keypair, self.name):
            world.log(self.name, action, outpoint=str(deposit_op), txid=tx.txid)


# ---------------------------------------------------------------------------
# the world


class World:
    def __init__(
        self,
        chain: BtcChain,
        dest: DestChain,
        registry: Registry,
        operator: TokenOperatorActor,
        depositors: list[DepositorActor],
        oracles: list[OracleActor],
        instances: list[ProtocolInstance],
    ):
        self.chain = chain
        self.dest = dest
        self.registry = registry
        self.operator = operator
        self.depositors = depositors
        self.oracles = oracles
        self.instances = instances
        self.trace: list[dict] = []
        self.dest_halted_at: int | None = None  # height after which finality stalls
        self.leaked_oracle_keypair: Keypair | None = None
        for actor in oracles:
            if actor.behavior.leak_secret:
                self.leaked_oracle_keypair = actor.oracle.keypair

    # -- logging ----------------------------------------------------------

    def log(self, actor: str, action: str, **fields) -> None:
        entry = {"height": self.chain.height, "actor": actor, "action": action}
        entry.update(fields)
        self.trace.append(entry)

    # -- shared broadcast plumbing -----------------------------------------

    def safe_submit(self, tx: SimTx, actor: str, action: str) -> bool:
        try:
            self.chain.submit_tx(tx)
        except TxRejected as exc:
            self.log(actor, f"{action}_rejected", reason=type(exc).__name__)
            return False
        self.log(actor, action, txid=tx.txid)
        return True

    def broadcast_anchor_row(
        self,
        template: PsbtTemplate,
        executor: Keypair,
        instance: ProtocolInstance,
        actor: str,
    ) -> SimTx | None:
        tx = finalize_to_tx(template, executor, instance)
        if not self.safe_submit(tx, actor, template.transition.value):
            return None
        rate = self.chain.fee_schedule.rate_at(self.chain.height + 1)
        f0 = template.fee
        if f0 >= rate * tx.weight:
            return tx
        target = required_child_fee(f0, rate * tx.weight, rate * 3)
        address_id = self.chain.ensure_key_address(executor.public)
        anchor_value = tx.outputs[tx.anchor_index].value if tx.anchor_index is not None else 0
        for utxo in spendable_utxos(self.chain, address_id):
            if utxo.value + anchor_value >= target:
                try:
                    attach_cpfp_child(tx, utxo, target, executor, self.chain)
                except TxRejected as exc:
                    self.log(actor, "cpfp_rejected", reason=type(exc).__name__)
                    return tx
                self.log(actor, "cpfp_child", parent=tx.txid, fee=target)
                return tx
        self.log(actor, "cpfp_no_funds", parent=tx.txid)
        return tx

    def broadcast_with_fee_input(
        self, tx: SimTx, committed_fee: int, fee_payer: Keypair, actor: str
    ) -> bool:
        rate = self.chain.fee_schedule.rate_at(self.chain.height + 1)
        if committed_fee >= rate * tx.weight:
            return self.safe_submit(tx, actor, "broadcast")
        needed = rate * (tx.weight + 1) - committed_fee
        fee_utxo = carve_fee_utxo(self.chain, fee_payer, needed)
        if fee_utxo is None:
            self.log(actor, "fee_input_no_funds", txid=tx.txid)
            return False
        bumped = add_fee_input(tx, fee_utxo, fee_payer)
        return self.safe_submit(bumped, actor, "broadcast_with_fee")

    # -- the clock ---------------------------------------------------------

    def tick(self) -> None:
        for depositor in self.depositors:
            depositor.step(self)
        self.operator.step(self)
        for oracle in self.oracles:
            oracle.step(self)
        confirmed = self.chain.mine_block()
        if confirmed:
            self.log("chain", "block", confirmed=confirmed)
        if self.dest_halted_at is None or self.chain.height <= self.dest_halted_at:
            self.dest.advance(self.registry.slots_per_block)

    def run(self, n_blocks: int) -> None:
        for _ in range(n_blocks):
            self.tick()
