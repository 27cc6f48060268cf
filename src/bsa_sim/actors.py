"""Actor state machines and the simulation world.

One tick is one Bitcoin block: depositors act, then the operator, then
the arbitration oracles, then a block is mined and the destination chain
advances a fixed number of slots.  All behavior is deterministic; attack
and failure scenarios are expressed as behavior flags with trigger
heights, never as random events.

Every row an actor broadcasts goes through ``World.execute``, which
countersigns it as the executor and, when the committed fee is below the
next block's rate, tops it up as the row's catalogue ``fee_mode`` says:
an ``anchor`` row (requests, challenges, cooperative exits) gets a child
spending its anchor; an ``acp`` row (oracle resolutions) gets a fee
input carved to the exact missing amount, whose carving parent confirms
in the same block; a ``self`` row (finalizes, timelocked claims) goes
out as it is, matures in the mempool and confirms at the first legal
height.

No actor keeps a record of where a deposit stands.  Each tick, before
the actors step, ``World.resting`` reads the ledger once: every moved
deposit's spine (``BtcChain.spine_end``) to the output it rests on, and
that output's address kind (``ProtocolInstance.address_kinds``).  The
operator challenges an unbonding output whose record still holds tokens
and claims a challenge output older than t2, the oracles arbitrate
challenge outputs, and the depositor finalizes or watches its exit.
What actors keep records attempts, not outcomes, since a request the
mempool refused leaves nothing on the chain to read: the depositor's
``exit_started_at`` and leak flag, the operator's ``_rebalanced`` and
``_false_rebalanced``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arbitration import ArbitrationOracle, Rejection, StaleCheckpoint
from .chain import BtcChain, Outpoint, SighashFlag, SimTx, TxInput, TxOutput, TxRejected, Utxo
from .destchain import DestChain, TO_SIGNER, sign_checkpoint
from .keys import Keypair, sign_digest
from .psbt import (
    TRANSITION_SPECS,
    ProtocolInstance,
    PsbtTemplate,
    Transition,
    add_fee_input,
    attach_cpfp_child,
    build_psbt,
    finalize_to_tx,
    required_child_fee,
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
    fee = chain.next_rate() * 3
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


# the leaf of the depositor's own spend of its unbonding output after t1
_FINALIZE_PATH = TRANSITION_SPECS[Transition.UNBOND_FINALIZE].path


class DepositorActor:
    def __init__(self, name: str, keypair: Keypair, owner: str, behavior: DepositorBehavior):
        self.name = name
        self.keypair = keypair
        self.owner = owner
        self.behavior = behavior
        self.exit_started_at: dict[str, int] = {}  # deposit outpoint -> height of the request
        self._leaked = False

    def step(self, world: "World") -> None:
        b = self.behavior
        height = world.chain.height
        if not self._leaked and b.leak_tokens_at is not None and height >= b.leak_tokens_at:
            world.registry.ledger.transfer(self.owner, "outside-perimeter", b.leak_token_amount)
            self._leaked = True
            world.log(self.name, "tokens_left_perimeter", amount=b.leak_token_amount)
        resting = {outpoint: (utxo, kind) for _, outpoint, utxo, kind in world.resting}
        for instance in world.instances:
            if instance.owner != self.owner:
                continue
            for index, outpoint in enumerate(instance.deposits):
                if b.exit_deposit_index is not None and index != b.exit_deposit_index:
                    continue
                if outpoint not in self.exit_started_at:
                    self._start_exit(world, instance, outpoint)
                elif outpoint in resting:
                    self._follow_exit(world, instance, outpoint, *resting[outpoint])

    def _start_exit(self, world: "World", instance: ProtocolInstance, outpoint: str) -> None:
        b = self.behavior
        height = world.chain.height
        if b.exit_at is None or height < b.exit_at:
            return
        record = world.registry.records.get(outpoint)
        if record is None or record.status not in (UtxoStatus.ACTIVE, UtxoStatus.REGISTERED):
            return
        if b.burn_before_exit:
            world.registry.burn_deposit(outpoint, self.owner)
        text = world.registry.get_stored_psbt(outpoint, Transition.UNBOND_REQUEST.value)
        template = PsbtTemplate.from_text(text)
        world.execute(template, self.keypair, instance, self.name)
        self.exit_started_at[outpoint] = height
        world.log(
            self.name,
            "unbond_request",
            outpoint=outpoint,
            burned=b.burn_before_exit,
            txid=template.txid,
        )

    def _follow_exit(
        self, world: "World", instance: ProtocolInstance, outpoint: str, utxo: Utxo, kind: str
    ) -> None:
        """Act on where an exiting deposit rests: on the unbonding output,
        finalize after t1 unless a challenge spends it (noted the block
        after it arrives); on the return address, note a finalize that has
        just confirmed; on a challenge output, resolve it with a leaked
        oracle key from the block after it confirms."""
        chain = world.chain
        height = chain.height
        if kind == "UTA":
            spender = chain.spender(utxo.outpoint)
            if spender is None and height >= utxo.confirmed_height + instance.tweak_data.t1 - 1:
                spent = (utxo.outpoint, utxo.value)
                fee = chain.next_rate() * 2
                template = build_psbt(Transition.UNBOND_FINALIZE, instance, spent, fee=fee)
                world.execute(template, self.keypair, instance, self.name)
            elif spender is not None and spender.inputs[0].path_id != _FINALIZE_PATH:
                if chain.mempool_arrival[spender.txid] == height - 1:
                    world.log(self.name, "saw_challenge", outpoint=outpoint)
        elif kind == "dep_return":
            finalize = chain.tx_index[utxo.outpoint.txid]
            if utxo.confirmed_height == height and finalize.inputs[0].path_id == _FINALIZE_PATH:
                world.log(self.name, "exit_complete", outpoint=outpoint, height=height)
        elif kind == "UCA" and self.behavior.use_leaked_key:
            leaked = world.leaked_oracle_keypair
            if leaked is None or height <= utxo.confirmed_height or chain.spender(utxo.outpoint):
                return
            text = world.registry.get_stored_psbt(outpoint, Transition.UNBOND_RESOLVE.value)
            template = PsbtTemplate.from_text(text)
            if template.outpoint != utxo.outpoint:
                return  # not the pre-agreed challenge
            if world.execute(template, leaked, instance, self.name, fee_payer=self.keypair):
                world.log(self.name, "self_resolved_with_leaked_key", outpoint=outpoint)


# the row the operator executes on a challenge output that outlived t2,
# by the address kind the output sits on
_CLAIM_ROWS = {
    spec.source: transition
    for transition, spec in TRANSITION_SPECS.items()
    if spec.executor == "to" and spec.source in ("UCA", "RCA")
}


class TokenOperatorActor:
    def __init__(self, name: str, keypair: Keypair, behavior: OperatorBehavior):
        self.name = name
        self.keypair = keypair
        self.behavior = behavior
        self._rebalanced = False
        self._false_rebalanced: set[str] = set()  # seizure attempts, admitted or not

    def signed_checkpoint(self, dest: DestChain):
        return sign_checkpoint(dest.latest_finalized(), self.keypair, TO_SIGNER)

    def step(self, world: "World") -> None:
        if self.behavior.challenge_thefts:
            self._challenge_thefts(world)
        if self.behavior.false_rebalance_at is not None:
            self._false_rebalance(world)
        if self.behavior.rebalance_at is not None:
            self._rebalance_duty(world)
        if self.behavior.claim_expired:
            self._claim_expired(world)
        if self.behavior.pay_over_seizure:
            self._pay_claims(world)

    # -- duty: challenge unbond requests that keep tokens alive -------------

    def _challenge_thefts(self, world: "World") -> None:
        for instance, outpoint, utxo, kind in world.resting:
            if kind != "UTA":
                continue
            record = world.registry.records.get(outpoint)
            if (
                record is not None
                and record.status in EXIT_STATUSES
                and not self.behavior.challenge_legitimate
            ):
                continue  # legitimate exit, nothing to dispute
            template = instance.to_psbts[outpoint][Transition.UNBOND_CHALLENGE]
            if template.outpoint != utxo.outpoint:
                continue  # the request was not the pre-agreed row
            if world.chain.spender(utxo.outpoint) is not None:
                continue
            world.execute(template, self.keypair, instance, self.name)
            world.log(self.name, "unbond_challenge", outpoint=outpoint)

    # -- duty and attack: rebalance --------------------------------------------

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
                if Outpoint.parse(outpoint) not in world.chain.utxo_set:
                    continue
                template = instance.to_psbts[outpoint][Transition.REBALANCE_REQUEST]
                world.execute(template, self.keypair, instance, self.name)
                self._false_rebalanced.add(outpoint)
                world.log(self.name, "false_rebalance_request", outpoint=outpoint)
                return  # one seizure attempt per block

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
                        template = instance.to_psbts[outpoint][Transition.REBALANCE_REQUEST]
                        world.execute(template, self.keypair, instance, self.name)
                        break

    # -- duty: collect expired challenge outputs -----------------------------

    def _claim_expired(self, world: "World") -> None:
        chain = world.chain
        for instance, _outpoint, utxo, kind in world.resting:
            expiry = utxo.confirmed_height + instance.tweak_data.t2 - 1
            if kind not in _CLAIM_ROWS or chain.height < expiry:
                continue
            if chain.spender(utxo.outpoint) is not None:
                continue
            template = build_psbt(
                _CLAIM_ROWS[kind],
                instance,
                (utxo.outpoint, utxo.value),
                fee=chain.next_rate() * 2,
            )
            world.execute(template, self.keypair, instance, self.name)

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
            if self.oracle.keypair.public in instance.tweak_data.ao_pks:
                self._scan_challenges(world, instance)

    def _scan_challenges(self, world: "World", instance: ProtocolInstance) -> None:
        """Arbitrate the instance's unspent challenge outputs, UCA before
        RCA, each kind oldest first."""
        chain = world.chain
        challenges = [
            (kind, utxo)
            for owner, _, utxo, kind in world.resting
            if owner is instance and kind in ("UCA", "RCA")
        ]
        challenges.sort(key=lambda c: (c[0] == "RCA", c[1].confirmed_height, str(c[1].outpoint)))
        for kind, utxo in challenges:
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
        tx = world.execute(template, self.oracle.keypair, instance, self.name)
        if tx is not None:
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
        # (instance, deposit, utxo, kind) per moved deposit, read once a tick
        self.resting: list[tuple[ProtocolInstance, str, Utxo, str | None]] = []
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

    # -- the one broadcast path ---------------------------------------------

    def execute(
        self,
        template: PsbtTemplate,
        executor: Keypair,
        instance: ProtocolInstance,
        actor: str,
        fee_payer: Keypair | None = None,
    ) -> SimTx | None:
        """Countersign ``template`` as ``executor`` and broadcast it with the
        fee top-up its ``fee_mode`` asks for (see the module docstring);
        ``fee_payer``, when given, pays an ``acp`` fee input instead of the
        executor.  Returns the countersigned row without any fee input, or
        None when it was not admitted."""
        tx = finalize_to_tx(template, executor, instance)
        mode = TRANSITION_SPECS[template.transition].fee_mode
        rate = self.chain.next_rate()
        short = template.fee < rate * tx.weight
        sent, action = tx, "broadcast" if mode == "acp" else template.transition.value
        if mode == "acp" and short:
            payer = fee_payer or executor
            fee_utxo = carve_fee_utxo(self.chain, payer, rate * (tx.weight + 1) - template.fee)
            if fee_utxo is None:
                self.log(actor, "fee_input_no_funds", txid=tx.txid)
                return None
            sent, action = add_fee_input(tx, fee_utxo, payer), "broadcast_with_fee"
        try:
            self.chain.submit_tx(sent)
        except TxRejected as exc:
            self.log(actor, f"{action}_rejected", reason=type(exc).__name__)
            return None
        self.log(actor, action, txid=sent.txid)
        if mode != "anchor" or not short:
            return tx
        target = required_child_fee(template.fee, rate * tx.weight, rate * 3)
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

    # -- the clock ---------------------------------------------------------

    def _resting_outputs(self) -> list[tuple[ProtocolInstance, str, Utxo, str | None]]:
        """``(instance, deposit, utxo, kind)`` for each deposit whose vault
        output has a confirmed spend: the unspent output at the end of its
        spine and that output's catalogue address kind (None for an
        address outside the instance's catalogue)."""
        chain = self.chain
        resting = []
        for instance in self.instances:
            for outpoint in instance.deposits:
                end, moved_at = chain.spine_end(Outpoint.parse(outpoint))
                utxo = None if moved_at is None else chain.utxo_set.get(end)
                if utxo is not None:
                    kind = instance.address_kinds.get(utxo.address_id)
                    resting.append((instance, outpoint, utxo, kind))
        return resting

    def tick(self) -> None:
        self.resting = self._resting_outputs()
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
