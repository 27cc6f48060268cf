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
out as it is from the block before its leaf's delay has passed
(``World.spend_after_delay``) and confirms at the first legal height.
Every top-up is paid from the party's own key wallet, and ``pay`` is
the one routine that builds, signs and submits a key-wallet spend: the
anchor child, the carve of a fee input (``carve_fee_utxo``) and the
operator's over-seizure repayment (``send_btc``).

No actor keeps a record of where a deposit stands.  ``World.vaults``
holds each deposit's instance and vault ``Outpoint``, parsed once.
``World.resting`` maps each moved deposit to the output its spine rests
on, that output's address kind (``ProtocolInstance.address_kinds``) and
its path, the confirmed rows from the vault that ``BtcChain.spine``, the
one spine walk, returns.  It is ``World.read_resting()``, the one
reading the grader makes after the last block too, kept until the count
of the chain's spent outpoints (``BtcChain.spent_by``) moves, however
the block was mined.  A quiet block therefore follows no spine.  The
operator challenges an unbonding output whose record still holds tokens
and claims a challenge output older than t2; the depositor finalizes or
watches its exit.  The oracles judge each challenge output from its
deposit and its path (the request, then any challenge): each scans the
instances that list its key (``World.instances_of``) while a challenge
output rests (``World.challenge_rests``), and syncs every block.  A burn
or token leak that the ledger refuses moves nothing and is tried again
the next block; a leak shows as the outside account's balance.  What
actors keep records attempts, not outcomes, since a request the mempool
refused leaves nothing on the chain to read: the depositor's
``exit_started_at``, the operator's ``_rebalanced`` and
``_false_rebalanced``; and each oracle keeps its own sight of each
challenge (``OracleActor.first_seen``).
"""

from __future__ import annotations

from .arbitration import ArbitrationOracle, Rejection, StaleCheckpoint
from .chain import (
    BtcChain, Outpoint, SighashFlag, SimTx, TxInput, TxOutput, TxRejected, Utxo, weight,
)
from .destchain import DestChain, sign_checkpoint
from .keys import TRANSITION_SPECS, Keypair, Point, Transition, sign_digest
from .psbt import (
    ProtocolInstance,
    PsbtTemplate,
    add_fee_input,
    build_psbt,
    finalize_to_tx,
    required_child_fee,
)
from .registry import EXIT_STATUSES, LedgerError, Registry, UtxoStatus
from .scenario import DepositorBehavior, OperatorBehavior, OracleBehavior

# ---------------------------------------------------------------------------
# wallet helpers


def spendable_utxos(chain: BtcChain, address_id: str) -> list[Utxo]:
    """Confirmed outputs at an address not already spent by anything in
    the mempool."""
    return [u for u in chain.utxos_at(address_id) if chain.spender(u.outpoint) is None]


def pay(
    chain: BtcChain,
    keypair: Keypair,
    outputs: list[TxOutput],
    fee: int,
    spend: tuple[tuple[Outpoint, int], ...] = (),
) -> SimTx | None:
    """The one key-wallet spend: the ``spend`` inputs, each an
    ``(Outpoint, value)`` the key can sign for, then the first spendable
    output at the key's address that with them covers ``outputs`` and
    ``fee``, paying ``outputs`` and then any change back to that address.
    Signs every input with the key, submits the transaction and returns
    it, or None when no output covers it; a refusal raises ``TxRejected``."""
    address_id = chain.ensure_key_address(keypair.public)
    need = sum(o.value for o in outputs) + fee - sum(value for _, value in spend)
    for utxo in spendable_utxos(chain, address_id):
        change = utxo.value - need
        if change < 0:
            continue
        spent = [outpoint for outpoint, _ in spend] + [utxo.outpoint]
        tx = SimTx(
            inputs=[TxInput(outpoint, "key", SighashFlag.ALL) for outpoint in spent],
            outputs=[*outputs, TxOutput(address_id, change)] if change else list(outputs),
        )
        for i, inp in enumerate(tx.inputs):
            inp.witness = [sign_digest(keypair, tx.sighash(i))]
        chain.submit_tx(tx)
        return tx
    return None


def carve_fee_utxo(chain: BtcChain, keypair: Keypair, amount: int) -> Utxo | None:
    """Create an exact-value output at the signer's key address by
    paying it to itself.  The carving parent sits in the mempool, so a
    child appended in the same tick confirms with it."""
    address_id = chain.ensure_key_address(keypair.public)
    parent = send_btc(chain, keypair, address_id, amount)
    if parent is None:
        return None
    return Utxo(Outpoint(parent.txid, 0), amount, address_id, chain.height)


def send_btc(
    chain: BtcChain, keypair: Keypair, dest_address_id: str, amount: int
) -> SimTx | None:
    """Plain key-spend payment, priced with its change output."""
    fee = chain.next_rate() * weight(1, 2)
    return pay(chain, keypair, [TxOutput(dest_address_id, amount)], fee)


# ---------------------------------------------------------------------------
# actors


Resting = tuple[ProtocolInstance, Utxo, str | None, list[SimTx]]  # see World.read_resting

# the leaf of the depositor's own spend of its unbonding output after t1
_FINALIZE_PATH = TRANSITION_SPECS[Transition.UNBOND_FINALIZE].path


class DepositorActor:
    def __init__(self, name: str, keypair: Keypair, owner: str, behavior: DepositorBehavior):
        self.name = name
        self.keypair = keypair
        self.owner = owner
        self.behavior = behavior
        self.exit_started_at: dict[str, int] = {}  # deposit outpoint -> height of the request

    def step(self, world: "World") -> None:
        b = self.behavior
        height = world.chain.height
        leak_due = b.leak_tokens_at is not None and height >= b.leak_tokens_at
        if leak_due and not world.registry.ledger.balance("outside-perimeter"):  # not leaked
            try:
                world.registry.ledger.transfer(self.owner, "outside-perimeter", b.leak_token_amount)
            except LedgerError as exc:
                world.log(self.name, "leak_refused", amount=b.leak_token_amount, reason=str(exc))
            else:
                world.log(self.name, "tokens_left_perimeter", amount=b.leak_token_amount)
        if not self.exit_started_at and (b.exit_at is None or height < b.exit_at):
            return  # no exit started and none due yet; past here exit_at has come
        for deposit, (instance, vault) in world.vaults.items():
            if instance.owner != self.owner:
                continue
            if b.exit_deposit_index is not None and vault.index != b.exit_deposit_index:
                continue
            if deposit not in self.exit_started_at:
                self._start_exit(world, instance, deposit)
            elif deposit in world.resting:
                self._follow_exit(world, deposit)

    def _start_exit(self, world: "World", instance: ProtocolInstance, outpoint: str) -> None:
        b = self.behavior
        record = world.registry.records.get(outpoint)
        if record is None or record.status not in (UtxoStatus.ACTIVE, UtxoStatus.REGISTERED):
            return
        if b.burn_before_exit:
            try:
                world.registry.burn_deposit(outpoint, self.owner)
            except LedgerError as exc:
                world.log(self.name, "burn_refused", outpoint=outpoint, reason=str(exc))
                return
        text = world.registry.get_stored_psbt(outpoint, Transition.UNBOND_REQUEST.value)
        template = PsbtTemplate.from_text(text)
        world.execute(template, self.keypair, instance, self.name)
        self.exit_started_at[outpoint] = world.chain.height
        world.log(
            self.name,
            "unbond_request",
            outpoint=outpoint,
            burned=b.burn_before_exit,
            txid=template.txid,
        )

    def _follow_exit(self, world: "World", outpoint: str) -> None:
        """Act on where an exiting deposit rests: on the unbonding output,
        finalize after t1 unless a challenge spends it (noted the block
        after it arrives); on the return address, note a finalize (the
        path's last row) that has just confirmed; on a challenge output,
        resolve it with a leaked oracle key from the block after it confirms."""
        instance, utxo, kind, path = world.resting[outpoint]
        chain = world.chain
        height = chain.height
        if kind == "UTA":
            spender = chain.spender(utxo.outpoint)
            if spender is None:
                world.spend_after_delay(
                    Transition.UNBOND_FINALIZE, instance, utxo, self.keypair, self.name
                )
            elif spender.inputs[0].path_id != _FINALIZE_PATH:
                if chain.mempool_arrival[spender.txid] == height - 1:
                    world.log(self.name, "saw_challenge", outpoint=outpoint)
        elif kind == "dep_return":
            if utxo.confirmed_height == height and path[-1].inputs[0].path_id == _FINALIZE_PATH:
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
        return sign_checkpoint(dest.latest_finalized(), self.keypair)

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
        for outpoint, (instance, utxo, kind, _path) in world.resting.items():
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
        for outpoint, (instance, vault) in world.vaults.items():
            if outpoint in self._false_rebalanced:
                continue
            record = world.registry.records.get(outpoint)
            if record is None or record.status is not UtxoStatus.ACTIVE:
                continue
            if vault not in world.chain.utxo_set:
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
                instance = world.vaults[outpoint][0]
                template = instance.to_psbts[outpoint][Transition.REBALANCE_REQUEST]
                world.execute(template, self.keypair, instance, self.name)

    # -- duty: collect expired challenge outputs -----------------------------

    def _claim_expired(self, world: "World") -> None:
        for instance, utxo, kind, _path in world.resting.values():
            if kind in _CLAIM_ROWS:
                world.spend_after_delay(_CLAIM_ROWS[kind], instance, utxo, self.keypair, self.name)

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
            tx = send_btc(world.chain, self.keypair, instance.address_ids["dep_return"], owed)
            if tx is not None:
                registry.record_claim_paid(owner, owed, caller="to")
                world.log(self.name, "over_seizure_repaid", owner=owner, amount=owed)


class OracleActor:
    """Runs one ``ArbitrationOracle`` in the world.  Its one record kept
    between blocks is ``first_seen``, its own sight of each challenge (the
    height it first saw it): ``t_op_blocks`` runs from when the oracle
    wakes and sees a challenge, not from when the challenge confirmed, as
    in ``availability.response_time``, so the chain cannot stand in."""

    # per challenge output kind: the oracle's verifier and resolver, by name
    # so that each call looks them up on the oracle, the number of rows from
    # the vault to the output, and the action logged once a resolution is sent
    _DISPUTES = {
        "UCA": ("verify_unbond_inputs", "resolve_unbond_challenge", 2, "unbond_resolved"),
        "RCA": ("verify_rebalance_inputs", "resolve_rebalance", 1, "rebalance_resolved"),
    }

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
        if self.behavior.refuse_resolutions or not world.challenge_rests:
            return
        for instance in world.instances_of.get(self.oracle.keypair.public, ()):
            self._scan_challenges(world, instance)

    def _scan_challenges(self, world: "World", instance: ProtocolInstance) -> None:
        """Arbitrate the instance's unspent challenge outputs, UCA before
        RCA, each kind oldest first."""
        chain = world.chain
        challenges = [
            (kind, utxo, deposit)
            for deposit, (owner, utxo, kind, _) in world.resting.items()
            if owner is instance and kind in self._DISPUTES
        ]
        challenges.sort(key=lambda c: (c[0] == "RCA", c[1].confirmed_height, str(c[1].outpoint)))
        for kind, utxo, deposit in challenges:
            if chain.spender(utxo.outpoint) is not None:
                continue
            seen = self.first_seen.setdefault(utxo.outpoint.txid, chain.height)
            if chain.height - seen < self.t_op_blocks - 1:
                continue
            self._arbitrate(world, deposit)

    def _arbitrate(self, world: "World", deposit: str) -> None:
        """Verify the dispute over the challenge output ``deposit`` rests
        on from its path, the rows from the vault (the request, then for
        UCA the challenge), and broadcast the resolution signed."""
        instance, _, kind, path = world.resting[deposit]
        verify, resolve, n_rows, action = self._DISPUTES[kind]
        if len(path) != n_rows:
            return  # a co-signed spend, not the dispute's rows, paid the output
        outcome = getattr(self.oracle, verify)(deposit, *path)
        if isinstance(outcome, Rejection):
            world.log(self.name, "verify_rejected", step=outcome.step, check=outcome.check)
            return
        template = getattr(self.oracle, resolve)(outcome)
        if template is None:
            world.log(
                self.name, "resolution_refused", outpoint=deposit, status=outcome.status.value
            )
            return
        tx = world.execute(template, self.oracle.keypair, instance, self.name)
        if tx is not None:
            world.log(self.name, action, outpoint=deposit, txid=tx.txid)


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
        # deposit -> (instance, vault), in instance and deposit order
        self.vaults: dict[str, tuple[ProtocolInstance, Outpoint]] = {
            deposit: (instance, Outpoint.parse(deposit))
            for instance in instances
            for deposit in instance.deposits
        }
        # oracle key -> the instances whose tweak data lists it, in instance order
        self.instances_of: dict[Point, list[ProtocolInstance]] = {}
        for instance in instances:
            for key in dict.fromkeys(instance.tweak_data.ao_pks):
                self.instances_of.setdefault(key, []).append(instance)
        self._reread()  # ``resting``, read again once a block has spent
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
            with_input = rate * weight(len(tx.inputs) + 1, len(tx.outputs))
            fee_utxo = carve_fee_utxo(self.chain, payer, with_input - template.fee)
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
        # the child spends the anchor and one wallet output into one change output
        target = required_child_fee(template.fee, rate * tx.weight, rate * weight(2, 1))
        anchor = (Outpoint(tx.txid, tx.anchor_index), tx.outputs[tx.anchor_index].value)
        try:
            child = pay(self.chain, executor, [], target, spend=(anchor,))
        except TxRejected as exc:
            self.log(actor, "cpfp_rejected", reason=type(exc).__name__)
            return tx
        if child is None:
            self.log(actor, "cpfp_no_funds", parent=tx.txid)
        else:
            self.log(actor, "cpfp_child", parent=tx.txid, fee=target)
        return tx

    def spend_after_delay(
        self, row: Transition, instance: ProtocolInstance, utxo: Utxo, executor: Keypair, actor: str
    ) -> None:
        """Broadcast ``row``, a timelocked row that pays its own fee, on
        ``utxo`` while it is unspent, from the block before the delay of
        the row's leaf (the one the chain enforces) has passed, so it
        confirms at the first legal height."""
        (leaf,) = instance.addresses.rows[row]
        due = utxo.confirmed_height + leaf.policy.delay_blocks - 1
        if self.chain.spender(utxo.outpoint) is not None or self.chain.height < due:
            return
        spent = (utxo.outpoint, utxo.value)
        template = build_psbt(row, instance, spent, rate=self.chain.next_rate())
        self.execute(template, executor, instance, actor)

    # -- the clock ---------------------------------------------------------

    def read_resting(self) -> dict[str, Resting]:
        """``deposit -> (instance, utxo, kind, path)`` for each deposit
        whose vault output has a confirmed spend: its path, the spine's
        rows from the vault (``BtcChain.spine``), the unspent output 0 of
        the last row (left out when there is none) and that output's
        catalogue address kind (None for an address outside it)."""
        chain = self.chain
        resting = {}
        for deposit, (instance, vault) in self.vaults.items():
            path = chain.spine(vault)
            utxo = chain.utxo_set.get(Outpoint(path[-1].txid, 0)) if path else None
            if utxo is not None:
                kind = instance.address_kinds.get(utxo.address_id)
                resting[deposit] = (instance, utxo, kind, path)
        return resting

    @property
    def resting(self) -> dict[str, Resting]:
        """``read_resting()`` as of the last confirmed block, read again
        only once a block has spent an outpoint, however it was mined.
        Read-only."""
        if len(self.chain.spent_by) != self._spent_read:
            self._reread()
        return self._resting

    @property
    def challenge_rests(self) -> bool:
        """Whether a UCA or RCA challenge output is in ``resting``."""
        if len(self.chain.spent_by) != self._spent_read:
            self._reread()
        return self._challenge_rests

    def _reread(self) -> None:
        """Read ``resting`` afresh at the chain's count of spent outpoints,
        which only grows: the reading is current while the count stands."""
        self._spent_read = len(self.chain.spent_by)
        self._resting = self.read_resting()
        kinds = {kind for _, _, kind, _ in self._resting.values()}
        self._challenge_rests = "UCA" in kinds or "RCA" in kinds

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
