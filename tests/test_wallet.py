"""The one key-wallet spend, ``actors.pay``, against the builders it
replaced.

The over-seizure repayment, the fee carve and every CPFP child used to be
built by two hand-written copies of the same wallet job: ``send_btc``
built the repayment and the carve, and ``World.execute`` picked the
wallet output that ``psbt.attach_cpfp_child`` spent beside the anchor.
Both copies are kept below as references, building without submitting.
Every graded run, and 20 sweep draws given a fee step so that rows run
short, goes through a ``pay`` that first asks the reference what it
would build from the same wallet state; the test checks that ``pay``
submits exactly that transaction, field for field and by txid.
"""

import dataclasses
import pathlib
import random

import pytest

from bsa_sim import actors
from bsa_sim.actors import spendable_utxos
from bsa_sim.chain import Outpoint, SighashFlag, SimTx, TxInput, TxOutput, TxRejected, weight
from bsa_sim.harness import MATRIX_DIR, random_adversarial_config, run_scenario
from bsa_sim.keys import key_address_id, sign_digest
from bsa_sim.psbt import required_child_fee
from bsa_sim.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
GRADED_FILES = sorted((ROOT / "scenarios").glob("*.scn")) + sorted(MATRIX_DIR.glob("*.scn"))
FEE_STEPS = [(9, 4)]  # without a step no sweep draw runs short of its fee


def reference_send_btc(chain, keypair, dest_address_id, amount):
    """``actors.send_btc`` as it was before ``pay``, without the submit."""
    address_id = chain.ensure_key_address(keypair.public)
    fee = chain.next_rate() * weight(1, 2)  # priced with its change output
    for utxo in spendable_utxos(chain, address_id):
        if utxo.value < amount + fee:
            continue
        outputs = [TxOutput(dest_address_id, amount)]
        change = utxo.value - amount - fee
        if change > 0:
            outputs.append(TxOutput(address_id, change))
        tx = SimTx(inputs=[TxInput(utxo.outpoint, "key", SighashFlag.ALL)], outputs=outputs)
        tx.inputs[0].witness = [sign_digest(keypair, tx.sighash(0))]
        return tx
    return None


def reference_cpfp_child(chain, parent, executor):
    """``World.execute``'s choice of the wallet output and
    ``psbt.attach_cpfp_child``'s child as they were before ``pay``,
    without the submit.  The target fee is read from the parent."""
    (parent_input,) = parent.inputs
    spent = parent_input.outpoint
    utxo = chain.utxo_set.get(spent)
    value = utxo.value if utxo else chain.mempool[spent.txid].outputs[spent.index].value
    parent_fee = value - sum(o.value for o in parent.outputs)
    rate = chain.next_rate()
    target = required_child_fee(parent_fee, rate * parent.weight, rate * weight(2, 1))
    address_id = chain.ensure_key_address(executor.public)
    anchor_value = parent.outputs[parent.anchor_index].value
    for executor_utxo in spendable_utxos(chain, address_id):
        if executor_utxo.value + anchor_value < target:
            continue
        # attach_cpfp_child
        anchor_out = parent.outputs[parent.anchor_index]
        executor_addr = key_address_id(executor.public)
        assert anchor_out.address_id == executor_addr
        change = anchor_out.value + executor_utxo.value - target
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
        return child
    return None


def _runs():
    for path in GRADED_FILES:
        yield load_scenario(str(path))
    rng = random.Random(7)
    for i in range(20):
        yield dataclasses.replace(random_adversarial_config(rng, i), fee_steps=FEE_STEPS)


@pytest.fixture
def spends(monkeypatch):
    """Each ``pay`` call of the runs as ``(kind, reference, submitted)``,
    the reference built just before ``pay`` ran."""
    seen = []
    real_pay = actors.pay

    def recording_pay(chain, keypair, outputs, fee, spend=()):
        if spend:
            (anchor, _value), = spend
            kind = "child"
            expected = reference_cpfp_child(chain, chain.mempool[anchor.txid], keypair)
        else:
            (output,) = outputs
            own = output.address_id == key_address_id(keypair.public)
            kind = "carve" if own else "repayment"
            expected = reference_send_btc(chain, keypair, output.address_id, output.value)
        try:
            tx = real_pay(chain, keypair, outputs, fee, spend)
        except TxRejected:
            seen.append((f"{kind}_rejected", expected, None))
            raise
        seen.append((kind if tx is not None else f"{kind}_no_funds", expected, tx))
        return tx

    monkeypatch.setattr(actors, "pay", recording_pay)
    for config in _runs():
        run_scenario(config)
    return seen


def test_every_wallet_spend_is_the_reference_builders_transaction(spends):
    for kind, expected, tx in spends:
        if kind.endswith("_rejected"):
            assert expected is not None, kind
            continue
        assert tx == expected, kind
        if tx is not None:
            assert tx.txid == expected.txid, kind
    kinds = {kind for kind, _, _ in spends}
    assert {"child", "child_no_funds", "carve", "repayment"} <= kinds, kinds
