"""Ledger behavior: validation, mempool, mining, timelocks, and the
anchor-package fee rule checked against integer arithmetic."""

import random

import pytest

from bsa_sim.chain import (
    BadSignature,
    BtcChain,
    DoubleSpend,
    InvalidValue,
    MalformedWitness,
    Outpoint,
    SighashFlag,
    SimTx,
    StepSchedule,
    TimelockNotExpired,
    TxInput,
    TxOutput,
    TxRejected,
    UnknownInput,
    UnknownPath,
    verify_spend,
)
from bsa_sim.keys import (
    ProtocolAddress,
    SingleAfterDelay,
    SpendPath,
    TwoOfTwo,
    keypair_from_seed,
    sign_digest,
    taproot_output_key,
)
from bsa_sim.curve import generator_mul


def keypair(name: str):
    return keypair_from_seed(name.encode())


def fresh_chain(base_rate=1, steps=()):
    return BtcChain(StepSchedule(base_rate, steps))


def key_spend(chain, utxo, outputs, kp, flag=SighashFlag.ALL):
    tx = SimTx(
        inputs=[TxInput(utxo.outpoint, "key", flag)],
        outputs=outputs,
    )
    tx.inputs[0].witness = [sign_digest(kp, tx.sighash(0))]
    return tx


def script_address(kind, leaves):
    internal = generator_mul(999)
    output_key, root = taproot_output_key(internal, leaves)
    return ProtocolAddress(kind, internal, leaves, root, output_key)


# -- basic validation ---------------------------------------------------------


def test_key_spend_round_trip():
    chain = fresh_chain()
    alice, bob = keypair("alice"), keypair("bob")
    a_addr = chain.ensure_key_address(alice.public)
    b_addr = chain.ensure_key_address(bob.public)
    utxo = chain.seed_utxo(a_addr, 1_000)

    tx = key_spend(chain, utxo, [TxOutput(b_addr, 998)], alice)
    chain.submit_tx(tx)
    assert tx.txid in chain.mempool
    mined = chain.mine_block()
    assert tx.txid in mined
    assert chain.balance_of(b_addr) == 998
    assert chain.balance_of(a_addr) == 0
    assert chain.spent_by[utxo.outpoint] == tx.txid
    assert chain.confirmed_at == {tx.txid: 1}


def test_rejects_wrong_signature():
    chain = fresh_chain()
    alice, mallory = keypair("alice2"), keypair("mallory")
    a_addr = chain.ensure_key_address(alice.public)
    utxo = chain.seed_utxo(a_addr, 500)
    tx = key_spend(chain, utxo, [TxOutput(a_addr, 499)], mallory)
    with pytest.raises(BadSignature):
        chain.submit_tx(tx)


def test_rejects_value_inflation():
    chain = fresh_chain()
    alice = keypair("alice3")
    a_addr = chain.ensure_key_address(alice.public)
    utxo = chain.seed_utxo(a_addr, 500)
    tx = key_spend(chain, utxo, [TxOutput(a_addr, 501)], alice)
    with pytest.raises(InvalidValue):
        chain.submit_tx(tx)


def test_rejects_unknown_input_and_double_spend():
    chain = fresh_chain()
    alice = keypair("alice4")
    a_addr = chain.ensure_key_address(alice.public)
    utxo = chain.seed_utxo(a_addr, 500)

    ghost = SimTx(
        inputs=[TxInput(Outpoint("00" * 32, 0), "key")],
        outputs=[TxOutput(a_addr, 1)],
    )
    with pytest.raises(UnknownInput):
        chain.submit_tx(ghost)

    first = key_spend(chain, utxo, [TxOutput(a_addr, 498)], alice)
    chain.submit_tx(first)
    second = key_spend(chain, utxo, [TxOutput(a_addr, 497)], alice)
    with pytest.raises(DoubleSpend):
        chain.submit_tx(second)
    chain.mine_block()
    with pytest.raises((DoubleSpend, TxRejected)):
        chain.submit_tx(second)


def test_spender_is_confirmed_else_pending_else_none():
    chain = fresh_chain()
    kp = keypair("spender")
    addr = chain.ensure_key_address(kp.public)
    utxo = chain.seed_utxo(addr, 500)
    assert chain.spender(utxo.outpoint) is None

    first = key_spend(chain, utxo, [TxOutput(addr, 498)], kp)
    chain.submit_tx(first)
    assert chain.spender(utxo.outpoint) is first  # pending in the mempool
    chain.mine_block()
    assert chain.spender(utxo.outpoint) is first  # confirmed
    assert chain.spender(Outpoint(first.txid, 0)) is None

    change = chain.utxo_set[Outpoint(first.txid, 0)]
    second = key_spend(chain, change, [TxOutput(addr, 496)], kp)
    chain.submit_tx(second)
    assert chain.spender(Outpoint(first.txid, 0)) is second
    assert chain.spender(utxo.outpoint) is first


def test_two_of_two_path_needs_both_signatures_in_order():
    chain = fresh_chain()
    a, b = keypair("pa"), keypair("pb")
    addr = script_address("VA", (SpendPath("dep_to", TwoOfTwo(a.public, b.public)),))
    chain.register_address(addr)
    dest = chain.ensure_key_address(a.public)
    utxo = chain.seed_utxo(addr.address_id, 400)

    tx = SimTx(
        inputs=[TxInput(utxo.outpoint, "dep_to")],
        outputs=[TxOutput(dest, 398)],
    )
    digest = tx.sighash(0)
    tx.inputs[0].witness = [sign_digest(a, digest)]
    with pytest.raises(MalformedWitness):
        chain.submit_tx(tx)
    # wrong order: witness zips positionally with the leaf's key list
    tx.inputs[0].witness = [sign_digest(b, digest), sign_digest(a, digest)]
    with pytest.raises(BadSignature):
        chain.submit_tx(tx)
    tx.inputs[0].witness = [sign_digest(a, digest), sign_digest(b, digest)]
    chain.submit_tx(tx)
    assert tx.txid in chain.mine_block()


def test_unknown_path_rejected():
    chain = fresh_chain()
    a, b = keypair("qa"), keypair("qb")
    addr = script_address("VA", (SpendPath("dep_to", TwoOfTwo(a.public, b.public)),))
    chain.register_address(addr)
    utxo = chain.seed_utxo(addr.address_id, 400)
    dest = chain.ensure_key_address(a.public)
    tx = SimTx(
        inputs=[TxInput(utxo.outpoint, "no_such_path")],
        outputs=[TxOutput(dest, 399)],
    )
    tx.inputs[0].witness = [sign_digest(a, tx.sighash(0))]
    with pytest.raises(TxRejected):
        chain.submit_tx(tx)


def _raised(call):
    try:
        call()
    except TxRejected as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "source, path, signers, admission, verify",
    [
        ("script", "no_such_path", "a", UnknownPath, UnknownPath),
        ("key", "dep_to", "a", UnknownPath, UnknownPath),
        ("key", "key", "aa", MalformedWitness, MalformedWitness),
        ("script", "dep_to", "a", MalformedWitness, MalformedWitness),
        ("script", "dep_delay", "aa", MalformedWitness, MalformedWitness),
        ("key", "key", "b", BadSignature, BadSignature),
        ("script", "dep_to", "ba", BadSignature, BadSignature),
        ("script", "dep_delay", "a", None, TimelockNotExpired),
    ],
    ids=[
        "unknown-leaf",
        "leaf-path-on-key-address",
        "key-arity",
        "two-of-two-arity",
        "delay-arity",
        "key-wrong-signature",
        "two-of-two-wrong-order",
        "delay-immature",
    ],
)
def test_admission_and_verify_spend_share_one_checker(source, path, signers, admission, verify):
    """``submit_tx`` and ``verify_spend`` reject the same input with the
    same class; only ``verify_spend`` checks the relative timelock."""
    chain = fresh_chain()
    signer = {"a": keypair("chk-a"), "b": keypair("chk-b")}
    addr = script_address(
        "UTA",
        (
            SpendPath("dep_to", TwoOfTwo(signer["a"].public, signer["b"].public)),
            SpendPath("dep_delay", SingleAfterDelay(signer["a"].public, 3)),
        ),
    )
    chain.register_address(addr)
    key_addr = chain.ensure_key_address(signer["a"].public)
    utxo = chain.seed_utxo(key_addr if source == "key" else addr.address_id, 400)
    tx = SimTx(inputs=[TxInput(utxo.outpoint, path)], outputs=[TxOutput(key_addr, 399)])
    tx.inputs[0].witness = [sign_digest(signer[name], tx.sighash(0)) for name in signers]

    assert _raised(lambda: verify_spend(tx, chain)) is verify
    assert _raised(lambda: chain.submit_tx(tx)) is admission


# -- timelocks ----------------------------------------------------------------


def test_delay_path_matures_at_exact_height():
    delay = 4
    chain = fresh_chain()
    owner = keypair("delayed")
    addr = script_address("UTA", (SpendPath("dep_delay", SingleAfterDelay(owner.public, delay)),))
    chain.register_address(addr)
    dest = chain.ensure_key_address(owner.public)

    # confirm the funding at height 1 through a real spend
    src = chain.ensure_key_address(keypair("src").public)
    funding_utxo = chain.seed_utxo(src, 600)
    funding = key_spend(chain, funding_utxo, [TxOutput(addr.address_id, 598)], keypair("src"))
    chain.submit_tx(funding)
    chain.mine_block()
    conf = chain.height

    claim = SimTx(
        inputs=[TxInput(Outpoint(funding.txid, 0), "dep_delay")],
        outputs=[TxOutput(dest, 596)],
    )
    claim.inputs[0].witness = [sign_digest(owner, claim.sighash(0))]
    chain.submit_tx(claim)  # accepted early, matures in the mempool

    while chain.height < conf + delay - 1:
        assert claim.txid not in chain.mine_block()
    mined = chain.mine_block()
    assert claim.txid in mined
    assert chain.height == conf + delay


def test_timelock_checked_even_for_same_block_parent():
    delay = 2
    chain = fresh_chain()
    owner = keypair("sameblock")
    addr = script_address("UTA", (SpendPath("dep_delay", SingleAfterDelay(owner.public, delay)),))
    chain.register_address(addr)
    dest = chain.ensure_key_address(owner.public)
    src_kp = keypair("src2")
    src = chain.ensure_key_address(src_kp.public)
    utxo = chain.seed_utxo(src, 600)
    funding = key_spend(chain, utxo, [TxOutput(addr.address_id, 598)], src_kp)
    chain.submit_tx(funding)

    claim = SimTx(
        inputs=[TxInput(Outpoint(funding.txid, 0), "dep_delay")],
        outputs=[TxOutput(dest, 596)],
    )
    claim.inputs[0].witness = [sign_digest(owner, claim.sighash(0))]
    chain.submit_tx(claim)
    mined = chain.mine_block()
    assert funding.txid in mined and claim.txid not in mined


# -- fee schedule and mining --------------------------------------------------


def test_fee_schedule_steps():
    sched = StepSchedule(1, [(30, 1), (20, 3)])
    assert sched.steps == ((20, 3), (30, 1))  # sorted once, when built
    assert sched.at(1) == 1
    assert sched.at(19) == 1
    assert sched.at(20) == 3
    assert sched.at(29) == 3
    assert sched.at(30) == 1
    assert sched.largest() == 3


def test_underpaying_tx_waits_for_cheaper_blocks():
    chain = fresh_chain(base_rate=3, steps=[(3, 1)])
    kp = keypair("fees")
    addr = chain.ensure_key_address(kp.public)
    utxo = chain.seed_utxo(addr, 100)
    # weight 2, fee 2: below rate 3*2, meets rate 1*2 from height 3
    tx = key_spend(chain, utxo, [TxOutput(addr, 98)], kp)
    chain.submit_tx(tx)
    assert tx.txid not in chain.mine_block()
    assert tx.txid not in chain.mine_block()
    assert tx.txid in chain.mine_block()


def test_exact_fee_boundary_confirms():
    chain = fresh_chain(base_rate=2)
    kp = keypair("boundary")
    addr = chain.ensure_key_address(kp.public)
    utxo = chain.seed_utxo(addr, 100)
    tx = key_spend(chain, utxo, [TxOutput(addr, 96)], kp)  # fee 4 == 2*weight 2
    chain.submit_tx(tx)
    assert tx.txid in chain.mine_block()


def test_same_block_parent_child_confirmation():
    chain = fresh_chain(base_rate=1)
    kp = keypair("chain")
    addr = chain.ensure_key_address(kp.public)
    utxo = chain.seed_utxo(addr, 100)
    parent = key_spend(chain, utxo, [TxOutput(addr, 90), TxOutput(addr, 7)], kp)
    chain.submit_tx(parent)
    child_in = TxInput(Outpoint(parent.txid, 0), "key")
    child = SimTx(inputs=[child_in], outputs=[TxOutput(addr, 87)])
    child.inputs[0].witness = [sign_digest(kp, child.sighash(0))]
    chain.submit_tx(child)
    mined = chain.mine_block()
    assert parent.txid in mined and child.txid in mined


def test_conflicting_mempool_tx_evicted_after_confirm():
    chain = fresh_chain()
    kp = keypair("evict")
    addr = chain.ensure_key_address(kp.public)
    u1 = chain.seed_utxo(addr, 100)
    u2 = chain.seed_utxo(addr, 100)
    good = key_spend(chain, u1, [TxOutput(addr, 98)], kp)
    chain.submit_tx(good)
    # second tx spends u2 plus the same u1 through a direct mempool insert
    rival = SimTx(
        inputs=[TxInput(u2.outpoint, "key"), TxInput(u1.outpoint, "key")],
        outputs=[TxOutput(addr, 100)],
    )
    rival.inputs[0].witness = [sign_digest(kp, rival.sighash(0))]
    rival.inputs[1].witness = [sign_digest(kp, rival.sighash(1))]
    chain.mempool[rival.txid] = rival
    chain.mempool_arrival[rival.txid] = chain.height
    mined = chain.mine_block()
    assert good.txid in mined
    assert rival.txid not in chain.mempool


# -- anchor packages ----------------------------------------------------------


def build_anchor_package(chain, kp, addr, parent_fee, child_fee):
    """Parent with a 100-sat anchor output, child spending anchor + a
    fresh fee utxo; returns (parent, child)."""
    src = chain.seed_utxo(addr, 1_000)
    keep = 1_000 - parent_fee - 100
    parent = SimTx(
        inputs=[TxInput(src.outpoint, "key")],
        outputs=[TxOutput(addr, keep), TxOutput(addr, 100)],
        anchor_index=1,
    )
    parent.inputs[0].witness = [sign_digest(kp, parent.sighash(0))]
    chain.submit_tx(parent)

    fund = chain.seed_utxo(addr, 500)
    child_keep = 500 + 100 - child_fee
    child = SimTx(
        inputs=[
            TxInput(Outpoint(parent.txid, 1), "key"),
            TxInput(fund.outpoint, "key"),
        ],
        outputs=[TxOutput(addr, child_keep)],
    )
    child.inputs[0].witness = [sign_digest(kp, child.sighash(0))]
    child.inputs[1].witness = [sign_digest(kp, child.sighash(1))]
    chain.submit_tx(child)
    return parent, child


@pytest.mark.parametrize("rate", [1, 2, 3])
def test_package_confirms_iff_combined_fee_covers_combined_weight(rate):
    kp = keypair("package")
    rng = random.Random(rate)
    for _ in range(25):
        parent_fee = rng.randrange(0, 3 * rate + 2)
        child_fee = rng.randrange(0, 6 * rate + 6)
        chain = fresh_chain(base_rate=rate)
        addr = chain.ensure_key_address(kp.public)
        parent, child = build_anchor_package(chain, kp, addr, parent_fee, child_fee)
        mined = set(chain.mine_block())

        parent_alone = parent_fee >= rate * parent.weight
        package = parent_fee + child_fee >= rate * (parent.weight + child.weight)
        child_alone_after = child_fee >= rate * child.weight
        if parent_alone:
            # a self-sufficient parent never subsidizes its child
            expect_parent, expect_child = True, child_alone_after
        else:
            expect_parent = expect_child = package
        assert (parent.txid in mined) == expect_parent, (parent_fee, child_fee)
        assert (child.txid in mined) == expect_child, (parent_fee, child_fee)


def test_self_sufficient_parent_does_not_carry_underpaying_child():
    # combined feerate passes (4+2 >= 1*(3+3)) but the parent qualifies
    # alone, so the child is judged on its own fee and stays out
    kp = keypair("no-free-ride")
    chain = fresh_chain(base_rate=1)
    addr = chain.ensure_key_address(kp.public)
    parent, child = build_anchor_package(chain, kp, addr, parent_fee=4, child_fee=2)
    mined = set(chain.mine_block())
    assert parent.txid in mined
    assert child.txid not in mined


def test_confirmed_at_records_package_block_in_order():
    kp = keypair("confirmed-at")
    chain = fresh_chain(base_rate=1)
    addr = chain.ensure_key_address(kp.public)
    chain.mine_block()
    # the parent alone underpays, the package covers both weights
    parent, child = build_anchor_package(chain, kp, addr, parent_fee=1, child_fee=8)
    mined = chain.mine_block()
    assert mined == [parent.txid, child.txid]
    assert list(chain.confirmed_at.items()) == [(txid, 2) for txid in mined]
    assert chain.spender(Outpoint(parent.txid, 1)) is child


def test_verify_spend_helper():
    chain = fresh_chain()
    kp = keypair("verify")
    addr = chain.ensure_key_address(kp.public)
    utxo = chain.seed_utxo(addr, 100)
    tx = key_spend(chain, utxo, [TxOutput(addr, 99)], kp)
    assert verify_spend(tx, chain)
    tx.inputs[0].witness = [b"\x00" * 32]
    with pytest.raises(BadSignature):
        verify_spend(tx, chain)
