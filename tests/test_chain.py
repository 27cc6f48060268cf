"""Ledger behavior: validation, mempool, mining, timelocks, and the
anchor-package fee rule checked against integer arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    key_address_id,
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
    assert sum(u.value for u in chain.utxos_at(b_addr)) == 998
    assert sum(u.value for u in chain.utxos_at(a_addr)) == 0
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


# -- ledger invariants over random histories ------------------------------------

WALLETS = [keypair(f"wallet-{i}") for i in range(3)]
HOLDERS = {key_address_id(kp.public): kp for kp in WALLETS}  # address -> its key
ADDRS = list(HOLDERS)
SEEDS_PER_WALLET = (2_000, 1_500)
ANCHOR_VALUE = 10

CHAIN_STEPS = st.lists(
    st.one_of(
        # (kind, payer, pick, payee, percent paid, fee, anchor output)
        st.tuples(
            st.just("pay"), st.integers(0, 2), st.integers(0, 99), st.integers(0, 2),
            st.integers(1, 99), st.integers(0, 16), st.booleans(),
        ),
        # (kind, pick of an unspent anchor, pick of the funding output, fee)
        st.tuples(st.just("cpfp"), st.integers(0, 99), st.integers(0, 99), st.integers(0, 24)),
        st.tuples(st.just("mine")),
    ),
    min_size=6,
    max_size=24,
)
FEE_STEPS = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 4)), max_size=3, unique_by=lambda s: s[0]
)


def unspent_outputs(chain, addr) -> list[Outpoint]:
    """Outputs at ``addr``, confirmed or in the mempool, that no
    transaction spends yet; anchors are left to CPFP children."""
    held = [op for op, u in chain.utxo_set.items() if u.address_id == addr]
    for tx in chain.mempool.values():
        held += [
            Outpoint(tx.txid, i) for i, out in enumerate(tx.outputs)
            if out.address_id == addr and i != tx.anchor_index
        ]
    return sorted((op for op in held if chain.spender(op) is None), key=str)


def signed(chain, inputs, outputs, anchor_index=None) -> SimTx:
    """A key-path spend of ``inputs``, each signed by its output's holder."""
    tx = SimTx([TxInput(op, "key") for op in inputs], outputs, anchor_index)
    for i, op in enumerate(inputs):
        utxo = chain.utxo_set.get(op)
        addr = utxo.address_id if utxo else chain.mempool[op.txid].outputs[op.index].address_id
        tx.inputs[i].witness = [sign_digest(HOLDERS[addr], tx.sighash(i))]
    return tx


def step_tx(chain, values, step) -> SimTx | None:
    """The transaction a ``pay`` or ``cpfp`` step submits, or None when
    the step does not fit the wallets' outputs."""
    if step[0] == "pay":
        _, payer, pick, payee, percent, fee, anchor = step
        owned = unspent_outputs(chain, ADDRS[payer])
        if not owned:
            return None
        op = owned[pick % len(owned)]
        paid = values[op] * percent // 100
        change = values[op] - paid - fee - (ANCHOR_VALUE if anchor else 0)
        if paid < 1 or change < 1:
            return None
        outputs = [TxOutput(ADDRS[payee], paid), TxOutput(ADDRS[payer], change)]
        if anchor:
            outputs.append(TxOutput(ADDRS[payer], ANCHOR_VALUE))
        return signed(chain, [op], outputs, 2 if anchor else None)
    _, pick, fund_pick, fee = step
    anchors = [
        Outpoint(tx.txid, tx.anchor_index) for tx in chain.mempool.values()
        if tx.anchor_index is not None and chain.spender(Outpoint(tx.txid, tx.anchor_index)) is None
    ]
    if not anchors:
        return None
    anchor = anchors[pick % len(anchors)]
    addr = chain.mempool[anchor.txid].outputs[anchor.index].address_id
    owned = unspent_outputs(chain, addr)
    if not owned:
        return None
    fund = owned[fund_pick % len(owned)]
    kept = values[anchor] + values[fund] - fee
    if kept < 1:
        return None
    return signed(chain, [anchor, fund], [TxOutput(addr, kept)])


def check_ledger(chain, values, seeded) -> None:
    fees = {
        txid: sum(values[inp.outpoint] for inp in tx.inputs) - tx.output_sum()
        for txid, tx in chain.tx_index.items()
    }
    # value conservation
    assert seeded == sum(u.value for u in chain.utxo_set.values()) + sum(fees.values())
    # one spender per confirmed input, and nothing both unspent and spent
    assert not chain.utxo_set.keys() & chain.spent_by.keys()
    for txid, tx in chain.tx_index.items():
        for inp in tx.inputs:
            assert chain.spent_by[inp.outpoint] == txid
    # spent outpoints in the order blocks spent them
    spent = [inp.outpoint for txid in chain.confirmed_at for inp in chain.tx_index[txid].inputs]
    assert list(chain.spent_by) == spent
    order = {txid: n for n, txid in enumerate(chain.confirmed_at)}
    for txid, tx in chain.tx_index.items():
        height = chain.confirmed_at[txid]
        # a parent confirms before its child
        for inp in tx.inputs:
            if inp.outpoint.txid in order:
                assert order[inp.outpoint.txid] < order[txid]
                assert chain.confirmed_at[inp.outpoint.txid] <= height
        # the feerate of its block, alone or as a same-block anchor package
        rate = chain.fee_schedule.at(height)
        if fees[txid] >= rate * tx.weight:
            continue
        pairs = []
        if tx.anchor_index is not None:
            child = chain.spent_by.get(Outpoint(txid, tx.anchor_index))
            pairs.append((tx, child and chain.tx_index[child]))
        parent = chain.tx_index.get(tx.inputs[0].outpoint.txid)
        if parent is not None and parent.anchor_index == tx.inputs[0].outpoint.index:
            pairs.append((parent, tx))
        assert any(
            child is not None
            and chain.confirmed_at[parent.txid] == chain.confirmed_at[child.txid] == height
            and fees[parent.txid] + fees[child.txid] >= rate * (parent.weight + child.weight)
            for parent, child in pairs
        ), txid
    # no mempool transaction spends a confirmed-spent outpoint
    for tx in chain.mempool.values():
        assert not any(inp.outpoint in chain.spent_by for inp in tx.inputs)


@settings(derandomize=True, deadline=None)
@given(base=st.integers(1, 3), fee_steps=FEE_STEPS, steps=CHAIN_STEPS)
def test_ledger_invariants_hold_over_random_payments_packages_and_blocks(base, fee_steps, steps):
    chain = fresh_chain(base, fee_steps)
    values: dict[Outpoint, int] = {}
    for kp in WALLETS:
        for value in SEEDS_PER_WALLET:
            utxo = chain.seed_utxo(chain.ensure_key_address(kp.public), value)
            values[utxo.outpoint] = value
    seeded = sum(values.values())
    for step in steps:
        if step[0] == "mine":
            chain.mine_block()
        else:
            tx = step_tx(chain, values, step)
            if tx is None:
                continue
            chain.submit_tx(tx)
            values.update((Outpoint(tx.txid, i), out.value) for i, out in enumerate(tx.outputs))
        check_ledger(chain, values, seeded)
