"""Address derivation checked against independent recomputation, plus
signature behavior and frozen golden vectors."""

import dataclasses
import hashlib
import itertools
import random
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsa_sim import curve, keys
from bsa_sim.curve import (
    N,
    NUMS_BASE,
    P,
    CurveError,
    decode_point,
    generator_mul,
    point_add,
    point_mul,
)
from bsa_sim.keys import (
    ADDRESS_KINDS,
    MAX_ORACLES,
    InvalidScalar,
    Keypair,
    SingleAfterDelay,
    SpendPath,
    TweakData,
    TwoOfTwo,
    build_protocol_addresses,
    derive_nums_point,
    key_address_id,
    keypair_from_secret,
    keypair_from_seed,
    merkle_root,
    sign_digest,
    verify_signature,
    verify_signatures,
)

from test_curve import combs_for

GOLDEN = Path(__file__).parent / "golden" / "addresses.txt"


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def make_tweak_data(seed: str = "alpha", n_oracles: int = 3, t1: int = 6, t2: int = 10):
    dep = keypair_from_seed(f"{seed}-dep".encode())
    to = keypair_from_seed(f"{seed}-to".encode())
    aos = tuple(keypair_from_seed(f"{seed}-ao-{i}".encode()).public for i in range(n_oracles))
    return TweakData(
        dep_pk=dep.public,
        to_pk=to.public,
        ao_pks=aos,
        t1=t1,
        t2=t2,
        destination_chain_address=f"acct:{seed}".encode(),
        return_address=key_address_id(dep.public).encode(),
    )


# -- signatures --------------------------------------------------------------


def test_schnorr_round_trip():
    kp = keypair_from_seed(b"signer")
    digest = sha(b"message")
    sig = sign_digest(kp, digest)
    assert verify_signature(kp.public, digest, sig)
    assert not verify_signature(kp.public, sha(b"other"), sig)


def test_schnorr_rejects_wrong_key():
    a = keypair_from_seed(b"a")
    b = keypair_from_seed(b"b")
    digest = sha(b"payload")
    assert not verify_signature(b.public, digest, sign_digest(a, digest))


def test_schnorr_deterministic():
    kp = keypair_from_seed(b"det")
    digest = sha(b"x")
    assert sign_digest(kp, digest) == sign_digest(kp, digest)
    assert keypair_from_seed(b"det").secret == kp.secret


def test_keypair_from_secret_matches_seed_derivation():
    kp = keypair_from_seed(b"restore-me")
    again = keypair_from_secret(kp.secret)
    assert again.public == kp.public
    digest = sha(b"still works")
    assert verify_signature(again.public, digest, sign_digest(again, digest))


def test_schnorr_rejects_out_of_range_secret():
    with pytest.raises(InvalidScalar):
        keypair_from_secret(0)
    with pytest.raises(InvalidScalar):
        keypair_from_secret(N)


@pytest.mark.parametrize(
    "malform",
    [
        pytest.param(lambda sig: sig[:32], id="short"),
        pytest.param(lambda sig: b"\x04" + sig[1:], id="r-prefix-04"),
        pytest.param(lambda sig: b"\x02" + (5).to_bytes(32, "big") + sig[33:], id="r-off-curve"),
        pytest.param(lambda sig: sig[:33] + N.to_bytes(32, "big"), id="s-equals-n"),
    ],
)
def test_malformed_signature_never_verifies(malform):
    kp = keypair_from_seed(b"s")
    digest = sha(b"short")
    sig = sign_digest(kp, digest)
    assert verify_signature(kp.public, digest, sig)
    assert verify_signature(kp.public, digest, malform(sig)) is False


def test_cached_schnorr_verdict_covers_only_its_own_triple():
    kp = keypair_from_seed(b"memo-signer")
    other = keypair_from_seed(b"memo-other")
    digest = sha(b"memo message")
    sig = sign_digest(kp, digest)
    assert verify_signature(kp.public, digest, sig)
    hits = verify_signature.cache_info().hits
    assert verify_signature(kp.public, digest, sig)
    assert verify_signature.cache_info().hits == hits + 1
    for _ in range(2):  # the second pass is answered from the memo
        assert not verify_signature(kp.public, sha(b"other message"), sig)
        assert not verify_signature(other.public, digest, sig)
        for i in (0, 1, 32, 33, 64):
            flipped = sig[:i] + bytes([sig[i] ^ 1]) + sig[i + 1:]
            assert not verify_signature(kp.public, digest, flipped)


def decode_based_verify(public, digest, sig):
    """Reference check: decode R in full, then compare it with s*G - e*P
    computed as two multiplications and an addition."""
    if len(sig) != 65:
        return False
    try:
        r_point = decode_point(sig[:33])
    except CurveError:
        return False
    s = int.from_bytes(sig[33:], "big")
    if s >= N:
        return False
    e = int.from_bytes(sha(b"challenge" + sig[:33] + public.compressed() + digest), "big") % N
    check = point_add(generator_mul(s), point_mul(public, N - e))
    return check is not None and check == r_point


def sign_for_other_parity(kp, digest):
    """A signature made for R's x under the other prefix: the challenge
    hashes that encoding, so s*G - e*P is R itself, whose y has the parity
    the prefix denies.  Only the parity comparison rejects it."""
    k = int.from_bytes(sha(b"other parity" + digest), "big") % N or 1
    r_point = generator_mul(k)
    encoded = bytes([3 - r_point.y % 2]) + r_point.x.to_bytes(32, "big")
    e = int.from_bytes(sha(b"challenge" + encoded + kp.public.compressed() + digest), "big") % N
    return encoded + ((k + e * kp.secret) % N).to_bytes(32, "big")


def _with_x(sig, x):
    return sig[:1] + x.to_bytes(32, "big") + sig[33:]


def _with_s(sig, s):
    return sig[:33] + s.to_bytes(32, "big")


SIGNATURE_MUTATIONS = {
    "flipped-prefix": lambda sig: bytes([sig[0] ^ 1]) + sig[1:],
    "prefix-04": lambda sig: b"\x04" + sig[1:],
    "x-zero": lambda sig: _with_x(sig, 0),
    "x-p": lambda sig: _with_x(sig, P),
    "x-max": lambda sig: _with_x(sig, 2**256 - 1),
    "x-off-curve": lambda sig: _with_x(sig, 5),
    "s-zero": lambda sig: _with_s(sig, 0),
    "s-n-minus-1": lambda sig: _with_s(sig, N - 1),
    "s-n": lambda sig: _with_s(sig, N),
}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    secret=st.integers(min_value=1, max_value=N - 1),
    other=st.integers(min_value=1, max_value=N - 1),
    digest=st.binary(min_size=32, max_size=32),
)
def test_one_pass_verify_agrees_with_decoding_r(secret, other, digest):
    kp = keypair_from_secret(secret)
    sig = sign_digest(kp, digest)
    cases = {
        "valid": (kp.public, digest, sig),
        "wrong-key": (keypair_from_secret(other).public, digest, sig),
        "wrong-digest": (kp.public, sha(digest), sig),
        "other-parity": (kp.public, digest, sign_for_other_parity(kp, digest)),
    }
    for name, mutate in SIGNATURE_MUTATIONS.items():
        cases[name] = (kp.public, digest, mutate(sig))
    verdicts = {name: verify_signature.__wrapped__(*case) for name, case in cases.items()}
    assert verdicts == {name: decode_based_verify(*case) for name, case in cases.items()}
    assert verdicts["valid"] and not verdicts["other-parity"]


# Ways to spoil one (public, digest, sig) triple of a batch.
BATCH_CORRUPTIONS = {
    "flipped-s": lambda pk, digest, sig: (pk, digest, sig[:64] + bytes([sig[64] ^ 1])),
    "wrong-digest": lambda pk, digest, sig: (pk, sha(digest), sig),
    "flipped-prefix": lambda pk, digest, sig: (pk, digest, bytes([sig[0] ^ 1]) + sig[1:]),
    "x-off-curve": lambda pk, digest, sig: (pk, digest, _with_x(sig, 5)),
    "s-at-least-n": lambda pk, digest, sig: (pk, digest, _with_s(sig, N)),
    "64-bytes": lambda pk, digest, sig: (pk, digest, sig[:64]),
}
BATCH_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which key signs
        st.binary(min_size=32, max_size=32),
        st.sampled_from([None, *BATCH_CORRUPTIONS]),
    ),
    min_size=1,
    max_size=6,
)
ONE_KEY = [0xB47C4]
VALID_ROW = (0, b"\x11" * 32, None)


def _each_corruption_first_and_later(test):
    """One example per corruption on the first triple, whose R is compared
    and never decoded, and one on a later triple, whose R is decoded."""
    for name in BATCH_CORRUPTIONS:
        spoiled = (0, b"\x22" * 32, name)
        test = example(secrets=ONE_KEY, rows=[spoiled, VALID_ROW])(test)
        test = example(secrets=ONE_KEY, rows=[VALID_ROW, spoiled])(test)
    return test


@settings(derandomize=True, max_examples=40, deadline=None)
@given(secrets=st.lists(st.integers(min_value=1, max_value=N - 1), min_size=1, max_size=3), rows=BATCH_ROWS)
@example(secrets=ONE_KEY, rows=[VALID_ROW] * 6)
@example(secrets=ONE_KEY, rows=[(0, bytes([i]) * 32, None) for i in range(6)])
@example(secrets=[5, 7], rows=[(i % 2, bytes([i]) * 32, None) for i in range(5)])
@_each_corruption_first_and_later
def test_batch_verify_agrees_with_single_checks(secrets, rows):
    kps = [keypair_from_secret(secret) for secret in secrets]
    triples = []
    for key_index, digest, corruption in rows:
        kp = kps[key_index % len(kps)]
        triple = (kp.public, digest, sign_digest(kp, digest))
        if corruption is not None:
            triple = BATCH_CORRUPTIONS[corruption](*triple)
        triples.append(triple)
    triples = tuple(triples)
    singles = [verify_signature.__wrapped__(*triple) for triple in triples]
    expected = all(singles)
    assert verify_signatures.__wrapped__(triples) is expected
    assert verify_signatures(triples) is expected
    # A key's comb changes what a check costs, never its verdict.
    with combs_for(kp.public for kp in kps):
        assert [verify_signature.__wrapped__(*triple) for triple in triples] == singles
        assert verify_signatures.__wrapped__(triples) is expected


def test_a_key_earns_its_comb_at_its_comb_after_th_single_check():
    kp = keypair_from_seed(b"comb-policy")
    digests = [sha(b"comb-policy-%d" % i) for i in range(curve.COMB_AFTER)]
    triples = [(kp.public, digest, sign_digest(kp, digest)) for digest in digests]
    with combs_for(()):
        # A batch keeps the doublings for its nonces, so it never counts.
        for _ in range(curve.COMB_AFTER):
            assert verify_signatures.__wrapped__(tuple(triples[:2]))
        assert not curve._check_counts and not curve._combs
        for count, triple in enumerate(triples[:-1], 1):
            assert verify_signature.__wrapped__(*triple)
            assert curve._check_counts[kp.public] == count
            assert not curve._combs
        assert verify_signature.__wrapped__(*triples[-1])
        assert list(curve._combs) == [kp.public]
        assert kp.public not in curve._check_counts
        # From then on the key's checks read its comb and count nothing.
        assert verify_signature.__wrapped__(*triples[0])
        assert verify_signatures.__wrapped__(tuple(triples[:2]))
        assert not curve._check_counts and list(curve._combs) == [kp.public]


def test_the_comb_memos_stay_within_their_bounds():
    points = [generator_mul(i) for i in range(2, curve.COMB_CACHE_SIZE + 4)]
    with combs_for(()):
        for pt in points:
            for _ in range(curve.COMB_AFTER):
                curve.multi_mul_add(1, [(pt, 3)])
            assert len(curve._combs) <= curve.COMB_CACHE_SIZE
            curve.multi_mul_add(1, [(points[0], 3)])  # the first comb stays in use
        # the least recently used combs went: points[1] and points[2]
        assert list(curve._combs) == [*points[3:], points[0]]
        for i in range(curve.CHECK_COUNT_SIZE + 3):
            curve.multi_mul_add(1, [(generator_mul(1000 + i), 3)])
            assert len(curve._check_counts) <= curve.CHECK_COUNT_SIZE
        assert generator_mul(1000) not in curve._check_counts
        assert generator_mul(1000 + curve.CHECK_COUNT_SIZE + 2) in curve._check_counts


def test_empty_batch_verifies_nothing():
    assert verify_signatures(()) is False


def test_batch_nonce_points_leave_the_decode_memo_alone():
    # Each nonce point is seen once, so caching it would only evict the
    # public keys that snapshot imports decode again.
    kp = keypair_from_seed(b"nonce-memo")
    digests = [sha(b"nonce-memo-%d" % i) for i in range(4)]
    triples = tuple((kp.public, d, sign_digest(kp, d)) for d in digests)
    before = decode_point.cache_info()
    assert verify_signatures(triples) is True
    assert decode_point.cache_info() == before


def test_keypair_memo_returns_one_object_per_seed():
    kp = keypair_from_seed(b"memo-keypair")
    assert keypair_from_seed(b"memo-keypair") is kp
    assert keypair_from_seed.__wrapped__(b"memo-keypair") == kp  # fresh derivation
    other = keypair_from_seed(b"memo-keypair-2")
    assert other.secret != kp.secret and other.public != kp.public


def test_sign_memo_returns_one_object_per_keypair_and_digest():
    kp = keypair_from_seed(b"sign-memo")
    digest = sha(b"sign memo")
    sig = sign_digest(kp, digest)
    assert sign_digest(kp, digest) is sig
    assert sign_digest(Keypair(kp.secret, kp.public), digest) is sig  # equal key, same entry
    assert sign_digest.__wrapped__(kp, digest) == sig  # fresh signing agrees


def test_sign_memo_signs_a_changed_digest_afresh():
    kp = keypair_from_seed(b"sign-memo-digest")
    digest = sha(b"sign memo digest")
    sig = sign_digest(kp, digest)
    for i in (0, 31):
        changed = digest[:i] + bytes([digest[i] ^ 1]) + digest[i + 1:]
        fresh = sign_digest(kp, changed)
        assert fresh != sig
        assert fresh == sign_digest.__wrapped__(kp, changed)
        assert verify_signature(kp.public, changed, fresh)


def test_sign_memo_keys_on_the_public_half_too():
    kp = keypair_from_seed(b"sign-memo-pair")
    other = keypair_from_seed(b"sign-memo-other")
    mismatched = Keypair(kp.secret, other.public)
    digest = sha(b"sign memo pair")
    sig = sign_digest(kp, digest)
    misses = sign_digest.cache_info().misses
    wrong = sign_digest(mismatched, digest)
    assert sign_digest.cache_info().misses == misses + 1  # its own entry
    assert wrong != sig
    assert wrong == sign_digest.__wrapped__(mismatched, digest)
    assert sign_digest(kp, digest) is sig
    assert not verify_signature(other.public, digest, wrong)


def test_sign_rejects_out_of_range_secret_on_every_call():
    public = keypair_from_seed(b"sign-range").public
    digest = sha(b"sign range")
    before = sign_digest.cache_info()
    for secret in (0, N):
        for _ in range(2):
            with pytest.raises(InvalidScalar):
                sign_digest(Keypair(secret, public), digest)
    after = sign_digest.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


def test_every_memo_is_bounded():
    # An unbounded cache grows with the run; every memo in the curve and key
    # layers is an LRU of the size its module names, and these are all of them.
    memos = {
        name: obj.cache_info().maxsize
        for module in (curve, keys)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert memos == {
        "decode_point": curve.DECODE_CACHE_SIZE,
        "keypair_from_seed": keys.KEYPAIR_CACHE_SIZE,
        "sign_digest": keys.SIGN_CACHE_SIZE,
        "verify_signature": keys.VERIFY_CACHE_SIZE,
        "verify_signatures": keys.BATCH_VERIFY_CACHE_SIZE,
        "build_protocol_addresses": keys.ADDRESS_CACHE_SIZE,
    }  # an unbounded memo reports maxsize None and fails here
    # The comb memo and the check counts are OrderedDicts that the comb
    # policy trims to these bounds; test_the_comb_memos_stay_within_their_bounds
    # fills both past them.
    trimmed = {
        name: len(obj)
        for module in (curve, keys)
        for name, obj in vars(module).items()
        if isinstance(obj, OrderedDict)
    }
    bounds = {"_combs": curve.COMB_CACHE_SIZE, "_check_counts": curve.CHECK_COUNT_SIZE}
    assert trimmed.keys() == bounds.keys()
    assert all(trimmed[name] <= bound for name, bound in bounds.items())


def test_signatures_match_fixed_vectors():
    # Deterministic nonces make signatures reproducible; these bytes pin
    # signing against any change in how a signature is made.
    expected = (
        "03561cf0f6b5f703afaef9dc306927d59b67283a299e94f6a625827990d40e95ac"
        "1afd0bf5d2a0fc932e7ed224cd2d63c6b5e67df3c02a3b8acf359de02f829da7"
    )
    kp = keypair_from_seed(b"signing-vector")
    digest = sha(b"signing vector")
    sig = sign_digest(kp, digest)
    assert sig.hex() == expected
    assert verify_signature(kp.public, digest, sig)


# -- internal key derivation -------------------------------------------------


def test_internal_key_matches_independent_recomputation():
    td = make_tweak_data("internal")
    for kind in ADDRESS_KINDS:
        r = int.from_bytes(sha(kind.encode() + td.serialize()), "big") % N
        expected = point_add(NUMS_BASE, generator_mul(r))
        assert derive_nums_point(kind, td) == expected


def test_internal_keys_distinct_per_kind():
    td = make_tweak_data("kinds")
    points = {derive_nums_point(kind, td).compressed() for kind in ADDRESS_KINDS}
    assert len(points) == 4


def test_serialize_is_injective_on_field_order():
    # swapping two equal-length byte fields must change the serialization
    td = make_tweak_data("swap")
    swapped = TweakData(
        dep_pk=td.to_pk,
        to_pk=td.dep_pk,
        ao_pks=td.ao_pks,
        t1=td.t1,
        t2=td.t2,
        destination_chain_address=td.destination_chain_address,
        return_address=td.return_address,
    )
    assert td.serialize() != swapped.serialize()


def test_tweak_data_bounds_the_oracle_count_by_its_two_bytes():
    # one key repeated: only the count is under test, no oracle is derived
    td = make_tweak_data("count", n_oracles=1)
    widest = dataclasses.replace(td, ao_pks=td.ao_pks * MAX_ORACLES)
    count_at = 2 * (4 + 33)  # after dep_pk and to_pk, each with a 4-byte length
    assert widest.serialize()[count_at:count_at + 2] == b"\xff\xff"
    for count in (0, MAX_ORACLES + 1):
        with pytest.raises(ValueError):
            dataclasses.replace(td, ao_pks=td.ao_pks * count)


# -- script tree -------------------------------------------------------------


def _leaves(n, seed="leaf"):
    kp = keypair_from_seed(seed.encode())
    out = []
    for i in range(n):
        out.append(SpendPath(f"p{i}", SingleAfterDelay(kp.public, i + 1)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_merkle_root_permutation_invariant(n):
    leaves = _leaves(n)
    digests = [leaf.leaf_digest() for leaf in leaves]
    roots = {merkle_root(list(perm)) for perm in itertools.permutations(digests)}
    assert len(roots) == 1


def test_merkle_root_two_leaves_reference():
    a, b = (leaf.leaf_digest() for leaf in _leaves(2))
    left, right = sorted((a, b))
    assert merkle_root([a, b]) == sha(b"branch" + left + right)


def test_leaf_digest_reference():
    leaf = SpendPath("x", TwoOfTwo(generator_mul(5), generator_mul(7)))
    assert leaf.leaf_digest() == sha(b"leaf" + leaf.policy.encode())


def test_policy_encodings_differ():
    key = generator_mul(11)
    other = generator_mul(12)
    encodings = {
        TwoOfTwo(key, other).encode(),
        TwoOfTwo(other, key).encode(),
        SingleAfterDelay(key, 6).encode(),
        SingleAfterDelay(key, 7).encode(),
    }
    assert len(encodings) == 4


def test_output_key_matches_independent_recomputation():
    td = make_tweak_data("output")
    addresses = build_protocol_addresses(td)
    for addr in addresses.all():
        root = merkle_root([leaf.leaf_digest() for leaf in addr.leaves])
        t = int.from_bytes(sha(addr.internal_key.x.to_bytes(32, "big") + root), "big") % N
        expected = point_add(addr.internal_key, generator_mul(t))
        assert addr.merkle_root == root
        assert addr.output_key == expected


# -- the four instance addresses ---------------------------------------------


def test_leaf_layout():
    td = make_tweak_data("layout", n_oracles=3)
    addresses = build_protocol_addresses(td)
    assert [leaf.path_id for leaf in addresses.va.leaves] == ["dep_to"]
    assert [leaf.path_id for leaf in addresses.uta.leaves] == ["dep_to", "dep_delay"]
    challenge_ids = ["dep_ao_0", "dep_ao_1", "dep_ao_2", "to_delay"]
    assert [leaf.path_id for leaf in addresses.uca.leaves] == challenge_ids
    assert [leaf.path_id for leaf in addresses.rca.leaves] == challenge_ids


def test_challenge_addresses_differ_despite_same_leaves():
    td = make_tweak_data("uca-rca")
    addresses = build_protocol_addresses(td)
    assert addresses.uca.leaves == addresses.rca.leaves
    assert addresses.uca.address_id != addresses.rca.address_id


def test_delay_leaves_carry_configured_timelocks():
    td = make_tweak_data("delays", t1=9, t2=17)
    addresses = build_protocol_addresses(td)
    assert addresses.uta.leaf("dep_delay").policy.delay_blocks == 9
    assert addresses.uca.leaf("to_delay").policy.delay_blocks == 17


def field_variants(td: TweakData, rng: random.Random):
    """One changed copy of td per field."""
    fresh = keypair_from_seed(rng.randbytes(16)).public
    yield TweakData(fresh, td.to_pk, td.ao_pks, td.t1, td.t2,
                    td.destination_chain_address, td.return_address)
    yield TweakData(td.dep_pk, fresh, td.ao_pks, td.t1, td.t2,
                    td.destination_chain_address, td.return_address)
    changed_aos = (fresh,) + td.ao_pks[1:]
    yield TweakData(td.dep_pk, td.to_pk, changed_aos, td.t1, td.t2,
                    td.destination_chain_address, td.return_address)
    yield TweakData(td.dep_pk, td.to_pk, td.ao_pks, td.t1 + 1, td.t2,
                    td.destination_chain_address, td.return_address)
    yield TweakData(td.dep_pk, td.to_pk, td.ao_pks, td.t1, td.t2 + 1,
                    td.destination_chain_address, td.return_address)
    yield TweakData(td.dep_pk, td.to_pk, td.ao_pks, td.t1, td.t2,
                    td.destination_chain_address + b"x", td.return_address)
    yield TweakData(td.dep_pk, td.to_pk, td.ao_pks, td.t1, td.t2,
                    td.destination_chain_address, td.return_address + b"x")


def address_ids(td: TweakData) -> list[str]:
    return [addr.address_id for addr in build_protocol_addresses(td).all()]


def test_any_field_change_moves_all_four_addresses():
    rng = random.Random(42)
    td = make_tweak_data("avalanche")
    base = address_ids(td)
    for variant in field_variants(td, rng):
        changed = address_ids(variant)
        assert all(a != b for a, b in zip(base, changed))


def test_address_memo_keys_on_tweak_data_value():
    td = make_tweak_data("memo")
    twin = make_tweak_data("memo")
    assert twin == td and twin is not td
    base = build_protocol_addresses(td)
    assert build_protocol_addresses(twin) == base
    for variant in field_variants(td, random.Random(7)):
        assert build_protocol_addresses(variant) != base
        assert build_protocol_addresses(td) == base


def test_addresses_stable_across_processes():
    td = make_tweak_data("golden", n_oracles=3, t1=6, t2=10)
    addresses = build_protocol_addresses(td)
    lines = [f"tweak_digest {td.digest_hex()}"]
    for addr in addresses.all():
        lines.append(
            f"{addr.kind} {addr.address_id}"
            f" internal={addr.internal_key.compressed().hex()}"
            f" root={addr.merkle_root.hex()}"
        )
    expected = GOLDEN.read_text().strip().splitlines()
    assert lines == expected
