"""Curve arithmetic checked against an independent affine implementation."""

import contextlib
import functools
import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsa_sim import curve
from bsa_sim.curve import (
    BETA,
    GX,
    GY,
    LAMBDA,
    N,
    NUMS_BASE,
    NUMS_X,
    P,
    _INFINITY,
    CurveError,
    Point,
    _from_jac,
    _jac_add_affine,
    _jac_double,
    _split_scalar,
    decode_point,
    generator_mul,
    is_on_curve,
    lift_x,
    multi_mul_add,
    point_add,
    point_mul,
)

G = Point(GX, GY)


# -- independent affine reference ------------------------------------------


def affine_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a.x == b.x and (a.y + b.y) % P == 0:
        return None
    if a == b:
        lam = (3 * a.x * a.x) * pow(2 * a.y, -1, P) % P
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, P) % P
    x = (lam * lam - a.x - b.x) % P
    y = (lam * (a.x - x) - a.y) % P
    return Point(x, y)


def affine_mul(k, pt):
    result = None
    addend = pt
    while k:
        if k & 1:
            result = affine_add(result, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return result


def test_generator_is_on_curve():
    assert is_on_curve(G)


def test_group_order():
    assert point_mul(G, N) is None
    assert point_add(point_mul(G, N - 1), G) is None


def test_double_matches_reference():
    assert point_add(G, G) == affine_add(G, G)


# A base point that is neither G nor NUMS_BASE, derived with the reference.
DERIVED = affine_mul(0xB5A, NUMS_BASE)


def test_scalar_mul_matches_reference():
    rng = random.Random(11)
    for base in (G, NUMS_BASE):
        for _ in range(12):
            k = rng.randrange(1, N)
            assert point_mul(base, k) == affine_mul(k, base)


def test_generator_table_matches_generic_ladder():
    rng = random.Random(13)
    for k in [0, 1, 2, 15, 16, N - 1, N, N + 1]:
        assert generator_mul(k) == affine_mul(k, G)
    for _ in range(25):
        k = rng.randrange(1, 2 * N)
        assert generator_mul(k) == affine_mul(k, G)


def test_published_multiples():
    assert generator_mul(2).x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
    assert generator_mul(3).x == 0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9
    assert generator_mul(N - 1) == Point(GX, P - GY)
    # LAMBDA * G is phi(G): pins the endomorphism constants point_mul uses.
    assert point_mul(G, LAMBDA) == Point((BETA * GX) % P, GY)
    assert generator_mul(LAMBDA) == Point((BETA * GX) % P, GY)


# -- properties against the reference ----------------------------------------

SCALARS = st.integers(min_value=0, max_value=2 * N - 1)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
# Both multiplications split k = k1 + k2 * LAMBDA (mod N); these scalars
# are built from chosen halves.  point_mul reads each half as a width-5
# NAF, whose digits are odd in [-15, 15]: a 5-bit chunk of 16 or more
# becomes a negative digit.
GLV_HALVES = [(2**64 + 1, 2**124 - 1), (2**124 - 1, -(2**64 + 1)), (-1, -1), (15, 15), (31, -17)]
# generator_mul reads each half in signed 7-bit digits in [-64, 63]: a
# chunk of 64 or more becomes a negative digit and carries into the next
# row.  2**126 - 1 carries through all 18 lower rows into the top one.
ALL_CHUNKS_64 = sum(64 << (7 * i) for i in range(18))
GEN_HALVES = [
    (63, 64),
    (64, -63),
    (127, -127),
    (ALL_CHUNKS_64, -ALL_CHUNKS_64),
    (-(2**126 - 1), 2**126 - 1),
    (2**126, -(2**126)),
]
# Every 5-bit chunk at 16: a scalar dense in small chunks.
ALL_DIGITS_16 = sum(16 << (5 * i) for i in range(51))


def from_halves(k1, k2):
    return (k1 + k2 * LAMBDA) % N


def test_glv_examples_split_into_their_halves():
    for k1, k2 in GLV_HALVES + GEN_HALVES:
        assert _split_scalar(from_halves(k1, k2)) == (k1, k2)
    # Scalars whose halves come out negative: k1 only, k2 only, both.
    signs = [tuple(h < 0 for h in _split_scalar(k)) for k in (N - 1, N // 2, 2**128)]
    assert signs == [(True, False), (False, True), (True, True)]


@PROPERTY_SETTINGS
@given(k=SCALARS)
@example(k=2**5 - 1)
@example(k=2**5 + 1)
@example(k=2**125 - 1)
@example(k=2**125 + 1)
@example(k=2**255 - 1)
@example(k=2**255 + 1)
@example(k=16)
@example(k=16 << 250)
@example(k=ALL_DIGITS_16)
@example(k=N - 1)
@example(k=N)
@example(k=2 * N - 1)
@example(k=63)
@example(k=64)
@example(k=127)
@example(k=128)
@example(k=2**126 - 1)
@example(k=from_halves(*GEN_HALVES[0]))
@example(k=from_halves(*GEN_HALVES[1]))
@example(k=from_halves(*GEN_HALVES[2]))
@example(k=from_halves(*GEN_HALVES[3]))
@example(k=from_halves(*GEN_HALVES[4]))
@example(k=from_halves(*GEN_HALVES[5]))
def test_generator_mul_matches_reference_property(k):
    assert generator_mul(k) == affine_mul(k, G)


@PROPERTY_SETTINGS
@given(base=st.sampled_from([G, NUMS_BASE, DERIVED]), k=SCALARS)
@example(base=DERIVED, k=from_halves(*GLV_HALVES[0]))
@example(base=NUMS_BASE, k=from_halves(*GLV_HALVES[1]))
@example(base=G, k=from_halves(*GLV_HALVES[2]))
@example(base=DERIVED, k=from_halves(*GLV_HALVES[3]))
@example(base=NUMS_BASE, k=N - 1)
@example(base=DERIVED, k=N // 2)
@example(base=G, k=2**128)
@example(base=DERIVED, k=N)
@example(base=NUMS_BASE, k=0)
@example(base=G, k=from_halves(*GLV_HALVES[4]))
def test_point_mul_matches_reference_property(base, k):
    assert point_mul(base, k) == affine_mul(k, base)


@PROPERTY_SETTINGS
@given(s=SCALARS, base=st.sampled_from([G, NUMS_BASE, DERIVED]), k=SCALARS)
@example(s=0, base=DERIVED, k=from_halves(*GLV_HALVES[0]))
@example(s=from_halves(*GEN_HALVES[3]), base=NUMS_BASE, k=0)
@example(s=0, base=G, k=0)
@example(s=from_halves(*GEN_HALVES[4]), base=None, k=5)
# s * G == -(k * G): the sum is the point at infinity.
@example(s=N - from_halves(*GLV_HALVES[1]), base=G, k=from_halves(*GLV_HALVES[1]))
@example(s=from_halves(*GEN_HALVES[5]), base=DERIVED, k=from_halves(*GLV_HALVES[4]))
@example(s=from_halves(*GEN_HALVES[2]), base=NUMS_BASE, k=from_halves(*GLV_HALVES[2]))
@example(s=2 * N - 1, base=DERIVED, k=N)
def test_mul_add_matches_reference_property(s, base, k):
    expected = affine_add(affine_mul(s, G), affine_mul(k, base))
    assert multi_mul_add(s, [(base, k)]) == expected


NEG_G = Point(GX, P - GY)
# Scalars of both kinds the chain reads: below 2**128 as they are, others split.
CHAIN_SCALARS = st.one_of(st.integers(min_value=0, max_value=2**128 - 1), SCALARS)
COMBABLE = [G, NEG_G, NUMS_BASE, DERIVED]
_built_comb = functools.lru_cache(maxsize=16)(curve._build_comb)


@contextlib.contextmanager
def combs_for(points):
    """Within the block exactly ``points`` have combs and no single check
    is counted yet; both memos are restored afterwards."""
    memos = (curve._combs, curve._check_counts)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    curve._combs.update((pt, _built_comb(pt)) for pt in points)
    try:
        yield
    finally:
        for memo, entries in zip(memos, saved):
            memo.clear()
            memo.update(entries)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    s=SCALARS,
    pairs=st.lists(
        st.tuples(st.sampled_from([*COMBABLE, None]), CHAIN_SCALARS),
        min_size=0,
        max_size=4,
    ),
    combed=st.sets(st.sampled_from(COMBABLE)),
)
@example(s=0, pairs=[], combed=set())
@example(s=0, pairs=[(G, 2**128 - 1), (NUMS_BASE, 2**128)], combed=set())
# equal and opposite points in one chain: the accumulator meets a table point
@example(s=0, pairs=[(G, 5), (G, 5)], combed=set())
@example(s=0, pairs=[(G, 2**100 + 7), (NEG_G, 2**100 + 7)], combed=set())
@example(s=3, pairs=[(G, N - 3)], combed=set())
@example(
    s=1,
    pairs=[(DERIVED, from_halves(*GLV_HALVES[0])), (NUMS_BASE, 15), (None, 9), (G, 0)],
    combed=set(),
)
# Combed points: each side of 2**128, whose second GLV half is nonzero
# only past it, and halves whose 7-bit chunks carry into the next row.
@example(s=0, pairs=[(DERIVED, 2**128 - 1), (NUMS_BASE, 2**128)], combed={DERIVED, NUMS_BASE})
@example(s=5, pairs=[(G, 0), (NEG_G, 1), (DERIVED, N - 1), (NUMS_BASE, LAMBDA)], combed=set(COMBABLE))
@example(s=0, pairs=[(DERIVED, from_halves(*GEN_HALVES[3]))], combed={DERIVED})
@example(s=1, pairs=[(NUMS_BASE, from_halves(*GEN_HALVES[4]))], combed={NUMS_BASE})
@example(s=0, pairs=[(NEG_G, from_halves(*GEN_HALVES[1])), (G, 2**128 + 1)], combed={NEG_G, G})
# a combed pair and the chain meet at equal and opposite points
@example(s=0, pairs=[(G, 2**100 + 7), (NEG_G, 2**100 + 7)], combed={G})
@example(s=3, pairs=[(DERIVED, 2**129), (DERIVED, N - 2**129)], combed={DERIVED})
def test_multi_scalar_chain_matches_reference_sum(s, pairs, combed):
    # A point in ``combed`` is read through its comb, any other through the chain.
    expected = affine_mul(s, G)
    for base, k in pairs:
        expected = affine_add(expected, affine_mul(k, base) if base is not None else None)
    with combs_for(combed):
        assert multi_mul_add(s, pairs) == expected


def test_mixed_addition_handles_equal_and_opposite_points():
    # A single multiplication by a reduced scalar never reaches these
    # branches, so they are checked on the helper itself; multi_mul_add
    # reaches the opposite-point one when s * G == -(k * pt).
    two_g = affine_mul(2, G)
    jac_two_g = _jac_double((GX, GY, 1))  # Z != 1
    assert _from_jac(_jac_add_affine(jac_two_g, two_g.x, two_g.y)) == affine_mul(4, G)
    assert _from_jac(_jac_add_affine(jac_two_g, two_g.x, P - two_g.y)) is None
    assert _from_jac(_jac_add_affine(_INFINITY, GX, GY)) == G


def test_scalar_mul_distributes():
    rng = random.Random(12)
    for _ in range(20):
        a = rng.randrange(1, N)
        b = rng.randrange(1, N)
        left = generator_mul((a + b) % N)
        right = point_add(generator_mul(a), generator_mul(b))
        assert left == right


def test_addition_commutes():
    rng = random.Random(13)
    for _ in range(20):
        a = generator_mul(rng.randrange(1, N))
        b = generator_mul(rng.randrange(1, N))
        assert point_add(a, b) == point_add(b, a)


def test_inverse_cancels():
    k = 987654321
    pt = generator_mul(k)
    neg = Point(pt.x, P - pt.y)
    assert point_add(pt, neg) is None


def test_compressed_round_trip():
    rng = random.Random(14)
    for _ in range(20):
        pt = generator_mul(rng.randrange(1, N))
        assert decode_point(pt.compressed()) == pt


def test_lift_x_even_y():
    pt = lift_x(GX)
    assert pt.y % 2 == 0
    assert is_on_curve(pt)


def test_lift_x_rejects_off_curve():
    # x = 5 has no square root for x^3 + 7 on secp256k1
    with pytest.raises(CurveError):
        lift_x(5)


def test_decode_rejects_garbage():
    with pytest.raises(CurveError):
        decode_point(b"\x01" + b"\x00" * 32)
    with pytest.raises(CurveError):
        decode_point(b"\x02" + b"\x00" * 31)


def test_decode_point_memo_keeps_raising_and_keys_on_every_byte():
    pt = generator_mul(7)
    good = pt.compressed()
    flipped_parity = bytes([good[0] ^ 1]) + good[1:]
    bad = [b"\x02" + (5).to_bytes(32, "big"), b"\x04" + good[1:], good[:-1]]
    for _ in range(3):  # later passes hit the memo for the good encodings
        assert decode_point(good) == pt
        assert decode_point(flipped_parity) == Point(pt.x, P - pt.y)
        for data in bad:
            with pytest.raises(CurveError):
                decode_point(data)


def test_unspendable_base_is_hash_of_generator():
    # The internal-key base must be the curve lift of sha256 over the
    # uncompressed generator encoding: verifiably not a chosen key.
    digest = hashlib.sha256(
        b"\x04" + GX.to_bytes(32, "big") + GY.to_bytes(32, "big")
    ).digest()
    assert int.from_bytes(digest, "big") == NUMS_X
    assert NUMS_X == 0x50929B74C1A04954B78B4B6035E97A5E078A5A0F28EC96D547BFEE9ACE803AC0
    assert NUMS_BASE == lift_x(NUMS_X)
    assert NUMS_BASE.y % 2 == 0
