"""Curve arithmetic checked against an independent affine implementation."""

import hashlib
import random

import pytest

from bsa_sim.curve import (
    GX,
    GY,
    N,
    NUMS_BASE,
    NUMS_X,
    P,
    CurveError,
    Point,
    decode_point,
    generator_mul,
    is_on_curve,
    lift_x,
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
        lam = (3 * a.x * a.x) * pow(2 * a.y, P - 2, P) % P
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, P - 2, P) % P
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


def test_scalar_mul_matches_reference():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randrange(1, N)
        assert point_mul(G, k) == affine_mul(k, G)


def test_generator_table_matches_generic_ladder():
    rng = random.Random(13)
    for k in [0, 1, 2, 15, 16, N - 1, N, N + 1]:
        assert generator_mul(k) == point_mul(G, k)
    for _ in range(50):
        k = rng.randrange(1, 2 * N)
        assert generator_mul(k) == point_mul(G, k)


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
