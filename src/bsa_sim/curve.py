"""secp256k1 arithmetic used for key handling and address derivation.

Points are affine (x, y) tuples wrapped in a small frozen dataclass; the
point at infinity is represented by None.  Scalar multiplication runs in
Jacobian coordinates internally so that repeated use (signature checks in
long simulation runs) stays cheap in pure Python.

``decode_point`` is memoised in a bounded LRU cache
(``DECODE_CACHE_SIZE`` entries) keyed by the encoded bytes: every
signature check decodes its R point and every snapshot import decodes the
same public keys again, each costing a modular square root.  The function
is pure and its results are immutable ``Point`` values, so a cached answer
is the answer a fresh call would give.  Exceptions are not cached, so a
malformed encoding raises ``CurveError`` on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# x-coordinate of the conventional "nothing up my sleeve" base point used
# for provably unspendable internal keys: sha256 of the uncompressed
# encoding of G, lifted to the curve with even y.
NUMS_X = 0x50929B74C1A04954B78B4B6035E97A5E078A5A0F28EC96D547BFEE9ACE803AC0


class CurveError(Exception):
    pass


@dataclass(frozen=True)
class Point:
    x: int
    y: int

    def compressed(self) -> bytes:
        prefix = b"\x02" if self.y % 2 == 0 else b"\x03"
        return prefix + self.x.to_bytes(32, "big")


def is_on_curve(pt: Point | None) -> bool:
    if pt is None:
        return True
    return (pt.y * pt.y - pt.x * pt.x * pt.x - 7) % P == 0


def lift_x(x: int) -> Point:
    """Return the curve point with the given x and even y."""
    if not (0 < x < P):
        raise CurveError("x out of field range")
    y_sq = (pow(x, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        raise CurveError("x is not on the curve")
    if y % 2 != 0:
        y = P - y
    return Point(x, y)


DECODE_CACHE_SIZE = 1024


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def decode_point(data: bytes) -> Point:
    if len(data) != 33 or data[0] not in (2, 3):
        raise CurveError("bad compressed point encoding")
    pt = lift_x(int.from_bytes(data[1:], "big"))
    if (pt.y % 2 == 0) != (data[0] == 2):
        pt = Point(pt.x, P - pt.y)
    return pt


# Jacobian helpers: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.  Zero Z encodes
# the point at infinity.

def _to_jac(pt: Point | None) -> tuple[int, int, int]:
    if pt is None:
        return (0, 1, 0)
    return (pt.x, pt.y, 1)


def _from_jac(j: tuple[int, int, int]) -> Point | None:
    X, Y, Z = j
    if Z == 0:
        return None
    z_inv = pow(Z, P - 2, P)
    z2 = (z_inv * z_inv) % P
    return Point((X * z2) % P, (Y * z2 * z_inv) % P)


def _jac_double(j: tuple[int, int, int]) -> tuple[int, int, int]:
    X, Y, Z = j
    if Z == 0 or Y == 0:
        return (0, 1, 0)
    YY = (Y * Y) % P
    S = (4 * X * YY) % P
    M = (3 * X * X) % P
    X2 = (M * M - 2 * S) % P
    Y2 = (M * (S - X2) - 8 * YY * YY) % P
    Z2 = (2 * Y * Z) % P
    return (X2, Y2, Z2)


def _jac_add(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    if a[2] == 0:
        return b
    if b[2] == 0:
        return a
    X1, Y1, Z1 = a
    X2, Y2, Z2 = b
    Z1Z1 = (Z1 * Z1) % P
    Z2Z2 = (Z2 * Z2) % P
    U1 = (X1 * Z2Z2) % P
    U2 = (X2 * Z1Z1) % P
    S1 = (Y1 * Z2 * Z2Z2) % P
    S2 = (Y2 * Z1 * Z1Z1) % P
    if U1 == U2:
        if S1 != S2:
            return (0, 1, 0)
        return _jac_double(a)
    H = (U2 - U1) % P
    R = (S2 - S1) % P
    H2 = (H * H) % P
    H3 = (H * H2) % P
    U1H2 = (U1 * H2) % P
    X3 = (R * R - H3 - 2 * U1H2) % P
    Y3 = (R * (U1H2 - X3) - S1 * H3) % P
    Z3 = (H * Z1 * Z2) % P
    return (X3, Y3, Z3)


def point_add(a: Point | None, b: Point | None) -> Point | None:
    return _from_jac(_jac_add(_to_jac(a), _to_jac(b)))


def point_mul(pt: Point | None, k: int) -> Point | None:
    k %= N
    if k == 0 or pt is None:
        return None
    acc = (0, 1, 0)
    base = _to_jac(pt)
    while k:
        if k & 1:
            acc = _jac_add(acc, base)
        base = _jac_double(base)
        k >>= 1
    return _from_jac(acc)


G = Point(GX, GY)
NUMS_BASE = lift_x(NUMS_X)


def _build_gen_table() -> list[list[tuple[int, int, int]]]:
    """Fixed-base table for G: row w holds d * 2**(4w) * G for d in 1..15,
    so a 256-bit scalar multiplies with at most 64 additions."""
    table = []
    base = _to_jac(G)
    for _ in range(64):
        row = [base]
        for _ in range(14):
            row.append(_jac_add(row[-1], base))
        table.append(row)
        for _ in range(4):
            base = _jac_double(base)
    return table


_GEN_TABLE = _build_gen_table()


def generator_mul(k: int) -> Point | None:
    k %= N
    if k == 0:
        return None
    acc = (0, 1, 0)
    window = 0
    while k:
        digit = k & 0xF
        if digit:
            acc = _jac_add(acc, _GEN_TABLE[window][digit - 1])
        k >>= 4
        window += 1
    return _from_jac(acc)
