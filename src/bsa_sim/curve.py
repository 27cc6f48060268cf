"""secp256k1 arithmetic used for key handling and address derivation.

Points are affine (x, y) tuples wrapped in a small frozen dataclass; the
point at infinity is represented by None.  The algorithms are the standard
ones for pure-Python speed (Hankerson, Menezes and Vanstone, *Guide to
Elliptic Curve Cryptography*, sections 3.2, 3.3 and 3.5; Gallant, Lambert and
Vanstone, CRYPTO 2001):

* Inversion is ``pow(z, -1, P)``.  Where many points are normalised at
  once, Montgomery's trick shares one inversion between all of them.
* Scalar multiplication accumulates in Jacobian coordinates and adds
  affine table points with mixed Jacobian+affine addition.
* Both multiplications use the endomorphism phi(x, y) = (BETA * x, y),
  which multiplies every curve point by LAMBDA: ``_split_scalar`` writes
  k = k1 + k2 * LAMBDA (mod N) with |k1|, |k2| below 2**128, and
  k1 * Q + k2 * phi(Q) is summed in one pass.  A negative half or digit
  adds the negated point (x, P - y).
* ``_add_gen_mul`` is the one fixed-base routine: Jacobian acc + k * G.
  It reads a table built at import, where row i holds d * 128**i * G for
  d in 1..64 in affine form (19 rows, 1,216 points).  Each half is
  recoded into 19 signed 7-bit digits in [-64, 63]; the second half
  reads the same table through phi.  That is at most 38 additions and no
  doubling.
* ``_mul_jac`` is the one variable-base chain, Straus's method: the
  Jacobian sum of k * Q over any number of (Q, k) pairs, with one shared
  run of about 128 doublings.  A scalar below 2**128 is read as it is; a
  larger one is GLV-split, its second half reading Q through phi.  Each
  is read as a width-5 NAF, adding from the odd multiples
  (1, 3, ..., 15) * Q, which two inversions make affine for all points
  at once.  This needs each Q to be on the curve, which every ``Point``
  the package makes is: each comes from ``lift_x``, ``decode_point`` or
  curve arithmetic, and the curve has cofactor 1.
* ``generator_mul`` makes the fixed-base routine affine and
  ``point_mul`` a one-pair chain.  ``multi_mul_add(s, pairs)`` = s * G +
  the sum of k * Q runs the chain, then the fixed-base routine into the
  same accumulator, then one inversion.  A Schnorr check, alone or a
  batch of them, is one ``multi_mul_add`` (see ``keys``).
* ``point_add`` adds in affine coordinates with one inversion.

Every function computes exact group arithmetic, and a curve point has one
affine representation, so results are byte-identical to any other correct
implementation; ``tests/test_curve.py`` checks them against a plain affine
double-and-add.

``decode_point`` is ``decode_point_uncached`` memoised in a bounded LRU
cache (``DECODE_CACHE_SIZE`` entries) keyed by the encoded bytes; a miss
costs a modular square root.  Snapshot imports and parsed tweak data
decode the same few public keys again through the memo.  A batch
signature check decodes every nonce point but the first, each seen once,
with ``decode_point_uncached``, so nonces never evict those keys.  On the
benchmark streams of seed 41 (the cache cleared before each workload):
sweep 3,446 hits and 5 misses in 120 scenarios; hold 23 hits and 1 miss
in 8 worlds; ceremony 47 hits and 1 miss in 48 ceremonies.  In hold and
ceremony the hits are the operator key of each snapshot import.  The
function is pure and its results are immutable ``Point`` values, so a
cached answer is the answer a fresh call would give.  Exceptions are not
cached, so a malformed encoding raises ``CurveError`` on every call.
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

# The endomorphism phi(x, y) = (BETA * x, y) multiplies every point by
# LAMBDA: BETA is a cube root of unity mod P, LAMBDA one mod N.
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# Short basis (a1, b1), (a2, b2) of the lattice {(u, v) : u + v * LAMBDA = 0 (mod N)}.
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1


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


def decode_point_uncached(data: bytes) -> Point:
    """The point a 33-byte compressed encoding names, decoded afresh:
    for a point seen once, such as a batch signature's nonce."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise CurveError("bad compressed point encoding")
    pt = lift_x(int.from_bytes(data[1:], "big"))
    if (pt.y % 2 == 0) != (data[0] == 2):
        pt = Point(pt.x, P - pt.y)
    return pt


DECODE_CACHE_SIZE = 64

decode_point = lru_cache(maxsize=DECODE_CACHE_SIZE)(decode_point_uncached)


# Jacobian helpers: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.  Zero Z encodes
# the point at infinity.

_INFINITY = (0, 1, 0)


def _from_jac(j: tuple[int, int, int]) -> Point | None:
    X, Y, Z = j
    if Z == 0:
        return None
    z_inv = pow(Z, -1, P)
    z2 = (z_inv * z_inv) % P
    return Point((X * z2) % P, (Y * z2 * z_inv) % P)


def _batch_inverse(values: list[int]) -> list[int]:
    """Inverses mod P of nonzero values with a single ``pow`` (Montgomery's
    trick: invert the product, then peel each inverse off with two
    multiplications)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = (acc * v) % P
    inv = pow(acc, -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (inv * prefix[i]) % P
        inv = (inv * values[i]) % P
    return out


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Affine (x, y) of finite Jacobian points, with one inversion."""
    out = []
    for (X, Y, _), z_inv in zip(points, _batch_inverse([Z for _, _, Z in points])):
        z2 = (z_inv * z_inv) % P
        out.append(((X * z2) % P, (Y * z2 * z_inv) % P))
    return out


def _jac_double(j: tuple[int, int, int]) -> tuple[int, int, int]:
    X, Y, Z = j
    if Z == 0 or Y == 0:
        return _INFINITY
    YY = (Y * Y) % P
    S = (4 * X * YY) % P
    M = (3 * X * X) % P
    X2 = (M * M - 2 * S) % P
    Y2 = (M * (S - X2) - 8 * YY * YY) % P
    Z2 = (2 * Y * Z) % P
    return (X2, Y2, Z2)


def _jac_add_affine(j: tuple[int, int, int], x2: int, y2: int) -> tuple[int, int, int]:
    """Mixed addition: Jacobian j plus the finite affine point (x2, y2)."""
    X1, Y1, Z1 = j
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = (Z1 * Z1) % P
    H = (x2 * Z1Z1 - X1) % P
    R = (y2 * Z1 * Z1Z1 - Y1) % P
    if H == 0:
        if R != 0:  # j is the negation of (x2, y2)
            return _INFINITY
        return _jac_double(j)
    HH = (H * H) % P
    HHH = (H * HH) % P
    V = (X1 * HH) % P
    X3 = (R * R - HHH - 2 * V) % P
    Y3 = (R * (V - X3) - Y1 * HHH) % P
    return (X3, Y3, (Z1 * H) % P)


def _chord(x1: int, y1: int, x2: int, lam: int) -> tuple[int, int]:
    """Affine sum of (x1, y1) and a point with x-coordinate x2, given the
    slope lam of the line through them (the tangent when they are equal)."""
    x3 = (lam * lam - x1 - x2) % P
    return x3, (lam * (x1 - x3) - y1) % P


def point_add(a: Point | None, b: Point | None) -> Point | None:
    if a is None:
        return b
    if b is None:
        return a
    if a.x == b.x:
        if (a.y + b.y) % P == 0:
            return None
        lam = (3 * a.x * a.x * pow(2 * a.y, -1, P)) % P
    else:
        lam = ((b.y - a.y) * pow(b.x - a.x, -1, P)) % P
    return Point(*_chord(a.x, a.y, b.x, lam))


def _split_scalar(k: int) -> tuple[int, int]:
    """GLV decomposition: k = k1 + k2 * LAMBDA (mod N) with |k1|, |k2| below
    about 2**128, by rounding k onto the short lattice basis (a1, b1),
    (a2, b2) of {(u, v) : u + v * LAMBDA = 0 (mod N)}."""
    c1 = (2 * _GLV_B2 * k + N) // (2 * N)
    c2 = (-2 * _GLV_B1 * k + N) // (2 * N)
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _wnaf(k: int) -> list[tuple[int, int]]:
    """The nonzero digits of the width-5 NAF of k as (place, digit), least
    significant first: every digit is odd in [-15, 15], and any two are at
    least five places apart.  A negative k gives the negated digits of -k.
    Each step skips the run of zeros below the next digit at once."""
    digits = []
    place = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        place += zeros
        d = k & 31
        if d >= 16:
            d -= 32
        digits.append((place, d))
        k -= d
    return digits


def _odd_multiples(points: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """For each finite affine point Q, its odd multiples 1 * Q, 3 * Q, ...,
    15 * Q in affine form.  Two inversions serve every point: one for the
    tangent slopes of the doubles 2 * Q, one to make the multiples affine."""
    jac = []
    for (x, y), inv in zip(points, _batch_inverse([2 * y for _, y in points])):
        # 2 * Q in affine form, so each next odd multiple is a mixed addition.
        x2, y2 = _chord(x, y, x, (3 * x * x * inv) % P)
        odd = [(x, y, 1)]
        for _ in range(7):
            odd.append(_jac_add_affine(odd[-1], x2, y2))
        jac.extend(odd)
    flat = _batch_to_affine(jac)
    return [flat[i:i + 8] for i in range(0, len(flat), 8)]


_HALF = 1 << 128


def _mul_jac(pairs: list[tuple[Point | None, int]]) -> tuple[int, int, int]:
    """Jacobian sum of k * pt over (pt, k) pairs with 0 <= k < N, the one
    variable-base chain (Straus's method).

    A scalar below 2**128 is read as it is; a larger one is split as
    k1 + k2 * LAMBDA (mod N) and read as k1 * pt + k2 * phi(pt), with
    phi(x, y) = (BETA * x, y).  Every scalar is read as a width-5 NAF,
    adding from the odd multiples (1, 3, ..., 15) * pt or their images
    under phi, and all of them share one run of about 128 doublings.  A
    negative digit adds the negated point (x, P - y)."""
    live = [(pt, k) for pt, k in pairs if pt is not None and k]
    if not live:
        return _INFINITY
    columns = []  # (odd multiples, NAF digits)
    for (_, k), table in zip(live, _odd_multiples([(pt.x, pt.y) for pt, _ in live])):
        if k < _HALF:
            columns.append((table, _wnaf(k)))
        else:
            k1, k2 = _split_scalar(k)
            columns.append((table, _wnaf(k1)))
            columns.append(([((BETA * x) % P, y) for x, y in table], _wnaf(k2)))
    # adds[i]: the signed table points added after the doubling for place i
    adds: list[list[tuple[int, int]]] = [
        [] for _ in range(max(naf[-1][0] for _, naf in columns if naf) + 1)
    ]
    for table, naf in columns:
        for place, d in naf:
            x, y = table[abs(d) >> 1]
            adds[place].append((x, y if d > 0 else P - y))
    acc = _INFINITY
    for step in reversed(adds):
        acc = _jac_double(acc)
        for x, y in step:
            acc = _jac_add_affine(acc, x, y)
    return acc


def point_mul(pt: Point | None, k: int) -> Point | None:
    return _from_jac(_mul_jac([(pt, k % N)]))


G = Point(GX, GY)
NUMS_BASE = lift_x(NUMS_X)

# Fixed-base table for G: row i holds d * 128**i * G for d in 1..64, affine.
# A GLV half is below 2**128 in magnitude, so 19 signed 7-bit digits in
# [-64, 63] cover it, carry included.
_GEN_ROWS = 19


def _build_gen_table() -> list[list[tuple[int, int]]]:
    """Built in affine coordinates one column at a time, so each of the 64
    columns costs one inversion shared by all 19 rows."""
    bases = [(GX, GY, 1)]
    for _ in range(_GEN_ROWS - 1):
        base = bases[-1]
        for _ in range(7):
            base = _jac_double(base)
        bases.append(base)
    rows = [[b] for b in _batch_to_affine(bases)]
    for inv, row in zip(_batch_inverse([2 * row[0][1] for row in rows]), rows):
        x, y = row[0]
        row.append(_chord(x, y, x, (3 * x * x * inv) % P))
    for _ in range(62):
        diffs = [row[-1][0] - row[0][0] for row in rows]
        for inv, row in zip(_batch_inverse(diffs), rows):
            (x1, y1), (x2, y2) = row[0], row[-1]
            row.append(_chord(x1, y1, x2, ((y2 - y1) * inv) % P))
    return rows


_GEN_TABLE = _build_gen_table()


def _add_gen_mul(acc: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    """Jacobian acc + k * G for 0 <= k < N, the one fixed-base routine.

    Each GLV half of k is recoded into signed 7-bit digits in [-64, 63]; a
    chunk of 64 or more becomes a negative digit and carries into the next.
    The first half reads the table as it is, the second through phi.  That
    is at most 38 mixed additions and no doubling."""
    for half, beta in zip(_split_scalar(k), (1, BETA)):
        negate = half < 0
        half = abs(half)
        for row in _GEN_TABLE:
            if not half:
                break
            d = half & 127
            half >>= 7
            if d >= 64:  # digit d - 128: add the negation of (128 - d) * row base
                half += 1
                x, y = row[127 - d]
                flip = not negate
            elif d:
                x, y = row[d - 1]
                flip = negate
            else:
                continue
            acc = _jac_add_affine(acc, (beta * x) % P, P - y if flip else y)
    return acc


def generator_mul(k: int) -> Point | None:
    return _from_jac(_add_gen_mul(_INFINITY, k % N))


def multi_mul_add(s: int, pairs: list[tuple[Point | None, int]]) -> Point | None:
    """s * G + the sum of k * pt over ``pairs``: the variable-base chain for
    the sum, then the fixed-base routine adds s * G into the same
    accumulator, and one inversion makes the result affine."""
    return _from_jac(_add_gen_mul(_mul_jac([(pt, k % N) for pt, k in pairs]), s % N))
