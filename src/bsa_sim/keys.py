"""Keys, signatures, provably unspendable internal keys, the four
script addresses every protocol instance derives from its parameters,
and the transition catalogue that names the leaf each row spends.

Signatures
----------
Deterministic Schnorr-style signatures over secp256k1, in the spirit of
BIP-340: the nonce is derived from the secret and the digest, and a
65-byte signature is the compressed R point plus the s scalar.  Every
run, test and benchmark signs and verifies with this one scheme.

A check is one pass, s*G - e*P = ``curve.multi_mul_add(s, [(public,
-e)])``: one variable-base chain, the fixed-base table added into the
same accumulator, and one inversion.  R is never decoded: the check
accepts when the result's x equals R's x and its y has the parity that
R's 02/03 prefix names, and an x with no curve point can equal no result.
The explicit rejections (length, prefix, x outside (0, P), s >= N) give
every triple the verdict a decode-then-compare check would.

``verify_signatures`` checks a batch of triples at once with a random
linear combination (BIP-340's batch check; Bernstein et al., "High-speed
high-security signatures", 2012).  It accepts iff

    (sum a_i s_i) * G - sum_k (sum over P_i = k of a_i e_i) * k - sum_{i>=2} a_i R_i

has R_1's x and the parity of y that R_1's prefix names.  a_1 = 1 and
each later a_i is 128 bits of sha256 over a domain tag and every triple
of the batch, so runs stay deterministic and a forged triple cannot pick
its weight without defeating the hash.  It is one ``multi_mul_add``: the
s terms fold into one fixed-base scalar, each distinct key is one
GLV-split term, and each later R_i (decoded, so an x with no curve point
rejects) is one 128-bit term, all over one shared run of doublings.  A
batch of one is the single check above, exactly: both are the one
uncached core ``_verify``, and the per-triple rejections are written
once.  A batch that fails says only that some triple is bad; a caller
that must name it re-checks one by one.

Memoisation
-----------
Every party re-checks what it relies on: the ledger checks witnesses at
admission and again in each mining pass, and every oracle re-derives the
instance addresses and re-verifies the pre-signed transactions.  Those
checks stay, but the pure functions under them are memoised in bounded
LRU caches, so a repeated check costs a lookup:

* ``verify_signature`` (``VERIFY_CACHE_SIZE`` entries), keyed by the full
  ``(public, digest, sig)`` triple.  The result depends on nothing else,
  so both outcomes are cached; a changed digest, key or signature byte is
  a different key and is checked afresh.  This is how Bitcoin Core's
  signature cache works.
* ``verify_signatures`` (``BATCH_VERIFY_CACHE_SIZE`` entries), keyed by
  the tuple of triples, which is all its verdict depends on.  The setup
  ceremony checks the depositor's signatures on all the operator's rows
  as one batch; worlds that re-run an identical ceremony check the same
  batch again (3 distinct batches in 1,008 sweep scenarios, and 3 in the
  200-scenario trust-model sweep), while a ceremony with fresh keys
  never repeats one, so a small memo holds every batch that recurs.
* ``build_protocol_addresses`` (``ADDRESS_CACHE_SIZE`` entries), keyed by
  the frozen ``TweakData``.  The returned addresses are frozen, so
  callers can share them.  Its one caller is ``psbt.ProtocolInstance``:
  the setup ceremony builds one instance, and an oracle builds one from
  its view's parameters for each dispute check and each resolution it
  signs.  Every step on a template reads the instance's addresses and
  row leaves instead of deriving them again.
* ``keypair_from_seed`` (``KEYPAIR_CACHE_SIZE`` entries), keyed by the
  seed.  Worlds derive their operator, authority, oracle and depositor
  keys from fixed seeds; the ``Keypair`` is frozen, so callers share it.
* ``sign_digest`` (``SIGN_CACHE_SIZE`` entries), keyed by the whole
  frozen ``Keypair`` and the digest.  The nonce is derived from the
  secret and the digest, so a signature is a pure function of
  ``(secret, public, digest)`` and a cached one is byte for byte the one
  a fresh call would make.  Keying on the full ``Keypair`` means a pair
  whose ``public`` does not match its ``secret`` never shares an entry
  with the correct pair.  The range check is in the function body and
  exceptions are not cached, so ``InvalidScalar`` is raised on every
  call.  Worlds re-run the setup ceremony with the same keys and
  outpoints, so they sign the same templates again and again; 256
  entries hold what a sweep reuses (338 distinct signatures in 1,000
  scenarios, 98.3% hits), while a larger memo only fills on workloads
  that sign fresh templates.  The signer does not seed the verify memo:
  every signature is still checked on its own at admission, when mining
  and by the oracles.

Signing reads the public key from the ``Keypair`` rather than
recomputing ``secret * G``, so a fresh signature costs one scalar
multiplication, not two.

Addresses
---------
Each instance derives four script addresses (vault, unbond timelock,
unbond challenge, rebalance challenge).  The internal key of each is a
distinct unspendable point H + r*G where r commits to the address kind
and the full instance parameters; the output key commits additionally to
the script tree, so no key-path spend can ever exist and signing always
targets a named script leaf.

Transition catalogue
--------------------
Each pre-signed row: source -> destination address kind (Dep is
``dep_return`` and TO is ``to_key``), the leaf it spends and its keys,
who executes it and how its fee is topped up:

  unbond_request             VA  -> UTA     dep_to    Dep & TO     exec Dep anchor
  unbond_finalize            UTA -> Dep     dep_delay Dep after t1          self
  unbond_challenge           UTA -> UCA     dep_to    Dep & TO     exec TO  anchor
  unbond_resolve             UCA -> Dep     dep_ao_*  Dep & AO     exec AO  acp fee input
  unbond_resolve_expired     UCA -> TO      to_delay  TO after t2           self
  rebalance_request          VA  -> RCA     dep_to    Dep & TO     exec TO  anchor
  rebalance_resolve          RCA -> Dep     dep_ao_*  Dep & AO     exec AO  acp fee input
  rebalance_resolve_expired  RCA -> TO      to_delay  TO after t2           self
  cooperative_unbond         VA  -> Dep     dep_to    Dep & TO     exec Dep anchor

The catalogue is the one place that says which rows guard a deposit,
who pre-signs each and who keeps it (``stored_on``): ``DEPOSIT_ROWS``,
``SAR_ROWS`` (the registry's) and ``TO_ROWS`` (the operator's) are
derived from it.  ``build_protocol_addresses`` derives, once per
instance, the leaves each row spends (``InstanceAddresses.rows``): those
its ``path`` names on its ``source`` address, in tree order
(``dep_ao_*`` names every oracle's leaf).  Their keys may sign the row;
the address tree the chain checks witnesses against is the one
statement of that rule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fnmatch import fnmatchcase
from functools import lru_cache

from .curve import (
    N,
    NUMS_BASE,
    P,
    CurveError,
    Point,
    decode_point_uncached,
    generator_mul,
    multi_mul_add,
    point_add,
)


class KeyError_(Exception):
    pass


class InvalidScalar(KeyError_):
    pass


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _encode_bytes(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Keypair:
    secret: int
    public: Point

    @property
    def public_hex(self) -> str:
        return self.public.compressed().hex()


KEYPAIR_CACHE_SIZE = 256


@lru_cache(maxsize=KEYPAIR_CACHE_SIZE)
def keypair_from_seed(seed: bytes) -> Keypair:
    counter = 0
    while True:
        secret = int.from_bytes(_sha(b"seckey" + seed + bytes([counter])), "big") % N
        if secret != 0:
            break
        counter += 1
    return Keypair(secret, generator_mul(secret))


def keypair_from_secret(secret: int) -> Keypair:
    if not (0 < secret < N):
        raise InvalidScalar("secret out of range")
    return Keypair(secret, generator_mul(secret))


SIGN_CACHE_SIZE = 256


@lru_cache(maxsize=SIGN_CACHE_SIZE)
def sign_digest(keypair: Keypair, digest: bytes) -> bytes:
    secret = keypair.secret
    if not (0 < secret < N):
        raise InvalidScalar("secret out of range")
    sk_bytes = secret.to_bytes(32, "big")
    counter = 0
    while True:
        k = int.from_bytes(_sha(b"nonce" + sk_bytes + digest + bytes([counter])), "big") % N
        if k != 0:
            break
        counter += 1
    r_point = generator_mul(k)
    e = int.from_bytes(
        _sha(b"challenge" + r_point.compressed() + keypair.public.compressed() + digest), "big"
    ) % N
    s = (k + e * secret) % N
    return r_point.compressed() + s.to_bytes(32, "big")


def _challenge(public: Point, digest: bytes, sig: bytes) -> tuple[int, int, int] | None:
    """(R's x, s, e) of one triple, or None when its signature is malformed:
    not 65 bytes, a prefix other than 02/03, an x outside (0, P) or s >= N."""
    if len(sig) != 65 or sig[0] not in (2, 3):
        return None
    r_x = int.from_bytes(sig[1:33], "big")
    s = int.from_bytes(sig[33:], "big")
    if not (0 < r_x < P) or s >= N:
        return None
    e = int.from_bytes(
        _sha(b"challenge" + sig[:33] + public.compressed() + digest), "big"
    ) % N
    return r_x, s, e


def _coefficients(triples: tuple[tuple[Point, bytes, bytes], ...]) -> list[int]:
    """a_1 = 1, and for i >= 2 a 128-bit a_i from sha256 over a domain tag
    and every triple of the batch, so a batch's check is reproducible and a
    forged triple cannot choose the weight it is checked with."""
    seed = _sha(b"batch" + b"".join(
        public.compressed() + _encode_bytes(digest) + _encode_bytes(sig)
        for public, digest, sig in triples
    ))
    return [1] + [
        int.from_bytes(_sha(seed + i.to_bytes(4, "big"))[:16], "big")
        for i in range(1, len(triples))
    ]


def _verify(triples: tuple[tuple[Point, bytes, bytes], ...]) -> bool:
    """Whether every (public, digest, sig) triple verifies, by the one
    multi-scalar check the module docstring gives; with one triple it is
    s*G - e*P compared with R.  R_1 is never decoded, and every later R_i
    is, so one with no curve point rejects the batch.  Each R_i is a fresh
    nonce, so it bypasses the ``decode_point`` memo."""
    parsed = [_challenge(*triple) for triple in triples]
    if not parsed or None in parsed:
        return False
    s_sum = 0
    key_scalars: dict[Point, int] = {}
    pairs = []
    for i, ((public, _, sig), (_, s, e), a) in enumerate(
        zip(triples, parsed, _coefficients(triples))
    ):
        s_sum += a * s
        key_scalars[public] = key_scalars.get(public, 0) + a * e
        if i:
            try:
                r_point = decode_point_uncached(sig[:33])
            except CurveError:
                return False
            pairs.append((Point(r_point.x, P - r_point.y), a))
    pairs.extend((public, -k) for public, k in key_scalars.items())
    check = multi_mul_add(s_sum, pairs)
    r_x, prefix = parsed[0][0], triples[0][2][0]
    return check is not None and check.x == r_x and check.y % 2 == prefix - 2


VERIFY_CACHE_SIZE = 1024


@lru_cache(maxsize=VERIFY_CACHE_SIZE)
def verify_signature(public: Point, digest: bytes, sig: bytes) -> bool:
    return _verify(((public, digest, sig),))


BATCH_VERIFY_CACHE_SIZE = 8


@lru_cache(maxsize=BATCH_VERIFY_CACHE_SIZE)
def verify_signatures(triples: tuple[tuple[Point, bytes, bytes], ...]) -> bool:
    """Whether every ``(public, digest, sig)`` triple verifies, checked as
    one batch; False for an empty batch."""
    return _verify(triples)


# ---------------------------------------------------------------------------
# spend path policies


@dataclass(frozen=True)
class TwoOfTwo:
    key_a: Point
    key_b: Point

    def encode(self) -> bytes:
        return b"2of2" + self.key_a.compressed() + self.key_b.compressed()

    def keys(self) -> tuple[Point, ...]:
        return (self.key_a, self.key_b)


@dataclass(frozen=True)
class SingleAfterDelay:
    key: Point
    delay_blocks: int

    def __post_init__(self):
        if self.delay_blocks <= 0:
            raise ValueError("delay must be positive")

    def encode(self) -> bytes:
        return b"delay" + self.key.compressed() + self.delay_blocks.to_bytes(4, "big")

    def keys(self) -> tuple[Point, ...]:
        return (self.key,)


Policy = TwoOfTwo | SingleAfterDelay


@dataclass(frozen=True)
class SpendPath:
    path_id: str
    policy: Policy

    def leaf_digest(self) -> bytes:
        return _sha(b"leaf" + self.policy.encode())


# ---------------------------------------------------------------------------
# instance parameters

MAX_ORACLES = 0xFFFF  # ``TweakData.serialize`` writes the oracle count in two bytes
# ``TweakData.serialize`` writes t1 and t2, and ``SingleAfterDelay.encode``
# a delay, in four bytes
MAX_DELAY = 0xFFFF_FFFF


@dataclass(frozen=True)
class TweakData:
    """Everything the four instance addresses commit to."""

    dep_pk: Point
    to_pk: Point
    ao_pks: tuple[Point, ...]
    t1: int
    t2: int
    destination_chain_address: bytes
    return_address: bytes

    def __post_init__(self):
        if len(self.ao_pks) < 1:
            raise ValueError("need at least one arbitration key")
        if len(self.ao_pks) > MAX_ORACLES:
            raise ValueError(f"at most {MAX_ORACLES} arbitration keys")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("timelocks must be positive")

    def serialize(self) -> bytes:
        parts = [
            _encode_bytes(self.dep_pk.compressed()),
            _encode_bytes(self.to_pk.compressed()),
            len(self.ao_pks).to_bytes(2, "big"),
        ]
        parts.extend(pk.compressed() for pk in self.ao_pks)
        parts.append(self.t1.to_bytes(4, "big"))
        parts.append(self.t2.to_bytes(4, "big"))
        parts.append(_encode_bytes(self.destination_chain_address))
        parts.append(_encode_bytes(self.return_address))
        return b"".join(parts)

    def digest_hex(self) -> str:
        return _sha(b"tweakdata" + self.serialize()).hex()


# ---------------------------------------------------------------------------
# internal key and output key derivation

ADDRESS_KINDS = ("VA", "UTA", "UCA", "RCA")


def derive_nums_point(kind_label: str, tweak_data: TweakData) -> Point:
    """Internal key for one address kind: H + r*G with r committing to the
    kind label and the full serialized instance parameters."""
    if kind_label not in ADDRESS_KINDS:
        raise KeyError_(f"unknown address kind {kind_label!r}")
    payload = kind_label.encode("ascii") + tweak_data.serialize()
    suffix = b""
    counter = 0
    while True:
        r = int.from_bytes(_sha(payload + suffix), "big") % N
        if r != 0:
            pt = point_add(NUMS_BASE, generator_mul(r))
            if pt is not None:
                return pt
        # unreachable in practice; re-hashing with a counter byte keeps the
        # derivation total
        suffix = bytes([counter])
        counter += 1


def merkle_root(leaf_digests: list[bytes]) -> bytes:
    """Order-independent tree over leaf digests: every level is sorted and
    adjacent pairs hash together; an odd digest is carried up unchanged."""
    if not leaf_digests:
        raise KeyError_("empty script tree")
    level = sorted(leaf_digests)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            left, right = sorted((level[i], level[i + 1]))
            nxt.append(_sha(b"branch" + left + right))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = sorted(nxt)
    return level[0]


def taproot_output_key(internal: Point, leaves: tuple[SpendPath, ...]) -> tuple[Point, bytes]:
    root = merkle_root([leaf.leaf_digest() for leaf in leaves])
    suffix = b""
    counter = 0
    while True:
        t = int.from_bytes(_sha(internal.x.to_bytes(32, "big") + root + suffix), "big") % N
        if t != 0:
            out = point_add(internal, generator_mul(t))
            if out is not None:
                return out, root
        suffix = bytes([counter])
        counter += 1


@dataclass(frozen=True)
class ProtocolAddress:
    kind: str
    internal_key: Point
    leaves: tuple[SpendPath, ...]
    merkle_root: bytes
    output_key: Point

    def __post_init__(self):
        ids = [leaf.path_id for leaf in self.leaves]
        if len(ids) != len(set(ids)):
            raise KeyError_("duplicate path ids in script tree")

    @property
    def address_id(self) -> str:
        return "p2tr:" + self.output_key.compressed().hex()

    def leaf(self, path_id: str) -> SpendPath | None:
        for leaf in self.leaves:
            if leaf.path_id == path_id:
                return leaf
        return None


def key_address_id(public: Point) -> str:
    return "key:" + public.compressed().hex()


# ---------------------------------------------------------------------------
# transition catalogue


class Transition(Enum):
    UNBOND_REQUEST = "unbond_request"
    UNBOND_FINALIZE = "unbond_finalize"
    UNBOND_CHALLENGE = "unbond_challenge"
    UNBOND_RESOLVE = "unbond_resolve"
    UNBOND_RESOLVE_EXPIRED = "unbond_resolve_expired"
    REBALANCE_REQUEST = "rebalance_request"
    REBALANCE_RESOLVE = "rebalance_resolve"
    REBALANCE_RESOLVE_EXPIRED = "rebalance_resolve_expired"
    COOPERATIVE_UNBOND = "cooperative_unbond"


@dataclass(frozen=True)
class TransitionSpec:
    source: str  # address kind the spent output must sit on
    dest: str  # address kind the main outputs pay to
    path: str  # leaf id; "dep_ao_*" names every oracle leaf, and a spend takes one
    creator: str | None
    stored_on: str | None  # "sar" | "to" | None
    executor: str  # "dep"|"to"|"ao"
    fee_mode: str  # "anchor"|"acp"|"self"


TRANSITION_SPECS: dict[Transition, TransitionSpec] = {
    Transition.UNBOND_REQUEST: TransitionSpec(
        "VA", "UTA", "dep_to", "to", "sar", "dep", "anchor"
    ),
    Transition.UNBOND_FINALIZE: TransitionSpec(
        "UTA", "dep_return", "dep_delay", None, None, "dep", "self"
    ),
    Transition.UNBOND_CHALLENGE: TransitionSpec(
        "UTA", "UCA", "dep_to", "dep", "to", "to", "anchor"
    ),
    Transition.UNBOND_RESOLVE: TransitionSpec(
        "UCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"
    ),
    Transition.UNBOND_RESOLVE_EXPIRED: TransitionSpec(
        "UCA", "to_key", "to_delay", None, None, "to", "self"
    ),
    Transition.REBALANCE_REQUEST: TransitionSpec(
        "VA", "RCA", "dep_to", "dep", "to", "to", "anchor"
    ),
    Transition.REBALANCE_RESOLVE: TransitionSpec(
        "RCA", "dep_return", "dep_ao_*", "dep", "sar", "ao", "acp"
    ),
    Transition.REBALANCE_RESOLVE_EXPIRED: TransitionSpec(
        "RCA", "to_key", "to_delay", None, None, "to", "self"
    ),
    Transition.COOPERATIVE_UNBOND: TransitionSpec(
        "VA", "dep_return", "dep_to", "to", None, "dep", "anchor"
    ),
}

# the rows pre-signed for every deposit, in catalog order, and who keeps them
DEPOSIT_ROWS = tuple(t for t, s in TRANSITION_SPECS.items() if s.stored_on is not None)
SAR_ROWS = tuple(t for t in DEPOSIT_ROWS if TRANSITION_SPECS[t].stored_on == "sar")
TO_ROWS = tuple(t for t in DEPOSIT_ROWS if TRANSITION_SPECS[t].stored_on == "to")


@dataclass(frozen=True)
class InstanceAddresses:
    va: ProtocolAddress
    uta: ProtocolAddress
    uca: ProtocolAddress
    rca: ProtocolAddress
    # catalogue row -> the leaves its ``path`` names on its ``source``, in tree order
    rows: dict[Transition, tuple[SpendPath, ...]] = field(compare=False)

    def all(self) -> tuple[ProtocolAddress, ...]:
        return (self.va, self.uta, self.uca, self.rca)


ADDRESS_CACHE_SIZE = 64


@lru_cache(maxsize=ADDRESS_CACHE_SIZE)
def build_protocol_addresses(tweak_data: TweakData) -> InstanceAddresses:
    """Derive the four per-instance script addresses and, for each
    catalogue row, the leaves it spends (``InstanceAddresses.rows``).

    Leaf layout:
      VA   cooperative 2-of-2 (depositor, operator)
      UTA  cooperative 2-of-2, plus depositor alone after T1
      UCA  2-of-2 (depositor, each arbitration key), plus operator alone after T2
      RCA  same shape as UCA
    """
    dep, to = tweak_data.dep_pk, tweak_data.to_pk

    va_leaves = (SpendPath("dep_to", TwoOfTwo(dep, to)),)
    uta_leaves = (
        SpendPath("dep_to", TwoOfTwo(dep, to)),
        SpendPath("dep_delay", SingleAfterDelay(dep, tweak_data.t1)),
    )
    challenge_leaves = tuple(
        SpendPath(f"dep_ao_{i}", TwoOfTwo(dep, ao)) for i, ao in enumerate(tweak_data.ao_pks)
    ) + (SpendPath("to_delay", SingleAfterDelay(to, tweak_data.t2)),)

    out = {}
    for kind, leaves in (
        ("VA", va_leaves),
        ("UTA", uta_leaves),
        ("UCA", challenge_leaves),
        ("RCA", challenge_leaves),
    ):
        internal = derive_nums_point(kind, tweak_data)
        output_key, root = taproot_output_key(internal, leaves)
        out[kind] = ProtocolAddress(kind, internal, leaves, root, output_key)
    rows = {
        t: tuple(leaf for leaf in out[s.source].leaves if fnmatchcase(leaf.path_id, s.path))
        for t, s in TRANSITION_SPECS.items()
    }
    return InstanceAddresses(out["VA"], out["UTA"], out["UCA"], out["RCA"], rows)
