"""Outside-in tracing of ``bsa_sim``: wraps public functions of each module
at every binding, records spans, and aggregates per-layer counters.

A module-level function can be bound in several modules (``from .keys
import verify_signature`` puts a copy of the name into ``chain``,
``arbitration`` and ``destchain``), so the tracer replaces every global
that is the original function object, in every loaded ``bsa_sim``
module.  Methods are patched once, on their class.

Spans are kept in memory as ``(id, parent, op, name, start_ns, end_ns)``
tuples and written out by the caller.  A span's self time is its
duration minus the time its child spans cover.  A span's duration runs
from the entry of its wrapper to the wrapper's last clock read, so the
tracer's bookkeeping and the hooks that update counters are charged to
the span that ran them, and its parent is charged for the same interval
as child time.  Only the few statements after that last read (adding
the span to the totals) fall to the parent's self time.  Every exception
a target raises is counted by class under ``<target>.raised`` in
``breakdown``; the counter hooks run only after a call returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from weakref import WeakKeyDictionary


# -- counter hooks: (tracer, target name, args, kwargs, result) --------------


def _distinct(key_of):
    def hook(tr, name, args, kwargs, result):
        tr.distinct[name].add(key_of(args))
    return hook


def _submit(tr, name, args, kwargs, result):
    chain = args[0]
    tr.submitted.setdefault(chain, {})[result] = chain.height


def _mine(tr, name, args, kwargs, result):
    chain = args[0]
    tr.counts[name + ".confirmed"] += len(result)
    submitted = tr.submitted.get(chain, {})
    for txid in result:
        if txid in submitted:
            tr.waits.append(chain.height - submitted.pop(txid))


def _bytes_out(tr, name, args, kwargs, result):
    tr.counts[name + ".bytes"] += len(result)


def _snapshot_in(tr, name, args, kwargs, result):
    snapshot = args[1] if len(args) > 1 else kwargs["snapshot"]
    tr.counts[name + ".bytes"] += len(snapshot)
    tr.distinct[name].add(hashlib.blake2b(snapshot.encode(), digest_size=16).digest())


def _advance(tr, name, args, kwargs, result):
    tr.counts[name + ".checkpoints"] += len(result)


def _sync(tr, name, args, kwargs, result):
    checkpoint = args[2] if len(args) > 2 else kwargs.get("to_checkpoint")
    if checkpoint is not None:
        tr.counts[name + ".rebootstraps"] += 1


def _verify_inputs(tr, name, args, kwargs, result):
    step = getattr(result, "step", None)
    if step is not None:
        tr.breakdown[name + ".rejections"][f"step{step}"] += 1


def _resolve(tr, name, args, kwargs, result):
    tr.counts[name + (".refused" if result is None else ".signed")] += 1


# (module, qualified name, hook or None).  Layers are named after modules.
TARGETS = [
    ("curve", "generator_mul", None),
    ("curve", "point_mul", None),
    ("curve", "point_add", None),
    ("curve", "lift_x", None),
    ("curve", "decode_point", None),
    ("keys", "verify_signature", _distinct(lambda a: (a[0], a[1], a[2]))),
    ("keys", "sign_digest", None),
    ("keys", "build_protocol_addresses", _distinct(lambda a: a[0])),
    ("chain", "BtcChain.submit_tx", _submit),
    ("chain", "BtcChain.mine_block", _mine),
    ("psbt", "build_psbt", None),
    ("psbt", "sign_psbt", None),
    ("psbt", "finalize_to_tx", None),
    ("psbt", "verify_psbt_against_instance", None),
    ("psbt", "verify_partial_sigs", None),
    ("psbt", "run_setup_ceremony", None),
    ("registry", "Registry.export_snapshot", _bytes_out),
    ("registry", "Registry.import_snapshot", _snapshot_in),
    ("destchain", "DestChain.advance", _advance),
    ("arbitration", "ArbitrationOracle.sync", _sync),
    ("arbitration", "ArbitrationOracle.verify_unbond_inputs", _verify_inputs),
    ("arbitration", "ArbitrationOracle.verify_rebalance_inputs", _verify_inputs),
    ("arbitration", "ArbitrationOracle.resolve_unbond_challenge", _resolve),
    ("arbitration", "ArbitrationOracle.resolve_rebalance", _resolve),
    ("attestation", "MockAttestationAuthority.issue", None),
    ("attestation", "Attestation.verify", None),
    ("actors", "World.tick", None),
    ("actors", "DepositorActor.step", None),
    ("actors", "TokenOperatorActor.step", None),
    ("actors", "OracleActor.step", None),
    ("harness", "build_world", None),
    ("harness", "compute_verdicts", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.breakdown: dict[str, Counter] = defaultdict(Counter)
        self.distinct: dict[str, set] = defaultdict(set)
        self.submitted: WeakKeyDictionary = WeakKeyDictionary()  # chain -> txid -> height
        self.waits: list[int] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, child ns]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._suspended = False

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "bsa_sim" or n.startswith("bsa_sim.")) and m is not None
        ]
        for module_name, qualname, hook in TARGETS:
            module = importlib.import_module(f"bsa_sim.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    wrapped = self._wrap(raw, name, hook)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Let the benchmark's own checks call into the program untraced."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span (one benchmark operation)."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, hook):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            start = clock()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            self._depth[name] += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._stack.pop()
                self._depth[name] -= 1
                if exc is not None:
                    self.breakdown[name + ".raised"][type(exc).__name__] += 1
                elif hook is not None:
                    hook(self, name, args, kwargs, result)
                end = clock()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if not self._depth[name]:
                    self.total_ns[name] += duration
                self.spans.append((span_id, parent, self.op, name, start, end))
                if self._stack:
                    self._stack[-1][1] += duration

        return traced
