"""Deterministic chaos layer: seeded fault injection for storage seams.

The chaos suite (``tests/chaos``) needs to drive full
ingest-while-querying runs under *reproducible* fault schedules: the
same plan and seed must corrupt the same blob on the same call in every
run, or a failing chaos test cannot be replayed.  So nothing here draws
from global randomness — every decision is a pure function of the seed,
the rule and the call's index among the calls that rule matches,
exactly the trick :class:`~repro.reliability.RetryPolicy` uses for
jitter.  A rule counts only its own matches, so adding or removing a
statement it does not match leaves its schedule where it was.

Three seams are wrappable, matching the system's real failure domains:

* :meth:`FaultInjector.wrap_artifact_store` — the content-addressed
  pipeline store (I/O errors, latency; ``corrupt`` flips a byte of the
  on-disk blob so the store's *own* checksum/quarantine machinery is
  exercised end to end rather than simulated);
* :meth:`FaultInjector.wrap_shard_spec` — a sharded corpus' per-clip
  loaders (the shard failure domain of the query path);
* :meth:`FaultInjector.connect` — the SQLite catalog connection
  (``SQLITE_BUSY`` and I/O errors on statements), pluggable into
  :class:`~repro.db.database.VideoDatabase` via ``connection_factory``.

Faults raise the *real* exception types the production seams raise
(``OSError``, ``sqlite3.OperationalError: database is locked``,
:class:`~repro.errors.IntegrityError`), so the code under test cannot
tell an injected fault from a genuine one.
"""

from __future__ import annotations

import hashlib
import sqlite3
import time
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, IntegrityError
from repro.obs import get_telemetry
from repro.pipeline.store import ArtifactStore, DiskArtifactStore

__all__ = ["FaultRule", "FaultPlan", "FaultInjector"]

#: Fault kinds a rule may inject.
FAULT_KINDS = ("io-error", "busy", "corrupt", "latency")

#: Operation names the injector consults the plan for.
FAULT_OPS = ("store.load", "store.save", "store.has",
             "shard.load", "db.execute")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault schedule for one operation seam.

    ``key_substring`` restricts the rule to operations whose key
    (artifact key, clip id, SQL text) contains it, and the rule's
    schedule counts only the calls it matches.  ``rate`` fires
    probabilistically (hash of seed/op/match index — the same calls
    fire for the same seed, run after run); ``calls`` names explicit
    1-based match indexes that always fire.  ``after`` skips the first
    N matched calls — "healthy warm-up, then faults" schedules.
    ``limit`` caps how many times the rule fires in total (``None`` =
    unbounded): faults that *clear* after a while are how recovery
    paths get tested.
    """

    op: str
    kind: str
    rate: float = 0.0
    calls: tuple[int, ...] = ()
    key_substring: str = ""
    after: int = 0
    limit: int | None = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ConfigurationError(
                f"unknown fault op {self.op!r}; expected one of "
                f"{FAULT_OPS}")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"rate must be in [0, 1], got {self.rate}")
        if self.limit is not None and self.limit < 0:
            raise ConfigurationError(
                f"limit must be >= 0 or None, got {self.limit}")
        if self.latency_s < 0:
            raise ConfigurationError(
                f"latency_s must be >= 0, got {self.latency_s}")


class FaultPlan:
    """A seeded, ordered set of :class:`FaultRule`\\ s.

    Rules are consulted in order; the first one whose schedule fires
    for an operation wins.  The decision for the ``n``-th call a rule
    matches is a pure function of ``(seed, rule position, op, n)`` — no
    global RNG, so a chaos run replays exactly.
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = (),
                 *, seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)

    def _unit(self, rule_index: int, op: str, call_index: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{rule_index}:{op}:{call_index}"
            .encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)

    def decide(self, op: str, key: str, call_index: int,
               fired_so_far, matched_so_far=None) -> FaultRule | None:
        """The rule that fires for this call, if any.

        A rule reads ``after``, ``calls`` and ``rate`` against the
        call's index among the calls it matches (its ``op``, a key
        containing its ``key_substring``), so calls outside a rule's
        filter never move its schedule.  ``matched_so_far`` maps rule
        position -> calls matched so far and is advanced here; without
        it every rule takes ``call_index`` as that index.
        ``fired_so_far`` maps rule position -> times fired, so ``limit``
        caps can be enforced without the plan keeping state (the
        injector owns both counters).
        """
        fired = None
        for i, rule in enumerate(self.rules):
            if rule.op != op or rule.key_substring not in key:
                continue
            if matched_so_far is None:
                index = call_index
            else:
                index = matched_so_far[i] = matched_so_far.get(i, 0) + 1
            if fired is not None or index <= rule.after:
                continue
            if rule.limit is not None and fired_so_far.get(i, 0) >= rule.limit:
                continue
            if index in rule.calls or (
                    rule.rate and self._unit(i, op, index) < rule.rate):
                fired = rule
        return fired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


@dataclass
class InjectedFault:
    """One fault the injector actually fired (for test assertions)."""

    op: str
    key: str
    call_index: int
    kind: str


class FaultInjector:
    """Applies a :class:`FaultPlan` at the storage seams.

    One injector owns the per-op call counters, so wrapping several
    objects (a store, three shard loaders, the catalog connection) with
    the same injector yields one coherent, reproducible schedule.
    ``sleep`` is injectable so latency faults cost nothing in tests.
    """

    def __init__(self, plan: FaultPlan, *, sleep=time.sleep) -> None:
        self.plan = plan
        self._sleep = sleep
        self._calls: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._matched: dict[int, int] = {}
        #: Every fault fired, in order — the chaos suite asserts on it.
        self.injected: list[InjectedFault] = []
        self.enabled = True

    # ------------------------------------------------------------ core
    def check(self, op: str, key: str = "") -> str | None:
        """Count one call; raise/delay if the plan says so.

        Returns the fired kind for non-raising faults (``latency``,
        and ``corrupt`` when the caller implements the corruption
        itself), ``None`` when the call passes clean.
        """
        if not self.enabled:
            return None
        call_index = self._calls.get(op, 0) + 1
        self._calls[op] = call_index
        rule = self.plan.decide(op, key, call_index, self._fired,
                                self._matched)
        if rule is None:
            return None
        rule_index = self.plan.rules.index(rule)
        self._fired[rule_index] = self._fired.get(rule_index, 0) + 1
        self.injected.append(InjectedFault(op, key, call_index, rule.kind))
        obs = get_telemetry()
        obs.counter("faults.injected").inc(op=op, kind=rule.kind)
        if rule.kind == "latency":
            self._sleep(rule.latency_s)
            return "latency"
        if rule.kind == "io-error":
            raise OSError(f"injected I/O error ({op} #{call_index}, "
                          f"key={key!r})")
        if rule.kind == "busy":
            raise sqlite3.OperationalError(
                f"database is locked (injected, {op} #{call_index})")
        return "corrupt"

    def counts(self) -> dict[str, int]:
        """Calls seen per op (diagnostics for chaos assertions)."""
        return dict(self._calls)

    # ------------------------------------------------------- store seam
    def wrap_artifact_store(self, store: ArtifactStore) -> "FaultyStore":
        """Wrap a pipeline artifact store (load/save/has faults)."""
        return FaultyStore(store, self)

    # ------------------------------------------------------- shard seam
    def wrap_shard_spec(self, spec):
        """A copy of ``spec`` whose loader consults the plan first.

        Fires under op ``shard.load`` with the clip id as key, so a
        plan can fail one specific shard (``key_substring="clip-3"``)
        or any shard probabilistically.
        """
        inner = spec.loader

        def loader():
            self.check("shard.load", key=spec.clip_id)
            return inner()

        return replace(spec, loader=loader)

    def wrap_shard_specs(self, specs) -> list:
        return [self.wrap_shard_spec(spec) for spec in specs]

    # ---------------------------------------------------------- db seam
    def connect(self, path: str, **kwargs) -> "FaultyConnection":
        """A ``sqlite3.connect`` stand-in injecting statement faults.

        Pass as ``VideoDatabase(connection_factory=injector.connect)``;
        ``busy`` faults surface as ``sqlite3.OperationalError:
        database is locked``, which the catalog boundary translates to
        the retryable :class:`~repro.errors.DatabaseBusyError`.
        """
        return FaultyConnection(sqlite3.connect(path, **kwargs), self)


@dataclass
class _StoreCounters:
    corruptions: int = 0


class FaultyStore(ArtifactStore):
    """Artifact store proxy that consults a :class:`FaultInjector`.

    ``corrupt`` faults on ``load`` flip one byte of the *on-disk* blob
    when the inner store is a :class:`DiskArtifactStore`, then delegate
    — the store's own checksum verification quarantines the blob and
    raises :class:`IntegrityError`, exercising the production recovery
    path.  Memory-backed stores get the error raised directly (there
    are no bytes to flip).
    """

    def __init__(self, inner: ArtifactStore, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self._counters = _StoreCounters()

    def _corrupt_blob(self, key: str) -> bool:
        """Flip one byte of the stored blob; False if not applicable."""
        if not isinstance(self.inner, DiskArtifactStore):
            return False
        blob = self.inner._blob(key)
        try:
            payload = bytearray(blob.read_bytes())
        except OSError:
            return False
        if not payload:
            return False
        payload[len(payload) // 2] ^= 0xFF
        blob.write_bytes(bytes(payload))
        self._counters.corruptions += 1
        return True

    def has(self, key: str) -> bool:
        self.injector.check("store.has", key=key)
        return self.inner.has(key)

    def load(self, key: str):
        fired = self.injector.check("store.load", key=key)
        if fired == "corrupt" and not self._corrupt_blob(key):
            raise IntegrityError(
                f"artifact {key!r} failed verification (injected "
                f"corruption)")
        return self.inner.load(key)

    def save(self, key: str, value, meta: dict | None = None) -> None:
        self.injector.check("store.save", key=key)
        self.inner.save(key, value, meta)

    def keys(self) -> list[str]:
        return self.inner.keys()

    def entries(self) -> list[dict]:
        return self.inner.entries()


class FaultyConnection:
    """SQLite connection proxy firing ``db.execute`` faults.

    Only statement entry points are intercepted (``execute`` /
    ``executemany`` / ``executescript`` / ``commit``); transaction
    context management and everything else delegate untouched, so the
    proxy behaves exactly like the real connection between faults.
    """

    def __init__(self, raw: sqlite3.Connection,
                 injector: FaultInjector) -> None:
        self._raw = raw
        self._injector = injector

    def execute(self, sql: str, params=()):
        self._injector.check("db.execute", key=sql)
        return self._raw.execute(sql, params)

    def executemany(self, sql: str, rows):
        self._injector.check("db.execute", key=sql)
        return self._raw.executemany(sql, rows)

    def executescript(self, script: str):
        self._injector.check("db.execute", key=script)
        return self._raw.executescript(script)

    def commit(self) -> None:
        self._injector.check("db.execute", key="COMMIT")
        self._raw.commit()

    def close(self) -> None:
        self._raw.close()

    def __enter__(self):
        self._raw.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._raw.__exit__(exc_type, exc, tb)

    def __getattr__(self, name):
        return getattr(self._raw, name)
