"""The warm snapshot pool: pre-booted guests behind health checks.

One :class:`SnapshotPool` per worker process.  The first job for a
given attack captures its post-boot :class:`~repro.emulator.snapshot.
MachineSnapshot`; every later job forks a runnable guest from it at
sample-execution cost, skipping the scenario builder and kernel boot
entirely.  Between jobs the pool keeps up to *prefork* plugin-free
materialized guests per snapshot, so leasing usually costs only the
plugin arm + boot-event replay.

**The degradation contract.**  The pool never fails a job.  Any trouble
serving warm -- a snapshot failing its integrity digest, a capture
error, a health-check reject streak, the fork cap -- returns
``(None, FaultRecord(kind="DegradedPool"))`` from :meth:`lease`, and
the caller runs the job from a cold boot, attaching the record so the
row reports DEGRADED-but-detected rather than pretending nothing
happened.  ``DegradedPool`` is classified *degraded* (deterministic):
the cold-boot result is complete, so there is nothing to retry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.emulator.machine import Machine
from repro.emulator.snapshot import (
    MachineSnapshot,
    SnapshotError,
    snapshot_record,
    snapshot_replay,
)
from repro.faults.errors import FaultRecord
from repro.obs.metrics import NULL_REGISTRY


def _degraded(detail: str) -> FaultRecord:
    return FaultRecord(kind="DegradedPool", detail=detail)


class SnapshotPool:
    """Warm guests keyed by snapshot identity, with graceful degradation.

    :param prefork: materialized (plugin-free) guests to keep warm per
        snapshot; leasing takes one and back-fills lazily.
    :param max_health_rejects: consecutive health-check rejects for one
        snapshot before the pool stops trusting it and degrades.
    """

    def __init__(self, prefork: int = 2, max_health_rejects: int = 3,
                 metrics=None) -> None:
        self.prefork = max(0, prefork)
        self.max_health_rejects = max_health_rejects
        self._snapshots: Dict[str, MachineSnapshot] = {}
        self._warm: Dict[str, List[Machine]] = {}
        self._rejects: Dict[str, int] = {}
        self._quarantined: Dict[str, str] = {}
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._ctr_captures = registry.counter("pool.captures")
        self._ctr_leases = registry.counter("pool.leases.warm")
        self._ctr_degraded = registry.counter("pool.leases.degraded")
        self._ctr_rejects = registry.counter("pool.health_rejects")

    # -- snapshot registry -------------------------------------------------------

    def put(self, key: str, snapshot: MachineSnapshot) -> None:
        """Install a ready-made snapshot under *key* (tests, warm-up)."""
        self._snapshots[key] = snapshot
        self._warm.setdefault(key, [])
        self._rejects[key] = 0
        self._quarantined.pop(key, None)

    def get(self, key: str) -> Optional[MachineSnapshot]:
        return self._snapshots.get(key)

    def ensure(self, key: str, capture) -> MachineSnapshot:
        """The snapshot under *key*, capturing via *capture()* on first
        use.  Raises whatever *capture* raises -- :meth:`lease` wraps."""
        snap = self._snapshots.get(key)
        if snap is None:
            snap = capture()
            self._ctr_captures.inc()
            self.put(key, snap)
        return snap

    # -- warm stock --------------------------------------------------------------

    def _take_warm(self, key: str, snapshot: MachineSnapshot) -> Optional[Machine]:
        """A healthy pre-materialized guest, discarding unhealthy ones."""
        stock = self._warm.setdefault(key, [])
        while stock:
            machine = stock.pop()
            if snapshot.healthy(machine):
                self._rejects[key] = 0
                return machine
            self._ctr_rejects.inc()
            self._rejects[key] = self._rejects.get(key, 0) + 1
            if self._rejects[key] >= self.max_health_rejects:
                raise SnapshotError(
                    f"{self._rejects[key]} consecutive unhealthy guests "
                    f"for snapshot {key!r}"
                )
        return None

    def refill(self, key: str) -> int:
        """Top the warm stock for *key* back up to *prefork*; returns
        how many guests were materialized.  Cheap enough to call
        between jobs; digest-verifies once per refill."""
        snap = self._snapshots.get(key)
        if snap is None or key in self._quarantined:
            return 0
        stock = self._warm.setdefault(key, [])
        made = 0
        if len(stock) < self.prefork:
            snap.verify()
            while len(stock) < self.prefork:
                stock.append(snap.materialize(verify=False))
                made += 1
        return made

    # -- leasing -----------------------------------------------------------------

    def lease(self, key: str, capture=None, plugins: Sequence = (),
              metrics=None) -> Tuple[Optional[Machine], Optional[FaultRecord]]:
        """A runnable, armed guest for *key* -- or a degradation record.

        Returns ``(machine, None)`` on the warm path and ``(None,
        fault)`` when the pool cannot serve; never raises for
        snapshot-attributable trouble.  *capture* is the zero-argument
        snapshot factory used on first lease of *key*.
        """
        quarantine = self._quarantined.get(key)
        if quarantine is not None:
            self._ctr_degraded.inc()
            return None, _degraded(quarantine)
        try:
            if capture is not None:
                snapshot = self.ensure(key, capture)
            else:
                snapshot = self._snapshots[key]
        except KeyError:
            self._ctr_degraded.inc()
            return None, _degraded(f"no snapshot under key {key!r}")
        except Exception as exc:
            detail = f"snapshot capture failed for {key!r}: {exc}"
            self._quarantined[key] = detail
            self._ctr_degraded.inc()
            return None, _degraded(detail)
        try:
            machine = self._take_warm(key, snapshot)
            if machine is None:
                machine = snapshot.materialize(metrics=metrics)
            elif metrics is not None:
                machine.use_metrics(metrics)
            snapshot.arm(machine, plugins)
        except Exception as exc:
            # Digest mismatch, thaw failure, health-reject streak --
            # every fork from this snapshot would fail the same way.
            detail = f"{type(exc).__name__}: {exc}"
            self._quarantined[key] = detail
            self._warm[key] = []
            self._ctr_degraded.inc()
            return None, _degraded(detail)
        self._ctr_leases.inc()
        return machine, None

    def stats(self) -> dict:
        return {
            "snapshots": len(self._snapshots),
            "warm": {k: len(v) for k, v in self._warm.items()},
            "quarantined": dict(self._quarantined),
        }


# ----------------------------------------------------------------------
# the warm attack path (what execution="warm" triage jobs run)
# ----------------------------------------------------------------------

#: The per-process pool ``warm_attack_outcome`` uses.  Worker processes
#: are long-lived (the supervisor restarts, not recycles, them), so the
#: amortization window is the worker's whole lifetime.
_PROCESS_POOL: Optional[SnapshotPool] = None


def process_pool() -> SnapshotPool:
    global _PROCESS_POOL
    if _PROCESS_POOL is None:
        _PROCESS_POOL = SnapshotPool()
    return _PROCESS_POOL


def reset_process_pool() -> None:
    """Drop the per-process pool (tests)."""
    global _PROCESS_POOL
    _PROCESS_POOL = None


def attack_snapshot_key(attack: str, transient: bool = False) -> str:
    return f"attack:{attack}:transient={bool(transient)}"


def warm_attack_outcome(attack: str, transient: bool = False,
                        session=None, pool: Optional[SnapshotPool] = None):
    """Record/replay *attack* through the warm pool; degrade to cold.

    The warm path is bit-identical to the cold one (the snapshot
    differential harness holds it there), so the only observable
    difference on the happy path is dispatch latency.  On any pool
    trouble the job runs cold and the outcome carries the
    ``DegradedPool`` record -- DEGRADED-but-detected, never a lost job.
    """
    # Imported here, not at module top: triage imports stay acyclic
    # (triage -> serve.pool only inside execution="warm" calls).
    from repro.analysis.triage import (
        ATTACK_BUILDER_REGISTRY,
        _faros_outcome,
        record,
        replay,
    )
    from repro.faros import Faros
    from repro.obs.session import ObsSession

    if session is None:
        session = ObsSession.create(enabled=False)
    if pool is None:
        pool = process_pool()
    key = attack_snapshot_key(attack, transient)
    builder = ATTACK_BUILDER_REGISTRY[attack]

    def capture() -> MachineSnapshot:
        attack_obj = builder(transient=True) if transient else builder()
        return MachineSnapshot.capture(attack_obj.scenario, name=key)

    with session.span("boot"):
        machine, fault = pool.lease(key, capture=capture)
    if fault is not None:
        # Cold fallback: the full original path, plus the pool's record.
        with session.span("boot"):
            attack_obj = builder(transient=True) if transient else builder()
        with session.span("attack"):
            recording = record(attack_obj.scenario)
        faros = Faros(metrics=session.registry)
        with session.span("detection"):
            replay(recording, plugins=session.plugins_for(faros),
                   metrics=session.registry)
        outcome = _faros_outcome(faros, session=session)
        if outcome.fault is None:
            outcome.fault = fault.to_json_dict()
        outcome.extra["degraded_pool"] = fault.detail
        return outcome
    snapshot = pool.get(key)
    with session.span("attack"):
        recording = snapshot_record(snapshot, machine=machine)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        snapshot_replay(snapshot, recording,
                        plugins=session.plugins_for(faros),
                        metrics=session.registry)
    pool.refill(key)
    return _faros_outcome(faros, session=session)
