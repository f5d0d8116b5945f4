"""Parallel batch-triage engine with fault isolation.

The paper's evaluation (§VI, Tables II-V) analyses 100+ samples one at
a time; at production scale a triage fleet must run many analyses
concurrently and survive individual samples wedging or crashing.  This
module provides that layer:

* a **work unit** is a :class:`TriageJob` -- a picklable descriptor
  (kind + builder kwargs, never live machines/scenarios) that a worker
  resolves against :data:`JOB_KINDS` and executes via the deterministic
  record/replay substrate;
* :func:`run_triage` shards jobs across a ``multiprocessing`` worker
  pool with a per-sample wall-clock **timeout** and **bounded retry**
  on worker crash -- a sample that times out, or whose worker dies on
  every attempt, becomes an ``ERROR`` :class:`TriageResult` row while
  the rest of the batch completes;
* every outcome is a serializable :class:`TriageResult` (verdict,
  provenance-chain summary, exit code, timings, tracker stats) so the
  cross-process result channel is plain data, and the aggregator
  returns results in **submission order** -- parallel output is
  byte-identical to serial.

``jobs=1`` short-circuits to an in-process serial loop (no pool is
spawned); because both paths run the same :func:`execute_job` code on
the same job descriptors, verdicts and rendered tables cannot drift
between them.  See ``docs/triage_engine.md``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import operator
import os
import signal
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks import (
    build_bypassuac_injection_scenario,
    build_code_injection_scenario,
    build_process_hollowing_scenario,
    build_reflective_dll_scenario,
    build_reverse_tcp_dns_scenario,
)
from repro.baselines import CuckooSandbox
from repro.emulator.record_replay import record, replay
from repro.faults.errors import EmulatorFault, FaultRecord
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import (
    PROGRESS_SLOTS,
    SharedProgressSink,
    read_progress,
    set_progress_sink,
)
from repro.faros import Faros
from repro.faros.report import ProvenanceChain, ReportSummary
from repro.obs.session import ObsSession
from repro.workloads.corpus import SampleSpec
from repro.workloads.jit import build_jit_scenario

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"
#: The sample ran, but a fault cut it short or perturbed it: the report
#: covers a prefix of execution.  Deterministic guest faults land here
#: (not ERROR) and are never retried -- re-running replays the same
#: fault.
STATUS_DEGRADED = "DEGRADED"

#: Retry budget: a job may be re-dispatched this many times after a
#: worker crash before it is written off as an ``ERROR`` row (so the
#: default of 1 means "crashes twice -> ERROR").
DEFAULT_MAX_RETRIES = 1

#: Base delay before re-dispatching a crash-retried job; doubles per
#: additional attempt.  A crashed worker is a *host*-transient fault, so
#: backing off gives transient pressure (OOM killer, fork storms) room
#: to clear instead of immediately re-hitting it.
DEFAULT_RETRY_BACKOFF = 0.05

_POLL_INTERVAL = 0.1


# ----------------------------------------------------------------------
# job descriptors and results (the cross-process wire format)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TriageJob:
    """One picklable work unit: a builder name + kwargs, no live objects."""

    job_id: int
    name: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobOutcome:
    """What a job-kind runner returns from inside the worker."""

    verdict: bool
    exit_code: Optional[int] = None
    report: Optional[dict] = None
    instructions: int = 0
    tainted_bytes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Observability snapshot (``ObsSession.snapshot``) when the job ran
    #: with ``metrics=True``; plain data, so it survives the pipe.
    metrics: Optional[dict] = None
    #: Serialized :class:`~repro.faults.errors.FaultRecord` when the run
    #: was faulted (degraded), else None.
    fault: Optional[dict] = None


@dataclass
class TriageResult:
    """Serializable outcome of one job (OK or ERROR, never an exception)."""

    job_id: int
    name: str
    kind: str
    status: str
    verdict: bool
    error: Optional[str] = None
    exit_code: Optional[int] = None
    duration_s: float = 0.0
    attempts: int = 1
    worker_pid: int = 0
    instructions: int = 0
    tainted_bytes: int = 0
    report: Optional[dict] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[dict] = None
    #: Serialized fault record for DEGRADED rows (and for ERROR rows
    #: produced by timeouts/crashes, where it carries the watchdog's
    #: last-known guest state), else None.
    fault: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    def chains(self) -> List[ProvenanceChain]:
        """Provenance chains reconstructed from the serialized report."""
        if not self.report:
            return []
        return ReportSummary.from_json_dict(self.report).chains

    def to_json_dict(self) -> dict:
        """JSON-shaped result row; inverse of :meth:`from_json_dict`."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "verdict": self.verdict,
            "error": self.error,
            "exit_code": self.exit_code,
            "duration_s": self.duration_s,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "instructions": self.instructions,
            "tainted_bytes": self.tainted_bytes,
            "report": self.report,
            "extra": dict(self.extra),
            "metrics": self.metrics,
            "fault": self.fault,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TriageResult":
        return cls(
            **{k: d[k] for k in (
                "job_id", "name", "kind", "status", "verdict", "error",
                "exit_code", "duration_s", "attempts", "worker_pid",
                "instructions", "tainted_bytes", "report", "extra",
            )},
            metrics=d.get("metrics"),  # absent in pre-observability dicts
            fault=d.get("fault"),      # absent in pre-fault-taxonomy dicts
        )


# ----------------------------------------------------------------------
# job kinds (resolved by name inside the worker)
# ----------------------------------------------------------------------

JOB_KINDS: Dict[str, Callable[..., JobOutcome]] = {}


def job_kind(name: str):
    """Register a runner under *name* so job descriptors can refer to it."""

    def deco(fn):
        JOB_KINDS[name] = fn
        return fn

    return deco


#: Attack-scenario builders by name (the §VI attack roster).  Every
#: builder accepts ``transient=`` so the comparison matrix can reuse it.
ATTACK_BUILDER_REGISTRY: Dict[str, Callable[..., Any]] = {
    "reflective_dll_inject": build_reflective_dll_scenario,
    "reverse_tcp_dns": build_reverse_tcp_dns_scenario,
    "bypassuac_injection": build_bypassuac_injection_scenario,
    "process_hollowing": build_process_hollowing_scenario,
    "code_injection": build_code_injection_scenario,
    "darkcomet_injection": partial(build_code_injection_scenario, rat="darkcomet"),
    "njrat_injection": partial(build_code_injection_scenario, rat="njrat"),
}


def _faros_outcome(faros: Faros, exit_code: Optional[int] = None,
                   extra: Optional[Dict[str, Any]] = None,
                   include_report: bool = True,
                   session: Optional[ObsSession] = None) -> JobOutcome:
    with session.span("report") if session is not None else nullcontext():
        report = faros.report()
        report_dict = report.to_json_dict() if include_report else None
    # One snapshot per job, taken after the report span closes, injected
    # into both the report export and the outcome: ``repro stats`` and
    # the triage JSON channel must show the *same* numbers.
    snap = None
    if session is not None and session.enabled:
        snap = session.snapshot()
        if report_dict is not None:
            report_dict["metrics"] = snap
    return JobOutcome(
        verdict=faros.attack_detected,
        exit_code=exit_code,
        report=report_dict,
        instructions=faros.tracker.stats.instructions,
        tainted_bytes=faros.tracker.shadow.tainted_bytes,
        extra=extra or {},
        metrics=snap,
        fault=(
            faros.fault_record.to_json_dict()
            if faros.fault_record is not None
            else None
        ),
    )


@job_kind("attack")
def _run_attack_job(attack: str, transient: bool = False,
                    metrics: bool = False, sample_every: int = 1,
                    top_blocks: int = 10,
                    execution: Optional[str] = None) -> JobOutcome:
    """Record/replay one attack scenario with FAROS attached (§V-C).

    ``execution="warm"`` serves the job through the per-process
    :class:`~repro.serve.pool.SnapshotPool` -- fork-from-snapshot
    instead of a cold boot, bit-identical by the snapshot differential
    harness, degrading back to this cold path (with a ``DegradedPool``
    fault record) when the pool cannot serve.
    """
    session = ObsSession.create(enabled=metrics, sample_every=sample_every,
                                top_blocks=top_blocks)
    if execution == "warm":
        # Imported lazily: repro.serve imports triage at module level,
        # so this edge of the cycle must resolve at call time.
        from repro.serve.pool import warm_attack_outcome

        return warm_attack_outcome(attack, transient=transient,
                                   session=session)
    with session.span("boot"):
        builder = ATTACK_BUILDER_REGISTRY[attack]
        scenario = builder(transient=True) if transient else builder()
    with session.span("attack"):
        recording = record(scenario.scenario)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        replay(recording, plugins=session.plugins_for(faros),
               metrics=session.registry)
    return _faros_outcome(faros, session=session)


@job_kind("jit")
def _run_jit_job(name: str, workload: str,
                 metrics: bool = False, sample_every: int = 1) -> JobOutcome:
    """One Table III JIT workload (Java applet or AJAX site)."""
    session = ObsSession.create(enabled=metrics, sample_every=sample_every)
    with session.span("boot"):
        sample = build_jit_scenario(name, workload)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        sample.scenario.run(plugins=session.plugins_for(faros),
                            metrics=session.registry)
    return _faros_outcome(
        faros,
        include_report=faros.attack_detected,
        extra={"workload": workload,
               "expected_flag": sample.uses_native_binding},
        session=session,
    )


@job_kind("corpus")
def _run_corpus_job(metrics: bool = False, sample_every: int = 1,
                    **params) -> JobOutcome:
    """One Table IV corpus sample, rebuilt from its picklable spec."""
    session = ObsSession.create(enabled=metrics, sample_every=sample_every)
    with session.span("boot"):
        spec = SampleSpec.from_params(**params)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        machine = spec.scenario().run(plugins=session.plugins_for(faros),
                                      metrics=session.registry)
    proc = next(iter(machine.kernel.processes.values()))
    return _faros_outcome(
        faros,
        exit_code=proc.exit_code,
        include_report=faros.attack_detected,
        extra={"family": spec.family, "benign": spec.benign},
        session=session,
    )


@job_kind("comparison")
def _run_comparison_job(attack: str, transient: bool = False,
                        metrics: bool = False, sample_every: int = 1) -> JobOutcome:
    """One §VI-B row: the same attack under FAROS, Cuckoo, and malfind."""
    session = ObsSession.create(enabled=metrics, sample_every=sample_every)
    with session.span("boot"):
        builder = ATTACK_BUILDER_REGISTRY[attack]
        attack_obj = builder(transient=transient)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        attack_obj.scenario.run(plugins=session.plugins_for(faros),
                                metrics=session.registry)
    chains = faros.report().chains()
    chain = chains[0] if chains else None

    with session.span("baselines"):
        cuckoo_report = CuckooSandbox().analyze(attack_obj.scenario)
        malfind_detected, _hits = cuckoo_report.detect_injection_with_malfind()
    return _faros_outcome(
        faros,
        extra={
            "transient": transient,
            "has_netflow": bool(chain and chain.netflow),
            "has_provenance": bool(chain and chain.process_chain),
            "cuckoo_detects": cuckoo_report.detect_injection(),
            "malfind_detects": malfind_detected,
        },
        session=session,
    )


@job_kind("chaos")
def _run_chaos_job(attack: str, plan: dict, fault_name: str = "",
                   metrics: bool = False, sample_every: int = 1,
                   harness: Optional[str] = None) -> JobOutcome:
    """One chaos-matrix cell: record *attack* under an injected
    :class:`~repro.faults.plan.FaultPlan`, then replay with FAROS.

    The plan travels as its ``to_json_dict`` form so the descriptor
    stays picklable plain data like every other job kind.  Host-layer
    columns name a *harness* instead of carrying plan rules: those
    cells inject the fault around the sample (killing the worker,
    corrupting the snapshot) rather than inside the guest.
    """
    if harness is not None:
        # Imported lazily (serve imports triage at module level).
        from repro.serve.harness import run_harness

        outcome = run_harness(harness, attack)
        outcome.extra.setdefault("attack", attack)
        outcome.extra.setdefault("fault_name", fault_name)
        return outcome
    session = ObsSession.create(enabled=metrics, sample_every=sample_every)
    fault_plan = FaultPlan.from_json_dict(plan)
    extra = {"attack": attack, "fault_name": fault_name,
             "rules": [r.describe() for r in fault_plan.rules]}
    try:
        with session.span("boot"):
            scenario = fault_plan.apply(ATTACK_BUILDER_REGISTRY[attack]().scenario)
        with session.span("attack"):
            recording = record(scenario)
        faros = Faros(policy=fault_plan.taint_policy(), metrics=session.registry)
        with session.span("detection"):
            replay(recording, plugins=session.plugins_for(faros),
                   metrics=session.registry)
    except EmulatorFault as exc:
        # A fault outside the machine's run-loop backstop (e.g. a taint
        # budget tripping while the guest *boots*, before run() starts).
        # Still deterministic, still degraded -- just no partial report.
        return JobOutcome(
            verdict=False, extra=extra,
            fault=FaultRecord.from_exception(exc).to_json_dict(),
        )
    return _faros_outcome(faros, extra=extra, session=session)


@job_kind("pyfunc")
def _run_pyfunc_job(target: str, kwargs: Optional[dict] = None) -> JobOutcome:
    """Run ``module:qualname`` with *kwargs* -- the extensibility escape
    hatch (and the fault-injection hook the test suite uses)."""
    modname, _, qualname = target.partition(":")
    fn = operator.attrgetter(qualname)(importlib.import_module(modname))
    value = fn(**(kwargs or {}))
    if isinstance(value, JobOutcome):
        return value
    return JobOutcome(verdict=bool(value))


# ----------------------------------------------------------------------
# job execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------

def _error_result(job: TriageJob, attempts: int, reason: str,
                  duration_s: float = 0.0,
                  fault: Optional[dict] = None) -> TriageResult:
    return TriageResult(
        job_id=job.job_id, name=job.name, kind=job.kind,
        status=STATUS_ERROR, verdict=False, error=reason,
        duration_s=duration_s, attempts=attempts, worker_pid=os.getpid(),
        fault=fault,
    )


def execute_job(job: TriageJob, attempt: int = 1) -> TriageResult:
    """Run one job to a :class:`TriageResult`; exceptions become ERROR
    rows and emulator faults DEGRADED rows (graceful degradation),
    never propagate."""
    start = time.perf_counter()
    try:
        runner = JOB_KINDS[job.kind]
    except KeyError:
        return _error_result(job, attempt, f"unknown job kind {job.kind!r}")
    try:
        outcome = runner(**job.params)
    except EmulatorFault as exc:
        # A guest/emulation fault that escaped the machine's backstop
        # (e.g. raised during scenario construction).  Deterministic:
        # the row is DEGRADED, not ERROR, and is never retried.
        fault = FaultRecord.from_exception(exc)
        return TriageResult(
            job_id=job.job_id, name=job.name, kind=job.kind,
            status=STATUS_DEGRADED, verdict=False,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
            attempts=attempt, worker_pid=os.getpid(),
            fault=fault.to_json_dict(),
        )
    except Exception as exc:  # fault isolation: one bad sample != a dead run
        return _error_result(
            job, attempt, f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
        )
    # A runner that completed but observed a machine fault produces a
    # DEGRADED row: the report is real but covers a prefix of execution.
    status = STATUS_DEGRADED if outcome.fault is not None else STATUS_OK
    return TriageResult(
        job_id=job.job_id, name=job.name, kind=job.kind,
        status=status, verdict=outcome.verdict,
        exit_code=outcome.exit_code,
        duration_s=time.perf_counter() - start,
        attempts=attempt, worker_pid=os.getpid(),
        instructions=outcome.instructions,
        tainted_bytes=outcome.tainted_bytes,
        report=outcome.report, extra=outcome.extra,
        metrics=outcome.metrics,
        fault=outcome.fault,
    )


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------

def _mp_context():
    """Fork where available (cheap workers, inherited registries);
    spawn otherwise -- job kinds resolve by import either way."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context("spawn")


def _worker_main(conn, progress=None) -> None:
    """Worker loop: receive (job, attempt), send back a TriageResult.

    *progress* is the shared watchdog array the parent reads after a
    timeout kill; installing it as the process-global progress sink
    makes every machine this worker runs publish its last-known state
    (instruction count, PC, active syscall) into it.
    """
    if progress is not None:
        set_progress_sink(SharedProgressSink(progress))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        job, attempt = msg
        result = execute_job(job, attempt=attempt)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One pool member: a process plus the pipe the parent drives it by.

    The parent hands a worker exactly one job at a time, so when the
    process dies or overruns its deadline the parent knows precisely
    which job was in flight.
    """

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe()
        #: Shared last-known-state array the worker's machines publish
        #: into; survives the worker being killed, which is the point.
        self.progress = ctx.Array("q", PROGRESS_SLOTS, lock=False)
        self.proc = ctx.Process(
            target=_worker_main, args=(child, self.progress), daemon=True
        )
        self.proc.start()
        child.close()
        self.job: Optional[TriageJob] = None
        self.attempt = 0
        self.deadline: Optional[float] = None

    def submit(self, job: TriageJob, attempt: int,
               timeout: Optional[float]) -> None:
        # Clear stale progress so a kill during *this* job can't be
        # attributed guest state from the previous one.
        SharedProgressSink(self.progress).reset()
        self.conn.send((job, attempt))
        self.job, self.attempt = job, attempt
        self.deadline = time.monotonic() + timeout if timeout else None

    def last_progress(self) -> Optional[dict]:
        """Last guest state the worker published, or None if none yet."""
        return read_progress(self.progress)

    def finish(self) -> None:
        self.job, self.attempt, self.deadline = None, 0, None

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(timeout=5.0)
        finally:
            self.conn.close()

    def close(self) -> None:
        try:
            self.conn.send(None)
            self.conn.close()
            self.proc.join(timeout=1.0)
        except (BrokenPipeError, OSError):
            pass
        if self.proc.is_alive():  # pragma: no cover - stuck shutdown
            self.proc.kill()
            self.proc.join(timeout=1.0)


def _wait_budget(workers: Sequence[_Worker], now: float) -> float:
    deadlines = [w.deadline - now for w in workers if w.deadline is not None]
    if not deadlines:
        return _POLL_INTERVAL
    return max(0.0, min(min(deadlines), _POLL_INTERVAL))


def _kill_fault(kind: str, detail: str,
                progress: Optional[dict]) -> FaultRecord:
    """A host-side fault record, enriched with the watchdog's last-known
    guest state (published into shared memory, so it survives the kill)."""
    progress = progress or {}
    return FaultRecord(
        kind=kind, detail=detail,
        tick=progress.get("tick"), pc=progress.get("pc"),
        syscall=progress.get("syscall"),
    )


def _run_pool(jobs_list: Sequence[TriageJob], jobs: int,
              timeout: Optional[float], max_retries: int,
              retry_backoff: float,
              drain_timeout: float = 5.0) -> Dict[int, TriageResult]:
    ctx = _mp_context()
    # Entries are (job, attempt, ready_at): a retried job only becomes
    # dispatchable once its backoff delay has elapsed.
    pending = deque((job, 1, 0.0) for job in jobs_list)
    results: Dict[int, TriageResult] = {}
    workers = [_Worker(ctx) for _ in range(max(1, min(jobs, len(jobs_list))))]

    # Graceful shutdown: SIGINT/SIGTERM stops dispatching and switches
    # to a bounded drain instead of tearing the pool down mid-flight.
    # Handlers only install on the main thread (signal rules); elsewhere
    # the pool simply never sees the flag, which is the old behavior.
    interrupted = threading.Event()
    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(
                signum, lambda *_args: interrupted.set()
            )
    except ValueError:  # pragma: no cover - not on the main thread
        previous_handlers = {}

    def drain() -> None:
        """The SIGINT/SIGTERM path: give in-flight workers a deadline,
        flush what completes, and turn everything else into ERROR rows
        that carry each worker's last published guest state -- partial
        results in submission order instead of a dropped batch."""
        deadline = time.monotonic() + drain_timeout
        while (time.monotonic() < deadline
               and any(w.job is not None for w in workers)):
            busy_conns = [w.conn for w in workers if w.job is not None]
            ready = _connection_wait(
                busy_conns,
                timeout=max(0.0, min(_POLL_INTERVAL,
                                     deadline - time.monotonic())),
            )
            for conn in ready:
                w = next(w for w in workers if w.conn is conn)
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    # Crashed while draining: no retries during
                    # shutdown, record what we know.
                    results[w.job.job_id] = _error_result(
                        w.job, w.attempt, "worker died during shutdown drain",
                        fault=_kill_fault("Shutdown", "worker died during drain",
                                          w.last_progress()).to_json_dict(),
                    )
                    w.kill()
                    w.job = None
                    continue
                results[result.job_id] = result
                w.finish()
        for w in workers:
            if w.job is None:
                continue
            progress = w.last_progress()
            results[w.job.job_id] = _error_result(
                w.job, w.attempt,
                f"interrupted: shutdown drain deadline ({drain_timeout:g}s) "
                "expired with the job in flight",
                fault=_kill_fault(
                    "Shutdown", "killed at shutdown drain deadline", progress,
                ).to_json_dict(),
            )
            w.kill()
            w.job = None
        for job, attempt, _ready_at in pending:
            results.setdefault(job.job_id, _error_result(
                job, attempt, "interrupted: job was never dispatched",
                fault=FaultRecord(
                    kind="Shutdown", detail="pending at shutdown",
                ).to_json_dict(),
            ))
        pending.clear()

    def next_ready():
        now = time.monotonic()
        for idx, (job, attempt, ready_at) in enumerate(pending):
            if ready_at <= now:
                del pending[idx]
                return job, attempt
        return None

    def requeue(job: TriageJob, attempt: int) -> None:
        delay = retry_backoff * (2 ** (attempt - 2)) if retry_backoff else 0.0
        pending.appendleft((job, attempt, time.monotonic() + delay))

    try:
        while pending or any(w.job is not None for w in workers):
            if interrupted.is_set():
                drain()
                break
            # Dispatch: keep every idle worker fed with ready jobs.
            for i, w in enumerate(workers):
                if w.job is not None:
                    continue
                entry = next_ready()
                if entry is None:
                    break
                job, attempt = entry
                try:
                    w.submit(job, attempt, timeout)
                except (BrokenPipeError, OSError):
                    # Worker died while idle: replace it, keep the job.
                    w.kill()
                    workers[i] = w = _Worker(ctx)
                    w.submit(job, attempt, timeout)
            busy = {w.conn: (i, w) for i, w in enumerate(workers)
                    if w.job is not None}
            now = time.monotonic()
            if busy:
                ready = _connection_wait(
                    list(busy),
                    timeout=_wait_budget([w for _, w in busy.values()], now),
                )
            else:
                # Nothing in flight: everything pending is backing off.
                time.sleep(min(_POLL_INTERVAL, retry_backoff or _POLL_INTERVAL))
                ready = []
            for conn in ready:
                i, w = busy[conn]
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    # Crash mid-job (the pipe died with the process).
                    job, attempt = w.job, w.attempt
                    exitcode = w.proc.exitcode
                    progress = w.last_progress()
                    w.kill()
                    workers[i] = _Worker(ctx)
                    if attempt > max_retries:
                        results[job.job_id] = _error_result(
                            job, attempt,
                            f"worker died (exit code {exitcode}) on "
                            f"attempt {attempt}/{max_retries + 1}",
                            fault=_kill_fault(
                                "WorkerCrash",
                                f"worker exit code {exitcode}",
                                progress,
                            ).to_json_dict(),
                        )
                    else:
                        requeue(job, attempt + 1)
                else:
                    results[result.job_id] = result
                    w.finish()
            # Enforce per-sample wall-clock deadlines.  Timeouts are
            # terminal (never retried): with a deterministic guest, the
            # re-run would hit the same wall.
            now = time.monotonic()
            for i, w in enumerate(workers):
                if w.job is None or w.deadline is None or now < w.deadline:
                    continue
                job, attempt = w.job, w.attempt
                progress = w.last_progress()
                w.kill()
                workers[i] = _Worker(ctx)
                results[job.job_id] = _error_result(
                    job, attempt,
                    f"timeout: exceeded {timeout:g}s wall clock",
                    duration_s=timeout or 0.0,
                    fault=_kill_fault(
                        "Timeout",
                        f"exceeded {timeout:g}s wall clock",
                        progress,
                    ).to_json_dict(),
                )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        for w in workers:
            if w.job is not None:
                w.kill()
            else:
                w.close()
    return results


def run_triage(
    jobs_list: Sequence[TriageJob],
    jobs: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    drain_timeout: float = 5.0,
) -> List[TriageResult]:
    """Execute *jobs_list*, returning one result per job in submission
    order.

    ``jobs=1`` runs everything in-process (no pool, no timeout
    enforcement -- there is no worker to kill).  ``jobs>1`` shards the
    batch over that many worker processes; *timeout* bounds each
    sample's wall clock, *max_retries* bounds re-dispatch after a
    worker crash, and *retry_backoff* is the base delay before a
    crash-retried job is re-dispatched (doubling per extra attempt).
    Only host-transient faults (worker crashes) are retried; timeouts
    and deterministic guest faults (DEGRADED rows) are not.

    On SIGINT/SIGTERM the pool stops dispatching, gives in-flight
    workers *drain_timeout* seconds to finish, and converts whatever
    remains (killed in-flight jobs, never-dispatched pending jobs)
    into ERROR rows with ``Shutdown`` fault records carrying each
    worker's last published guest state -- the batch still comes back
    complete and in submission order.
    """
    if jobs <= 1:
        return [execute_job(job) for job in jobs_list]
    results = _run_pool(jobs_list, jobs, timeout, max_retries, retry_backoff,
                        drain_timeout=drain_timeout)
    return [results[job.job_id] for job in jobs_list]


# ----------------------------------------------------------------------
# batch builders (the experiment runners' job lists)
# ----------------------------------------------------------------------

def _with_metrics(params: Dict[str, Any], metrics: bool) -> Dict[str, Any]:
    """Only set the key when non-default, so descriptors for plain
    runs stay byte-identical to the pre-observability wire format."""
    if metrics:
        params["metrics"] = True
    return params


def attack_jobs(names: Sequence[str], metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=name, kind="attack",
                  params=_with_metrics({"attack": name}, metrics))
        for i, name in enumerate(names)
    ]


def jit_jobs(workloads: Sequence[Tuple[str, str]],
             metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=name, kind="jit",
                  params=_with_metrics(
                      {"name": name, "workload": workload}, metrics))
        for i, (name, workload) in enumerate(workloads)
    ]


def corpus_jobs(samples: Sequence[SampleSpec],
                metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=spec.name, kind="corpus",
                  params=_with_metrics(spec.job_params(), metrics))
        for i, spec in enumerate(samples)
    ]


def comparison_jobs(cases: Sequence[Tuple[str, bool]],
                    metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=attack, kind="comparison",
                  params=_with_metrics(
                      {"attack": attack, "transient": transient}, metrics))
        for i, (attack, transient) in enumerate(cases)
    ]
