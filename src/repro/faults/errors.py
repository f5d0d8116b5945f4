"""The structured fault taxonomy (the substrate's failure vocabulary).

A whole-system analysis substrate fails in two fundamentally different
ways, and conflating them is how provenance collectors fall over in the
field (the DARPA TC lesson):

* **Host bugs** -- harness defects: malformed encodings built by the
  host, out-of-range physical addresses, assembler misuse.  These stay
  ordinary Python exceptions (``ValueError``, :class:`~repro.isa.errors.
  DecodeError`, ...) and *should* crash loudly.

* **Emulator faults** -- conditions a hostile or buggy *guest* can
  provoke, plus conditions the harness deliberately injects or imposes
  (watchdogs, taint budgets).  Every one of these derives from
  :class:`EmulatorFault`; the machine's run loop converts any that reach
  it into a :class:`FaultRecord` and stops gracefully, so one wedged or
  malicious sample degrades to a partial report instead of killing the
  triage fleet.

This module is deliberately dependency-free: every layer (``isa``,
``emulator``, ``guestos``, ``taint``) imports the taxonomy, so it must
import none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "EmulatorFault",
    "DeviceFault",
    "GuestResourceExhausted",
    "WatchdogExpired",
    "TaintBudgetExceeded",
    "InjectedFault",
    "FaultRecord",
    "FaultMarker",
    "CLASS_DEGRADED",
    "CLASS_RETRYABLE",
    "FAULT_CLASSIFICATION",
    "classify_fault_kind",
]


class EmulatorFault(Exception):
    """Base class for every guest-attributable or harness-imposed fault.

    :class:`~repro.isa.errors.GuestFault` joins this hierarchy via
    multiple inheritance, so ``except EmulatorFault`` at the machine's
    run loop is the single backstop for everything a sample can provoke.
    """

    #: True when the condition was planted by a :class:`~repro.faults.
    #: plan.FaultPlan` rather than arising organically.
    injected: bool = False


class DeviceFault(EmulatorFault):
    """A device model rejected an operation (DMA overflow, framebuffer
    overrun).  Guest-reachable through syscalls and packet delivery, so
    it must never masquerade as a host ``MemoryError``/``ValueError``."""

    def __init__(self, device: str, detail: str) -> None:
        super().__init__(f"{device}: {detail}")
        self.device = device
        self.detail = detail


class GuestResourceExhausted(EmulatorFault, MemoryError):
    """The guest ran the machine out of a finite resource (physical
    frames, address-space regions).

    Subclasses ``MemoryError`` so the kernel's existing graceful
    ``except MemoryError -> ERR`` sites keep failing just the syscall;
    the point of the dual parentage is the *escape* path: an exhaustion
    that no syscall handler absorbs now lands in the machine's
    ``except EmulatorFault`` backstop as a recorded fault instead of
    propagating out of the harness as a host crash.
    """

    def __init__(self, resource: str, detail: str) -> None:
        super().__init__(f"{resource} exhausted: {detail}")
        self.resource = resource
        self.detail = detail


class WatchdogExpired(EmulatorFault):
    """An in-guest watchdog budget ran out (runaway loop containment)."""

    def __init__(self, watchdog: str, budget: int, detail: str = "") -> None:
        message = f"{watchdog} watchdog expired (budget {budget})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.watchdog = watchdog
        self.budget = budget


class TaintBudgetExceeded(EmulatorFault):
    """Tag spread crossed the configured cap (taint-explosion guard)."""

    def __init__(self, resource: str, used: int, budget: int) -> None:
        super().__init__(f"taint budget exceeded: {used} {resource} > cap {budget}")
        self.resource = resource
        self.used = used
        self.budget = budget


class InjectedFault(EmulatorFault):
    """A fault planted by a :class:`~repro.faults.plan.FaultPlan` with no
    organic analog (the generic chaos hammer)."""

    injected = True

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


@dataclass(frozen=True)
class FaultMarker:
    """A journal entry marking an injected fault.

    Lives in the machine's delivery journal alongside packet/keystroke
    events, with the same stable-``repr`` contract, so a faulted run's
    replay is verified against the *same* injection points.
    """

    note: str

    def deliver(self, machine) -> None:  # pragma: no cover - markers are inert
        """Markers are journal entries, not deliverable events."""

    def __repr__(self) -> str:
        return f"FaultMarker({self.note!r})"


#: Triage classification labels.  Every fault kind maps to exactly one.
CLASS_DEGRADED = "degraded"
CLASS_RETRYABLE = "retryable"

#: kind name -> classification.  *Degraded* kinds are deterministic
#: properties of the sample (a retry would reproduce them bit-for-bit,
#: so triage reports a partial result instead of retrying).  *Retryable*
#: kinds are host-transient (a worker OOM-killed mid-job, a wall-clock
#: overrun on a loaded host) where a second attempt can legitimately
#: differ.
FAULT_CLASSIFICATION = {
    # guest-attributable / harness-imposed: deterministic, not retried
    "GuestFault": CLASS_DEGRADED,
    "PageFault": CLASS_DEGRADED,
    "InvalidInstruction": CLASS_DEGRADED,
    "DeviceFault": CLASS_DEGRADED,
    "GuestResourceExhausted": CLASS_DEGRADED,
    "WatchdogExpired": CLASS_DEGRADED,
    "TaintBudgetExceeded": CLASS_DEGRADED,
    "InjectedFault": CLASS_DEGRADED,
    "EmulatorFault": CLASS_DEGRADED,
    # A machine snapshot failed its integrity digest: the frozen state
    # is corrupt and every fork from it would be equally corrupt, so
    # there is nothing to retry -- the pool degrades the job to a cold
    # boot and reports how it got there.
    "SnapshotIntegrityError": CLASS_DEGRADED,
    # The warm pool could not serve a fork (corrupt snapshot, capture
    # failure, exhaustion past its degradation threshold) and the job
    # ran from a cold boot instead.  The *result* is complete -- the
    # record documents the degraded path, so retrying it would only
    # repeat the cold boot.
    "DegradedPool": CLASS_DEGRADED,
    # host-transient: worth another attempt (with backoff)
    "WorkerCrash": CLASS_RETRYABLE,
    "Timeout": CLASS_RETRYABLE,
    "HostError": CLASS_RETRYABLE,
    # A pool worker stopped publishing progress (wedged host process);
    # the supervisor killed and restarted it.  Host-side, so retryable.
    "WorkerStalled": CLASS_RETRYABLE,
    # The triage run was interrupted (SIGINT/SIGTERM) before this job
    # finished; the row carries the worker's last published progress.
    # Resubmitting after restart is exactly the right move.
    "Shutdown": CLASS_RETRYABLE,
}


def classify_fault_kind(kind: str) -> str:
    """The triage classification for *kind* (total: unknown kinds are
    host-transient by assumption -- only the taxonomy above is known to
    be deterministic)."""
    return FAULT_CLASSIFICATION.get(kind, CLASS_RETRYABLE)


@dataclass(frozen=True)
class FaultRecord:
    """The serializable account of one fault: what, where, and when.

    Carried on :class:`~repro.emulator.machine.RunStats` (aka
    ``MachineResult``), embedded in degraded
    :class:`~repro.faros.report.FarosReport` s, and attached to triage
    ``DEGRADED``/``ERROR`` rows so ``--json`` exports show where the
    guest was when things went wrong.
    """

    kind: str
    detail: str
    tick: Optional[int] = None
    pc: Optional[int] = None
    pid: Optional[int] = None
    process: Optional[str] = None
    syscall: Optional[int] = None
    injected: bool = False

    @property
    def classification(self) -> str:
        return classify_fault_kind(self.kind)

    @property
    def retryable(self) -> bool:
        return self.classification == CLASS_RETRYABLE

    def describe(self) -> str:
        where = []
        if self.tick is not None:
            where.append(f"tick={self.tick}")
        if self.pc is not None:
            where.append(f"pc={self.pc:#x}")
        if self.process is not None:
            where.append(f"process={self.process}")
        if self.syscall is not None:
            where.append(f"syscall={self.syscall}")
        suffix = f" [{', '.join(where)}]" if where else ""
        prefix = "injected " if self.injected else ""
        return f"{prefix}{self.kind}: {self.detail}{suffix}"

    def to_json_dict(self) -> dict:
        """JSON-shaped record; inverse of :meth:`from_json_dict`."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "tick": self.tick,
            "pc": self.pc,
            "pid": self.pid,
            "process": self.process,
            "syscall": self.syscall,
            "injected": self.injected,
            "classification": self.classification,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FaultRecord":
        """Rebuild a record (``classification`` is derived, not stored)."""
        return cls(
            kind=d["kind"],
            detail=d["detail"],
            tick=d.get("tick"),
            pc=d.get("pc"),
            pid=d.get("pid"),
            process=d.get("process"),
            syscall=d.get("syscall"),
            injected=d.get("injected", False),
        )

    @classmethod
    def from_exception(cls, exc: BaseException, machine=None) -> "FaultRecord":
        """A record for *exc*, with last-known machine state if given."""
        tick = pc = pid = process = syscall = None
        if machine is not None:
            tick = machine.now
            pc = machine.cpu.pc
            thread = getattr(machine, "_current_thread", None)
            if thread is not None:
                pid = thread.process.pid
                process = thread.process.name
            syscall = getattr(machine, "last_syscall", None)
        return cls(
            kind=type(exc).__name__,
            detail=str(exc),
            tick=tick,
            pc=pc,
            pid=pid,
            process=process,
            syscall=syscall,
            injected=bool(getattr(exc, "injected", False)),
        )
