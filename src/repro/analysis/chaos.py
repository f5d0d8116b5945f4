"""The chaos matrix: every attack scenario under every fault spec.

Robustness is only credible when exercised: this module drives the §VI
attack roster through the deterministic fault-injection engine
(:mod:`repro.faults.plan`) and asserts the *degradation contract*:

* no fault -- injected or organic -- ever escapes as a host exception;
* every faulted sample yields a ``DEGRADED`` (or, for host-side kills,
  ``ERROR``) row whose :class:`~repro.faults.errors.FaultRecord` is
  populated;
* a faulted run replays to a byte-identical report, because every
  injection is journaled at an instruction-count trigger.

``repro chaos --smoke`` runs the full matrix plus a replay-determinism
probe and exits non-zero on any contract violation; CI runs it on every
supported Python.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.triage import (
    ATTACK_BUILDER_REGISTRY,
    STATUS_OK,
    TriageJob,
    TriageResult,
    execute_job,
    run_triage,
)
from repro.faults.plan import FaultPlan, FaultRule

#: All attacks, in registry (report) order.
ATTACKS: Tuple[str, ...] = tuple(ATTACK_BUILDER_REGISTRY)


@dataclass(frozen=True)
class FaultSpec:
    """One named column of the chaos matrix.

    :ivar always_fires: the spec's trigger is reachable in *every*
        attack scenario, so an ``OK`` row under it is a contract
        violation (the fault fired but nothing recorded it).  Specs
        whose trigger depends on scenario shape (packet rules on a
        keystroke-driven attack) leave this False.
    :ivar harness: host-layer columns (worker kills, snapshot
        corruption) are driven by a :mod:`repro.serve.harness` function
        instead of a guest-level :class:`FaultPlan`; this names it.
    :ivar requires_verdict: the injected fault must not cost detection
        -- a DEGRADED row whose verdict is False is a violation
        (degraded-but-MISSED).  Set on host-layer columns, where the
        sample itself runs unfaulted.
    """

    name: str
    plan: FaultPlan
    always_fires: bool
    description: str
    harness: Optional[str] = None
    requires_verdict: bool = False


def _specs() -> Dict[str, FaultSpec]:
    specs = [
        FaultSpec(
            name="packet-corrupt",
            plan=FaultPlan(rules=(FaultRule("packet", 1, "corrupt", arg=0xFF),)),
            always_fires=False,  # keystroke-driven attacks have no packets
            description="XOR the first inbound packet's payload with 0xFF",
        ),
        FaultSpec(
            name="packet-truncate",
            plan=FaultPlan(rules=(FaultRule("packet", 1, "truncate", arg=8),)),
            always_fires=False,
            description="keep only the first 8 bytes of the first packet",
        ),
        FaultSpec(
            name="packet-drop",
            plan=FaultPlan(rules=(FaultRule("packet", 1, "drop"),)),
            always_fires=False,
            description="suppress the first inbound packet entirely",
        ),
        FaultSpec(
            name="syscall-error",
            plan=FaultPlan(rules=(FaultRule("syscall", 3, "error"),)),
            always_fires=True,  # every scenario makes >= 3 syscalls
            description="the 3rd syscall returns ERR without running",
        ),
        FaultSpec(
            name="syscall-fault",
            plan=FaultPlan(
                rules=(FaultRule("syscall", 5, "fault", fault_kind="DeviceFault"),)
            ),
            always_fires=True,
            description="the 5th syscall raises an injected DeviceFault",
        ),
        FaultSpec(
            name="device-fault",
            plan=FaultPlan(
                rules=(
                    FaultRule(
                        "instret", 1500, "fault", fault_kind="DeviceFault",
                        detail="injected DMA ring failure",
                    ),
                )
            ),
            always_fires=True,  # every scenario retires > 1500 instructions
            description="a DeviceFault armed at machine tick 1500",
        ),
        FaultSpec(
            name="watchdog-instret",
            plan=FaultPlan(instruction_budget=1200),
            always_fires=True,
            description="instruction-budget watchdog capped at 1200 ticks",
        ),
        FaultSpec(
            name="watchdog-syscall-steps",
            plan=FaultPlan(syscall_step_budget=150),
            # Every attack's payload decode/copy loop retires > 150
            # instructions between syscalls (verified across the roster).
            always_fires=True,
            description="runaway-loop watchdog: 150 instructions/syscall",
        ),
        FaultSpec(
            name="taint-budget",
            plan=FaultPlan(max_tainted_bytes=512),
            # Every attack taints > 512 bytes already at guest boot
            # (export-table tags; smallest roster member seeds 798), so
            # this trips in the replay's *build* phase -- exercising the
            # outside-the-run-loop degradation path.
            always_fires=True,
            description="taint explosion guard: at most 512 tainted bytes",
        ),
        FaultSpec(
            name="worker-crash",
            plan=FaultPlan(),
            always_fires=True,  # the harness kills unconditionally
            harness="worker-crash",
            requires_verdict=True,
            description="SIGKILL a supervised pool worker mid-sample; "
                        "the restarted worker's rerun must still detect",
        ),
        FaultSpec(
            name="snapshot-corrupt",
            plan=FaultPlan(),
            always_fires=True,  # the harness flips a byte unconditionally
            harness="snapshot-corrupt",
            requires_verdict=True,
            description="flip one byte of frozen snapshot state; the "
                        "digest check must fire and the cold-boot "
                        "fallback must still detect",
        ),
    ]
    return {spec.name: spec for spec in specs}


#: Registry of chaos fault specs, by name.
FAULT_SPECS: Dict[str, FaultSpec] = _specs()


def chaos_jobs(
    attacks: Optional[Sequence[str]] = None,
    fault_names: Optional[Sequence[str]] = None,
    metrics: bool = False,
) -> List[TriageJob]:
    """The attack x fault job list (row-major: all faults per attack)."""
    attacks = list(attacks) if attacks else list(ATTACKS)
    fault_names = list(fault_names) if fault_names else list(FAULT_SPECS)
    jobs = []
    for attack in attacks:
        for fault_name in fault_names:
            spec = FAULT_SPECS[fault_name]
            params = {
                "attack": attack,
                "plan": spec.plan.to_json_dict(),
                "fault_name": fault_name,
            }
            if spec.harness is not None:
                params["harness"] = spec.harness
            if metrics:
                params["metrics"] = True
            jobs.append(
                TriageJob(
                    job_id=len(jobs),
                    name=f"{attack}+{fault_name}",
                    kind="chaos",
                    params=params,
                )
            )
    return jobs


def run_chaos_matrix(
    attacks: Optional[Sequence[str]] = None,
    fault_names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    metrics: bool = False,
) -> List[TriageResult]:
    """Execute the matrix through the triage engine (pool-compatible)."""
    return run_triage(
        chaos_jobs(attacks, fault_names, metrics=metrics),
        jobs=jobs,
        timeout=timeout,
    )


def smoke_violations(results: Sequence[TriageResult]) -> List[str]:
    """Contract violations in a chaos-matrix run (empty = pass).

    Checked per row:

    * ``ERROR`` is always a violation -- an injected fault must degrade
      the sample, never kill the job;
    * ``DEGRADED`` without a populated fault record is a violation (the
      row claims degradation it cannot explain);
    * ``OK`` under an ``always_fires`` spec is a violation (the fault
      fired but the degradation pipeline lost it);
    * a False verdict under a ``requires_verdict`` spec is a violation
      (the host-layer fault cost detection: degraded-but-MISSED).
    """
    violations = []
    for r in results:
        spec = FAULT_SPECS.get(r.extra.get("fault_name", "")) if r.extra else None
        if r.status == "ERROR":
            violations.append(f"{r.name}: ERROR ({r.error})")
        elif r.status == "DEGRADED":
            if not r.fault or not r.fault.get("kind"):
                violations.append(f"{r.name}: DEGRADED without a fault record")
            elif spec is not None and spec.requires_verdict and not r.verdict:
                violations.append(
                    f"{r.name}: {spec.name} must stay detected, but the "
                    "verdict is False (degraded-but-missed)"
                )
        elif r.status == STATUS_OK and spec is not None and spec.always_fires:
            violations.append(
                f"{r.name}: OK but {spec.name} should fire in every scenario"
            )
    return violations


def replay_determinism_probe(
    attack: str, fault_name: str
) -> Tuple[bool, str]:
    """Run one faulted cell twice; byte-compare the serialized reports.

    Proves the tentpole property end to end: fault triggers are pure
    functions of the instruction stream, so a faulted record/replay
    pipeline executed twice emits byte-identical report JSON (including
    the embedded fault record).
    """
    spec = FAULT_SPECS[fault_name]
    job = TriageJob(
        job_id=0,
        name=f"{attack}+{fault_name}",
        kind="chaos",
        params={
            "attack": attack,
            "plan": spec.plan.to_json_dict(),
            "fault_name": fault_name,
        },
    )
    first, second = execute_job(job), execute_job(job)
    blobs = [
        json.dumps(
            {"report": r.report, "fault": r.fault, "status": r.status},
            sort_keys=True,
        ).encode()
        for r in (first, second)
    ]
    if blobs[0] == blobs[1]:
        return True, f"{job.name}: {len(blobs[0])} bytes, identical"
    return False, f"{job.name}: reports differ across identical runs"


def render_chaos_matrix(results: Sequence[TriageResult]) -> str:
    """The attack x fault status grid, plus one line per faulted row."""
    attacks = []
    faults = []
    cell: Dict[Tuple[str, str], TriageResult] = {}
    for r in results:
        attack = r.extra.get("attack", r.name) if r.extra else r.name
        fault = r.extra.get("fault_name", "?") if r.extra else "?"
        if attack not in attacks:
            attacks.append(attack)
        if fault not in faults:
            faults.append(fault)
        cell[(attack, fault)] = r

    width = max((len(f) for f in faults), default=8)
    name_w = max((len(a) for a in attacks), default=10)
    lines = ["=== chaos matrix (attack x fault -> status) ==="]
    lines.append(
        " ".join([" " * name_w] + [f.rjust(width) for f in faults])
    )
    for attack in attacks:
        row = [attack.ljust(name_w)]
        for fault in faults:
            r = cell.get((attack, fault))
            row.append((r.status if r else "-").rjust(width))
        lines.append(" ".join(row))
    degraded = [r for r in results if r.status == "DEGRADED"]
    lines.append(
        f"-- {len(results)} cells: "
        f"{sum(1 for r in results if r.status == STATUS_OK)} OK, "
        f"{len(degraded)} DEGRADED, "
        f"{sum(1 for r in results if r.status == 'ERROR')} ERROR"
    )
    for r in degraded:
        fault = r.fault or {}
        lines.append(
            f"   {r.name}: {fault.get('kind')}: {fault.get('detail')}"
            f" [{fault.get('classification')}]"
        )
    return "\n".join(lines)
