"""In-process analyses: one roster attack, one corpus sample, one warm job.

Each function runs one analysis the way the program's public API runs
it, times it, checks its output and reads the work counters the
program's objects expose.  *tr* is either :data:`UNTRACED` or a
:class:`~spans.Tracer`; both provide ``call`` and ``span``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.emulator.plugins import Plugin
from repro.emulator.record_replay import PacketEvent, ReplayDivergence, record, replay
from repro.faros import Faros
from repro.obs.metrics import NULL_REGISTRY
from repro.taint.intern import GLOBAL_INTERNER
from repro.workloads.corpus import SampleSpec, corpus_samples

ATTACKS = tuple(ATTACK_BUILDER_REGISTRY)

#: BlockTranslator counters read after each run.
TRANSLATE_COUNTERS = (
    "executions", "translations", "invalidations", "taint_executions",
    "taint_single_steps", "taint_dirty_exits", "taint_footprint_delegations",
)

#: Seed ``s`` shifts every corpus variant number by ``s * stride``.  The
#: Table IV roster uses variants 0..5 of each row, so any non-zero seed
#: draws held-out variants of the same rows.  Behaviours derive their
#: timings from the variant modulo 7 and 11; a stride of 7 * 11 keeps
#: those (and so each seed's amount of guest work) and changes the
#: payload and artifact contents.
HELD_OUT_STRIDE = 77

clock = time.perf_counter


class _Untraced:
    """The ``tr`` of an untraced run: plain calls, no spans."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name, label=""):
        return nullcontext()


UNTRACED = _Untraced()


class MachineProbe(Plugin):
    """Keeps the machine it saw stop, so its counters can be read after
    runs whose API does not return the machine.  It implements no
    per-instruction hook, so it leaves the execution tier unchanged."""

    name = "bench-probe"

    def __init__(self) -> None:
        super().__init__()
        self.machine = None

    def on_machine_stop(self, machine) -> None:
        self.machine = machine


@dataclass
class Analysis:
    """One finished (or failed) analysis."""

    key: str
    latency_s: float
    #: ``OK``, ``DEGRADED`` (the run carried a fault record) or ``ERROR``.
    status: str
    verdict: bool = False
    report: Optional[dict] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wrong outputs: a missed or false flag, a missing chain, a divergence.
    problems: List[str] = field(default_factory=list)


def interner_calls() -> int:
    """Memoised interner algebra calls so far (process-wide; use deltas)."""
    return GLOBAL_INTERNER.hits + GLOBAL_INTERNER.misses


def translator_counters(machine, prefix: str) -> Dict[str, int]:
    translator = machine.translator
    if translator is None:
        return {}
    return {f"{prefix}{k}": getattr(translator, k) for k in TRANSLATE_COUNTERS}


def work_counters(faros: Faros, machine, calls: int) -> Dict[str, int]:
    """The deterministic work counters of one FAROS-attached run."""
    stats = faros.tracker.stats
    shadow = faros.tracker.shadow
    counters = {
        "guest_instret": machine.now,
        "tracker.instructions": stats.instructions,
        "tracker.fast_retirements": stats.fast_retirements,
        "tracker.slow_retirements": stats.slow_retirements,
        "tracker.process_tag_appends": stats.process_tag_appends,
        "intern.calls": calls,
        "shadow.flag_cache_hits": shadow.summary_hits,
        "shadow.flag_cache_misses": shadow.summary_misses,
        "shadow.promotions": shadow.promotions,
        "pipeline.records": faros.pipeline.consumed_records,
        "detector.flags": len(faros.detector.flagged),
    }
    counters.update(translator_counters(machine, "translate."))
    return counters


def report_problems(report: dict, expect_flag: bool, expect_netflow: bool) -> List[str]:
    """What is wrong with one FAROS report, given the expected verdict."""
    if not expect_flag:
        return ["flagged a non-injecting sample"] if report["attack_detected"] else []
    if not report["attack_detected"]:
        return ["attack not flagged"]
    chains = report["chains"]
    problems = []
    if not any(c["process_chain"] for c in chains):
        problems.append("no process chain")
    if expect_netflow and not any(c["netflow"] or c["stitched_netflow"] for c in chains):
        problems.append("no netflow in any chain")
    return problems


def _report(faros: Faros) -> dict:
    return faros.report().to_json_dict()


def _status(fault) -> str:
    return "DEGRADED" if fault is not None else "OK"


def analyze_attack(name: str, tr=UNTRACED, probe_record: bool = False) -> Analysis:
    """Cold build, ``record()``, ``replay()`` with ``Faros()``, report."""
    calls0 = interner_calls()
    t0 = clock()
    try:
        attack = tr.call("emulator.boot", ATTACK_BUILDER_REGISTRY[name])
        probe = MachineProbe() if probe_record else None
        recording = tr.call("emulator.record", record, attack.scenario,
                            plugins=(probe,) if probe else ())
        faros = Faros()
        machine = tr.call("emulator.replay", replay, recording, plugins=[faros])
        report = tr.call("faros.report", _report, faros)
        t1 = clock()
    except ReplayDivergence as exc:
        return Analysis(name, clock() - t0, "ERROR", problems=[f"replay divergence: {exc}"])
    except Exception as exc:  # an analysis that raises is a failed analysis
        return Analysis(name, clock() - t0, "ERROR",
                        report={"error": f"{type(exc).__name__}: {exc}"})
    counters = work_counters(faros, machine, interner_calls() - calls0)
    counters["record.guest_instret"] = recording.final_instret
    if probe is not None:
        counters.update(translator_counters(probe.machine, "record.translate."))
    expect_netflow = any(isinstance(ev, PacketEvent) for _, ev in attack.scenario.events)
    return Analysis(
        name, t1 - t0, _status(faros.fault_record or recording.stats.fault),
        verdict=faros.attack_detected, report=report, counters=counters,
        problems=report_problems(report, True, expect_netflow),
    )


def corpus_specs(seed: int) -> List[SampleSpec]:
    """The 104 Table IV samples; non-zero seeds draw held-out variants."""
    specs = corpus_samples()
    if seed == 0:
        return specs
    offset = HELD_OUT_STRIDE * seed
    return [
        replace(s, variant=s.variant + offset, name=f"{s.family} #{s.variant + offset + 1}")
        for s in specs
    ]


def analyze_sample(spec: SampleSpec, tr=UNTRACED) -> Analysis:
    """``SampleSpec.scenario().run(plugins=(Faros(),))`` and its report."""
    calls0 = interner_calls()
    t0 = clock()
    try:
        scenario = tr.call("emulator.boot", spec.scenario)
        faros = Faros()
        machine = tr.call("emulator.replay", scenario.run, plugins=(faros,))
        report = tr.call("faros.report", _report, faros)
        t1 = clock()
    except Exception as exc:  # an analysis that raises is a failed analysis
        return Analysis(spec.name, clock() - t0, "ERROR",
                        report={"error": f"{type(exc).__name__}: {exc}"})
    return Analysis(
        spec.name, t1 - t0, _status(faros.fault_record),
        verdict=faros.attack_detected, report=report,
        counters=work_counters(faros, machine, interner_calls() - calls0),
        problems=report_problems(report, False, False),
    )


class ProbeSession:
    """A disabled observability session for ``warm_attack_outcome``.

    It attaches no registry and no profiler, so the job runs the same
    tiers as in a worker.  It keeps the job's Faros plugin and replay
    machine for the counters, and times the report phase as a span.
    """

    registry = NULL_REGISTRY
    enabled = False

    def __init__(self, tr) -> None:
        self.tr = tr
        self.faros: Optional[Faros] = None
        self.probe = MachineProbe()

    def span(self, name: str):
        return self.tr.span("faros.report") if name == "report" else nullcontext()

    def plugins_for(self, faros: Faros) -> list:
        self.faros = faros
        return [faros, self.probe]


def analyze_warm(attack: str, pool, tr=UNTRACED) -> Analysis:
    """One ``execution="warm"`` attack job, in-process, through *pool*.

    Its verdict is checked by the caller, against the serial verdict."""
    from repro.serve.pool import warm_attack_outcome

    calls0 = interner_calls()
    session = ProbeSession(tr)
    t0 = clock()
    try:
        outcome = warm_attack_outcome(attack, session=session, pool=pool)
    except Exception as exc:  # an analysis that raises is a failed analysis
        return Analysis(attack, clock() - t0, "ERROR",
                        report={"error": f"{type(exc).__name__}: {exc}"})
    t1 = clock()
    return Analysis(
        attack, t1 - t0, _status(outcome.fault), verdict=outcome.verdict,
        report=outcome.report,
        counters=work_counters(session.faros, session.probe.machine,
                               interner_calls() - calls0),
    )


def reference_control(reps: int = 3):
    """Per attack: median record, fast replay and reference replay ms.

    Each attack is recorded once per repetition and the recording is
    replayed with the fast tracker and with the reference oracle, in
    alternating order.  Returns ``(times, problems)``: the two trackers'
    verdicts must agree and every replay must verify.
    """
    from statistics import median

    from repro.taint.reference import ReferenceTaintTracker
    from repro.taint.tracker import TaintTracker

    out: Dict[str, Dict[str, float]] = {}
    problems: List[str] = []
    for name in ATTACKS:
        times: Dict[str, List[float]] = {"record": [], "fast": [], "reference": []}
        for rep in range(reps):
            scenario = ATTACK_BUILDER_REGISTRY[name]().scenario
            t0 = clock()
            recording = record(scenario)
            times["record"].append(clock() - t0)
            legs = [("fast", TaintTracker), ("reference", ReferenceTaintTracker)]
            if rep % 2:
                legs.reverse()
            verdicts = {}
            for leg, cls in legs:
                faros = Faros(tracker_cls=cls)
                t0 = clock()
                try:
                    replay(recording, plugins=[faros])
                except ReplayDivergence as exc:
                    problems.append(f"{name}: {leg} replay diverged: {exc}")
                times[leg].append(clock() - t0)
                verdicts[leg] = faros.attack_detected
            if verdicts["fast"] != verdicts["reference"]:
                problems.append(f"{name}: fast tracker verdict {verdicts['fast']} != "
                                f"reference verdict {verdicts['reference']}")
        out[name] = {leg: median(v) * 1e3 for leg, v in times.items()}
    return out, problems
