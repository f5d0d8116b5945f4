"""Experiment runners for the paper's evaluation section (§VI).

The batch experiments (detection suite, Tables III/IV, the §VI-B
comparison) are built on the :mod:`repro.analysis.triage` engine: each
runner turns its roster into picklable job descriptors, hands them to
:func:`~repro.analysis.triage.run_triage`, and rebuilds its row type
from the serializable results.  ``jobs=1`` (the default) runs the batch
in-process; ``jobs=N`` shards it over N worker processes with identical
output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis.triage import (
    ATTACK_BUILDER_REGISTRY,
    TriageResult,
    attack_jobs,
    comparison_jobs,
    corpus_jobs,
    jit_jobs,
    run_triage,
)
from repro.attacks.metasploit import AttackScenario
from repro.emulator.record_replay import record, replay
from repro.faros import Faros, FarosReport
from repro.obs.session import ObsSession
from repro.faros.report import ProvenanceChain
from repro.workloads.behaviors import build_sample_scenario
from repro.workloads.corpus import SampleSpec, corpus_samples
from repro.workloads.jit import JIT_WORKLOADS, uses_native_binding

# ----------------------------------------------------------------------
# E1-E6: the six in-memory injection attacks (Figs. 7-10, Table II)
# ----------------------------------------------------------------------

#: The paper's six advanced in-memory-injecting malware samples.
ATTACK_BUILDERS: Tuple[Tuple[str, Callable[[], AttackScenario]], ...] = tuple(
    (name, ATTACK_BUILDER_REGISTRY[name])
    for name in (
        "reflective_dll_inject",
        "reverse_tcp_dns",
        "bypassuac_injection",
        "process_hollowing",
        "darkcomet_injection",
        "njrat_injection",
    )
)


@dataclass
class AttackAnalysis:
    """FAROS' verdict on one attack."""

    name: str
    attack: AttackScenario
    report: FarosReport
    detected: bool

    @property
    def chain(self):
        """The first provenance chain (the Figs. 7-10 diagram content)."""
        chains = self.report.chains()
        return chains[0] if chains else None


def run_attack_analysis(
    name: str, attack: AttackScenario, metrics: bool = False
) -> AttackAnalysis:
    """Record/replay one attack with FAROS attached (the §V-C workflow)."""
    session = ObsSession.create(enabled=metrics)
    with session.span("attack"):
        recording = record(attack.scenario)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        replay(recording, plugins=session.plugins_for(faros),
               metrics=session.registry)
    with session.span("report"):
        report = faros.report()
    if session.enabled:
        report.metrics = session.snapshot()
    return AttackAnalysis(
        name=name, attack=attack, report=report, detected=faros.attack_detected
    )


@dataclass
class AttackVerdict:
    """FAROS' verdict on one attack, as triaged through the engine.

    The render-facing twin of :class:`AttackAnalysis`: same ``name`` /
    ``detected`` / ``chain`` surface, but built from a serializable
    :class:`~repro.analysis.triage.TriageResult` so the suite can run
    in worker processes.
    """

    name: str
    detected: bool
    chains: List[ProvenanceChain]
    result: TriageResult
    error: Optional[str] = None

    @property
    def chain(self) -> Optional[ProvenanceChain]:
        return self.chains[0] if self.chains else None


def detection_suite(
    jobs: int = 1, timeout: Optional[float] = None, metrics: bool = False,
) -> List[AttackVerdict]:
    """E1-E6: all six attacks.  Expected: 6/6 detected."""
    job_list = attack_jobs([name for name, _ in ATTACK_BUILDERS], metrics=metrics)
    return [
        AttackVerdict(
            name=r.name,
            detected=r.verdict,
            chains=r.chains(),
            result=r,
            error=r.error,
        )
        for r in run_triage(job_list, jobs=jobs, timeout=timeout)
    ]


def table2_analysis(metrics: bool = False) -> AttackAnalysis:
    """E5: the Table II reflective-DLL analysis, with its full report."""
    return run_attack_analysis(
        "reflective_dll_inject",
        ATTACK_BUILDER_REGISTRY["reflective_dll_inject"](),
        metrics=metrics,
    )


def table2_output() -> str:
    """E5: the Table II-style FAROS output for a reflective DLL injection."""
    return table2_analysis().report.render()


# ----------------------------------------------------------------------
# E7: Table III (JIT false positives)
# ----------------------------------------------------------------------

@dataclass
class JitResult:
    name: str
    kind: str
    flagged: bool
    expected_flag: bool
    error: Optional[str] = None
    result: Optional[TriageResult] = None


def jit_fp_experiment(
    jobs: int = 1, timeout: Optional[float] = None, metrics: bool = False,
) -> List[JitResult]:
    """E7: run all 20 Table III workloads under FAROS.

    Expected shape: exactly the two native-binding applets flagged
    (10% of the applet set; 2/20 of the JIT set), zero AJAX flags.
    """
    results = run_triage(
        jit_jobs(JIT_WORKLOADS, metrics=metrics),
        jobs=jobs, timeout=timeout,
    )
    return [
        JitResult(
            name=name,
            kind=kind,
            flagged=r.verdict,
            expected_flag=uses_native_binding(name, kind),
            error=r.error,
            result=r,
        )
        for (name, kind), r in zip(JIT_WORKLOADS, results)
    ]


# ----------------------------------------------------------------------
# E8: Table IV (corpus false positives)
# ----------------------------------------------------------------------

@dataclass
class CorpusResult:
    sample: SampleSpec
    flagged: bool
    exit_code: Optional[int]
    error: Optional[str] = None
    result: Optional[TriageResult] = None


def select_corpus_samples(limit: Optional[int] = None) -> List[SampleSpec]:
    """The corpus roster, family-balanced when *limit* trims it.

    With *limit*, the first variant of every family (malware and
    benign) comes first, then further variants -- so quick runs still
    cover every behaviour composition.
    """
    samples = corpus_samples()
    if limit is None:
        return samples
    seen_families = set()
    firsts, rest = [], []
    for spec in samples:
        if spec.family in seen_families:
            rest.append(spec)
        else:
            seen_families.add(spec.family)
            firsts.append(spec)
    return (firsts + rest)[:limit]


def corpus_fp_experiment(
    limit: Optional[int] = None, jobs: int = 1,
    timeout: Optional[float] = None, metrics: bool = False,
) -> List[CorpusResult]:
    """E8: the 90-malware + 14-benign corpus.  Expected: zero flags.

    The bench runs all 104; unit tests pass a *limit* for a
    family-balanced subset (see :func:`select_corpus_samples`).
    """
    samples = select_corpus_samples(limit)
    results = run_triage(
        corpus_jobs(samples, metrics=metrics),
        jobs=jobs, timeout=timeout,
    )
    return [
        CorpusResult(
            sample=spec,
            flagged=r.verdict,
            exit_code=r.exit_code,
            error=r.error,
            result=r,
        )
        for spec, r in zip(samples, results)
    ]


def fp_rate(flag_count: int, total: int) -> float:
    """False-positive rate as a percentage."""
    return 100.0 * flag_count / total if total else 0.0


# ----------------------------------------------------------------------
# E9: Table V (performance overhead)
# ----------------------------------------------------------------------

#: The paper's Table V applications, mapped to our corpus behaviours.
#: Each gets extra compute rounds so replay time is dominated by
#: executed instructions rather than machine setup, with the heavier
#: RATs doing proportionally more work (matching the paper's
#: observation that complex behaviour costs more under FAROS).
OVERHEAD_APPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("Skype", ("idle", "run", "audio_record") + ("run",) * 8),
    ("Team Viewer", ("idle", "run", "remote_desktop") + ("run",) * 8),
    ("Bozok", ("idle", "run", "audio_record", "file_transfer", "keylogger", "remote_desktop") + ("run",) * 16),
    ("Spygate", ("idle", "run", "audio_record", "keylogger", "remote_desktop", "upload", "download") + ("run",) * 20),
    ("Pandora", ("idle", "run", "audio_record", "file_transfer", "keylogger", "remote_desktop", "upload") + ("run",) * 24),
    ("Remote Utility", ("idle", "run", "file_transfer", "remote_desktop", "download") + ("run",) * 12),
)


@dataclass
class OverheadRow:
    """One Table V row: replay cost without vs. with FAROS."""

    application: str
    replay_seconds: float
    faros_seconds: float
    instructions: int

    @property
    def slowdown(self) -> float:
        return self.faros_seconds / self.replay_seconds if self.replay_seconds else 0.0


def overhead_experiment(repeat: int = 3) -> List[OverheadRow]:
    """E9: wall-clock replay cost with and without the FAROS plugin.

    Machine construction happens outside the timed window -- the
    measured quantity is replay *execution*, matching how the paper
    times PANDA replays.  Absolute numbers depend on the host; the
    paper-shape claims are (a) FAROS is a multi-x slowdown on every
    workload and (b) overhead grows with behavioural complexity.
    """
    rows = []
    for app, behaviors in OVERHEAD_APPS:
        scenario = build_sample_scenario(
            app, behaviors, variant=0, max_instructions=2_000_000
        )

        def plain():
            machine = scenario.build(())
            start = time.perf_counter()
            machine.run(scenario.max_instructions)
            return time.perf_counter() - start

        insns_box = {}

        def with_faros():
            faros = Faros()
            machine = scenario.build((faros,))
            start = time.perf_counter()
            machine.run(scenario.max_instructions)
            insns_box["n"] = faros.tracker.stats.instructions
            return time.perf_counter() - start

        plain_time = _best_time(plain, repeat)
        faros_time = _best_time(with_faros, repeat)
        rows.append(
            OverheadRow(
                application=app,
                replay_seconds=plain_time,
                faros_seconds=faros_time,
                instructions=insns_box.get("n", 0),
            )
        )
    return rows


def _best_time(fn: Callable[[], float], repeat: int) -> float:
    """Best (minimum) of *repeat* timed runs.  *fn* measures one run and
    returns its seconds -- machine construction stays outside the timed
    window, matching how the paper times PANDA replays."""
    return min(fn() for _ in range(max(repeat, 1)))


# ----------------------------------------------------------------------
# E10: comparison with CuckooBox (§VI-B)
# ----------------------------------------------------------------------

@dataclass
class ComparisonRow:
    """One attack's outcome across the three tools."""

    attack: str
    transient: bool
    faros_detects: bool
    faros_has_netflow: bool
    faros_has_provenance: bool
    cuckoo_detects: bool
    malfind_detects: bool
    error: Optional[str] = None
    result: Optional[TriageResult] = None


#: The §VI-B attack classes (persistent first, transient variants after).
COMPARISON_CASES: Tuple[Tuple[str, bool], ...] = (
    ("reflective_dll_inject", False),
    ("process_hollowing", False),
    ("code_injection", False),
    ("reflective_dll_inject", True),
    ("process_hollowing", True),
    ("code_injection", True),
)


def comparison_matrix(
    include_transient: bool = True, jobs: int = 1,
    timeout: Optional[float] = None, metrics: bool = False,
) -> List[ComparisonRow]:
    """E10: FAROS vs Cuckoo vs Cuckoo+malfind on the attack classes."""
    cases = [c for c in COMPARISON_CASES if include_transient or not c[1]]
    results = run_triage(
        comparison_jobs(cases, metrics=metrics),
        jobs=jobs, timeout=timeout,
    )
    return [
        ComparisonRow(
            attack=name,
            transient=transient,
            faros_detects=r.verdict,
            faros_has_netflow=bool(r.extra.get("has_netflow")),
            faros_has_provenance=bool(r.extra.get("has_provenance")),
            cuckoo_detects=bool(r.extra.get("cuckoo_detects")),
            malfind_detects=bool(r.extra.get("malfind_detects")),
            error=r.error,
            result=r,
        )
        for (name, transient), r in zip(cases, results)
    ]
