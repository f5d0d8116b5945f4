"""End-to-end FAROS benchmark: roster, corpus and serve workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload roster --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``perfbench/README.md``).  Every run checks the program's
outputs and its deterministic work counters, prints every metric by
name with its unit, and ends with one JSON line.  The exit code is 1
when an output is wrong, a replay diverged or a counter drifted, and 2
when the program cannot be found or the benchmark itself failed.
"""

import time

T0 = time.perf_counter()  # "process start" for setup_s: before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".bench_run"

#: Every timed window takes at least this many analyses, so the p90
#: tail has at least ten samples beyond it.
MIN_SAMPLES = 100
TAIL_PCT = 90
#: Latency limit on the tail, on every workload (goodput counts the OK
#: analyses within it).
LATENCY_LIMIT_S = 2.0
#: serve: offered load (jobs/s) and worker count.  At 3 jobs/s the
#: workers are about a third busy, so a slower host does not tip the
#: queue into overload; the window is MIN_SAMPLES / SERVE_RATE seconds
#: when that is longer than --seconds.
SERVE_RATE = 3.0
SERVE_WORKERS = 2
#: serve: how long to wait for rows after the last send.
SERVE_DRAIN_S = 60.0
#: Traced run: passes over the roster, untraced then traced (one pass
#: elsewhere), and the prefix of the serve job mix replayed in-process
#: (three decks: every attack three times).
ROSTER_TRACE_PASSES = 2
SERVE_TRACE_DECKS = 3
#: Traced run on roster: repetitions of the fast-vs-reference control.
REFERENCE_REPS = 3

clock = time.perf_counter


def percentile(values, pct):
    """Nearest-rank percentile: with n >= 100 samples, p90 has at least
    ten samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Outcome:
    """Correctness, failure counts and metrics of one run."""

    def __init__(self) -> None:
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.samples = {}

    def wrong(self, what: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(what)

    def check(self, analysis, baseline) -> None:
        """Verdict and drift checks for one in-process analysis.  The
        first OK analysis of each input sets its expected counters."""
        for problem in analysis.problems:
            self.wrong(f"{analysis.key}: {problem}")
        if analysis.status != "OK":
            return
        expected = baseline.setdefault(analysis.key, analysis.counters)
        if analysis.counters != expected:
            diff = {k: (expected.get(k), v) for k, v in analysis.counters.items()
                    if expected.get(k) != v}
            self.wrong(f"{analysis.key}: work counters drifted {diff}")

    def count(self, analyses) -> None:
        self.attempted += len(analyses)
        self.failed += sum(1 for a in analyses if a.status != "OK")


# ----------------------------------------------------------------------
# in-process workloads: roster and corpus
# ----------------------------------------------------------------------

def timed_window(seconds, next_pass, analyze, baseline, out, whole_passes):
    """Run analyses until *seconds* have passed and at least
    MIN_SAMPLES are done; returns (analyses, elapsed seconds)."""
    analyses = []
    start = clock()
    done = False
    while not done:
        for item in next_pass():
            analysis = analyze(item)
            analyses.append(analysis)
            out.check(analysis, baseline)
            done = clock() - start >= seconds and len(analyses) >= MIN_SAMPLES
            if done and not whole_passes:
                break
    return analyses, clock() - start


def inproc_e2e(out, setup_s, analyses, elapsed):
    latencies = [a.latency_s for a in analyses]
    ok = [a for a in analyses if a.status == "OK"]
    good = sum(1 for a in ok if a.latency_s <= LATENCY_LIMIT_S)
    n = len(analyses)
    out.metrics.update({
        "setup_s": setup_s,
        "analyses_per_s": n / elapsed,
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": percentile(latencies, TAIL_PCT) * 1e3,
        "goodput_per_s": good / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": len(ok) / n,
    })
    for name in ("analyses_per_s", "latency_ms_p50", "latency_ms_tail", "goodput_per_s"):
        out.samples[name] = n
    out.count(analyses)


def traced_passes(items, analyze, key_of, baseline, out):
    """Run *items* untraced, then again with the wrappers installed.

    Returns (tracer, traced analyses, untraced seconds, traced seconds,
    interner hits, interner misses) -- the interner deltas cover the
    traced pass only."""
    from inproc import UNTRACED
    from repro.taint.intern import GLOBAL_INTERNER
    from spans import Tracer

    t0 = clock()
    untraced = [analyze(item, UNTRACED) for item in items]
    untraced_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    hits0, misses0 = GLOBAL_INTERNER.hits, GLOBAL_INTERNER.misses
    try:
        t0 = clock()
        traced = []
        for item in items:
            with tracer.span("bench.analysis", label=key_of(item)):
                traced.append(analyze(item, tracer))
        traced_s = clock() - t0
    finally:
        tracer.restore()
    hits = GLOBAL_INTERNER.hits - hits0
    misses = GLOBAL_INTERNER.misses - misses0
    for analysis in untraced + traced:
        out.check(analysis, baseline)
    out.count(untraced + traced)
    return tracer, traced, untraced_s, traced_s, hits, misses


def layer_metrics(out, tracer, traced, passes, untraced_s, traced_s, hits, misses):
    """Per-layer metrics for one pass over the workload's inputs."""
    per = 1.0 / passes
    totals = {}
    for analysis in traced:
        for key, value in analysis.counters.items():
            totals[key] = totals.get(key, 0) + value

    def count(key):
        return totals.get(key, 0) * per

    m = out.metrics
    for metric, span in (
        ("emulator.boot_ms", "emulator.boot"),
        ("emulator.record_ms", "emulator.record"),
        ("emulator.replay_ms", "emulator.replay"),
        ("isa.translate.run_ms", "isa.translate.run"),
        ("isa.translate.run_taint_ms", "isa.translate.run_taint"),
        ("isa.cpu.step_ms", "isa.cpu.step"),
        ("taint.tracker.on_insn_exec_ms", "taint.tracker.on_insn_exec"),
        ("taint.tracker.consume_ms", "taint.tracker.consume"),
        ("taint.intern.ms", "taint.intern"),
        ("taint.shadow.ms", "taint.shadow"),
        ("taint.pipeline.drain_ms", "taint.pipeline.drain"),
        ("faros.detector.observe_load_ms", "faros.detector.observe_load"),
        ("faros.report_ms", "faros.report"),
        ("serve.pool.lease_ms", "serve.pool.lease"),
        ("emulator.snapshot.record_ms", "emulator.snapshot.record"),
        ("emulator.snapshot.replay_ms", "emulator.snapshot.replay"),
        ("emulator.snapshot.capture_ms", "emulator.snapshot.capture"),
    ):
        m[metric] = tracer.self_ms(span) * per
    m["emulator.guest_instret"] = count("guest_instret")
    for key in ("executions", "translations", "invalidations", "taint_executions",
                "taint_single_steps", "taint_dirty_exits", "taint_footprint_delegations"):
        m[f"isa.translate.{key}"] = count(f"translate.{key}") + count(f"record.translate.{key}")
    for key in ("slow_retirements", "fast_retirements", "process_tag_appends"):
        m[f"taint.tracker.{key}"] = count(f"tracker.{key}")
    m["taint.intern.calls"] = count("intern.calls")
    m["taint.intern.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["taint.shadow.flag_cache_hits"] = count("shadow.flag_cache_hits")
    m["taint.shadow.flag_cache_misses"] = count("shadow.flag_cache_misses")
    m["taint.shadow.promotions"] = count("shadow.promotions")
    m["taint.pipeline.records"] = count("pipeline.records")
    m["faros.detector.loads_observed"] = tracer.count("faros.detector.observe_load") * per
    m["faros.detector.flags"] = count("detector.flags")
    m["bench.untraced_pass_ms"] = untraced_s * 1e3 * per
    m["bench.traced_pass_ms"] = traced_s * 1e3 * per
    m["bench.tracing_overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0


def reference_metrics(out):
    """The roster's fast-vs-reference replay control (untraced)."""
    from inproc import ATTACKS, reference_control

    control, problems = reference_control(REFERENCE_REPS)
    for problem in problems:
        out.wrong(problem)
    m = out.metrics
    for attack in ATTACKS:
        m[f"emulator.replay_total_ms.{attack}"] = control[attack]["fast"]
        m[f"taint.reference.replay_ms.{attack}"] = control[attack]["reference"]
    record_ms = sum(c["record"] for c in control.values())
    replay_ms = sum(c["fast"] for c in control.values())
    m["emulator.record_total_ms"] = record_ms
    m["emulator.replay_total_ms"] = replay_ms
    m["faros.slowdown"] = replay_ms / record_ms
    m["taint.reference.replay_ms"] = sum(c["reference"] for c in control.values())


def run_inproc(args, out, inputs, analyze, key_of, whole_passes, passes):
    """Warm up over *inputs* in their given order (so set-up does not
    depend on which input pays the cold costs), then run the timed
    window or the traced passes, each pass in a seeded order."""
    rng = random.Random(args.seed)

    def next_pass():
        return rng.sample(inputs, len(inputs))

    baseline = {}
    for item in inputs:
        out.check(analyze(item), baseline)
    if not args.trace:
        setup_s = clock() - T0
        analyses, elapsed = timed_window(args.seconds, next_pass, analyze, baseline,
                                         out, whole_passes)
        inproc_e2e(out, setup_s, analyses, elapsed)
        return None
    items = [item for _ in range(passes) for item in next_pass()]
    tracer, traced, *rest = traced_passes(items, analyze, key_of, baseline, out)
    layer_metrics(out, tracer, traced, passes, *rest)
    return tracer


def run_roster(args, out):
    from inproc import ATTACKS, UNTRACED, analyze_attack

    def analyze(name, tr=UNTRACED):
        # The traced run also reads the recording machine's counters.
        return analyze_attack(name, tr, probe_record=bool(args.trace))

    # Whole passes keep every attack's share of the samples at 1/7.
    tracer = run_inproc(args, out, ATTACKS, analyze, str, True, ROSTER_TRACE_PASSES)
    if args.trace:
        reference_metrics(out)
    return tracer


def run_corpus(args, out):
    from inproc import analyze_sample, corpus_specs

    return run_inproc(args, out, corpus_specs(args.seed), analyze_sample,
                      lambda spec: spec.name, False, 1)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def run_serve(args, out):
    from inproc import ATTACKS
    from serveload import Service, open_loop, schedule, views, warm_up

    n_jobs = max(MIN_SAMPLES, round(SERVE_RATE * args.seconds))
    plan = schedule(args.seed, ATTACKS, SERVE_RATE, n_jobs)
    service = Service(ROOT, RUN_DIR, SERVE_WORKERS)
    submit = listen = None
    try:
        submit = service.connect()
        listen = service.connect()
        warm_rows, first_id = warm_up(submit, ATTACKS, SERVE_WORKERS, first_id=1)
        service.worker_pids.update(r["worker_pid"] for r in warm_rows)
        setup_s = clock() - T0
        load = open_loop(submit, listen, plan, first_id, SERVE_DRAIN_S)
        service.worker_pids.update(r["worker_pid"] for _, r in load["rows"].values())
        health, metrics = views(submit)
        peak_rss = service.peak_rss_mb()
    except BaseException:
        sys.stderr.write(service.log_tail() + "\n")
        raise
    finally:
        service.stop(submit)
        for conn in (submit, listen):
            if conn is not None:
                conn.close()
    service.cleanup()
    if load["reader_error"] is not None and len(load["rows"]) < n_jobs:
        out.wrong(f"result stream broke: {load['reader_error']}")

    serial = serial_results(ATTACKS)
    for attack, ref in serial.items():
        if ref.status != "OK" or not ref.verdict:
            out.wrong(f"serial run of {attack}: status {ref.status}, verdict {ref.verdict}")
    ids = sorted(load["sends"])
    timed_rows = [load["rows"][i][1] for i in ids if i in load["rows"]]
    for row in warm_rows + timed_rows:
        check_row(row, serial, out)

    latencies = {i: load["rows"][i][0] - load["sends"][i] for i in ids if i in load["rows"]}
    lat = list(latencies.values())
    ok_ids = [i for i in latencies if load["rows"][i][1]["status"] == "OK"]
    # The measured window: first scheduled send to the last row.
    last = max(load["rows"][i][0] for i in latencies) if latencies else load["start"] + 1.0
    window = last - load["start"]
    out.attempted += n_jobs
    out.failed += n_jobs - len(ok_ids)
    out.metrics.update({
        "setup_s": setup_s,
        "analyses_per_s": len(lat) / window,
        "latency_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
        "latency_ms_tail": percentile(lat, TAIL_PCT) * 1e3,
        "goodput_per_s": sum(1 for i in ok_ids if latencies[i] <= LATENCY_LIMIT_S) / window,
        "peak_rss_mb": peak_rss,
        "ok_share": len(ok_ids) / n_jobs,
    })
    for name in ("analyses_per_s", "latency_ms_p50", "latency_ms_tail", "goodput_per_s"):
        out.samples[name] = len(lat)
    print(f"serve: {n_jobs} jobs at {SERVE_RATE:g}/s, rows over {window:.1f} s, "
          f"{len(load['rejected'])} rejected, {n_jobs - len(lat)} without a row")
    if not args.trace:
        return None

    m = out.metrics
    durations = {i: load["rows"][i][1]["duration_s"] for i in ok_ids}
    waits = [latencies[i] - durations[i] for i in ok_ids]
    counters = metrics["counters"]
    m["serve.worker_ms_p50"] = statistics.median(durations.values()) * 1e3 if durations else 0.0
    m["serve.wait_ms_p50"] = statistics.median(waits) * 1e3 if waits else 0.0
    m["serve.wait_ms_tail"] = percentile(waits, TAIL_PCT) * 1e3
    m["serve.retries"] = counters.get("serve.jobs.retried", 0)
    m["serve.worker_restarts"] = health["pool"]["restarts"]
    m["serve.rejected"] = counters.get("serve.jobs.rejected", 0)
    m["bench.generator_lag_ms_tail"] = percentile(load["lags"], TAIL_PCT) * 1e3
    return trace_serve_mix(plan, serial, out)


def serial_results(attacks):
    """In-process serial run of one warm job per attack (the reference
    every service row is checked against)."""
    from repro.analysis.triage import TriageJob, execute_job

    return {
        attack: execute_job(TriageJob(job_id=0, name=attack, kind="attack",
                                      params={"attack": attack, "execution": "warm"}))
        for attack in attacks
    }


def check_row(row, serial, out):
    """A service row against the serial result for the same job."""
    ref = serial[row["name"]]
    if row["status"] not in ("OK", "DEGRADED"):
        return  # counted as failed; carries no verdict
    if row["verdict"] != ref.verdict:
        out.wrong(f"serve job {row['job_id']} ({row['name']}): verdict "
                  f"{row['verdict']} != serial verdict {ref.verdict}")
    if row["status"] == "OK" and (
        row["instructions"] != ref.instructions
        or row["tainted_bytes"] != ref.tainted_bytes
        or row["report"]["chains"] != ref.report["chains"]
    ):
        out.wrong(f"serve job {row['job_id']} ({row['name']}): work counters or "
                  f"chains differ from the serial run")


def trace_serve_mix(plan, serial, out):
    """The start of the same job mix, replayed in-process through
    warm_attack_outcome (fresh snapshot pool per pass), untraced and
    then traced."""
    from inproc import UNTRACED, analyze_warm
    from repro.serve.pool import SnapshotPool

    pools = {}

    def analyze(attack, tr):
        pool = pools.setdefault(tr is UNTRACED, SnapshotPool())
        analysis = analyze_warm(attack, pool, tr)
        ref = serial[attack]
        if analysis.status == "OK" and (
            analysis.verdict != ref.verdict
            or analysis.counters["tracker.instructions"] != ref.instructions
        ):
            analysis.problems.append("in-process warm job differs from the serial run")
        return analysis

    items = [attack for _, attack in plan[:SERVE_TRACE_DECKS * len(serial)]]
    tracer, traced, *rest = traced_passes(items, analyze, str, {}, out)
    layer_metrics(out, tracer, traced, 1, *rest)
    return tracer


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

WORKLOADS = {"roster": run_roster, "corpus": run_corpus, "serve": run_serve}

#: Per-layer metrics measured on one workload only; the others report 0.
SERVE_CLIENT = ("serve.", "bench.generator_lag_ms_tail")
ROSTER_CONTROL = ("taint.reference.", "emulator.record_total_ms",
                  "emulator.replay_total_ms", "faros.slowdown")


def applies(metric: str, workload: str) -> bool:
    if metric.startswith(SERVE_CLIENT) and metric != "serve.pool.lease_ms":
        return workload == "serve"
    if metric.startswith(ROSTER_CONTROL):
        return workload == "roster"
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    out = Outcome()
    try:
        tracer = WORKLOADS[args.workload](args, out)
    except Exception:
        traceback.print_exc()
        return 2

    for name in units:
        if name not in out.metrics and not applies(name, args.workload):
            out.metrics[name] = 0.0
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": float(out.metrics[name]), "unit": units[name]} for name in units}
    for name, entry in metrics.items():
        n = out.samples.get(name)
        note = f"  (n={n})" if n else ""
        print(f"  {name:<44} {entry['value']:>14.4f} {entry['unit']}{note}")
    if tracer is not None:
        RUN_DIR.mkdir(exist_ok=True)
        path = RUN_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()))
        print(f"trace written to {path.relative_to(ROOT)}")
    for problem in out.problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if not out.problems else 1


if __name__ == "__main__":
    sys.exit(main())
