"""foldvote benchmark: seeded closed-loop workloads, end-to-end metrics
untraced, per-layer metrics from a traced run.

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --record bench/baseline.json

Run it from anywhere inside a checkout; it builds nothing and imports
foldvote from the checkout's src/. The last line of standard output is
one JSON object: correct, attempted, failed and metrics (end-to-end with
--trace 0, per-layer with --trace 1). `--workload all` runs every
workload both ways in child processes and prints every metric together
with the machine facts; `--record` also writes them to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
WORKLOADS = ("ingest", "aggregate", "audit", "cli")
SETUP_REPEATS = 3
PROBE_REPEATS = 5
# traced runs alternate untraced and traced jobs, at least this many each
TRACED_MIN_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

BUSY = (
    "pdb.parse",
    "contacts.c_alpha",
    "contacts.centroid",
    "contacts.heavy_min",
    "preferences.utility",
    "preferences.ordinal",
    "rules.may",
    "rules.borda",
    "rules.kemeny",
    "rules.utilitarian",
    "rules.dictator",
    "profiles.distance",
    "profiles.generate",
    "restrictions.find_axis",
    "directions.aggregate",
    "audit.exhaustive",
    "audit.sampled",
    "audit.coincidence",
    "audit.rule",
    "audit.verify",
)
COUNTS = (
    "pdb.atoms",
    "contacts.candidate_pairs",
    "contacts.instances",
    "rules.calls",
    "rules.pair_comparisons",
    "audit.rule_calls",
    "audit.fail_verdicts",
    "audit.pass_verdicts",
    "cli.report_bytes",
)
CLI_SUBCOMMANDS = ("extract", "rank", "synth", "aggregate", "audit", "restrict")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {f"{name}.busy_s": "s" for name in BUSY}
    units.update({name: "count" for name in COUNTS})
    units.update({
        "pdb.parse.us_per_atom": "us",
        "contacts.hit_ratio": "1",
        "audit.us_per_rule_call": "us",
        "audit.self_s": "s",
        "cli.interpreter_ms": "ms",
        "cli.import.numpy_ms": "ms",
        "cli.import.foldvote_ms": "ms",
    })
    units.update({f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS})
    units.update({"trace.overhead_s": "s", "fail_ratio": "1"})
    return units


def _import_foldvote() -> None:
    """Put the checkout's src/ first on the path and prove foldvote comes
    from there; anything else would measure the wrong program."""
    src = ROOT / "src"
    if not (src / "foldvote" / "__init__.py").is_file():
        sys.exit(f"error: no foldvote sources under {src}")
    sys.path.insert(0, str(src))
    import foldvote

    if Path(foldvote.__file__).resolve().parent != (src / "foldvote").resolve():
        sys.exit(f"error: foldvote imported from {foldvote.__file__}, not {src}")


def _make(name: str, work: Path):
    if name == "ingest":
        from ingest import Ingest

        return Ingest()
    if name == "aggregate":
        from aggregate import Aggregate

        return Aggregate()
    if name == "audit":
        from battery import Battery

        return Battery()
    from session import Session

    return Session(ROOT, work)


def _import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, capture_output=True, text=True,
    )
    return float(done.stdout)


def _facts(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or sha
        except OSError:
            pass
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from core import (
        MIN_JOBS, Calibration, Tally, median, percentile, run_job, tail_percentile, timed,
    )
    from spans import NullTracer, Tracer

    # One vCPU for the run and every child it starts, so each calibration
    # measures the CPU the operation it brackets runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = _make(name, work)
        cal = Calibration(wl.calibration)
        null = NullTracer()
        setup_tracer = Tracer() if traced else null
        setup_tracer.op = "setup"
        imports = []
        for _ in range(SETUP_REPEATS):
            seconds_in_child, _dt, factor = timed(cal, partial(_import_seconds, wl.imports))
            imports.append(seconds_in_child * factor)
        for module in wl.imports:
            __import__(module)
        builds = []
        for k in range(SETUP_REPEATS):
            tracer_k = setup_tracer if k == SETUP_REPEATS - 1 else null
            _out, dt, setup_factor = timed(cal, partial(wl.setup, seed, tracer_k))
            builds.append(dt)
        ops = wl.ops()

        tally, traced_tally = Tally(), Tally()
        tracer = Tracer() if traced else null
        # untraced runs repeat the job; traced runs alternate an untraced
        # and a traced job, so the two are measured under the same load
        plan = [(null, tally), (tracer, traced_tally)] if traced else [(null, tally)]
        least = TRACED_MIN_PAIRS if traced else MIN_JOBS
        start = perf_counter()
        rounds = 0
        while True:
            for job_tracer, job_tally in plan:
                run_job(ops, job_tracer, job_tally,
                        len(tally.jobs) + len(traced_tally.jobs), cal)
            rounds += 1
            per_round = sum(median(t.raw_jobs) for _tr, t in plan)
            if rounds >= least and perf_counter() - start + per_round > seconds:
                break

        attempted = tally.attempted + traced_tally.attempted
        failed = tally.failed + traced_tally.failed
        causes = tally.causes + traced_tally.causes
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "properties": wl.properties(),
            "ops_per_job": len(ops),
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "mismatches_by_cause": dict(sorted(causes.items())),
            "raw_wall_s": median(tally.raw_jobs),
        }
        if not traced:
            p = tail_percentile(len(ops))
            if name == "cli":
                rss_kb = wl.peak_rss_kb
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"] = {
                "setup_s": median(imports) + median(builds),
                "wall_s": median(tally.jobs),
                # the median operation's typical latency: per-operation
                # medians first, so the pooled median never lands in the
                # gap between two different operations' latencies
                "op_ms_p50": 1000 * median([median(v) for v in tally.per_op.values()]),
                "op_ms_tail": 1000 * percentile(tally.latencies, p),
                "peak_rss_mb": rss_kb / 1024,
            }
            result["samples"] = {
                "jobs": len(tally.jobs),
                "operations": len(tally.latencies),
                "tail_percentile": p,
                "beyond_tail": round(len(tally.latencies) * (1 - p / 100), 1),
            }
        else:
            factors = dict(traced_tally.factors, setup=setup_factor)
            result["metrics"] = _per_layer(
                wl, cal, setup_tracer, tracer, factors, tally, traced_tally
            )
            result["samples"] = {
                "untraced_jobs": len(tally.jobs),
                "traced_jobs": len(traced_tally.jobs),
                "spans": len(setup_tracer.spans) + len(tracer.spans),
            }
            spans = WORK / f"spans-{name}-seed{seed}.jsonl"
            offset = len(setup_tracer.spans)  # parents index the whole file
            with spans.open("w") as fh:
                for span in setup_tracer.spans:
                    fh.write(json.dumps(span) + "\n")
                for name_, start_, end_, parent, op in tracer.spans:
                    parent = parent + offset if parent >= 0 else parent
                    fh.write(json.dumps([name_, start_, end_, parent, op]) + "\n")
            result["spans_file"] = str(spans.relative_to(ROOT))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _per_layer(wl, cal, setup_tracer, tracer, factors, untraced, traced) -> dict[str, float]:
    """Per-layer metrics per job: busy and self seconds from the spans,
    counts at the same boundaries, and ratios of the two."""
    from core import median

    jobs = len(traced.jobs)
    busy, own = tracer.busy_and_self(factors)
    setup_busy, _ = setup_tracer.busy_and_self(factors)
    m: dict[str, float] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = busy[name] / jobs + setup_busy[name]
    for name in COUNTS:
        m[name] = tracer.counts[name] / jobs
    rule_calls = sum(1 for s in tracer.spans if s[0] == "audit.rule") / jobs
    m["audit.rule_calls"] = rule_calls
    m["pdb.parse.us_per_atom"] = (
        1e6 * m["pdb.parse.busy_s"] / m["pdb.atoms"] if m["pdb.atoms"] else 0.0
    )
    m["contacts.hit_ratio"] = (
        m["contacts.instances"] / m["contacts.candidate_pairs"]
        if m["contacts.candidate_pairs"] else 0.0
    )
    m["audit.us_per_rule_call"] = (
        1e6 * m["audit.rule.busy_s"] / rule_calls if rule_calls else 0.0
    )
    m["audit.self_s"] = sum(
        own[f"audit.{kind}"] for kind in ("exhaustive", "sampled", "coincidence")
    ) / jobs
    for key in ("cli.interpreter_ms", "cli.import.numpy_ms", "cli.import.foldvote_ms"):
        m[key] = 0.0
    if wl.name == "cli":
        m.update(wl.probes(PROBE_REPEATS, cal))
    for sub in CLI_SUBCOMMANDS:
        times = [(s[2] - s[1]) * factors.get(s[4], 1.0)
                 for s in tracer.spans if s[0] == f"cli.{sub}"]
        m[f"cli.{sub}_ms"] = 1000 * median(times) if times else 0.0
    m["trace.overhead_s"] = median(traced.jobs) - median(untraced.jobs)
    attempted = untraced.attempted + traced.attempted
    m["fail_ratio"] = (untraced.failed + traced.failed) / attempted
    units = per_layer_units()
    return {name: m[name] for name in units}


def _print_result(result: dict, units: dict[str, str]) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  seconds {result['seconds']}")
    print("inputs " + json.dumps(result["properties"]))
    print("samples " + json.dumps(result["samples"]))
    print(f"  {'raw_wall_s':28s} {result['raw_wall_s']:14.6f} s  (uncorrected)")
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':28s} {result['fail_ratio']:14.6f} 1  "
          f"({result['failed']}/{result['attempted']})")
    for cause, n in result["mismatches_by_cause"].items():
        print(f"    mismatch {cause}: {n}")


def run_all(seed: int, seconds: float, record: Path | None) -> int:
    """Every workload untraced then traced, each in its own process."""
    facts = _facts(seed)
    facts["cpu_model"] = _cpu_model()
    facts["seconds"] = seconds
    for key, value in facts.items():
        print(f"{key}: {value}")
    units = dict(END_TO_END, **per_layer_units())
    report = {"facts": facts, "units": units, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--details"],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            detail = json.loads(done.stdout.splitlines()[-2])
            _print_result(detail, units)
            entry["end_to_end" if trace == 0 else "per_layer"] = detail
        report["workloads"][name] = entry
    if record is not None:
        record.write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
        print(f"recorded {record}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: write results here")
    parser.add_argument("--details", action="store_true",
                        help="also print the full result as JSON before the last line")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_foldvote()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = END_TO_END if not args.trace else per_layer_units()
    facts = _facts(args.seed)
    print(" ".join(f"{k}={v}" for k, v in facts.items()))
    _print_result(result, units)
    if args.details:
        print(json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
