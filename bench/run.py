"""Benchmark of the chainbell package: one workload per invocation.

    python3 bench/run.py --workload attack-large-n --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  The workload's job list (see ``harness.py``)
runs as passes in a closed loop with one client until ``--seconds`` are
used, and always at least once.  ``--trace 0`` measures end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones plus the
tracing overhead.  Every job's outputs are checked; those of the
default seed are also compared with ``pinned.json``.

Times are reported in nominal-machine seconds: each raw time is scaled
by REF_NOMINAL_S over the time of a fixed piece of reference work run
just before and after it (``harness.reference_work``), which takes out
the drift of a shared machine's speed.  The raw times are in the record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine,
commit, sample counts, errors, spans) goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``.

``--write-pins`` runs the default seed's job lists once and rewrites
``pinned.json`` from their outputs; use it only when a change of the
outputs is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh interpreters started to time set-up; setup_s is their median.
SETUP_REPEATS = 15

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def import_package():
    """Import chainbell from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "chainbell" / "__init__.py").is_file():
        sys.exit(f"error: no chainbell sources under {SRC}; "
                 "run the benchmark from the root of a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import chainbell

    if SRC not in Path(chainbell.__file__).resolve().parents:
        sys.exit(f"error: chainbell was imported from {chainbell.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports chainbell and its CLI
    and builds the workload's inputs, then exits: raw, and scaled to the
    nominal machine by the reference work timed before and after it."""
    from harness import speed_scale, time_reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    ref_before = time_reference()
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    raw = perf_counter() - start
    return raw, raw * speed_scale(ref_before, time_reference())


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git rev-parse failed)"
    return done.stdout.strip()


def measure(jobs, pins, seconds: float, trace: bool, probe) -> tuple[list, list]:
    """Passes until the next one would overrun ``seconds``, with set-up
    probes spread over the same time.  With tracing the passes alternate
    untraced/traced and there are at least two.

    The machine's speed drifts over seconds, so the probes are spread out
    rather than run back to back, every time is scaled by the reference
    work timed next to it, and every timing is a median.
    """
    from harness import run_pass

    passes, setup_times = [], []
    probe_every = seconds / SETUP_REPEATS
    start = perf_counter()
    minimum = 2 if trace else 1
    while True:
        while (len(setup_times) < SETUP_REPEATS
               and perf_counter() - start >= len(setup_times) * probe_every):
            setup_times.append(probe())
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, pins, traced, label=f"pass{len(passes)}/"))
        if len(passes) > 1:
            # Only the first pass's outputs go into the record; keeping the
            # rest would make peak RSS grow with the number of passes.
            passes[-1].outputs.clear()
        elapsed = perf_counter() - start
        pass_s = passes[-1].wall_s + sum(passes[-1].reference_s)
        if len(passes) >= minimum and elapsed + pass_s > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe())
    return passes, setup_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import chainbell.cli  # noqa: F401  -- the CLI's import cost is part of set-up
    import harness

    if args.write_pins:
        return write_pins()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    jobs = harness.make_jobs(args.workload, seed)
    if args.setup_probe:
        return 0

    pins = harness.load_pins(args.workload, seed)
    passes, setup_times = measure(jobs, pins, args.seconds, bool(args.trace),
                                  lambda: setup_probe(args.workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    latencies = [t for p in untraced for t in p.scaled_latencies]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    wall_s = statistics.median(p.scaled_wall_s for p in untraced)
    end_to_end = {
        "wall_s": wall_s,
        "job_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_end_to_end = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "job_p50_s": statistics.median(t for p in untraced for t in p.latencies),
        "setup_s": statistics.median(raw for raw, _ in setup_times),
    }
    reference_s = [t for p in passes for t in p.reference_s]
    samples = {"wall_s": len(untraced), "job_p50_s": len(latencies),
               "setup_s": len(setup_times), "peak_rss_mb": 1}
    per_layer = {}
    if traced:
        layer_runs = [harness.layer_metrics(p) for p in traced]
        for name in layer_runs[0]:
            per_layer[name] = statistics.median(run[name] for run in layer_runs)
        per_layer["trace.overhead_s"] = (statistics.median(p.scaled_wall_s for p in traced)
                                         - wall_s)
        per_layer["trace.spans"] = statistics.median(len(p.spans) for p in traced)
        samples["per_layer"] = len(traced)

    units = {**END_TO_END_UNITS, **{name: layer_unit(name) for name in per_layer}}
    reported = per_layer if args.trace else end_to_end
    metrics = {name: {"value": value, "unit": units[name]} for name, value in reported.items()}

    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit_id(),
            "conditions": "CPU only, one process with one thread, "
                          "no system-level tuning",
        },
        "time_unit": f"seconds on a nominal machine where the reference work takes "
                     f"{harness.REF_NOMINAL_S} s; raw_end_to_end holds the raw seconds",
        "jobs": [job.name for job in jobs],
        "pinned_outputs_checked": pins is not None,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "samples": samples,
        "end_to_end": end_to_end,
        "raw_end_to_end": raw_end_to_end,
        "reference_s": {"median": statistics.median(reference_s),
                        "min": min(reference_s), "max": max(reference_s),
                        "samples": len(reference_s)},
        "per_layer": per_layer,
        "setup_times_s": [{"raw": raw, "scaled": scaled} for raw, scaled in setup_times],
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "job_latencies_s": p.latencies,
                    "job_scales": p.scales, "reference_s": p.reference_s}
                   for p in passes],
        "errors": [{"pass": i, "job": job, "error": err}
                   for i, p in enumerate(passes) for job, err in p.errors.items()],
        "outputs": passes[0].outputs,
        "spans": [span.__dict__ for p in traced for span in p.spans],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}  "
              f"[{samples.get(name, samples.get('per_layer', 1))} samples]")
    if not args.trace:
        print("raw seconds: " + ", ".join(f"{name} = {value:.6g}"
                                          for name, value in raw_end_to_end.items())
              + f"; reference work median {statistics.median(reference_s):.6g} s "
              f"(nominal {harness.REF_NOMINAL_S})")
    print(f"attempted {attempted} jobs, failed {failed}; record in {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "nonsignalling.den_bits":
        return "bits"
    return "count"


def write_pins() -> int:
    import harness

    doc = {"seed": harness.DEFAULT_SEED, "workloads": {}}
    for workload in harness.WORKLOADS:
        result = harness.run_pass(harness.make_jobs(workload, harness.DEFAULT_SEED),
                                  None, traced=False)
        if result.errors:
            sys.exit(f"error: {workload} has failing jobs, not pinning: {result.errors}")
        doc["workloads"][workload] = result.outputs
    harness.PINNED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {harness.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
