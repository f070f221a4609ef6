"""Workloads, output checks, pinned outputs and tracing for the chainbell benchmark.

A workload is a fixed list of jobs built from a seed.  A pass runs the
list once as a closed loop with one client: each job starts when the
previous one finishes.  Every job calls the package's public functions
through a ``Layers`` object, which times each call as a span when its
tracer is enabled and is a plain call otherwise.  ``run.py`` repeats
passes for the requested time and reports the metrics.

The speed of a shared machine drifts by tens of percent over seconds
and minutes, so a fixed piece of reference work is timed between jobs
and every job time is also given scaled to a nominal machine, on which
the reference work takes ``REF_NOMINAL_S`` (see ``reference_work``).

Spans are recorded from outside the package only.  In a traced pass
the names ``chainbell.systems`` imported from ``nonsignalling``
(``materialize``, ``check_time_ordered``, ``check_ab``) are swapped for
traced wrappers, so the tables and checks that ``verify_partition``
builds internally are counted as nonsignalling work.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import chainbell.systems
from chainbell import (
    FLOAT_ATOL,
    BoxParams,
    SystemEvaluator,
    bias_box,
    build_attack_partition,
    build_product_system,
    build_unbiased_box,
    check_ab,
    check_subset,
    check_time_ordered,
    distance_details,
    is_almost_balanced,
    materialize,
    parse_function_spec,
    replay_violation,
    verify_partition,
)

WORKLOADS = ("attack-large-n", "verify-n4", "reject-float")

#: The seed whose job outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 0

PINNED_PATH = Path(__file__).with_name("pinned.json")


class CheckFailed(Exception):
    """A job's output broke one of the properties that must hold for any seed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Machine speed

#: Seconds the reference work takes on the nominal machine.  A time
#: scaled to the nominal machine is raw seconds * REF_NOMINAL_S / the
#: reference work's seconds measured around it.
REF_NOMINAL_S = 0.015


def reference_work() -> None:
    """Fixed pure-Python work that does not touch chainbell: integer,
    float and Fraction arithmetic with dict, list and tuple churn, the
    mix the workloads run.  Its time tracks the machine's current speed,
    not the program's."""
    total = 0
    for i in range(60_000):
        total += i * i
    x, pairs = 0.0, []
    for i in range(20_000):
        x = x * 0.999 + (i & 7) * 0.125
        if i & 3 == 0:
            pairs.append((x, i))
    counts, keyed, acc = {}, [], Fraction(0)
    for i in range(6_000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + i
        keyed.append((k, i))
        if i % 16 == 0:
            acc += Fraction(k + 1, i + 1)
    keyed.sort()


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def speed_scale(ref_before: float, ref_after: float) -> float:
    """Factor from raw seconds to nominal-machine seconds for work timed
    between two runs of the reference work."""
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2)


# ---------------------------------------------------------------------------
# Tracing


@dataclass(frozen=True)
class Span:
    job: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.job = ""
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.job, span_id, parent, name, start, end))

    def add(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[name] = max(self.counts.get(name, 0), value)


class Layers:
    """The package's public functions as the workloads call them, one span each."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    # adversary
    def truth_table(self, spec: str, n: int):
        with self.tracer.span("adversary.truth_table"):
            return parse_function_spec(spec, n)

    def zero_count_tree(self, f):
        with self.tracer.span("adversary.zero_count_tree"):
            return f.tree

    def attack_partition(self, f, params: BoxParams):
        with self.tracer.span("adversary.attack_partition"):
            partition = build_attack_partition(f, params)
        self.tracer.add("adversary.pivot_records", len(partition.systems[0].profile.records))
        return partition

    # analysis
    def distance_closed(self, f, partition):
        with self.tracer.span("analysis.distance_closed"):
            return distance_details(f, partition)

    def distance_joint(self, f, partition, at_input):
        with self.tracer.span("analysis.distance_joint"):
            return distance_details(f, partition, at_input=at_input)

    # systems
    def verify_partition(self, partition, base):
        with self.tracer.span("systems.verify_partition"):
            report = verify_partition(partition, base, constraint="time-ordered")
        self.tracer.add("systems.checks_performed", report.checks_performed)
        return report

    # nonsignalling; the keyword signatures match the functions they wrap,
    # so ``instrument_systems`` can swap them in for the library's own calls.
    def materialize(self, system, **kwargs):
        with self.tracer.span("nonsignalling.materialize"):
            table = materialize(system, **kwargs)
        self.tracer.add("nonsignalling.table_entries", len(table.values))
        self.tracer.peak("nonsignalling.den_bits", table.den.bit_length() if table.exact else 0)
        return table

    def _ns_report(self, name, check, *args, **kwargs):
        with self.tracer.span(name):
            report = check(*args, **kwargs)
        self.tracer.add("nonsignalling.checks_performed", report.checks_performed)
        self.tracer.add("nonsignalling.violations_total", report.violations_total)
        return report

    def check_time_ordered(self, system, **kwargs):
        return self._ns_report("nonsignalling.time_ordered", check_time_ordered,
                               system, **kwargs)

    def check_ab(self, system, **kwargs):
        return self._ns_report("nonsignalling.ab", check_ab, system, **kwargs)

    def check_subset(self, system, side, subset, **kwargs):
        return self._ns_report("nonsignalling.subset", check_subset,
                               system, side, subset, **kwargs)

    def replay(self, system, violation):
        with self.tracer.span("nonsignalling.replay"):
            result = replay_violation(system, violation)
        self.tracer.add("nonsignalling.witnesses_replayed", 1)
        return result


@contextmanager
def instrument_systems(layers: Layers):
    """Route ``verify_partition``'s own nonsignalling calls through ``layers``."""
    names = ("materialize", "check_time_ordered", "check_ab")
    saved = {name: getattr(chainbell.systems, name) for name in names}
    try:
        for name in names:
            setattr(chainbell.systems, name, getattr(layers, name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(chainbell.systems, name, fn)


# ---------------------------------------------------------------------------
# Jobs


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Layers], dict]


def _fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def attack_job(spec: str, n: int, params: BoxParams) -> Job:
    """The calls ``run_attack`` makes, then the theorem bound, exactly."""

    def run(layers: Layers) -> dict:
        f = layers.truth_table(spec, n)
        layers.zero_count_tree(f)
        partition = layers.attack_partition(f, params)
        detail = layers.distance_closed(f, partition)
        bound = params.eps * Fraction(2, 3 * n)
        require(detail.distance >= bound,
                f"distance {detail.distance} is below eps*2/(3n) = {bound}")
        return {"verdict": "pass", "distance": _fraction(detail.distance)}

    return Job(f"{spec}-n{n}", run)


def verify_job(spec: str, n: int, params: BoxParams) -> Job:
    """Partition legality, the ``verify`` CLI path on part z0, and the
    distance by the closed form and by joint summation at one input."""

    def run(layers: Layers) -> dict:
        f = layers.truth_table(spec, n)
        partition = layers.attack_partition(f, params)
        base = build_product_system(build_unbiased_box(params), n)
        report = layers.verify_partition(partition, base)
        require(report.passed, f"partition fails verification:\n{report}")

        z0 = partition.systems[0]
        table = layers.materialize(z0)
        ns = layers.check_time_ordered(z0, table=table)
        require(ns.passed, f"part z0 fails the time-ordered check: {ns}")

        closed = layers.distance_closed(f, partition)
        last = params.n_settings - 1
        joint = layers.distance_joint(f, partition, ((0,) * n, (last,) * n))
        require(closed.distance == joint.distance,
                f"closed-form distance {closed.distance} != "
                f"joint-summation distance {joint.distance}")
        return {
            "partition": _verdict(report.passed),
            "z0_time_ordered": _verdict(ns.passed),
            "violations_total": ns.violations_total,
            "distance": _fraction(closed.distance),
        }

    return Job(f"{spec}-n{n}-eps{_fraction(params.eps)}", run)


class FuturePeekingSystem(SystemEvaluator):
    """n independent pairs, except that pair ``early`` uses the box biased
    towards output bit ``x_late`` xor ``flip``, with late > early.

    The bias reads a future output, so the system breaks the prefix
    property and must fail the time-ordered check.  Its ``evaluate`` is
    the generic per-point kind that no structured fast path covers.
    """

    def __init__(self, params: BoxParams, n: int, early: int, late: int, flip: int):
        if not 1 <= early < late <= n:
            raise ValueError(f"need 1 <= early < late <= n, got {early}, {late}, {n}")
        self.n = n
        self.n_settings = params.n_settings
        self.base = build_unbiased_box(params)
        self.biased = (bias_box(self.base, 0, params.eps),
                       bias_box(self.base, 1, params.eps))
        self.early, self.late, self.flip = early - 1, late - 1, flip

    def evaluate(self, x, y, u, v):
        val = 1.0
        for k in range(self.n):
            box = self.biased[x[self.late] ^ self.flip] if k == self.early else self.base
            val *= box.prob(u[k], v[k], x[k], y[k])
        return val


def _json_value(value):
    return _fraction(value) if isinstance(value, Fraction) else value


def _witness(v) -> dict:
    return {
        "condition": v.condition,
        "side": v.side,
        "cut": v.cut,
        "summed_positions": list(v.summed_positions),
        "x_kept": list(v.x_kept),
        "y_kept": list(v.y_kept),
        "u_left": list(v.u_left),
        "v_left": list(v.v_left),
        "u_right": list(v.u_right),
        "v_right": list(v.v_right),
        "left": _json_value(v.left),
        "right": _json_value(v.right),
    }


def reject_job(name: str, system: SystemEvaluator, honest: bool,
               subsets: dict[str, tuple[int, ...]]) -> Job:
    """Every nonsignalling check on one materialized table, then a replay
    of every witness.  Honest systems pass everything; peeking systems
    must fail the time-ordered check."""

    def run(layers: Layers) -> dict:
        table = layers.materialize(system)
        reports = {
            "time-ordered": layers.check_time_ordered(system, table=table),
            "ab": layers.check_ab(system, table=table),
        }
        for side, subset in subsets.items():
            reports[f"subset-{side}"] = layers.check_subset(system, side, subset, table=table)
        if honest:
            failing = [key for key, r in reports.items() if not r.passed]
            require(not failing, f"honest system fails {failing}")
        else:
            require(not reports["time-ordered"].passed,
                    "future-peeking system passes the time-ordered check")
        for key, report in reports.items():
            for w in report.violations:
                left, right = layers.replay(system, w)
                require(abs(left - w.left) <= FLOAT_ATOL and abs(right - w.right) <= FLOAT_ATOL,
                        f"{key} witness replays to ({left}, {right}), "
                        f"reported ({w.left}, {w.right})")
        out = {"subsets": {side: list(s) for side, s in subsets.items()}}
        for key, r in reports.items():
            out[key] = {
                "verdict": _verdict(r.passed),
                "violations_total": r.violations_total,
                "witnesses": [_witness(w) for w in r.violations],
            }
        return out

    return Job(name, run)


def reject_jobs(params: BoxParams, n: int, rng: random.Random) -> list[Job]:
    """The honest product system, then one peeking system per (early, late)."""

    def subsets() -> dict[str, tuple[int, ...]]:
        return {side: tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n))))
                for side in ("alice", "bob")}

    honest = build_product_system(build_unbiased_box(params), n)
    jobs = [reject_job("honest", honest, True, subsets())]
    for early in range(1, n):
        for late in range(early + 1, n + 1):
            flip = rng.randrange(2)
            system = FuturePeekingSystem(params, n, early, late, flip)
            jobs.append(reject_job(f"peek-{early}-{late}-flip{flip}", system, False,
                                   subsets()))
    return jobs


def almost_balanced_specs(n: int, count: int, seed: int) -> list[str]:
    """The first ``count`` almost balanced ``random:`` specs on n bits after
    ``seed * 1000``, so different seeds draw disjoint candidates."""
    specs = []
    candidate = seed * 1000
    while len(specs) < count:
        spec = f"random:{candidate}"
        if is_almost_balanced(parse_function_spec(spec, n)):
            specs.append(spec)
        candidate += 1
    return specs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same seed gives the same inputs."""
    if workload == "attack-large-n":
        params = BoxParams.rational(2, Fraction(1, 8))
        specs = [("majority", 20), ("xor", 19)]
        specs += [(f"random:{4 * seed + k}", 20) for k in range(4)]
        return [attack_job(spec, n, params) for spec, n in specs]
    if workload == "verify-n4":
        eps = (Fraction(1, 8), Fraction(1, 3))
        return [verify_job(spec, 4, BoxParams.rational(2, eps[k % 2]))
                for k, spec in enumerate(almost_balanced_specs(4, 3, seed))]
    if workload == "reject-float":
        rng = random.Random(f"chainbell-bench:reject-float:{seed}")
        return reject_jobs(BoxParams.quantum(3), 3, rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Passes and pinned outputs


def normalize(outputs: dict) -> dict:
    """The outputs as they read back from JSON."""
    return json.loads(json.dumps(outputs))


def matches(got, want) -> bool:
    """Exact equality, except floats, which agree to FLOAT_ATOL."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and not isinstance(got, bool) and abs(got - want) <= FLOAT_ATOL)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    return got == want


def load_pins(workload: str, seed: int) -> dict | None:
    """Pinned outputs by job name, or None for a seed that has none."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINNED_PATH.read_text())["workloads"][workload]


@dataclass
class PassResult:
    """One pass: raw job latencies, and for each job the factor that
    scales its times to the nominal machine."""

    traced: bool
    latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    scale_by_job: dict[str, float] = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)
    outputs: dict[str, dict] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Time of the job list, the reference work between jobs excluded."""
        return sum(self.latencies)

    @property
    def scaled_latencies(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.scales)]

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_latencies)


def run_pass(jobs: list[Job], pins: dict | None, traced: bool, label: str = "") -> PassResult:
    """Run the job list once, timing the reference work before the first
    job and after each one.  A job fails if it raises, if a check fails,
    or if its outputs differ from the pinned ones."""
    tracer = Tracer(traced)
    layers = Layers(tracer)
    result = PassResult(traced)
    result.reference_s.append(time_reference())
    for job in jobs:
        tracer.job = f"{label}{job.name}"
        outputs = None
        job_start = perf_counter()
        try:
            if traced:
                with instrument_systems(layers), tracer.span("job"):
                    outputs = job.run(layers)
            else:
                outputs = job.run(layers)
        except Exception as exc:  # a failing job is counted, not fatal
            result.errors[job.name] = f"{type(exc).__name__}: {exc}"
        result.latencies.append(perf_counter() - job_start)
        result.reference_s.append(time_reference())
        scale = speed_scale(*result.reference_s[-2:])
        result.scales.append(scale)
        result.scale_by_job[tracer.job] = scale
        if outputs is None:
            continue
        outputs = normalize(outputs)
        result.outputs[job.name] = outputs
        if pins is not None and not matches(outputs, pins.get(job.name)):
            result.errors[job.name] = "outputs differ from the pinned outputs"
    result.spans = tracer.spans
    result.counts = tracer.counts
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass

#: Span name -> per-layer metric (nominal-machine seconds per pass,
#: summed over the pass).
SPAN_METRICS = {
    "adversary.truth_table": "adversary.truth_table_s",
    "adversary.zero_count_tree": "adversary.zero_count_tree_s",
    "adversary.attack_partition": "adversary.attack_partition_s",
    "analysis.distance_closed": "analysis.distance_closed_s",
    "analysis.distance_joint": "analysis.distance_joint_s",
    "systems.verify_partition": "systems.verify_partition_s",
    "nonsignalling.materialize": "nonsignalling.materialize_s",
    "nonsignalling.time_ordered": "nonsignalling.time_ordered_s",
    "nonsignalling.ab": "nonsignalling.ab_s",
    "nonsignalling.subset": "nonsignalling.subset_s",
    "nonsignalling.replay": "nonsignalling.replay_s",
}

COUNT_METRICS = (
    "adversary.pivot_records",
    "systems.checks_performed",
    "nonsignalling.table_entries",
    "nonsignalling.den_bits",
    "nonsignalling.checks_performed",
    "nonsignalling.violations_total",
    "nonsignalling.witnesses_replayed",
)


def layer_metrics(result: PassResult) -> dict[str, float]:
    """Busy time per layer and the layer counts of one traced pass.

    Span times are scaled to the nominal machine with their job's factor.
    ``systems.verify_partition_self_s`` is verify_partition's self time:
    its spans minus the nonsignalling spans nested in them, which leaves
    the normalization and convex-combination checks.
    """
    out = {metric: 0.0 for metric in SPAN_METRICS.values()}
    seconds = {span.span_id: span.seconds * result.scale_by_job[span.job]
               for span in result.spans}
    child_time: dict[int, float] = {}
    for span in result.spans:
        if span.name in SPAN_METRICS:
            out[SPAN_METRICS[span.name]] += seconds[span.span_id]
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + seconds[span.span_id]
    out["systems.verify_partition_self_s"] = sum(
        seconds[span.span_id] - child_time.get(span.span_id, 0.0)
        for span in result.spans if span.name == "systems.verify_partition"
    )
    for name in COUNT_METRICS:
        out[name] = result.counts.get(name, 0)
    return out
