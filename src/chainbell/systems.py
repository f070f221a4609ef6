"""Lazy n-fold box systems and convex partitions of them.

A system is a conditional distribution P(x, y | u, v) over n-bit output
strings and length-n setting vectors, exposed through ``evaluate`` --
the full table has (4N^2)^n entries, so nothing is materialized here.
Verifiers materialize what they enumerate, under ``refuse_over_cap``.

``BoxProductSystem`` systems also expose ``pair_boxes``: for each output
string x the single-pair boxes whose product the system is.  Verifiers
build such a system's joint table from those boxes rather than point by
point, and the distance at one input reads its X-marginal off their
Alice marginals; ``built_from_boxes`` says which systems qualify, and
every other system is read through ``evaluate`` alone.

``ProductSystem`` multiplies independent single-pair boxes.
``AttackedSystem`` is one part of the adversary's decomposition: it
swaps in a biased box at the pivotal position of each output string x,
where the position and bias direction are functions of the preceding
bits only (that prefix property is exactly what keeps the part
time-ordered non-signalling).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .boxes import Prob, SinglePairBox, at_least, close
from .nonsignalling import (
    NsReport,
    check_ab,  # noqa: F401 -- unused here; bench/harness.py swaps it for a traced one
    check_part,
    check_time_ordered,  # noqa: F401 -- likewise
    convex_mismatches,
    materialize,
    refuse_over_cap,
    table_entries,
)

if TYPE_CHECKING:  # pragma: no cover
    from .adversary import PivotalProfile


def bits_to_int(bits: Sequence[int]) -> int:
    """The code of a bit string, first bit most significant:
    sum_i x_i * 2^(n - i) for i = 1..n, the package's one bit order."""
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


class SystemEvaluator(ABC):
    """An n-pair system P(x, y | u, v), evaluated point by point.

    ``x`` and ``y`` are n-bit tuples; ``u`` and ``v`` are n-tuples of
    setting indices in {0..N-1}.  Implementations must be pure and, for
    every fixed (u, v), nonnegative and normalized over (x, y).
    """

    n: int
    n_settings: int

    @abstractmethod
    def evaluate(self, x: Sequence[int], y: Sequence[int],
                 u: Sequence[int], v: Sequence[int]) -> Prob:
        """P(x, y | u, v)."""

    def _check_point(self, x, y, u, v) -> None:
        if not (len(x) == len(y) == len(u) == len(v) == self.n):
            raise ValueError(
                f"expected four length-{self.n} vectors, got lengths "
                f"{len(x)}, {len(y)}, {len(u)}, {len(v)}"
            )
        N = self.n_settings
        for s in u:
            if s < 0 or s >= N:
                raise ValueError(f"Alice setting {s} out of range for N={N}")
        for s in v:
            if s < 0 or s >= N:
                raise ValueError(f"Bob setting {s} out of range for N={N}")
        for b in x:
            if b not in (0, 1):
                raise ValueError(f"outcome vectors must hold bits, got {b}")
        for b in y:
            if b not in (0, 1):
                raise ValueError(f"outcome vectors must hold bits, got {b}")


class BoxProductSystem(SystemEvaluator):
    """A system that is a product of single-pair boxes once Alice's output
    string is fixed: P(x, y | u, v) = prod_j box_j(x)(x_j, y_j | u_j, v_j).

    The box at each position may depend on x, but never on y, u or v.
    ``materialize`` builds the joint table of such a system from its boxes
    instead of calling ``evaluate`` per entry, and ``distance_details``
    reads its X-marginal off the boxes' Alice marginals, unless a subclass
    overrides ``evaluate`` (see ``built_from_boxes``).
    """

    @abstractmethod
    def pair_boxes(self, x_code: int) -> tuple[SinglePairBox, ...]:
        """The n boxes, first position first, behind output string x
        (encoded first bit most significant)."""

    def evaluate(self, x, y, u, v) -> Prob:
        self._check_point(x, y, u, v)
        val: Prob = 1
        for j, box in enumerate(self.pair_boxes(bits_to_int(x))):
            val *= box.prob(u[j], v[j], x[j], y[j])
        return val


def built_from_boxes(system: SystemEvaluator) -> bool:
    """Whether a system's values may be read off its boxes: a
    ``BoxProductSystem`` that keeps the shared ``evaluate``.  A subclass
    that overrides ``evaluate`` is read through ``evaluate`` alone."""
    return (isinstance(system, BoxProductSystem)
            and type(system).evaluate is BoxProductSystem.evaluate)


@dataclass(frozen=True)
class ProductSystem(BoxProductSystem):
    """Independent boxes: P(x, y | u, v) = prod_j box_j(x_j, y_j | u_j, v_j)."""

    boxes: tuple[SinglePairBox, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("need at least one box")
        if len({b.n_settings for b in self.boxes}) != 1:
            raise ValueError("all boxes must share the same number of settings")

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def n_settings(self) -> int:
        return self.boxes[0].n_settings

    def pair_boxes(self, x_code: int) -> tuple[SinglePairBox, ...]:
        return self.boxes


def build_product_system(box: SinglePairBox, n: int) -> ProductSystem:
    """n independent copies of one box."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ProductSystem((box,) * n)


@dataclass(frozen=True)
class AttackedSystem(BoxProductSystem):
    """One part of the adversary's two-part decomposition.

    For output string x with pivotal position i and direction sigma
    (both functions of x_1..x_{i-1} via ``profile``), the i-th pair uses
    the box biased towards sigma when z = 0 and towards 1 - sigma when
    z = 1; all other pairs use the unbiased base box.
    """

    base: SinglePairBox
    biased: tuple[SinglePairBox, SinglePairBox]  # indexed by bias direction
    profile: "PivotalProfile"
    z: int

    def __post_init__(self) -> None:
        if self.z not in (0, 1):
            raise ValueError(f"z must be a bit, got {self.z}")
        boxes = (self.base,) + self.biased
        if len({b.n_settings for b in boxes}) != 1:
            raise ValueError("base and biased boxes must share n_settings")

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def n_settings(self) -> int:
        return self.base.n_settings

    def pair_boxes(self, x_code: int) -> tuple[SinglePairBox, ...]:
        index, sigma = self.profile.pivot(x_code)
        before = (self.base,) * (index - 1)
        after = (self.base,) * (self.n - index)
        return before + (self.biased[sigma ^ self.z],) + after


@dataclass(frozen=True)
class Partition:
    """The adversary's strategy: weighted systems averaging to the base."""

    parts: tuple[tuple[Prob, SystemEvaluator], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition needs at least one part")

    @property
    def weights(self) -> tuple[Prob, ...]:
        return tuple(w for w, _ in self.parts)

    @property
    def systems(self) -> tuple[SystemEvaluator, ...]:
        return tuple(s for _, s in self.parts)


@dataclass
class PartConstraintReport:
    nonnegative: bool
    normalized: bool
    ns_report: NsReport

    @property
    def passed(self) -> bool:
        return self.nonnegative and self.normalized and self.ns_report.passed


@dataclass
class PartitionReport:
    """Outcome of the three partition legality checks: the weights form a
    distribution, every part is a valid time-ordered non-signalling
    system, and the weighted parts average to the base pointwise."""

    weights_ok: bool
    weight_sum: Prob
    part_reports: list[PartConstraintReport]
    convex_ok: bool
    convex_mismatches: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...],
                                  tuple[int, ...], Prob, Prob]]
    convex_mismatch_total: int
    checks_performed: int

    @property
    def passed(self) -> bool:
        return self.weights_ok and self.convex_ok and all(
            p.passed for p in self.part_reports
        )

    def __str__(self) -> str:
        lines = [
            f"weights: {'ok' if self.weights_ok else 'FAIL'} (sum {self.weight_sum})",
        ]
        for i, part in enumerate(self.part_reports):
            lines.append(
                f"part {i}: nonnegative={'ok' if part.nonnegative else 'FAIL'} "
                f"normalized={'ok' if part.normalized else 'FAIL'} ns={part.ns_report}"
            )
        lines.append(
            f"convex combination: {'ok' if self.convex_ok else 'FAIL'} "
            f"({self.convex_mismatch_total} mismatches)"
        )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} "
                     f"[{self.checks_performed} checks]")
        return "\n".join(lines)


def verify_partition(partition: Partition, base: SystemEvaluator, *,
                     constraint: str = "time-ordered") -> PartitionReport:
    """Exhaustively check partition legality against a base system.

    Every part must be a time-ordered non-signalling distribution, the
    one constraint set: ``constraint`` takes only "time-ordered", and
    stays because the benchmark harness passes it.  Values are compared
    under the tolerance rule of ``boxes``, so exact systems with zero
    tolerance.  ``refuse_over_cap`` refuses an oversized run before any
    table is built.  The tables are compared only in ``nonsignalling``:
    each part's in one sweep (``check_part``), then all of them in the
    convex check.
    """
    if constraint != "time-ordered":
        raise ValueError(f"unknown constraint set {constraint!r}")
    for system in partition.systems:
        if (system.n, system.n_settings) != (base.n, base.n_settings):
            raise ValueError("all parts must share (n, n_settings) with the base")

    table_size = table_entries(base.n, base.n_settings)
    budget = (len(partition.parts) + 1) * table_size
    refuse_over_cap("partition verification", budget)

    weights = partition.weights
    weight_sum = sum(weights)
    weights_ok = all(at_least(w, 0) for w in weights) and close(weight_sum, 1)

    base_table = materialize(base)
    part_tables = [materialize(s) for s in partition.systems]
    checks = budget + table_size  # every entry built, then one convex pass

    part_reports = [PartConstraintReport(*check_part(table)) for table in part_tables]
    checks += sum(part.ns_report.checks_performed for part in part_reports)

    mismatches, mismatch_total = convex_mismatches(base_table, part_tables, weights)

    return PartitionReport(
        weights_ok=weights_ok,
        weight_sum=weight_sum,
        part_reports=part_reports,
        convex_ok=mismatch_total == 0,
        convex_mismatches=mismatches,
        convex_mismatch_total=mismatch_total,
        checks_performed=checks,
    )
