"""Distance-from-uniform analysis of the attack and parameter scans.

The adversary's advantage is measured by the distance of the key bit
K = f(X) from a fair coin given her outcome Z:

    d = p(z=0) * (Pr[K=0|Z=0] - Pr[K=1|Z=0]) - (Pr[K=0] - Pr[K=1]) / 2

with parts labelled so that Pr[K=0|Z=0] >= 1/2.  For the half/half
partitions built here this reduces to Pr[K=0|Z=0] - Pr[K=0], and the
bound to check is eps * 2/(3n).

Two computation paths are kept deliberately:

- the closed form via each part's setting-independent X-marginal
  (grouped by pivotal prefix, so it scales to large n), and
- a full joint summation at an explicit input tuple (``at_input``),
  which cross-checks the input-independence the closed form relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .adversary import (
    HashFunction,
    build_attack_partition,
    is_almost_balanced,
    parse_function_spec,
    trivial_strategy,
)
from ._coding import int_to_bits
from .boxes import FLOAT_ATOL, BoxParams, Prob, close
from .nonsignalling import InfeasibleSizeError, materialize
from .systems import AttackedSystem, Partition, SystemEvaluator, alice_output_distribution

STRATEGY_PARTITION = "partition"
STRATEGY_TRIVIAL = "trivial"


@dataclass(frozen=True)
class DistanceBreakdown:
    """Distance value plus the labelling that realised it."""

    distance: Prob
    pr_k0_given_z0: Prob
    pr_k0: Prob
    z0_part: int
    key_relabeled: bool
    q_parts: tuple[Prob, ...]


def _part_key_zero_probability(f: HashFunction, part: SystemEvaluator) -> Prob:
    """Pr[f(X) = 0] under one part's X-marginal."""
    if isinstance(part, AttackedSystem):
        if part.profile.function.bits != f.bits:
            raise ValueError("partition was built for a different hash function")
        n = f.n
        match_zeros = 0
        other_zeros = 0
        for rec in part.profile.records:
            direction = rec.sigma ^ part.z
            if direction == 0:
                match_zeros += rec.zeros0
                other_zeros += rec.zeros1
            else:
                match_zeros += rec.zeros1
                other_zeros += rec.zeros0
        m_hi = part.biased[0].alice_marginal(0, 0, 0)  # 1/2 + eps
        m_lo = part.biased[0].alice_marginal(0, 0, 1)  # 1/2 - eps
        return (m_hi * match_zeros + m_lo * other_zeros) / 2 ** (n - 1)

    # Generic systems: marginalize the joint table at every input (u, v)
    # and insist the result does not depend on the inputs (a malformed
    # partition otherwise).
    table = materialize(part)  # raises InfeasibleSizeError above the cap
    X = 2**part.n
    values = table.values
    marginals = [sum(values[start:start + X]) for start in range(0, len(values), X)]
    first = marginals[:X]
    atol = 0 if table.exact else FLOAT_ATOL
    for start in range(X, len(marginals), X):
        for x, (p, q) in enumerate(zip(first, marginals[start:start + X])):
            if not close(p, q, atol):
                if table.exact:
                    p, q = Fraction(p, table.den), Fraction(q, table.den)
                raise ValueError(
                    f"part has an input-dependent X-marginal at "
                    f"x={int_to_bits(x, part.n)}: {p} vs {q}"
                )
    total = sum(p for x, p in enumerate(first) if f.bits[x] == 0)
    return Fraction(total, table.den) if table.exact else total


def _part_key_zero_at_input(f: HashFunction, part: SystemEvaluator,
                            u: Sequence[int], v: Sequence[int]) -> Prob:
    dist = alice_output_distribution(part, u, v)
    total: Prob = 0
    for x, p in dist.items():
        if f.value(x) == 0:
            total += p
    return total


def distance_details(f: HashFunction, partition: Partition, *,
                     at_input: tuple[Sequence[int], Sequence[int]] | None = None,
                     ) -> DistanceBreakdown:
    """Evaluate the distance formula, choosing the labelling.

    The part with the larger Pr[K=0|Z] plays z = 0.  If even that falls
    below 1/2 the key labels are swapped as well, which leaves the
    distance unchanged but restores the convention Pr[K=0|Z=0] >= 1/2.
    """
    if len(partition.parts) != 2:
        raise ValueError(f"need a two-part partition, got {len(partition.parts)} parts")

    if at_input is None:
        q = [_part_key_zero_probability(f, part) for part in partition.systems]
    else:
        u, v = at_input
        q = [_part_key_zero_at_input(f, part, u, v) for part in partition.systems]
    pr0 = Fraction(f.zeros_total, 2**f.n)

    z0 = 0 if q[0] >= q[1] else 1
    key_relabeled = False
    q_top, pr_top = q[z0], pr0
    if q_top < Fraction(1, 2):
        # Flip the key labels: the *other* part then favours the 0 label.
        key_relabeled = True
        z0 = 1 - z0
        q_top, pr_top = 1 - q[z0], 1 - pr0

    weight = partition.weights[z0]
    distance = weight * (2 * q_top - 1) - (2 * pr_top - 1) / 2
    return DistanceBreakdown(
        distance=distance,
        pr_k0_given_z0=q_top,
        pr_k0=pr_top,
        z0_part=z0,
        key_relabeled=key_relabeled,
        q_parts=tuple(q),
    )


def distance_from_uniform(f: HashFunction, partition: Partition, *,
                          at_input: tuple[Sequence[int], Sequence[int]] | None = None,
                          ) -> Prob:
    """Distance of f(X) from uniform given the partition outcome."""
    return distance_details(f, partition, at_input=at_input).distance


def theorem_bound(n: int, params: BoxParams) -> Prob:
    """The guaranteed distance eps * 2/(3n)."""
    return params.eps * Fraction(2, 3 * n)


@dataclass(frozen=True)
class AttackReport:
    function: str
    n: int
    n_settings: int
    eps: Prob
    mode: str
    strategy: str
    distance: Prob
    bound: Prob
    ratio: Prob | None
    pivotal_histogram: dict[int, int]
    pr_k0_given_z0: Prob
    passed: bool
    z0_part: int | None = None
    key_relabeled: bool = False
    trivial_guess: int | None = None


def run_attack(f: HashFunction, params: BoxParams) -> AttackReport:
    """Mount the best applicable strategy against f and check the bound.

    Almost balanced functions get the two-part biased partition; all
    others the trivial majority guess.  ``passed`` asserts the distance
    reaches eps * 2/(3n), exactly in rational mode.
    """
    bound = theorem_bound(f.n, params)
    if is_almost_balanced(f):
        partition = build_attack_partition(f, params)
        detail = distance_details(f, partition)
        profile = partition.systems[0].profile
        distance = detail.distance
        strategy = STRATEGY_PARTITION
        histogram = profile.histogram()
        pr_k0 = detail.pr_k0_given_z0
        z0_part, key_relabeled = detail.z0_part, detail.key_relabeled
        guess = None
    else:
        guess, distance = trivial_strategy(f)
        strategy = STRATEGY_TRIVIAL
        histogram = {}
        pr_k0 = Fraction(1, 2) + distance
        z0_part, key_relabeled = None, guess == 1
    exact = isinstance(distance, Fraction) and isinstance(bound, Fraction)
    passed = distance >= bound if exact else float(distance) >= float(bound) - FLOAT_ATOL
    ratio = None if bound == 0 else distance / bound
    return AttackReport(
        function=f.name or "anonymous",
        n=f.n,
        n_settings=params.n_settings,
        eps=params.eps,
        mode=params.mode,
        strategy=strategy,
        distance=distance,
        bound=bound,
        ratio=ratio,
        pivotal_histogram=histogram,
        pr_k0_given_z0=pr_k0,
        passed=passed,
        z0_part=z0_part,
        key_relabeled=key_relabeled,
        trivial_guess=guess,
    )


@dataclass(frozen=True)
class ScanRow:
    family: str
    n: int
    n_settings: int
    eps: Prob
    strategy: str | None
    distance: Prob | None
    bound: Prob | None
    ratio: Prob | None
    distance_times_n: Prob | None
    distance_times_sqrt_n: float | None
    pr_k0_given_z0: Prob | None
    passed: bool | None
    error: str | None = None


def scan(family: str, n_values: Iterable[int], params: BoxParams) -> list[ScanRow]:
    """Run the attack across a function family; one row per n.

    Per-row failures (unbuildable function, infeasible size) are recorded
    in the row and the scan continues.
    """
    rows = []
    for n in n_values:
        try:
            f = parse_function_spec(family, n)
            report = run_attack(f, params)
        except (ValueError, InfeasibleSizeError, OverflowError) as exc:
            rows.append(ScanRow(family, n, params.n_settings, params.eps,
                                None, None, None, None, None, None, None,
                                None, error=str(exc)))
            continue
        rows.append(ScanRow(
            family=family,
            n=n,
            n_settings=params.n_settings,
            eps=params.eps,
            strategy=report.strategy,
            distance=report.distance,
            bound=report.bound,
            ratio=report.ratio,
            distance_times_n=report.distance * n,
            distance_times_sqrt_n=float(report.distance) * math.sqrt(n),
            pr_k0_given_z0=report.pr_k0_given_z0,
            passed=report.passed,
        ))
    return rows
