"""Distance-from-uniform analysis of the attack and parameter scans.

The adversary's advantage is measured by the distance of the key bit
K = f(X) from a fair coin given her outcome Z:

    d = p(z=0) * (Pr[K=0|Z=0] - Pr[K=1|Z=0]) - (Pr[K=0] - Pr[K=1]) / 2

with parts labelled so that Pr[K=0|Z=0] >= 1/2.  For the half/half
partitions built here this reduces to Pr[K=0|Z=0] - Pr[K=0], and the
bound to check is eps * 2/(3n).

Each part's Pr[f(X) = 0] comes from one of two paths:

- the closed form, for ``AttackedSystem`` parts only.  It sums the
  pivot records' zero counts, weighted by the biased box's Alice
  marginal, so it scales to large n.  It rests on three premises, each
  checked before summing: the base box's Alice marginal is 1/2 at every
  setting, ``biased[0]``'s Alice marginal is the same at every setting,
  and ``biased[1]``'s mirrors it.  Then the part's X-marginal does not
  depend on the inputs.  A part that breaks a premise is refused.
- per-point summation at an explicit input tuple (``at_input``): the
  sum of ``evaluate`` over every y and every x with f(x) = 0, refused
  above ``DEFAULT_EVAL_CAP`` calls per part.  It serves every other
  part and cross-checks the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .adversary import (
    HashFunction,
    build_attack_partition,
    is_almost_balanced,
    parse_function_spec,
    trivial_strategy,
)
from .boxes import FLOAT_ATOL, HALF, BoxParams, Prob, close
from .nonsignalling import DEFAULT_EVAL_CAP, InfeasibleSizeError
from .systems import AttackedSystem, Partition, SystemEvaluator

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


def _require_closed_form_premises(part: AttackedSystem) -> None:
    """Raise ValueError unless the part's boxes meet the closed form's
    premises, compared exactly for exact boxes, else to FLOAT_ATOL."""
    base, (toward0, toward1) = part.base, part.biased
    atol = 0 if all(box.exact for box in (base, toward0, toward1)) else FLOAT_ATOL
    m_hi, m_lo = toward0.alice_marginal(0, 0, 0), toward0.alice_marginal(0, 0, 1)
    settings = list(product(range(part.n_settings), repeat=2))
    for box, want0, want1, premise in [
        (base, HALF, HALF, "the base box's Alice marginal is 1/2 at every setting"),
        (toward0, m_hi, m_lo, "biased[0]'s Alice marginal is the same at every setting"),
        (toward1, m_lo, m_hi, "biased[1]'s Alice marginal mirrors biased[0]'s"),
    ]:
        if not all(close(box.alice_marginal(a, b, 0), want0, atol)
                   and close(box.alice_marginal(a, b, 1), want1, atol)
                   for a, b in settings):
            raise ValueError(f"closed form premise fails: {premise}; "
                             "pass at_input to sum evaluate at one input")


def _part_key_zero_probability(f: HashFunction, part: SystemEvaluator) -> Prob:
    """Pr[f(X) = 0] of an attacked part, by the closed form."""
    if not isinstance(part, AttackedSystem):
        raise ValueError(
            f"the closed form serves AttackedSystem parts only, not "
            f"{type(part).__name__}; pass at_input to sum evaluate at one input"
        )
    if part.profile.function.bits != f.bits:
        raise ValueError("partition was built for a different hash function")
    _require_closed_form_premises(part)
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


def _part_key_zero_at_input(f: HashFunction, part: SystemEvaluator,
                            u: Sequence[int], v: Sequence[int]) -> Prob:
    """Pr[f(X) = 0] of any part at one input, by summing ``evaluate``."""
    ys = list(product((0, 1), repeat=f.n))
    return sum(sum(part.evaluate(x, y, u, v) for y in ys)
               for x in product((0, 1), repeat=f.n) if f.value(x) == 0)


def distance_details(f: HashFunction, partition: Partition, *,
                     at_input: tuple[Sequence[int], Sequence[int]] | None = None,
                     ) -> DistanceBreakdown:
    """Evaluate the distance formula, choosing the labelling.

    Without ``at_input`` every part must be an ``AttackedSystem`` that
    meets the closed form's premises; otherwise ValueError.  With it,
    each part is summed at that input, or InfeasibleSizeError is raised
    before any evaluation when that takes more than DEFAULT_EVAL_CAP
    calls per part.

    The part with the larger Pr[K=0|Z] plays z = 0.  If even that falls
    below 1/2 the key labels are swapped as well, which leaves the
    distance unchanged but restores the convention Pr[K=0|Z=0] >= 1/2.
    """
    if len(partition.parts) != 2:
        raise ValueError(f"need a two-part partition, got {len(partition.parts)} parts")

    if at_input is None:
        q = [_part_key_zero_probability(f, part) for part in partition.systems]
    else:
        calls = f.zeros_total * 2**f.n
        if calls > DEFAULT_EVAL_CAP:
            raise InfeasibleSizeError(
                f"distance at one input needs {calls} evaluations per part, "
                f"cap is {DEFAULT_EVAL_CAP}"
            )
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
