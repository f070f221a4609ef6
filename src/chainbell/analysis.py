"""Distance-from-uniform analysis of the attack and parameter scans.

The adversary's advantage is measured by the distance of the key bit
K = f(X) from a fair coin given her outcome Z:

    d = p(z=0) * (Pr[K=0|Z=0] - Pr[K=1|Z=0]) - (Pr[K=0] - Pr[K=1]) / 2

with parts labelled so that Pr[K=0|Z=0] >= 1/2.  For the half/half
partitions built here this reduces to Pr[K=0|Z=0] - Pr[K=0], and the
bound to check is eps * 2/(3n).

Each part's Pr[f(X) = 0] comes from one of two paths:

- the closed form, for ``AttackedSystem`` parts only.  It weights
  f's zeros towards sigma (the profile's ``zeros_toward``, read off
  the gap the pivotal walk sums) and away from it by the biased box's
  Alice marginal, so it scales to large n.  It rests on three premises, each
  checked first: the base box's Alice marginal is 1/2 at every
  setting, ``biased[0]``'s Alice marginal is the same at every
  setting, and ``biased[1]``'s mirrors it.  Then the part's X-marginal
  does not depend on the inputs.  A part that breaks a premise is
  refused.
- summation at an explicit input tuple (``at_input``), after
  ``refuse_over_cap`` passes for each part's path and the input is
  checked against every part.  It serves every other part and
  cross-checks the closed form.  A box product built from its boxes
  (``systems.built_from_boxes``) depends on y through no box, so its
  X-marginal at (u, v) is the product of its boxes' Alice marginals:
  Pr[f(X) = 0] is summed from them, n cells per string with f(x) = 0,
  zeros(f) * n Alice-marginal cells under the cap.  Every other part
  sums ``evaluate`` over every y and every such x, zeros(f) * 2^n
  evaluations under the cap.
  Rational values are exact, so the two summations agree exactly, in
  value and type; quantum values may differ from the per-point sum in
  the last bits, since the terms are added in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .adversary import (
    HashFunction,
    build_attack_partition,
    is_almost_balanced,
    parse_function_spec,
    trivial_strategy,
)
from .boxes import HALF, BoxParams, Prob, at_least, close
from .nonsignalling import refuse_over_cap
from .systems import AttackedSystem, Partition, SystemEvaluator, built_from_boxes

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


def _closed_form_marginals(part: AttackedSystem) -> tuple[Prob, Prob]:
    """``biased[0]``'s Alice marginals (1/2 + eps, 1/2 - eps) towards and
    away from its bias.  Raises ValueError unless the part's boxes meet
    the closed form's premises, compared under the tolerance rule of
    ``boxes``."""
    base, (toward0, toward1) = part.base, part.biased
    m_hi, m_lo = toward0.alice_marginal(0, 0, 0), toward0.alice_marginal(0, 0, 1)
    settings = list(product(range(part.n_settings), repeat=2))
    for box, want0, want1, premise in [
        (base, HALF, HALF, "the base box's Alice marginal is 1/2 at every setting"),
        (toward0, m_hi, m_lo, "biased[0]'s Alice marginal is the same at every setting"),
        (toward1, m_lo, m_hi, "biased[1]'s Alice marginal mirrors biased[0]'s"),
    ]:
        if not all(close(box.alice_marginal(a, b, 0), want0)
                   and close(box.alice_marginal(a, b, 1), want1)
                   for a, b in settings):
            raise ValueError(f"closed form premise fails: {premise}; "
                             "pass at_input to sum evaluate at one input")
    return m_hi, m_lo


def _part_key_zero_probability(f: HashFunction, part: SystemEvaluator) -> Prob:
    """Pr[f(X) = 0] of an attacked part, by the closed form."""
    if not isinstance(part, AttackedSystem):
        raise ValueError(
            f"the closed form serves AttackedSystem parts only, not "
            f"{type(part).__name__}; pass at_input to sum evaluate at one input"
        )
    if part.profile.function is not f and part.profile.function.bits != f.bits:
        raise ValueError("partition was built for a different hash function")
    m_hi, m_lo = _closed_form_marginals(part)
    n = f.n
    # Part z biases towards sigma when z = 0 and away from it when z = 1.
    match_zeros = part.profile.zeros_toward
    other_zeros = f.zeros_total - match_zeros
    if part.z:
        match_zeros, other_zeros = other_zeros, match_zeros
    return (m_hi * match_zeros + m_lo * other_zeros) / 2 ** (n - 1)


def _zero_strings(f: HashFunction) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(code, x) for every string x with f(x) = 0, in ascending code."""
    return ((code, x) for code, x in enumerate(product((0, 1), repeat=f.n))
            if f.bits[code] == 0)


def _part_key_zero_at_input(f: HashFunction, part: SystemEvaluator
                            ) -> Callable[[Sequence[int], Sequence[int]], Prob]:
    """Pr[f(X) = 0] of any part as a function of one input, checked by the
    caller; ``refuse_over_cap`` first passes for the cost of the part's
    path, in that path's unit.

    A box product built from its boxes sums, over the strings x with
    f(x) = 0, the product of its boxes' Alice marginals
    alice_marginal(box_k(x), u_k, v_k, x_k): zeros(f) * n Alice-marginal
    cells.  Every other part sums ``evaluate`` over every y and every
    such x: zeros(f) * 2^n evaluations.
    """
    if not built_from_boxes(part):
        refuse_over_cap("one part's distance at one input through evaluate",
                        f.zeros_total * 2**f.n)
        ys = list(product((0, 1), repeat=f.n))
        return lambda u, v: sum(sum(part.evaluate(x, y, u, v) for y in ys)
                                for _, x in _zero_strings(f))
    refuse_over_cap("one part's distance at one input from its boxes' Alice marginals",
                    f.zeros_total * f.n, "Alice-marginal cells")

    def from_boxes(u: Sequence[int], v: Sequence[int]) -> Prob:
        total: Prob = 0
        for code, x in _zero_strings(f):
            val: Prob = 1
            for box, a, b, bit in zip(part.pair_boxes(code), u, v, x):
                val *= box.alice_marginal(a, b, bit)
            total += val
        return total
    return from_boxes


def distance_details(f: HashFunction, partition: Partition, *,
                     at_input: tuple[Sequence[int], Sequence[int]] | None = None,
                     ) -> DistanceBreakdown:
    """Evaluate the distance formula, choosing the labelling.

    Without ``at_input`` every part must be an ``AttackedSystem`` that
    meets the closed form's premises; otherwise ValueError.  With it,
    each part's Pr[f(X) = 0] is summed at that input, after
    ``refuse_over_cap`` passes for every part's path and the input is
    checked against every part (ValueError).  A box product built from
    its boxes is summed from its boxes' Alice marginals, zeros(f) * n
    cells; every other part from ``evaluate``, zeros(f) * 2^n calls.
    Rational values are exact and equal to the per-point sum of
    ``evaluate``; quantum values may differ from it in the last bits.

    The part with the larger Pr[K=0|Z] plays z = 0.  If even that falls
    below 1/2 the key labels are swapped as well, which leaves the
    distance unchanged but restores the convention Pr[K=0|Z=0] >= 1/2.
    """
    if len(partition.parts) != 2:
        raise ValueError(f"need a two-part partition, got {len(partition.parts)} parts")

    if at_input is None:
        q = [_part_key_zero_probability(f, part) for part in partition.systems]
    else:
        summations = [_part_key_zero_at_input(f, part) for part in partition.systems]
        u, v = at_input
        for part in partition.systems:
            part._check_point((0,) * f.n, (0,) * f.n, u, v)
        q = [summed(u, v) for summed in summations]
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
    pr_k0_given_z0: Prob
    pivotal_histogram: dict[int, int]
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
    passed = at_least(distance, bound)
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
    """One scan row: the attack's report at one n, or why there is none."""

    family: str
    n: int
    report: AttackReport | None
    error: str | None

    @property
    def distance_times_n(self) -> Prob:
        return self.report.distance * self.n

    @property
    def distance_times_sqrt_n(self) -> float:
        return float(self.report.distance) * math.sqrt(self.n)


def scan(family: str, n_values: Iterable[int], params: BoxParams) -> list[ScanRow]:
    """Run the attack across a function family; one row per n.

    A function that cannot be built is recorded in its row and the scan
    continues.
    """
    rows = []
    for n in n_values:
        try:
            report = run_attack(parse_function_spec(family, n), params)
        except ValueError as exc:
            rows.append(ScanRow(family, n, None, str(exc)))
        else:
            rows.append(ScanRow(family, n, report, None))
    return rows
