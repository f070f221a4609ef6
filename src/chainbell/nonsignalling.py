"""Exhaustive non-signalling verification by exact marginal equality.

All checks share one strategy: materialize the full joint table of a
system (refusing outright if it exceeds the evaluation cap -- never
sampling), then compare marginal sums across input assignments.  Box
products are materialized from their boxes, other systems point by point
through ``evaluate``.

All three conditions are one marginal-independence equation over an
index subset S of one side: that side's outputs outside S, together
with all of the other side's outputs, must not depend on that side's
inputs inside S.  One kernel checks it:

- ``check_ab``: S = {1..n} on each side -- neither party's full output
  marginal depends on the other party's inputs;
- ``check_time_ordered``: S = {i..n} for every cut i on each side --
  outputs before the cut (together with the whole other side) do not
  depend on inputs from the cut onwards;
- ``check_subset``: S given by the caller, on one side.

Every violation is counted.  A report keeps as witnesses the
``MAX_WITNESSES`` smallest violations by ``_witness_key``: side, cut,
then the settings and outputs of the two compared marginals.

Exact tables (all ints or Fractions) are normalized to integer numerators
over a common denominator, so every marginal comparison is exact integer
arithmetic.  Float tables are compared to ``FLOAT_ATOL``, far above
double rounding at desk scale and far below any structural violation.

Every reported violation is replayable: ``replay_violation`` recomputes
the two marginal sums from the stored witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, product
from operator import add, itemgetter, ne
from typing import TYPE_CHECKING, Iterable, Sequence

from ._coding import int_to_bits, int_to_digits
from .boxes import FLOAT_ATOL, Prob, close

if TYPE_CHECKING:  # pragma: no cover
    from .systems import SystemEvaluator

#: Default bound on evaluator calls per verification.
DEFAULT_EVAL_CAP = 2**26

#: Violation witnesses retained per report: the smallest by
#: ``_witness_key``.  All violations are counted.
MAX_WITNESSES = 10

CONDITION_AB = "ab"
CONDITION_TIME_ORDERED = "time-ordered"
CONDITION_SUBSET = "subset"


class InfeasibleSizeError(RuntimeError):
    """The requested exhaustive check exceeds the evaluation cap."""


@dataclass(frozen=True)
class NsViolation:
    """A replayable witness of one violated marginal equality.

    ``x_kept``/``y_kept`` are full-length tuples with ``None`` at the
    summed positions.  The two sides of the inequality differ only in
    the varied inputs: left uses ``u_left``/``v_left``, right uses
    ``u_right``/``v_right``.
    """

    condition: str
    side: str
    cut: int | None
    summed_positions: tuple[int, ...]
    x_kept: tuple[int | None, ...]
    y_kept: tuple[int | None, ...]
    u_left: tuple[int, ...]
    v_left: tuple[int, ...]
    u_right: tuple[int, ...]
    v_right: tuple[int, ...]
    left: Prob
    right: Prob


@dataclass
class NsReport:
    condition: str
    passed: bool
    violations: list[NsViolation]
    violations_total: int
    checks_performed: int
    tolerance: Prob

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.violations_total} violations)"
        return f"{self.condition}: {status} [{self.checks_performed} checks]"


@dataclass
class JointTable:
    """A fully materialized joint distribution.

    Exact tables hold integer numerators over ``den``; float tables hold
    raw floats with ``den`` None.  Index layout, all first-position most
    significant: ``((u * N^n + v) * 2^n + x) * 2^n + y``.
    """

    n: int
    n_settings: int
    values: list
    den: int | None

    @property
    def exact(self) -> bool:
        return self.den is not None


def materialize(system: "SystemEvaluator", *, max_evals: int = DEFAULT_EVAL_CAP) -> JointTable:
    """The full joint table of a system.

    A ``BoxProductSystem`` that keeps the shared ``evaluate`` is built from
    its boxes (``_box_product_table``); every other system, including a
    subclass that overrides ``evaluate``, is evaluated at every
    (x, y, u, v) point.  Both paths give the same table: same ``den``,
    same values, same float bits.  The table is exact when every value
    is an int or a Fraction.

    Raises InfeasibleSizeError, before any work, when the table has more
    than ``max_evals`` entries -- on either path.
    """
    from .systems import BoxProductSystem  # deferred: systems imports this module

    n, N = system.n, system.n_settings
    total = (4 * N * N) ** n
    if total > max_evals:
        raise InfeasibleSizeError(
            f"joint table needs {total} evaluations, cap is {max_evals}"
        )
    if (isinstance(system, BoxProductSystem)
            and type(system).evaluate is BoxProductSystem.evaluate):
        return _box_product_table(system)
    settings = list(product(range(N), repeat=n))
    outcomes = list(product((0, 1), repeat=n))
    raw = []
    exact = True
    for u in settings:
        for v in settings:
            for x in outcomes:
                for y in outcomes:
                    val = system.evaluate(x, y, u, v)
                    exact = exact and isinstance(val, (int, Fraction))
                    raw.append(val)
    if not exact:
        return JointTable(n, N, [float(v) for v in raw], None)
    den = 1
    for d in {v.denominator for v in raw}:
        den = math.lcm(den, d)
    return JointTable(n, N, [v.numerator * (den // v.denominator) for v in raw], den)


def _box_product_table(system) -> JointTable:
    """Joint table of a box product, built from its boxes.

    For fixed x the row over Bob's y at (u, v) is the Kronecker product of
    each position's two cells box_j[u_j, v_j][x_j, :].  The rows of one x
    are built position by position for all (u_j, v_j) at once, so each
    entry costs about one multiplication.  Exact cells are scaled to integers over one common
    denominator D; the table's ``den`` is D^n over the gcd of D^n and every
    numerator, the lcm of the entries' reduced denominators, as on the
    per-point path.  Float entries are products taken in position order
    starting from 1, exactly as ``evaluate`` takes them.
    """
    n, N = system.n, system.n_settings
    X, NN = 2**n, N * N
    boxes_by_x = [system.pair_boxes(x) for x in range(X)]
    distinct = {id(box): box for boxes in boxes_by_x for box in boxes}
    exact = all(box.exact for box in distinct.values())
    if exact:
        D = math.lcm(*(c.denominator for box in distinct.values() for c in box.cells))
        cells = {key: [c.numerator * (D // c.denominator) for c in box.cells]
                 for key, box in distinct.items()}
    else:
        cells = {key: box.cells for key, box in distinct.items()}

    # Rows are built in (u_1, v_1, u_2, v_2, ...) order; offsets[k] is where
    # the k-th row's (u, v) block starts in the table's (u, v, x, y) layout.
    offsets = [0]
    for j in range(n):
        step = N ** (n - 1 - j)
        offsets = [o + (a * N**n + b) * step * X * X
                   for o in offsets for a in range(N) for b in range(N)]

    values = [0] * (NN**n * X * X)
    for x, boxes in enumerate(boxes_by_x):
        rows = [[1]]
        for j, box in enumerate(boxes):
            t = cells[id(box)]
            bit = (x >> (n - 1 - j)) & 1
            pairs = [(t[(ab * 2 + bit) * 2], t[(ab * 2 + bit) * 2 + 1]) for ab in range(NN)]
            rows = [[p * c for p in row for c in pair] for row in rows for pair in pairs]
        start = x * X
        for offset, row in zip(offsets, rows):
            values[offset + start:offset + start + X] = row

    if not exact:
        return JointTable(n, N, [float(v) for v in values], None)
    full = D**n
    g = math.gcd(full, *values)
    if g > 1:
        values = [v // g for v in values]
    return JointTable(n, N, values, full // g)


def _scaled(value, den: int | None) -> Prob:
    return value if den is None else Fraction(value, den)


def _witness_key(v: NsViolation):
    return (
        v.side,
        v.cut if v.cut is not None else 0,
        v.u_left,
        v.v_left,
        v.u_right,
        v.v_right,
        tuple(-1 if b is None else b for b in v.x_kept),
        tuple(-1 if b is None else b for b in v.y_kept),
    )


def _scatter_codes(positions: Sequence[int], n: int, base: int) -> list[int]:
    """Codes of all assignments over `positions`, embedded in an n-digit word,
    in ascending order."""
    weights = [base ** (n - p) for p in positions]
    codes = [0]
    for w in weights:
        codes = [c + d * w for c in codes for d in range(base)]
    return codes


def _independence_violations(
    table: JointTable,
    side: str,
    subset: tuple[int, ...],
    condition: str,
    cut: int | None,
) -> tuple[list[NsViolation], int, int]:
    """Check that ``side``'s outputs outside ``subset``, together with all
    of the other side's outputs, do not depend on ``side``'s inputs inside
    ``subset``.

    For each (u, v) the marginal grid sums ``side``'s outcomes over the
    subset positions; grids whose ``side`` settings differ only inside the
    subset are compared with the one that has zeros there.  Both sides are
    read in place, through the strides of the table layout.  Comparisons
    run in ``_witness_key`` order, so the first MAX_WITNESSES violations
    found are the smallest.  Returns (witnesses, total violation count,
    comparisons performed).
    """
    n, N, den = table.n, table.n_settings, table.den
    NS, X = N**n, 2**n
    kept = tuple(p for p in range(1, n + 1) if p not in subset)
    setting_keep = _scatter_codes(kept, n, N)
    setting_var = _scatter_codes(subset, n, N)
    outcome_keep = _scatter_codes(kept, n, 2)
    outcome_var = _scatter_codes(subset, n, 2)
    atol = 0 if table.exact else FLOAT_ATOL

    # Offsets into one (u, v) block of X*X entries (x major, y minor),
    # summand-major; within a summand in grid order, Alice's x before Bob's y.
    if side == "alice":
        summands = [[(xk + xs) * X + y for xk in outcome_keep for y in range(X)]
                    for xs in outcome_var]
        refs = [uk * NS + v for uk in setting_keep for v in range(NS)]
        var_stride = NS
    else:
        summands = [[x * X + yk + ys for x in range(X) for yk in outcome_keep]
                    for ys in outcome_var]
        refs = [u * NS + vk for u in range(NS) for vk in setting_keep]
        var_stride = 1
    G = len(summands[0])
    gather = itemgetter(*(i for offsets in summands for i in offsets))
    block = X * X
    values = table.values

    def marginal(index: int) -> list:
        """The grid of (u, v) block ``index``, summands added left to right."""
        cells = gather(values[index * block:(index + 1) * block])
        grid = cells[:G]
        for s in range(G, block, G):
            grid = map(add, grid, cells[s:s + G])
        return list(grid)

    found: list[tuple] = []
    total = 0
    for ref_index in refs:
        ref = marginal(ref_index)
        for d in setting_var[1:]:
            index = ref_index + d * var_stride
            grid = marginal(index)
            if grid == ref:
                continue
            for k in compress(count(), map(ne, ref, grid)):
                if not close(ref[k], grid[k], atol):
                    total += 1
                    if len(found) < MAX_WITNESSES:
                        found.append((ref_index, index, k, ref[k], grid[k]))
    checks = len(refs) * (len(setting_var) - 1) * G

    def masked(code: int) -> tuple[int | None, ...]:
        return tuple(b if p in kept else None for p, b in enumerate(int_to_bits(code, n), 1))

    violations = []
    for left, right, k, lhs, rhs in found:
        x, y = divmod(summands[0][k], X)
        if side == "alice":
            x_bits, y_bits = masked(x), int_to_bits(y, n)
        else:
            x_bits, y_bits = int_to_bits(x, n), masked(y)
        u_left, v_left = divmod(left, NS)
        u_right, v_right = divmod(right, NS)
        violations.append(NsViolation(
            condition, side, cut, subset, x_bits, y_bits,
            int_to_digits(u_left, n, N), int_to_digits(v_left, n, N),
            int_to_digits(u_right, n, N), int_to_digits(v_right, n, N),
            _scaled(lhs, den), _scaled(rhs, den)))
    return violations, total, checks


def _merge(condition: str, parts: Iterable[tuple[list[NsViolation], int, int]],
           den: int | None) -> NsReport:
    """One report from kernel results given in ``_witness_key`` order."""
    violations: list[NsViolation] = []
    total = 0
    checks = 0
    for viols, t, c in parts:
        violations.extend(viols)
        total += t
        checks += c
    return NsReport(
        condition=condition,
        passed=total == 0,
        violations=violations[:MAX_WITNESSES],
        violations_total=total,
        checks_performed=checks,
        tolerance=Fraction(0) if den is not None else FLOAT_ATOL,
    )


def check_ab(system: "SystemEvaluator", *, max_evals: int = DEFAULT_EVAL_CAP,
             table: JointTable | None = None) -> NsReport:
    """Neither full output marginal may depend on the other side's inputs."""
    t = table if table is not None else materialize(system, max_evals=max_evals)
    everything = tuple(range(1, t.n + 1))
    parts = [_independence_violations(t, side, everything, CONDITION_AB, 1)
             for side in ("alice", "bob")]
    return _merge(CONDITION_AB, parts, t.den)


def check_time_ordered(system: "SystemEvaluator", *, max_evals: int = DEFAULT_EVAL_CAP,
                       table: JointTable | None = None) -> NsReport:
    """Future inputs may not influence past outputs, on either side."""
    t = table if table is not None else materialize(system, max_evals=max_evals)
    parts = [
        _independence_violations(t, side, tuple(range(cut, t.n + 1)),
                                 f"{CONDITION_TIME_ORDERED}-{side}", cut)
        for side in ("alice", "bob")
        for cut in range(1, t.n + 1)
    ]
    return _merge(CONDITION_TIME_ORDERED, parts, t.den)


def check_subset(system: "SystemEvaluator", side: str, subset: Iterable[int], *,
                 max_evals: int = DEFAULT_EVAL_CAP,
                 table: JointTable | None = None) -> NsReport:
    """Outputs outside ``subset`` on ``side`` (plus the whole other side)
    must not depend on the inputs inside ``subset``."""
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    sub = tuple(sorted(set(subset)))
    if not sub or sub[0] < 1 or sub[-1] > system.n:
        raise ValueError(f"subset must be a nonempty subset of 1..{system.n}, got {sub}")
    t = table if table is not None else materialize(system, max_evals=max_evals)
    part = _independence_violations(t, side, sub, CONDITION_SUBSET, None)
    return _merge(CONDITION_SUBSET, [part], t.den)


def replay_violation(system: "SystemEvaluator", violation: NsViolation) -> tuple[Prob, Prob]:
    """Recompute both marginal sums of a witness directly from evaluate()."""
    n = system.n

    if violation.side == "alice":
        template, full = violation.x_kept, violation.y_kept
    else:
        template, full = violation.y_kept, violation.x_kept
    holes = [i for i, b in enumerate(template) if b is None]
    if sorted(p - 1 for p in violation.summed_positions) != holes:
        raise ValueError("witness summed positions do not match its kept outputs")

    def marginal(u, v):
        tot = None
        for combo in product((0, 1), repeat=len(holes)):
            filled = list(template)
            for pos, bit in zip(holes, combo):
                filled[pos] = bit
            if violation.side == "alice":
                val = system.evaluate(tuple(filled), full, u, v)
            else:
                val = system.evaluate(full, tuple(filled), u, v)
            tot = val if tot is None else tot + val
        return tot

    left = marginal(violation.u_left, violation.v_left)
    right = marginal(violation.u_right, violation.v_right)
    return left, right
