"""Exhaustive non-signalling verification by exact marginal equality.

All checks share one strategy: materialize the full joint table of a
system (refused by ``refuse_over_cap`` above the evaluation cap --
never sampled), then compare marginal sums across input assignments.
Box products are materialized from their boxes, other systems point by
point through ``evaluate``.

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

Marginals are whole-table passes, never gathered block by block.
``_sum_out`` sums one output position out of a flat grid that covers
every input (u, v) at once; S is summed out one position at a time,
highest position first.  The time-ordered cuts of one side are one
chain: cut n sums position n out of the table, and cut i sums position
i out of cut i+1's grid, so all n cuts together sum about one table's
worth of entries.  Every check sums in this order, so in float tables
it is the summation order, and a marginal has the same float bits
whichever check computes it.

Every violation is counted.  A report keeps as witnesses the first
``MAX_WITNESSES`` violations in witness order: by side (alice before
bob), then cut (none counts as 0), then the left settings u and v,
then the right settings u and v, then the kept outputs x and y, each
compared digit by digit from position 1 with a summed position before
either bit.

Only ``JointTable.point`` decodes the table's index layout; the kernel
and ``verify_partition`` name witness points through it.

Exact tables (all ints or Fractions) are normalized to integer numerators
over a common denominator, so every marginal comparison is exact integer
arithmetic.  Marginals are compared by ``boxes.close``, under the
tolerance rule stated in ``boxes``; its float tolerance is far above
double rounding at desk scale and far below any structural violation.

Every reported violation is replayable: ``replay_violation`` recomputes
the two marginal sums from the stored witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, count, cycle, product, repeat
from operator import add, floordiv, ne
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._coding import int_to_digits
from .boxes import FLOAT_ATOL, Prob, all_exact, close

if TYPE_CHECKING:  # pragma: no cover
    from .systems import SystemEvaluator

#: Evaluations allowed per joint table, per partition verification and
#: per part's distance at one input.  Only ``refuse_over_cap`` reads it.
EVAL_CAP = 2**26

#: Violation witnesses retained per report: the first in witness
#: order.  All violations are counted.
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
    checks_performed: int
    violations_total: int
    tolerance: Prob
    violations: list[NsViolation]

    def __str__(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.violations_total} violations)"
        return f"{self.condition}: {status} [{self.checks_performed} checks]"


@dataclass
class JointTable:
    """A fully materialized joint distribution.

    Exact tables hold integer numerators over ``den``; float tables hold
    raw floats with ``den`` None.  Index layout, all first-position most
    significant: ``((u * N^n + v) * 2^n + x) * 2^n + y``.  ``point``
    decodes an index and ``blocks`` cuts the table by input (u, v).
    """

    n: int
    n_settings: int
    values: list
    den: int | None

    @property
    def exact(self) -> bool:
        return self.den is not None

    def point(self, index: int) -> tuple[tuple[int, ...], ...]:
        """The point (x, y, u, v) whose value is ``values[index]``."""
        n, N = self.n, self.n_settings
        index, y = divmod(index, 2**n)
        index, x = divmod(index, 2**n)
        u, v = divmod(index, N**n)
        return (int_to_digits(x, n, 2), int_to_digits(y, n, 2),
                int_to_digits(u, n, N), int_to_digits(v, n, N))

    def blocks(self) -> Iterator[list]:
        """The values at each input (u, v) in index order, 4^n per block."""
        size = 4**self.n
        return (self.values[start:start + size] for start in range(0, len(self.values), size))


def table_entries(n: int, n_settings: int) -> int:
    """Entries of the joint table of n pairs with N settings: (4 N^2)^n."""
    return (4 * n_settings**2) ** n


def refuse_over_cap(what: str, evaluations: int) -> None:
    """Raise InfeasibleSizeError if ``what`` needs more than EVAL_CAP evaluations."""
    if evaluations > EVAL_CAP:
        raise InfeasibleSizeError(f"{what} needs {evaluations} evaluations, cap is {EVAL_CAP}")


def materialize(system: "SystemEvaluator") -> JointTable:
    """The full joint table of a system.

    A ``BoxProductSystem`` that keeps the shared ``evaluate`` is built from
    its boxes (``_box_product_table``); every other system, including a
    subclass that overrides ``evaluate``, is evaluated at every
    (x, y, u, v) point.  Both paths give the same table: same ``den``,
    same values, same float bits.  The table is exact when every value
    is an int or a Fraction.

    ``refuse_over_cap`` raises InfeasibleSizeError, before any work, when
    the table has more than EVAL_CAP entries -- on either path.
    """
    from .systems import BoxProductSystem  # deferred: systems imports this module

    n, N = system.n, system.n_settings
    refuse_over_cap("joint table", table_entries(n, N))
    if (isinstance(system, BoxProductSystem)
            and type(system).evaluate is BoxProductSystem.evaluate):
        return _box_product_table(system)
    settings = list(product(range(N), repeat=n))
    outcomes = list(product((0, 1), repeat=n))
    raw = [system.evaluate(x, y, u, v)
           for u in settings for v in settings for x in outcomes for y in outcomes]
    if not all_exact(raw):
        return JointTable(n, N, [float(v) for v in raw], None)
    den = 1
    for d in {v.denominator for v in raw}:
        den = math.lcm(den, d)
    return JointTable(n, N, [v.numerator * (den // v.denominator) for v in raw], den)


def _box_product_table(system) -> JointTable:
    """Joint table of a box product, built from its boxes.

    For fixed x the row over Bob's y at (u, v) is the Kronecker product of
    each position's pair box_j[u_j, v_j][x_j, :].  Each distinct box is read
    through ``prob`` once per bit x_j, into N^2 (y = 0, y = 1) pairs in (a, b)
    order; the rows of one x are built from them position by position for all
    (u_j, v_j) at once, so each entry costs about one multiplication.  Exact
    cells are scaled to integers over one common denominator D; the table's
    ``den`` is D^n over the gcd of D^n and every numerator, the lcm of the
    entries' reduced denominators, as on the per-point path.  Float entries
    are products taken in position order starting from 1, as ``evaluate``
    takes them.
    """
    n, N = system.n, system.n_settings
    X = 2**n
    boxes_by_x = [system.pair_boxes(x) for x in range(X)]
    distinct = {id(box): box for boxes in boxes_by_x for box in boxes}
    exact = all(box.exact for box in distinct.values())
    if exact:
        D = math.lcm(*(c.denominator for box in distinct.values() for c in box.cells))
    pairs = {(key, bit): [tuple(c.numerator * (D // c.denominator) if exact else c
                                for c in (box.prob(a, b, bit, 0), box.prob(a, b, bit, 1)))
                          for a in range(N) for b in range(N)]
             for key, box in distinct.items() for bit in (0, 1)}

    # Rows are built in (u_1, v_1, u_2, v_2, ...) order; offsets[k] is where
    # the k-th row's (u, v) block starts in the table's (u, v, x, y) layout.
    offsets = [0]
    for j in range(n):
        step = N ** (n - 1 - j)
        offsets = [o + (a * N**n + b) * step * X * X
                   for o in offsets for a in range(N) for b in range(N)]

    values = [0] * table_entries(n, N)
    for x, boxes in enumerate(boxes_by_x):
        # All rows of x end to end, each 2^j entries long after position j.
        rows = [1]
        for j, box in enumerate(boxes):
            bit_pairs = pairs[id(box), (x >> (n - 1 - j)) & 1]
            width = 1 << j
            rows = [p * c for start in range(0, len(rows), width) for pair in bit_pairs
                    for p in rows[start:start + width] for c in pair]
        start = x * X
        for k, offset in enumerate(offsets):
            values[offset + start:offset + start + X] = rows[k * X:(k + 1) * X]

    if not exact:
        return JointTable(n, N, [float(v) for v in values], None)
    full = D**n
    g = math.gcd(full, *values)
    if g > 1:
        values = list(map(floordiv, values, repeat(g)))
    return JointTable(n, N, values, full // g)


def _scaled(value, den: int | None) -> Prob:
    return value if den is None else Fraction(value, den)


def _scatter_codes(positions: Sequence[int], n: int, base: int) -> list[int]:
    """Codes of all assignments over `positions`, embedded in an n-digit word,
    in ascending order."""
    weights = [base ** (n - p) for p in positions]
    codes = [0]
    for w in weights:
        codes = [c + d * w for c in codes for d in range(base)]
    return codes


def _sum_out(values: list, stride: int) -> list:
    """``values`` with one binary output position summed out, the position
    whose two outcomes lie ``stride`` entries apart: in each run of
    2·stride entries, the first half plus the second.  One pass over the
    whole flat grid, every (u, v) block at once."""
    low = (1,) * stride + (0,) * stride
    return list(map(add, compress(values, cycle(low)), compress(values, cycle(low[::-1]))))


def _strides(n: int, side: str, subset: Sequence[int]) -> Iterator[int]:
    """The ``_sum_out`` strides that sum ``side``'s outputs at ``subset``
    out of a table, highest position first.  With k kept positions after
    p (those after p in ``subset`` are summed out already), Alice's
    outcomes at p lie 2^k·2^n entries apart, Bob's 2^k."""
    unit = 2**n if side == "alice" else 1
    return (unit << (n - p - done) for done, p in enumerate(reversed(subset)))


def _independence_violations(
    table: JointTable,
    grid: list,
    side: str,
    subset: tuple[int, ...],
    condition: str,
    cut: int | None,
) -> tuple[list[NsViolation], int, int]:
    """Check that ``side``'s outputs outside ``subset``, together with all
    of the other side's outputs, do not depend on ``side``'s inputs inside
    ``subset``.

    ``grid`` is ``table`` with ``side``'s outputs at ``subset`` summed out
    (by ``_sum_out``, highest position first; in float tables this is the
    summation order), so it keeps the table's layout with those digits
    removed: one block of kept outcomes per (u, v), in table order.  The
    blocks whose ``side`` settings differ only inside the subset are
    compared with the one that has zeros there, as whole slices, entry by
    entry only where two slices differ.  Comparisons run in witness order
    (see the module docstring), so the first MAX_WITNESSES violations
    found are the report's witnesses.  Returns (witnesses, total violation
    count, comparisons performed).
    """
    n, N, den = table.n, table.n_settings, table.den
    NS, X = N**n, 2**n
    kept = tuple(p for p in range(1, n + 1) if p not in subset)
    setting_keep = _scatter_codes(kept, n, N)
    setting_var = _scatter_codes(subset, n, N)[1:]
    if side == "alice":
        refs = [uk * NS + v for uk in setting_keep for v in range(NS)]
        var_stride = NS
    else:
        refs = [u * NS + vk for u in range(NS) for vk in setting_keep]
        var_stride = 1
    G = len(grid) // (NS * NS)

    found: list[tuple] = []
    total = 0
    for ref_index in refs:
        ref = grid[ref_index * G:(ref_index + 1) * G]
        for d in setting_var:
            index = ref_index + d * var_stride
            other = grid[index * G:(index + 1) * G]
            if other == ref:
                continue
            for k in compress(count(), map(ne, ref, other)):
                if not close(ref[k], other[k]):
                    total += 1
                    if len(found) < MAX_WITNESSES:
                        found.append((ref_index, index, k, ref[k], other[k]))
    checks = len(refs) * len(setting_var) * G

    def masked(bits: tuple[int, ...]) -> tuple[int | None, ...]:
        return tuple(b if p in kept else None for p, b in enumerate(bits, 1))

    def spread(code: int) -> int:
        """A code over the kept positions, as an n-bit outcome code."""
        return sum(((code >> (len(kept) - i)) & 1) << (n - p) for i, p in enumerate(kept, 1))

    violations = []
    for left, right, k, lhs, rhs in found:
        if side == "alice":
            x_code, y_code = divmod(k, X)
            offset = spread(x_code) * X + y_code
        else:
            x_code, y_code = divmod(k, G // X)
            offset = x_code * X + spread(y_code)
        x, y, u_left, v_left = table.point(left * X * X + offset)
        u_right, v_right = table.point(right * X * X + offset)[2:]
        if side == "alice":
            x = masked(x)
        else:
            y = masked(y)
        violations.append(NsViolation(
            condition, side, cut, subset, x, y, u_left, v_left, u_right, v_right,
            _scaled(lhs, den), _scaled(rhs, den)))
    return violations, total, checks


def _merge(condition: str, parts: Iterable[tuple[list[NsViolation], int, int]],
           den: int | None) -> NsReport:
    """One report from kernel results given in witness order."""
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


def _marginal(table: JointTable, side: str, subset: tuple[int, ...]) -> list:
    """``table`` with ``side``'s outputs at ``subset`` summed out, highest
    position first."""
    return reduce(_sum_out, _strides(table.n, side, subset), table.values)


def check_ab(system: "SystemEvaluator", *, table: JointTable | None = None) -> NsReport:
    """Neither full output marginal may depend on the other side's inputs."""
    t = table if table is not None else materialize(system)
    everything = tuple(range(1, t.n + 1))
    parts = [_independence_violations(t, _marginal(t, side, everything), side, everything,
                                      CONDITION_AB, 1)
             for side in ("alice", "bob")]
    return _merge(CONDITION_AB, parts, t.den)


def check_time_ordered(system: "SystemEvaluator", *,
                       table: JointTable | None = None) -> NsReport:
    """Future inputs may not influence past outputs, on either side.

    Each side's grids are one chain: cut n sums position n out of the
    table, and each cut after it sums one more position out of the grid
    before, so the whole check sums about one table's worth of entries.
    """
    t = table if table is not None else materialize(system)
    n = t.n
    everything = tuple(range(1, n + 1))
    parts = []
    for side in ("alice", "bob"):
        grids = accumulate(_strides(n, side, everything), _sum_out, initial=t.values)
        next(grids)  # the table itself
        cuts = [_independence_violations(t, grid, side, everything[cut - 1:],
                                         f"{CONDITION_TIME_ORDERED}-{side}", cut)
                for cut, grid in zip(range(n, 0, -1), grids)]
        parts.extend(reversed(cuts))
    return _merge(CONDITION_TIME_ORDERED, parts, t.den)


def check_subset(system: "SystemEvaluator", side: str, subset: Iterable[int], *,
                 table: JointTable | None = None) -> NsReport:
    """Outputs outside ``subset`` on ``side`` (plus the whole other side)
    must not depend on the inputs inside ``subset``."""
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    sub = tuple(sorted(set(subset)))
    if not sub or sub[0] < 1 or sub[-1] > system.n:
        raise ValueError(f"subset must be a nonempty subset of 1..{system.n}, got {sub}")
    t = table if table is not None else materialize(system)
    part = _independence_violations(t, _marginal(t, side, sub), side, sub, CONDITION_SUBSET, None)
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
