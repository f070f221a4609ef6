"""Single-pair chained-Bell boxes.

A *box* is the conditional distribution P(x, y | u, v) of one entangled
pair: Alice measures with setting u in {0, 2, ..., 2N-2}, Bob with
v in {1, 3, ..., 2N-1}, and each obtains a bit.  Internally settings are
indexed a, b in {0..N-1} with u = 2a and v = 2b + 1.  Within each (a, b)
square, columns are Alice's outcome x and rows Bob's outcome y.

Every square is parameterised by a cross probability g = P(x != y):
cells are (1-g)/2 on the diagonal and g/2 off it.  On adjacent settings
g equals the box parameter eps; on the (0, 2N-1) pair it equals 1 - eps.
Squares off the allowed pairs are filled by interpolating g so the box
is total (needed by the n-party marginal conditions, which quantify over
all inputs):

- rational mode: g(delta) linear in the setting distance delta, keeping
  every cell an exact Fraction and >= eps/2;
- quantum mode: g(delta) = sin^2(pi*delta/4N), the statistics of the
  maximally entangled pair, evaluated in floating point.

Biasing (``bias_box``) shifts eps/2 of probability within every row from
one Alice outcome to the other: Alice's marginal moves to 1/2 + eps
while Bob's marginal and all the correlation terms stay untouched.  A
negative eps is refused, and so is a box with fewer than one setting.

One tolerance rule serves the whole package, through ``close`` (=),
``apart`` (not ``close``, over many entries in one call) and ``at_least``
(>=): a comparison is exact when both operands are exact (int or
Fraction), and holds to within ``FLOAT_ATOL`` when either one is a
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

Prob = Union[Fraction, float]

#: Comparison tolerance when either operand is a float (quantum mode).
FLOAT_ATOL = 1e-12


def close(lhs: Prob, rhs: Prob) -> bool:
    """Whether lhs = rhs under the module's tolerance rule."""
    if type(lhs) is float or type(rhs) is float:
        return abs(lhs - rhs) <= FLOAT_ATOL
    return lhs == rhs


def apart(lhs: Sequence[Prob], rhs: Sequence[Prob], positions: Iterable[int]) -> list[int]:
    """Those of ``positions`` at which ``lhs`` and ``rhs`` are not
    ``close``, in the order given: the tolerance rule applied entry by
    entry in one comprehension, with no call per entry.  For ints,
    Fractions and floats the gap lhs - rhs is a float exactly when
    either operand is one, so a float gap is held to ``FLOAT_ATOL`` and
    an exact gap to 0; a NaN gap is apart, as in ``close``."""
    return [k for k in positions
            if not (abs(gap) <= FLOAT_ATOL if type(gap := lhs[k] - rhs[k]) is float else gap == 0)]


def at_least(lhs: Prob, rhs: Prob) -> bool:
    """Whether lhs >= rhs under the module's tolerance rule."""
    if type(lhs) is float or type(rhs) is float:
        return lhs >= rhs - FLOAT_ATOL
    return lhs >= rhs


def all_exact(values: Iterable) -> bool:
    """Whether every value is exact: an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for v in values)


MODE_RATIONAL = "rational"
MODE_QUANTUM = "quantum"

HALF = Fraction(1, 2)


def quantum_eps(n_settings: int) -> float:
    """The quantum cross probability sin^2(pi / 4N) for N settings."""
    return math.sin(math.pi / (4 * n_settings)) ** 2


@dataclass(frozen=True)
class BoxParams:
    """Parameters of a single-pair box.

    ``eps`` is the cross probability on adjacent settings, and equals the
    achievable bias of ``bias_box``.  In rational mode it is an exact
    Fraction in [0, 1/2] (0 gives the degenerate bias-free box); in
    quantum mode it is fixed to sin^2(pi/4N) and all arithmetic is float.
    """

    n_settings: int
    eps: Prob | None
    mode: str = MODE_RATIONAL

    def __post_init__(self) -> None:
        if self.n_settings < 2:
            raise ValueError(f"n_settings must be >= 2, got {self.n_settings}")
        if self.mode == MODE_RATIONAL:
            if isinstance(self.eps, float) or self.eps is None:
                raise ValueError("rational mode needs an exact eps (Fraction, int or 'p/q')")
            if not isinstance(self.eps, Fraction):
                object.__setattr__(self, "eps", Fraction(self.eps))
            if not 0 <= self.eps <= HALF:
                raise ValueError(f"eps must lie in [0, 1/2], got {self.eps}")
        elif self.mode == MODE_QUANTUM:
            expected = quantum_eps(self.n_settings)
            if self.eps is not None and not close(float(self.eps), expected):
                raise ValueError(
                    f"quantum mode fixes eps to sin^2(pi/4N) = {expected!r}"
                )
            object.__setattr__(self, "eps", expected)
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def rational(cls, n_settings: int, eps: Fraction | str | int) -> "BoxParams":
        return cls(n_settings, Fraction(eps), MODE_RATIONAL)

    @classmethod
    def quantum(cls, n_settings: int) -> "BoxParams":
        return cls(n_settings, None, MODE_QUANTUM)

    @property
    def exact(self) -> bool:
        return self.mode == MODE_RATIONAL


@dataclass(frozen=True)
class SinglePairBox:
    """Conditional probability table of one box pair.

    ``cells`` is flat, in the order of the points (a, b, x, y), with a, b
    the setting indices (u = 2a, v = 2b+1) and x, y the outcome bits, the
    last varying fastest; the builders write cells in that order.  It
    must have N >= 1 settings and hold one cell per point, 4N^2 in all
    (ValueError otherwise).
    ``__post_init__`` maps each point to its cell once, and ``prob`` is
    that map's one reader: a point outside the box raises ValueError.
    """

    n_settings: int
    cells: tuple[Prob, ...]

    def __post_init__(self) -> None:
        if self.n_settings < 1:
            raise ValueError(f"a box needs N >= 1 settings, got N={self.n_settings}")
        expected = 4 * self.n_settings**2
        if len(self.cells) != expected:
            raise ValueError(f"a box with N={self.n_settings} needs 4N^2 = {expected} "
                             f"cells, got {len(self.cells)}")
        points = product(range(self.n_settings), range(self.n_settings), (0, 1), (0, 1))
        object.__setattr__(self, "_cell_at", dict(zip(points, self.cells)))

    def prob(self, a: int, b: int, x: int, y: int) -> Prob:
        try:
            return self._cell_at[a, b, x, y]
        except KeyError:
            raise ValueError(f"no cell at (a={a}, b={b}, x={x}, y={y}) "
                             f"for N={self.n_settings}") from None

    def alice_marginal(self, a: int, b: int, x: int) -> Prob:
        return self.prob(a, b, x, 0) + self.prob(a, b, x, 1)

    def bob_marginal(self, a: int, b: int, y: int) -> Prob:
        return self.prob(a, b, 0, y) + self.prob(a, b, 1, y)

    def validate(self) -> None:
        """Check nonnegativity, per-square normalization, Bob-marginal
        uniformity and setting-independence of Alice's marginal.

        Raises ValueError on the first violated invariant.  Values are
        compared under the module's tolerance rule.
        """
        n = self.n_settings
        for a in range(n):
            for b in range(n):
                square = [self.prob(a, b, x, y) for x in (0, 1) for y in (0, 1)]
                if not all(at_least(c, 0) for c in square):
                    raise ValueError(f"negative cell in square (a={a}, b={b})")
                if not close(sum(square), 1):
                    raise ValueError(f"square (a={a}, b={b}) does not sum to 1")
                for y in (0, 1):
                    if not close(self.bob_marginal(a, b, y), HALF):
                        raise ValueError(
                            f"Bob marginal not 1/2 at (a={a}, b={b}, y={y})"
                        )
        for a in range(n):
            for x in (0, 1):
                ref = self.alice_marginal(a, 0, x)
                for b in range(1, n):
                    if not close(self.alice_marginal(a, b, x), ref):
                        raise ValueError(
                            f"Alice marginal depends on Bob's setting at (a={a}, x={x})"
                        )


def allowed_pairs(n_settings: int) -> set[tuple[int, int]]:
    """The 2N allowed setting pairs: |u - v| = 1 plus (0, 2N-1)."""
    if n_settings < 2:
        raise ValueError(f"n_settings must be >= 2, got {n_settings}")
    pairs = {
        (u, v)
        for u in range(0, 2 * n_settings, 2)
        for v in range(1, 2 * n_settings, 2)
        if abs(u - v) == 1
    }
    pairs.add((0, 2 * n_settings - 1))
    return pairs


def cross_probability(params: BoxParams, delta: int) -> Prob:
    """Cross probability g = P(x != y) at setting distance delta = |u - v|."""
    n = params.n_settings
    if not (1 <= delta <= 2 * n - 1 and delta % 2 == 1):
        raise ValueError(f"setting distance must be odd in [1, 2N-1], got {delta}")
    if params.mode == MODE_QUANTUM:
        return math.sin(math.pi * delta / (4 * n)) ** 2
    return params.eps + (delta - 1) * (1 - 2 * params.eps) / (2 * n - 2)


def build_unbiased_box(params: BoxParams) -> SinglePairBox:
    """The unbiased box: uniform marginals, cross probability g(|u - v|)."""
    n = params.n_settings
    half = HALF if params.exact else 0.5
    cells: list[Prob] = []
    for a in range(n):
        for b in range(n):
            g = cross_probability(params, abs(2 * a - (2 * b + 1)))
            for x in (0, 1):
                for y in (0, 1):
                    cells.append((1 - g) * half if x == y else g * half)
    box = SinglePairBox(n, tuple(cells))
    box.validate()
    return box


def bias_box(box: SinglePairBox, sigma: int, eps: Prob) -> SinglePairBox:
    """Shift eps/2 within every row from outcome ``1 - sigma`` to ``sigma``.

    Alice's marginal becomes 1/2 + eps at x = sigma for every setting pair,
    Bob's marginal and the Bell value are unchanged.  Raises ValueError if
    eps < 0, which would drive the x = sigma cells below zero, or if some
    source cell would underflow (a malformed input box).
    """
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be a bit, got {sigma}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    n = box.n_settings
    if isinstance(eps, int):
        eps = Fraction(eps)
    half_eps = eps / 2
    cells = []
    for a, b, x, y in product(range(n), range(n), (0, 1), (0, 1)):
        cell = box.prob(a, b, x, y)
        if x != sigma and not at_least(cell, half_eps):
            raise ValueError(f"cell (a={a}, b={b}, x={x}, y={y}) holds {cell}, "
                             f"cannot shift {half_eps} out")
        cells.append(cell + half_eps if x == sigma else cell - half_eps)
    return SinglePairBox(n, tuple(cells))


def bell_value(box: SinglePairBox) -> Prob:
    """The chained Bell expression over the 2N allowed pairs.

    P(X = Y) on the (0, 2N-1) pair plus P(X != Y) on each adjacent pair;
    a value below 1 certifies non-locality.
    """
    n = box.n_settings
    total: Prob = 0
    for u, v in sorted(allowed_pairs(n)):
        a, b = u // 2, (v - 1) // 2
        if (u, v) == (0, 2 * n - 1):
            total += box.prob(a, b, 0, 0) + box.prob(a, b, 1, 1)
        else:
            total += box.prob(a, b, 0, 1) + box.prob(a, b, 1, 0)
    return total
