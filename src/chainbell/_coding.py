"""Shared encode/decode helpers for bit strings and setting vectors.

Conventions used throughout the package:

- Bit strings of length n are encoded as integers with the *first* bit
  most significant: code(x) = sum_i x_i * 2**(n-i) for i = 1..n.
- Setting vectors over {0..N-1}^n use the same order, base N.
"""

from __future__ import annotations

from typing import Sequence


def bits_to_int(bits: Sequence[int]) -> int:
    """Encode a bit sequence, first bit most significant."""
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


def int_to_digits(code: int, n: int, base: int) -> tuple[int, ...]:
    """Decode an integer into n base-`base` digits, first digit most significant."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, base)
    return tuple(out)
