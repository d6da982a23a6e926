"""Differential analysis of power functions x^d by exhaustive sweep.

This is the theorem-agnostic half of the package: given any field from
:mod:`diffspec.gf2m` and any exponent, it evaluates the derivative
(x+1)^d + x^d over the whole field and histograms the hit counts.  For a
power function one input difference suffices, since
delta(a, b) = delta(1, b / a^d), so the full difference distribution
collapses to a single row.

The sweep works on the field's antilog/log tables with numpy, making a
single O(2^m) pass instead of the O(2^(2m)) per-output counting loop;
that one-pass histogram is what keeps degree-16..24 sweeps interactive.
Results are deterministic and independent of chunking or thread count
because every accumulation is a plain order-insensitive count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2m import BULK_CHUNK, GF2m


def is_permutation_exponent(d: int, m: int) -> bool:
    """True when x^d permutes GF(2^m)^*, i.e. gcd(d, 2^m - 1) = 1."""
    return math.gcd(d, (1 << m) - 1) == 1


class PowerFunction:
    """The monomial map F(x) = x^d on a fixed field.

    The raw exponent is kept for evaluation semantics (0^d = 0 for d > 0,
    and 0^0 = 1); ``reported_exponent`` is the reduction mod 2^m - 1 used
    in output artifacts, normalized so that a positive exponent never
    reports as 0 (which would change the value at x = 0).
    """

    def __init__(self, field: GF2m, exponent: int):
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        self.field = field
        self.exponent = exponent
        size = field.order - 1
        if exponent == 0:
            self.reported_exponent = 0
        else:
            self.reported_exponent = exponent % size or size

    def __repr__(self):
        return f"PowerFunction(x^{self.reported_exponent} over {self.field.describe()})"

    def eval(self, x: int) -> int:
        return self.field.pow(x, self.exponent)

    def image_table(self) -> np.ndarray:
        """x^d for every x, as g^(log(x) * d mod (2^m - 1)) from the log tables.

        The exponent products are formed ``BULK_CHUNK`` elements at a
        time, so no int64 array of the field's size is allocated.
        """
        order = self.field.order
        out = np.zeros(order, dtype=np.uint32)
        if self.exponent == 0:
            out[:] = 1
            return out
        exp, log = self.field.log_tables()
        size = order - 1
        dr = self.exponent % size
        if dr == 0:
            out[1:] = 1
            return out
        for start in range(1, order, BULK_CHUNK):
            stop = min(start + BULK_CHUNK, order)
            k = log[start:stop].astype(np.int64)
            k *= dr
            k %= size
            np.take(exp, k, out=out[start:stop])
        return out


@dataclass(frozen=True)
class Spectrum:
    """Histogram of derivative hit counts: multiplicity i -> omega_i.

    ``entries`` maps each occurring multiplicity (including 0, for output
    values the derivative never reaches) to the number of b values
    attaining it.  Multiplicities are always even because x and x+1 hit
    the same output.  Two sum identities pin the histogram down: the
    omega_i total the field order, and so does the solution-weighted sum
    of i * omega_i.
    """

    m: int
    d: int
    poly: int
    entries: dict[int, int]

    @property
    def uniformity(self) -> int:
        """Differential uniformity: the largest occurring multiplicity."""
        return max(self.entries)

    def count_total(self) -> int:
        return sum(self.entries.values())

    def solution_total(self) -> int:
        return sum(i * c for i, c in self.entries.items())

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "poly": f"0x{self.poly:x}",
            "spectrum": {str(i): self.entries[i] for i in sorted(self.entries)},
            "uniformity": self.uniformity,
        }


def spectrum_from_counts(counts, f: PowerFunction) -> Spectrum:
    """Spectrum from per-b solution counts, a list or array of ints."""
    hist = np.bincount(counts)
    occurring = np.flatnonzero(hist)
    return Spectrum(
        m=f.field.degree,
        d=f.reported_exponent,
        poly=f.field.modulus,
        entries=dict(zip(occurring.tolist(), hist[occurring].tolist())),
    )


def derivative_table(f: PowerFunction) -> np.ndarray:
    """Array whose slot x holds F(x+1) + F(x); slots x and x^1 agree.

    x and x + 1 = x ^ 1 form one row of the image table reshaped to
    pairs, so both slots of a row get the row's XOR, in place.
    """
    table = f.image_table()
    pairs = table.reshape(-1, 2)
    pairs[:, 0] ^= pairs[:, 1]
    pairs[:, 1] = pairs[:, 0]
    return table


def delta(f: PowerFunction, a: int, b: int) -> int:
    """Exact number of x with F(x+a) + F(x) = b, by full sweep."""
    a = f.field.check(a)
    b = f.field.check(b)
    if a == 0:
        raise ValueError("difference a must be nonzero")
    table = f.image_table()
    xs = np.arange(f.field.order, dtype=np.int64)
    return int(np.count_nonzero((table[xs ^ a] ^ table) == b))


def delta_via_normalization(f: PowerFunction, a: int, b: int) -> int:
    """delta(a, b) through the monomial scaling delta(1, b / a^d)."""
    fld = f.field
    a = fld.check(a)
    if a == 0:
        raise ValueError("difference a must be nonzero")
    return delta(f, 1, fld.mul(b, fld.inv(fld.pow(a, f.exponent))))


def solution_set(f: PowerFunction, b: int) -> set[int]:
    """All x with F(x+1) + F(x) = b (the brute-force solution set)."""
    b = f.field.check(b)
    img = derivative_table(f)
    return {int(x) for x in np.flatnonzero(img == b)}


def solution_counts(f: PowerFunction) -> np.ndarray:
    """Slot b holds the number of x with F(x+1) + F(x) = b, for every b.

    x and x ^ 1 share their derivative value, so the even slots of the
    derivative table are counted and the counts doubled: half the
    histogram input of counting every x, for the same result.
    """
    counts = np.bincount(derivative_table(f)[::2], minlength=f.field.order)
    counts *= 2
    return counts


def spectrum_brute(f: PowerFunction) -> Spectrum:
    """Differential spectrum via the one-pass image histogram."""
    return spectrum_from_counts(solution_counts(f), f)


def differential_uniformity(f: PowerFunction) -> int:
    """Max delta(a, b) over nonzero a; one row suffices for a monomial."""
    return spectrum_brute(f).uniformity
