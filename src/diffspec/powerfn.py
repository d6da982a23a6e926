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
It is fused and chunked: F is evaluated ``BULK_CHUNK`` inputs at a time
and each slice is histogrammed straight into one ``uint16`` count array,
so besides the tables a sweep holds only that array (32 MB at m = 24)
and chunk-sized temporaries, never a field-sized image or int64 array.
A count reaches 2^16 only for a degenerate exponent from m = 16 on
(d = 0, a power of two, a multiple of 2^m - 1 and the like); the counts'
total, which must be exactly 2^m, shows such a wrap, and the field is
then swept again into a ``uint32`` array.  No exponent of the family comes
near: its largest count is q^2 = 2^(m/2).  A brute ``spectrum`` at
m = 24 peaks at about 203 MB resident, tables included.

The chunk loops of ``solution_counts`` (so of ``spectrum_brute`` and
``verify_conjecture``) and of ``delta`` run through ``gf2m._sweep``, on
the threads and under the policy the :mod:`diffspec.gf2m` docstring
states.  Most of a chunk's time is numpy work that releases the
interpreter lock (the ``exp`` gather and the arithmetic on logs), so the
threads overlap there.  Every ``np.add.at`` into the shared count array
holds a lock of ``solution_counts`` (numpy 2.4 keeps the interpreter lock
inside ``np.add.at`` anyway; the lock keeps the counts exact where a numpy
build does not); ``delta``'s workers sum private counts instead.  That
serial ``np.add.at`` stays because the measured alternatives were slower:
at m = 24 on a 2-core x86 box (Python 3.11, numpy 2.4, 2 threads, 7
alternating in-process rounds), the shipped sweep took a median 0.375 s,
a lock-free histogram that sorts each slice's pairs and adds their run
lengths into per-thread count arrays 0.53 s, and the same sweep with a
Mersenne fold, (k & Q) + (k >> m) twice, in place of ``% Q`` 0.38 s.  The
field's tables are fetched once on the calling thread and handed to the
pool, which calls no public function or method.  ``spectrum_from_counts``
and ``image_table`` stay on one thread.  Results are deterministic and
independent of chunking or thread count because every accumulation is a
plain order-insensitive count; the tests compare threaded and one-thread
sweeps at degree 22.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .gf2m import BULK_CHUNK, GF2m, _sweep


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

    def _image_chunk(self, start: int, stop: int, tables) -> np.ndarray:
        """x^d for x in [start, stop), as g^(log(x) * d mod (2^m - 1)).

        ``tables`` is the field's ``(exp, log)`` pair, fetched by the
        caller so that this method calls nothing public.  Slot x = 0, whose
        log is meaningless, is set to 0^d.  Only chunk-sized temporaries
        are allocated.
        """
        exp, log = tables
        size = self.field.order - 1
        k = log[start:stop].astype(np.int64)
        k *= self.exponent % size
        k %= size
        out = np.take(exp, k)   # about 10% faster than exp[k] at m = 24
        if start == 0:
            out[0] = 1 if self.exponent == 0 else 0
        return out

    def image_table(self) -> np.ndarray:
        """x^d for every x, as a uint32 array, ``BULK_CHUNK`` elements at a time."""
        order = self.field.order
        tables = self.field.log_tables()
        out = np.empty(order, dtype=np.uint32)
        for start in range(0, order, BULK_CHUNK):
            stop = min(start + BULK_CHUNK, order)
            out[start:stop] = self._image_chunk(start, stop, tables)
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

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "poly": f"0x{self.poly:x}",
            "spectrum": {str(i): self.entries[i] for i in sorted(self.entries)},
            "uniformity": self.uniformity,
        }


def spectrum_from_counts(counts, f: PowerFunction) -> Spectrum:
    """Spectrum from per-b solution counts, a list or array of ints.

    The counts are histogrammed ``BULK_CHUNK`` at a time.  Multiplicities
    of ``BULK_CHUNK`` = 2^16 or more (at most 2^m / ``BULK_CHUNK`` of them
    when the counts sum to 2^m) are tallied apart, so a linear or constant
    map, whose single count is 2^m, needs no histogram of length 2^m + 1.
    Only a list or the ``uint32`` result of ``solution_counts`` holds such
    counts; its ``uint16`` result never does.
    """
    counts = np.asarray(counts)
    hist = np.zeros(min(int(counts.max()) + 1, BULK_CHUNK), dtype=np.int64)
    large = []
    for start in range(0, len(counts), BULK_CHUNK):
        part = counts[start:start + BULK_CHUNK]
        if part.max() >= BULK_CHUNK:
            large.append(part[part >= BULK_CHUNK])
            part = part[part < BULK_CHUNK]
        part_hist = np.bincount(part)
        hist[:len(part_hist)] += part_hist
    occurring = np.flatnonzero(hist)
    entries = dict(zip(occurring.tolist(), hist[occurring].tolist()))
    if large:
        values, tally = np.unique(np.concatenate(large), return_counts=True)
        entries.update(zip(values.tolist(), tally.tolist()))
    return Spectrum(
        m=f.field.degree,
        d=f.reported_exponent,
        poly=f.field.modulus,
        entries=entries,
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
    """Exact number of x with F(x+a) + F(x) = b, by full sweep.

    A power function scales: F(ay + a) + F(ay) = a^d (F(y+1) + F(y)), so
    any a != 1 is first reduced to delta(1, b / a^d) on the calling thread.
    The sweep then counts, slice by slice as in ``solution_counts``, the
    even-aligned pairs {y, y ^ 1} whose derivative is that target, two
    solutions per pair; each worker sums its own slices' counts.
    """
    fld = f.field
    a = fld.check(a)
    b = fld.check(b)
    if a == 0:
        raise ValueError("difference a must be nonzero")
    target = fld.mul(b, fld.inv(fld.pow(a, f.exponent)))
    order = fld.order
    tables = fld.log_tables()

    def count_chunk(start):
        image = f._image_chunk(start, min(start + BULK_CHUNK, order), tables)
        return 2 * int(np.count_nonzero((image[0::2] ^ image[1::2]) == target))

    return _sweep(fld, order, count_chunk)


def solution_set(f: PowerFunction, b: int) -> set[int]:
    """All x with F(x+1) + F(x) = b (the brute-force solution set)."""
    b = f.field.check(b)
    img = derivative_table(f)
    return {int(x) for x in np.flatnonzero(img == b)}


def solution_counts(f: PowerFunction) -> np.ndarray:
    """Slot b holds the number of x with F(x+1) + F(x) = b, for every b.

    F is evaluated one ``BULK_CHUNK`` slice at a time; x and x ^ 1 share
    their derivative value and sit side by side in an even-aligned slice,
    so each pair adds 2 to its slot straight from the slice.  No
    derivative table or int64 histogram of the field's size is built.
    Slices are evaluated on the sweep's workers; the adds into the one
    count array hold a lock.

    The counts go into a ``uint16`` array first.  The 2^(m-1) pairs add
    exactly 2^m, and a count that reached 2^16 wrapped and took a multiple
    of 2^16 off that total, so the int64 sum of the array is 2^m exactly
    when no count wrapped.  Otherwise (only a constant, linear or other
    degenerate map, from m = 16 on) the ``uint16`` array is dropped and
    the field is swept again into a ``uint32`` one.
    """
    order = f.field.order
    counts = _pair_counts(f, np.uint16)
    if int(counts.sum(dtype=np.int64)) != order:
        del counts   # free the wrapped counts before the uint32 sweep
        counts = _pair_counts(f, np.uint32)
    return counts


def _pair_counts(f: PowerFunction, dtype) -> np.ndarray:
    """The sweep of ``solution_counts`` into a count array of ``dtype``."""
    order = f.field.order
    tables = f.field.log_tables()
    counts = np.zeros(order, dtype=dtype)
    two = dtype(2)   # a Python int would take np.add.at's casting slow path
    lock = threading.Lock()

    def add_chunk(start):
        image = f._image_chunk(start, min(start + BULK_CHUNK, order), tables)
        pairs = image[0::2] ^ image[1::2]
        with lock:
            np.add.at(counts, pairs, two)
        return 0

    _sweep(f.field, order, add_chunk)
    return counts


def spectrum_brute(f: PowerFunction) -> Spectrum:
    """Differential spectrum via the one-pass image histogram."""
    return spectrum_from_counts(solution_counts(f), f)
