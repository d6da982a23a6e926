"""Differential analysis of power functions x^d by exhaustive sweep.

This is the theorem-agnostic half of the package: given any field from
:mod:`diffspec.gf2m` and any exponent, it evaluates the derivative
D(x) = (x+1)^d + x^d over the field and counts how often each output is
hit.  For a power function one input difference suffices, since
delta(a, b) = delta(1, b / a^d), so the full difference distribution
collapses to a single row.

Every sweep works on the field's antilog/log tables with numpy and
evaluates F through one kernel, ``PowerFunction._image_chunk``, on at most
``BULK_CHUNK`` logs at a time, so no field-sized image, derivative or
int64 array is built.  There are two sweeps.

``solution_counts`` is the per-b sweep, the brute side of
``verify_conjecture``'s per-b comparison.  It evaluates every x and
histograms each slice straight into one ``uint16`` count array (32 MB at
m = 24).  A count reaches 2^16 only for a degenerate exponent from m = 16
on (d = 0, a power of two, a multiple of 2^m - 1 and the like); the
counts' total, which must be exactly 2^m, shows such a wrap, and the
field is then swept again into a ``uint32`` array.  No exponent of the
family comes near: its largest count is q^2 = 2^(m/2).

``spectrum_brute`` and ``delta`` run the Frobenius-orbit pass.  In
characteristic 2, (x^2)^d = (x^d)^2, so D(x^2) = D(x)^2 and
delta(1, b) = delta(1, b^2): D is needed at one x per orbit
{x, x^2, x^4, ...}, about 2^m / m inputs, each weighted by its orbit's
size.  With x = g^i, squaring rotates the m bits of i, so each orbit is
named by the least rotation of a log: the input orbits once per degree
(``_frobenius_orbits``), each D(x) on every call.  An output orbit of
size t that takes H hits holds t values of b with H / t solutions each.
Two identities are checked on every call, and a failure raises
``TheoremViolationError``: the weights total 2^m, and t divides H.  At
m = 24 (699,251 orbits), on built tables and a 2-core x86 box (Python
3.11, numpy 2.4, 2 threads, the least of 5 calls per exponent), a brute
spectrum takes 35-80 ms against 0.21-0.53 s for the per-b histogram, and
peaks at 8.1 MiB traced against 33.5 MiB; the first call at a degree
adds about 0.1 s to find the orbits.  The pass reads about 1/m of the
table entries, so a table fault that changes the per-b counts can leave
the orbit spectrum unchanged; table faults are caught by the
bit-for-bit table tests and by ``verify``'s per-b comparison.

The chunk loops of both sweeps and of the orbit search run through
``gf2m._sweep``, on the threads and under the policy the
:mod:`diffspec.gf2m` docstring states.  Most of a chunk's time is numpy
work that releases the interpreter lock (the gathers and the arithmetic
on logs), so the threads overlap there.  Every ``np.add.at`` into
``solution_counts``' shared count array holds a lock of that function
(numpy 2.4 keeps the interpreter lock inside ``np.add.at`` anyway; the
lock keeps the counts exact where a numpy build does not).  That serial
``np.add.at`` stays because the measured alternatives were slower: at
m = 24 on the same box (7 alternating in-process rounds), the sweep took
a median 0.375 s, a lock-free histogram that sorts each slice's pairs and
adds their run lengths into per-thread count arrays 0.53 s, and the same
sweep with a Mersenne fold, (k & Q) + (k >> m) twice, in place of ``% Q``
0.38 s.  The orbit pass's workers write disjoint slices of one array
(``spectrum_brute``) or sum private counts (``delta``).  The field's
tables are fetched once on the calling thread and handed to the pool,
which calls no public function or method.  ``spectrum_from_counts`` and
``image_table`` stay on one thread.  Results are deterministic and
independent of chunking or thread count because every accumulation is an
order-insensitive count or sum; the tests compare threaded and one-thread
sweeps at degree 22.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import TheoremViolationError
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
        self._zero_power = int(exponent == 0)   # 0^0 = 1, else 0^d = 0
        size = field.order - 1
        if exponent == 0:
            self.reported_exponent = 0
        else:
            self.reported_exponent = exponent % size or size

    def __repr__(self):
        return f"PowerFunction(x^{self.reported_exponent} over {self.field.describe()})"

    def _image_chunk(self, logs: np.ndarray, exp: np.ndarray) -> np.ndarray:
        """x^d for the nonzero x = g^k, k in ``logs``: g^(k * d mod (2^m - 1)).

        ``logs`` is any array of logs: a slice of the field's ``log`` table,
        or the orbit representatives of a slice and the logs of their
        successors.  It and ``exp``, the field's antilog table, are fetched
        by the caller so that this method calls nothing public.  The caller
        sets the image of x = 0, whose log is meaningless, to 0^d.  Only
        temporaries the size of ``logs`` are allocated.
        """
        size = self.field.order - 1
        k = logs.astype(np.int64)
        k *= self.exponent % size
        k %= size
        return np.take(exp, k)   # about 10% faster than exp[k] at m = 24

    def image_table(self) -> np.ndarray:
        """x^d for every x, as a uint32 array, ``BULK_CHUNK`` elements at a time."""
        order = self.field.order
        exp, log = self.field.log_tables()
        out = np.empty(order, dtype=np.uint32)
        for start in range(0, order, BULK_CHUNK):
            stop = min(start + BULK_CHUNK, order)
            out[start:stop] = self._image_chunk(log[start:stop], exp)
        out[0] = self._zero_power
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
    """Exact number of x with F(x+a) + F(x) = b, by the Frobenius-orbit pass.

    A power function scales: F(ay + a) + F(ay) = a^d (F(y+1) + F(y)), so
    any a != 1 is first reduced to delta(1, b / a^d) on the calling thread.
    The orbit pass then sums, slice by slice on the sweep's workers, the
    orbit sizes of the representatives x whose derivative lies in the
    orbit of that target; each worker sums its own slices.  That sum is
    the number of solutions of every b' in the target's orbit together, so
    it is divided by the orbit's size.  No field-sized array is allocated.
    """
    fld = f.field
    a = fld.check(a)
    b = fld.check(b)
    if a == 0:
        raise ValueError("difference a must be nonzero")
    target = fld.mul(b, fld.inv(fld.pow(a, f.exponent)))
    tables = fld.log_tables()
    orbits = _frobenius_orbits(fld)
    key = _derivative_keys(np.array([target], dtype=np.uint32), tables, fld.degree)

    def count_chunk(start):
        packed = _orbit_pass(f, tables, orbits, start)
        weights = packed & _WEIGHT_MASK
        hits = weights[(packed >> _WEIGHT_BITS) == key[0]]
        return np.array([hits.sum(), weights.sum()], dtype=np.int64)

    hits_and_total = _sweep(fld, len(orbits[0]), count_chunk)
    per_b, _ = _per_b_counts(fld, key, hits_and_total[:1], int(hits_and_total[1]))
    return int(per_b[0])


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
    exp, log = f.field.log_tables()
    counts = np.zeros(order, dtype=dtype)
    two = dtype(2)   # a Python int would take np.add.at's casting slow path
    lock = threading.Lock()

    def add_chunk(start):
        image = f._image_chunk(log[start:start + BULK_CHUNK], exp)
        if start == 0:
            image[0] = f._zero_power
        pairs = image[0::2] ^ image[1::2]
        with lock:
            np.add.at(counts, pairs, two)
        return 0

    _sweep(f.field, order, add_chunk)
    return counts


def spectrum_brute(f: PowerFunction) -> Spectrum:
    """Differential spectrum from one derivative evaluation per Frobenius orbit.

    The orbit pass fills one ``uint32`` per representative x: the key of
    D(x)'s orbit and the size of x's orbit, packed.  Sorted, the packed
    values group by key; a running total of the sizes (``uint32``, it ends
    at 2^m) gives each key's hits.  A b-orbit of size t with H hits holds t
    values of b with H / t solutions each, and every b in no hit orbit has
    none.  Besides the cached representatives, the sweep holds a few arrays
    of one ``uint32`` per orbit (2.8 MB each at m = 24).
    """
    fld = f.field
    tables = fld.log_tables()
    orbits = _frobenius_orbits(fld)
    packed = np.empty(len(orbits[0]), dtype=np.uint32)

    def fill(start):
        part = _orbit_pass(f, tables, orbits, start)
        packed[start:start + len(part)] = part
        return 0

    _sweep(fld, len(packed), fill)
    packed.sort()
    keys = packed >> _WEIGHT_BITS
    last = np.empty(len(keys), dtype=bool)   # the last entry of each key
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1] = True
    keys = keys[last]
    packed &= _WEIGHT_MASK
    np.cumsum(packed, out=packed)   # fits uint32: it ends at 2^m
    hits = np.diff(packed[last], prepend=np.uint32(0))
    per_b, sizes = _per_b_counts(fld, keys, hits, int(packed[-1]))
    del packed, last
    # (solutions per b, orbit size) pairs, packed like the pass's values.
    pairs, tally = np.unique((per_b << _WEIGHT_BITS) | sizes, return_counts=True)
    entries = {}
    for pair, orbits_alike in zip(pairs.tolist(), tally.tolist()):
        count = pair >> _WEIGHT_BITS
        entries[count] = entries.get(count, 0) + orbits_alike * (pair & int(_WEIGHT_MASK))
    missed = fld.order - sum(entries.values())
    if missed:
        entries = {0: missed, **entries}
    return Spectrum(m=fld.degree, d=f.reported_exponent, poly=fld.modulus, entries=entries)


# ---------------------------------------------------------------------------
# Frobenius orbits: D(x^2) = D(x)^2, so one x per orbit suffices
# ---------------------------------------------------------------------------

_ORBITS: dict[int, tuple[np.ndarray, np.ndarray]] = {}   # degree -> (representatives, sizes)
_WEIGHT_BITS = 5                     # an orbit size is at most 24 < 2^5
_WEIGHT_MASK = np.uint32((1 << _WEIGHT_BITS) - 1)


def _rotated(k: np.ndarray, r: int, m: int, out=None, spare=None) -> np.ndarray:
    """The m-bit values ``k`` (``uint32``) rotated right by r places.

    ``out`` and ``spare``, arrays shaped like ``k``, take the result and the
    wrapped-around bits; when omitted they are allocated.
    """
    out = np.right_shift(k, np.uint32(r), out=out)
    out |= np.left_shift(k, np.uint32(m - r), out=spare)
    out &= np.uint32((1 << m) - 1)
    return out


def _least_rotation(k: np.ndarray, m: int) -> np.ndarray:
    """The least of the m rotations of each m-bit value of ``k``."""
    least = k.copy()
    turned, spare = np.empty_like(k), np.empty_like(k)
    for r in range(1, m):
        np.minimum(least, _rotated(k, r, m, turned, spare), out=least)
    return least


def _rotation_period(k: np.ndarray, m: int) -> np.ndarray:
    """The least r > 0 whose rotation fixes each m-bit value: its orbit size."""
    period = np.full(len(k), m, dtype=np.uint8)
    for r in range(m - 1, 0, -1):   # the smallest fixing divisor of m writes last
        if m % r == 0:
            period[_rotated(k, r, m) == k] = r
    return period


def _frobenius_orbits(field: GF2m) -> tuple[np.ndarray, np.ndarray]:
    """The orbit representatives i of x = g^i under squaring, and their sizes.

    Squaring doubles the log mod 2^m - 1, a rotation of its m bits, so
    each orbit has one log that is the least of its rotations: 0 (x = 1),
    or an odd i < 2^(m-1).  Those are found by testing the odd i in
    ``BULK_CHUNK`` slices through ``_sweep`` and cached once per degree, as
    ``uint32`` logs in increasing order and ``uint8`` sizes (699,251
    orbits at m = 24, 3.5 MB).
    """
    m = field.degree
    orbits = _ORBITS.get(m)
    if orbits is None:
        pieces = {}

        def find(start):
            stop = min(start + BULK_CHUNK, 1 << (m - 2))
            odd = np.arange(2 * start + 1, 2 * stop, 2, dtype=np.uint32)
            least = odd[_least_rotation(odd, m) == odd]
            pieces[start] = (least, _rotation_period(least, m))
            return 0

        _sweep(field, 1 << (m - 2), find)
        starts = sorted(pieces)
        reps = np.concatenate([np.zeros(1, np.uint32)] + [pieces[s][0] for s in starts])
        sizes = np.concatenate([np.ones(1, np.uint8)] + [pieces[s][1] for s in starts])
        orbits = _ORBITS[m] = (reps, sizes)
    return orbits


def _derivative_keys(values: np.ndarray, tables, m: int) -> np.ndarray:
    """The key of each value's orbit: its log's least rotation, 2^m - 1 for 0."""
    keys = _least_rotation(np.take(tables[1], values), m)
    keys[values == 0] = (1 << m) - 1
    return keys


def _orbit_pass(f: PowerFunction, tables, orbits, start: int) -> np.ndarray:
    """Packed orbit keys of D(x) = F(x + 1) + F(x) for one slice of representatives.

    Each value is the key of D(x)'s orbit shifted up ``_WEIGHT_BITS``, OR
    the number of inputs x stands for: its orbit size, and 2 for x = 1,
    whose pair x = 0 is an orbit of its own with the same D.  The weights
    of all slices total 2^m.
    """
    exp, log = tables
    reps, sizes = orbits
    logs = reps[start:start + BULK_CHUNK]
    weights = sizes[start:start + BULK_CHUNK].astype(np.uint32)
    plus_one = np.take(exp, logs)
    plus_one ^= 1
    derivative = f._image_chunk(np.take(log, plus_one), exp)
    derivative ^= f._image_chunk(logs, exp)
    if start == 0:   # reps[0] = 0: x = 1 and x + 1 = 0, whose log is meaningless
        derivative[0] = 1 ^ f._zero_power
        weights[0] = 2
    keys = _derivative_keys(derivative, tables, f.field.degree)
    keys <<= np.uint32(_WEIGHT_BITS)
    keys |= weights
    return keys


def _per_b_counts(field: GF2m, keys, hits, total: int):
    """Solutions per b, and orbit size, for the b-orbits of ``keys`` with ``hits``.

    Checks the two identities the orbit pass rests on: the weights total
    2^m, and an orbit of size t takes a multiple of t hits, t per solution
    of each of its b.
    """
    if total != field.order:
        raise TheoremViolationError(
            f"orbit weights total {total}, not the field order {field.order}")
    sizes = _rotation_period(keys, field.degree)
    per_b, rest = np.divmod(hits, sizes)
    if rest.any():
        bad = int(np.flatnonzero(rest)[0])
        raise TheoremViolationError(
            f"b-orbit of key {int(keys[bad])} and size {int(sizes[bad])} "
            f"took {int(hits[bad])} hits, not a multiple of its size")
    return per_b, sizes
