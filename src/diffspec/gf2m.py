"""Arithmetic for binary extension fields GF(2^m) in polynomial basis.

Field elements are plain Python ints: bit ``i`` of the int is the
coefficient of ``x^i``, so an element of GF(2^m) is a value in
``[0, 2^m)``.  Addition is XOR; multiplication is carry-less (shift and
XOR) reduced by an irreducible modulus of degree exactly ``m``.  All
operations are pure functions of their inputs.  A ``GF2m`` instance never
changes its observable state after construction; the solver and table
caches it builds on first use are derived data computed idempotently, so
instances can be shared across threads.

Beyond the ring operations the module provides the machinery needed for
solving quadratic equations in characteristic 2: Frobenius powers,
absolute and relative traces, the unique square root, and an
Artin-Schreier solver for ``z^2 + z = c`` that works for any degree
(including even degrees, where the textbook half-trace shortcut fails)
by inverting the F2-linear map ``z -> z^2 + z`` with Gaussian
elimination.

Each public method checks each element argument once, with ``check``.
Every loop inside ``GF2m`` runs on three private kernels that assume
field elements and check nothing: ``_mul``, ``_frob`` (squarings through
``_mul``) and ``_inv`` (extended Euclid; zero raises ``ZeroDivisionError``).
Outside ``GF2m`` only the per-b dispatch, :func:`diffspec.theorem.case_trace`,
calls them, once it has checked its b.  A failed claim about the
arithmetic itself raises ``TheoremViolationError``.

For exhaustive sweeps there is an accelerated bulk path: discrete
log/antilog tables over a primitive element, stored as numpy arrays.
``exp`` is built with a doubling construction.  Each doubling multiplies
the known block by a constant, an F2-linear map applied through one
table format, ``_linear_tables``: a table of the low 16 bits and one of
the bits above, looked up and XORed together, so an element takes one
lookup up to degree 16 and two above.  For even degrees ``log`` is
filled in field order from each element's coordinates over the
half-degree subfield, a linear map in the same format, through lookup
tables of 2^(m/2) entries; odd degrees have no such subfield and scatter
``log[exp[k]] = k``.  The degree-24 tables take 0.15-0.18 s on two
threads of a 2-core x86 box (0.16-0.17 s on one), the antilog doubling
about 0.06 s of it.  Bulk loops run in chunks of ``BULK_CHUNK``
elements, which bounds their temporaries.  The table path must (and
does; the test suite checks) agree bit-for-bit with the schoolbook
scalar path.

From degree 22 the bulk loops run on threads; this is the package's one
thread policy.  ``_sweep`` hands the ``BULK_CHUNK`` slices of a range to
a ``concurrent.futures`` pool of ``sweep_workers(field)`` threads, one
per CPU in the affinity mask, at most 4, one task per thread, while the
calling thread waits.  The table build uses it for each doubling step
(the slices write disjoint parts of ``exp``) and for ``log``: the
field-order fill writes each slice's own entries, and the odd-degree
scatter's slices are disjoint because ``exp`` is a permutation.
:mod:`diffspec.powerfn` uses the same helper for its sweeps.  Pool tasks call only private code,
so every public function and method runs on the calling thread.  The
first exception of any task is re-raised once every thread has joined.
Below degree 22 every loop is a plain loop on the calling thread:
threads gained nothing measurable there and their per-thread allocator
arenas cost a few MB of resident memory.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import GuardExceededError, TheoremViolationError

MIN_DEGREE = 4
MAX_DEGREE = 24  # 2^24-entry tables are the desk-scale ceiling
BULK_CHUNK = 1 << 16  # elements per pass of a bulk numpy loop
_THREADED_MIN_DEGREE = 22   # bulk loops of smaller fields stay on one thread
_MAX_WORKERS = 4             # beyond ~3 the brute sweep's locked np.add.at is the bound
_LOG_PIECE = BULK_CHUNK // 4  # log-fill pass: 448 KiB of buffers per worker


# ---------------------------------------------------------------------------
# Polynomials over F2, packed into ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    """Degree of a packed F2 polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b (a >= 0, b > 0).

    A negative int is no packed polynomial: XOR with a shifted divisor
    never lowers its bit length, so it is rejected rather than looped on.
    """
    if a < 0 or b <= 0:
        raise ValueError(f"poly_mod needs a >= 0 and b > 0, got a={a}, b={b}")
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def poly_str(p: int) -> str:
    """Human-readable form of a packed polynomial, e.g. 'x^4 + x + 1'."""
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)


def find_factor(p: int) -> int | None:
    """Smallest nontrivial factor of p by trial division, or None.

    Tries every polynomial of degree 1..deg(p)//2 in increasing integer
    order: up to 2^13 divisions at degree 24, so it only names the factor
    of a modulus that ``is_irreducible`` has already rejected.
    """
    if p < 0:
        raise ValueError(f"polynomial must be a non-negative integer, got {p}")
    deg = poly_degree(p)
    if deg < 1:
        return None
    for v in range(2, 1 << (deg // 2 + 1)):
        if poly_mod(p, v) == 0:
            return v
    return None


def _poly_mulmod(a: int, b: int, p: int) -> int:
    """a*b mod p for packed a, b of degree below deg(p), shift and XOR."""
    top = 1 << poly_degree(p)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= p
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Irreducibility over F2 by Rabin's test; a negative p raises ValueError.

    p of degree m >= 1 is irreducible exactly when x^(2^m) = x mod p,
    which holds iff every irreducible factor of p has a degree dividing m
    and no factor repeats, and gcd(x^(2^(m/r)) - x, p) = 1 for each prime
    r dividing m, which rules out a factor whose degree divides some m/r
    (Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput.
    1980).  That is m squarings mod p and one gcd per prime: under 0.1 ms
    at degree 24, where trial division of an irreducible takes about 10 ms.
    """
    if p < 0:
        raise ValueError(f"polynomial must be a non-negative integer, got {p}")
    m = poly_degree(p)
    if m < 1:
        return False
    x = poly_mod(2, p)
    powers = [x]                        # x^(2^k) mod p for k = 0..m
    for _ in range(m):
        powers.append(_poly_mulmod(powers[-1], powers[-1], p))
    return powers[m] == x and all(_poly_gcd(p, powers[m // r] ^ x) == 1
                                  for r in _prime_factors(m))


def smallest_irreducible(degree: int) -> int:
    """Lexicographically smallest irreducible polynomial of the degree.

    Candidates are enumerated in increasing integer order; only
    polynomials with the constant coefficient set can be irreducible
    (anything else is divisible by x).  Each takes one Rabin test, so
    degree 24 (0x100001b, the 14th candidate) takes about a millisecond.
    """
    for v in range((1 << degree) | 1, 1 << (degree + 1), 2):
        if is_irreducible(v):
            return v
    raise AssertionError(f"no irreducible polynomial of degree {degree}")


def _prime_factors(v: int) -> list[int]:
    out = []
    f = 2
    while f * f <= v:
        if v % f == 0:
            out.append(f)
            while v % f == 0:
                v //= f
        f += 1
    if v > 1:
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# F2 linear algebra on bit-packed vectors
# ---------------------------------------------------------------------------

class _LinearSystem:
    """Preimage solver for an F2-linear map given by its basis images.

    ``columns[i]`` is the image of the i-th basis vector ``1 << i``.  The
    constructor row-reduces the columns while tracking which basis
    vectors were combined, after which ``solve`` finds one preimage of a
    target (or None) in O(m) word operations, and ``kernel`` spans the
    null space.
    """

    def __init__(self, columns: list[int]):
        self._pivots: dict[int, tuple[int, int]] = {}
        self.kernel: list[int] = []
        for i, col in enumerate(columns):
            v, mask = col, 1 << i
            while v:
                t = v.bit_length() - 1
                if t not in self._pivots:
                    self._pivots[t] = (v, mask)
                    break
                pv, pm = self._pivots[t]
                v ^= pv
                mask ^= pm
            else:
                self.kernel.append(mask)

    def solve(self, target: int) -> int | None:
        v, mask = target, 0
        while v:
            t = v.bit_length() - 1
            if t not in self._pivots:
                return None
            pv, pm = self._pivots[t]
            v ^= pv
            mask ^= pm
        return mask


def _linear_tables(images: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables (low, high) of an F2-linear map on packed vectors.

    ``images[i]`` is the image of the basis vector ``1 << i``.  ``low``
    maps the low 16 bits and ``high`` the bits above, so the image of x
    is ``low[x & 0xffff] ^ high[x >> 16]``; up to 16 bits ``high`` is [0].
    """
    low = np.zeros(1 << min(len(images), 16), dtype=np.uint32)
    high = np.zeros(1 << max(len(images) - 16, 0), dtype=np.uint32)
    for i, image in enumerate(images):
        table, bit = (low, 1 << i) if i < 16 else (high, 1 << (i - 16))
        table[bit:2 * bit] = table[:bit] ^ image
    return low, high


def _apply_linear(tables, src: np.ndarray, out: np.ndarray):
    """out = L(src) elementwise for uint32 arrays of field elements, from
    ``_linear_tables``; callers pass one slice.  The indices go through
    one reused ``intp`` buffer, and "clip" gathers straight into out,
    where the default "raise" fills a buffered copy.
    """
    low, high = tables
    index = np.empty(len(src), dtype=np.intp)
    np.bitwise_and(src, 0xffff, out=index)
    np.take(low, index, out=out, mode="clip")
    if len(high) > 1:
        np.right_shift(src, 16, out=index)
        out ^= np.take(high, index, mode="clip")


def sweep_workers(field: GF2m) -> int:
    """Threads a bulk loop over ``field`` runs on: 1 below degree 22, else
    one per CPU this process may run on, at most 4."""
    if field.degree < _THREADED_MIN_DEGREE:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _sweep(field: GF2m, stop: int, work) -> int:
    """Sum of ``work(start)`` over the ``BULK_CHUNK`` starts of [0, stop).

    With one worker this is a plain loop.  Otherwise a pool of
    ``sweep_workers(field)`` threads (never more than there are starts)
    runs one task per thread, each summing ``work`` over every
    ``workers``-th start.  Leaving the pool joins every thread before the
    first failure is re-raised, so no partial result escapes.
    """
    starts = range(0, stop, BULK_CHUNK)
    workers = min(sweep_workers(field), len(starts))
    if workers <= 1:
        return sum(map(work, starts))
    # Imported here: concurrent.futures pulls in logging, which processes
    # whose fields stay below degree 22 never need.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        totals = pool.map(lambda i: sum(map(work, starts[i::workers])), range(workers))
    return sum(totals)


# ---------------------------------------------------------------------------
# The field
# ---------------------------------------------------------------------------

class GF2m:
    """GF(2^m) with a fixed irreducible modulus.

    Parameters
    ----------
    degree : int
        Extension degree m, between 4 and 24.
    modulus : int, optional
        Packed irreducible polynomial of degree exactly m with the
        constant coefficient set.  When omitted, the lexicographically
        smallest irreducible polynomial of the degree is computed, which
        keeps construction deterministic without shipping tables.
    """

    def __init__(self, degree: int, modulus: int | None = None):
        if not isinstance(degree, int) or degree < MIN_DEGREE:
            raise ValueError(f"degree must be an integer >= {MIN_DEGREE}, got {degree!r}")
        if degree > MAX_DEGREE:
            raise GuardExceededError(
                f"degree {degree} exceeds the m <= {MAX_DEGREE} sweep guard"
            )
        if modulus is None:
            modulus = smallest_irreducible(degree)
        elif not isinstance(modulus, int) or modulus < 0:
            raise ValueError(f"modulus must be a non-negative integer, got {modulus!r}")
        else:
            if poly_degree(modulus) != degree:
                raise ValueError(
                    f"modulus 0x{modulus:x} has degree {poly_degree(modulus)}, expected {degree}"
                )
            if not modulus & 1:
                raise ValueError(f"modulus 0x{modulus:x} is reducible: factor x")
            if not is_irreducible(modulus):
                factor = find_factor(modulus)
                raise ValueError(
                    f"modulus 0x{modulus:x} is reducible: factor {poly_str(factor)} (0x{factor:x})"
                )
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree          # number of field elements
        self._as_solver: _LinearSystem | None = None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._subfields: dict[int, list[int]] = {}

    def __repr__(self):
        return f"GF2m(degree={self.degree}, modulus=0x{self.modulus:x})"

    def describe(self) -> str:
        """Field description in the `m=<int> poly=0x<hex>` text format."""
        return f"m={self.degree} poly=0x{self.modulus:x}"

    def check(self, a: int) -> int:
        """Validate that a is an element of this field (an int below 2^m).

        Bools are rejected: ``True`` is an int to Python but not a field
        element to a caller.
        """
        if type(a) is not int and (isinstance(a, bool) or not isinstance(a, (int, np.integer))):
            raise ValueError(f"{a!r} is not an element of GF(2^{self.degree})")
        if not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.degree})")
        return int(a)

    # -- ring operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced by the modulus."""
        return self._mul(self.check(a), self.check(b))

    def _mul(self, a: int, b: int) -> int:
        """Unchecked product of two field elements, one shift at a time."""
        mod = self.modulus
        top = self.order
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; pow(0, 0) = 1 by convention.

        The exponent may be arbitrarily large: for nonzero bases it is
        reduced mod 2^m - 1 (the multiplicative group order) first.
        """
        a = self.check(a)
        if e < 0:
            raise ValueError("negative exponent; use inv() and a positive exponent")
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.order - 1
        r = 1
        while e:
            if e & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        return self._inv(self.check(a))

    def _inv(self, a: int) -> int:
        """Unchecked inverse of a field element a; 0 raises, never loops.

        Extended Euclid on the packed polynomials of a and the modulus,
        read at call time.  The remainders u, v and their cofactors g1, g2
        keep g1*a = u and g2*a = v (mod modulus); each step cancels the
        leading term of u with a shifted copy of v (swapping the pairs
        first when v has the higher degree), so about 2m shift-and-XOR
        steps reach u = 1, where g1 is the inverse and already below
        degree m.  The tests check it against a^(2^m - 2).
        """
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.degree})")
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    # -- Frobenius, traces, square roots ------------------------------------

    def frobenius_pow(self, a: int, k: int) -> int:
        """a^(2^k) via k repeated squarings; requires 0 <= k < m."""
        a = self.check(a)
        if not 0 <= k < self.degree:
            raise ValueError(f"Frobenius power {k} out of range [0, {self.degree})")
        return self._frob(a, k)

    def _frob(self, a: int, k: int) -> int:
        """Unchecked a^(2^k) for a field element a, by k squarings."""
        for _ in range(k):
            a = self._mul(a, a)
        return a

    def abs_trace(self, a: int) -> int:
        """Absolute trace to F2: sum of a^(2^i) for i < m, returned as 0/1."""
        return self.subfield_abs_trace(a, self.degree)

    def rel_trace(self, a: int, sub_degree: int) -> int:
        """Relative trace into the degree-`sub_degree` subfield.

        Sums a^(2^(i*sub_degree)) over the m/sub_degree cosets, each term
        the Frobenius power of the last; the result lands in the subfield.
        """
        self._check_sub_degree(sub_degree)
        t = cur = self.check(a)
        for _ in range(1, self.degree // sub_degree):
            cur = self._frob(cur, sub_degree)
            t ^= cur
        if self._frob(t, sub_degree) != t:
            raise TheoremViolationError(f"relative trace 0x{t:x} left its subfield")
        return t

    def subfield_abs_trace(self, a: int, sub_degree: int) -> int:
        """Absolute trace of the degree-`sub_degree` subfield, for members.

        For a in GF(2^sub_degree) this is the sum of a^(2^i), i <
        sub_degree, a value in {0, 1}.  Needed because the big field's
        absolute trace of a subfield element of even index is identically
        zero and carries no information.  One more squaring past the last
        term tests membership: a^(2^sub_degree) = a.
        """
        self._check_sub_degree(sub_degree)
        t = cur = a = self.check(a)
        for _ in range(sub_degree - 1):
            cur = self._mul(cur, cur)
            t ^= cur
        if self._mul(cur, cur) != a:
            raise ValueError(f"0x{a:x} is not in the degree-{sub_degree} subfield")
        if t > 1:
            raise TheoremViolationError(f"trace 0x{t:x} of 0x{a:x} is not in F2")
        return t

    def sqrt(self, a: int) -> int:
        """The unique square root (squaring is a bijection), a^(2^(m-1))."""
        return self._frob(self.check(a), self.degree - 1)

    # -- quadratic equations -------------------------------------------------

    def artin_schreier_solver(self) -> _LinearSystem:
        """The reduced basis of the F2-linear map z -> z^2 + z, built once;
        ``solve(c)`` gives one root (the other is its xor with 1), or None
        exactly when c has trace 1."""
        if self._as_solver is None:
            cols = [self._mul(e, e) ^ e for e in (1 << i for i in range(self.degree))]
            self._as_solver = _LinearSystem(cols)
        return self._as_solver

    def solve_quadratic(self, beta: int, gamma: int) -> tuple[int, ...]:
        """All field roots of x^2 + beta*x + gamma = 0.

        For beta = 0 the equation is a pure square with the single root
        sqrt(gamma); otherwise the substitution x = beta*z reduces it to
        z^2 + z = gamma / beta^2 and the Artin-Schreier solver applies.
        """
        beta = self.check(beta)
        gamma = self.check(gamma)
        if beta == 0:
            return (self._frob(gamma, self.degree - 1),)
        ib = self._inv(beta)
        z = self.artin_schreier_solver().solve(self._mul(gamma, self._mul(ib, ib)))
        if z is None:
            return ()
        x = self._mul(beta, z)
        return tuple(sorted((x, x ^ beta)))

    # -- multiplicative subgroups and subfields ------------------------------

    def in_mu(self, a: int, s: int) -> bool:
        """Membership in mu_s = {x : x^s = 1}, the order-dividing-s subgroup;
        zero is never a member, since 0^s = 0 for s >= 1."""
        if s < 1:
            raise ValueError(f"subgroup exponent must be positive, got {s}")
        return self.pow(a, s) == 1

    def in_subfield(self, a: int, sub_degree: int) -> bool:
        """True when a lies in GF(2^sub_degree), i.e. a^(2^sub_degree) = a."""
        self._check_sub_degree(sub_degree)
        a = self.check(a)
        return sub_degree == self.degree or self._frob(a, sub_degree) == a

    def subfield_elements(self, sub_degree: int) -> list[int]:
        """All 2^sub_degree elements of the degree-`sub_degree` subfield.

        Computed once as the kernel of the linear map x -> x^(2^sub_degree)
        + x rather than by scanning the whole field; each call gets a copy.
        """
        self._check_sub_degree(sub_degree)
        if sub_degree not in self._subfields:
            cols = [self._frob(1 << i, sub_degree) ^ (1 << i) for i in range(self.degree)]
            span = [0]
            for vec in _LinearSystem(cols).kernel:
                span += [s ^ vec for s in span]
            self._subfields[sub_degree] = sorted(span)
        return list(self._subfields[sub_degree])

    def _check_sub_degree(self, sub_degree: int):
        if sub_degree < 1 or self.degree % sub_degree != 0:
            raise ValueError(
                f"{sub_degree} does not divide the field degree {self.degree}"
            )

    # -- bulk tables for exhaustive sweeps ------------------------------------

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group."""
        size = self.order - 1
        factors = _prime_factors(size)
        for g in range(2, self.order):
            if all(self.pow(g, size // p) != 1 for p in factors):
                return g
        raise TheoremViolationError("no primitive element found (broken arithmetic)")

    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete antilog/log tables (exp, log) over a primitive element.

        ``exp[k] = g^k`` for k in [0, 2^m - 1) and ``log[exp[k]] = k``;
        ``log[0]`` is meaningless and callers must special-case zero.
        Both are built lazily: ``exp`` by doubling (``_doubled_exp``), then
        ``log`` (with ``log[0] = 0``) in field order for even m
        (``_field_order_log``) and scattered from ``exp`` for odd m.  The
        two F2-linear maps of the build, each doubling step's scaling and
        the even-degree coordinates, are ``_linear_tables`` applied by
        ``_apply_linear``.  Each doubling step and the ``log`` build run
        their ``BULK_CHUNK`` slices through ``_sweep``; the tables are
        cached only once both are complete, so a failed build leaves
        nothing behind.
        """
        if self._tables is None:
            exp = self._doubled_exp()
            log = (self._field_order_log(exp) if self.degree % 2 == 0
                   else self._scattered_log(exp))
            self._tables = (exp, log)
        return self._tables

    def _doubled_exp(self) -> np.ndarray:
        """exp[k] = g^k for k < 2^m - 1, g the primitive element.

        Once g^0..g^(f-1) are known, the next f entries are the known block
        scaled by g^f, through the ``_linear_tables`` of that multiplication:
        one gather per element up to degree 16, two above.  The step tables
        go when this returns, before ``log`` is built.
        """
        size = self.order - 1
        g = self.primitive_element()
        exp = np.empty(size, dtype=np.uint32)
        exp[0] = 1
        filled = 1
        while filled < size:
            step = min(filled, size - filled)
            scalar = self.pow(g, filled)
            tables = _linear_tables([self._mul(scalar, 1 << i) for i in range(self.degree)])

            def scale(start):
                stop = min(start + BULK_CHUNK, step)
                _apply_linear(tables, exp[start:stop], exp[filled + start:filled + stop])
                return 0

            _sweep(self, step, scale)
            filled += step
        return exp

    def _scattered_log(self, exp: np.ndarray) -> np.ndarray:
        """log[exp[k]] = k by a scatter over ``exp``'s slices; log[0] = 0."""
        size = self.order - 1
        log = np.zeros(self.order, dtype=np.uint32)

        def scatter(start):
            # exp is a permutation, so the slices write disjoint slots.
            stop = min(start + BULK_CHUNK, size)
            np.put(log, exp[start:stop].astype(np.intp),
                   np.arange(start, stop, dtype=np.uint32))
            return 0

        _sweep(self, size, scatter)
        return log

    def _field_order_log(self, exp: np.ndarray) -> np.ndarray:
        """The log table of an even degree m = 2s, filled in field order.

        With c = 2^s + 1, h = exp[c] generates K* = GF(2^s)*, and the 2s
        entries exp[i*c], exp[i*c + 1] (i < s) write each x as a + b*g
        with a, b in K.  For a, b != 0, log x = c*log_K(b) + log(a/b + g)
        mod 2^m - 1: log_K comes from exp[::c], and log(t + g) for t in
        K* from exp[2:c], since g^j / b_j = a_j / b_j + g.  Both tables
        have under 2^(s+1) entries and stay in cache.  The coordinate map
        is linear, so it is held as ``_linear_tables``; from it come the
        coordinates of the first ``_LOG_PIECE`` elements and of each
        piece's offset, and the map is dropped before the fill; the
        coordinates of x in a piece are the XOR of one of each.  Each slice fills its
        ``log`` entries piece by piece with a few gathers from the log
        tables above.  The slots with a = 0 or b = 0, and log[0] = 0, are
        set last from exp[1::c] and exp[::c].
        """
        s = self.degree // 2
        c, e, size = (1 << s) + 1, (1 << s) - 1, self.order - 1   # e masks a's coordinates
        system = _LinearSystem([int(exp[i * c + j]) for j in (0, 1) for i in range(s)])
        if system.kernel:
            raise TheoremViolationError(
                f"log basis exp[i*{c}], exp[i*{c} + 1] (i < {s}) is linearly dependent")
        coords = _linear_tables([system.solve(1 << i) for i in range(self.degree)])

        def coordinates(x):
            out = np.empty(len(x), dtype=np.uint32)
            _apply_linear(coords, np.ascontiguousarray(x, dtype=np.uint32), out)
            return out.astype(np.intp)

        sub = coordinates(exp[::c])
        if (sub >> s).any():
            raise TheoremViolationError(f"a power of exp[{c}] left GF(2^{s})")
        log_k = np.zeros(1 << s, dtype=np.intp)
        log_k[sub] = np.arange(e)
        shifted = log_k + e                    # log_K(a) + e: a - b never < 0
        pair = coordinates(exp[2:c])
        pa, pb = pair & e, pair >> s
        lb = log_k[pb]
        # a_j, b_j != 0 unless exp is broken; a slot left 0 gives wrong logs.
        live = (pa != 0) & (pb != 0)
        ratio = np.zeros(2 * e, dtype=np.uint32)   # log(h^k + g) at k and k + e
        k = ((log_k[pa] - lb) % e)[live]
        ratio[k] = ratio[k + e] = ((np.arange(2, c) - c * lb) % size)[live]

        piece = min(_LOG_PIECE, self.order)
        low = coordinates(np.arange(piece))
        low_a, low_b = low & e, low >> s
        high = coordinates(np.arange(0, self.order, piece)).tolist()
        del coords, coordinates     # the fill reads only the coordinates above
        log = np.empty(self.order, dtype=np.uint32)

        def fill(start):
            a, b, t = (np.empty(piece, dtype=np.intp) for _ in range(3))
            wrap = np.empty(piece, dtype=np.uint32)
            for lo in range(start, min(start + BULK_CHUNK, self.order), piece):
                out = log[lo:lo + piece]
                xy = high[lo // piece]
                np.bitwise_xor(low_a, xy & e, out=a)
                np.bitwise_xor(low_b, xy >> s, out=b)
                # Indices are in range; "clip" writes straight into out,
                # where the default "raise" fills a buffered copy.
                np.take(shifted, a, out=t, mode="clip")
                np.take(log_k, b, out=a, mode="clip")
                np.subtract(t, a, out=t)
                np.take(ratio, t, out=out, mode="clip")
                np.multiply(a, c, out=wrap, casting="unsafe")
                out += wrap
                # out < 2 * size; out - size wraps past 2^32 where out < size,
                # so the minimum is out mod size.
                np.subtract(out, size, out=wrap)
                np.minimum(out, wrap, out=out)
            return 0

        _sweep(self, self.order, fill)
        log[exp[::c]] = np.arange(0, size, c, dtype=np.uint32)
        log[exp[1::c]] = np.arange(1, size, c, dtype=np.uint32)
        log[0] = 0
        return log
