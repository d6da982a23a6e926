"""Arithmetic and expected values computed apart from the program.

Nothing here imports ``diffspec``.  The benchmark checks the program's
outputs against these computations:

* a carry-less multiply (full product, then reduction from the top bit
  down), vectorised over numpy arrays, used to evaluate
  (x+1)^d + x^d for every constructed solution;
* Rabin's irreducibility test, to pick seeded moduli and to confirm the
  program's default ones;
* seeded samples of b drawn from each region the structured dispatch
  distinguishes, built from group maps (norm, (q-1)-th power, x^q + x)
  rather than from the program's own predicates;
* differential spectra known from the literature (Gold, Kasami, inverse)
  and the paper's four buckets for d = 2^(3n) + 2^(2n) + 2^n - 1, with
  the sum identities sum w_i = sum i*w_i = 2^m (Blondeau, Canteaut,
  Charpin, "Differential properties of power functions", 2010).
"""

from __future__ import annotations

import math
import random

import numpy as np


# -- scalar polynomial arithmetic over F2 ------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two packed F2 polynomials, unreduced."""
    r = 0
    i = 0
    while b:
        if b & 1:
            r ^= a << i
        b >>= 1
        i += 1
    return r


def polymod(a: int, p: int) -> int:
    """Remainder of a by p by long division from the top bit down."""
    dp = p.bit_length() - 1
    while a.bit_length() - 1 >= dp:
        a ^= p << (a.bit_length() - 1 - dp)
    return a


def polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, polymod(a, b)
    return a


def prime_factors(v: int) -> list[int]:
    out, f = [], 2
    while f * f <= v:
        if v % f == 0:
            out.append(f)
            while v % f == 0:
                v //= f
        f += 1
    if v > 1:
        out.append(v)
    return out


def is_irreducible(p: int) -> bool:
    """Rabin's test: x^(2^m) = x mod p, and gcd(x^(2^(m/r)) - x, p) = 1
    for every prime r dividing m."""
    m = p.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True

    def x_frobenius(k: int) -> int:
        v = 2
        for _ in range(k):
            v = polymod(clmul(v, v), p)
        return v

    if x_frobenius(m) != 2:
        return False
    return all(polygcd(x_frobenius(m // r) ^ 2, p) == 1 for r in prime_factors(m))


def random_irreducible(m: int, rng: random.Random) -> int:
    """A seeded irreducible polynomial of degree m."""
    while True:
        p = (1 << m) | rng.getrandbits(m) | 1
        if is_irreducible(p):
            return p


# -- the field GF(2^m) mod a given polynomial ----------------------------------

class Field:
    """GF(2^m) modulo ``poly``, vectorised over numpy arrays, without ``GF2m``."""

    def __init__(self, m: int, poly: int):
        if poly.bit_length() - 1 != m or not is_irreducible(poly):
            raise ValueError(f"0x{poly:x} is not an irreducible polynomial of degree {m}")
        self.m = m
        self.poly = poly
        self.order = 1 << m

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two uint64 arrays of field elements."""
        m = self.m
        r = np.zeros_like(a)
        for i in range(m):
            r ^= (a << np.uint64(i)) * ((b >> np.uint64(i)) & np.uint64(1))
        for t in range(2 * m - 2, m - 1, -1):
            r ^= ((r >> np.uint64(t)) & np.uint64(1)) * np.uint64(self.poly << (t - m))
        return r

    def vpow(self, a: np.ndarray, e: int) -> np.ndarray:
        r = np.ones_like(a)
        while e:
            if e & 1:
                r = self.vmul(r, a)
            a = self.vmul(a, a)
            e >>= 1
        return r

    def derivative(self, xs, d: int) -> np.ndarray:
        """(x+1)^d + x^d for every x in ``xs``."""
        xs = np.asarray(xs, dtype=np.uint64)
        return self.vpow(xs ^ np.uint64(1), d) ^ self.vpow(xs, d)

    def random_nonzero(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(1, self.order, size=size, dtype=np.uint64)


# -- the exponent family --------------------------------------------------------

def family_exponent(n: int) -> int:
    """d = 2^(3n) + 2^(2n) + 2^n - 1."""
    return (1 << 3 * n) + (1 << 2 * n) + (1 << n) - 1


def family_spectrum(n: int) -> dict[int, int]:
    """The paper's four buckets for x^d over GF(2^(4n)).

    w_0 = (2^(3n-1) - 1)(2^n + 1), w_2 = 2^(4n-1) - 2^(3n-1), 2^n values
    of b with 2^(2n) - 2^n solutions, and the single b = 1 with 2^(2n).
    At n = 1 the middle buckets share multiplicity 2 and add up.
    """
    out: dict[int, int] = {}
    for i, c in (
        (0, ((1 << (3 * n - 1)) - 1) * ((1 << n) + 1)),
        (2, (1 << (4 * n - 1)) - (1 << (3 * n - 1))),
        ((1 << 2 * n) - (1 << n), 1 << n),
        (1 << 2 * n, 1),
    ):
        out[i] = out.get(i, 0) + c
    return dict(sorted(out.items()))


def family_branches(n: int) -> dict[str, int]:
    """How many b in GF(2^(4n)) reach each branch of the structured dispatch.

    b = 0 and b = 1 once each; the q unit-circle values other than 1; the
    rest of GF(q^2)*; off GF(q^2): w_2 values with two solutions, the q^2
    norm-1 values (mu_(q^2+1) meets GF(q^2) only in 1), the q^3 - q^2
    values of zero trace to GF(q), and the remaining zero-count values
    whose pair roots leave the circle.
    """
    q = 1 << n
    two = (q ** 4 - q ** 3) // 2
    return {
        "b0": 1,
        "b1": 1,
        "unit_circle": q,
        "subfield": q * q - q - 2,
        "quadratic2": two,
        "quadratic0.norm_gate": q * q,
        "quadratic0.zero_trace": q ** 3 - q * q,
        "quadratic0.off_circle": two - q * q,
    }


# -- spectra known from the literature -----------------------------------------

def gold_spectrum(m: int, k: int) -> dict[int, int]:
    """x^(2^k+1): 2^(m-s) values hit 2^s times, s = gcd(k, m); the rest 0."""
    s = math.gcd(k, m)
    return {0: (1 << m) - (1 << (m - s)), 1 << s: 1 << (m - s)}


def apn_spectrum(m: int) -> dict[int, int]:
    """Any APN power function, e.g. Kasami 2^(2k) - 2^k + 1, gcd(k, m) = 1."""
    return {0: 1 << (m - 1), 2: 1 << (m - 1)}


def inverse_spectrum(m: int) -> dict[int, int]:
    """x^(2^m - 2) for even m."""
    if m % 2:
        raise ValueError("the inverse spectrum below holds for even m")
    return {0: (1 << (m - 1)) + 1, 2: (1 << (m - 1)) - 2, 4: 1}


def spectrum_identity_errors(entries: dict[int, int], m: int) -> list[str]:
    """Violations of sum w_i = sum i*w_i = 2^m and of even multiplicities."""
    errors = []
    if sum(entries.values()) != 1 << m:
        errors.append(f"sum w_i = {sum(entries.values())} != 2^{m}")
    if sum(i * c for i, c in entries.items()) != 1 << m:
        errors.append(f"sum i*w_i != 2^{m}")
    odd = sorted(i for i in entries if i % 2)
    if odd:
        errors.append(f"odd multiplicities {odd}")
    if any(c <= 0 for c in entries.values()):
        errors.append("non-positive bucket")
    return errors


def sweep_exponents(m: int, rng: random.Random) -> list[tuple[str, int, dict | None]]:
    """Seeded exponents for one brute scan at degree m (m even).

    Each entry is (label, d, expected spectrum or None).  The make-up is
    fixed, only the parameters are seeded: one Gold, one Kasami, the
    inverse, the family exponent when 4 | m, and random exponents to make
    six.  Random ones are held to the identities alone.
    """
    k_gold = rng.randrange(1, m)
    kasami_ks = [k for k in range(2, m // 2) if math.gcd(k, m) == 1]
    k_kas = rng.choice(kasami_ks)
    out = [
        (f"gold k={k_gold}", (1 << k_gold) + 1, gold_spectrum(m, k_gold)),
        (f"kasami k={k_kas}", (1 << 2 * k_kas) - (1 << k_kas) + 1, apn_spectrum(m)),
        ("inverse", (1 << m) - 2, inverse_spectrum(m)),
    ]
    if m % 4 == 0:
        out.append((f"family n={m // 4}", family_exponent(m // 4), family_spectrum(m // 4)))
    while len(out) < 6:
        d = rng.randrange(1, (1 << m) - 1)
        out.append((f"random {d}", d, None))
    return out


# -- seeded samples of b by dispatch region ------------------------------------

def _take(fld: Field, rng: np.random.Generator, want: int, make, keep) -> list[int]:
    """Draw candidates in batches, map them with ``make``, keep what ``keep`` admits."""
    out: list[int] = []
    while len(out) < want:
        cand = make(fld.random_nonzero(rng, 4 * want + 8))
        out.extend(int(v) for v in cand[keep(cand)])
    return out[:want]


def b_sample(fld: Field, n: int, sizes: dict[str, int], seed: int) -> dict[str, list]:
    """Seeded b values of GF(2^(4n)) for each region of the dispatch.

    Regions: ``circle`` mu_(q+1) minus 1 (as y^((q^2+1)(q-1))); ``subfield``
    GF(q^2)* off the circle (as norms y^(q^2+1)); ``norm_gate`` norm-1
    values off GF(q^2) (as y^(q^2-1)); ``zero_trace`` trace-0 values off
    GF(q^2) (as z^q + z); ``image`` derivative values D(x0) off GF(q^2),
    returned as (b, x0) so the solution set {x0, x0+1} is known; and
    ``generic`` uniform values off GF(q^2), returned as (b, gate) with the
    gate ("norm", "trace" or "open") computed here.
    """
    q = 1 << n
    q2 = q * q
    rng = np.random.default_rng(seed)
    one = np.uint64(1)

    def in_sub(v):
        return fld.vpow(v, q2) == v

    def norm1(v):
        return fld.vpow(v, q2 + 1) == one

    def trace0(v):
        vq = fld.vpow(v, q)
        vq2 = fld.vpow(vq, q)
        return (v ^ vq ^ vq2 ^ fld.vpow(vq2, q)) == 0

    out: dict[str, list] = {"b0": [0] * sizes.get("b0", 0), "b1": [1] * sizes.get("b1", 0)}
    out["circle"] = _take(fld, rng, sizes["circle"],
                          lambda y: fld.vpow(y, (q2 + 1) * (q - 1)), lambda c: c != one)
    out["subfield"] = _take(fld, rng, sizes["subfield"],
                            lambda y: fld.vpow(y, q2 + 1),
                            lambda z: (z != one) & (fld.vpow(z, q + 1) != one))
    out["norm_gate"] = _take(fld, rng, sizes["norm_gate"],
                             lambda y: fld.vpow(y, q2 - 1), lambda w: w != one)
    out["zero_trace"] = _take(fld, rng, sizes["zero_trace"],
                              lambda z: z ^ fld.vpow(z, q),
                              lambda b: (b != 0) & ~in_sub(b) & ~norm1(b))
    d = family_exponent(n)
    x0s = _take(fld, rng, sizes["image"], lambda x: x,
                lambda x: ~in_sub(fld.derivative(x, d)))
    images = fld.derivative(x0s, d) if x0s else []
    out["image"] = [(int(b), x0) for b, x0 in zip(images, x0s)]
    generic = np.array(_take(fld, rng, sizes["generic"], lambda v: v,
                             lambda v: ~in_sub(v)), dtype=np.uint64)
    gate = np.where(norm1(generic), "norm", np.where(trace0(generic), "trace", "open"))
    out["generic"] = [(int(b), str(g)) for b, g in zip(generic, gate)]
    return out
