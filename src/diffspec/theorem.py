"""Structured differential analysis of x^d for d = q^3 + q^2 + q - 1.

For q = 2^n the exponent d = q^3 + q^2 + q - 1 over GF(2^(4n)) has a
completely determined differential spectrum, and this module implements
the determination as executable machinery rather than as a sweep:

* ``case_trace`` counts the solutions of (x+1)^d + x^d = b with a
  handful of field operations per b, by dispatching on where b lives:

  - b = 0: no solutions (d is coprime to the group order, so the
    derivative is a difference of a permutation's values at distinct
    points).
  - b = 1: exactly the quadratic subfield GF(q^2), q^2 solutions.
  - b on the unit circle mu_(q+1), b != 1: q^2 - q solutions.
  - any other b in GF(q^2): no solutions.
  - b outside GF(q^2): 0 or 2 solutions, decided by whether a certain
    monic quadratic has its roots on the unit circle.

  ``case_trace`` is the one per-b entry point: it checks b once, runs on
  the unchecked field kernels, and for every b outside {0, 1} its
  C = b^-1 + b^(-q^2) alone decides membership of GF(q^2): C = 0 exactly
  on the subfield.  The dispatch makes no other subfield test.

* ``structured_counts`` runs that dispatch over the whole field, the one
  loop behind ``verify_conjecture`` and ``spectrum --method structured``.

* ``solutions_for_one`` / ``solutions_on_circle`` /
  ``solutions_off_subfield`` construct the actual solution sets for the
  nonzero branches, so the counts above are backed by explicit witnesses.
  All three leave through one checked exit, ``_verified``: no root
  twice, exactly the branch's count of them, and each one re-verified
  by substitution.

* ``spectrum_closed_form`` emits the four-bucket spectrum directly from
  n, and ``verify_conjecture`` cross-checks all three routes (closed
  form, structured counts, brute-force histogram) against each other.

The dispatch encodes claims that are supposed to be impossible to
falsify; where the code relies on such a claim it asserts it and raises
:class:`~diffspec.errors.TheoremViolationError` if it fails, a dedicated
channel distinct from input validation.  Two degenerate branches deserve
a note because they are easy to get wrong: for b outside GF(q^2) the
quadratic's coefficients degenerate when b has norm 1 into GF(q^2)
(then b lies on the order-(q^2+1) circle) or when b has relative trace 0
down to GF(q); in both situations the pair construction collapses and
there are provably no solutions, so the solver returns 0 rather than
treating the degeneracy as an error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import TheoremViolationError
from .gf2m import BULK_CHUNK, GF2m
from .powerfn import (
    PowerFunction,
    Spectrum,
    solution_counts,
    spectrum_from_counts,
)


# ---------------------------------------------------------------------------
# Integer-level facts about the exponent family (no field required)
# ---------------------------------------------------------------------------

def family_exponent(n: int) -> int:
    """d = 2^(3n) + 2^(2n) + 2^n - 1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return (1 << 3 * n) + (1 << 2 * n) + (1 << n) - 1

def congruence_holds(n: int) -> bool:
    """d*(q+1) = 2*q^2*(q+1) modulo q^4 - 1, the identity the whole
    case analysis pivots on."""
    q = 1 << n
    d = family_exponent(n)
    return (d * (q + 1) - 2 * q * q * (q + 1)) % (q ** 4 - 1) == 0

def is_niho_exponent(n: int) -> bool:
    """d reduces to a power of two mod q^2 - 1 (here to 2q for n >= 2)."""
    q = 1 << n
    r = family_exponent(n) % (q * q - 1)
    return r > 0 and r & (r - 1) == 0

def is_family_permutation(n: int) -> bool:
    """gcd(d, q^4 - 1) = 1: x^d permutes GF(2^(4n))."""
    q = 1 << n
    return math.gcd(family_exponent(n), q ** 4 - 1) == 1

def family_branches(n: int) -> dict[str, int]:
    """How many b in GF(2^(4n)) reach each branch of the per-b dispatch.

    b = 0 and b = 1 once each; the q unit-circle values other than 1; the
    rest of GF(q^2)*; off GF(q^2): the (q^4 - q^3)/2 values with two
    solutions, the q^2 values of norm 1 into GF(q^2) (the norm gate), the
    q^3 - q^2 values of zero trace down to GF(q), and the other zero-count
    values, whose pair roots leave the unit circle.  Keys follow
    ``CaseTrace.branch``.
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


# ---------------------------------------------------------------------------
# Instance parameters
# ---------------------------------------------------------------------------

class TheoremParams:
    """One instance of the family: n, q = 2^n, m = 4n, d = q^3+q^2+q-1.

    Construction builds the degree-4n field and re-checks the three
    integer facts (congruence, coprimality, Niho reduction) so that a
    broken instance fails loudly instead of producing garbage counts.
    """

    def __init__(self, n: int, modulus: int | None = None):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        self.n = n
        self.q = 1 << n
        self.m = 4 * n
        self.d = family_exponent(n)
        self.field = GF2m(self.m, modulus)
        for name, ok in (
            ("congruence d(q+1) = 2q^2(q+1) mod q^4-1", congruence_holds(n)),
            ("gcd(d, q^4 - 1) = 1", is_family_permutation(n)),
            ("Niho reduction d = 2q mod q^2 - 1", is_niho_exponent(n)),
        ):
            if not ok:
                raise TheoremViolationError(f"instance invariant failed for n={n}: {name}")

    def __repr__(self):
        return f"TheoremParams(n={self.n}, d={self.d}, {self.field.describe()})"

    def power_function(self) -> PowerFunction:
        return PowerFunction(self.field, self.d)

    def derivative_value(self, x: int) -> int:
        """(x+1)^d + x^d."""
        fld = self.field
        return fld.pow(x ^ 1, self.d) ^ fld.pow(x, self.d)

def unit_circle(params: TheoremParams) -> set[int]:
    """mu_(q+1), the norm-1 subgroup of GF(q^2) over GF(q); q+1 elements.

    Built as the q + 1 powers of h = g^((2^m - 1)/(q + 1)) for the
    primitive element g.  That they are q + 1 distinct values, each with
    x^(q+1) = 1, is a claim checked on every call.
    """
    fld = params.field
    q = params.q
    h = fld.pow(fld.primitive_element(), (fld.order - 1) // (q + 1))
    circle, x = set(), 1
    for _ in range(q + 1):
        circle.add(x)
        x = fld.mul(x, h)
    if len(circle) != q + 1 or any(fld.pow(x, q + 1) != 1 for x in circle):
        raise TheoremViolationError(
            f"the powers of g^((2^{params.m} - 1)/{q + 1}) are not mu_{q + 1}")
    return circle


# ---------------------------------------------------------------------------
# Per-b case dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CirclePairState:
    """Audit record of ``case_trace`` for one b outside GF(q^2), which
    ``CaseTrace.b`` holds.

    ``norm_term``, ``cross_term`` and ``inv_gap`` are the three derived
    quantities controlling the off-subfield branch (printed as A, B, C in
    CLI traces).  With N = b^(q^2+1) the norm of b into GF(q^2) and
    T = b + b^(q^2) its relative trace:

    - norm_term  A = N + N^2, zero exactly when N is 0 or 1;
    - cross_term B = b^(q^3+q^2+q) + b^(q^3+q+1) + b^(q^3) + b^q
      (equal to N^q*T + T^q);
    - inv_gap    C = b^-1 + b^(-q^2), zero exactly when b is in GF(q^2).

    ``case_trace`` derives them for every b outside {0, 1}; C = 0 is its
    one subfield decision, and that it agrees with b^(q^2) = b (n more
    squarings of b^q) is a claim checked for each such b.

    Off the subfield and away from the degenerate gates, the two circle
    parameters gamma with x^(2q^2) = (b + gamma)/(pair_sum) solving the
    derivative equation are the unit-circle roots of
    t^2 + pair_sum * t + pair_product = 0; ``circle_roots`` holds them
    (either both or none, never one).  That quadratic is claimed to split
    in the field; one without roots raises ``TheoremViolationError``.
    """

    norm_term: int
    cross_term: int
    inv_gap: int
    pair_sum: int | None = None
    pair_product: int | None = None
    circle_roots: tuple[int, ...] = ()


@dataclass(frozen=True)
class CaseTrace:
    """Which branch fired for b, the resulting count, and the audit state."""

    b: int
    case: str  # "b=0" | "b=1" | "unit-circle" | "subfield" | "quadratic"
    count: int
    state: CirclePairState | None = None

    @property
    def branch(self) -> str:
        """The dispatch branch, named as the keys of ``family_branches``;
        the quadratic case splits by count and by which gate zeroed it."""
        if self.case != "quadratic":
            return {"b=0": "b0", "b=1": "b1", "unit-circle": "unit_circle",
                    "subfield": "subfield"}[self.case]
        if self.count == 2:
            return "quadratic2"
        if self.state.norm_term == 0:
            return "quadratic0.norm_gate"
        if self.state.pair_sum == 0:
            return "quadratic0.zero_trace"
        return "quadratic0.off_circle"


def case_trace(params: TheoremParams, b: int) -> CaseTrace:
    """Structured count for b, the branch that produced it and, in the
    quadratic case only, the pair state.  b is checked once; all later
    field work but the public pair-quadratic solver runs on the kernels."""
    fld = params.field
    n, q = params.n, params.q
    b = fld.check(b)
    if b == 0:
        return CaseTrace(b, "b=0", 0)
    if b == 1:
        return CaseTrace(b, "b=1", q * q)
    mul, frob = fld._mul, fld._frob

    b_q = frob(b, n)
    b_q2 = frob(b_q, n)
    b_q3 = frob(b_q2, n)
    norm = mul(b, b_q2)                          # N = b^(q^2+1)
    norm_term = norm ^ mul(norm, norm)           # A = N + N^2
    cross_term = (                               # B, from its defining exponents
        mul(mul(b_q3, b_q2), b_q)
        ^ mul(mul(b_q3, b_q), b)
        ^ b_q3
        ^ b_q
    )
    inv_gap = fld._inv(b) ^ fld._inv(b_q2)       # C = b^-1 + b^(-q^2)

    if frob(norm_term, 2 * n) != norm_term or frob(cross_term, 2 * n) != cross_term:
        raise TheoremViolationError(
            f"derived terms left the quadratic subfield for b=0x{b:x}"
        )
    if (b_q2 == b) != (inv_gap == 0):
        raise TheoremViolationError(
            f"subfield membership and C = 0 disagree for b=0x{b:x}"
        )
    if not inv_gap:
        if mul(b, b_q) == 1:                     # b^(q+1) = 1
            return CaseTrace(b, "unit-circle", q * q - q)
        return CaseTrace(b, "subfield", 0)

    if norm_term == 0:
        # b has norm 1 into GF(q^2) (it sits on the order-(q^2+1) circle).
        # A solution would force cross_term = 0 as well, which would pull
        # b back into GF(q^2); so there are provably no solutions here.
        if cross_term == 0:
            raise TheoremViolationError(
                f"norm and cross terms both vanished off the subfield, b=0x{b:x}"
            )
        return CaseTrace(b, "quadratic", 0, CirclePairState(norm_term, cross_term, inv_gap))

    total_trace = b ^ b_q ^ b_q2 ^ b_q3                   # trace down to GF(q)
    denom_inv_q = frob(fld._inv(norm ^ 1), n)             # (N + 1)^-q, N != 1 here
    pair_sum = mul(total_trace, denom_inv_q)              # (N+1)^-q * trace
    pair_product = mul(norm ^ 1, denom_inv_q)             # (N+1)^(1-q)
    if pair_sum == 0:
        # Zero relative trace: the candidate pair would collapse to a
        # double root, contradicting its construction; no solutions.
        return CaseTrace(b, "quadratic", 0,
                         CirclePairState(norm_term, cross_term, inv_gap,
                                         pair_sum, pair_product))

    roots = fld.solve_quadratic(pair_sum, pair_product)
    if not roots:
        raise TheoremViolationError(
            f"the pair quadratic t^2 + S t + P does not split, b=0x{b:x}"
        )
    on_circle = tuple(r for r in roots if r != 0 and mul(r, frob(r, n)) == 1)
    if len(on_circle) == 1:
        raise TheoremViolationError(
            f"exactly one root of the pair equation on the unit circle, b=0x{b:x}"
        )
    return CaseTrace(b, "quadratic", len(on_circle),
                     CirclePairState(norm_term, cross_term, inv_gap,
                                     pair_sum, pair_product, on_circle))


def structured_counts(params: TheoremParams) -> tuple[np.ndarray, dict[str, int]]:
    """The ``case_trace`` count of every b, and how many b reached each branch.

    Counts come back as a ``uint16`` array indexed by b, the brute sweep's
    format (no count exceeds q^2 <= 2^12); the branch tally is keyed like
    ``family_branches``.  No sweep over x is made.
    """
    branches = dict.fromkeys(family_branches(params.n), 0)
    counts = np.zeros(params.field.order, dtype=np.uint16)
    for b in range(params.field.order):
        trace = case_trace(params, b)
        counts[b] = trace.count
        branches[trace.branch] += 1
    return counts, branches


# ---------------------------------------------------------------------------
# Explicit solution constructors
# ---------------------------------------------------------------------------

def _verified(params: TheoremParams, b: int, roots: list[int], size: int) -> set[int]:
    """The constructed ``roots`` as the returned set, after the claims every
    constructor shares: no root twice, exactly ``size`` of them, and each
    one solving (x+1)^d + x^d = b by substitution.  The counts go first,
    since a substitution costs two ``pow`` calls."""
    out = set(roots)
    if len(out) != len(roots):
        raise TheoremViolationError(
            f"{len(roots) - len(out)} constructed roots repeat (b=0x{b:x})"
        )
    if len(out) != size:
        raise TheoremViolationError(
            f"constructed {len(out)} solutions, expected {size} (b=0x{b:x})"
        )
    for x in roots:
        if params.derivative_value(x) != b:
            raise TheoremViolationError(
                f"constructed root 0x{x:x} fails substitution (b=0x{b:x})"
            )
    return out


def solutions_for_one(params: TheoremParams) -> set[int]:
    """The solution set for b = 1: exactly the quadratic subfield GF(q^2)."""
    return _verified(params, 1, params.field.subfield_elements(2 * params.n),
                     params.q * params.q)


@dataclass(frozen=True)
class CircleWitness:
    """One admissible parameter pair in the unit-circle construction.

    For b = scale^(q-1) on the unit circle, solutions come in pairs from
    the quadratic x^2 + (1 + trace_coord*scale) x = norm_coord*scale,
    one pair per (trace_coord, norm_coord) in GF(q) x GF(q)^* passing a
    trace test.  ``roots`` holds that pair.
    """

    trace_coord: int
    norm_coord: int
    roots: tuple[int, ...]


def find_circle_scale(params: TheoremParams, b: int) -> int:
    """Some w in GF(q^2) \\ GF(q) with w^(q-1) = b, by subfield scan.

    The construction's output does not depend on which preimage is
    chosen; the scan returns the smallest, making runs reproducible.
    """
    fld = params.field
    q = params.q
    for u in fld.subfield_elements(2 * params.n):
        if u and fld.pow(u, q - 1) == b:
            return u
    raise TheoremViolationError(f"no (q-1)-th root of b=0x{b:x} in the quadratic subfield")


def circle_witnesses(params: TheoremParams, b: int,
                     scale: int | None = None) -> list[CircleWitness]:
    """All admissible parameter pairs for b on the unit circle, b != 1.

    Exactly one trace coordinate is excluded (the one collapsing the
    trace test), and each surviving coordinate admits exactly q/2 norm
    coordinates, so (q-1) * q/2 witnesses come back.
    """
    fld = params.field
    n, q = params.n, params.q
    b = fld.check(b)
    if b == 1 or not fld.in_mu(b, q + 1):
        raise ValueError(f"b=0x{b:x} is not on the unit circle minus 1")
    if scale is None:
        scale = find_circle_scale(params, b)
    else:
        scale = fld.check(scale)
        if fld.in_subfield(scale, n) or fld.pow(scale, q - 1) != b:
            raise ValueError(f"scale 0x{scale:x} is not a valid (q-1)-th root of b")

    # The excluded trace coordinate squares to the inverse norm of the scale.
    scale_norm = fld.mul(scale, fld.frobenius_pow(scale, n))   # scale^(q+1), in GF(q)
    excluded = fld.sqrt(fld.inv(scale_norm))
    if not fld.in_subfield(excluded, n):
        raise TheoremViolationError("excluded trace coordinate left GF(q)")

    witnesses = []
    base_field = fld.subfield_elements(n)
    for tc in base_field:
        if tc == excluded:
            continue
        affine = 1 ^ fld.mul(tc, scale)                        # 1 + tc*scale != 0
        inv_affine = fld.inv(affine)
        base = fld.mul(scale, fld.mul(inv_affine, inv_affine))  # scale / affine^2
        for nc in base_field:
            if nc == 0:
                continue
            # Roots must avoid GF(q^2): the quadratic-subfield trace of
            # nc * base has to be 1.
            if fld.subfield_abs_trace(fld.mul(nc, base), 2 * n) != 1:
                continue
            roots = fld.solve_quadratic(affine, fld.mul(nc, scale))
            if len(roots) != 2:
                raise TheoremViolationError(
                    f"admissible pair produced {len(roots)} roots (b=0x{b:x})"
                )
            witnesses.append(CircleWitness(tc, nc, roots))
    return witnesses


def solutions_on_circle(params: TheoremParams, b: int,
                        scale: int | None = None) -> set[int]:
    """The q^2 - q solutions for b on the unit circle, b != 1.

    Aggregates the witness pairs, claims that there are (q-1) * q/2 of
    them and that no root lies inside GF(q^2), and leaves through
    ``_verified``.
    """
    n, q = params.n, params.q
    witnesses = circle_witnesses(params, b, scale)
    if len(witnesses) != (q - 1) * q // 2:
        raise TheoremViolationError(
            f"expected {(q - 1) * q // 2} admissible pairs, found {len(witnesses)}"
        )
    roots = [x for wit in witnesses for x in wit.roots]
    for x in roots:
        if params.field.in_subfield(x, 2 * n):
            raise TheoremViolationError(
                f"constructed root 0x{x:x} fell inside GF(q^2) (b=0x{b:x})"
            )
    return _verified(params, b, roots, q * q - q)


def solutions_off_subfield(params: TheoremParams, b: int) -> set[int]:
    """The 0 or 2 solutions for b outside GF(q^2), from the circle pair.

    Each circle root gamma determines one solution through
    x^(2q^2) = (b + gamma) / pair_sum; the map u -> u^(2q^2) is a
    bijection, inverted by a single modular-inverse exponent.  A pair
    leaves through ``_verified``.  The pair state is
    ``case_trace(params, b).state``; every b whose trace has none (b in
    GF(q^2), C = 0) raises ``ValueError``.
    """
    fld = params.field
    state = case_trace(params, b).state
    if state is None:
        raise ValueError(f"b=0x{b:x} lies in the quadratic subfield")
    if not state.circle_roots:
        return set()
    recover = pow(2 * params.q * params.q, -1, fld.order - 1)
    inv_sum = fld.inv(state.pair_sum)
    roots = [fld.pow(fld.mul(b ^ gamma, inv_sum), recover) for gamma in state.circle_roots]
    return _verified(params, b, roots, 2)


# ---------------------------------------------------------------------------
# Closed-form spectrum and the three-way verifier
# ---------------------------------------------------------------------------

def spectrum_closed_form(params: TheoremParams) -> Spectrum:
    """The four-bucket spectrum, straight from n.

    Buckets: omega_0 = (2^(3n-1) - 1)(2^n + 1), omega_2 = 2^(4n-1) -
    2^(3n-1), omega at 2^(2n) - 2^n equal to 2^n, and a single b at
    2^(2n).  At n = 1 the second and third buckets both sit at
    multiplicity 2 and are merged by summing, which the brute-force
    histogram confirms.
    """
    n = params.n
    buckets = [
        (0, ((1 << (3 * n - 1)) - 1) * ((1 << n) + 1)),
        (2, (1 << (4 * n - 1)) - (1 << (3 * n - 1))),
        ((1 << 2 * n) - (1 << n), 1 << n),
        (1 << 2 * n, 1),
    ]
    entries: dict[int, int] = {}
    for i, c in buckets:
        entries[i] = entries.get(i, 0) + c
    return Spectrum(
        m=params.m,
        d=params.d,
        poly=params.field.modulus,
        entries=dict(sorted(entries.items())),
    )


# How many per-b disagreements a report lists; it counts all of them.
MISMATCH_SAMPLE = 32


@dataclass
class VerificationReport:
    """Outcome of the three-way cross-check for one instance."""

    params: TheoremParams
    closed_form: Spectrum
    brute: Spectrum
    structured: Spectrum
    mismatch_count: int   # how many b the structured and brute counts disagree on
    # The first MISMATCH_SAMPLE of them by b: (b, structured count, brute count).
    mismatches: list[tuple[int, int, int]]
    one_b_full: bool      # exactly one b with count 2^(2n), namely b = 1
    circle_values: bool   # exactly the unit circle minus 1 at 2^(2n) - 2^n
    rest_at_most_2: bool  # every remaining b has count <= 2
    # Kept out of the payload: how many b reached each dispatch branch, and
    # the seconds each phase of the check took.
    branches: dict[str, int]
    timings: dict[str, float]

    @property
    def passed(self) -> bool:
        return (
            self.mismatch_count == 0
            and self.closed_form.entries == self.brute.entries
            and self.structured.entries == self.brute.entries
            and self.one_b_full
            and self.circle_values
            and self.rest_at_most_2
            and self.branches == family_branches(self.params.n)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "d": self.params.d,
            "poly": f"0x{self.params.field.modulus:x}",
            "pass": self.passed,
            "closed_form": {str(i): c for i, c in sorted(self.closed_form.entries.items())},
            "brute": {str(i): c for i, c in sorted(self.brute.entries.items())},
            "mismatch_count": self.mismatch_count,
            "mismatches": [
                {"b": f"0x{b:x}", "structured": s, "brute": c}
                for b, s, c in self.mismatches
            ],
            "conjecture": {
                "one_b_q2": self.one_b_full,
                "qn_values": self.circle_values,
                "rest_le_2": self.rest_at_most_2,
            },
        }


def verify_conjecture(params: TheoremParams) -> VerificationReport:
    """Check the full claim for one instance, never dropping a disagreement.

    Computes the brute-force histogram, the closed form, and the
    structured count for every b; counts every per-b disagreement and
    lists the first ``MISMATCH_SAMPLE`` by b; and evaluates the three
    clauses of the claimed count distribution (one b with 2^(2n)
    solutions and it is b = 1; the 2^n unit-circle values minus 1 at
    2^(2n) - 2^n, degenerating into the count-2 bucket at n = 1; at most
    2 everywhere else).  The clauses read the index arrays of the b at
    2^(2n), at 2^(2n) - 2^n and above 2, each of at most q + 1 entries
    (at n = 1, the merged count-2 bucket's expected total) when the claim
    holds; no field-sized mask is built.  It also tallies the dispatch
    branch of every b, which must equal ``family_branches(n)``, and times
    each phase (tables, brute, closed_form, structured, compare).
    """
    n, q = params.n, params.q
    f = params.power_function()
    timings: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str):
        nonlocal mark
        now = time.perf_counter()
        timings[phase] = now - mark
        mark = now

    params.field.log_tables()
    lap("tables")
    per_b = solution_counts(f)
    brute = spectrum_from_counts(per_b, f)
    lap("brute")
    closed = spectrum_closed_form(params)
    lap("closed_form")

    counts, branches = structured_counts(params)
    structured = spectrum_from_counts(counts, f)
    lap("structured")
    # One transient bool per b for the count; the sample scans chunk by
    # chunk and keeps only the offsets it lists, no index of every mismatch.
    mismatch_count = int(np.count_nonzero(counts != per_b))
    mismatches: list[tuple[int, int, int]] = []
    start = 0
    while len(mismatches) < min(mismatch_count, MISMATCH_SAMPLE):
        stop = start + BULK_CHUNK
        need = MISMATCH_SAMPLE - len(mismatches)
        offsets = np.flatnonzero(counts[start:stop] != per_b[start:stop])[:need].tolist()
        mismatches += [(start + i, int(counts[start + i]), int(per_b[start + i]))
                       for i in offsets]
        start = stop

    # Each clause reads the b whose count is exceptional; an index array
    # longer than the clause allows fails it before any .tolist().
    circle = unit_circle(params) - {1}
    full_at = np.flatnonzero(per_b == q * q)
    one_b_full = full_at.size == 1 and full_at.tolist() == [1]
    # q^2 - q = 2 collides with the generic two-solution bucket at n = 1.
    mid_total = len(circle) + ((q ** 4 - q ** 3) // 2 if n == 1 else 0)
    mid_at = np.flatnonzero(per_b == q * q - q)
    circle_values = mid_at.size == mid_total and circle <= set(mid_at.tolist())
    high_at = np.flatnonzero(per_b > 2)
    remaining_ok = high_at.size <= q + 1 and set(high_at.tolist()) <= circle | {1}
    lap("compare")

    return VerificationReport(
        params=params,
        closed_form=closed,
        brute=brute,
        structured=structured,
        mismatch_count=mismatch_count,
        mismatches=mismatches,
        one_b_full=one_b_full,
        circle_values=circle_values,
        rest_at_most_2=remaining_ok,
        branches=branches,
        timings=timings,
    )
