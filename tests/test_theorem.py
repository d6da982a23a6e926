import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffspec.theorem as theorem
from diffspec import cli
from diffspec.errors import GuardExceededError, TheoremViolationError
from diffspec.gf2m import GF2m, is_irreducible
from diffspec.powerfn import (
    PowerFunction,
    delta,
    derivative_table,
    solution_counts,
    solution_set,
    spectrum_brute,
    spectrum_from_counts,
)
from diffspec.theorem import (
    TheoremParams,
    case_trace,
    circle_witnesses,
    congruence_holds,
    family_branches,
    family_exponent,
    find_circle_scale,
    is_family_permutation,
    is_niho_exponent,
    solutions_for_one,
    solutions_off_subfield,
    solutions_on_circle,
    spectrum_closed_form,
    structured_counts,
    unit_circle,
    verify_conjecture,
)


def brute_counts(params):
    f = params.power_function()
    return np.bincount(derivative_table(f), minlength=params.field.order)


# -- instance parameters ---------------------------------------------------------

def test_family_exponents():
    assert family_exponent(1) == 13
    assert family_exponent(2) == 83
    assert family_exponent(3) == 583


def test_params_construction(make_params):
    for n in (1, 2, 3):
        p = make_params(n)
        assert p.q == 1 << n
        assert p.m == 4 * n
        assert p.d == family_exponent(n)
        assert p.field.degree == 4 * n
        assert congruence_holds(p.n) and is_niho_exponent(p.n)


def test_params_validation():
    with pytest.raises(ValueError):
        TheoremParams(0)
    with pytest.raises(GuardExceededError):
        TheoremParams(7)


def test_params_modulus_override():
    p = TheoremParams(2, 0x11D)
    assert p.field.modulus == 0x11D


def test_integer_predicates_up_to_n8():
    for n in range(1, 9):
        assert congruence_holds(n)
        assert is_niho_exponent(n)
        assert is_family_permutation(n)


def test_integer_predicates_can_fail(monkeypatch):
    # With d = 3 in place of the family exponent both predicates must turn
    # false: 3 divides every q^4 - 1, and 3(q+1) - 2q^2(q+1) does not vanish
    # mod q^4 - 1 from n = 2 on.
    monkeypatch.setattr(theorem, "family_exponent", lambda n: 3)
    for n in (2, 3, 4):
        assert not congruence_holds(n)
        assert not is_family_permutation(n)


def test_congruence_worked_examples():
    # n=1: 13*3 - 2*4*3 = 15, divisible by 15; n=2: 83*5 - 2*16*5 = 255
    assert (13 * 3 - 2 * 4 * 3) % 15 == 0
    assert (83 * 5 - 2 * 16 * 5) % 255 == 0


def test_niho_remainders():
    assert family_exponent(1) % 3 == 1          # 2^0
    assert family_exponent(2) % 15 == 8         # 2q at n=2
    assert family_exponent(3) % 63 == 16        # 2q at n=3


def test_unit_circle(make_params):
    for n in (1, 2, 3):
        p = make_params(n)
        circle = unit_circle(p)
        assert len(circle) == p.q + 1
        assert 1 in circle
        for b in circle:
            assert p.field.pow(b, p.q + 1) == 1


def scanned_unit_circle(params):
    """mu_(q+1) by scanning GF(q^2): every x != 0 with x^(q+1) = 1."""
    fld, q = params.field, params.q
    return {x for x in fld.subfield_elements(2 * params.n) if x != 0 and fld.pow(x, q + 1) == 1}


@pytest.mark.parametrize("n,modulus", [
    (1, None), (2, None), (3, None), (4, None), (5, None), (6, None),
    (2, 0x11D), (2, 0x1F5), (3, 0x1053), (3, 0x1F1B),
])
def test_unit_circle_equals_the_subfield_scan(make_params, n, modulus):
    p = make_params(n, modulus)
    assert modulus is None or p.field.modulus == modulus
    assert unit_circle(p) == scanned_unit_circle(p)


def test_unit_circle_from_a_non_primitive_element_raises(monkeypatch, make_params):
    # g^(q+1) has order (q^4 - 1)/(q + 1): its power of exponent
    # (q^4 - 1)/(q + 1) is 1, so the q + 1 powers collapse to {1}.
    p = make_params(2)
    g = p.field.primitive_element()
    monkeypatch.setattr(GF2m, "primitive_element", lambda self: p.field.pow(g, p.q + 1))
    with pytest.raises(TheoremViolationError, match=r"^the powers of g\^\(\(2\^8 - 1\)/5\) are not mu_5$"):
        unit_circle(p)


# -- structured counting ----------------------------------------------------------

def test_delta_structured_fixed_points(make_params):
    for n in (1, 2, 3):
        p = make_params(n)
        assert case_trace(p, 0).count == 0
        assert case_trace(p, 1).count == p.q * p.q


def test_delta_structured_matches_brute_exhaustively(make_params):
    for n in (1, 2):
        p = make_params(n)
        per_b = brute_counts(p)
        for b in range(p.field.order):
            assert case_trace(p, b).count == int(per_b[b])


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_case_trace_count_matches_delta_property(make_params, n, data):
    p = make_params(n)
    b = data.draw(st.integers(0, p.field.order - 1), label="b")
    assert case_trace(p, b).count == delta(p.power_function(), 1, b)


@pytest.mark.parametrize("n,modulus", [(1, None), (2, None), (3, None), (2, 0x11D)])
def test_structured_counts_is_case_trace_for_every_b(make_params, n, modulus):
    p = make_params(n, modulus)
    counts, branches = structured_counts(p)
    assert counts.dtype == np.uint16
    assert counts.tolist() == [case_trace(p, b).count for b in range(p.field.order)]
    assert branches == family_branches(n)


def test_structured_counts_memory_bound(make_params, monkeypatch, peak_traced_bytes):
    # The uint16 counts (128 KiB at n = 4) are the only field-sized buffer;
    # no per-b Python list or int64 array is built on the way.
    p = make_params(4)
    fixed = theorem.CaseTrace(2, "subfield", 0)
    monkeypatch.setattr(theorem, "case_trace", lambda params, b: fixed)
    assert peak_traced_bytes(lambda: structured_counts(p)) <= 256 * 2**10


def test_verify_calls_case_trace_once_per_b(make_params, case_trace_calls):
    p = make_params(2)
    assert verify_conjecture(p).passed
    assert sorted(case_trace_calls) == list(range(p.field.order))


def test_verify_takes_c_once_per_b_outside_0_1(make_params, monkeypatch):
    # C = b^-1 + b^(-q^2) decides the subfield branch, so in its one
    # case_trace call every b but 0 and 1 first takes the two inverses of C.
    p = make_params(2)
    fld = p.field
    taken = []   # (b, the argument of each inverse taken since its case_trace began)
    real_trace, real_inv = theorem.case_trace, GF2m._inv

    def traced(params, b):
        taken.append((b, []))
        return real_trace(params, b)

    def recorded(self, a):
        if taken:
            taken[-1][1].append(a)
        return real_inv(self, a)

    monkeypatch.setattr(theorem, "case_trace", traced)
    monkeypatch.setattr(GF2m, "_inv", recorded)
    assert verify_conjecture(p).passed
    assert [b for b, _ in taken] == list(range(fld.order))
    assert taken[0][1] == taken[1][1] == []
    for b, args in taken[2:]:
        assert args[:2] == [b, fld.frobenius_pow(b, 2 * p.n)], b


@pytest.mark.parametrize("n", [2, 3])
def test_case_trace_checks_b_once_plus_two_per_solve_quadratic(make_params, check_calls,
                                                               monkeypatch, n):
    # b is checked at the entry and the dispatch runs on the unchecked
    # kernels; only the public solver checks its two arguments again.
    p = make_params(n)
    solves = []
    real = GF2m.solve_quadratic

    def counted(self, beta, gamma):
        solves.append(beta)
        return real(self, beta, gamma)

    monkeypatch.setattr(GF2m, "solve_quadratic", counted)
    for b in range(p.field.order):
        case_trace(p, b)
    assert len(check_calls) == p.field.order + 2 * len(solves)
    assert len(check_calls) <= 3 * p.field.order


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_case_trace_is_frobenius_equivariant_property(make_params, n, data):
    # D(x^2) = D(x)^2, so b and b^2 share count and branch, and every audit
    # quantity of b^2 is the square of that of b.
    p = make_params(n)
    fld = p.field
    b = data.draw(st.integers(0, fld.order - 1), label="b")
    b2 = fld.mul(b, b)
    t, t2 = case_trace(p, b), case_trace(p, b2)
    assert (t.count, t.branch) == (t2.count, t2.branch)
    if t.state is None:
        assert t2.state is None
        return

    def square(v):
        return None if v is None else fld.mul(v, v)

    for name in ("norm_term", "cross_term", "inv_gap", "pair_sum", "pair_product"):
        assert square(getattr(t.state, name)) == getattr(t2.state, name), name
    assert sorted(map(square, t.state.circle_roots)) == sorted(t2.state.circle_roots)


def test_case_labels(make_params):
    p = make_params(2)
    assert case_trace(p, 0).case == "b=0"
    assert case_trace(p, 1).case == "b=1"
    sub = set(p.field.subfield_elements(4))
    for b in sorted(unit_circle(p) - {1}):
        t = case_trace(p, b)
        assert t.case == "unit-circle" and t.count == p.q * p.q - p.q
    plain = next(b for b in sorted(sub) if b > 1 and b not in unit_circle(p))
    assert case_trace(p, plain).case == "subfield"
    assert case_trace(p, plain).count == 0
    off = next(b for b in range(p.field.order) if b not in sub)
    t = case_trace(p, off)
    assert t.case == "quadratic" and t.count in (0, 2) and t.state is not None


def test_norm_gate_branch(make_params):
    """b off the subfield with norm 1 into GF(q^2): provably no solutions."""
    for n in (1, 2):
        p = make_params(n)
        fld = p.field
        per_b = brute_counts(p)
        gate_bs = [
            b for b in range(fld.order)
            if b and not fld.in_subfield(b, 2 * n) and fld.pow(b, p.q ** 2 + 1) == 1
        ]
        assert len(gate_bs) == p.q ** 2   # the order-(q^2+1) circle minus 1
        for b in gate_bs:
            t = case_trace(p, b)
            assert t.state.norm_term == 0
            assert t.state.circle_roots == ()
            assert t.count == 0 == int(per_b[b])


def test_zero_trace_branch(make_params):
    """b off the subfield whose trace to GF(q) vanishes: no solutions."""
    for n in (1, 2):
        p = make_params(n)
        fld = p.field
        per_b = brute_counts(p)
        hit = 0
        for b in range(fld.order):
            if b < 2 or fld.in_subfield(b, 2 * n):
                continue
            if fld.rel_trace(b, n) == 0 and fld.pow(b, p.q ** 2 + 1) != 1:
                t = case_trace(p, b)
                assert t.state.pair_sum == 0
                assert t.count == 0 == int(per_b[b])
                hit += 1
        assert hit > 0


def test_case_trace_validation(make_params):
    # b is checked once, at the entry; b = 0 and 1 carry no pair state.
    p = make_params(2)
    for bad in (-1, p.field.order, True):
        with pytest.raises(ValueError):
            case_trace(p, bad)
    assert case_trace(p, 0).state is None
    assert case_trace(p, 1).state is None


def test_circle_pair_state_properties(make_params):
    p = make_params(2)
    fld = p.field
    sub = set(fld.subfield_elements(4))
    for b in sorted(sub):
        assert case_trace(p, b).state is None
    for b in range(fld.order):
        if b in sub:
            continue
        state = case_trace(p, b).state
        assert state.inv_gap != 0
        assert fld.in_subfield(state.norm_term, 4)
        assert fld.in_subfield(state.cross_term, 4)
        assert len(state.circle_roots) in (0, 2)
        if state.circle_roots:
            g1, g2 = state.circle_roots
            assert state.pair_sum == g1 ^ g2 != 0
            assert fld.mul(g1, g2) == state.pair_product
            assert fld.in_mu(state.pair_product, p.q + 1)


# -- explicit solution sets --------------------------------------------------------

def test_solutions_for_one(make_params):
    for n in (1, 2):
        p = make_params(n)
        sols = solutions_for_one(p)
        assert sols == set(p.field.subfield_elements(2 * n))
        assert len(sols) == p.q * p.q
        assert {0, 1} <= sols
        # complement check: nothing outside the subfield solves b = 1
        assert sols == solution_set(p.power_function(), 1)


def test_solutions_on_circle_match_brute(make_params):
    for n in (1, 2):
        p = make_params(n)
        f = p.power_function()
        sub = set(p.field.subfield_elements(2 * n))
        for b in sorted(unit_circle(p) - {1}):
            got = solutions_on_circle(p, b)
            assert got == solution_set(f, b)
            assert len(got) == p.q * p.q - p.q
            assert not got & sub


def test_circle_witness_count(make_params):
    p = make_params(2)
    for b in sorted(unit_circle(p) - {1}):
        wits = circle_witnesses(p, b)
        assert len(wits) == (p.q - 1) * p.q // 2
        for w in wits:
            assert len(w.roots) == 2
            assert p.field.in_subfield(w.trace_coord, p.n)
            assert p.field.in_subfield(w.norm_coord, p.n) and w.norm_coord != 0


def test_exactly_one_trace_coord_excluded(make_params):
    p = make_params(2)
    fld = p.field
    b = sorted(unit_circle(p) - {1})[0]
    scale = find_circle_scale(p, b)
    used = {w.trace_coord for w in circle_witnesses(p, b, scale)}
    norm = fld.mul(scale, fld.frobenius_pow(scale, p.n))
    excluded = fld.sqrt(fld.inv(norm))
    assert excluded not in used
    assert used == set(fld.subfield_elements(p.n)) - {excluded}


def test_circle_solutions_independent_of_scale(make_params):
    p = make_params(2)
    fld = p.field
    b = sorted(unit_circle(p) - {1})[0]
    scales = [
        u for u in fld.subfield_elements(4)
        if u and fld.pow(u, p.q - 1) == b
    ]
    assert len(scales) == p.q - 1
    results = {frozenset(solutions_on_circle(p, b, s)) for s in scales[:2]}
    assert len(results) == 1


def test_solutions_on_circle_validation(make_params):
    p = make_params(2)
    with pytest.raises(ValueError):
        solutions_on_circle(p, 1)
    off_circle = next(
        b for b in range(2, p.field.order) if not p.field.in_mu(b, p.q + 1)
    )
    with pytest.raises(ValueError):
        solutions_on_circle(p, off_circle)


def test_solutions_off_subfield_match_brute(make_params):
    for n in (1, 2):
        p = make_params(n)
        f = p.power_function()
        sub = set(p.field.subfield_elements(2 * n))
        nonzero = 0
        for b in range(p.field.order):
            if b in sub:
                continue
            got = solutions_off_subfield(p, b)
            assert got == solution_set(f, b)
            if got:
                nonzero += 1
                x1, x2 = sorted(got)
                assert x1 ^ x2 == 1
        assert nonzero == (p.q ** 4 - p.q ** 3) // 2


def test_solutions_off_subfield_validation(make_params):
    p = make_params(2)
    with pytest.raises(ValueError):
        solutions_off_subfield(p, 1)


def test_solutions_off_subfield_rejects_the_subfield_by_its_pair_state(make_params, monkeypatch,
                                                                       case_trace_calls):
    # C = 0 in case_trace is the one subfield decision: one case_trace call
    # per b, and no in_subfield call anywhere.
    p = make_params(2)
    subfield = p.field.subfield_elements(4)
    in_subfield_calls = []
    real_in_subfield = GF2m.in_subfield

    def counted_in_subfield(self, a, sub_degree):
        in_subfield_calls.append(a)
        return real_in_subfield(self, a, sub_degree)

    monkeypatch.setattr(GF2m, "in_subfield", counted_in_subfield)
    assert len(subfield) == p.q ** 2
    for b in subfield:
        case_trace_calls.clear()
        with pytest.raises(ValueError, match="lies in the quadratic subfield"):
            solutions_off_subfield(p, b)
        assert case_trace_calls == [b]
    assert in_subfield_calls == []


def test_recovery_exponent_closed_form():
    # the inverse of 2q^2 = 2^(2n+1) mod 2^(4n)-1 is the power 2^(2n-1)
    for n in range(1, 7):
        m = 4 * n
        assert pow(2 ** (2 * n + 1), -1, (1 << m) - 1) == 1 << (2 * n - 1)


# -- closed form and verifier -------------------------------------------------------

def test_spectrum_closed_form_frozen(make_params):
    assert spectrum_closed_form(make_params(1)).entries == {0: 9, 2: 6, 4: 1}
    assert spectrum_closed_form(make_params(2)).entries == {0: 155, 2: 96, 12: 4, 16: 1}
    assert spectrum_closed_form(make_params(3)).entries == {0: 2295, 2: 1792, 56: 8, 64: 1}


def test_spectrum_closed_form_sum_identities(make_params):
    for n in range(1, 7):
        s = spectrum_closed_form(make_params(n))
        assert sum(s.entries.values()) == 1 << (4 * n)
        assert sum(i * c for i, c in s.entries.items()) == 1 << (4 * n)
        assert sum(family_branches(n).values()) == 1 << (4 * n)


def test_closed_forms_as_polynomials_in_q(make_params):
    """The paper's four buckets restated as polynomials in q = 2^n.

    ``family_branches(n)`` grouped by each branch's count, and
    ``spectrum_closed_form`` at n = 2..6, equal those polynomials at five
    values of q; both are polynomials of degree <= 4 in q, so the five
    values fix them.  The bucket sums and the branch sizes interpolated
    from those values are then checked as identities in q.  This is
    evidence that the closed forms hold at every n, not only at n <= 6.
    It proves nothing about the counts, which only the brute and
    structured routes establish, instance by instance.
    """
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    buckets = [                       # (multiplicity, number of b)
        (0, (q**3 / 2 - 1) * (q + 1)),
        (2, (q**4 - q**3) / 2),
        (q**2 - q, q),
        (q**2, 1),
    ]
    branch_count = {
        "b0": 0, "b1": q**2, "unit_circle": q**2 - q, "subfield": 0, "quadratic2": 2,
        "quadratic0.norm_gate": 0, "quadratic0.zero_trace": 0, "quadratic0.off_circle": 0,
    }
    assert sympy.expand(sum(c for _, c in buckets) - q**4) == 0
    assert sympy.expand(sum(i * c for i, c in buckets) - q**4) == 0

    def at(expr, n):
        return int(sympy.sympify(expr).subs(q, 1 << n))

    ns = range(2, 7)
    for n in ns:
        expected = {at(i, n): at(c, n) for i, c in buckets}
        grouped: dict[int, int] = {}
        for branch, size in family_branches(n).items():
            count = at(branch_count[branch], n)
            grouped[count] = grouped.get(count, 0) + size
        assert grouped == expected, n
        assert spectrum_closed_form(make_params(n)).entries == expected, n

    sizes = [
        sympy.interpolate([(1 << n, family_branches(n)[branch]) for n in ns], q)
        for branch in branch_count
    ]
    assert sympy.expand(sum(sizes) - q**4) == 0


def test_spectrum_closed_form_matches_brute(make_params):
    for n in (1, 2, 3):
        p = make_params(n)
        assert spectrum_closed_form(p).entries == spectrum_brute(p.power_function()).entries


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inverse_exponent_moves_counts_between_b(make_params, n):
    """delta_(d^-1)(1, b) = delta_d(b, 1) = delta_d(1, b^(-d)) for b != 0.

    x^d permutes GF(2^(4n)), so the counts of d' = d^-1 mod 2^m - 1 are the
    counts of d read at b^(-d) = exp[-d log b]: a per-b identity between
    sweeps of two unrelated exponents, and with it the invariance of the
    spectrum under inversion (Blondeau, Canteaut and Charpin, 2010).  d + 2
    in place of d on the right breaks it.
    """
    p = make_params(n)
    fld = p.field
    size = fld.order - 1
    exp, log = fld.log_tables()
    inverse = PowerFunction(fld, pow(p.d, -1, size))
    counts = solution_counts(inverse)

    def moved(d):
        at = log[1:].astype(np.int64) * (-d % size) % size   # log of b^(-d), b != 0
        return solution_counts(PowerFunction(fld, d))[exp[at]]

    assert np.array_equal(counts[1:], moved(p.d))
    assert not np.array_equal(counts[1:], moved(p.d + 2))
    assert spectrum_from_counts(counts, inverse).entries == spectrum_closed_form(p).entries


def test_verify_conjecture_passes(make_params):
    for n in (1, 2):
        report = verify_conjecture(make_params(n))
        assert report.passed
        assert report.mismatches == []
        assert report.one_b_full and report.circle_values and report.rest_at_most_2


def test_verify_conjecture_passes_on_every_degree_8_modulus():
    moduli = [v for v in range(0x101, 0x200, 2) if is_irreducible(v)]
    assert len(moduli) == 30
    for modulus in moduli:
        report = verify_conjecture(TheoremParams(2, modulus))
        assert report.passed, hex(modulus)


def test_verify_report_branches_and_timings(make_params):
    for n in (1, 2):
        report = verify_conjecture(make_params(n))
        assert report.branches == family_branches(n)
        assert set(report.timings) == {"tables", "brute", "closed_form", "structured", "compare"}
        assert all(t >= 0 for t in report.timings.values())
    # The branch clause is live: one b counted under a neighbouring branch
    # fails the report even though every count still agrees.
    moved = dict(report.branches)
    moved["quadratic2"] -= 1
    moved["quadratic0.off_circle"] += 1
    assert not dataclasses.replace(report, branches=moved).passed


def test_verify_report_json_schema(make_params):
    payload = verify_conjecture(make_params(2)).to_json_dict()
    assert set(payload) == {
        "n", "d", "poly", "pass", "closed_form", "brute", "mismatch_count", "mismatches",
        "conjecture",
    }
    assert payload["pass"] is True
    assert payload["poly"] == "0x11b"
    assert payload["closed_form"] == {"0": 155, "2": 96, "12": 4, "16": 1}
    assert payload["brute"] == payload["closed_form"]
    assert payload["mismatch_count"] == 0
    assert payload["mismatches"] == []
    assert set(payload["conjecture"]) == {"one_b_q2", "qn_values", "rest_le_2"}


def test_verify_counts_every_mismatch_and_lists_the_first_32(make_params, monkeypatch,
                                                             capsys):
    # All-zero structured counts disagree wherever the brute count is not 0:
    # 4096 - omega_0 = 4096 - 2295 = 1801 b at n = 3.
    p = make_params(3)
    zeros = np.zeros(p.field.order, dtype=np.uint16)
    monkeypatch.setattr(theorem, "structured_counts",
                        lambda params: (zeros, family_branches(3)))
    report = verify_conjecture(p)
    assert report.mismatch_count == 1801
    assert len(report.mismatches) == theorem.MISMATCH_SAMPLE == 32
    brute = solution_counts(p.power_function())
    first = np.flatnonzero(brute)[:32].tolist()
    assert report.mismatches == [(b, 0, int(brute[b])) for b in first]
    assert not report.passed
    payload = report.to_json_dict()
    assert payload["mismatch_count"] == 1801 and len(payload["mismatches"]) == 32
    assert cli.main(["verify", "--n", "3"]) == cli.EXIT_VERIFY_FAILED
    assert cli.main(["verify", "--n", "3", "--format", "csv"]) == cli.EXIT_VERIFY_FAILED
    assert cli.main(["verify", "--n", "3", "--format", "table"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "result,mismatches,1801\n" in out
    assert "mismatches: 1801" in out.splitlines()


def compare_phase_peak(params, counts, monkeypatch, peak_traced_bytes):
    """Verify ``params`` with ``counts`` standing in for the structured
    counts; return the report and the compare phase's traced peak over
    what it started with."""
    monkeypatch.setattr(theorem, "structured_counts",
                        lambda p: (counts, family_branches(params.n)))
    real = theorem.spectrum_from_counts
    held, reports = [], []

    def then_reset_peak(c, f):
        # The structured spectrum is the last work before the compare phase.
        spectrum = real(c, f)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return spectrum

    monkeypatch.setattr(theorem, "spectrum_from_counts", then_reset_peak)
    peak = peak_traced_bytes(lambda: reports.append(verify_conjecture(params)))
    return reports[0], peak - held[-1]


def test_verify_compare_phase_memory_bound(make_params, monkeypatch, peak_traced_bytes):
    # The count clauses read index arrays of at most q + 1 b, so the compare
    # phase's largest buffer is one transient bool per b (64 KiB at n = 4).
    p = make_params(4)
    brute = solution_counts(p.power_function())
    report, peak = compare_phase_peak(p, brute.copy(), monkeypatch, peak_traced_bytes)
    assert report.passed
    assert peak <= 128 * 2**10


def test_verify_counts_mismatches_without_indexing_them(make_params, monkeypatch,
                                                        peak_traced_bytes):
    # All-zero structured counts at n = 5 disagree on 2^20 - omega_0 = 507,937
    # b.  Their count and the first 32 take one transient bool per b (1 MiB)
    # and a chunked scan; an int64 index of all of them would add 3.9 MiB.
    p = make_params(5)
    brute = solution_counts(p.power_function())
    zeros = np.zeros(p.field.order, dtype=np.uint16)
    report, peak = compare_phase_peak(p, zeros, monkeypatch, peak_traced_bytes)
    assert report.mismatch_count == 507_937 == np.count_nonzero(brute)
    first = np.flatnonzero(brute)[:theorem.MISMATCH_SAMPLE].tolist()
    assert report.mismatches == [(b, 0, int(brute[b])) for b in first]
    assert not report.passed
    assert peak <= 1.25 * 2**20


def _plant(params, brute, fault):
    """A copy of the brute counts with one b moved by ``fault``."""
    circle = unit_circle(params) - {1}
    planted = brute.copy()
    if fault == "b1_to_0":
        planted[1] = 0
    elif fault == "circle_to_0":
        planted[min(circle)] = 0
    else:
        # 6 is above 2 and is neither q^2 nor q^2 - q for n = 1, 2, 3.
        b = next(b for b in range(2, params.field.order)
                 if brute[b] == 0 and b not in circle)
        planted[b] = 6
    return planted


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fault,clause", [
    ("b1_to_0", "one_b_full"),
    ("circle_to_0", "circle_values"),
    ("zero_to_6", "rest_at_most_2"),
])
def test_each_count_clause_is_live(make_params, monkeypatch, n, fault, clause):
    p = make_params(n)
    planted = _plant(p, solution_counts(p.power_function()), fault)
    monkeypatch.setattr(theorem, "solution_counts", lambda f: planted)
    report = verify_conjecture(p)
    clauses = ("one_b_full", "circle_values", "rest_at_most_2")
    assert {c: getattr(report, c) for c in clauses} == {c: c != clause for c in clauses}
    assert not report.passed


def test_instance_invariants_raise_theorem_channel(monkeypatch):
    monkeypatch.setattr(theorem, "congruence_holds", lambda n: False)
    with pytest.raises(TheoremViolationError):
        TheoremParams(1)


def test_unsplit_pair_quadratic_raises_theorem_channel(make_params, monkeypatch):
    p = make_params(2)
    b = next(
        b for b in range(2, p.field.order)
        if not p.field.in_subfield(b, 4) and case_trace(p, b).state.pair_sum
    )
    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: ())
    with pytest.raises(TheoremViolationError, match="does not split"):
        case_trace(p, b)


def test_derived_terms_outside_subfield_raise_theorem_channel(make_params, monkeypatch,
                                                              capsys):
    # A q^2-th power with bit 0 flipped: no element passes a^(q^2) = a.
    p = make_params(2)
    real = GF2m._frob
    monkeypatch.setattr(GF2m, "_frob",
                        lambda self, a, k: real(self, a, k) ^ 1 if k == 2 * p.n
                        else real(self, a, k))
    with pytest.raises(TheoremViolationError, match="derived terms left"):
        case_trace(p, 0x02)
    assert cli.main(["verify", "--n", "2"]) == cli.EXIT_THEOREM
    assert "derived terms left" in capsys.readouterr().err


def test_subfield_and_inv_gap_disagreeing_raise_theorem_channel(make_params, monkeypatch):
    # For b in GF(q^2), b^(q^2) = b, so any deterministic inverse gives
    # C = b^-1 + b^-1 = 0.  Only an inverse whose result depends on the call
    # (here bit 0 flipped on every other call) can break C = 0 there.
    p = make_params(2)
    real = GF2m._inv
    calls = []

    def alternating(self, a):
        calls.append(a)
        return real(self, a) ^ (len(calls) & 1)

    monkeypatch.setattr(GF2m, "_inv", alternating)
    subfield = sorted(set(p.field.subfield_elements(4)) - {0, 1})
    assert len(subfield) == 14
    for b in subfield:
        with pytest.raises(TheoremViolationError, match="C = 0 disagree"):
            case_trace(p, b)


def test_vanishing_norm_and_cross_terms_raise_theorem_channel(make_params, monkeypatch):
    # Every nonzero conjugate of b is 0x02 and every product 0, so N = 0 and
    # A = B = 0, while C = 0x03^-1 + 0x02^-1 stays nonzero.
    p = make_params(2)
    monkeypatch.setattr(GF2m, "_frob", lambda self, a, k: 0x02 if a else 0)
    monkeypatch.setattr(GF2m, "_mul", lambda self, a, b: 0)
    with pytest.raises(TheoremViolationError, match="norm and cross terms both vanished"):
        case_trace(p, 0x03)


def test_one_root_on_circle_raises_theorem_channel(make_params, monkeypatch):
    p = make_params(2)
    b = next(b for b in range(2, p.field.order) if case_trace(p, b).count == 2)
    real = GF2m.solve_quadratic
    monkeypatch.setattr(GF2m, "solve_quadratic",
                        lambda self, beta, gamma: (0,) + real(self, beta, gamma)[1:])
    with pytest.raises(TheoremViolationError, match="exactly one root"):
        case_trace(p, b)


# -- planted faults on the solution constructors ------------------------------------
# Each test builds its own n = 2 instance, so that no planted fault reaches a
# cache of the session-wide fields.

def first_circle_b(params):
    return sorted(unit_circle(params) - {1})[0]


def first_pair_b(params):
    return next(b for b in range(2, params.field.order) if case_trace(params, b).count == 2)


@pytest.mark.parametrize("construct", [
    lambda p: solutions_for_one(p),
    lambda p: solutions_on_circle(p, first_circle_b(p)),
    lambda p: solutions_off_subfield(p, first_pair_b(p)),
], ids=["for_one", "on_circle", "off_subfield"])
def test_failed_substitution_raises_theorem_channel(monkeypatch, construct):
    p = TheoremParams(2)
    real = TheoremParams.derivative_value
    monkeypatch.setattr(TheoremParams, "derivative_value", lambda self, x: real(self, x) ^ 1)
    with pytest.raises(TheoremViolationError, match=r"^constructed root 0x[0-9a-f]+ fails substitution"):
        construct(p)


def test_repeated_root_raises_theorem_channel(monkeypatch):
    # Every admissible pair solves to the first pair's roots.
    p = TheoremParams(2)
    b = first_circle_b(p)
    first = circle_witnesses(p, b)[0].roots
    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: first)
    with pytest.raises(TheoremViolationError, match=r"^10 constructed roots repeat \(b=0xc\)$"):
        solutions_on_circle(p, b)


def test_third_circle_root_raises_theorem_channel(monkeypatch):
    # The pair quadratic gains a third root on the unit circle, so b gets
    # three distinct solutions where the pair construction allows two.
    p = TheoremParams(2)
    b = first_pair_b(p)
    extra = min(unit_circle(p) - set(case_trace(p, b).state.circle_roots))
    real = GF2m.solve_quadratic
    monkeypatch.setattr(GF2m, "solve_quadratic",
                        lambda self, beta, gamma: real(self, beta, gamma) + (extra,))
    assert case_trace(p, b).count == 3
    with pytest.raises(TheoremViolationError,
                       match=rf"^constructed 3 solutions, expected 2 \(b=0x{b:x}\)$"):
        solutions_off_subfield(p, b)


def test_circle_root_inside_the_subfield_raises_theorem_channel(monkeypatch):
    p = TheoremParams(2)
    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: (0, 1))
    with pytest.raises(TheoremViolationError,
                       match=r"^constructed root 0x0 fell inside GF\(q\^2\) \(b=0xc\)$"):
        solutions_on_circle(p, first_circle_b(p))


def test_unsplit_witness_quadratic_raises_theorem_channel(monkeypatch):
    p = TheoremParams(2)
    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: ())
    with pytest.raises(TheoremViolationError,
                       match=r"^admissible pair produced 0 roots \(b=0xc\)$"):
        solutions_on_circle(p, first_circle_b(p))


@pytest.mark.parametrize("root,message", [
    # 0 is in GF(q): trace coordinate 0 is skipped in place of the excluded
    # one, which admits no norm coordinate, so a coordinate's q/2 go missing.
    (0, r"^expected 6 admissible pairs, found 4$"),
    # 0x02 generates GF(2^8), so it lies outside GF(q).
    (0x02, r"^excluded trace coordinate left GF\(q\)$"),
])
def test_wrong_square_root_raises_theorem_channel(monkeypatch, root, message):
    # Square roots are (m-1)-th Frobenius powers; only the excluded trace
    # coordinate takes one on this path.
    p = TheoremParams(2)
    b = first_circle_b(p)
    real = GF2m._frob
    monkeypatch.setattr(GF2m, "_frob",
                        lambda self, a, k: root if k == self.degree - 1 else real(self, a, k))
    with pytest.raises(TheoremViolationError, match=message):
        solutions_on_circle(p, b)


def test_circle_scale_under_another_modulus_raises_theorem_channel(monkeypatch):
    # Every product is taken modulo 0x11d while the field stays 0x11b; the
    # subfield list is built, and cached, before the fault.
    p = TheoremParams(2)
    b = first_circle_b(p)
    p.field.subfield_elements(4)
    wrong = GF2m(8, 0x11D)
    real = GF2m._mul
    monkeypatch.setattr(GF2m, "_mul", lambda self, x, y: real(wrong, x, y))
    with pytest.raises(TheoremViolationError,
                       match=r"^no \(q-1\)-th root of b=0xc in the quadratic subfield$"):
        find_circle_scale(p, b)


# -- planted faults on the structured path ---------------------------------------

def assert_fault_caught(params):
    """A planted fault must trip a claim, or fail the report with per-b
    mismatches or a failed count clause; it must never pass silently."""
    try:
        report = verify_conjecture(params)
    except TheoremViolationError:
        return
    assert not report.passed
    clauses = report.one_b_full and report.circle_values and report.rest_at_most_2
    assert report.mismatches or not clauses


@pytest.mark.parametrize("step", [-2, -1, 1, 2])
def test_planted_neighbouring_exponent_fails_verify(step):
    p = TheoremParams(2)
    p.d += step
    assert_fault_caught(p)


def test_planted_frobenius_fault_fails_verify(monkeypatch):
    p = TheoremParams(2)
    real = GF2m._frob
    # One squaring short.
    monkeypatch.setattr(GF2m, "_frob", lambda self, a, k: real(self, a, k - 1) if k else a)
    assert_fault_caught(p)


def test_planted_quadratic_fault_fails_verify(monkeypatch):
    p = TheoremParams(2)
    real = GF2m.solve_quadratic
    # The first root only.
    monkeypatch.setattr(GF2m, "solve_quadratic",
                        lambda self, beta, gamma: real(self, beta, gamma)[:1])
    assert_fault_caught(p)


@pytest.mark.parametrize("modulus", [0x11D, 0x12B])
def test_planted_modulus_swap_fails_verify(modulus):
    # The tables keep the 0x11b field; the scalar arithmetic moves to an
    # isomorphic one, so the spectra agree but the per-b counts do not.
    p = TheoremParams(2)
    p.field.log_tables()
    p.field.modulus = modulus
    assert_fault_caught(p)


def test_planted_inverse_in_another_field_fails_verify(monkeypatch):
    # Every inverse is taken modulo 0x11d while the field stays 0x11b.
    p = TheoremParams(2)
    wrong = GF2m(8, 0x11D)
    real = GF2m._inv
    monkeypatch.setattr(GF2m, "_inv", lambda self, a: real(wrong, a))
    assert_fault_caught(p)


def test_planted_inverse_with_its_low_bit_flipped_fails_verify(monkeypatch):
    p = TheoremParams(2)
    real = GF2m._inv
    monkeypatch.setattr(GF2m, "_inv", lambda self, a: real(self, a) ^ 1)
    assert_fault_caught(p)
