"""Acceptance suite: every criterion as one test, at its stated tolerance.

All comparisons are exact (zero tolerance); the handful of runtime
budgets are asserted with time.monotonic around just the computation
they bound.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
one PASS line per criterion.
"""

import random
import time

import numpy as np

from diffspec.gf2m import GF2m
from diffspec.powerfn import (
    PowerFunction,
    derivative_table,
    solution_set,
    spectrum_brute,
)
from diffspec.theorem import (
    case_trace,
    congruence_holds,
    family_exponent,
    is_family_permutation,
    is_niho_exponent,
    solutions_off_subfield,
    solutions_on_circle,
    spectrum_closed_form,
    unit_circle,
    verify_conjecture,
)

EXPECTED = {
    1: {0: 9, 2: 6, 4: 1},
    2: {0: 155, 2: 96, 12: 4, 16: 1},
    3: {0: 2295, 2: 1792, 56: 8, 64: 1},
    4: {0: 34799, 2: 30720, 240: 16, 256: 1},
}

collected_spectra = []


def _report(k, text):
    print(f"\nACCEPTANCE {k:02d} PASS — {text}")


def test_criterion_01_theorem_reproduction_n2(make_params):
    p = make_params(2)
    start = time.monotonic()
    spectrum = spectrum_brute(p.power_function())
    elapsed = time.monotonic() - start
    assert spectrum.entries == EXPECTED[2]
    assert elapsed < 0.1
    collected_spectra.append(spectrum)
    _report(1, f"n=2 brute spectrum exact in {elapsed * 1000:.1f} ms")


def test_criterion_02_theorem_reproduction_n3(make_params):
    p = make_params(3)
    start = time.monotonic()
    spectrum = spectrum_brute(p.power_function())
    elapsed = time.monotonic() - start
    assert spectrum.entries == EXPECTED[3]
    assert elapsed < 1.0
    collected_spectra.append(spectrum)
    _report(2, f"n=3 brute spectrum exact in {elapsed * 1000:.1f} ms")


def test_criterion_03_theorem_reproduction_n4(make_params):
    p = make_params(4)
    start = time.monotonic()
    spectrum = spectrum_brute(p.power_function())
    elapsed = time.monotonic() - start
    assert spectrum.entries == EXPECTED[4]
    assert spectrum.entries[240] == 16 and spectrum.entries[256] == 1
    assert spectrum.entries == spectrum_closed_form(p).entries
    assert elapsed < 30.0
    collected_spectra.append(spectrum)
    _report(3, f"n=4 brute spectrum exact in {elapsed:.2f} s (histogram method)")


def test_criterion_04_degenerate_n1(make_params):
    p = make_params(1)
    spectrum = spectrum_brute(p.power_function())
    assert spectrum.entries == EXPECTED[1]
    assert spectrum.entries == spectrum_closed_form(p).entries
    collected_spectra.append(spectrum)
    _report(4, "n=1 bucket-merged spectrum {0: 9, 2: 6, 4: 1} exact")


def test_criterion_05_conjecture_clauses(make_params):
    for n in (1, 2, 3):
        p = make_params(n)
        q = p.q
        per_b = np.bincount(derivative_table(p.power_function()),
                            minlength=p.field.order)
        full_hits = [b for b in range(p.field.order) if per_b[b] == q * q]
        assert full_hits == [1]
        circle = unit_circle(p) - {1}
        mid_hits = {b for b in range(p.field.order) if per_b[b] == q * q - q}
        if n == 1:
            assert circle <= mid_hits
            assert len(mid_hits) == len(circle) + (q ** 4 - q ** 3) // 2
        else:
            assert mid_hits == circle
            assert len(mid_hits) == q
        assert all(
            per_b[b] <= 2 for b in range(p.field.order)
            if b != 1 and b not in circle
        )
    _report(5, "all three count clauses hold exhaustively for n = 1, 2, 3")


def test_criterion_06_oracle_equivalence(make_params):
    start = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        p = make_params(n)
        per_b = np.bincount(derivative_table(p.power_function()),
                            minlength=p.field.order)
        for b in range(p.field.order):
            assert case_trace(p, b).count == int(per_b[b])
        checked += p.field.order
    elapsed = time.monotonic() - start
    assert checked == 16 + 256 + 4096
    assert elapsed < 10.0
    _report(6, f"structured == brute on all {checked} b values in {elapsed:.2f} s")


def test_criterion_07_explicit_solution_completeness(make_params):
    compared = 0
    for n in (1, 2):
        p = make_params(n)
        f = p.power_function()
        sub = set(p.field.subfield_elements(2 * n))
        for b in sorted(unit_circle(p) - {1}):
            assert solutions_on_circle(p, b) == solution_set(f, b)
            compared += 1
        for b in range(p.field.order):
            if b not in sub:
                assert solutions_off_subfield(p, b) == solution_set(f, b)
                compared += 1
    p = make_params(3)
    f = p.power_function()
    sub = set(p.field.subfield_elements(6))
    for b in sorted(unit_circle(p) - {1}):
        assert solutions_on_circle(p, b) == solution_set(f, b)
        compared += 1
    rng = random.Random(2026)
    per_b = np.bincount(derivative_table(f), minlength=p.field.order)
    off = [b for b in range(p.field.order) if b not in sub]
    hit = [b for b in off if per_b[b]]
    sample = rng.sample(hit, 120) + rng.sample(off, 120)
    for b in sample:
        assert solutions_off_subfield(p, b) == solution_set(f, b)
        compared += 1
    _report(7, f"constructed solution sets equal brute sets on {compared} b values")


def test_criterion_08_structural_assertions_never_fire(make_params):
    # Re-walk every branch that carries an internal claim: off-subfield
    # states (norm gate nonzero or provably empty; root dichotomy), and
    # the substitution checks inside both constructors.  Any violation
    # raises TheoremViolationError and fails this test.
    for n in (1, 2):
        p = make_params(n)
        sub = set(p.field.subfield_elements(2 * n))
        for b in range(2, p.field.order):
            if b in sub:
                continue
            state = case_trace(p, b).state
            assert len(state.circle_roots) in (0, 2)
            if not p.field.in_subfield(state.norm_term, 2 * n):
                raise AssertionError("norm term left the subfield")
            solutions_off_subfield(p, b)
        for b in sorted(unit_circle(p) - {1}):
            solutions_on_circle(p, b)
    _report(8, "norm gate, root dichotomy and substitution checks all silent")


def test_criterion_09_arithmetic_property_suite():
    f16 = GF2m(4)
    els = range(f16.order)
    for a in els:
        if a:
            assert f16.mul(a, f16.inv(a)) == 1
        for b in els:
            assert f16.mul(a, b) == f16.mul(b, a)
            for c in els:
                assert f16.mul(f16.mul(a, b), c) == f16.mul(a, f16.mul(b, c))
                assert f16.mul(a, b ^ c) == f16.mul(a, b) ^ f16.mul(a, c)
    for c in els:
        z = f16.artin_schreier_solver().solve(c)
        assert (z is None) == (f16.abs_trace(c) == 1)
        if z is not None:
            assert f16.mul(z, z) ^ z == c

    cases = 0
    for m in (8, 12, 16):
        fld = GF2m(m)
        rng = random.Random(m * 1000)
        for _ in range(10_000):
            a, b, c = (rng.randrange(fld.order) for _ in range(3))
            k = rng.randrange(m)
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
            assert fld.frobenius_pow(a ^ b, k) == (
                fld.frobenius_pow(a, k) ^ fld.frobenius_pow(b, k)
            )
            assert fld.frobenius_pow(fld.mul(a, b), k) == fld.mul(
                fld.frobenius_pow(a, k), fld.frobenius_pow(b, k)
            )
            assert fld.abs_trace(a ^ b) == fld.abs_trace(a) ^ fld.abs_trace(b)
            z = fld.artin_schreier_solver().solve(c)
            assert (z is None) == (fld.abs_trace(c) == 1)
            if z is not None:
                assert fld.mul(z, z) ^ z == c
            cases += 1
    assert cases == 30_000
    _report(9, "field laws exhaustive at m=4; 10^4 random cases at m=8,12,16")


def test_criterion_10_modulus_independence():
    a = spectrum_brute(PowerFunction(GF2m(8, 0x11B), 83))
    b = spectrum_brute(PowerFunction(GF2m(8, 0x11D), 83))
    assert a.entries == b.entries == EXPECTED[2]
    collected_spectra.extend([a, b])
    _report(10, "n=2 spectra identical under moduli 0x11b and 0x11d")


def test_criterion_11_sum_identities_for_every_spectrum(make_params):
    # sum_i omega_i = sum_i i * omega_i = 2^m for any power function:
    # Blondeau, Canteaut and Charpin, "Differential properties of power
    # functions" (2010).
    for n in (1, 2, 3):
        p = make_params(n)
        collected_spectra.append(spectrum_closed_form(p))
        report = verify_conjecture(p)
        assert report.passed
        collected_spectra.extend([report.brute, report.structured, report.closed_form])
    for n in (4, 5, 6):
        collected_spectra.append(spectrum_closed_form(make_params(n)))
    assert len(collected_spectra) >= 15
    for s in collected_spectra:
        assert sum(s.entries.values()) == 1 << s.m
        assert sum(i * c for i, c in s.entries.items()) == 1 << s.m
    _report(11, f"both sum identities exact on {len(collected_spectra)} spectra")


def test_criterion_12_exponent_family_predicates():
    for n in range(1, 9):
        d = family_exponent(n)
        q = 1 << n
        assert is_family_permutation(n), n
        assert congruence_holds(n), n
        assert is_niho_exponent(n), n
        assert d % (q * q - 1) == (1 if n == 1 else 2 * q)
    _report(12, "gcd, congruence and Niho predicates hold for n = 1..8")
