import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import diffspec.gf2m as gf2m
from diffspec.errors import GuardExceededError, TheoremViolationError
from diffspec.gf2m import (
    GF2m,
    find_factor,
    is_irreducible,
    poly_str,
    smallest_irreducible,
)


@pytest.fixture(scope="module")
def f16():
    return GF2m(4)


@pytest.fixture(scope="module")
def f256():
    return GF2m(8)


# -- construction and moduli --------------------------------------------------

def test_default_modulus_is_smallest_irreducible():
    assert GF2m(4).modulus == 0x13      # x^4 + x + 1
    assert GF2m(8).modulus == 0x11B     # x^8 + x^4 + x^3 + x + 1
    assert GF2m(12).modulus == 0x1009   # x^12 + x^3 + 1


def test_smallest_irreducible_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def oracle(m):
        for v in range((1 << m) | 1, 1 << (m + 1), 2):
            coeffs = [int(b) for b in bin(v)[2:]]
            if sympy.Poly(coeffs, x, domain=sympy.GF(2)).is_irreducible:
                return v

    for m in (4, 5, 8, 12):
        assert smallest_irreducible(m) == oracle(m)


def test_reducible_modulus_rejected_naming_factor():
    with pytest.raises(ValueError, match=r"x\^2 \+ x \+ 1"):
        GF2m(4, 0b10101)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_modulus_degree_must_match():
    with pytest.raises(ValueError, match="degree"):
        GF2m(4, 0x11B)


def test_degree_bounds():
    with pytest.raises(ValueError):
        GF2m(3)
    with pytest.raises(GuardExceededError):
        GF2m(25)


def test_irreducibility_helpers():
    assert is_irreducible(0x13)
    assert not is_irreducible(0b10101)
    assert find_factor(0b10101) == 0b111
    assert poly_str(0x13) == "x^4 + x + 1"


def test_polynomial_helpers_reject_negative_ints():
    # In a subprocess with a timeout: XOR with a shifted divisor never
    # lowers a negative int's bit length, so these once looped forever.
    src = str(Path(gf2m.__file__).resolve().parents[1])
    probe = (
        "from diffspec.gf2m import find_factor, is_irreducible, poly_mod\n"
        "for call, args in ((is_irreducible, (-19,)), (is_irreducible, (-1,)),\n"
        "                   (find_factor, (-19,)), (poly_mod, (-19, 3)), (poly_mod, (19, 0))):\n"
        "    try:\n"
        "        print(call(*args))\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out == "ValueError\n" * 5


def test_rabin_test_matches_trial_division():
    # Every packed polynomial of degree 1..12, x^m among them.
    for p in range(2, 1 << 13):
        assert is_irreducible(p) == (find_factor(p) is None), hex(p)
    assert is_irreducible(0b10) and is_irreducible(0b11)         # x and x + 1
    assert not any(is_irreducible(1 << m) for m in range(2, 25))   # x^m
    assert not is_irreducible(0) and not is_irreducible(1)


def test_smallest_irreducible_pinned():
    assert [smallest_irreducible(m) for m in range(4, 25)] == [
        0x13, 0x25, 0x43, 0x83, 0x11b, 0x203, 0x409, 0x805, 0x1009, 0x201b,
        0x4021, 0x8003, 0x1002b, 0x20009, 0x40009, 0x80027, 0x100009,
        0x200005, 0x400003, 0x800021, 0x100001b,
    ]


def clmul(a, b):
    """Carry-less product of two packed polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    return r


def poly_gcd(a, b):
    while b:
        a, b = b, gf2m.poly_mod(a, b)
    return a


@pytest.mark.parametrize("p,factors,clause", [
    (0x101e0af, (0x1009, 0x1017), 2),         # two degree-12 factors: x^(2^12) - x
    (0x12ccd39, (0x11b, 0x11d, 0x12b), 3),    # three degree-8 factors: x^(2^8) - x
], ids=["0x101e0af", "0x12ccd39"])
def test_each_gcd_clause_rejects_its_planted_product(p, factors, clause):
    # Each product divides x^(2^24) - x, since its factors' degrees divide
    # 24, so only the gcd clause for the prime `clause` can reject it.
    product = 1
    for f in factors:
        assert is_irreducible(f)
        product = clmul(product, f)
    assert product == p
    x_power = [2]                          # x^(2^k) mod p
    for _ in range(24):
        x_power.append(gf2m.poly_mod(clmul(x_power[-1], x_power[-1]), p))
    assert x_power[24] == 2
    assert [r for r in (2, 3) if poly_gcd(p, x_power[24 // r] ^ 2) != 1] == [clause]
    assert not is_irreducible(p)
    with pytest.raises(ValueError, match=rf"^modulus 0x{p:x} is reducible: factor .* \(0x{factors[0]:x}\)$"):
        GF2m(24, p)


def test_describe_format(f256):
    assert f256.describe() == "m=8 poly=0x11b"


# -- ring operations -----------------------------------------------------------

def test_mul_examples(f16):
    assert f16.mul(0b0010, 0b0010) == 0b0100       # x * x = x^2
    assert f16.mul(0b1000, 0b0010) == 0b0011       # x^3 * x = x + 1
    for a in range(f16.order):
        assert f16.mul(a, 1) == a


def test_ring_laws_exhaustive_m4(f16):
    els = range(f16.order)
    for a in els:
        for b in els:
            assert f16.mul(a, b) == f16.mul(b, a)
            for c in els:
                assert f16.mul(f16.mul(a, b), c) == f16.mul(a, f16.mul(b, c))
                assert f16.mul(a, b ^ c) == f16.mul(a, b) ^ f16.mul(a, c)


@pytest.mark.parametrize("m", [8, 12, 16])
def test_ring_laws_random(m):
    fld = GF2m(m)
    rng = random.Random(m)
    for _ in range(10_000):
        a, b, c = (rng.randrange(fld.order) for _ in range(3))
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)


def test_inverse_exhaustive_m4(f16):
    for a in range(1, f16.order):
        assert f16.mul(a, f16.inv(a)) == 1
        assert f16.pow(a, f16.order - 1) == 1
    assert f16.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f16.inv(0)
    # The kernel the dispatch calls directly refuses zero too, never loops.
    with pytest.raises(ZeroDivisionError):
        f16._inv(0)


DEGREE_8_MODULI = [v for v in range(0x101, 0x200, 2) if is_irreducible(v)]


@pytest.mark.parametrize("m,modulus", [(4, None), (12, None)] + [(8, v) for v in DEGREE_8_MODULI])
def test_inverse_is_the_group_power_exhaustive(m, modulus):
    # a^(2^m - 2) is the inverse by Lagrange; inv must agree on every a.
    fld = GF2m(m, modulus)
    for a in range(1, fld.order):
        assert fld.inv(a) == fld.pow(a, fld.order - 2)


def test_inverse_exhaustive_m16():
    fld = GF2m(16)
    for a in range(1, fld.order):
        inverse = fld.inv(a)
        assert type(inverse) is int and 0 < inverse < fld.order
        assert fld.mul(a, inverse) == 1


# At m = 24, the default modulus and the two that seeded_irreducible(24, 2401)
# and seeded_irreducible(24, 2402) give the threaded table tests.
@pytest.mark.parametrize("m,modulus", [
    (20, None), (22, None), (24, None), (24, 0x1D6C2E7), (24, 0x14FE18F),
])
def test_inverse_is_the_group_power_sampled(m, modulus):
    fld = GF2m(m, modulus)
    rng = random.Random(m ^ fld.modulus)
    for a in [1, 2, fld.order - 1] + [rng.randrange(1, fld.order) for _ in range(300)]:
        assert fld.inv(a) == fld.pow(a, fld.order - 2)


def test_inverse_rejects_non_elements(f16):
    for bad in (True, -1, f16.order):
        with pytest.raises(ValueError, match="is not an element"):
            f16.inv(bad)


def test_pow_conventions(f16):
    assert f16.pow(0, 0) == 1
    assert f16.pow(0, 7) == 0
    for a in range(1, 16):
        assert f16.pow(a, 13) == f16.inv(f16.mul(a, a))   # 13 = -2 mod 15
    with pytest.raises(ValueError):
        f16.pow(2, -1)


# Every public scalar method, once per element argument, with the other
# arguments valid in GF(2^4).
ELEMENT_ARGUMENTS = [
    ("mul", lambda f, x: f.mul(x, 1)), ("mul", lambda f, x: f.mul(1, x)),
    ("pow", lambda f, x: f.pow(x, 3)),
    ("inv", lambda f, x: f.inv(x)),
    ("frobenius_pow", lambda f, x: f.frobenius_pow(x, 1)),
    ("sqrt", lambda f, x: f.sqrt(x)),
    ("in_subfield", lambda f, x: f.in_subfield(x, 2)),
    ("in_mu", lambda f, x: f.in_mu(x, 5)),
    ("abs_trace", lambda f, x: f.abs_trace(x)),
    ("rel_trace", lambda f, x: f.rel_trace(x, 2)),
    ("subfield_abs_trace", lambda f, x: f.subfield_abs_trace(x, 4)),
    ("solve_quadratic", lambda f, x: f.solve_quadratic(x, 1)),
    ("solve_quadratic", lambda f, x: f.solve_quadratic(1, x)),
]


def test_element_validation(f16):
    for name, call in ELEMENT_ARGUMENTS:
        for bad in (True, -1, f16.order):
            with pytest.raises(ValueError, match="is not an element of GF"):
                call(f16, bad)
                pytest.fail(f"{name} accepted {bad!r}")


@pytest.mark.parametrize("call,checked", [
    (lambda f: f.pow(0x53, f.order - 2), [0x53]),
    (lambda f: f.frobenius_pow(0x53, 7), [0x53]),
    (lambda f: f.sqrt(0x53), [0x53]),
    (lambda f: f.rel_trace(0x53, 2), [0x53]),
    (lambda f: f.rel_trace(0x53, 1), [0x53]),
    (lambda f: f.in_subfield(0x53, 4), [0x53]),
    (lambda f: f.solve_quadratic(0x53, 0x2a), [0x53, 0x2a]),
], ids=["pow", "frobenius_pow", "sqrt", "rel_trace-2", "rel_trace-1", "in_subfield",
        "solve_quadratic"])
def test_one_check_per_element_argument(f256, check_calls, call, checked):
    # Internal products, squarings and inverses run unchecked; only the
    # arguments are.
    call(f256)
    assert check_calls == checked


@pytest.mark.parametrize("value", [True, False, np.bool_(True)])
def test_bools_are_not_elements(f16, value):
    with pytest.raises(ValueError):
        f16.check(value)
    with pytest.raises(ValueError):
        f16.mul(value, 1)


def test_numpy_integers_are_elements(f16):
    assert f16.check(np.uint32(7)) == 7
    assert type(f16.check(np.int64(7))) is int


# -- Frobenius and traces --------------------------------------------------------

def test_frobenius_basics(f16):
    for a in range(f16.order):
        assert f16.frobenius_pow(a, 0) == a
        sq = f16.frobenius_pow(a, 3)
        assert f16.mul(sq, sq) == a                 # x^(2^m) = x
    for a in (0, 1):
        for k in range(4):
            assert f16.frobenius_pow(a, k) == a
    with pytest.raises(ValueError):
        f16.frobenius_pow(1, 4)


@pytest.mark.parametrize("m", [8, 12])
def test_frobenius_is_a_homomorphism(m):
    fld = GF2m(m)
    rng = random.Random(m + 100)
    for _ in range(2000):
        a, b = rng.randrange(fld.order), rng.randrange(fld.order)
        k = rng.randrange(m)
        assert fld.frobenius_pow(a ^ b, k) == fld.frobenius_pow(a, k) ^ fld.frobenius_pow(b, k)
        assert fld.frobenius_pow(fld.mul(a, b), k) == fld.mul(
            fld.frobenius_pow(a, k), fld.frobenius_pow(b, k)
        )


def test_abs_trace(f16, f256):
    assert f16.abs_trace(0) == 0
    assert f16.abs_trace(1) == 0                    # m even
    for fld in (f16, f256):
        assert sum(fld.abs_trace(a) for a in range(fld.order)) == fld.order // 2


def test_abs_trace_linearity():
    fld = GF2m(12)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(fld.order), rng.randrange(fld.order)
        assert fld.abs_trace(a ^ b) == fld.abs_trace(a) ^ fld.abs_trace(b)


def test_rel_trace(f256):
    for a in range(f256.order):
        assert f256.rel_trace(a, 8) == a            # trivial tower
        for k in (1, 2, 4):
            assert f256.in_subfield(f256.rel_trace(a, k), k)
    # four equal terms collapse in characteristic 2
    for a in f256.subfield_elements(2):
        assert f256.rel_trace(a, 2) == 0
    with pytest.raises(ValueError):
        f256.rel_trace(1, 3)


def test_trace_transitivity(f256):
    for a in range(f256.order):
        t = f256.rel_trace(a, 2)
        assert f256.subfield_abs_trace(t, 2) == f256.abs_trace(a)


def test_subfield_abs_trace_validation(f256):
    gen = next(a for a in range(f256.order) if not f256.in_subfield(a, 4))
    with pytest.raises(ValueError):
        f256.subfield_abs_trace(gen, 4)
    for a in range(f256.order):
        assert f256.subfield_abs_trace(a, 8) == f256.abs_trace(a)


def test_rel_trace_leaving_its_subfield_raises_theorem_channel(monkeypatch):
    # Each 2^4-th power with bit 0 flipped: the conjugates no longer sum
    # to a fixed point of that power.
    fld = GF2m(8)
    real = GF2m._frob
    monkeypatch.setattr(GF2m, "_frob",
                        lambda self, a, k: real(self, a, k) ^ 1 if k == 4 else real(self, a, k))
    with pytest.raises(TheoremViolationError, match=r"^relative trace 0x5d left its subfield$"):
        fld.rel_trace(0x02, 4)


def test_trace_outside_f2_raises_theorem_channel(monkeypatch):
    # Squaring planted as the identity: every element passes the membership
    # test, and at odd degree its trace sums to the element itself.
    fld = GF2m(5)
    monkeypatch.setattr(GF2m, "_mul", lambda self, a, b: a)
    with pytest.raises(TheoremViolationError, match=r"^trace 0x2 of 0x2 is not in F2$"):
        fld.abs_trace(0x02)


def test_sqrt(f16):
    assert f16.sqrt(0) == 0
    assert f16.sqrt(1) == 1
    assert f16.sqrt(0b0100) == 0b0010
    for a in range(f16.order):
        assert f16.sqrt(f16.mul(a, a)) == a


# -- quadratic machinery -----------------------------------------------------

def test_artin_schreier_trivial(f16):
    assert f16.artin_schreier_solver().solve(0) in (0, 1)


def test_artin_schreier_exhaustive(f256):
    solver = f256.artin_schreier_solver()
    for c in range(f256.order):
        z = solver.solve(c)
        assert (z is None) == (f256.abs_trace(c) == 1)
        if z is not None:
            assert f256.mul(z, z) ^ z == c


def test_solve_quadratic_special_cases(f16):
    for gamma in range(f16.order):
        assert f16.solve_quadratic(0, gamma) == (f16.sqrt(gamma),)
    assert f16.solve_quadratic(1, 0) == (0, 1)


def test_solve_quadratic_exhaustive(f16):
    for beta in range(f16.order):
        for gamma in range(f16.order):
            roots = f16.solve_quadratic(beta, gamma)
            assert len(roots) in (0, 1, 2)
            if len(roots) == 1:
                assert beta == 0
            for r in roots:
                assert f16.mul(r, r) ^ f16.mul(beta, r) ^ gamma == 0


# -- subgroups and subfields ---------------------------------------------------

def test_in_mu(f256):
    assert f256.in_mu(1, 7)
    assert not f256.in_mu(0, 7)
    assert sum(f256.in_mu(a, 5) for a in range(f256.order)) == 5   # q+1 with q=4


def test_in_subfield(f256):
    for k in (1, 2, 4, 8):
        assert f256.in_subfield(0, k)
        assert f256.in_subfield(1, k)
    assert sum(f256.in_subfield(a, 4) for a in range(f256.order)) == 16
    # mu_(q-1) sits inside GF(q): x^(q-1) = 1 forces x^q = x
    for a in range(f256.order):
        if f256.in_mu(a, 3):
            assert f256.in_subfield(a, 2)
    with pytest.raises(ValueError):
        f256.in_subfield(1, 5)


def test_subfield_elements_matches_predicate(f256):
    for k in (1, 2, 4):
        listed = f256.subfield_elements(k)
        assert listed == [a for a in range(f256.order) if f256.in_subfield(a, k)]
        assert len(listed) == 1 << k
        for a in listed[:8]:
            for b in listed[:8]:
                assert f256.mul(a, b) in listed


def test_subfield_elements_returns_a_copy():
    fld = GF2m(8)
    listed = fld.subfield_elements(4)
    expected = list(listed)
    listed.reverse()
    listed.append(0x53)
    assert fld.subfield_elements(4) == expected


@pytest.mark.parametrize("m,n", [(8, 2), (12, 3)])
def test_unit_circles_intersect_trivially(m, n):
    fld = GF2m(m)
    q = 1 << n
    both = [
        a for a in range(fld.order)
        if a and fld.pow(a, q + 1) == 1 and fld.pow(a, q - 1) == 1
    ]
    assert both == [1]


# -- log/antilog tables ---------------------------------------------------------

def test_tables_agree_with_schoolbook_exhaustive(f16):
    exp, log = f16.log_tables()
    size = f16.order - 1
    assert sorted(int(v) for v in exp) == list(range(1, f16.order))
    for a in range(1, f16.order):
        for b in range(1, f16.order):
            assert f16.mul(a, b) == int(exp[(int(log[a]) + int(log[b])) % size])


def test_tables_agree_with_schoolbook_random():
    fld = GF2m(12)
    exp, log = fld.log_tables()
    size = fld.order - 1
    rng = random.Random(12)
    for _ in range(2000):
        a, b = rng.randrange(1, fld.order), rng.randrange(1, fld.order)
        assert fld.mul(a, b) == int(exp[(int(log[a]) + int(log[b])) % size])


@pytest.fixture(scope="module", params=[16, 20, 24])
def big_field(request):
    """Fields whose tables are built once per module and checked by sampling."""
    return GF2m(request.param)


def test_exp_table_is_a_permutation_of_the_group(big_field):
    exp, log = big_field.log_tables()
    assert exp.dtype == log.dtype == np.uint32
    assert len(exp) == big_field.order - 1
    seen = np.zeros(big_field.order, dtype=bool)
    seen[exp] = True
    assert not seen[0] and seen[1:].all()


def test_tables_agree_with_schoolbook_sampled(big_field):
    exp, log = big_field.log_tables()
    g = big_field.primitive_element()
    size = big_field.order - 1
    rng = random.Random(big_field.degree)
    for k in [0, 1, size - 1] + [rng.randrange(size) for _ in range(300)]:
        assert int(exp[k]) == big_field.pow(g, k)
        assert int(log[exp[k]]) == k


def times_constant(x, c, field):
    """x * c for a uint32 array x, by shift and XOR over the bits of c."""
    r = np.zeros_like(x)
    for bit in range(c.bit_length()):
        if c >> bit & 1:
            r ^= x
        x = x << 1
        x ^= np.where(x >> field.degree, np.uint32(field.modulus), np.uint32(0))
    return r


@pytest.mark.parametrize("degree", range(4, 21))
def test_exp_is_the_powers_of_the_primitive_element(degree):
    fld = GF2m(degree)
    exp, _ = fld.log_tables()
    g = fld.primitive_element()
    assert exp[0] == 1
    assert np.array_equal(times_constant(exp, g, fld), np.roll(exp, -1))


def test_table_build_memory_bound(peak_traced_bytes):
    # exp and log take 8 MiB at m = 20; the build's temporaries may add
    # about as much again, not several field-sized int64 arrays.
    assert peak_traced_bytes(GF2m(20).log_tables) <= 17 * 2**20


def test_sweep_runs_each_start_once_and_returns_the_sum(monkeypatch):
    # Eight workers asked for, three starts: no more threads than starts run
    # ``work``, and every pool thread has exited when the call returns.
    ran = []

    def work(start):
        ran.append((start, threading.get_ident()))
        return start + 1

    starts = [0, gf2m.BULK_CHUNK, 2 * gf2m.BULK_CHUNK]
    before = threading.active_count()
    monkeypatch.setattr(gf2m, "sweep_workers", lambda field: 8)
    assert gf2m._sweep(GF2m(8), 3 * gf2m.BULK_CHUNK, work) == sum(starts) + 3
    assert sorted(start for start, _ in ran) == starts
    assert len({thread for _, thread in ran}) <= 3
    assert threading.active_count() == before


def build_tables(monkeypatch, workers, degree, modulus=None):
    """A fresh field and its tables, built with ``workers`` threads.

    Checks that the doubling slices ran on the calling thread alone for one
    worker and on more than one thread otherwise, so a patch that misses
    the helper's binding cannot pass as a threaded build.
    """
    ran_on = set()
    real = gf2m._apply_linear

    def recording(tables, src, out):
        ran_on.add(threading.get_ident())
        return real(tables, src, out)

    with monkeypatch.context() as patch:
        patch.setattr(gf2m, "sweep_workers", lambda field: workers)
        patch.setattr(gf2m, "_apply_linear", recording)
        fld = GF2m(degree, modulus)
        tables = fld.log_tables()
    if workers == 1:
        assert ran_on == {threading.get_ident()}
    else:
        assert len(ran_on) > 1
    return fld, tables


def seeded_irreducible(degree, seed):
    rng = random.Random(seed)
    while True:
        v = (1 << degree) | rng.getrandbits(degree) | 1
        if is_irreducible(v):
            return v


@pytest.mark.parametrize("degree,modulus_seed,workers", [
    (22, None, 2), (22, None, 4), (24, None, 4), (24, 2401, 4), (24, 2402, 4),
])
def test_threaded_tables_match_one_worker(monkeypatch, degree, modulus_seed, workers):
    modulus = None if modulus_seed is None else seeded_irreducible(degree, modulus_seed)
    _, serial = build_tables(monkeypatch, 1, degree, modulus)
    fld, threaded = build_tables(monkeypatch, workers, degree, modulus)
    for one, many in zip(serial, threaded):
        assert many.dtype == np.uint32
        assert np.array_equal(one, many)
    exp, log = threaded
    g = fld.primitive_element()
    size = fld.order - 1
    rng = random.Random(degree)
    for k in [0, 1, size - 1] + [rng.randrange(size) for _ in range(100)]:
        assert int(exp[k]) == fld.pow(g, k)
        assert int(log[exp[k]]) == k


def test_failed_table_build_caches_nothing(monkeypatch):
    # One doubling slice of a threaded build fails: the error reaches the
    # caller after every worker has joined, nothing is cached, and the
    # next call builds the full tables.
    _, reference = build_tables(monkeypatch, 1, 22)
    fld = GF2m(22)
    real = gf2m._apply_linear
    calls = itertools.count()
    active = []

    def planted(tables, src, out):
        active.append(threading.active_count())
        if next(calls) == 40:   # a slice of the 2^20-element step
            raise RuntimeError("planted slice failure")
        return real(tables, src, out)

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(gf2m, "sweep_workers", lambda field: 2)
        patch.setattr(gf2m, "_apply_linear", planted)
        with pytest.raises(RuntimeError, match="planted slice failure"):
            fld.log_tables()
    assert fld._tables is None
    assert threading.active_count() == before
    assert max(active) > before
    for rebuilt, expected in zip(fld.log_tables(), reference):
        assert np.array_equal(rebuilt, expected)


def test_threaded_table_build_memory_bound(monkeypatch, peak_traced_bytes):
    # exp and log take 32 MiB at m = 22 and a one-thread build peaks at
    # 32.8 MiB; each worker adds under 1 MiB of slice temporaries, so no
    # field-sized array fits.
    monkeypatch.setattr(gf2m, "sweep_workers", lambda field: 4)
    assert peak_traced_bytes(GF2m(22).log_tables) <= 36 * 2**20


def test_primitive_element_generates(f16):
    g = f16.primitive_element()
    seen = set()
    x = 1
    for _ in range(f16.order - 1):
        seen.add(x)
        x = f16.mul(x, g)
    assert len(seen) == f16.order - 1


@pytest.mark.parametrize("v,primes", [
    (4, [2]), (9, [3]), (25, [5]),                     # a prime squared, nothing else
    (2**12 - 1, [3, 5, 7, 13]),                        # 3^2 * 5 * 7 * 13
    (2**20 - 1, [3, 5, 11, 31, 41]),                   # 3 * 5^2 * 11 * 31 * 41
    (2**24 - 1, [3, 5, 7, 13, 17, 241]),               # 3^2 * 5 * 7 * 13 * 17 * 241
])
def test_prime_factors_exact(v, primes):
    # primitive_element tests g^((2^m - 1) / p) for exactly these p.
    assert gf2m._prime_factors(v) == primes


def reference_log(exp, order):
    """log[exp[k]] = k by a plain scatter, with log[0] = 0."""
    log = np.zeros(order, dtype=np.uint32)
    log[exp] = np.arange(order - 1, dtype=np.uint32)
    return log


@pytest.mark.parametrize("modulus_seed", [None, 2300], ids=["default", "seeded"])
@pytest.mark.parametrize("degree", range(4, 25, 2))
def test_even_degree_log_is_filled_in_field_order(monkeypatch, degree, modulus_seed):
    # The field-order fill alone builds log for even m, and it equals the
    # scatter byte for byte.
    modulus = None if modulus_seed is None else seeded_irreducible(degree, modulus_seed + degree)
    fld = GF2m(degree, modulus)
    if modulus_seed is not None:
        assert fld.modulus != smallest_irreducible(degree)

    def no_scatter(self, exp):
        raise AssertionError("even degree took the scatter")

    monkeypatch.setattr(GF2m, "_scattered_log", no_scatter)
    exp, log = fld.log_tables()
    assert log.dtype == np.uint32 and log[0] == 0
    assert np.array_equal(log[exp], np.arange(fld.order - 1))
    assert log.tobytes() == reference_log(exp, fld.order).tobytes()


@pytest.mark.parametrize("degree", range(5, 24, 2))
def test_odd_degree_log_is_the_scatter(monkeypatch, degree):
    def no_fill(self, exp):
        raise AssertionError("odd degree took the field-order fill")

    monkeypatch.setattr(GF2m, "_field_order_log", no_fill)
    fld = GF2m(degree)
    exp, log = fld.log_tables()
    assert log[0] == 0
    assert np.array_equal(log[exp], np.arange(fld.order - 1))
    assert log.tobytes() == reference_log(exp, fld.order).tobytes()


def test_field_order_log_claims(f256):
    # At m = 8: s = 4, c = 17, and the basis is exp[17 i], exp[17 i + 1], i < 4.
    exp, log = f256.log_tables()
    dependent = exp.copy()
    dependent[17] = exp[0]            # h = 1 repeats the basis entry exp[0]
    with pytest.raises(TheoremViolationError,
                       match=r"^log basis exp\[i\*17\], exp\[i\*17 \+ 1\] \(i < 4\) is linearly dependent$"):
        f256._field_order_log(dependent)
    outside = exp.copy()
    outside[4 * 17] = exp[1]          # h^4 = g, outside GF(2^4)
    with pytest.raises(TheoremViolationError, match=r"^a power of exp\[17\] left GF\(2\^4\)$"):
        f256._field_order_log(outside)
    assert np.array_equal(f256._field_order_log(exp), log)
