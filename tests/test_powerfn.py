import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffspec.gf2m as gf2m
import diffspec.powerfn as powerfn
from diffspec.gf2m import BULK_CHUNK, GF2m
from diffspec.powerfn import (
    PowerFunction,
    delta,
    derivative_table,
    solution_counts,
    solution_set,
    spectrum_brute,
    spectrum_from_counts,
)


@pytest.fixture(scope="module")
def f16():
    return GF2m(4)


@pytest.fixture(scope="module")
def f256():
    return GF2m(8)


def naive_spectrum(f):
    """Independent oracle: per-b counting with the scalar evaluator only."""
    fld, d = f.field, f.exponent
    order = fld.order
    image = [fld.pow(x ^ 1, d) ^ fld.pow(x, d) for x in range(order)]
    hist = {}
    for b in range(order):
        c = image.count(b)
        hist[c] = hist.get(c, 0) + 1
    return hist


# -- derivative tables ---------------------------------------------------------

def test_linear_exponents_have_constant_derivative(f16):
    assert set(derivative_table(PowerFunction(f16, 1)).tolist()) == {1}
    assert set(derivative_table(PowerFunction(f16, 2)).tolist()) == {1}


def test_derivative_pairing_symmetry(f16, f256):
    for fld, d in ((f16, 13), (f256, 83), (f256, 7)):
        img = derivative_table(PowerFunction(fld, d))
        xs = np.arange(fld.order)
        assert np.array_equal(img[xs ^ 1], img)


@pytest.mark.parametrize("m", [16, 20, 24])
def test_derivative_table_matches_scalar_sampled(m):
    fld = GF2m(m)
    rng = random.Random(m)
    for d in (3, (1 << (m // 2)) + 1, fld.order - 2, rng.randrange(2, fld.order - 1)):
        f = PowerFunction(fld, d)
        table = derivative_table(f)
        assert table.dtype == np.uint32 and len(table) == fld.order
        for x in [0, 1, fld.order - 1] + [rng.randrange(fld.order) for _ in range(40)]:
            assert int(table[x]) == fld.pow(x ^ 1, d) ^ fld.pow(x, d)


def test_derivative_table_memory_bound(peak_traced_bytes):
    # From a fresh field at m = 20 the tables (8 MiB) and the returned
    # table (4 MiB) are the field-sized arrays; no int64 index array fits.
    f = PowerFunction(GF2m(20), 1 + 2**10)
    assert peak_traced_bytes(lambda: derivative_table(f)) <= 17 * 2**20


def test_solution_counts_match_full_histogram(f16, f256):
    for fld in (f16, f256):
        for d in (0, 1, 2, 3, 7, fld.order - 2):
            f = PowerFunction(fld, d)
            full = np.bincount(derivative_table(f), minlength=fld.order)
            assert np.array_equal(solution_counts(f), full)


@pytest.mark.parametrize("m", [4, 17, 20])
def test_solution_counts_chunked_match_full_histogram(m):
    # m = 4 is one chunk shorter than BULK_CHUNK; m = 17 and 20 span several.
    # From m = 16 the constant, linear and 2^m - 1 maps have a count of
    # 2^m or 2^m - 2, which wraps in uint16; the random exponent's does not.
    fld = GF2m(m)
    order = fld.order
    rng = random.Random(m)
    degenerate = (0, 1, 1 << rng.randrange(1, m), order - 1, 3 * (order - 1))
    for d in degenerate + (rng.randrange(2, order * order),):
        f = PowerFunction(fld, d)
        counts = solution_counts(f)
        full = np.bincount(derivative_table(f), minlength=order)
        wraps = m >= 16 and d in degenerate
        assert wraps == (full.max() >= 1 << 16), d
        assert counts.dtype == (np.uint32 if wraps else np.uint16), d
        assert np.array_equal(counts, full), d


@pytest.mark.parametrize("d,dtype", [
    (1, np.uint32),             # one count of 2^16, the first that wraps
    (2**16 - 1, np.uint16),     # one count of 2^16 - 2, the largest that does not
    (1 + 2**8, np.uint16),      # Gold: counts of 2^8
])
def test_solution_counts_width_at_the_wrap(d, dtype):
    f = PowerFunction(GF2m(16), d)
    counts = solution_counts(f)
    assert counts.dtype == dtype
    assert np.array_equal(counts, np.bincount(derivative_table(f), minlength=f.field.order))


def test_spectrum_from_counts_inputs(f16):
    # The list form, as the structured CLI route passes it.
    f = PowerFunction(f16, 13)
    counts = solution_counts(f).tolist()
    assert spectrum_from_counts(counts, f).entries == {0: 9, 2: 6, 4: 1}

    fld = GF2m(17)
    f = PowerFunction(fld, 7)
    order = fld.order
    # A single count of 2^m, as for d = 0.
    single = np.zeros(order, dtype=np.uint32)
    single[0] = order
    assert spectrum_from_counts(single, f).entries == {0: order - 1, order: 1}
    # The largest count in the last chunk, below and above BULK_CHUNK.
    for top in (4096, BULK_CHUNK, order - 2):
        counts = np.zeros(order, dtype=np.uint32)
        counts[:order // 4:2] = 2
        counts[-1] = top
        assert spectrum_from_counts(counts, f).entries == dict(Counter(counts.tolist())), top


def test_sweep_memory_bound(peak_traced_bytes):
    # With the tables built, the uint16 counts (2 MiB at m = 20) are the
    # only field-sized array; no uint32 count, image, derivative or int64
    # array fits.
    fld = GF2m(20)
    fld.log_tables()
    f = PowerFunction(fld, 1 + 2**10)
    assert peak_traced_bytes(lambda: solution_counts(f)) <= 4 * 2**20
    assert peak_traced_bytes(lambda: spectrum_brute(f)) <= 4 * 2**20


def test_wrapped_sweep_memory_bound(peak_traced_bytes):
    # d = 1 wraps the uint16 counts: they must be freed before the uint32
    # sweep allocates its 4 MiB, so the two never coexist (6 MiB).
    fld = GF2m(20)
    fld.log_tables()
    f = PowerFunction(fld, 1)
    assert peak_traced_bytes(lambda: solution_counts(f)) <= 5 * 2**20


def test_image_table_matches_scalar_eval(f256):
    f = PowerFunction(f256, 83)
    table = f.image_table()
    for x in range(f256.order):
        assert int(table[x]) == f256.pow(x, 83)


def test_exponent_reporting(f16):
    assert PowerFunction(f16, 0).reported_exponent == 0
    assert PowerFunction(f16, 13).reported_exponent == 13
    assert PowerFunction(f16, 15).reported_exponent == 15   # not 0: 0^15 = 0
    assert PowerFunction(f16, 30).reported_exponent == 15
    assert PowerFunction(f16, 16).reported_exponent == 1
    with pytest.raises(ValueError):
        PowerFunction(f16, -1)


def test_zero_exponent_convention(f16):
    assert PowerFunction(f16, 0).image_table().tolist() == [1] * 16


# -- delta ----------------------------------------------------------------------

def test_delta_family_fixed_counts(make_params):
    for n in (1, 2):
        p = make_params(n)
        f = p.power_function()
        assert delta(f, 1, 1) == p.q * p.q
        assert delta(f, 1, 0) == 0


def test_delta_linear(f16):
    assert delta(PowerFunction(f16, 1), 1, 1) == 16


def test_delta_rejects_zero_difference(f16):
    with pytest.raises(ValueError):
        delta(PowerFunction(f16, 13), 0, 1)


def test_delta_even_and_totals(f16):
    for d in (3, 7, 13):
        f = PowerFunction(f16, d)
        counts = [delta(f, 1, b) for b in range(16)]
        assert all(c % 2 == 0 for c in counts)
        assert sum(counts) == 16


def gathered_delta(image, a, b):
    """Number of x with image[x ^ a] ^ image[x] == b: a count over every x
    that does not scale a to 1."""
    xs = np.arange(len(image))
    return int(np.count_nonzero(image[xs ^ a] ^ image == b))


def test_delta_normalization_exhaustive_m4(f16):
    # Every (a, b) against the scalar sum over x.
    f = PowerFunction(f16, 13)
    image = [f16.pow(x, 13) for x in range(16)]
    for a in range(1, 16):
        for b in range(16):
            assert delta(f, a, b) == sum(image[x ^ a] ^ image[x] == b for x in range(16))


@pytest.mark.parametrize("m,d", [(8, 83), (12, 583)])
def test_delta_normalization_sampled(m, d):
    fld = GF2m(m)
    f = PowerFunction(fld, d)
    image = f.image_table()
    rng = random.Random(d)
    for _ in range(1000):
        a = rng.randrange(1, fld.order)
        b = rng.randrange(fld.order)
        assert delta(f, a, b) == gathered_delta(image, a, b), (a, b)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(1, 255), b=st.integers(0, 255))
def test_delta_matches_gather_property(f256, a, b):
    f = PowerFunction(f256, 83)
    assert delta(f, a, b) == gathered_delta(f.image_table(), a, b)


@pytest.mark.parametrize("m,d", [(8, 83), (12, 583), (16, 7), (17, 7)])
def test_delta_matches_full_field_gather(m, d):
    # At m = 17 about half the a reach past the first BULK_CHUNK block.
    fld = GF2m(m)
    f = PowerFunction(fld, d)
    table = f.image_table()
    xs = np.arange(fld.order)
    rng = random.Random(m)
    for _ in range(40):
        a = rng.randrange(1, fld.order)
        diffs = table[xs ^ a] ^ table
        # Half the b are hit by the derivative, half drawn uniformly.
        b = int(diffs[rng.randrange(fld.order)]) if rng.random() < 0.5 else rng.randrange(fld.order)
        assert delta(f, a, b) == int(np.count_nonzero(diffs == b)), (a, b)


def test_delta_memory_bound(peak_traced_bytes):
    fld = GF2m(20)
    fld.log_tables()
    f = PowerFunction(fld, 1 + 2**10)
    assert peak_traced_bytes(lambda: delta(f, 0x5A5A5, 0x1234)) <= 4 * 2**20


def test_solution_set_sizes(f16):
    f = PowerFunction(f16, 13)
    for b in range(16):
        sols = solution_set(f, b)
        assert len(sols) == delta(f, 1, b)
        for x in sols:
            assert f16.pow(x ^ 1, 13) ^ f16.pow(x, 13) == b


# -- spectra ---------------------------------------------------------------------

def test_spectrum_frozen_values(f16, f256):
    assert spectrum_brute(PowerFunction(f16, 13)).entries == {0: 9, 2: 6, 4: 1}
    assert spectrum_brute(PowerFunction(f16, 3)).entries == {0: 8, 2: 8}
    assert spectrum_brute(PowerFunction(f256, 83)).entries == {0: 155, 2: 96, 12: 4, 16: 1}
    for fld in (f16, f256):
        assert spectrum_brute(PowerFunction(fld, 2)).entries == {0: fld.order - 1, fld.order: 1}


def test_spectrum_against_naive_oracle(f16):
    for d in (3, 7, 13, 5):
        assert spectrum_brute(PowerFunction(f16, d)).entries == naive_spectrum(PowerFunction(f16, d))


def test_spectrum_sum_identities(f16, f256):
    for fld, d in ((f16, 13), (f16, 3), (f256, 83), (f256, 7)):
        s = spectrum_brute(PowerFunction(fld, d))
        assert sum(s.entries.values()) == fld.order
        assert sum(i * c for i, c in s.entries.items()) == fld.order


def test_spectrum_modulus_independence():
    a = spectrum_brute(PowerFunction(GF2m(8, 0x11B), 83))
    b = spectrum_brute(PowerFunction(GF2m(8, 0x11D), 83))
    assert a.entries == b.entries


def test_differential_uniformity(f16, make_params):
    assert spectrum_brute(make_params(2).power_function()).uniformity == 16
    assert spectrum_brute(PowerFunction(f16, 3)).uniformity == 2   # Gold, APN
    assert spectrum_brute(PowerFunction(f16, 1)).uniformity == 16


def test_permutation_derivative_never_hits_zero(f16, f256):
    for fld, d in ((f16, 13), (f256, 83)):
        assert math.gcd(d, fld.order - 1) == 1
        assert delta(PowerFunction(fld, d), 1, 0) == 0
        assert 0 not in derivative_table(PowerFunction(fld, d))


def test_spectrum_json_shape(f256):
    payload = spectrum_brute(PowerFunction(f256, 83)).to_json_dict()
    assert set(payload) == {"m", "d", "poly", "spectrum", "uniformity"}
    assert payload["poly"] == "0x11b"
    keys = [int(k) for k in payload["spectrum"]]
    assert keys == sorted(keys)
    assert payload["uniformity"] == 16


# -- Frobenius orbits ------------------------------------------------------------

def necklaces(m):
    """Binary necklaces of length m: (1/m) sum over k | m of phi(k) 2^(m/k)."""
    phi = lambda k: sum(math.gcd(j, k) == 1 for j in range(1, k + 1))
    return sum(phi(k) << (m // k) for k in range(1, m + 1) if m % k == 0) // m


@pytest.mark.parametrize("m", list(range(4, 23)) + [24])
def test_frobenius_orbit_representatives(m):
    # One log per orbit of x -> x^2 on the nonzero x: every necklace but
    # the all-ones one (2^m - 1 is not a log), least of its rotations, with
    # its rotation period as the orbit size.  Rotations here turn left.
    reps, sizes = powerfn._frobenius_orbits(GF2m(m))
    assert reps.dtype == np.uint32 and sizes.dtype == np.uint8
    assert len(reps) == len(sizes) == necklaces(m) - 1
    assert reps[0] == 0 and np.all(reps[1:] % 2 == 1) and np.all(np.diff(reps) > 0)
    assert int(sizes.sum(dtype=np.int64)) == (1 << m) - 1
    period = np.zeros(len(reps), dtype=np.int64)
    for r in range(1, m):
        turned = ((reps << r) | (reps >> (m - r))) & ((1 << m) - 1)
        assert np.all(turned >= reps), r
        period[(turned == reps) & (period == 0)] = r
    period[period == 0] = m
    assert np.array_equal(period, sizes)


def degenerate_and_seeded(fld, seed):
    """Exponents whose x^d is constant, linear or a multiple of 2^m - 1 (so
    0^d decides D(0)), the inverse, Gold, and two random ones."""
    size = fld.order - 1
    rng = random.Random(seed)
    return (0, 1, 4, size, 2 * size, size - 1, 3, (1 << (fld.degree // 2)) + 1,
            rng.randrange(2, size), rng.randrange(2, size * size))


@pytest.mark.parametrize("m", range(4, 17))
def test_spectrum_brute_matches_per_b_counts(m):
    fld = GF2m(m)
    for d in degenerate_and_seeded(fld, m):
        f = PowerFunction(fld, d)
        orbits = spectrum_brute(f)
        per_b = spectrum_from_counts(solution_counts(f), f)
        assert orbits == per_b and list(orbits.entries) == list(per_b.entries), d


@pytest.mark.parametrize("m", [4, 9, 12, 17])
def test_delta_matches_per_b_counts(m):
    fld = GF2m(m)
    rng = random.Random(100 + m)
    for d in degenerate_and_seeded(fld, m):
        f = PowerFunction(fld, d)
        counts = solution_counts(f)
        hit = np.flatnonzero(counts)
        bs = [0, 1, int(hit[0]), int(hit[-1]), rng.randrange(fld.order)]
        for a in (1, 2, rng.randrange(2, fld.order)):
            for b in bs:
                target = fld.mul(b, fld.inv(fld.pow(a, d)))
                assert delta(f, a, b) == counts[target], (d, a, b)


# One orbit size off by one, and the orbit key of b = 1 moved onto that of
# g, which is a full orbit: Gold x^3 at m = 8 has delta(1, 1) = 2, so g's
# orbit takes 2 hits more than a multiple of its size 8.  Both must raise
# without asserts, as under python -O.
PLANTED_ORBIT_FAULTS = """
import json
import numpy as np
import diffspec.powerfn as powerfn
from diffspec.errors import TheoremViolationError
from diffspec.gf2m import GF2m

f = powerfn.PowerFunction(GF2m(8), 3)
g = int(f.field.log_tables()[0][1])
reps, sizes = powerfn._frobenius_orbits(f.field)

def raised(fn):
    try:
        fn()
    except TheoremViolationError as exc:
        return str(exc)
    return None

out = {}
grown = sizes.copy()
grown[7] += 1
powerfn._ORBITS[8] = (reps, grown)
out["size"] = [raised(lambda: powerfn.spectrum_brute(f)), raised(lambda: powerfn.delta(f, 1, g))]
powerfn._ORBITS[8] = (reps, sizes)
least = powerfn._least_rotation
powerfn._least_rotation = lambda k, m: np.maximum(least(k, m), 1)
out["key"] = [raised(lambda: powerfn.spectrum_brute(f)), raised(lambda: powerfn.delta(f, 1, g))]
print(json.dumps(out))
"""


def test_planted_orbit_faults_raise_under_optimize():
    src = str(Path(powerfn.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", PLANTED_ORBIT_FAULTS],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["size"] == ["orbit weights total 257, not the field order 256"] * 2
    for message in out["key"]:
        assert re.fullmatch(r"b-orbit of key 1 and size 8 took \d+ hits, "
                            r"not a multiple of its size", message), message


# -- threaded sweeps -------------------------------------------------------------

@pytest.fixture(scope="module")
def f22():
    """GF(2^22) with its tables, the smallest degree whose sweeps use threads."""
    fld = GF2m(22)
    fld.log_tables()
    return fld


def with_workers(monkeypatch, workers, fn):
    """fn() with bulk loops on ``workers`` threads.

    Checks that the chunks ran on the calling thread alone for one worker
    and on more than one thread otherwise, so a patch that misses the
    helper's binding cannot pass as a threaded run.
    """
    ran_on = set()
    real = PowerFunction._image_chunk

    def recording(self, logs, exp):
        ran_on.add(threading.get_ident())
        return real(self, logs, exp)

    with monkeypatch.context() as patch:
        patch.setattr(gf2m, "sweep_workers", lambda field: workers)
        patch.setattr(PowerFunction, "_image_chunk", recording)
        result = fn()
    if workers == 1:
        assert ran_on == {threading.get_ident()}
    else:
        assert len(ran_on) > 1
    return result


def test_sweep_threads_only_from_degree_22():
    assert gf2m.sweep_workers(GF2m(20)) == 1
    assert gf2m.sweep_workers(GF2m(21)) == 1
    assert gf2m.sweep_workers(GF2m(22)) == min(len(os.sched_getaffinity(0)), 4)


@pytest.mark.parametrize("workers", [2, 4])
def test_threaded_solution_counts_match_one_worker(f22, monkeypatch, workers):
    order = f22.order
    rng = random.Random(22)
    inverse = order - 2
    degenerate = (0, 1, 1 << rng.randrange(1, 22), order - 1, 3 * (order - 1))
    for d in degenerate + (inverse, rng.randrange(2, order), rng.randrange(2, order * order)):
        f = PowerFunction(f22, d)
        serial = with_workers(monkeypatch, 1, lambda: solution_counts(f))
        threaded = with_workers(monkeypatch, workers, lambda: solution_counts(f))
        expected = np.uint32 if d in degenerate else np.uint16
        assert threaded.dtype == serial.dtype == expected, d
        assert np.array_equal(threaded, serial), d


@pytest.mark.parametrize("workers", [1, 2])
def test_threaded_spectrum_brute_matches_per_b_counts(f22, monkeypatch, workers):
    # A fresh orbit cache, so that its build runs on the workers as well.
    monkeypatch.setattr(powerfn, "_ORBITS", {})
    for d in degenerate_and_seeded(f22, 22)[::3]:
        f = PowerFunction(f22, d)
        per_b = spectrum_from_counts(solution_counts(f), f)
        assert with_workers(monkeypatch, workers, lambda: spectrum_brute(f)) == per_b, d


def test_threaded_delta_matches_one_worker(f22, monkeypatch):
    f = PowerFunction(f22, 1 + 2**11)
    rng = random.Random(2022)
    image = f.image_table()
    for a in (1, BULK_CHUNK - 1, BULK_CHUNK + 5, rng.randrange(BULK_CHUNK, f22.order)):
        b = int(image[a] ^ image[0])   # F(0 + a) + F(0): hit at least twice
        serial = with_workers(monkeypatch, 1, lambda: delta(f, a, b))
        threaded = with_workers(monkeypatch, 2, lambda: delta(f, a, b))
        assert threaded == serial >= 2, (a, b)


@pytest.mark.parametrize("bad_start", [0, 7 * BULK_CHUNK, 15 * BULK_CHUNK])
def test_threaded_sweep_reraises_a_chunk_failure(monkeypatch, bad_start):
    # The slice at bad_start fails, or the last slice of a shorter range:
    # the orbit pass and its representatives' build span fewer slices.
    f = PowerFunction(GF2m(20), 7)
    original = powerfn._sweep
    active = []

    def planted(field, stop, work):
        bad = min(bad_start, (stop - 1) // BULK_CHUNK * BULK_CHUNK)

        def failing(start):
            active.append(threading.active_count())
            if start == bad:
                raise RuntimeError(f"planted failure at {start}")
            return work(start)

        return original(field, stop, failing)

    before = threading.active_count()
    monkeypatch.setattr(powerfn, "_sweep", planted)
    monkeypatch.setattr(gf2m, "sweep_workers", lambda field: 2)
    with pytest.raises(RuntimeError, match=f"planted failure at {bad_start}"):
        solution_counts(f)
    with pytest.raises(RuntimeError, match="planted failure"):
        delta(f, 1, 0)
    assert threading.active_count() == before
    assert max(active) > before   # the sweeps did start a second thread


def test_threaded_sweep_calls_public_code_from_the_caller_only(f22, monkeypatch):
    # Workers must touch only the tables handed to them: public methods of
    # GF2m and PowerFunction (log_tables, check, eval, ...) run on the
    # calling thread alone, while the tables are built as well.
    seen = []
    for cls in (GF2m, PowerFunction):
        for name, fn in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue

            def recording(*args, _fn=fn, **kwargs):
                seen.append(threading.get_ident())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, recording)
    f = PowerFunction(f22, 1 + 2**11)
    monkeypatch.setattr(powerfn, "_ORBITS", {})   # the orbit build runs below

    def calls():
        GF2m(22).log_tables()
        solution_counts(f)
        delta(f, BULK_CHUNK + 3, 0x1234)
        spectrum_brute(f)

    with_workers(monkeypatch, 2, calls)
    assert seen and set(seen) == {threading.get_ident()}


def test_threaded_sweep_stress_with_fast_switching(monkeypatch):
    # More workers than cores and a short switch interval: a lost update to
    # the shared counts or a chunk claimed twice or never would change them.
    f = PowerFunction(GF2m(20), 1 + 2**10)
    serial = solution_counts(f)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            threaded = with_workers(monkeypatch, 8, lambda: solution_counts(f))
            assert np.array_equal(threaded, serial)
    finally:
        sys.setswitchinterval(interval)


def test_threaded_sweep_memory_bound(f22, monkeypatch, peak_traced_bytes):
    # The uint16 counts (8 MiB at m = 22) plus about 1 MiB of chunk
    # temporaries per worker; tracemalloc sees every thread's allocations.
    f = PowerFunction(f22, 1 + 2**11)
    peak = peak_traced_bytes(lambda: with_workers(monkeypatch, 4, lambda: spectrum_brute(f)))
    assert peak <= 12 * 2**20
