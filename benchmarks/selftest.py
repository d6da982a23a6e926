"""Checks on the benchmark itself.

    python3 -m pytest benchmarks/selftest.py -q

The file name keeps it out of the default ``test_*.py`` collection, so
the repository's own test run does not pick it up.  It shows that the
benchmark's independent arithmetic agrees with the program where both
are right, and that its checks are live: a planted wrong spectrum, a
wrong per-b count and a non-solution are each rejected and counted as
failed operations.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from diffspec import gf2m, powerfn, theorem  # noqa: E402


def test_oracle_arithmetic_matches_gf2m():
    rng = random.Random(7)
    for m in (8, 12, 24):
        field = gf2m.GF2m(m)
        fld = oracle.Field(m, field.modulus)
        pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(200)]
        a = np.array([p[0] for p in pairs], dtype=np.uint64)
        b = np.array([p[1] for p in pairs], dtype=np.uint64)
        assert fld.vmul(a, b).tolist() == [field.mul(x, y) for x, y in pairs]
        e = rng.randrange(1 << m)
        assert fld.vpow(a, e).tolist() == [field.pow(int(x), e) for x in a]


def test_rabin_test_matches_trial_division():
    for m in (4, 6, 8):
        cands = range(1 << m, 1 << (m + 1))
        assert [p for p in cands if oracle.is_irreducible(p)] == \
            [p for p in cands if gf2m.is_irreducible(p)]
    assert sum(oracle.is_irreducible(p) for p in range(1 << 8, 1 << 9)) == 30


@pytest.mark.parametrize("m", [8, 12])
def test_known_spectra_match_brute(m):
    field = gf2m.GF2m(m)
    for label, d, expected in oracle.sweep_exponents(m, random.Random(m)):
        entries = powerfn.spectrum_brute(powerfn.PowerFunction(field, d)).entries
        assert not oracle.spectrum_identity_errors(entries, m), label
        if expected is not None:
            assert entries == expected, label


def test_family_spectrum_and_branches_add_up():
    assert oracle.family_spectrum(3) == {0: 2295, 2: 1792, 56: 8, 64: 1}
    assert oracle.family_spectrum(1) == {0: 9, 2: 6, 4: 1}
    for n in (1, 2, 3, 6):
        assert not oracle.spectrum_identity_errors(oracle.family_spectrum(n), 4 * n)
        assert sum(oracle.family_branches(n).values()) == 1 << (4 * n)
    assert list(oracle.family_branches(3).values()) == [1, 1, 8, 54, 1792, 64, 448, 1728]


def test_strata_have_their_defining_property():
    p = theorem.TheoremParams(3)
    fld = oracle.Field(12, p.field.modulus)
    q = p.q
    strata = oracle.b_sample(fld, 3, run.PROBE_AUDIT_SIZES, 11)
    sub = set(p.field.subfield_elements(6))
    circle = theorem.unit_circle(p)
    assert all(b in circle and b != 1 for b in strata["circle"])
    assert all(b in sub and b not in circle for b in strata["subfield"])
    assert all(b not in sub and p.field.pow(b, q * q + 1) == 1 for b in strata["norm_gate"])
    assert all(b not in sub and p.field.abs_trace(b) == 0 for b in strata["zero_trace"])
    assert all(p.derivative_value(x0) == b and b not in sub for b, x0 in strata["image"])
    assert all(b not in sub for b, _ in strata["generic"])


def _audit_n3():
    ops = run.AuditOps((3,), run.PROBE_AUDIT_SIZES, seed=5)
    ops.setup()
    ops.prepare()
    return ops


def test_clean_operations_pass():
    opsets = [run.VerifyOps(2, 1), run.SweepOps(12, oracle.sweep_exponents(12, random.Random(1))),
              run.AuditOps((3,), run.PROBE_AUDIT_SIZES, seed=5)]
    for ops in opsets:
        ops.setup()
    opsets[2].prepare()
    run.run_rounds(opsets, 0)
    attempted, failed = run.collect_failures(opsets)
    assert attempted == 1 + 6 + len(opsets[2].sample) + len(opsets[2].constructors)
    assert failed == []


def test_planted_wrong_spectrum_is_counted_failed(monkeypatch):
    real = powerfn.spectrum_brute

    def wrong(f):
        s = real(f)
        entries = dict(s.entries)
        entries[0] -= 2
        entries[2] = entries.get(2, 0) + 1    # totals still 2^m, solutions do not
        return powerfn.Spectrum(s.m, s.d, s.poly, entries)

    monkeypatch.setattr(powerfn, "spectrum_brute", wrong)
    ops = run.SweepOps(12, oracle.sweep_exponents(12, random.Random(2)))
    ops.setup()
    run.run_rounds([ops], 0)
    attempted, failed = run.collect_failures([ops])
    assert attempted == 6 and len(failed) == 6
    assert any("!= known" in msg for msg in failed)


def test_planted_known_spectrum_swap_is_counted_failed(monkeypatch):
    real = powerfn.spectrum_brute
    # The inverse's spectrum reported for every exponent passes the
    # identities but not the known spectra of the others.
    monkeypatch.setattr(powerfn, "spectrum_brute",
                        lambda f: real(powerfn.PowerFunction(f.field, f.field.order - 2)))
    ops = run.SweepOps(12, oracle.sweep_exponents(12, random.Random(3)))
    ops.setup()
    run.run_rounds([ops], 0)
    _, failed = run.collect_failures([ops])
    assert any("gold" in msg or "kasami" in msg or "family" in msg for msg in failed)


def test_planted_wrong_count_is_counted_failed(monkeypatch):
    ops = _audit_n3()
    real = theorem.case_trace
    victims = {b for _, b, stratum, _ in ops.sample if stratum == "image"}

    def wrong(params, b):
        t = real(params, b)
        if b in victims:
            return theorem.CaseTrace(t.b, t.case, 0, t.state)
        return t

    monkeypatch.setattr(theorem, "case_trace", wrong)
    run.run_rounds([ops], 0)
    _, failed = run.collect_failures([ops])
    assert len([m for m in failed if "image" in m]) == sum(
        1 for _, _, stratum, _ in ops.sample if stratum == "image")


def test_planted_non_solution_is_counted_failed(monkeypatch):
    ops = _audit_n3()
    real = theorem.solutions_off_subfield
    monkeypatch.setattr(theorem, "solutions_off_subfield",
                        lambda params, b: {x ^ 2 for x in real(params, b)})
    run.run_rounds([ops], 0)
    _, failed = run.collect_failures([ops])
    assert len([m for m in failed if "is not a solution" in m]) == 2


def test_planted_theorem_violation_is_counted_failed(monkeypatch):
    def boom(params):
        raise theorem.TheoremViolationError("planted")

    monkeypatch.setattr(theorem, "solutions_for_one", boom)
    ops = _audit_n3()
    run.run_rounds([ops], 0)
    _, failed = run.collect_failures([ops])
    assert failed == ["n=3 for_one(0x1) raised planted"]


def test_failing_verify_is_counted_failed(monkeypatch):
    monkeypatch.setattr(theorem, "spectrum_closed_form",
                        lambda params: powerfn.Spectrum(params.m, params.d,
                                                        params.field.modulus, {0: 1}))
    ops = run.VerifyOps(2, 2)
    run.run_rounds([ops], 0)
    _, failed = run.collect_failures([ops])
    assert len(failed) == 2 and "exited 1" in failed[0]


def test_traced_verify_reports_branches_and_self_time():
    """Tracing patches modules process-wide, so it runs in a child process."""
    code = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import run, spans
from diffspec import theorem, powerfn
tracer = spans.Tracer()
names = spans.install(tracer, run._observers())
ops = run.VerifyOps(2, 1)
tracer.active = True
run.run_rounds([ops], 0, tracer)
tracer.active = False
snap = tracer.snapshot()
print(json.dumps({{"failures": ops.failures(), "snap": snap,
                   "derivative_wrapped": hasattr(theorem.derivative_table, "__wrapped__"),
                   "brute_wrapped": hasattr(theorem.spectrum_brute, "__wrapped__"),
                   "spans": len(tracer.start_col),
                   "total_s": (max(tracer.end_col) - min(tracer.start_col)) / 1e9}}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=HERE.parent)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["failures"] == [None]
    assert res["derivative_wrapped"] and res["brute_wrapped"]
    snap = res["snap"]
    for branch, count in oracle.family_branches(2).items():
        assert snap[f"theorem.branch.{branch}"] == count
    assert snap["theorem.case_trace.calls"] == 256
    assert snap["powerfn.derivative_table.calls"] == 2
    assert snap["powerfn.elements_swept"] == 512
    self_total = sum(v for k, v in snap.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(res["total_s"], rel=1e-6)


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("run.py", "oracle.py", "spans.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "verify-n3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
