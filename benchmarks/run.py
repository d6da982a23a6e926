#!/usr/bin/env python3
"""diffspec benchmark: three workloads, each run in its own process.

    python3 benchmarks/run.py --workload verify-n3 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` is the separate traced run: it times one untraced reference
round, then wraps the public functions of ``gf2m``, ``powerfn``,
``theorem`` and ``cli`` (see ``spans.py``), sets up again and repeats the
rounds under tracing, and reports the per-layer metrics.  Without
``--workload`` every workload is run, untraced and traced, one process
each.

A run is a closed loop of whole rounds on one thread: each operation
starts when the last one ends, and rounds repeat until ``--seconds`` have
passed.  Every round of a run repeats the same seeded inputs.  Each
workload has one focus, the operation it exists to measure, plus small
fixed probes for the end-to-end metrics that belong to the other
workloads, since every run reports every metric (README.md lists which
is which).  After the measured phase each output is checked against
``oracle.py``; an operation fails when it raises TheoremViolationError,
when ``verify`` exits non-zero or when a check rejects its output.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
try:
    from diffspec import cli, gf2m, powerfn, theorem
    from diffspec.errors import TheoremViolationError
    _IMPORT_ERROR = None
except ImportError as exc:  # reported by main(); no result is printed
    _IMPORT_ERROR = exc

WORKLOADS = ("verify-n3", "brute-scan-m24", "structured-audit")
SETUP_MIN_REPEATS = 3    # set-up is repeated at least this often ...
SETUP_MIN_SECONDS = 1.0  # ... and until this much time has gone into it
SETUP_MAX_REPEATS = 9
BRUTE_MAX_N = 5          # audit counts at n <= 5 are also checked against a brute table
PROBE_SWEEP_M = 18       # a degree no workload's focus uses
PROBE_VERIFY_N = 2
PROBE_VERIFY_REPEATS = 4
PROBE_AUDIT_N = 4
FOCUS_AUDIT_SIZES = {"b0": 1, "b1": 1, "circle": 24, "subfield": 24, "norm_gate": 16,
                     "zero_trace": 32, "image": 64, "generic": 160}
PROBE_AUDIT_SIZES = {"b0": 1, "b1": 1, "circle": 8, "subfield": 16, "norm_gate": 8,
                     "zero_trace": 16, "image": 32, "generic": 96}

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "sweep_s": "s",
                    "count_b_per_s": "b/s", "construct_s": "s", "peak_rss_mb": "MB"}
BRANCHES = ("b0", "b1", "unit_circle", "subfield", "quadratic2", "quadratic0.norm_gate",
            "quadratic0.zero_trace", "quadratic0.off_circle")
PER_LAYER = (
    "gf2m.mul.calls", "gf2m.mul.self_s", "gf2m.check.calls", "gf2m.check.per_mul",
    "gf2m.pow.calls", "gf2m.pow.self_s", "gf2m.inv.calls",
    "gf2m.frobenius_pow.calls", "gf2m.frobenius_pow.self_s",
    "gf2m.solve_quadratic.calls", "gf2m.solve_quadratic.self_s",
    "gf2m.log_tables.self_s", "gf2m.primitive_element.self_s",
    "gf2m.smallest_irreducible.self_s", "gf2m.subfield_elements.self_s",
    "powerfn.image_table.self_s", "powerfn.derivative_table.calls",
    "powerfn.derivative_table.self_s", "powerfn.spectrum_brute.self_s",
    "powerfn.elements_swept",
    "theorem.case_trace.calls", "theorem.case_trace.self_s",
    "theorem.circle_pair_state.calls", "theorem.circle_pair_state.self_s",
    *(f"theorem.branch.{b}" for b in BRANCHES),
    "theorem.solutions_for_one.self_s", "theorem.solutions_on_circle.self_s",
    "theorem.solutions_off_subfield.self_s", "theorem.circle_witnesses.self_s",
    "theorem.circle_witnesses.admit_ratio",
    "theorem.verify_conjecture.self_s", "theorem.unit_circle.self_s",
    "theorem.spectrum_closed_form.self_s",
    "cli.main.self_s", "cli.run.self_s",
    "trace.overhead_s",
)


def branch_of(trace) -> str:
    """The dispatch branch a returned CaseTrace went through."""
    if trace.case == "quadratic":
        if trace.count == 2:
            return "quadratic2"
        if trace.state.norm_term == 0:
            return "quadratic0.norm_gate"
        if trace.state.pair_sum == 0:
            return "quadratic0.zero_trace"
        return "quadratic0.off_circle"
    return {"b=0": "b0", "b=1": "b1", "unit-circle": "unit_circle",
            "subfield": "subfield"}.get(trace.case, f"unknown:{trace.case}")


# -- operation sets ---------------------------------------------------------------
#
# Each set sets up its program objects, hands out one round's operations as
# steps (zero-argument callables that time and record one operation each),
# and after the measured phase returns one failure message (or None) per
# operation it ran.

class VerifyOps:
    """``diffspec verify --n N`` through ``cli.main``, a fresh instance each call."""

    def __init__(self, n: int, repeats: int, modulus: int | None = None):
        self.n = n
        self.repeats = repeats
        self.argv = ["verify", "--n", str(n)]
        if modulus is not None:
            self.argv += ["--modulus", f"0x{modulus:x}"]
        self.modulus = modulus
        self.samples: list[float] = []
        self.records: list[tuple] = []

    def setup(self):
        pass

    def teardown(self):
        pass

    def steps(self, tracer) -> list:
        return [functools.partial(self._verify, tracer)] * self.repeats

    def _verify(self, tracer):
        before = dict(tracer.counts) if tracer is not None else None
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argv)
        self.samples.append(time.perf_counter() - start)
        branches = None
        if before is not None:
            keys = {k for k in tracer.counts if k.startswith("theorem.branch.")}
            branches = {k[len("theorem.branch."):]: tracer.counts[k] - before.get(k, 0)
                        for k in keys}
            branches = {k: v for k, v in branches.items() if v}
        self.records.append((rc, out.getvalue(), err.getvalue(), branches))

    def failures(self) -> list[str | None]:
        expected = {str(i): c for i, c in oracle.family_spectrum(self.n).items()}
        verdicts: dict[tuple, str | None] = {}
        out = []
        for rec in self.records:
            key = (rec[0], rec[1], rec[2], json.dumps(rec[3], sort_keys=True))
            if key not in verdicts:
                verdicts[key] = self._judge(*rec, expected)
            out.append(verdicts[key])
        return out

    def _judge(self, rc, text, err, branches, expected) -> str | None:
        if rc != 0:
            return f"verify --n {self.n} exited {rc}: {err.strip()[:200]}"
        try:
            payload = json.loads(text)
        except ValueError:
            return f"verify --n {self.n} printed no JSON"
        if payload.get("pass") is not True:
            return f"verify --n {self.n} reported pass={payload.get('pass')}"
        for route in ("brute", "closed_form"):
            if payload.get(route) != expected:
                return f"verify --n {self.n}: {route} spectrum {payload.get(route)} != paper {expected}"
        if payload.get("mismatches") != [] or not all(payload.get("conjecture", {}).values()):
            return f"verify --n {self.n}: mismatches or a failed clause"
        poly = int(payload.get("poly", "0x0"), 16)
        if self.modulus is not None and poly != self.modulus:
            return f"verify --n {self.n} used modulus 0x{poly:x}, asked for 0x{self.modulus:x}"
        if not (poly.bit_length() - 1 == 4 * self.n and oracle.is_irreducible(poly)):
            return f"verify --n {self.n} reported a modulus 0x{poly:x} that is not irreducible"
        if branches is not None:
            want = {k: v for k, v in oracle.family_branches(self.n).items() if v}
            if branches != want:
                return f"verify --n {self.n}: traced branch counts {branches} != {want}"
        return None


class SweepOps:
    """``spectrum_brute`` over one GF(2^m) for a seeded list of exponents."""

    def __init__(self, m: int, exponents: list[tuple[str, int, dict | None]]):
        self.m = m
        self.exponents = exponents
        self.field = None
        self.samples: list[list[float]] = [[] for _ in exponents]
        self.records: list[tuple] = []

    def setup(self):
        self.field = gf2m.GF2m(self.m)
        self.field.log_tables()

    def teardown(self):
        self.field = None

    def steps(self, tracer) -> list:
        return [functools.partial(self._sweep, slot) for slot in range(len(self.exponents))]

    def _sweep(self, slot: int):
        d = self.exponents[slot][1]
        start = time.perf_counter()
        try:
            result = powerfn.spectrum_brute(powerfn.PowerFunction(self.field, d)).entries
        except TheoremViolationError as exc:
            result = exc
        self.samples[slot].append(time.perf_counter() - start)
        self.records.append((slot, result))

    def failures(self) -> list[str | None]:
        out = []
        for slot, result in self.records:
            label, _, expected = self.exponents[slot]
            if isinstance(result, Exception):
                out.append(f"m={self.m} {label}: {result}")
                continue
            errors = oracle.spectrum_identity_errors(result, self.m)
            if expected is not None and dict(result) != expected:
                errors.append(f"spectrum {dict(result)} != known {expected}")
            out.append(f"m={self.m} {label}: {'; '.join(errors)}" if errors else None)
        return out


class AuditOps:
    """Structured counts on a stratified sample of b, then solution-set constructors.

    ``solutions_for_one`` and ``solutions_on_circle`` run only where
    n <= BRUTE_MAX_N: at n = 6 each is a single call of several seconds
    whose time swings with host contention, so n = 6 is constructed
    through ``solutions_off_subfield`` alone.
    """

    def __init__(self, ns: tuple[int, ...], sizes: dict[str, int], seed: int):
        self.ns = ns
        self.sizes = sizes
        self.seed = seed
        self.params: dict[int, object] = {}
        self.fields: dict[int, oracle.Field] = {}
        self.sample: list[tuple] = []        # (n, b, stratum, extra)
        self.constructors: list[tuple] = []  # (n, kind, b, expected set or None)
        # Per sample position and per constructor slot: one entry a round.
        self.count_times: list[list[float]] = []
        self.count_results: list[list] = []
        self.construct_times: list[list[float]] = []
        self.construct_results: list[list] = []

    def setup(self):
        self.params = {n: theorem.TheoremParams(n) for n in self.ns}
        for n, p in self.params.items():
            p.field.subfield_elements(2 * n)
            p.field.subfield_elements(n)
            p.field.artin_schreier_solver()

    def teardown(self):
        self.params = {}

    def prepare(self):
        """Draw the seeded inputs; needs the moduli the set-up chose."""
        rng = random.Random(self.seed)
        self.sample, self.constructors = [], []
        for n in self.ns:
            fld = oracle.Field(4 * n, self.params[n].field.modulus)
            self.fields[n] = fld
            strata = oracle.b_sample(fld, n, self.sizes, self.seed * 1000 + n)
            for stratum, items in strata.items():
                for item in items:
                    b, extra = item if isinstance(item, tuple) else (item, None)
                    self.sample.append((n, b, stratum, extra))
            b_circle = strata["circle"][0]
            (b_img0, x0), (b_img1, x1) = strata["image"][:2]
            if n <= BRUTE_MAX_N:
                self.constructors += [(n, "for_one", 1, None),
                                      (n, "on_circle", b_circle, None)]
            self.constructors += [
                (n, "off_subfield", b_img0, {x0, x0 ^ 1}),
                (n, "off_subfield", b_img1, {x1, x1 ^ 1}),
                (n, "off_subfield", strata["norm_gate"][0], set()),
            ]
        rng.shuffle(self.sample)
        self.count_times = [[] for _ in self.sample]
        self.count_results = [[] for _ in self.sample]
        self.construct_times = [[] for _ in self.constructors]
        self.construct_results = [[] for _ in self.constructors]

    def steps(self, tracer) -> list:
        return ([functools.partial(self._count, i) for i in range(len(self.sample))]
                + [functools.partial(self._construct, s) for s in range(len(self.constructors))])

    def _count(self, i: int):
        n, b, _, _ = self.sample[i]
        start = time.perf_counter()
        try:
            ct = theorem.case_trace(self.params[n], b)
            result = (ct.count, branch_of(ct))
        except TheoremViolationError as exc:
            result = exc
        self.count_times[i].append(time.perf_counter() - start)
        self.count_results[i].append(result)

    def _construct(self, slot: int):
        n, kind, b, _ = self.constructors[slot]
        p = self.params[n]
        start = time.perf_counter()
        try:
            if kind == "for_one":
                result = theorem.solutions_for_one(p)
            elif kind == "on_circle":
                result = theorem.solutions_on_circle(p, b)
            else:
                result = theorem.solutions_off_subfield(p, b)
        except TheoremViolationError as exc:
            result = exc
        self.construct_times[slot].append(time.perf_counter() - start)
        self.construct_results[slot].append(result)

    def failures(self) -> list[str | None]:
        tables = {}
        for n in self.ns:
            if n <= BRUTE_MAX_N:
                tables[n] = np.asarray(powerfn.derivative_table(self.params[n].power_function()))
        out = [self._judge_count(entry, got, tables)
               for entry, results in zip(self.sample, self.count_results) for got in results]
        for spec, results in zip(self.constructors, self.construct_results):
            verdicts: dict[object, str | None] = {}
            for got in results:
                key = repr(got) if isinstance(got, Exception) else tuple(sorted(got))
                if key not in verdicts:
                    verdicts[key] = self._judge_construct(spec, got, tables)
                out.append(verdicts[key])
        return out

    def _judge_count(self, entry, got, tables) -> str | None:
        n, b, stratum, extra = entry
        if isinstance(got, Exception):
            return f"n={n} case_trace(0x{b:x}) raised {got}"
        count, branch = got
        q = 1 << n
        want = {
            "b0": (0, "b0"), "b1": (q * q, "b1"), "circle": (q * q - q, "unit_circle"),
            "subfield": (0, "subfield"), "norm_gate": (0, "quadratic0.norm_gate"),
            "zero_trace": (0, "quadratic0.zero_trace"), "image": (2, "quadratic2"),
        }.get(stratum)
        if stratum == "generic":
            want = {"norm": (0, "quadratic0.norm_gate"),
                    "trace": (0, "quadratic0.zero_trace")}.get(extra)
            if want is None:   # open gate: 0 or 2, by the circle roots
                want = (2, "quadratic2") if count == 2 else (0, "quadratic0.off_circle")
        if (count, branch) != want:
            return (f"n={n} {stratum} b=0x{b:x}: count {count} via {branch}, "
                    f"expected {want[0]} via {want[1]}")
        if n in tables and count != int(np.count_nonzero(tables[n] == b)):
            return f"n={n} b=0x{b:x}: structured count {count} != brute count"
        return None

    def _judge_construct(self, spec, got, tables) -> str | None:
        n, kind, b, expected = spec
        label = f"n={n} {kind}(0x{b:x})"
        if isinstance(got, Exception):
            return f"{label} raised {got}"
        fld = self.fields[n]
        q = 1 << n
        xs = np.array(sorted(got), dtype=np.uint64)
        if len(xs) != len(got):
            return f"{label} returned duplicates"
        values = fld.derivative(xs, oracle.family_exponent(n))
        if np.any(values != np.uint64(b)):
            bad = int(xs[np.argmax(values != np.uint64(b))])
            return f"{label}: 0x{bad:x} is not a solution"
        in_sub = fld.vpow(xs, q * q) == xs
        if kind == "for_one" and (len(xs) != q * q or not np.all(in_sub)):
            return f"{label}: {len(xs)} solutions, expected all of GF(q^2)"
        if kind == "on_circle" and (len(xs) != q * q - q or np.any(in_sub)):
            return f"{label}: {len(xs)} solutions, expected q^2 - q off GF(q^2)"
        if expected is not None and set(got) != expected:
            return f"{label}: {sorted(got)} != {sorted(expected)}"
        if n in tables and set(got) != set(np.flatnonzero(tables[n] == b).tolist()):
            return f"{label}: differs from the brute solution set"
        return None


def build(workload: str, seed: int) -> list:
    """The operation sets of one workload, focus first, inputs drawn from the seed."""
    rng = random.Random(seed)
    if workload == "verify-n3":
        return [VerifyOps(3, 1, modulus=oracle.random_irreducible(12, rng)),
                SweepOps(PROBE_SWEEP_M, oracle.sweep_exponents(PROBE_SWEEP_M, rng)),
                AuditOps((PROBE_AUDIT_N,), PROBE_AUDIT_SIZES, seed)]
    if workload == "brute-scan-m24":
        return [SweepOps(24, oracle.sweep_exponents(24, rng)),
                VerifyOps(PROBE_VERIFY_N, PROBE_VERIFY_REPEATS),
                AuditOps((PROBE_AUDIT_N,), PROBE_AUDIT_SIZES, seed)]
    if workload == "structured-audit":
        return [AuditOps((5, 6), FOCUS_AUDIT_SIZES, seed),
                VerifyOps(PROBE_VERIFY_N, PROBE_VERIFY_REPEATS),
                SweepOps(PROBE_SWEEP_M, oracle.sweep_exponents(PROBE_SWEEP_M, rng))]
    raise ValueError(f"unknown workload {workload!r}")


def setup_all(opsets) -> float:
    for ops in opsets:
        ops.teardown()
    gc.collect()
    start = time.perf_counter()
    for ops in opsets:
        ops.setup()
    return time.perf_counter() - start


def run_round(opsets, tracer=None):
    """One round: the focus set's steps with the probes' steps spread
    evenly between them, so probe timings sample the whole run."""
    focus, *probes = [ops.steps(tracer) for ops in opsets]
    k = len(focus)
    for i, step in enumerate(focus):
        step()
        for steps in probes:
            for probe in steps[len(steps) * i // k: len(steps) * (i + 1) // k]:
                probe()


def run_rounds(opsets, seconds: float, tracer=None) -> list[float]:
    """Whole rounds until ``seconds`` have passed; returns each round's wall time."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        run_round(opsets, tracer)
        times.append(time.perf_counter() - t)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def collect_failures(opsets) -> tuple[int, list[str]]:
    attempted, failed = 0, []
    for ops in opsets:
        verdicts = ops.failures()
        attempted += len(verdicts)
        failed += [v for v in verdicts if v is not None]
    return attempted, failed


def low_quartile(samples: list[float]) -> float:
    """The lower quartile of a run's timings of one operation.

    Other tenants of a shared host slow every operation by up to ~1.5x in
    phases lasting seconds; they never speed one up.  The median of a run
    then lands on whichever phase dominated it, while the lower quartile
    tracks the program's own speed from run to run.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def end_to_end(opsets, setup_s: float) -> dict[str, float]:
    """Each timed operation slot repeats once per round; its time is the
    lower quartile over the rounds."""
    metrics = {"setup_s": setup_s}
    for ops in opsets:
        if isinstance(ops, VerifyOps):
            metrics["verify_s"] = low_quartile(ops.samples)
        elif isinstance(ops, SweepOps):
            metrics["sweep_s"] = statistics.median(low_quartile(t) for t in ops.samples)
        else:
            metrics["count_b_per_s"] = len(ops.sample) / sum(map(low_quartile, ops.count_times))
            metrics["construct_s"] = sum(map(low_quartile, ops.construct_times))
    return metrics


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter; the benchmark's
    own process can import it only once."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "from diffspec import cli, gf2m, powerfn, theorem; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def measure_setup(opsets) -> float:
    """Median import time plus median set-up time over several repeats."""
    imports, setups = [], []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(imports) + sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        imports.append(import_seconds())
        setups.append(setup_all(opsets))
    return statistics.median(imports) + statistics.median(setups)


def _observers() -> dict:
    def on_case_trace(counts, args, result):
        counts[f"theorem.branch.{branch_of(result)}"] += 1

    def on_derivative_table(counts, args, result):
        counts["powerfn.elements_swept"] += len(result)

    def on_circle_witnesses(counts, args, result):
        counts["theorem.circle_witnesses.returned"] += len(result)

    return {"theorem.case_trace": on_case_trace,
            "powerfn.derivative_table": on_derivative_table,
            "theorem.circle_witnesses": on_circle_witnesses}


def per_layer(setup_snap: dict, round_snaps: list[dict], overhead_s: float) -> dict[str, float]:
    """Each value is the traced set-up plus one round (the mean of identical rounds)."""
    rounds = len(round_snaps) - 1
    final = round_snaps[-1]

    def value(key):
        base = setup_snap.get(key, 0)
        v = base + (final.get(key, 0) - round_snaps[0].get(key, 0)) / rounds
        return int(v) if not key.endswith("_s") and float(v).is_integer() else v

    out = {name: value(name) for name in PER_LAYER
           if name.endswith((".calls", ".self_s")) or ".branch." in name}
    out["powerfn.elements_swept"] = value("powerfn.elements_swept")
    out["gf2m.check.per_mul"] = value("gf2m.check.calls") / max(value("gf2m.mul.calls"), 1)
    out["theorem.circle_witnesses.admit_ratio"] = (
        value("theorem.circle_witnesses.returned")
        / max(value("gf2m.subfield_abs_trace.calls"), 1))
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("per_mul", "admit_ratio")):
        return "ratio"
    return "count"


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    opsets = build(workload, seed)
    setup_s = measure_setup(opsets)
    for ops in opsets:
        if isinstance(ops, AuditOps):
            ops.prepare()
    run_rounds(opsets, seconds)
    rss = peak_rss_mb()
    attempted, failed = collect_failures(opsets)
    metrics = end_to_end(opsets, setup_s)
    metrics["peak_rss_mb"] = rss
    return {"attempted": attempted, "failed": failed, "problems": [],
            "metrics": {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]}
                        for k in END_TO_END_UNITS}}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    opsets = build(workload, seed)
    setup_all(opsets)
    for ops in opsets:
        if isinstance(ops, AuditOps):
            ops.prepare()
    reference = run_rounds(opsets, 0)[0]

    tracer = spans.Tracer()
    spans.install(tracer, _observers())
    tracer.active = True
    setup_all(opsets)
    tracer.active = False
    setup_snap = tracer.snapshot()

    round_snaps = [setup_snap]
    round_times = []
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        tracer.active = True
        run_round(opsets, tracer)
        tracer.active = False
        round_times.append(time.perf_counter() - t)
        round_snaps.append(tracer.snapshot())
    tracer.save(HERE / "traces" / f"{workload}.npz")

    problems = []
    counted = [k for k in round_snaps[-1] if k.endswith(".calls") or ".branch." in k]
    first = {k: round_snaps[1].get(k, 0) - setup_snap.get(k, 0) for k in counted}
    for i in range(2, len(round_snaps)):
        for key in counted:
            made = round_snaps[i].get(key, 0) - round_snaps[i - 1].get(key, 0)
            if made != first[key]:
                problems.append(f"{key}: round {i} counted {made}, round 1 {first[key]}")
    attempted, failed = collect_failures(opsets)
    layers = per_layer(setup_snap, round_snaps, statistics.median(round_times) - reference)
    return {"attempted": attempted, "failed": failed, "problems": problems[:20],
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}}


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            summary[f"{workload} trace={trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _IMPORT_ERROR is not None:
        print(f"error: cannot import diffspec from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: diffspec was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    failed = result["failed"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>18.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {len(failed)}")
    for msg in failed[:10] + result["problems"]:
        print(f"  {msg}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": len(failed), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
