"""Command-line front end.

Four commands: ``spectrum`` (compute differential spectra by one or all
methods), ``verify`` (run the full three-way cross-check for a family
instance), ``delta`` (query one difference count, with the structured
case trace when it applies), and ``field-info`` (instance facts).

Instances are selected either by ``--n`` (the exponent-family instance
over GF(2^(4n))) or by ``--m``/``--d`` (any power function).  ``verify``
takes only ``--n`` and has no ``--method``: it always runs all three
routes.  Elements on the command line are hex bit vectors of the
polynomial-basis encoding.  Exit codes: 0 success (and, for verify,
pass), 1 validation error (any ``ValueError``, from argparse, the
instance checks here or the library), 2 guard exceeded, 3 a claim of
the structured solver or of the arithmetic failed (any
``TheoremViolationError``, and any ``ZeroDivisionError``, since no user
value reaches a divisor), 4 the ``--out`` or ``--log`` file could not
be written, 5 verify ran and reported ``pass: false``, or
``spectrum --method all`` reported ``agree: false``.  That ``agree``
needs the brute and structured counts to match for every b (it runs
verify's cross-check), not only the three spectra: equal histograms can
hide counts moved between b.  A verify payload's ``mismatch_count`` is
the number of b whose counts disagree, and ``mismatches`` lists the
first 32 of them by b; the csv and table formats print the count.

The environment variable ``DIFFSPEC_MAX_M`` may lower (never raise) the
built-in m <= 24 guard.  Identical configurations produce byte-identical
result payloads; ``--log PATH`` appends one JSON line per run with a
timestamp, the wall-clock duration, a ``config`` echo of the parsed
arguments (command, method, format, n, m, d, modulus, a, b in that
order, each only when set) and diagnostics kept outside the payload: the
peak resident set size, and for verify the seconds of each phase, the
dispatch-branch histogram and the brute sweep's thread count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import resource
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import powerfn, theorem
from .errors import GuardExceededError, TheoremViolationError
from .gf2m import GF2m, MAX_DEGREE, MIN_DEGREE, sweep_workers

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_THEOREM = 3
EXIT_IO = 4
EXIT_VERIFY_FAILED = 5

METHODS = ("brute", "structured", "closed-form", "all")
FORMATS = ("json", "csv", "table")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A dash and a digit start a value, not an option, so that a
        # negative hex value such as -0x1 reaches its range check.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


@dataclass
class RunRecord:
    timestamp: str
    duration_s: float
    config: dict
    payload: dict
    diagnostics: dict


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a hex value, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each build leaves
    a few hundred argparse objects in reference cycles."""
    parser = _Parser(prog="diffspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_method=True):
        p.add_argument("--n", type=int, help="family instance over GF(2^(4n))")
        p.add_argument("--m", type=int, help="field degree (requires --d)")
        p.add_argument("--d", type=int, help="exponent (with --m)")
        p.add_argument("--modulus", type=_hex_int, metavar="0xHEX",
                       help="irreducible modulus override")
        if with_method:
            p.add_argument("--method", choices=METHODS, default=None)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", help="write the formatted result to a file")
        p.add_argument("--log", help="append a JSON run record to this file")

    add_common(sub.add_parser("spectrum", help="compute a differential spectrum"))
    add_common(sub.add_parser("verify", help="three-way spectrum cross-check"),
               with_method=False)
    p_delta = sub.add_parser("delta", help="one difference count delta(a, b)")
    add_common(p_delta, with_method=False)
    p_delta.add_argument("--a", type=_hex_int, metavar="0xHEX", required=True)
    p_delta.add_argument("--b", type=_hex_int, metavar="0xHEX", required=True)
    add_common(sub.add_parser("field-info", help="instance facts"), with_method=False)
    return parser


def _effective_max_m() -> int:
    raw = os.environ.get("DIFFSPEC_MAX_M")
    if raw is None:
        return MAX_DEGREE
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"DIFFSPEC_MAX_M must be an integer, got {raw!r}")
    return min(MAX_DEGREE, value)


def _resolve(args: argparse.Namespace) -> None:
    """Reject a bad instance selection or one beyond the guard, and set
    ``args.method``: the one given, else brute for spectrum, all for verify."""
    args.method = (getattr(args, "method", None) or
                   {"spectrum": "brute", "verify": "all"}.get(args.command))
    if (args.n is None) == (args.m is None):
        raise ValueError("select an instance with exactly one of --n or --m/--d")
    if args.command == "verify" and args.n is None:
        raise ValueError("verify needs the --n instance selector")
    max_m = _effective_max_m()
    if args.n is not None:
        if args.d is not None:
            raise ValueError("--d needs --m; the --n instance fixes its own exponent")
        if args.n < 1:
            raise ValueError(f"--n must be a positive integer, got {args.n}")
        if 4 * args.n > max_m:
            raise GuardExceededError(
                f"n={args.n} needs degree {4 * args.n}, beyond the m <= {max_m} guard"
            )
    else:
        if args.d is None:
            raise ValueError("--m requires --d")
        if args.m < MIN_DEGREE:
            raise ValueError(f"--m must be an integer >= {MIN_DEGREE}, got {args.m}")
        if args.m > max_m:
            raise GuardExceededError(f"m={args.m} exceeds the m <= {max_m} guard")
        if args.method in ("structured", "closed-form", "all"):
            raise ValueError(f"method {args.method!r} needs the --n instance selector")


def _make_instance(args: argparse.Namespace):
    """(params or None, PowerFunction) for the selected instance."""
    if args.n is not None:
        params = theorem.TheoremParams(args.n, args.modulus)
        return params, params.power_function()
    field = GF2m(args.m, args.modulus)
    return None, powerfn.PowerFunction(field, args.d)


# -- payload builders --------------------------------------------------------

def _spectrum_payload(args: argparse.Namespace, diagnostics: dict) -> dict:
    params, f = _make_instance(args)
    if args.method == "all":
        report = theorem.verify_conjecture(params)
        spectra = (report.brute, report.structured, report.closed_form)
        return {
            "m": f.field.degree,
            "d": f.reported_exponent,
            "poly": f"0x{f.field.modulus:x}",
            "agree": (report.mismatch_count == 0
                      and all(s.entries == report.brute.entries for s in spectra)),
            "methods": {
                name: {"spectrum": s.to_json_dict()["spectrum"], "uniformity": s.uniformity}
                for name, s in zip(("brute", "structured", "closed_form"), spectra)
            },
        }
    if args.method == "brute":
        spectrum = powerfn.spectrum_brute(f)
    elif args.method == "structured":
        spectrum = powerfn.spectrum_from_counts(theorem.structured_counts(params)[0], f)
    else:
        spectrum = theorem.spectrum_closed_form(params)
    return {**spectrum.to_json_dict(), "method": args.method}


def _verify_payload(args: argparse.Namespace, diagnostics: dict) -> dict:
    start = time.perf_counter()
    params = theorem.TheoremParams(args.n, args.modulus)
    field_s = time.perf_counter() - start
    report = theorem.verify_conjecture(params)
    diagnostics.update(
        phases_s={k: round(v, 6) for k, v in {"field": field_s, **report.timings}.items()},
        branches=report.branches,
        sweep_workers=sweep_workers(params.field),
    )
    return report.to_json_dict()


def _delta_payload(args: argparse.Namespace, diagnostics: dict) -> dict:
    params, f = _make_instance(args)
    a, b = args.a, args.b
    payload = {
        "m": f.field.degree,
        "d": f.reported_exponent,
        "poly": f"0x{f.field.modulus:x}",
        "a": f"0x{a:x}",
        "b": f"0x{b:x}",
        "delta": powerfn.delta(f, a, b),
        "structured": None,
    }
    if params is not None and a == 1:
        trace = theorem.case_trace(params, b)
        info = {"count": trace.count, "case": trace.case}
        if trace.state is not None:
            st = trace.state
            info["A"] = f"0x{st.norm_term:x}"
            info["B"] = f"0x{st.cross_term:x}"
            info["C"] = f"0x{st.inv_gap:x}"
            info["circle_roots"] = [f"0x{r:x}" for r in st.circle_roots]
        payload["structured"] = info
    return payload


def _field_info_payload(args: argparse.Namespace, diagnostics: dict) -> dict:
    import math

    params, f = _make_instance(args)
    field, d = f.field, f.reported_exponent
    payload = {
        "m": field.degree,
        "poly": f"0x{field.modulus:x}",
        "field": field.describe(),
        "d": d,
        "gcd": math.gcd(f.exponent, field.order - 1),
    }
    if params is not None:
        payload.update(
            n=params.n,
            niho=theorem.is_niho_exponent(params.n),
            congruence=theorem.congruence_holds(params.n),
            mu_q_plus_1=len(theorem.unit_circle(params)),
        )
    else:
        payload.update(n=None, niho=None, congruence=None, mu_q_plus_1=None)
    return payload


# -- output formatting --------------------------------------------------------

def _csv_rows(command: str, payload: dict) -> list[list]:
    if command == "spectrum":
        if "methods" in payload:
            rows = [["method", "multiplicity", "count"]]
            for name, body in payload["methods"].items():
                rows += [[name, i, c] for i, c in body["spectrum"].items()]
            rows.append(["all", "agree", payload["agree"]])
            return rows
        rows = [["multiplicity", "count"]]
        rows += [[i, c] for i, c in payload["spectrum"].items()]
        return rows
    if command == "verify":
        rows = [["kind", "key", "value"]]
        for key in ("n", "d", "poly"):
            rows.append(["param", key, payload[key]])
        for section in ("closed_form", "brute"):
            rows += [[section, i, c] for i, c in payload[section].items()]
        rows += [["conjecture", k, v] for k, v in payload["conjecture"].items()]
        rows.append(["result", "pass", payload["pass"]])
        rows.append(["result", "mismatches", payload["mismatch_count"]])
        return rows
    # delta / field-info: flat key,value rows
    rows = [["key", "value"]]
    for key, value in payload.items():
        if isinstance(value, dict):
            rows += [[f"{key}.{k}", v] for k, v in value.items()]
        else:
            rows.append([key, value])
    return rows


def _format_table(command: str, payload: dict) -> str:
    lines = []
    if command == "spectrum":
        lines.append(f"m={payload['m']} d={payload['d']} poly={payload['poly']}")
        if "methods" in payload:
            for name, body in payload["methods"].items():
                buckets = "  ".join(f"w{i}={c}" for i, c in body["spectrum"].items())
                lines.append(f"{name:<12} {buckets}")
            lines.append(f"agree: {payload['agree']}")
        else:
            for i, c in payload["spectrum"].items():
                lines.append(f"  w{i} = {c}")
            lines.append(f"uniformity: {payload['uniformity']}")
    elif command == "verify":
        lines.append(f"n={payload['n']} d={payload['d']} poly={payload['poly']}")
        lines.append(f"pass: {payload['pass']}")
        lines.append("closed_form: " + "  ".join(f"w{i}={c}" for i, c in payload["closed_form"].items()))
        lines.append("brute:       " + "  ".join(f"w{i}={c}" for i, c in payload["brute"].items()))
        for key, value in payload["conjecture"].items():
            lines.append(f"{key}: {value}")
        lines.append(f"mismatches: {payload['mismatch_count']}")
    elif command == "delta":
        lines.append(
            f"delta(a={payload['a']}, b={payload['b']}) = {payload['delta']}"
            f"  [m={payload['m']} d={payload['d']}]"
        )
        info = payload["structured"]
        if info is not None:
            lines.append(f"case={info['case']} structured_count={info['count']}")
            for key in ("A", "B", "C"):
                if key in info:
                    lines.append(f"  {key} = {info[key]}")
            if info.get("circle_roots") is not None:
                lines.append(f"  circle_roots = {info['circle_roots']}")
    else:
        for key, value in payload.items():
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _render(args: argparse.Namespace, payload: dict) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2)
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_csv_rows(args.command, payload))
        return buf.getvalue().rstrip("\n")
    return _format_table(args.command, payload)


_BUILDERS = {
    "spectrum": _spectrum_payload,
    "verify": _verify_payload,
    "delta": _delta_payload,
    "field-info": _field_info_payload,
}


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far; ru_maxrss counts KiB
    on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _config(args: argparse.Namespace) -> dict:
    """The ``--log`` echo of the command line: each value set, hex for
    field elements and moduli, in one fixed key order."""
    cfg = {}
    for key in ("command", "method", "format", "n", "m", "d", "modulus", "a", "b"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = f"0x{value:x}" if key in ("modulus", "a", "b") else value
    return cfg


def run(args: argparse.Namespace) -> RunRecord:
    """Build the payload for ``_resolve``d ``args``; builders add their
    diagnostics to the record's."""
    start = time.monotonic()
    diagnostics: dict = {}
    payload = _BUILDERS[args.command](args, diagnostics)
    diagnostics["peak_rss_mb"] = _peak_rss_mb()
    return RunRecord(
        timestamp=datetime.now(timezone.utc).isoformat(),
        duration_s=round(time.monotonic() - start, 6),
        config=_config(args),
        payload=payload,
        diagnostics=diagnostics,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve(args)
        record = run(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (TheoremViolationError, ZeroDivisionError) as exc:
        print(f"theorem violated: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    text = _render(args, record.payload)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps(asdict(record)) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if not record.payload.get("pass", True) or not record.payload.get("agree", True):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
