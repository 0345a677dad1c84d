"""Command-line front end: derive inequalities from sum-of-squares
files, check observed correlators for a joint distribution, and rerun
every reference number the package reproduces.

Reports print as readable text by default; --format json emits a stable
machine-readable record (sorted keys, fixed seeds, no timestamps), and
--format csv is available for the envelope scan table.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import catalog
from .dsl import VariableId, format_sos, parse_scenario, parse_sos, parse_variable
from .errors import EvenGroupWarning, TermOutsideContext, TooManyVariables
from .lhv import classical_extrema, jd_feasibility, monogamy_check, nodisturbance_optimum
from .optimize import maximize_violation, scan_envelope
from .polynomials import (
    classify,
    derive_inequality,
    format_inequality,
    format_varset,
    letter_scenario,
    term_kinds,
    validate_odd_groups,
)
from .protocol import estimate_f, signaling_test
from .quantum import (
    build_f_operator,
    evaluate_inequality_quantum,
    hybrid_f_product,
    hybrid_settings,
    operator_norm,
    plane_vector,
    product_ladder_settings,
    product_state,
    row_dot,
    s2_square_closed_form,
    singlet_state,
)

DEFAULT_SEED = 12345
DEFAULT_SHOTS = 1_000_000
DEFAULT_GRID = 1000
DEFAULT_TOLERANCE = 1e-7

SQRT8 = float(2 * np.sqrt(2))

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _human_lines(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                yield f"{pad}{key}:"
                yield from _human_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(value)}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _human_lines(value, indent + 1)
            else:
                yield f"{pad}- {_scalar(value)}"
    else:
        yield f"{pad}{_scalar(obj)}"


def _scalar(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list) and not value:
        return "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")
    else:
        for line in _human_lines(_jsonable(report)):
            sys.stdout.write(line + "\n")


def _check(name, actual, expected, tolerance):
    """One pass/fail record; tolerance None means exact equality."""
    if tolerance is None:
        ok = actual == expected
    else:
        ok = abs(float(actual) - float(expected)) <= tolerance
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "tolerance": "exact" if tolerance is None else tolerance,
        "pass": bool(ok),
    }


def _finish(report: dict) -> dict:
    report["ok"] = all(c["pass"] for c in report.get("checks", ()))
    return report


# ---------------------------------------------------------------- derive

def cmd_derive(args) -> int:
    source = parse_sos(Path(args.input).read_text())
    verdicts = validate_odd_groups(source)
    with warnings.catch_warnings():  # one `warning: ...` line, like the `error: ...` lines
        warnings.simplefilter("always", EvenGroupWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        ineq = derive_inequality(source)
    scenario = (
        parse_scenario(Path(args.scenario).read_text())
        if args.scenario
        else letter_scenario(ineq.variables())
    )
    # before term_kinds, so an undeclared variable gets classify's UnmappedVariable
    classification = classify(ineq, scenario)
    extrema = classical_extrema(ineq)
    report = {
        "input": args.input,
        "source": format_sos(source),
        "inequality": format_inequality(ineq),
        "direction": ineq.direction,
        "bound": ineq.bound,
        "groups": [
            {
                "terms": v.term_count,
                "coefficient_sum": v.coefficient_sum,
                "parity": v.parity,
                "implied_bound": v.implied_bound,
            }
            for v in verdicts
        ],
        "classical": {
            "minimum": extrema.minimum,
            "maximum": extrema.maximum,
            "assignments_checked": extrema.assignments_checked,
        },
        "term_kinds": {
            format_varset(pair): kind for pair, kind in sorted(
                term_kinds(ineq.terms, scenario).items(),
                key=lambda item: sorted(item[0], key=VariableId.sort_key),
            )
        },
        "classification": classification,
    }
    emit(report, args.format)
    return 0


# ----------------------------------------------------------------- check

def _pair_key(key: str) -> frozenset:
    tokens = key.replace(",", " ").split()
    if len(tokens) == 1:  # glued, as in X1Y2: split before each capital
        tokens = re.split(r"(?<=.)(?=[A-Z])", tokens[0])
    if len(tokens) != 2:
        raise ValueError(f"correlator key {key!r} must name two variables")
    a, b = map(parse_variable, tokens)
    if a == b:
        raise ValueError(f"correlator key {key!r} repeats a variable")
    return frozenset((a, b))


def _refuse_repeated_keys(pairs):
    """json object hook: a key written twice is an error, not last-one-wins."""
    data = dict(pairs)
    if len(data) < len(pairs):
        key = Counter(k for k, _ in pairs).most_common(1)[0][0]
        raise ValueError(f"key {key!r} is given twice in one JSON object")
    return data


def _read_values(entries: dict, parse, label) -> dict:
    """Parse each key of a JSON object; two keys that name the same thing are an error."""
    out = {}
    for key, value in entries.items():
        parsed = parse(key)
        if parsed in out:
            raise ValueError(f"{label(parsed)} is given twice")
        out[parsed] = float(value)
    return out


def cmd_check(args) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    data = json.loads(Path(args.input).read_text(), object_pairs_hook=_refuse_repeated_keys)
    observed = _read_values(
        data.get("correlators", {}), _pair_key, lambda pair: f"correlator for {format_varset(pair)}"
    )
    if not observed:
        raise ValueError("no correlators found in the input file")
    means = _read_values(
        data.get("means", {}), lambda key: parse_variable(key.strip()), lambda var: f"mean of {var}"
    ) or None
    result = jd_feasibility(scenario, observed, means, tolerance=args.tolerance)
    report = {
        "scenario": args.scenario,
        "input": args.input,
        "tolerance": args.tolerance,
        "feasible": result.feasible,
    }
    if result.model is not None:
        report["witness"] = {
            "support_size": len(result.model.support),
            "max_weight": max(w for _, w in result.model.support),
        }
    if result.certificate is not None:
        cert = result.certificate
        report["certificate"] = {
            "combination": {
                format_varset(pair): coeff
                for pair, coeff in sorted(
                    cert.pair_coefficients.items(),
                    key=lambda item: sorted(item[0], key=VariableId.sort_key),
                )
            },
            "means": {str(v): c for v, c in sorted(cert.mean_coefficients.items())},
            "classical_bound": cert.bound,
            "observed_value": cert.observed_value,
            "violation": cert.violation,
        }
        if not cert.mean_coefficients:
            try:
                nd = nodisturbance_optimum(scenario, cert.pair_coefficients, "max")
                report["certificate"]["nodisturbance_max"] = nd.value
            except (TermOutsideContext, TooManyVariables):
                report["certificate"]["nodisturbance_max"] = None
    emit(report, args.format)
    return 0 if result.feasible else 1


# ------------------------------------------------------------- reproduce

def _target_chsh_bound(args) -> dict:
    ineq = derive_inequality(catalog.chsh_source())
    extrema = classical_extrema(ineq)
    return _finish({
        "target": "chsh-bound",
        "inequality": format_inequality(ineq),
        "checks": [
            _check("derived-bound", ineq.bound, Fraction(2), None),
            _check("direction", ineq.direction, "<=", None),
            _check("term-count", len(ineq.terms), 4, None),
            _check("classical-max", extrema.maximum, 2, None),
        ],
    })


def _target_kcbs_bound(args) -> dict:
    ineq = derive_inequality(catalog.kcbs_source())
    extrema = classical_extrema(ineq)
    return _finish({
        "target": "kcbs-bound",
        "inequality": format_inequality(ineq),
        "checks": [
            _check("derived-bound", ineq.bound, Fraction(-3), None),
            _check("direction", ineq.direction, ">=", None),
            _check("classical-min", extrema.minimum, -3, None),
        ],
    })


def _target_ncycle_bounds(args) -> dict:
    checks = []
    for n in (5, 7, 9, 11):
        cyc = derive_inequality(catalog.cycle_source(n))
        lo = classical_extrema(cyc).minimum
        checks.append(_check(f"cycle-{n}-bound", cyc.bound, Fraction(-(n - 2)), None))
        checks.append(_check(f"cycle-{n}-classical-min", lo, -(n - 2), None))
        chain = derive_inequality(catalog.alternating_cycle_source(n))
        hi = classical_extrema(chain).maximum
        checks.append(_check(f"chain-{n}-bound", chain.bound, Fraction(n - 2), None))
        checks.append(_check(f"chain-{n}-classical-max", hi, n - 2, None))
    seven = derive_inequality(catalog.cycle7_source())
    checks.append(_check("cycle-7-offset-form-bound", seven.bound, Fraction(-5), None))
    return _finish({"target": "ncycle-bounds", "checks": checks})


def _target_lg_bound(args) -> dict:
    ineq = derive_inequality(catalog.lg_source())
    extrema = classical_extrema(ineq)
    return _finish({
        "target": "lg-bound",
        "inequality": format_inequality(ineq),
        "checks": [
            _check("derived-bound", ineq.bound, Fraction(2), None),
            _check("classical-max", extrema.maximum, 2, None),
        ],
    })


def _target_hybrid_singlet(args) -> dict:
    ineq = derive_inequality(catalog.hybrid_source())
    found = maximize_violation(ineq, singlet_state())
    norm = operator_norm(build_f_operator(found.settings)[0])
    ladder = evaluate_inequality_quantum(ineq, singlet_state(), hybrid_settings())
    return _finish({
        "target": "hybrid-singlet",
        "inequality": format_inequality(ineq),
        "optimum": found.value,
        "evaluations": found.evaluations,
        "settings": {str(v): list(map(float, vec)) for v, vec in sorted(found.settings.items())},
        "checks": [
            _check("optimizer-value", found.value, SQRT8, 1e-6),
            _check("operator-norm-agrees", norm, found.value, 1e-9),
            _check("ladder-value", ladder, SQRT8, 1e-9),
        ],
    })


def _target_hybrid_product(args) -> dict:
    ineq = derive_inequality(catalog.hybrid_source())
    settings = product_ladder_settings()
    direction = settings[VariableId("Y", 2)]
    analytic = hybrid_f_product(direction, direction, settings)
    rho = product_state(direction, direction)
    matrix = evaluate_inequality_quantum(ineq, rho, settings)
    expected = float(3 / np.sqrt(2))
    return _finish({
        "target": "hybrid-product",
        "state_direction": list(map(float, direction)),
        "analytic_value": analytic,
        "matrix_value": matrix,
        "checks": [
            _check("analytic-value", analytic, expected, 1e-12),
            _check("matrix-agrees", matrix, analytic, 1e-12),
        ],
    })


def _target_tsirelson_envelope(args) -> dict:
    scan = scan_envelope(args.grid)
    spacing = 2 * np.pi / (args.grid - 1)
    quarter = np.pi / 4
    at_quarter = min(
        max(abs(scan.argmax[0] - s * quarter), abs(scan.argmax[1] + s * quarter))
        for s in (1, -1)
    )
    never_exceeds = {
        "name": "never-exceeds",
        "expected": f"<= {SQRT8!r}",
        "actual": scan.max_value,
        "tolerance": 1e-12,
        "pass": scan.max_value <= SQRT8 + 1e-12,
    }
    return _finish({
        "target": "tsirelson-envelope",
        "resolution": args.grid,
        "max": scan.max_value,
        "argmax": [scan.argmax[0], scan.argmax[1]],
        "checks": [
            _check("grid-max", scan.max_value, SQRT8, 1e-5),
            never_exceeds,
            _check("argmax-at-quarter-turn", at_quarter, 0.0, spacing),
        ],
    })


def _target_s2_identity(args) -> dict:
    rng = np.random.default_rng(args.seed)
    names = [VariableId("X", 1), VariableId("X", 2), VariableId("Y", 1), VariableId("Y", 2)]
    raw = rng.normal(size=(100, 4, 3))  # trial by trial, the stream of 100 draws of (4, 3)
    unit = raw / np.sqrt(row_dot(raw, raw))[..., None]  # the bits of np.linalg.norm per row
    settings = dict(zip(names, np.moveaxis(unit, 1, 0)))
    _, _, s2 = build_f_operator(settings)
    worst = float(np.abs(s2 @ s2 - s2_square_closed_form(settings)).max())
    return _finish({
        "target": "s2-identity",
        "seed": args.seed,
        "trials": 100,
        "max_deviation": worst,
        "checks": [_check("squared-operator-identity", worst, 0.0, 1e-12)],
    })


def _target_monogamy(args) -> dict:
    report_data = monogamy_check(catalog.monogamy_scenario(), catalog.monogamy_source())
    return _finish({
        "target": "monogamy",
        "symbolic_bound": report_data.symbolic_bound,
        "combined_nd_min": report_data.combined_nd_min,
        "chsh_nd_min": report_data.chsh_nd_min,
        "kcbs_nd_min": report_data.kcbs_nd_min,
        "kcbs_classical_min": report_data.kcbs_classical_min,
        "relaxed_min": report_data.relaxed_min,
        "checks": [
            _check("nd-minimum", report_data.combined_nd_min, -5.0, 1e-7),
            _check("matches-symbolic-bound", report_data.agreement, True, None),
            _check(
                "relaxation-goes-below",
                report_data.relaxed_min < -5.0 - 1e-7,
                True,
                None,
            ),
        ],
    })


def _target_protocol_mc(args) -> dict:
    settings = hybrid_settings()
    est = estimate_f(singlet_state(), settings, shots=args.shots, seed=args.seed)
    f_gap = abs(est.f_value - SQRT8)
    sig = signaling_test(
        product_state(plane_vector(0.0), settings[VariableId("Y", 2)]),
        settings,
        shots=args.shots,
        seed=args.seed,
    )
    gap = sig.difference
    gap_se = float(np.hypot(sig.se_alone, sig.se_after))
    return _finish({
        "target": "protocol-mc",
        "shots": args.shots,
        "seed": args.seed,
        "f_value": est.f_value,
        "f_stderr": est.f_stderr,
        "terms": {
            label: {"mean": t.mean, "stderr": t.stderr, "count": t.count}
            for label, t in sorted(est.terms.items())
        },
        "signaling": {
            "p_alone": sig.p_alone,
            "p_after_y1": sig.p_after_y1,
            "difference": gap,
        },
        "checks": [
            _check("f-near-quantum-value", est.f_value, SQRT8, 3 * est.f_stderr),
            _check("marginal-alone", sig.p_alone, 1.0, 3 * max(sig.se_alone, 1e-6)),
            _check("marginal-after", sig.p_after_y1, 0.75, 3 * max(sig.se_after, 1e-6)),
            _check("signaling-gap", gap, 0.25, 3 * max(gap_se, 1e-6)),
        ],
    })


_TARGET_FUNCS = {
    "chsh-bound": _target_chsh_bound,
    "kcbs-bound": _target_kcbs_bound,
    "ncycle-bounds": _target_ncycle_bounds,
    "lg-bound": _target_lg_bound,
    "hybrid-singlet": _target_hybrid_singlet,
    "hybrid-product": _target_hybrid_product,
    "tsirelson-envelope": _target_tsirelson_envelope,
    "s2-identity": _target_s2_identity,
    "monogamy": _target_monogamy,
    "protocol-mc": _target_protocol_mc,
}
TARGETS = tuple(_TARGET_FUNCS)  # the order `all` runs them in


def cmd_reproduce(args) -> int:
    if args.format == "csv":
        if args.target != "tsirelson-envelope":
            raise ValueError("csv output is only available for scan tables")
        scan = scan_envelope(args.grid)
        thetas = list(map(repr, scan.thetas.tolist()))  # each theta formatted once
        sys.stdout.write("theta1,theta2,value\n")
        for t1, row in zip(thetas, scan.values):
            sys.stdout.write("".join(f"{t1},{t2},{v!r}\n" for t2, v in zip(thetas, row.tolist())))
        return 0
    names = TARGETS if args.target == "all" else (args.target,)
    reports, failures = [], []
    for name in names:
        report = _TARGET_FUNCS[name](args)
        reports.append(report)
        failures.extend(c for c in report["checks"] if not c["pass"])
    combined = reports[0] if len(reports) == 1 else {
        "targets": {r["target"]: r for r in reports},
        "ok": not failures,
    }
    emit(combined, args.format)
    if failures:
        first = failures[0]
        print(f"error: {first['name']}: expected {first['expected']} within {first['tolerance']}, "
              f"got {first['actual']}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------ main

def seed(text) -> int:
    """--seed's argparse type: an integer >= 0, as numpy's generators require."""
    value = int(text)  # a ValueError becomes argparse's "invalid seed value"
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative, expected an integer >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrineq",
        description="Derive, bound, check, and simulate correlation inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("human", "json"), help="output format"):
        p.add_argument("--format", choices=choices, default="human", help=help)

    derive = sub.add_parser("derive", help="derive an inequality from a sum-of-squares file")
    derive.add_argument("--input", required=True, help="path to a .rsx expression file")
    derive.add_argument("--scenario", help="optional .scn file refining classification")
    add_format(derive)
    derive.set_defaults(func=cmd_derive)

    check = sub.add_parser("check", help="test observed correlators for a joint distribution")
    check.add_argument("--input", required=True, help="JSON file with correlators (and means)")
    check.add_argument("--scenario", required=True, help="path to a .scn scenario file")
    check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="largest certificate violation still counted as feasible; "
                       "finite and >= 0 (default %(default)s)")
    add_format(check)
    check.set_defaults(func=cmd_check)

    reproduce = sub.add_parser("reproduce", help="rerun a reference computation and verify it")
    reproduce.add_argument("target", choices=TARGETS + ("all",))
    reproduce.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                           help="Monte Carlo shots for protocol-mc (default %(default)s)")
    reproduce.add_argument("--seed", type=seed, default=DEFAULT_SEED,
                           help="random seed of protocol-mc and s2-identity, an integer >= 0 (default %(default)s)")
    reproduce.add_argument("--grid", type=int, default=DEFAULT_GRID,
                           help="grid points per axis for tsirelson-envelope (default %(default)s)")
    add_format(reproduce, ("human", "json", "csv"), "output format (csv only for scan tables)")
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # surfaced with a stable message and exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
