"""Batch command line: compute objects, run verification suites, emit
deterministic reports.

Exit codes: 0 success / suite passed, 1 a property violation was found,
2 input or usage error, 3 a result could not be certified.  JSON output is
byte-stable for fixed inputs and seed; reports embed the full suite
configuration.
"""

import argparse
import math
import sys

import numpy as np

from . import blaschke
from .calculus import (
    VerificationError,
    apply_blaschke,
    apply_polynomial,
    classify_c0,
    minimal_function,
)
from .jordan import VerificationReport, are_quasisimilar, intertwiner_space, jordan_model
from .modelspace import compressed_shift, divisor_subspace, enumerate_lattice
from .serialize import (
    decode_blaschke_file,
    decode_matrix,
    decode_matrix_file,
    encode_matrix,
    load_json,
    stable_json_bytes,
)
from .suites import SUITE_SUMMARIES, SUITES, SuiteConfig, run_suite

__all__ = ["main", "entrypoint", "report_render"]


class UsageError(ValueError):
    """Bad command line or malformed input file."""


def _parse_tolerances(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        name, eq, value = pair.partition("=")
        if not eq or not name.strip():
            raise UsageError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            tol = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol {pair!r}: {exc}") from exc
        if not math.isfinite(tol):
            raise UsageError(f"--tol {pair!r}: tolerance must be finite")
        out[name.strip()] = tol
    return out


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer; got {text!r}")
    return seed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c0lat",
        description="Finite Blaschke products, model spaces, compressed shifts, "
        "and invariant-subspace lattice verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inner = sub.add_parser("inner", help="finite Blaschke product arithmetic")
    inner_sub = inner.add_subparsers(dest="action", required=True)
    for action, helptext in [
        ("gcd", "greatest common inner divisor of two product files"),
        ("lcm", "least common inner multiple of two product files"),
        ("divides", "does the first product divide the second?"),
    ]:
        p = inner_sub.add_parser(action, help=helptext)
        p.add_argument("first")
        p.add_argument("second")
        _output_flags(p)
    p = inner_sub.add_parser("eval", help="evaluate a product at a point of the closed disk")
    p.add_argument("product")
    p.add_argument("point", help="complex literal, e.g. 0.5+0.3j")
    _output_flags(p)

    model = sub.add_parser("model", help="model spaces and the compressed shift")
    model_sub = model.add_subparsers(dest="action", required=True)
    p = model_sub.add_parser("shift", help="matrix of the compressed shift")
    p.add_argument("--theta", required=True)
    _output_flags(p)
    p = model_sub.add_parser("lat-enum", help="enumerate the invariant-subspace lattice")
    p.add_argument("--theta", required=True)
    _output_flags(p)
    p = model_sub.add_parser("divisor-subspace", help="coordinates of one divisor subspace")
    p.add_argument("--theta", required=True)
    p.add_argument("--phi", required=True)
    _output_flags(p)

    calc = sub.add_parser("calc", help="functional calculus on matrices")
    calc_sub = calc.add_subparsers(dest="action", required=True)
    p = calc_sub.add_parser("minfun", help="minimal function of a C0 matrix")
    p.add_argument("matrix")
    _output_flags(p)
    p = calc_sub.add_parser("apply", help="apply a Blaschke product or polynomial")
    p.add_argument("matrix")
    p.add_argument("--blaschke", help="Blaschke product file")
    p.add_argument("--poly", help="comma-separated ascending coefficients")
    _output_flags(p)
    p = calc_sub.add_parser("classify", help="C0 certificate of a matrix")
    p.add_argument("matrix")
    _output_flags(p)

    jordan = sub.add_parser("jordan", help="Jordan models and intertwiners")
    jordan_sub = jordan.add_subparsers(dest="action", required=True)
    p = jordan_sub.add_parser("model", help="Jordan model of a C0 matrix")
    p.add_argument("matrix")
    p.add_argument("--seed", type=_seed, default=0)
    _output_flags(p)
    p = jordan_sub.add_parser("quasisim", help="are two matrices quasisimilar?")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seed", type=_seed, default=0)
    _output_flags(p)
    p = jordan_sub.add_parser("intertwine", help="dimension and max rank of the intertwiner space")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seed", type=_seed, default=0)
    _output_flags(p)

    verify = sub.add_parser(
        "verify",
        help="run a verification suite",
        description="Suites:\n"
        + "\n".join(f"  {name}: {SUITE_SUMMARIES[name]}" for name in sorted(SUITES)),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument(
        "inputs",
        nargs="*",
        help="optional input files; matrices fix the operator under test, "
        "Blaschke files fix theta",
    )
    verify.add_argument("--seed", type=_seed, default=0, help="64-bit seed (default 0)")
    verify.add_argument("--trials", type=int, default=100, help="trial count (default 100)")
    verify.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a suite tolerance (repeatable)",
    )
    _output_flags(verify)
    return parser


def _output_flags(p):
    p.add_argument("--json", action="store_true", help="emit byte-stable JSON")
    p.add_argument("--out", help="write output to this path instead of stdout")


def report_render(report: VerificationReport, mode: str = "text", config=None) -> bytes:
    """Render a suite report; JSON bytes are stable for a fixed report."""
    if mode == "json":
        payload = report.to_json_dict()
        if config is not None:
            payload["config"] = config.to_json_dict()
        return stable_json_bytes(payload)
    lines = [f"suite: {report.suite}"]
    if config is not None:
        lines.append(
            f"config: seed={config.seed} trials={config.trials} "
            f"tolerances={dict(sorted(config.tolerances.items()))} inputs={list(config.input_paths)}"
        )
    if report.passed:
        lines.append(
            f"PASSED ({report.trials} trials, max residual {report.max_residual:.6g})"
        )
    else:
        lines.append(
            f"FAILED ({len(report.violations)} violations in {report.trials} trials, "
            f"max residual {report.max_residual:.6g})"
        )
        for v in report.violations[:20]:
            lines.append(f"  trial {v.trial}: {v.kind} residual {v.residual:.6g} {v.witness}")
        if len(report.violations) > 20:
            lines.append(f"  ... {len(report.violations) - 20} more")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit(payload_bytes: bytes, out_path):
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(payload_bytes)
    else:
        sys.stdout.write(payload_bytes.decode("utf-8"))


def _output(args, payload, text: str) -> int:
    """Emit ``payload`` as byte-stable JSON under ``--json``, else ``text``
    and a newline; returns the success exit code."""
    _emit(stable_json_bytes(payload) if args.json else (text + "\n").encode(), args.out)
    return 0


def _matrix_text(matrix) -> str:
    matrix = np.asarray(matrix)
    rows = []
    for row in matrix:
        rows.append("  [" + ", ".join(f"{x.real:+.6g}{x.imag:+.6g}j" for x in row) + "]")
    return "\n".join(rows)


def _cmd_inner(args) -> int:
    if args.action in ("gcd", "lcm", "divides"):
        b1 = decode_blaschke_file(args.first)
        b2 = decode_blaschke_file(args.second)
        if args.action == "divides":
            result = blaschke.divides(b1, b2)
            return _output(args, {"divides": result}, "true" if result else "false")
        out = blaschke.gcd(b1, b2) if args.action == "gcd" else blaschke.lcm(b1, b2)
        return _output(args, out.to_json_dict(), str(out))
    b = decode_blaschke_file(args.product)
    try:
        z = complex(args.point)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex point {args.point!r}") from exc
    value = blaschke.evaluate(b, z)
    return _output(args, {"re": value.real, "im": value.imag}, f"{value:.12g}")


def _cmd_model(args) -> int:
    theta = decode_blaschke_file(args.theta)
    if args.action == "shift":
        op = compressed_shift(theta)
        return _output(args, op.to_json_dict(), _matrix_text(op.matrix))
    if args.action == "lat-enum":
        entries = enumerate_lattice(theta)
        return _output(
            args,
            [{"divisor": phi.to_json_dict(), "subspace": s.to_json_dict()} for phi, s in entries],
            "\n".join(f"{str(phi):40s} dim {s.dim}" for phi, s in entries),
        )
    phi = decode_blaschke_file(args.phi)
    s = divisor_subspace(theta, phi)
    return _output(
        args,
        s.to_json_dict(),
        f"dim {s.dim} in ambient {s.ambient_dim}\n" + _matrix_text(s.basis),
    )


def _cmd_calc(args) -> int:
    t = decode_matrix_file(args.matrix)
    if args.action == "minfun":
        mf = minimal_function(t)
        return _output(args, mf.to_json_dict(), str(mf))
    if args.action == "classify":
        cert = classify_c0(t)
        mf = str(cert.minimal_function) if cert.minimal_function else "-"
        return _output(
            args,
            cert.to_json_dict(),
            f"is_c0 {str(cert.is_c0).lower()}  spectral_radius {cert.spectral_radius:.12g}  "
            f"minimal_function {mf}  annihilation_residual {cert.annihilation_residual:.6g}",
        )
    if (args.blaschke is None) == (args.poly is None):
        raise UsageError("calc apply needs exactly one of --blaschke or --poly")
    if args.blaschke:
        symbol = decode_blaschke_file(args.blaschke)
        result = apply_blaschke(t, symbol)
    else:
        try:
            coeffs = [complex(c) for c in args.poly.split(",") if c.strip()]
        except ValueError as exc:
            raise UsageError(f"cannot parse --poly {args.poly!r}") from exc
        result = apply_polynomial(t, coeffs)
    return _output(args, encode_matrix(result), _matrix_text(result))


def _cmd_jordan(args) -> int:
    if args.action == "model":
        t = decode_matrix_file(args.matrix)
        model = jordan_model(t, seed=args.seed)
        return _output(args, model.to_json_dict(), "\n".join(str(th) for th in model.thetas))
    t1 = decode_matrix_file(args.first)
    t2 = decode_matrix_file(args.second)
    if args.action == "quasisim":
        result = are_quasisimilar(t1, t2, seed=args.seed)
        return _output(args, {"quasisimilar": result}, "true" if result else "false")
    space = intertwiner_space(t1, t2, seed=args.seed)
    return _output(
        args,
        {"dimension": space.dimension, "max_rank": space.max_rank},
        f"dimension {space.dimension}  max_rank {space.max_rank}",
    )


def _decode_suite_inputs(paths):
    decoded = []
    for path in paths:
        data = load_json(path)
        if isinstance(data, dict) and "zeros" in data:
            decoded.append(blaschke.BlaschkeProduct.from_json_dict(data))
        elif isinstance(data, dict) and "entries" in data:
            decoded.append(decode_matrix(data))
        else:
            raise UsageError(f"{path}: not a Blaschke product or matrix payload")
    return decoded


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite,
        seed=args.seed,
        trials=args.trials,
        tolerances=_parse_tolerances(args.tol),
        output="json" if args.json else "text",
        input_paths=tuple(args.inputs),
    )
    inputs = _decode_suite_inputs(args.inputs)
    report = run_suite(config, inputs=inputs)
    _emit(report_render(report, config.output, config), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _parser()
    try:
        # some Python releases give ``verify``'s optional inputs an empty list
        # before the options, so input files after an option come back as extras
        args, extra = parser.parse_known_args(argv)
        if args.command == "verify" and not any(w.startswith("-") for w in extra):
            args.inputs += extra
        elif extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "inner":
            return _cmd_inner(args)
        if args.command == "model":
            return _cmd_model(args)
        if args.command == "calc":
            return _cmd_calc(args)
        if args.command == "jordan":
            return _cmd_jordan(args)
        return _cmd_verify(args)
    except (UsageError, ValueError, OSError, KeyError) as exc:
        print(f"c0lat: error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"c0lat: error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
