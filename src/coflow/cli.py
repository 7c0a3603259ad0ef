"""Command-line surface tying the library together.

Subcommands:
  verify        exact identity suites at random rational parameter points
  flow          integrate one trajectory; writes CSV plus a JSON sidecar
  stability     spectral report at a critical point
  sphere-index  multiplicity table and the windowed index bound

Exit codes: 0 success, 1 verification failure, 2 input or usage error, an
unwritable --out too.  A reader that closes standard output early (`coflow
... | head -1`) changes neither the exit code nor the files it writes.
A command reads its inputs from its arguments alone, never from the
environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from .coflow_dynamics import (
    MODIFIED,
    NORMALIZED,
    FlowConfig,
    FlowState,
    integrate,
)
from .g2_ansatz import identity_suite
from .invariant_forms import algebra_checks, random_params
from .sphere_spectrum import index_lower_bound, table_rows, write_csv as write_sphere_csv
from .stability import (
    LABEL_PRINCIPAL,
    LABEL_RESCALED,
    classify,
    find_critical_points,
    state_direction,
    verify_psi_identities,
)

_FLAVOR_ALIASES = {
    "coflow": NORMALIZED,
    "normalized": NORMALIZED,
    NORMALIZED: NORMALIZED,
    "modified": MODIFIED,
    MODIFIED: MODIFIED,
}


def _flavor(sub: argparse.ArgumentParser, name: str) -> str:
    try:
        return _FLAVOR_ALIASES[name]
    except KeyError:
        sub.error(f"unknown flavor {name!r}; choose from {sorted(_FLAVOR_ALIASES)}")


def _check_positive(sub: argparse.ArgumentParser, name: str, value: float) -> None:
    if not math.isfinite(value):
        sub.error(f"--{name} must be finite, got {value}")
    if not value > 0:
        sub.error(f"--{name} must be positive, got {value}")


def _rational(name: str, positive: bool = False):
    """An argparse type that reads --name exactly as typed: a decimal or a ratio p/q.

    A decimal must be finite as a float; one that underflows to 0.0 reads
    as 0, so no unbounded power of ten is ever expanded.
    """
    def parse(text: str) -> Fraction:
        try:
            x = float(text)
        except ValueError:  # p/q, which float does not read
            x = None
        if x is not None and not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"--{name} must be finite, got {text}")
        try:
            value = Fraction(text) if x != 0 else Fraction(0)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"--{name} must be a decimal or a ratio p/q, got {text!r}") from None
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(f"--{name} must be positive, got {text}")
        return value

    return parse


@contextmanager
def _usage_errors(sub: argparse.ArgumentParser):
    """Report a ValueError or ArithmeticError raised on the inputs as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        sub.error(str(exc))
    except ArithmeticError as exc:
        sub.error(f"the inputs are out of range ({type(exc).__name__}: {exc})")


def _drop_stdout() -> None:
    """Point stdout at the null device once its reader has gone.

    The recipe of the Python documentation for SIGPIPE: output still
    buffered, and any printed later, goes nowhere instead of raising
    BrokenPipeError again when the interpreter flushes at exit.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def _print(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _refuse_unwritable(sub: argparse.ArgumentParser, *paths: str | None) -> None:
    """Exit 2 before any work when a target is a directory or its directory is missing.

    Other write errors, such as a read-only directory, still surface from
    the write itself, through main's OSError handler.
    """
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            continue
        sub.error(f"cannot write {path}: {os.strerror(code)}")


def _sidecar(out: str) -> str:
    """The JSON sidecar that flow writes beside its CSV."""
    return os.path.splitext(out)[0] + ".json"


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    _print(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    sub = args.subparser
    if args.trials < 1:
        sub.error("--trials must be at least 1")
    _refuse_unwritable(sub, args.out)

    rng = random.Random(args.seed)
    failures: dict[str, int] = {}
    first_failure: dict | None = None
    for trial in range(args.trials):
        for eps in (+1, -1):
            params = random_params(rng, eps)
            results = algebra_checks(params) + identity_suite(params)
            for check_id, ok in results:
                failures[check_id] = failures.get(check_id, 0) + (not ok)
                if not ok and first_failure is None:
                    first_failure = {
                        "id": check_id,
                        "trial": trial,
                        "params": {
                            "a": str(params.a),
                            "b": str(params.b),
                            "q": str(params.q),
                            "eps": params.eps,
                        },
                    }

    all_pass = first_failure is None
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "checks": [
            {"id": cid, "status": "pass" if n == 0 else "fail", "failures": n}
            for cid, n in failures.items()
        ],
        "status": "pass" if all_pass else "fail",
    }
    if first_failure is not None:
        report["first_failure"] = first_failure
    _emit(report, args.out)
    return 0 if all_pass else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    sub = args.subparser
    flavor = _flavor(sub, args.flavor)
    kappa, gamma = float(args.kappa), float(args.gamma)  # typed exactly, run at the nearest double
    if _sidecar(args.out) == args.out:
        sub.error(f"--out {args.out} is the path of its own JSON sidecar; give the CSV another extension")
    _refuse_unwritable(sub, args.out, _sidecar(args.out))
    with _usage_errors(sub):
        config = FlowConfig(
            flavor=flavor, kappa=kappa, gamma=gamma, eps=args.eps,
            t_max=args.t_max, rtol=args.rtol, atol=args.atol,
            max_steps=args.max_steps, tol_conv=args.tol_conv,
            escape_radius=args.escape_radius,
        )
    if args.perturb is None:
        for name in ("a0", "b0", "c0"):
            val = getattr(args, name)
            if val is None:
                sub.error(f"--{name} is required unless --perturb is given")
            _check_positive(sub, name, val)
        initial = FlowState(0.0, args.a0, args.b0, args.c0)
    else:
        if any(getattr(args, n) is not None for n in ("a0", "b0", "c0")):
            sub.error("--perturb replaces --a0/--b0/--c0; do not pass both")
        _check_positive(sub, "delta", args.delta)
        with _usage_errors(sub):
            points = find_critical_points(flavor, kappa, gamma, args.eps)
            point = next(p for p in points if p.label == LABEL_PRINCIPAL)
            report = classify(flavor, point, kappa, gamma, args.eps)
            if report.index < 1:
                sub.error("the selected critical point has no unstable direction")
            direction = state_direction(point, report.eigenpairs[0].vector)
        start = [float(point.state[i] + args.delta * direction[i]) for i in range(3)]
        if not min(start) > 0:
            sub.error(f"--delta {args.delta} moves the start off the positive scales: "
                      f"({start[0]}, {start[1]}, {start[2]})")
        initial = FlowState(0.0, *start)
        config = dataclasses.replace(config, reference=point.state)

    with _usage_errors(sub):
        traj = integrate(config, initial)
    if args.perturb is not None and traj.reason == "converged" and traj.steps == 0:
        sub.error(f"--delta {args.delta} starts the run already converged, with |rhs| below "
                  f"--tol-conv {args.tol_conv}; raise --delta or lower --tol-conv")
    traj.write_csv(args.out)
    traj.write_sidecar(_sidecar(args.out))
    _emit(traj.sidecar_dict(), None)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    sub = args.subparser
    flavor = _flavor(sub, args.flavor)
    if flavor == NORMALIZED and args.point == "rescaled":
        sub.error("the rescaled point exists only for the modified flavor")
    kappa = args.kappa
    gamma = args.gamma if flavor == MODIFIED else None  # find_critical_points checks gamma > 2
    label = LABEL_PRINCIPAL if args.point == "principal" else LABEL_RESCALED

    with _usage_errors(sub):
        points = find_critical_points(flavor, kappa, gamma, args.eps)
        point = next(p for p in points if p.label == label)
        report = classify(flavor, point, kappa, gamma, args.eps)
        psi = verify_psi_identities(args.eps, point.kappa)
    _emit(report.to_json_dict(), args.out)
    if not psi.all_pass:
        print("psi identity sub-checks FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_sphere_index(args: argparse.Namespace) -> int:
    sub = args.subparser
    with _usage_errors(sub):  # index_lower_bound checks gamma and the level range
        total, records = index_lower_bound(args.l_min, args.l_max, args.gamma)
    if args.out:
        write_sphere_csv(args.out, records, args.gamma)
    else:
        for row in table_rows(records, args.gamma):
            _print(",".join(str(x) for x in row))
    _print(str(total))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coflow",
        description="Exact invariant-form algebra, co-flow integration, "
                    "stability reports and sphere multiplicity counts.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = subs.add_parser("verify", help="run the exact identity suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--out", default=None, help="also write the JSON report here")
    p_verify.set_defaults(handler=_cmd_verify, subparser=p_verify)

    p_flow = subs.add_parser("flow", help="integrate one trajectory")
    p_flow.add_argument("--flavor", default="coflow")
    p_flow.add_argument("--eps", type=int, choices=(1, -1), default=FlowConfig.eps)
    p_flow.add_argument("--kappa", type=_rational("kappa", positive=True), default=FlowConfig.kappa)
    p_flow.add_argument("--gamma", type=_rational("gamma"), default=FlowConfig.gamma)
    p_flow.add_argument("--a0", type=float, default=None)
    p_flow.add_argument("--b0", type=float, default=None)
    p_flow.add_argument("--c0", type=float, default=None)
    p_flow.add_argument("--t-max", type=float, default=FlowConfig.t_max)
    p_flow.add_argument("--rtol", type=float, default=FlowConfig.rtol)
    p_flow.add_argument("--atol", type=float, default=FlowConfig.atol)
    p_flow.add_argument("--max-steps", type=int, default=FlowConfig.max_steps)
    p_flow.add_argument("--tol-conv", type=float, default=FlowConfig.tol_conv)
    p_flow.add_argument("--escape-radius", type=float, default=FlowConfig.escape_radius)
    p_flow.add_argument("--perturb", choices=("unstable",), default=None,
                        help="start at the principal critical point plus "
                             "delta along the unit unstable eigenvector")
    p_flow.add_argument("--delta", type=float, default=1e-3)
    p_flow.add_argument("--out", default="trajectory.csv")
    p_flow.set_defaults(handler=_cmd_flow, subparser=p_flow)

    p_stab = subs.add_parser("stability", help="spectral report at a critical point")
    p_stab.add_argument("--flavor", default="modified")
    p_stab.add_argument("--eps", type=int, choices=(1, -1), default=-1)
    p_stab.add_argument("--kappa", type=_rational("kappa", positive=True), default="4")
    p_stab.add_argument("--gamma", type=_rational("gamma"), default="3")
    p_stab.add_argument("--point", choices=("principal", "rescaled"), default="principal")
    p_stab.add_argument("--out", default=None, help="also write the JSON report here")
    p_stab.set_defaults(handler=_cmd_stability, subparser=p_stab)

    p_sphere = subs.add_parser("sphere-index", help="multiplicity table and index bound")
    p_sphere.add_argument("--l-min", type=int, required=True)
    p_sphere.add_argument("--l-max", type=int, required=True)
    p_sphere.add_argument("--gamma", type=_rational("gamma"), default="3")
    p_sphere.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_sphere.set_defaults(handler=_cmd_sphere_index, subparser=p_sphere)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
    except OSError as exc:  # an --out path, or the flow sidecar beside it, that cannot be written
        args.subparser.error(f"cannot write {exc.filename or args.out}: {exc.strerror or exc}")
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
