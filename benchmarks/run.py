"""Layered benchmark for coflow: one workload per run, closed loop, one process.

    python3 benchmarks/run.py --workload exact-verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run measures the end-to-end metrics: set-up time of a
fresh interpreter (median of several), then units run back to back for
`--seconds`, each timed from outside the library and checked against exact
or published data.  With `--trace 1` it runs a fixed block of units, each
once untraced and once traced, times the README commands as subprocesses,
writes the spans to `benchmarks/out/`, and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `error_rate` is
failed / attempted from that line; it is not a metric because it is 0 on
every workload.  Grid cases that hit a documented library defect are not
timed units; they are called once per run, before the timed loop, and the
number still failing is printed (and, traced, counted in `stability.failed`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
SETUP_RUNS = 15         # fresh interpreters timed per run; setup_s is their median
WARMUP_UNITS = 2        # run before timing starts, not counted
SETUP_REFERENCE_SAMPLES = 9  # host-speed samples each set-up interpreter takes

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_library():
    """Import coflow from this checkout's sources, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "coflow" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no coflow sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("coflow")
    if Path(package.__file__).resolve().parent != (src / "coflow").resolve():
        raise SystemExit(f"run.py: imported coflow from {package.__file__}, not {src}")
    return package


class Outcomes:
    """Counts units by how they ended; any wrong or unexpected result makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, lib, ctx, item):
        self.attempted += 1
        try:
            result, counts = workload.run_unit(lib, ctx, item)
            return result, counts
        except workloads.GateFailure as exc:
            self.problems.append(f"{item!r}: {exc}")
        except Exception:  # an unexpected error in one unit must not end the run
            self.problems.append(f"{item!r}: {traceback.format_exc()}")
        self.failed += 1
        return None, {}


def percentile_p90(values: list[float]) -> tuple[float, int]:
    """(p90, 90) when 10 samples lie beyond it, else the highest percentile that has 10."""
    n = len(values)
    if n < 11:
        return (max(values) if values else 0.0), 100
    pct = min(90, int(100 * (1 - 10 / n)))
    return statistics.quantiles(values, n=100)[pct - 1], pct


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh interpreters that import, generate inputs and set up.

    Returns (adjusted, wall).  Each interpreter times the host-speed
    reference after its set-up; that time is taken off its wall time and
    its median scales the rest, since the parent may sit on another core.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    adjusted, wall = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        reference = json.loads(proc.stdout.strip().splitlines()[-1])["reference_s"]
        wall.append(elapsed - sum(reference))
        adjusted.append(wall[-1] * hostspeed.REF_S / statistics.median(reference))
    return statistics.median(adjusted), statistics.median(wall)


def check_known_defects(args, lib, workload) -> list[str]:
    """Run the workload's untimed defect check, print what it finds, return its problems."""
    if workload.defect_check is None:
        return []
    failing, problems = workload.defect_check(lib)
    print(f"{args.workload}: known defect cases still failing: {len(failing)} {failing}")
    return problems


def end_to_end(args, lib, workload) -> tuple[Outcomes, dict]:
    setup_s, setup_wall = measure_setup(args)
    speed = hostspeed.HostSpeed()
    items = workload.make_inputs(lib, args.seed)
    ctx = workload.set_up(lib)
    defect_problems = check_known_defects(args, lib, workload)
    warm = Outcomes()
    for item in items[:WARMUP_UNITS]:
        warm.run(workload, lib, ctx, item)

    outcomes = Outcomes()
    outcomes.problems = defect_problems + warm.problems
    units: list[tuple[int, float, bool]] = []   # (reference sample before, wall seconds, passed)
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        before = speed.sample()
        item = items[i % len(items)]
        i += 1
        t0 = time.perf_counter()
        result, _ = outcomes.run(workload, lib, ctx, item)
        units.append((before, time.perf_counter() - t0, result is not None))
    speed.sample()
    elapsed = time.perf_counter() - start

    adjusted = [dt * speed.factor(before) for before, dt, _ in units]
    unit_ms = [a * 1e3 for a, (_, _, ok) in zip(adjusted, units) if ok]
    wall_ms = [dt * 1e3 for _, dt, ok in units if ok]
    p90, pct = percentile_p90(unit_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (len(unit_ms) / sum(adjusted), "1/s"),
        "unit_ms_p50": (statistics.median(unit_ms) if unit_ms else 0.0, "ms"),
        "unit_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    error_rate = outcomes.failed / outcomes.attempted if outcomes.attempted else 0.0
    print(f"{args.workload}: {outcomes.attempted} units in {elapsed:.2f} s, "
          f"{outcomes.failed} failed; error_rate {error_rate:.4f} ratio; "
          f"p{pct} over {len(unit_ms)} samples; setup_s median of {SETUP_RUNS}")
    print(f"unadjusted wall: {len(wall_ms) / sum(dt for _, dt, _ in units):.4f} units/s, unit p50 "
          f"{statistics.median(wall_ms) if wall_ms else 0.0:.4f} ms, setup {setup_wall:.4f} s; "
          f"host speed median {hostspeed.REF_S / statistics.median(speed.durations):.4f} "
          f"of the reference over {len(speed.durations)} samples")
    return outcomes, metrics


def cli_layer(tracer) -> list[str]:
    """Time the README commands, plus the known stability crash, as subprocesses."""
    env = {k: v for k, v in os.environ.items() if k != "COFLOW_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    py = [sys.executable, "-m", "coflow.cli"]

    def sidecar(path, reason, target=None):
        def check(_):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            fin = data["final_state"]
            near = target is None or max(abs(fin[k] - v) for k, v in zip("abc", target)) < 1e-6
            return data["reason"] == reason and near
        return check

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        run_csv, escape_csv = Path(scratch, "run.csv"), Path(scratch, "escape.csv")
        commands = (
            ("import", [sys.executable, "-c", "import coflow.cli"], lambda out: True),
            ("verify", py + ["verify", "--seed", "7", "--trials", "20"],
             lambda out: json.loads(out)["status"] == "pass"),
            ("flow", py + ["flow", "--flavor", "coflow", "--eps", "-1", "--kappa", "4",
                           "--a0", "1.3", "--b0", "0.8", "--c0", "1.1", "--out", str(run_csv)],
             sidecar(run_csv.with_suffix(".json"), "converged",
                     workloads.exact_equilibrium(-1, 4.0))),
            ("flow", py + ["flow", "--flavor", "modified", "--eps", "-1", "--perturb", "unstable",
                           "--delta", "1e-3", "--out", str(escape_csv)],
             sidecar(escape_csv.with_suffix(".json"), "diverged-from-critical")),
            ("stability", py + ["stability", "--flavor", "modified", "--eps", "1",
                                "--kappa", "4", "--gamma", "3"],
             lambda out: json.loads(out)["index"] == 1),
            ("sphere_index", py + ["sphere-index", "--l-min", "3", "--l-max", "6", "--gamma", "3"],
             lambda out: out.split()[-1] == str(workloads.SPHERE_LEVELS_3_TO_6)),
            # a case in workloads.KNOWN_NEWTON_FAILURES: exits 1 with a traceback
            # until newton_refine accepts the exact equilibrium
            ("stability_newton_case", py + ["stability", "--eps", "-1", "--kappa", "6",
                                            "--gamma", "5"],
             lambda out: json.loads(out)["index"] == 1),
        )
        problems = []
        for name, cmd, check in commands:
            with tracer.span(f"cli.{name}") as record:
                proc = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True,
                                      text=True, timeout=120)
            if proc.returncode != 0:
                record[6] = False
                known = name == "stability_newton_case" and workloads.NEWTON_MESSAGE in proc.stderr
                if not known:
                    problems.append(f"cli {name} exited {proc.returncode}: {proc.stderr[-400:]}")
                continue
            try:
                ok = check(proc.stdout)
            except (ValueError, KeyError, IndexError, OSError):
                ok = False
            if not ok:
                problems.append(f"cli {name}: output fails its check")
    return problems


def traced(args, lib, workload) -> tuple[Outcomes, dict]:
    tracer = tracing.Tracer()
    tlib = tracing.traced_namespace(lib, tracer)
    items = workload.make_inputs(lib, args.seed)
    with tracer.span("bench.setup"):
        ctx = workload.set_up(tlib)
    with tracer.span("bench.known_defects"):
        defect_problems = check_known_defects(args, tlib, workload)
    block = items[:workload.trace_units]

    warm = Outcomes()
    for item in items[:WARMUP_UNITS]:
        warm.run(workload, lib, ctx, item)

    # each unit runs untraced, then traced, so host drift hits both sides alike
    plain, outcomes = Outcomes(), Outcomes()
    plain_s = traced_s = 0.0
    rk_steps = 0
    for unit, item in enumerate(block):
        t0 = time.perf_counter()
        result, _ = plain.run(workload, lib, ctx, item)
        if result is not None:
            plain_s += time.perf_counter() - t0
        tracer.unit = unit
        with tracer.span("bench.unit") as record:
            result, counts = outcomes.run(workload, tlib, ctx, item)
        if result is not None:
            traced_s += record[2] - record[1]
            rk_steps += counts.get("rk_steps", 0)
            with tracer.span("bench.probe"):
                workload.probe(tlib, ctx, item, result, tracer)
    tracer.unit = None

    outcomes.problems = defect_problems + warm.problems + plain.problems + outcomes.problems
    outcomes.problems += cli_layer(tracer)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)

    metrics = tracing.layer_metrics(tracer.spans, rk_steps)
    ok_units = outcomes.attempted - outcomes.failed
    plain_rate = (plain.attempted - plain.failed) / plain_s if plain_s else 0.0
    traced_rate = ok_units / traced_s if traced_s else 0.0
    metrics["trace.units_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.units_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (1 - traced_rate / plain_rate if plain_rate else 0.0, "ratio")
    metrics["unit.error_rate"] = (outcomes.failed / outcomes.attempted, "ratio")
    print(f"{args.workload} traced: {outcomes.attempted} units, {outcomes.failed} failed; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return outcomes, metrics


def host_line() -> str:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return (f"host: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{platform.system()} {platform.machine()}, nproc {os.cpu_count()}, cpu {model or '?'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs and set up, then exit (times setup_s)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lib = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.make_inputs(lib, args.seed)
        workload.set_up(lib)
        speed = hostspeed.HostSpeed()
        for _ in range(SETUP_REFERENCE_SAMPLES):
            speed.sample()
        print(json.dumps({"reference_s": speed.durations}))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(host_line())
    if args.trace:
        outcomes, metrics = traced(args, lib, workload)
        wanted = spec["per_layer"]
    else:
        outcomes, metrics = end_to_end(args, lib, workload)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for problem in outcomes.problems[:5]:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
