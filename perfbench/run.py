"""qfrac benchmark: one closed-loop client runs a seeded workload against the
public API or the ``qfrac`` CLI, checks every result, and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/qfrac``).
Workloads: verify_all, wide_window, closed_form, cli (see BENCHMARK.json and
perfbench/design.json).

``--trace 0`` prints the end-to-end metrics.  Set-up time is the median over
several fresh processes; the timed loop runs in one more fresh process for
at least S seconds of op time, stopping at a block boundary.  Op latency
quantiles are Harrell-Davis estimates (``hd_quantile``).  The gated op
metrics (``*_ref``) rescale each op's wall time to a reference CPU speed
measured while it ran (``worker.SpeedProbe``), because the speed a shared
host gives one process drifts by tens of percent between runs; the
wall-clock ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` are printed too.

``--trace 1`` prints the per-layer metrics.  It runs a fixed number of blocks
twice, each in a fresh process: untraced, then with spans around every traced
public call.  The difference in ops per second is the tracing overhead.  The
spans go to ``.perfbench_out/trace-<workload>-<seed>.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
CLI_PROBES = 5
#: a run that holds this many ops has >= 10 samples above its p90
P90_MIN_OPS = 100
#: blocks in each of the two traced-mode processes; fixed, so counts repeat
TRACE_BLOCKS = 1
CLI_COMMANDS = ("eval", "solve", "bound", "verify")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def benchmark_env(root: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts: qfrac from this
    checkout's sources, BLAS pinned to one thread (the client is one thread)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, env: dict[str, str], *args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def process_seconds(root: Path, env: dict[str, str], code: str) -> float:
    """Median wall time of CLI_PROBES fresh ``python -c CODE`` processes."""
    times = []
    for _ in range(CLI_PROBES):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        times.append(perf_counter() - t)
    return statistics.median(times)


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, the i-th weighted by the Beta((n+1)p, (n+1)(1-p)) mass on
    ((i-1)/n, i/n].  With few ops per run it is steadier than one middle
    sample, because it does not jump from one op's latency to the next."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    nodes = 64 * n  # midpoint rule, 64 nodes per order statistic
    total = weight = 0.0
    for k in range(nodes):
        x = (k + 0.5) / nodes
        w = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
        total += w * xs[k * n // nodes]
        weight += w
    return total / weight


def end_to_end(root: Path, env: dict[str, str], workload: str, seed: int,
               seconds: float) -> tuple[dict, dict, list[str]]:
    setups = [run_worker(root, env, workload, str(seed), "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = run_worker(root, env, workload, str(seed), "--seconds", str(seconds))
    lat, ref = res["latencies"], res["ref_latencies"]
    attempted, failed = len(lat), len(res["failures"])
    values = {
        "setup_s": statistics.median(setups + [res["setup_s"]]),
        "ops_per_s_ref": (attempted - failed) / sum(ref),
        "op_p50_ms_ref": 1e3 * hd_quantile(ref, 0.5),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    printed_only = {
        "ops_per_s": ((attempted - failed) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * hd_quantile(lat, 0.9), "ms") if attempted >= P90_MIN_OPS
        else (None, f"ms (needs >= {P90_MIN_OPS} ops, ran {attempted})"),
        "failed_share": (failed / attempted, "ratio"),
        "calibration_p50_ms": (1e3 * statistics.median(res["calibration_s"]), "ms"),
    }
    report = {"attempted": attempted, "failed": failed, "blocks": res["blocks"],
              "op_ms_quartiles": [1e3 * t for t in statistics.quantiles(lat, n=4)]
              if attempted > 1 else None,
              "setup_s_each": setups + [res["setup_s"]],
              "environment": res["environment"], "printed_only": printed_only}
    return values, report, res["failures"]


def per_layer(root: Path, env: dict[str, str], workload: str,
              seed: int) -> tuple[dict, dict, list[str]]:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload}-{seed}.csv.gz"
    plain = run_worker(root, env, workload, str(seed), "--blocks", str(TRACE_BLOCKS))
    traced = run_worker(root, env, workload, str(seed), "--blocks", str(TRACE_BLOCKS),
                        "--trace", str(spans))
    values = dict(traced["layers"])
    rates = [len(r["latencies"]) / sum(r["latencies"]) for r in (plain, traced)]
    values["trace.ops_per_s_untraced"] = rates[0]
    values["trace.ops_per_s_traced"] = rates[1]
    values["trace.overhead_ops_per_s"] = rates[0] - rates[1]
    values.update(cli_layers(root, env, traced if workload == "cli" else None))
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    report = {"attempted": attempted, "failed": len(failures), "blocks": TRACE_BLOCKS,
              "environment": traced["environment"], "spans": str(spans.relative_to(root))}
    return values, report, failures


def cli_layers(root: Path, env: dict[str, str], traced: dict | None) -> dict[str, float]:
    """Interpreter start, ``import qfrac``, and the median traced process time
    of each CLI command; all 0 off the cli workload."""
    out = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    out.update({f"cli.{c}.process_s": 0.0 for c in CLI_COMMANDS})
    if traced is not None:
        interp = process_seconds(root, env, "pass")
        out["cli.interpreter_s"] = interp
        out["cli.import_s"] = process_seconds(root, env, "import qfrac") - interp
        for c in CLI_COMMANDS:
            times = [t for t, label in zip(traced["latencies"], traced["labels"])
                     if label.split()[1] == c]
            out[f"cli.{c}.process_s"] = statistics.median(times)
    return out


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qfrac" / "__init__.py").is_file():
        return fail(f"no qfrac sources under {root / 'src'}; run from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    env = benchmark_env(root)
    load_start = read_loadavg()
    try:
        if args.trace:
            values, report, failures = per_layer(root, env, args.workload, args.seed)
        else:
            values, report, failures = end_to_end(root, env, args.workload, args.seed,
                                                  args.seconds)
        # BENCHMARK.json names every reported metric and its unit
        metrics = {m["name"]: (values[m["name"]], m["unit"])
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))
    report["environment"].update({
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": read_loadavg(),
    })

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={report['attempted']} failed={report['failed']} "
          f"blocks={report['blocks']}")
    for line in failures:
        print(f"FAILED {line}")
    shown = dict(metrics)
    shown.update(report.pop("printed_only", {}))
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {'n/a' if value is None else format(value, '.6g'):>14} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
