"""One benchmark process: import qfrac, generate a workload's inputs, run its
ops in a closed loop (the next op starts when the previous one returned),
check every output outside the timed region, and print one JSON line.

Started by ``run.py`` in a fresh interpreter, so qfrac's caches start cold as
they do for a user's process.  Usage::

    python3 perfbench/worker.py WORKLOAD SEED (--seconds S | --blocks K | --setup-only)
        [--trace SPANS_OUT]

A timed (``--seconds``) run also samples the speed of the CPU it gets while
the ops run (``SpeedProbe``) and reports every op's latency rescaled to a
reference speed, next to its wall-clock latency.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    t_setup = perf_counter()
    import qfrac

    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--blocks", type=int)
    mode.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args()

    root = Path.cwd()
    if Path(qfrac.__file__).resolve().parent != (root / "src" / "qfrac").resolve():
        print(f"imported qfrac from {qfrac.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    tmp = root / ".perfbench_out" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, root, tmp, dict(os.environ))
        ops = wl.block(0)
        setup_s = perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        child_spans = tmp / "child.csv.gz"
        if args.trace is not None:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            if args.workload == "cli":
                wl.launcher = [tracing.__file__, str(child_spans)]
        probe = SpeedProbe() if args.seconds is not None else None
        if probe is not None:
            probe.start()
        try:
            result = run_loop(wl, ops, args.seconds, args.blocks, tracer, child_spans, probe)
        finally:
            if probe is not None:
                probe.stop()
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        result["layers"] = tracer.layers()
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


#: reference CPU speed: one ``SpeedProbe.calibrate`` call takes this long
REF_CALIBRATION_S = 0.002


class SpeedProbe:
    """Samples how fast the CPU runs a fixed piece of pure-Python float
    arithmetic, the kind of code that dominates qfrac's time.

    On a shared host the speed a process gets drifts by tens of percent
    within minutes, and code of this kind slows down with it.  A timer
    signal runs ``calibrate`` every ``PERIOD_S`` while an op runs, and once
    more after each op, outside its timed region; ``reference_seconds``
    turns an op's wall time into the time it would take at the speed on
    which ``calibrate`` takes ``REF_CALIBRATION_S``."""

    PERIOD_S = 0.1

    def __init__(self):
        self.samples: list[float] = []  # seconds per calibrate call
        self.busy = 0.0  # seconds spent in the timer handler

    @staticmethod
    def calibrate() -> float:
        """The factor loop of an infinite q-product, a fixed number of times."""
        t = perf_counter()
        prod, qi, r, qn = 1.0, 1.0, 0.37, 0.81
        for _ in range(12_000):
            prod *= 1.0 + r * qi * (qn - 1.0) / (1.0 - r * qi * qn)
            qi *= 0.999
        return perf_counter() - t

    def sample(self) -> None:
        self.samples.append(self.calibrate())

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        self.sample()
        self.busy += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self.sample()

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def stop(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, wall: float, first: int) -> float:
        """``wall`` seconds of op time at the reference speed, from the
        samples taken since index ``first`` (the one just before the op, those
        during it and the one just after): the op's work is the integral of
        speed over its time, and the samples are even in time."""
        recent = self.samples[first:]
        return wall * REF_CALIBRATION_S * sum(1.0 / c for c in recent) / len(recent)


def run_loop(wl, ops, seconds, blocks, tracer, child_spans: Path,
             probe: SpeedProbe | None = None) -> dict:
    """Run whole blocks until ``seconds`` of timed op time (then to the end of
    the workload's stride of blocks) or ``blocks`` blocks.

    When traced, each op is one span, and spans that a traced CLI child wrote
    to ``child_spans`` are merged under it.  With a ``probe``, the timer
    handler's time is taken out of each op's latency, and each op also gets a
    latency at the reference speed."""
    latencies: list[float] = []
    ref_latencies: list[float] = []
    labels: list[str] = []
    failures: list[str] = []
    b = 0
    timed = 0.0
    while True:
        for op in ops:
            n = len(latencies)
            if tracer is not None:
                tracer.op_id = n
                span = tracer.open(tracer.name(tracer.OP))
            if probe is not None:
                first, busy = len(probe.samples) - 1, probe.busy
                probe.arm()
            t = perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a raising op is a failed op, never dropped
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t
            if probe is not None:
                probe.disarm()
                dt -= probe.busy - busy
                probe.sample()
                ref_latencies.append(probe.reference_seconds(dt, first))
            if tracer is not None:
                tracer.close(span)
                if child_spans.exists():
                    tracer.merge(child_spans, span)
                    child_spans.unlink()
            latencies.append(dt)
            labels.append(op.label)
            timed += dt
            if error is None:
                if tracer is not None:
                    tracer.active = False
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
                if tracer is not None:
                    tracer.active = True
            if error is not None:
                failures.append(f"op {n} [{op.label}]: {error}")
        b += 1
        if blocks is not None and b >= blocks:
            break
        if seconds is not None and timed >= seconds and b % wl.stride == 0:
            break
        ops = wl.block(b)
    out = {"latencies": latencies, "labels": labels, "failures": failures, "blocks": b}
    if probe is not None:
        out["ref_latencies"] = ref_latencies
        out["calibration_s"] = probe.samples
    return out


def environment() -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main())
