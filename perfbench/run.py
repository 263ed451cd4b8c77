"""Benchmark of the exact tauvi pipeline: one workload in one process.

    python3 perfbench/run.py --workload families-numeric --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; tauvi is imported from its ``src/``.  The
run makes the workload's inputs from ``--seed`` (set-up), repeats whole
rounds of the workload's operations until ``--seconds`` have passed (at
least one round), checks every output by routes independent of tauvi, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Operation times are scaled to a reference host speed by a
calibration kernel timed between operations (see ``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time on untraced rounds and the second half on rounds with
every layer wrapped (see ``tracing.py``), reports the per-layer metrics of
one traced round and writes the spans to ``perfbench/out/``.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One process, no helper threads: numpy's BLAS pool would otherwise start.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_median_s", "s"),
    ("peak_rss_mb", "MB"),
)


def process_age() -> float:
    """Seconds since this process started, to the kernel's clock tick.

    Lets ``setup_s`` include interpreter start-up; 0 where /proc is missing.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = process_age() - (time.perf_counter() - _T0)


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_tauvi():
    """Import every tauvi module from this checkout's ``src``."""
    from tracing import MODULES

    if not (SRC / "tauvi" / "__init__.py").is_file():
        raise SystemExit(f"error: no tauvi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: tauvi was imported from {module.__file__}")


class Round:
    def __init__(self):
        self.raw_wall = 0.0  # unscaled wall time, calibration excluded
        self.times = []  # scaled time of every op, in op order
        self.outputs = []  # (fingerprint, output) or None for a failed op
        self.failed = 0
        self.layers = None


def run_op(op, recorder):
    """(seconds, fingerprint, output); fingerprint is None if the op failed."""
    from workloads import OpFailed

    start = time.perf_counter()
    try:
        if recorder:
            with recorder.span("op"):
                fingerprint, out = op.run()
            if op.cli:
                recorder.add("cli.output_bytes", len(fingerprint.encode()))
        else:
            fingerprint, out = op.run()
    except OpFailed as exc:
        sys.stderr.write(f"failed: {op.label}: {exc}\n")
        fingerprint = out = None
    except Exception:  # an unexpected fault of the program: count it, go on
        sys.stderr.write(f"failed: {op.label}:\n{traceback.format_exc()}")
        fingerprint = out = None
    return time.perf_counter() - start, fingerprint, out


def run_round(ops, recorder=None) -> Round:
    """One pass over ``ops``, with the host-speed kernel timed in between."""
    rnd = Round()
    snap = recorder.snapshot() if recorder else None
    gc.collect()
    kernel_s = hostspeed.measure()
    last = time.perf_counter()
    pending = []  # times of the ops since the last kernel timing

    def flush():
        nonlocal kernel_s, last, pending
        after = hostspeed.measure()
        for seconds in pending:
            rnd.times.append(hostspeed.scale(seconds, (kernel_s + after) / 2))
        kernel_s, last, pending = after, time.perf_counter(), []

    for op in ops:
        seconds, fingerprint, out = run_op(op, recorder)
        rnd.raw_wall += seconds
        rnd.failed += fingerprint is None
        rnd.outputs.append(None if fingerprint is None else (fingerprint, out))
        pending.append(seconds)
        if time.perf_counter() - last >= hostspeed.EVERY_S:
            flush()
    if pending:
        flush()
    if recorder:
        rnd.layers = recorder.since(snap)
    return rnd


def round_wall(rounds) -> float:
    """One round's scaled wall time: the sum of each op's median time.

    Per-op medians over the rounds shed the slow spells of a shared host
    better than a median of whole-round times does.
    """
    return sum(statistics.median(ts) for ts in zip(*(r.times for r in rounds)))


def run_phase(ops, seconds: float, recorder=None):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if recorder:
            recorder.install()
        try:
            rounds.append(run_round(ops, recorder))
        finally:
            if recorder:
                recorder.uninstall()
    return rounds


def check_outputs(ops, rounds, seed: int) -> bool:
    """Check the first good output of every op; later rounds must repeat it."""
    import checks

    ok = True
    for i, op in enumerate(ops):
        results = [r.outputs[i] for r in rounds if r.outputs[i] is not None]
        if not results:
            continue
        fingerprint, out = results[0]
        try:
            op.check(out, Random(f"check/{seed}/{i}"))
        except checks.CheckFailed as exc:
            sys.stderr.write(f"wrong output: {op.label}: {exc}\n")
            ok = False
        if any(fp != fingerprint for fp, _ in results[1:]):
            sys.stderr.write(f"output differs between rounds: {op.label}\n")
            ok = False
    return ok


def layer_metrics(traced, untraced):
    from tracing import EXACT_COUNTS, LAYER_METRICS

    first = traced[0].layers
    for rnd in traced[1:]:
        for name in EXACT_COUNTS:
            if rnd.layers[name] != first[name]:
                sys.stderr.write(f"warning: {name} differs between traced rounds\n")
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [r.layers[name] for r in traced]
        value = statistics.median(values) if unit == "s" else first[name]
        metrics[name] = {"value": value, "unit": unit}
    overhead = round_wall(traced) - round_wall(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def write_spans(recorder, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": recorder.spans,
            },
            fh,
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    import_tauvi()
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](Random(f"{args.workload}/{args.seed}"))
    # Set-up is not scaled: imports track the calibration kernel poorly.
    setup_s = _AGE_AT_T0 + time.perf_counter() - _T0

    if args.trace:
        from tracing import Recorder

        untraced = run_phase(ops, args.seconds / 2)
        recorder = Recorder()
        traced = run_phase(ops, args.seconds / 2, recorder)
        rounds = untraced + traced
    else:
        rounds = run_phase(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = check_outputs(ops, rounds, args.seed)
    attempted = len(rounds) * len(ops)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        metrics = layer_metrics(traced, untraced)
        write_spans(recorder, args.workload, args.seed)
    else:
        op_times = [
            t for r in rounds for t, out in zip(r.times, r.outputs) if out is not None
        ]
        values = {
            "setup_s": setup_s,
            "wall_s": round_wall(rounds),
            "op_median_s": statistics.median(op_times or [round_wall(rounds)]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    sys.stderr.write(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
        f"{failed} failed, correct={correct}; round walls (scaled/raw) "
        + " ".join(f"{sum(r.times):.3f}/{r.raw_wall:.3f}" for r in rounds)
        + "\n"
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
