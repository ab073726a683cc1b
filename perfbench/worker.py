"""One benchmark run in a fresh process: set-up, warm-up, timed rounds, checks.

Started by ``run.py``, which passes the monotonic clock reading taken just
before this process was created (``PERFBENCH_T0_NS``), so ``setup_s`` counts
interpreter start, imports, configuration and model building. Prints the
result object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

# at least this many timed rounds in each timed section, however long they take
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1


def declared_metrics(trace: int) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import redmpc from this checkout's ``src``; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "redmpc", "__init__.py")):
        print(f"perfbench: no redmpc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import redmpc

    if os.path.dirname(os.path.dirname(os.path.abspath(redmpc.__file__))) != SRC:
        print(f"perfbench: imported redmpc from {redmpc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def timed_rounds(workload, seconds: float, first_round: int, min_rounds: int, counts: dict):
    """Whole rounds until the next one would end past ``seconds``; per-round samples."""
    rounds = []
    start = time.perf_counter()
    r = first_round
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            samples, units = workload.run_round(r)
        except Exception as exc:  # an operation of the program failed: count it, keep measuring
            print(f"perfbench: round {r} failed: {exc!r}", file=sys.stderr)
            counts["failed"] += workload.ops_per_round
            samples, units = {}, 0
        counts["attempted"] += workload.ops_per_round
        rounds.append((samples, units, time.perf_counter() - t0))
        r += 1
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def medians(rounds) -> dict[str, float]:
    """Median of every end-to-end metric over all samples of all rounds."""
    pooled: dict[str, list[float]] = {}
    for samples, _, _ in rounds:
        for name, values in samples.items():
            pooled.setdefault(name, []).extend(values)
    return {name: statistics.median(values) for name, values in sorted(pooled.items())}


def main(argv=None) -> int:
    t0_ns = int(os.environ["PERFBENCH_T0_NS"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        workload.setup()
        setup_s = (time.monotonic_ns() - t0_ns) / 1e9
        workload.warmup()
        counts = {"attempted": 0, "failed": 0}
        if not args.trace:
            rounds = timed_rounds(workload, args.seconds, 0, MIN_ROUNDS, counts)
            metrics = {"setup_s": setup_s, **medians(rounds)}
        else:
            plain = timed_rounds(workload, args.seconds / 2, 0, MIN_TRACED_ROUNDS, counts)
            tracer = tracing.Tracer()
            with tracing.installed(tracer, type(workload.model)):
                traced = timed_rounds(workload, args.seconds / 2, len(plain), MIN_TRACED_ROUNDS, counts)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
            units = sum(units for _, units, _ in traced)
            wall_s = sum(t for *_, t in traced)
            plant_seconds = tracing.calibrate_plant(workload.model, workload.spec.delta)
            metrics = tracing.layer_metrics(tracer, plant_seconds, units, wall_s, workload.load_config_s)
            metrics["trace.overhead_s"] = statistics.median(t for *_, t in traced) - statistics.median(
                t for *_, t in plain
            )
        errors = workload.check()
    finally:
        workload.close()
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    unit_of = declared_metrics(args.trace)
    if set(metrics) != set(unit_of):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(unit_of)}", file=sys.stderr)
        return 4
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
