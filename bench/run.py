"""corn benchmark: one workload per run, one JSON result line on stdout.

    python3 bench/run.py --workload datagen --seed 1 --seconds 20 --trace 0

The named workload runs whole rounds for --seconds. Interleaved with it, the
other three stages run a fixed number of small rounds (the cross stages), so
each run reports every end-to-end metric of BENCHMARK.json. With no
--workload, each of the four stages runs one small round. --trace 1 reports
the per-layer metrics instead, from wrapped corn functions, and the tracing
overhead. Progress and diagnostics go to stderr; the last stdout line is the
result.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
BLAS_THREADS = 1   # fixed, and at most nproc, so figures do not depend on the host's core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("datagen", "pretrain", "perception", "policy-step")

# constructor arguments as the named workload, as a cross stage, and the
# number of rounds a cross stage runs
SIZES = {
    "datagen": ((8,), (3,), 4),            # 5-record generate_dataset calls per round
    "pretrain": ((160, 8), (40, 2), 8),    # dataset records, B=16 steps
    "perception": ((20,), (10,), 3),       # frames in the tracked sequence
    "policy-step": ((32,), (16,), 4),      # environment steps per round
}
REFERENCE_EVERY_S = 0.1


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    from the first statement of this file where that is unavailable or
    implausible (later than that statement, or 10 s or more before it)."""
    since_t0 = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return since_t0
    return age if since_t0 <= age < since_t0 + 10.0 else since_t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((ROOT / "src" / "corn").glob("*.py")))


def schedule(bench, main, others, seconds, tracer, table):
    """Interleave the named workload with the cross stages, unit by unit.

    Each cross stage runs a fixed number of whole rounds, spread evenly over
    the run: a cross unit runs whenever the share of cross units done falls
    behind the share of `seconds` gone, so every figure is sampled across
    the whole run and not in one burst. The named workload fills the rest
    and stops at the end of the first round after `seconds` (at least one
    round, two when traced). In a traced run the named workload's rounds
    alternate untraced and traced, so the overhead compares rounds made in
    the same stretch; cross units are always traced. Between units, the
    host's speed is sampled every REFERENCE_EVERY_S with the reference unit.
    Returns the untraced and traced round times, checks left out.
    """
    cross = [(stage.work(), rounds * stage.units) for stage, rounds in others]
    done = [0] * len(cross)
    total = sum(n for _, n in cross)
    primary = main.work() if main else None
    untraced, traced = [], []
    round_s, in_round, start = 0.0, False, time.perf_counter()
    next_reference = start

    def trace(on: bool) -> None:
        if tracer is None or on == tracer.installed:
            return
        if on:
            tracer.install(table)
        else:
            tracer.uninstall()

    while True:
        now = time.perf_counter()
        if now >= next_reference:
            bench.reference()
            next_reference = now + REFERENCE_EVERY_S
        elapsed = now - start
        behind = sum(done) < total and (primary is None or sum(done) / total <= elapsed / seconds)
        if behind:
            i = min(range(len(cross)), key=lambda k: done[k] / cross[k][1])
            trace(True)
            next(cross[i][0])
            done[i] += 1
            continue
        rounds = len(untraced) + len(traced)
        if primary is None or (elapsed >= seconds and not in_round and sum(done) == total
                               and rounds >= (2 if tracer else 1)):
            break
        odd = rounds % 2 == 1
        trace(odd)
        unit_start, checks = time.perf_counter(), bench.check_s
        in_round = not next(primary)
        round_s += time.perf_counter() - unit_start - (bench.check_s - checks)
        if not in_round:
            (traced if tracer and odd else untraced).append(round_s)
            round_s = 0.0
    trace(False)
    if main is not None:
        print(f"{len(untraced) + len(traced)} rounds of the named workload", file=sys.stderr)
    return untraced, traced


def run(args) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads as wl
    from layers import TRACE_TABLE, per_layer
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    workdir = BENCH / "work" / f"{args.workload or 'all'}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = wl.Run(args.seed, workdir, tracer)
    classes = {"datagen": wl.Datagen, "pretrain": wl.Pretrain,
               "perception": wl.Perception, "policy-step": wl.PolicyStep}
    try:
        if tracer:
            tracer.install(TRACE_TABLE)   # the set-up is traced too
        print(f"setup: {args.workload or 'cross stages only'}, seed {args.seed}", file=sys.stderr)
        main = classes[args.workload](bench, *SIZES[args.workload][0]) if args.workload else None
        others = [(classes[w](bench, *SIZES[w][1]), SIZES[w][2] if main else 1)
                  for w in WORKLOADS if w != args.workload]
        setup_s = process_age()
        stages = ([main] if main else []) + [stage for stage, _ in others]
        untraced, traced = schedule(bench, main, others, args.seconds, tracer, TRACE_TABLE)
        for stage in stages:
            stage.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = per_layer(tracer)
        metrics["src.lines"] = src_lines()
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            if traced and untraced else 0.0)
        traces = BENCH / "work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload or 'all'}-seed{args.seed}.trace.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics = {}
        for stage in stages:
            metrics.update(stage.metrics())
        print(f"host scale {bench.host_scale()!r} from {len(bench.reference_s)} reference units",
              file=sys.stderr)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "corn" / "__init__.py").is_file():
        print(f"error: no corn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Until the result is ready, file descriptor 1 points at stderr, so no
    # library print and no child process can write to the result stream.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args)
    finally:
        sys.stdout.flush()
        os.dup2(result_fd, 1)
        os.close(result_fd)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
