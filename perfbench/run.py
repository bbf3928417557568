"""Benchmark of algentropy's exact engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One closed loop issues one operation at a time for whole rounds until
``--seconds`` have passed, then every output is checked against sympy and
mpmath (oracle.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, their times scaled to the reference speed of
speed.py, and the per-layer metrics of tracer.py with ``--trace 1``.
Details of the run, the measured times among them, go to
``perfbench/out/``.
"""

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("lattice_inertia", "mahler_sweep", "rational_entropy", "shift_entropy")
SETUP_PROBES = 7
# op_tail_ms falls back down this ladder if a run is too short for the
# workload's own percentile to keep ten operations beyond it
TAIL_LADDER = (99.0, 95.0, 90.0, 50.0)
MISSING = object()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def use_checkout_sources():
    """Import algentropy from this checkout's src/, with default settings."""
    if not os.path.isfile(os.path.join(SRC, "algentropy", "__init__.py")):
        sys.stderr.write(f"perfbench: no algentropy package under {SRC}\n")
        sys.exit(2)
    for name in [k for k in os.environ if k.startswith("ALGENTROPY_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)


def build(name, seed):
    import workloads

    return workloads.WORKLOADS[name](seed)


def measure_setup(args):
    """Median seconds from starting a fresh interpreter until it has
    imported algentropy and built the workload's inputs, each probe
    scaled by the reference-loop bursts around it (speed.py); also the
    measured seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    measured, scaled = [], []
    bursts = [speed.burst() for _ in range(speed.NEIGHBOURS)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            seconds = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = [speed.burst() for _ in range(speed.NEIGHBOURS)]
        measured.append(seconds)
        scaled.append(seconds * speed.NOMINAL_BURST_S / statistics.median(bursts + after))
        bursts = after
    return statistics.median(scaled), statistics.median(measured)


def run_ops(workload, seconds, tracer=None):
    """The closed loop: whole rounds until ``seconds`` have passed, with a
    burst of the reference loop (speed.py) after every
    ``speed.BURST_EVERY`` seconds of work, between operations."""
    latencies = []
    stretch_of = []  # per latency, the stretch of work it fell in
    stretches = []  # seconds of work between consecutive bursts
    bursts = [speed.burst()]
    results = {}
    repeats_differ = []
    failures = []
    attempted = rounds = 0
    start = stretch_start = perf_counter()
    for ops in workload.rounds():
        rounds += 1
        for key, fn, args in ops:
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            t0 = perf_counter()
            try:
                res = fn(*args)
            except Exception as exc:  # counted as a failed operation, not fatal
                failures.append(f"{key}: {exc!r}")
                res = MISSING
            t1 = perf_counter()
            stretch = len(stretches)
            if t1 - stretch_start >= speed.BURST_EVERY:
                stretches.append(t1 - stretch_start)
                bursts.append(speed.burst())
                stretch_start = perf_counter()
            if res is MISSING:
                continue
            latencies.append(t1 - t0)
            stretch_of.append(stretch)
            first = results.get(key, MISSING)
            if first is MISSING:
                results[key] = res
            elif first != res:
                repeats_differ.append(key)
        if perf_counter() - start >= seconds:
            break
    stretches.append(perf_counter() - stretch_start)
    bursts.append(speed.burst())
    elapsed = perf_counter() - start
    scale = speed.scales(bursts)
    return {
        "elapsed": elapsed,
        "rounds": rounds,
        "attempted": attempted,
        "latencies": latencies,
        "scaled_latencies": [t * scale[i] for t, i in zip(latencies, stretch_of)],
        "work_s": sum(stretches),
        "scaled_work_s": sum(t * k for t, k in zip(stretches, scale)),
        "results": results,
        "repeats_differ": repeats_differ,
        "failures": failures,
    }


def tail(latencies, pct):
    """Nearest-rank percentile, lowered along TAIL_LADDER until at least
    ten operations lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [pct] + [q for q in TAIL_LADDER if q < pct]:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return ordered[rank - 1], p
    return ordered[-1], 100.0


def middle_mean(latencies, lo=40.0, hi=60.0):
    """Mean of the latencies from the ``lo``-th to the ``hi``-th percentile
    (nearest rank): a median that does not jump where the latencies have
    a gap at the middle."""
    ordered = sorted(latencies)
    n = len(ordered)
    band = ordered[max(0, math.ceil(lo / 100 * n) - 1): max(1, math.ceil(hi / 100 * n))]
    return statistics.fmean(band)


def trace_overhead(workload, rounds, seconds):
    """Replay the run's first rounds, each once untraced and once traced
    (alternating which goes first), for about ``seconds``; the extra time
    of the traced copies as a percentage of the untraced.  Only rounds
    the timed phase ran are replayed, so lazy work such as the cyclotomic
    table is already done and falls on neither side."""
    from tracer import Tracer

    spent = {False: 0.0, True: 0.0}
    stop = perf_counter() + seconds
    for i, ops in zip(range(rounds), workload.rounds()):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer().install() if traced else None
            t0 = perf_counter()
            for _, fn, args in ops:
                try:
                    fn(*args)
                except Exception:  # failures are counted in the timed run
                    pass
            spent[traced] += perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if perf_counter() >= stop:
            break
    return 100.0 * (spent[True] / spent[False] - 1.0)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    use_checkout_sources()
    if args.setup_probe:
        build(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if not args.trace:
        report["setup_s"], measured_setup_s = measure_setup(args)
        report["measured"] = {"setup_s": measured_setup_s}
    workload = build(args.workload, args.seed)
    # The inputs are the benchmark's, not the program's: keep the garbage
    # collector's full passes from scanning them during the timed phase.
    gc.freeze()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    timed = run_ops(workload, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    else:
        import resource

        report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle

    completed = len(timed["latencies"])
    errors = [f"repeat of {k} gave a different result" for k in timed["repeats_differ"]]
    errors += oracle.CHECKS[args.workload](workload, timed["results"])
    report.update(attempted=timed["attempted"], failed=len(timed["failures"]),
                  elapsed_s=timed["elapsed"], distinct_ops=len(timed["results"]),
                  failures=timed["failures"][:20], errors=errors[:20])
    if args.trace:
        from tracer import metric_names

        values = tracer.metrics()
        values["trace.overhead_pct"] = trace_overhead(workload, timed["rounds"], args.seconds / 2)
        units = dict(metric_names())
        units["trace.overhead_pct"] = "%"
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        tail_s, tail_pct = tail(timed["scaled_latencies"], workload.tail_pct)
        report["tail_pct"] = tail_pct
        report["measured"].update(
            ops_per_s=completed / timed["work_s"],
            op_p50_ms=1e3 * middle_mean(timed["latencies"]),
            op_tail_ms=1e3 * tail(timed["latencies"], tail_pct)[0],
        )
        # measured over scaled time: above 1 when the machine ran slow
        report["slowdown"] = timed["work_s"] / timed["scaled_work_s"]
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "ops_per_s": {"value": completed / timed["scaled_work_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * middle_mean(timed["scaled_latencies"]), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
        }
    report["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    for line in report["failures"] + report["errors"]:
        sys.stderr.write(line + "\n")
    print(json.dumps({"correct": not errors, "attempted": timed["attempted"],
                      "failed": len(timed["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
