"""Benchmark for the rank3 library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a rank3 checkout; it imports rank3 from ./src.
Workloads: ledger-core, orbit-wide and module-split (see workloads.py and
README.md).  The run sets up its inputs from the seed, then runs timed
passes until they have taken S seconds, each pass starting with rank3's
caches cold.  Set-up is timed separately, in fresh interpreters run
between the passes.  With --trace 0 both timings are scaled to the
reference machine's speed by the speed meter (meter.py).  Every output
is checked against the ledger's pinned values.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from passes run under the tracer (tracer.py) that
alternate with untraced passes, which give the tracing overhead.  The
traced run also writes its spans to .perfbench-out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"

# One thread throughout: the suite runs its cases serially and numpy's
# BLAS stays single-threaded.  On a 2-core machine the core ledger then
# runs faster (47 s against 52 s) and uses one core instead of two, which
# keeps other processes on the machine from moving the numbers.
# numpy asks for transparent huge pages on large arrays.  Whether it gets
# them depends on how fragmented the machine's memory is, and that moved
# the ledger's peak RSS between 239 and 257 MB; without them it is steady.
RUN_ENV = {"RANK3_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMPY_MADVISE_HUGEPAGE": "0"}

# Set-up is timed this many times, each in a fresh interpreter, one before
# each of the first passes and the rest after the last.  Spreading them over
# the run evens out the speed changes of a shared machine.  The median is
# reported.  One set-up takes 0.2 to 0.5 s.
SETUP_PROBES = 9
# Speed-meter probes (meter.py) taken just before and just after each
# set-up probe, whose times scale it to the reference machine.
SETUP_METER_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import rank3, build the inputs and exit (used to "
                         "time set-up in a fresh interpreter)")
    return ap.parse_args(argv)


def setup_probe(args, times, scaled_times):
    """Time interpreter start, import and input generation in a fresh
    interpreter: append the wall seconds to times and the same scaled by
    machine speed, from probes just before and after, to scaled_times."""
    import meter
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    probes = [meter.probe_seconds() for _ in range(SETUP_METER_PROBES)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - t0
    probes += [meter.probe_seconds() for _ in range(SETUP_METER_PROBES)]
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    times.append(wall)
    scaled_times.append(meter.scaled(wall, statistics.fmean(probes)))


def timed_passes(run_pass, state, tally, seconds, before=None,
                 speed_meter=None):
    """Passes until their wall seconds add up to `seconds` (at least one),
    each with the caches cold; before(i) runs untimed ahead of pass i.

    Returns the wall seconds of each pass, the same scaled by the meter
    (empty without one), and what each pass returned.
    """
    from workloads import cold_caches
    wall, scaled, infos = [], [], []
    while not wall or sum(wall) < seconds:
        if before is not None:
            before(len(wall))
        cold_caches()
        if speed_meter is None:
            t0 = time.perf_counter()
            infos.append(run_pass(state, tally))
            wall.append(time.perf_counter() - t0)
        else:
            info, secs, secs_scaled = speed_meter.timed(run_pass, state,
                                                        tally)
            infos.append(info)
            wall.append(secs)
            scaled.append(secs_scaled)
    return wall, scaled, infos


def summary(name, values, unit):
    return "%s median %.4f %s over %d samples (min %.4f, max %.4f)" % (
        name, statistics.median(values), unit, len(values), min(values),
        max(values))


def select(metrics, spec_metrics, problems):
    """The metrics BENCHMARK.json names, with its units, in its order."""
    out = {}
    for m in spec_metrics:
        if m["name"] not in metrics:
            problems.append("metric %s was not measured" % m["name"])
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rank3" / "__init__.py").is_file() or not SPEC.is_file():
        print("error: %s must hold BENCHMARK.json and src/rank3; run the "
              "benchmark from the root of a rank3 checkout" % ROOT,
              file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)  # before numpy loads; the probes inherit it
    sys.path.insert(0, str(SRC))
    import workloads
    import rank3
    if Path(rank3.__file__).resolve().parent != SRC / "rank3":
        print("error: imported rank3 from %s, not from %s"
              % (rank3.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.SETUP:
        print("error: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.SETUP)),
              file=sys.stderr)
        return 2
    setup, run_pass = (workloads.SETUP[args.workload],
                       workloads.PASS[args.workload])
    if args.setup_only:
        setup(args.seed)
        return 0

    spec = json.loads(SPEC.read_text())
    state = setup(args.seed)
    tally = workloads.Tally()
    problems = []
    lines = ["workload %s, seed %d" % (args.workload, args.seed)]

    if not args.trace:
        import meter
        setup_wall, setup_scaled = [], []

        def probe_early(i):
            if i < SETUP_PROBES:
                setup_probe(args, setup_wall, setup_scaled)

        wall, times, _ = timed_passes(run_pass, state, tally, args.seconds,
                                      before=probe_early,
                                      speed_meter=meter.Meter())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_wall) < SETUP_PROBES:
            setup_probe(args, setup_wall, setup_scaled)
        values = {"pass_s": statistics.median(times),
                  "setup_s": statistics.median(setup_scaled),
                  "peak_rss_mb": rss_mb}
        lines += [summary("setup_s", setup_scaled, "s"),
                  summary("setup wall", setup_wall, "s"),
                  summary("pass_s", times, "s"),
                  summary("pass wall", wall, "s"),
                  "peak_rss_mb %.1f" % rss_mb]
        metrics = select(values, spec["end_to_end"], problems)
    else:
        from tracer import Tracer
        tracer = Tracer()
        plain, traced, infos = [], [], []
        while not traced or sum(plain) + sum(traced) < args.seconds:
            # Untraced and traced passes alternate, so a change in machine
            # speed falls on both alike; the difference of their medians
            # is the tracing overhead.
            times, _, info = timed_passes(run_pass, state, tally, 0)
            plain += times
            infos += info
            tracer.pass_id = len(traced)
            tracer.install()
            try:
                times, _, _ = timed_passes(run_pass, state, tally, 0)
            finally:
                tracer.uninstall()
            traced += times
        values = tracer.layer_metrics(len(traced))
        misses = tracer.coverage_misses(args.workload)
        for m in spec["per_layer"]:
            # The suite's own per-case seconds, from the untraced passes.
            if m["name"].startswith("expected.case."):
                label = m["name"][len("expected.case."):-len(".s")]
                secs = [info[label] for info in infos if info and label in info]
                values[m["name"]] = statistics.median(secs) if secs else 0.0
        values.update({
            "tracer.untraced_pass_s": statistics.median(plain),
            "tracer.traced_pass_s": statistics.median(traced),
            "tracer.overhead_s": (statistics.median(traced)
                                  - statistics.median(plain)),
            "tracer.spans": len(tracer.start) / len(traced),
            "tracer.coverage_misses": len(misses),
            "fail_ratio": tally.failed / tally.attempted,
        })
        lines += [summary("untraced pass_s", plain, "s"),
                  summary("traced pass_s", traced, "s"),
                  "tracing overhead %.4f s per pass"
                  % values["tracer.overhead_s"]]
        problems += ["coverage: " + m for m in misses]
        if tracer.absent:
            lines.append("not traced, absent from rank3: "
                         + ", ".join(tracer.absent))
        path = OUT / ("spans-%s.npz" % args.workload)
        tracer.write(path)
        lines.append("spans written to %s" % path.relative_to(ROOT))
        metrics = select(values, spec["per_layer"], problems)

    lines.append("%d ops attempted, %d failed" % (tally.attempted,
                                                   tally.failed))
    for msg in tally.errors[:20] + problems:
        print("FAIL: " + msg, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
