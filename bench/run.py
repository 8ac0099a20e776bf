#!/usr/bin/env python3
"""Benchmark of the ohlab package: one workload per process.

    python3 bench/run.py --workload breaking --seed 0 --seconds 30 --trace 0

Run from the root of a source tree; ohlab is imported from its `src/`.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json
(run_s, setup_s, peak_rss_mb), with times scaled to a reference host speed
that bench/hostclock.py samples during the run; with --trace 1 it spends
half of --seconds untraced and half traced, times raw wall seconds, and
reports the per-layer metrics, from spans recorded around calls into
ohlab's public functions.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the `#` lines before it give the environment and the pass
times, and bench/out/ keeps a copy of both (plus the spans when traced).
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the ohlab sources are missing.  bench/README.md describes the workloads.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# one BLAS thread: on a 2-core host two threads gained ~5% wall time on the
# wave workload at twice the CPU, and added a ~1 s first-call cost
BLAS_THREADS = "1"
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["breaking", "coevolve", "criteria_map",
                            "wave_branch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--toy", action="store_true",
                   help="toy problem sizes, for the benchmark's self-tests")
    p.add_argument("--reference", type=Path, default=HERE / "reference.json",
                   help="reference values and tolerances of the checks")
    return p.parse_args(argv)


def set_up(workload_cls, args, reference, workdir, clock):
    """Fresh `import ohlab`, the workload's inputs and reference data, and one
    warm-up call at toy size; returns (seconds, workload)."""
    for name in [m for m in sys.modules
                 if m == "ohlab" or m.startswith("ohlab.")]:
        del sys.modules[name]

    def build():
        importlib.import_module("ohlab")
        job = workload_cls(args.seed, args.toy, reference)
        job.warm_up(workdir)
        return job

    job, seconds, _ = clock.timed(build)
    return seconds, job


class Passes:
    """Seconds of each pass (scaled to the reference host speed, and raw
    wall), CPU seconds, ops attempted and failed, and the check values of the
    last pass."""

    def __init__(self):
        self.walls, self.raw_walls, self.cpus = [], [], []
        self.attempted = self.failed = 0
        self.values = {}


def attempt(job, workdir):
    try:
        return job.run_pass(workdir)
    except sys.modules["ohlab.errors"].OhlabError as exc:
        print(f"# pass failed: {exc!r}")
        return None


def measure(job, seconds, workdir, clock, tracer=None, renew=None) -> Passes:
    """Run passes until the next one would end past `seconds` (at least
    one); check the outputs of each pass outside the timed region.

    `renew`, when given, sets the job up afresh and is called SETUP_REPEATS
    - 1 times, spread evenly over the run, so that set-up time samples the
    same host conditions as the passes."""
    res = Passes()
    renewals = SETUP_REPEATS - 1 if renew else 0
    start = time.perf_counter()
    while True:
        if renewals and (time.perf_counter() - start) * SETUP_REPEATS \
                >= (SETUP_REPEATS - renewals) * seconds:
            job = renew()
            renewals -= 1
        if tracer is not None:
            tracer.enabled = True
        c0 = time.process_time()
        outputs, scaled, wall = clock.timed(
            functools.partial(attempt, job, workdir))
        res.cpus.append(time.process_time() - c0)
        res.walls.append(scaled)
        res.raw_walls.append(wall)
        if tracer is not None:
            tracer.enabled = False
        if outputs is None:
            ops = [False] * job.ops_per_pass
        else:
            ops, res.values = job.check(outputs, workdir)
        res.attempted += len(ops)
        res.failed += ops.count(False)
        if time.perf_counter() - start + wall > seconds:
            for _ in range(renewals):
                renew()
            return res


def environment(args) -> dict:
    import numpy

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "fft": "numpy.fft (pocketfft)",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def layer_metrics(tracer, plain: Passes, traced: Passes) -> dict:
    """Per-layer values per traced pass; 0 for a layer the workload does not
    reach."""
    totals = tracer.totals()
    k = len(traced.walls)

    def get(name, key):
        return totals.get(name, {}).get(key, 0) / k

    def per(name, scale, key="items"):
        count = get(name, key)
        return get(name, "s") / count * scale if count else 0.0

    return {
        "evolution.simulate.self_s": get("evolution.simulate", "self_s"),
        "evolution.rk4_step.calls": get("evolution.rk4_step", "calls"),
        "evolution.rk4_step.s": get("evolution.rk4_step", "s"),
        "evolution.rk4_step.us_per_call": per("evolution.rk4_step", 1e6,
                                              "calls"),
        "evolution.estimate_blowup.s": get("evolution.estimate_blowup", "s"),
        "evolution.write_timeseries.s": get("evolution.write_timeseries", "s"),
        "characteristics.co_evolve.self_s":
            get("characteristics.co_evolve", "self_s"),
        "characteristics.advance.calls": get("characteristics.advance",
                                             "calls"),
        "characteristics.advance.self_s": get("characteristics.advance",
                                              "self_s"),
        "characteristics.provider.advance_to.self_s":
            get("characteristics.provider.advance_to", "self_s"),
        "characteristics.write_ensemble_csv.s":
            get("characteristics.write_ensemble_csv", "s"),
        "fourier.evaluate.calls": get("fourier.evaluate", "calls"),
        "fourier.evaluate.points": get("fourier.evaluate", "items"),
        "fourier.evaluate.s": get("fourier.evaluate", "s"),
        "fourier.evaluate.ns_per_point": per("fourier.evaluate", 1e9),
        "scan.scan.self_s": get("scan.scan", "self_s"),
        "criteria.all_reports.calls": get("criteria.all_reports", "calls"),
        "criteria.characteristics_criterion.s":
            get("criteria.characteristics_criterion", "s"),
        "criteria.characteristics_criterion.ms_per_call":
            per("criteria.characteristics_criterion", 1e3, "calls"),
        "initial.two_mode_quantities.s": get("initial.two_mode_quantities",
                                             "s"),
        "scan.write_region_csv.s": get("scan.write_region_csv", "s"),
        "waves.continuation_branch.s": get("waves.continuation_branch", "s"),
        "waves.branch_point_ms": per("waves.continuation_branch", 1e3),
        "waves.solve_periodic_wave.calls": get("waves.solve_periodic_wave",
                                               "calls"),
        "waves.solve_periodic_wave.s": get("waves.solve_periodic_wave", "s"),
        "waves.ode_residual.s": get("waves.ode_residual", "s"),
        "cpu_util": sum(plain.cpus) / sum(plain.walls),
        "tracing_overhead_s": (statistics.median(traced.walls)
                               - statistics.median(plain.walls)),
        "fail_ratio": ((plain.failed + traced.failed)
                       / (plain.attempted + traced.attempted)),
    }


def run(args, reference, workdir) -> int:
    import hostclock
    import spans
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    # spans stay free of the sampler's time: the traced run times raw wall
    clock = (hostclock.WallClock() if args.trace
             else hostclock.HostClock(workload_cls.host_kernel))
    setups = []

    def renew():
        seconds, job = set_up(workload_cls, args, reference, workdir, clock)
        setups.append(seconds)
        return job

    clock.start()
    try:
        job = renew()
        env = environment(args)
        origin = time.perf_counter()
        if args.trace:
            tracer = spans.Tracer()
            plain = measure(job, args.seconds / 2, workdir, clock)
            tracer.install()
            try:
                traced = measure(job, args.seconds / 2, workdir, clock,
                                 tracer)
            finally:
                tracer.uninstall()
        else:
            tracer = None
            plain = measure(job, args.seconds, workdir, clock, renew=renew)
    finally:
        clock.stop()
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        metrics.update(traced.values)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        log = {"untraced_pass_s": plain.walls, "traced_pass_s": traced.walls}
    else:
        metrics = {
            "run_s": statistics.median(plain.walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        attempted, failed = plain.attempted, plain.failed
        log = {"pass_s": plain.walls, "wall_pass_s": plain.raw_walls,
               "kernel_samples": len(clock.durations),
               "kernel_median_s": statistics.median(clock.durations),
               "check_values": plain.values}
    log["setup_s"] = setups
    return report(args, env, log, metrics, attempted, failed, tracer, origin)


def report(args, env, log, metrics, attempted, failed, tracer, origin) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        metrics.setdefault(m["name"], 0.0)   # values of other workloads
    extra = set(metrics) - set(units)
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(metrics[name]),
                                 "unit": units[name]} for name in units}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "log": log, "result": result}, fh,
                  indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl", origin)
    print("# environment " + json.dumps(env))
    print("# " + json.dumps(log))
    passes = {k: len(v) for k, v in log.items() if k.endswith("pass_s")}
    print(f"# passes {passes}, fail_ratio {failed / attempted:g} "
          f"({failed}/{attempted} ops)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "ohlab" / "__init__.py").is_file():
        print(f"ohlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(args.reference.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
