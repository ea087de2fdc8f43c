"""Benchmark for unansqgen: seeded SQuAD-shaped workloads, end-to-end metrics,
and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload full-pair2seq --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

`--workload all` runs every workload, each in its own process. A workload
sets up (inputs, vocab, models and a checkpoint save/load round trip,
several times; the median counts, plus one warm-up), then runs the phases
align, train, ppl, generate, evaluate and augment for their share of
`--seconds`, checking every output outside the timed regions.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics. With `--trace 1` the run measures half its time
untraced and half traced, and reports the per-layer metrics, the self time
per layer, and the tracing overhead (traced minus untraced end-to-end
numbers); the spans go to `.perfbench/spans-<workload>.csv.gz`. The lines
before the JSON object give the machine facts and every metric with its unit;
`.perfbench/result-<workload>-seed<n>-trace<t>.json` keeps both.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_BUILDS = {"full-pair2seq": 3, "corpus": 5}


def _import_program():
    """Import unansqgen from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import unansqgen
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import unansqgen from {src}: {exc}")
    if Path(unansqgen.__file__).resolve().parent != src / "unansqgen":
        raise SystemExit(f"perfbench: unansqgen resolved to {unansqgen.__file__}, not {src}")


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def machine_facts(seed):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def run_one(name, seed, seconds, trace):
    import bench
    import tracing
    import workloads

    shape = workloads.SHAPES[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer()
    try:
        work = bench.Workload(shape, seed, workdir, tracer)
        builds = [work.build() for _ in range(SETUP_BUILDS[name])]
        setup_s = statistics.median(builds) + work.warm_up()
        work.check_metric_oracle()
        share = 0.5 if trace else 1.0
        reps = bench.run_phases(work, seconds * share)
        e2e = bench.end_to_end(reps)
        if trace:
            tracer.install()
            try:
                tracer.enabled = True
                tracer.phase = "setup"
                work.build()
                traced_reps = bench.run_phases(work, seconds * share, tracer)
                tracer.enabled = False
            finally:
                tracer.uninstall()
            ops = {phase: sum(r.ops for r in rs) for phase, rs in traced_reps.items()}
            ops["setup"] = 1
            values = bench.per_layer(tracer, ops, bench.end_to_end(traced_reps), e2e)
            units = bench.per_layer_units()
            tracer.write(OUT / f"spans-{name}.csv.gz")
        else:
            values = {"setup_s": setup_s, **e2e, "peak_rss_mb": bench.peak_rss_mb()}
            units = bench.E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = work.checks
    facts = machine_facts(seed)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {name} seconds {seconds} trace {trace} "
          + " ".join(f"{p}.reps={len(r)}" for p, r in reps.items()))
    for metric, value in values.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    p90 = bench.latency_p90(reps)
    if p90 is not None:
        print(f"generate.latency_p90_s = {p90:.6g} s ({len(reps['generate'])} questions)")
    print(f"failed_share = {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed} of {checks.attempted})")
    for message in checks.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {"workload": name, "seconds": seconds, "trace": trace, "machine": facts,
              "reps": {p: len(r) for p, r in reps.items()}, **result}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


def run_all(args):
    """Every workload in its own process, so each peak RSS is its own."""
    results = {}
    code = 0
    for name in SETUP_BUILDS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    summary = {
        "correct": all(r is not None and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{name}/{m}": v for name, r in results.items() if r
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SETUP_BUILDS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
