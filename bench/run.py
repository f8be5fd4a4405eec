"""pursuitlab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload {train,sweep,mpc_laps} --seed N \
        --seconds S --trace {0,1}

An untraced run (``--trace 0``) times whole passes of the workload for about
``S`` seconds and prints the end-to-end metrics. A traced run (``--trace 1``)
spends half of ``S`` on untraced passes and half on passes with a span
around every call into pursuitlab's public functions, and prints the
per-layer metrics plus the tracing overhead. Both print a detailed report
line, then one JSON result line, and exit 1 when a correctness check
fails. See bench/README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy loads
# One BLAS thread, fixed before numpy loads: multi-threaded OpenBLAS makes the
# first PPO update several times slower and widens run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # extra set-up samples, each in a fresh interpreter

END_TO_END = {
    "setup_s": "s",
    "control_steps_per_s": "steps/s",
    "step_us_p50": "us",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sweep", "mpc_laps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args):
    import numpy as np
    import scipy
    import yaml

    import pursuitlab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "pursuitlab": pursuitlab.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_samples(args, first: dict) -> list[dict]:
    """This process's set-up sample plus SETUP_PROBES fresh-interpreter ones.

    Each sample is the raw set-up time and the host-speed scale measured
    right after it, in the same process."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pursuitlab" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"bench: no pursuitlab sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp_dir:
        import workloads
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(tmp_dir))
        setup_s = time.perf_counter() - T0
        import measure
        setup = {"raw_s": setup_s, "scale": measure.current_scale()}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        return run(args, workload, setup)


def run(args, workload, setup: dict) -> int:
    import measure

    setup = setup_samples(args, setup)
    workload.warm_up()

    probe = measure.Probe()
    results, intervals = measure.measure(
        workload, probe, args.seconds / 2 if args.trace else args.seconds)
    e2e = {"setup_s": statistics.median(s["raw_s"] * s["scale"] for s in setup),
           **measure.figures(results, intervals, probe, calibrated=True)}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args),
        "setup_s_samples": setup,
        "end_to_end": {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()},
        "untraced": phase_report(results, intervals, probe),
        "outcomes": results[0].outcomes,
    }

    all_results = list(results)
    if args.trace:
        metrics, traced_results, report["traced"] = traced_run(args, workload, e2e)
        all_results += traced_results
    else:
        metrics = report["end_to_end"]

    checks = {}
    for r in all_results:
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and bool(ok)
    first = json.dumps(all_results[0].outcomes, sort_keys=True)
    checks["passes_identical"] = all(
        json.dumps(r.outcomes, sort_keys=True) == first for r in all_results)
    report["checks"] = checks
    correct = all(checks.values())

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in all_results),
        "failed": sum(r.failed for r in all_results),
        "metrics": metrics,
    }
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


def phase_report(results, intervals, probe) -> dict:
    import measure

    bursts = list(probe.calibrator.duration)
    return {
        "passes": len(results),
        "pass_s": [(t1 - t0) * 1e-9 for t0, t1 in intervals],
        "step_samples": len(probe.begin_ns),
        "calibrated": measure.figures(results, intervals, probe, calibrated=True),
        "raw": measure.figures(results, intervals, probe, calibrated=False),
        "bursts": len(bursts),
        "burst_ms_median": statistics.median(bursts) * 1e-6,
    }


def traced_run(args, workload, e2e: dict):
    """Traced passes: per-layer metrics, the pass results, and a report section."""
    import measure
    import tracing

    tracer = tracing.Tracer()
    probe = measure.TraceProbe(tracer)
    with tracing.Instrumentation(tracer):
        results, intervals = measure.measure(workload, probe, args.seconds / 2)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    traced = measure.figures(results, intervals, probe, calibrated=True)

    values, calls = tracing.span_summary(tracer, len(results), workload.ppo_epochs)
    outcomes = results[0].outcomes
    for name in ("lap_time_s", "best_multiplier.teacher", "best_multiplier.adaptive",
                 "best_multiplier.fixed"):
        values[name] = outcomes.get(name) or 0.0
    values["evaluation.laps_incomplete"] = outcomes.get("laps_incomplete", 0)
    values["step_us_p99"] = e2e["step_us_p99"]
    values["trace_overhead.control_steps_per_s"] = (
        traced["control_steps_per_s"] - e2e["control_steps_per_s"])
    values["trace_overhead.step_us_p50"] = traced["step_us_p50"] - e2e["step_us_p50"]

    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in tracing.PER_LAYER.items()}
    section = {**phase_report(results, intervals, probe), "spans": len(tracer.start),
               "spans_file": spans_path.name, "calls_per_pass": calls}
    return metrics, results, section


if __name__ == "__main__":
    sys.exit(main())
