"""srmarket benchmark: one workload per run, in one process with one thread.

    python3 bench/run.py --workload config_suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

A run imports srmarket from the checkout's ``src``, generates the
workload's inputs from ``--seed``, makes one untimed warm-up pass, then
repeats timed passes for ``--seconds`` and checks every pass's outputs.
While the timed passes run, a speed meter (speedmeter.py) times a fixed
piece of work every 20 ms; each pass's wall times are scaled by the host's
speed during that pass, and the times reported are the medians over the
run's passes of the scaled times.  ``setup_s`` is the median over three
fresh interpreters, each of which imports srmarket, generates the inputs
and makes the warm-up pass, of its wall time scaled the same way.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes (see tracing.py).  A fuller record (every pass time and,
with ``--trace 1``, calls and times per span name of the last traced pass)
goes to ``.bench_out/`` in the checkout.
See README.md in this directory.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread: the library is single-threaded, and thread pools
# spinning up and down make timings drift
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speedmeter import SpeedMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("config_suite", "long_session", "elicitation")
SETUP_PROBES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = (("pass_s", "s"), ("finite_s", "s"), ("real_line_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def load_library():
    """Import srmarket from this checkout's sources and nowhere else."""
    init = SRC / "srmarket" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no srmarket sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import srmarket
    if Path(srmarket.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported srmarket from {srmarket.__file__}, not {SRC}")
    return srmarket


def set_up(workload: str, seed: int, scratch: Path):
    """Import, input generation and the warm-up pass: what setup_s times."""
    sm = load_library()
    import workloads
    wl = workloads.WORKLOADS[workload](sm, seed, str(scratch))
    wl.run_pass()
    return sm, wl


def probe_setup(args) -> tuple:
    """Wall time of one fresh interpreter doing set_up and exiting, and the
    speed meter's scale factor over that set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: set-up probe ran over {PROBE_TIMEOUT_S} s")
    dt = perf_counter() - t0
    if proc.returncode != 0:
        sys.exit("bench: set-up probe failed:\n" + proc.stderr[-2000:])
    return dt, json.loads(proc.stdout.strip().splitlines()[-1])["scale"]


def timed_passes(wl, seconds: float, ck, min_passes: int, tracer=None,
                 layers=None, meter=None) -> list:
    """Passes until ``seconds`` have gone by; each pass's outputs are checked
    after it.  With a tracer, each pass's per-layer summary goes to layers;
    with a speed meter, each pass's scale factor goes to its ``scale``."""
    results = []
    deadline = perf_counter() + seconds
    while len(results) < min_passes or perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        if meter is not None:
            meter.reset()
        res = wl.run_pass()
        if meter is not None:
            res.scale = meter.scale()
        if tracer is not None:
            layers.append(tracer.summarize(res.total_s))
        wl.check(res.outputs, ck)
        res.outputs = None
        results.append(res)
    return results


def run_one(args) -> int:
    import workloads
    from tracing import PER_LAYER, Tracer

    # set-up is an end-to-end metric, so a traced run does not probe it
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    sm, wl = set_up(args.workload, args.seed, scratch)
    ck = workloads.Checker()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "setup_probes_s": setup}
    try:
        if args.trace:
            untraced = timed_passes(wl, args.seconds / 3.0, ck, 2)
            tracer = Tracer()
            tracer.install(sm)
            layers = []
            traced = timed_passes(wl, args.seconds * 2.0 / 3.0, ck, 2,
                                  tracer, layers)
            record["spans_by_name"] = tracer.table()
            passes = untraced + traced
            metrics = {name: statistics.fmean(s[name] for s in layers)
                       for name, _ in PER_LAYER if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = metrics["trace.pass_s"] - \
                statistics.fmean(r.total_s for r in untraced)
            units = dict(PER_LAYER)
            record["untraced_pass_s"] = [r.total_s for r in untraced]
        else:
            meter = SpeedMeter()
            meter.start()
            try:
                passes = timed_passes(wl, args.seconds, ck, MIN_PASSES,
                                      meter=meter)
            finally:
                meter.stop()

            def scaled(part):
                return statistics.median(getattr(r, part) * r.scale
                                         for r in passes)
            metrics = {
                "pass_s": scaled("total_s"),
                "finite_s": scaled("finite_s"),
                "real_line_s": scaled("real_line_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(wall * scale for wall, scale in setup),
            }
            units = dict(END_TO_END)
            record["pass_scale"] = [r.scale for r in passes]
            record["wall_median_s"] = {
                part: statistics.median(getattr(r, part) for r in passes)
                for part in ("total_s", "finite_s", "real_line_s")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    record.update(pass_s=[r.total_s for r in passes],
                  finite_s=[r.finite_s for r in passes],
                  real_line_s=[r.real_line_s for r in passes],
                  checks=ck.count, check_failures=ck.failures[:20],
                  operation_errors=[e for r in passes for e in r.errors][:20])
    result = {"correct": ck.passed, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in ck.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for error in record["operation_errors"]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {ck.count} checks, "
          f"{'all passed' if ck.passed else 'FAILED'}; "
          f"{failed} of {attempted} operations failed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(json.dumps(result))
    return 0 if ck.passed else 1


def run_all(args) -> int:
    """Each workload in its own process; one summary line for all."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        scratch = OUT / f"probe-{os.getpid()}"
        meter = SpeedMeter()
        meter.start()
        try:
            set_up(args.workload, args.seed, scratch)
        finally:
            meter.stop()
            shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"scale": meter.scale()}))
        return 0
    load_library()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
