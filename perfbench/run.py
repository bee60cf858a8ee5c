"""eitcool benchmark runner.

    python3 perfbench/run.py --workload cool-scan --seed 1 --seconds 20 \
        --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
source checkout, as a closed loop: one process, one operation at a time,
each started when the previous one returned.  BLAS is pinned to one
thread and no ``--jobs`` is passed, so eitcool's own defaults decide its
parallelism.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off);
with ``--trace 1`` they are the per-layer ones, from passes run with span
wrappers installed (tracing.py), plus the tracing overhead against
untraced passes of the same run.  Lines before it give the environment
and each operation's median wall time.  Artifacts, spans and a full
result record go to ``.perfbench_out/`` in the checkout.
"""

import os

# pin BLAS before numpy is imported anywhere in this process or its probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
KERNEL_DIMS = (104, 164)        # d = 4 (n_max + 1) at n_max 25 and 40

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op_name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op_name}: {p}" for p in problems]
            for p in problems:
                print(f"check failed: {op_name}: {p}", file=sys.stderr)


def run_pass(ops, tally, pass_no, tracer=None):
    """One pass over the operation list; returns {op name: wall seconds}.

    Only the operation itself is timed; its output check runs after.
    """
    gc.collect()
    times = {}
    for op in ops:
        out_dir = os.path.join(OUT, "artifacts", op.name)
        span = None
        if tracer is not None:
            tracer.op = [pass_no, op.name]
            span = tracer.begin("op." + op.name)
        t0 = time.perf_counter()
        try:
            result, problems = op.run(out_dir), None
        except Exception:
            problems = ["raised " + traceback.format_exc()]
        times[op.name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.op = None
        if problems is None:
            try:
                problems = op.check(result)
            except Exception:
                problems = ["check raised " + traceback.format_exc()]
        tally.record(op.name, problems)
    return times


def run_passes(ops, tally, budget, tracer=None):
    """Passes until another one would overrun ``budget`` seconds.

    Returns (untraced, traced) lists of per-operation times.  With a
    tracer, passes alternate untraced and traced (wrappers installed for
    the pass), so a drift in machine speed hits both sides alike; there is
    at least one pass of each kind.
    """
    untraced, traced, walls = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_no = len(untraced) + len(traced)
        if tracer is not None and pass_no % 2:
            with tracing.Instrumentation(tracer):
                traced.append(run_pass(ops, tally, pass_no, tracer))
        else:
            untraced.append(run_pass(ops, tally, pass_no))
        walls.append(time.perf_counter() - t0)
        done = tracer is None or traced
        if done and (time.perf_counter() - t_start
                     + statistics.median(walls) > budget):
            return untraced, traced


def pass_seconds(passes):
    return [sum(p.values()) for p in passes]


def measure_setup(ops):
    """Median wall time of a fresh interpreter importing eitcool.cli and
    validating the workload's configs."""
    pairs = [[op.preset, op.overrides] for op in ops if hasattr(op, "preset")]
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           json.dumps(pairs)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def zgemm_rate(d):
    """Measured single-thread complex matmul rate at d x d, flop/s: the
    median of 5 samples of at least 20 ms each."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for _ in range(3):
        a @ b
    t0, n = time.perf_counter(), 0
    while time.perf_counter() - t0 < 0.02:
        a @ b
        n += 1
    per = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            a @ b
        per.append((time.perf_counter() - t0) / n)
    return 8.0 * d**3 / statistics.median(per)


def environment(seed):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    try:
        git = ["git", "-C", ROOT]
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        top = subprocess.run(git + ["rev-parse", "--show-toplevel"], env=env,
                             capture_output=True, text=True)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(git + ["rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                env=env, capture_output=True, text=True).stdout.strip())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def end_to_end(ops, passes, setup_s):
    op_medians = {op.name: statistics.median(p[op.name] for p in passes)
                  for op in ops}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(pass_seconds(passes)),
        "peak_rss_mb": rss_mb,
    }, op_medians


def per_layer(tracer, traced, untraced):
    rates = {}

    def rate(d):
        if d not in rates:
            rates[d] = zgemm_rate(d)
        return rates[d]

    for d in KERNEL_DIMS:
        rate(d)
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_pass = {}
    for i, s in enumerate(spans):
        if s["op"] is not None:
            by_pass.setdefault(s["op"][0], []).append(i)
    rows = [tracing.layer_metrics(spans, selfs, idx, rate)
            for idx in by_pass.values()]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_seconds(traced))
        / statistics.median(pass_seconds(untraced)) - 1.0)
    for d in KERNEL_DIMS:
        metrics[f"kernel.zgemm_gflops.d{d}"] = rates[d] / 1e9
    return metrics, tracing.LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "eitcool")):
        print(f"error: no eitcool sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, SRC)
    try:
        ops = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    os.makedirs(OUT, exist_ok=True)

    tally = Tally()
    setup_s = measure_setup(ops) if args.trace == 0 else None
    # warm-up at smoke size: first-call imports and allocations, not timed
    run_pass(workloads.build(args.workload, args.seed, smoke=True), tally,
             pass_no=-1)
    record = {"workload": args.workload, "environment": environment(args.seed)}
    if args.trace == 0:
        passes, _ = run_passes(ops, tally, args.seconds)
        metrics, op_medians = end_to_end(ops, passes, setup_s)
        units = E2E_UNITS
        record.update(passes=passes, op_medians=op_medians)
        for op in ops:
            kind = "preset_s" if hasattr(op, "preset") else "op_s"
            label = " (reduced)" if op.reduced else ""
            print(f"{kind}.{op.name}{label}: {op_medians[op.name]:.6f} s "
                  f"(median of {len(passes)})")
    else:
        tracer = tracing.Tracer()
        untraced, traced = run_passes(ops, tally, args.seconds, tracer)
        metrics, units = per_layer(tracer, traced, untraced)
        record.update(untraced=untraced, traced=traced, spans=tracer.spans)
    print("env " + json.dumps(record["environment"], sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record.update(result=result, problems=tally.problems)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
