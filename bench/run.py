"""shellmap benchmark: end-to-end times, memory and traced per-layer costs.

Run from the repository root:

    python3 bench/run.py --workload descent_1k --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` names the
ones the benchmark gates on.  Each run is one closed-loop process: it sets
up the workload, then runs passes back to back until the next pass would
end after ``--seconds`` (always at least one).

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``wall_s``: the time of one pass, taken as the sum over its operations of
  each operation's fastest time in the run, scaled to nominal host speed by
  the best time of a calibration loop timed between operations throughout
  the run.  The shared 2-core host the benchmark was tuned on drifts in
  speed by up to 1.7x over seconds to minutes; over ten runs of a workload
  the median pass spread by 12-20% (quartile distance over median), the
  unscaled fastest operations by 11-20% and the scaled value by 3-14%.
  The unscaled figures are in the run record.
- ``setup_s``: median, over fresh processes started between passes, of
  importing shellmap and building the workload's domains and seeds.
- ``peak_rss_mb``: peak resident memory of the run.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``, the kernel sweep and
``trace.overhead_s`` (median traced minus median untraced pass time).

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate.  A full
record with the environment is written to ``.bench_out/``, next to the spans
of the last traced pass.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The host's speed drifts by up to 1.7x, for the calibration loop and the
# workloads alike.  wall_s is scaled by the loop's best time in the same
# run, expressed at the loop's nominal time: its best time on the 2-core
# Xeon host the benchmark was tuned on.
CAL_NOMINAL_S = 0.002
CAL_EVERY_S = 0.2

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SWEEP_SIZES = (1, 100, 100_000)

# Runs in a fresh interpreter: time from before `import shellmap` to the
# workload's inputs being built.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import shellmap, workloads
from pathlib import Path
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def measure_setup(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), name, str(seed), str(OUT)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def closed_loop(one_pass, seconds: float) -> list[float]:
    """Run passes back to back; stop when the next would overrun `seconds`."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(one_pass())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


# ---------------------------------------------------------------------------
# kernel sweep (traced runs; timed on the unwrapped functions)
# ---------------------------------------------------------------------------

def _seconds_per_call(fn, min_time=0.02, samples=5) -> float:
    fn()
    per_call = []
    for _ in range(samples):
        k, t0 = 0, time.perf_counter()
        while True:
            fn()
            k += 1
            t = time.perf_counter() - t0
            if t >= min_time:
                break
        per_call.append(t / k)
    return statistics.median(per_call)


def kernel_sweep(seed: int, absent: list) -> dict:
    """ns per point at n = 1, 100, 1e5 and µs per scalar call, on the
    reference sphere.  An entry point that no longer exists reads 0 and is
    listed as absent."""
    import numpy as np
    import shellmap as sm
    from shellmap import domain, dynamics, surfaces

    sphere = sm.ConvexCore.sphere(1.0)
    field = sm.ZonalLegendreField(sphere, 0.5, 0.01)
    dom = sm.RadialDomain(sphere, field)
    rng = np.random.default_rng(seed)
    n_max = max(SWEEP_SIZES)
    X = sphere.ambient_from_chart(np.stack(
        [np.arccos(rng.uniform(-1, 1, n_max)), rng.uniform(0, 2 * np.pi, n_max)], axis=-1))
    nu = sphere.normal(X)
    Xout = X + field.ambient_value(X)[:, None] * nu

    def resolve(module, name):
        fn = getattr(module, name, None)
        if fn is None:
            absent.append(f"{module.__name__}.{name}")
        return fn

    batch = {
        "dynamics.return_map_batch": (resolve(dynamics, "return_map_batch"),
                                      lambda f, n: f(dom, X[:n])),
        "domain.outer_geometry": (resolve(domain, "_outer_geometry_batch"),
                                  lambda f, n: f(dom, X[:n])),
        "surfaces.ray_solve": (resolve(surfaces, "_ray_solve_batch"),
                               lambda f, n: f(sphere, Xout[:n], -nu[:n])),
        "fields.ambient": (field, lambda f, n: (f.ambient_value(X[:n]), f.ambient_grad(X[:n]))),
    }
    metrics = {}
    for layer, (fn, call) in batch.items():
        for n in SWEEP_SIZES:
            key = f"{layer}.ns_per_point.n{n}"
            metrics[key] = 0.0 if fn is None else (
                _seconds_per_call(lambda: call(fn, n)) / n * 1e9)

    p = sm.SurfacePoint.from_chart(sphere, 1.0, 0.5)
    v = sm.frame_at(sphere, p).vectors[0]
    scalar = {
        "dynamics.return_map": (resolve(dynamics, "return_map"), lambda f: f(dom, p)),
        "surfaces.frame_at": (resolve(surfaces, "frame_at"), lambda f: f(sphere, p)),
        "surfaces.retract": (resolve(surfaces, "retract"), lambda f: f(sphere, p, v, 1e-3)),
    }
    for name, (fn, call) in scalar.items():
        metrics[f"{name}.us_per_call"] = 0.0 if fn is None else (
            _seconds_per_call(lambda: call(fn)) * 1e6)
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

COUNT_KINDS = ("calls", "points", "small_calls", "seed_steps", "unresolved", "scalar")


def layer_metrics(names, tr) -> dict:
    """The span and counter metrics among `names` for one traced pass."""
    own = tr.self_seconds()
    counts = tr.counts
    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = own.get(layer, 0.0)
        elif kind == "converged_ratio":
            seeds = counts.get(layer + ".seeds", 0.0)
            out[name] = (seeds - counts.get(layer + ".unresolved", 0.0)) / seeds if seeds else 0.0
        elif kind in COUNT_KINDS:
            out[name] = float(counts.get(name, 0.0))
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "git_commit": commit,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def calibration(a) -> float:
    """Time of a fixed small-array numpy loop, shellmap's kind of work."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(40):
        b = a * 1.5
        c = np.sum(b * a, axis=-1)
        np.where(c > 0.5, np.linalg.norm(b, axis=-1), c)
    return time.perf_counter() - t0


def fastest_pass(op_walls: list) -> float:
    """Sum over a pass's operations of each one's fastest time in the run."""
    return sum(min(walls[op] for walls in op_walls if op in walls) for op in op_walls[0])


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "shellmap" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no shellmap sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance test's seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.build(args.workload, seed, OUT)
    wl.warm_up()
    attempted = failed = 0
    op_walls = []

    def timed_pass(between=None):
        nonlocal attempted, failed
        t0 = time.perf_counter()
        a, f = wl.run_pass(between)
        wall = time.perf_counter() - t0
        attempted += a
        failed += f
        return wall

    metrics = {}
    if not args.trace:
        setup, cal = [], []
        cal_input = np.linspace(0.0, 1.0, 3000).reshape(1000, 3)
        last_cal = [0.0]

        def sample_speed():
            # between operations, at most every CAL_EVERY_S of the run
            if time.perf_counter() - last_cal[0] >= CAL_EVERY_S:
                cal.append(calibration(cal_input))
                last_cal[0] = time.perf_counter()

        def one_pass():
            wall = timed_pass(sample_speed)
            op_walls.append(wl.op_walls)
            # set-up samples are spread over the run, not taken in one burst
            if len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(args.workload, seed))
            return wall

        walls = closed_loop(one_pass, args.seconds)
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(args.workload, seed))
        raw = fastest_pass(op_walls)
        metrics = {
            "wall_s": raw * CAL_NOMINAL_S / min(cal),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record = {"pass_walls": walls, "median_pass_s": statistics.median(walls),
                  "fastest_pass_s": raw, "calibration_best_s": min(cal),
                  "calibration_samples": len(cal), "setup_runs": setup}
    else:
        tr = tracing.Tracer()
        metrics.update(kernel_sweep(seed, tr.absent))
        names = [m["name"] for m in wanted]
        plain, traced, per_pass = [], [], []

        def pair():
            t0 = time.perf_counter()
            plain.append(timed_pass())
            op_walls.append(wl.op_walls)
            tr.reset()
            tracing.install(tr)
            try:
                traced.append(timed_pass())
            finally:
                tr.uninstall()
            per_pass.append(layer_metrics(names, tr))
            return time.perf_counter() - t0

        closed_loop(pair, args.seconds)
        for name in per_pass[0]:
            metrics[name] = statistics.median(p[name] for p in per_pass)
        prefix = "harness.scenario."
        for name in names:
            if name.startswith(prefix):
                op = name[len(prefix):-len(".wall_s")]
                metrics[name] = min((w[op] for w in op_walls if op in w), default=0.0)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        counts_repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in p
                            if not k.endswith("self_s"))
        record = {"untraced_walls": plain, "traced_walls": traced,
                  "counts_repeat": counts_repeat, "absent": sorted(set(tr.absent))}
        np.savez(OUT / f"{args.workload}-seed{seed}.spans.npz", **tr.spans())

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment()
    record.update(workload=args.workload, seed=seed, trace=args.trace, seconds=args.seconds,
                  environment=env, error_rate=failed / attempted, errors=wl.errors,
                  result=result)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    for err in wl.errors:
        print(f"check failed: {err}")
    if args.trace and record["absent"]:
        print(f"absent entry points: {', '.join(record['absent'])}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
