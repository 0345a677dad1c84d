"""corrineq benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's own ``src/``.  The run times the package's
import plus input generation several times (``setup_s``), repeats the
workload's fixed list of operations until ``--seconds`` is used up, checks
every result against its reference, and prints one JSON object as the
last line of stdout.  With ``--trace 0`` it carries the end-to-end metrics:
the lowest set-up, and for wall and CPU time the sum over the operations of
each one's lowest time in the run; with ``--trace 1`` it alternates
untraced and traced passes and carries the per-layer metrics.  A fuller
report (machine facts, medians and percentiles, failures, scaling rows)
goes to ``.perfbench-out/`` in the checkout.  Metric names and units are
read from ``BENCHMARK.json`` at the checkout's root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 15
SETUP_BURST = 3
MODULES = ("cli", "lhv", "catalog", "dsl", "polynomials", "protocol", "quantum", "optimize")


class SetupError(Exception):
    """The checkout has no usable corrineq package."""


def import_corrineq() -> SimpleNamespace:
    """Import corrineq afresh from the checkout, never from site-packages."""
    for name in [m for m in sys.modules if m == "corrineq" or m.startswith("corrineq.")]:
        del sys.modules[name]
    package = importlib.import_module("corrineq")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"corrineq was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"corrineq.{m}") for m in MODULES})


# ------------------------------------------------------------ facts

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# ------------------------------------------------------------ timing

def summarize(samples) -> dict:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered)
    out = {"median": statistics.median(ordered), "min": ordered[0], "count": k,
           "percentile": None, "value": None}
    if k > 10:
        p = math.floor(100 * (k - 10) / k)
        out["percentile"] = p
        out["value"] = ordered[max(math.ceil(p * k / 100) - 1, 0)]
    return out


def place(cores, core):
    """Run the calling thread, and the threads it starts, on `core` alone."""
    os.sched_setaffinity(0, {cores[core % len(cores)]})


def run_pass(ops, memo, tracer, failures, cores, core) -> dict:
    """One pass over the fixed list; returns {op name: (wall s, cpu s)}.

    A single-threaded operation runs on one core, `core`; one that starts
    worker threads gets every core.
    """
    per_op = {}
    for op in ops:
        if op.threads > 1:
            os.sched_setaffinity(0, cores)
        else:
            place(cores, core)
        span = tracer.open(op.span, op=op.name, **op.params) if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if span is not None:
            tracer.close(span)
        if error is None:
            try:
                op.verify(result, memo)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": op.name, "error": error})
        per_op[op.name] = (t1 - t0, c1 - c0)
    return per_op


def best_sum(per_op: dict) -> float:
    """Each operation's lowest time in the run, summed over the fixed list.

    A neighbour's burst of load slows the operations it overlaps; taking
    the minimum per operation rather than per pass keeps such a burst out
    of the figure as long as each operation ran once outside of it.
    """
    return sum(min(samples) for samples in per_op.values())


def traced_bytes_per_shot(call, shots) -> float:
    """Peak heap growth during one protocol call, per shot (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(shots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / shots


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ------------------------------------------------------------ main

def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> dict:
    import tracing
    import workloads

    if not (SRC / "corrineq" / "__init__.py").is_file():
        raise SetupError(f"no corrineq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  the dependency is loaded before set-up is timed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    # the cores of a shared host do not run equally fast, and which one a
    # process lands on changes from run to run; set-ups and passes take
    # turns on each core, so each operation's lowest time is the one it
    # gets on the core that is fastest during the run
    cores = sorted(os.sched_getaffinity(0))

    def timed_setup(index):
        """Fresh import plus input generation; returns (modules, inputs)."""
        place(cores, index)
        if tracer:
            tracer.phase = f"setup:{index}"
        t0 = time.perf_counter()
        mods = import_corrineq()
        if tracer:
            tracer.install()
        inputs = workload.setup(mods, args.seed, ROOT)
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            tracer.phase = None
        return mods, inputs

    # a few set-ups now, then one before each pass and the rest after the
    # last, so that the samples span the run instead of one burst of load
    setup_s = []
    for i in range(SETUP_BURST):
        mods, inputs = timed_setup(i)
    os.sched_setaffinity(0, cores)
    workload.warmup(mods)

    memo, failures = {}, []
    walls = {False: [], True: []}
    cpus, op_walls, op_cpus = [], {}, {}
    # a traced run alternates, so four passes give two traced ones to compare
    min_passes = 4 if tracer else 2
    start = time.perf_counter()
    passes = 0
    while True:
        if len(setup_s) < SETUP_REPEATS:
            mods, inputs = timed_setup(len(setup_s))
        traced = bool(tracer) and passes % 2 == 1
        if traced:
            tracer.phase = f"loop:{passes}"
            tracer.install()
        # a traced run takes turns on the cores by pairs of passes, so that
        # untraced and traced passes both run on every core
        core = passes // 2 if tracer else passes
        op_times = run_pass(inputs.ops, memo, tracer if traced else None, failures, cores, core)
        if traced:
            tracer.uninstall()
            tracer.phase = None
        walls[traced].append(sum(wall for wall, _ in op_times.values()))
        if not traced:
            cpus.append(sum(cpu for _, cpu in op_times.values()))
            for name, (wall, cpu) in op_times.items():
                op_walls.setdefault(name, []).append(wall)
                op_cpus.setdefault(name, []).append(cpu)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > args.seconds:
            break
    # a workload with few long passes takes the rest of its set-ups here
    while len(setup_s) < SETUP_REPEATS:
        timed_setup(len(setup_s))
    os.sched_setaffinity(0, cores)
    attempted = passes * len(inputs.ops)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "passes": passes,
        "operations_per_pass": len(inputs.ops),
        "setup_s": summarize(setup_s),
        "wall_s": summarize(walls[False]),
        "cpu_s": summarize(cpus),
        "wall_s_best_ops": best_sum(op_walls),
        "cpu_s_best_ops": best_sum(op_cpus),
        "peak_rss_mb": peak_rss_mb(),
        "operations": {name: summarize(v) for name, v in op_walls.items()},
    }
    if tracer:
        layers, problems = tracing.layer_metrics(tracer.spans)
        rss = {}
        if inputs.memory_probe is not None:
            call, shot_counts = inputs.memory_probe
            rss = {shots: traced_bytes_per_shot(call, shots) for shots in shot_counts}
            layers["protocol.rss_bytes_per_shot"] = rss[max(rss)]
        traced_wall, untraced_wall = min(walls[True]), min(walls[False])
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = untraced_wall
        names = [m["name"] for m in spec["per_layer"]]
        exercised = [n for n in names if n.startswith(workload.layers)]
        unmeasured = [n for n in exercised if not layers.get(n)]
        if unmeasured:
            problems.append("exercised layer metrics read 0: " + ", ".join(unmeasured))
        attempted += 1  # exact traced counters, every exercised layer measured
        if problems:
            failures.append({"op": "layer-metrics", "error": "; ".join(problems)})
        report["traced_wall_s"] = summarize(walls[True])
        report["trace_overhead_s"] = traced_wall - untraced_wall
        report["missing_hooks"] = tracer.missing_hooks
        report["layers_exercised"] = exercised
        report["per_layer"] = values = {n: layers.get(n, 0) for n in names}
        report["scaling"] = {
            "operations": tracing.op_rows(tracer.spans),
            "protocol_rss_bytes_per_shot": [
                {"shots": shots, "bytes_per_shot": value} for shots, value in rss.items()
            ],
        }
    else:
        values = {"setup_s": report["setup_s"]["min"], "wall_s": report["wall_s_best_ops"],
                  "cpu_s": report["cpu_s_best_ops"], "peak_rss_mb": report["peak_rss_mb"]}
    failed = len(failures)
    report.update(attempted=attempted, failed=failed,
                  fail_rate=failed / attempted, failures=failures[:20])

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    if tracer:
        tracer.write(OUT / f"TRACE_{stem}.jsonl")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if tracer else "end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    # fixed before numpy loads, so that no inherited setting changes the
    # work: one BLAS thread (see README.md), and the package's sequential
    # default instead of a CORRINEQ_THREADS worker count
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ.pop("CORRINEQ_THREADS", None)
    sys.path.insert(0, str(HERE))
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    try:
        result = run(args)
    except (SetupError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
