"""relqtraj benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload {headline,fine_io,sweep} --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with no instrumentation.  --trace 1
alternates untraced and traced repeats and reports per-layer calls and self
times.  Both print a human-readable report, write it as JSON under .bench_run/,
and end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
See bench/NOTES.md for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Set-up is timed from here: numpy and relqtraj imports, parse, plan build.
T0 = time.perf_counter()

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")
WORKLOAD_NAMES = ("headline", "fine_io", "sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# wall_s charges each loop at its fastest block of this many consecutive periods.
STEP_BLOCK = 32

# Units of every metric the benchmark can print; BENCHMARK.json lists the gated ones.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGE_UNITS = {"step_us": "us", "write_s": "s", "read_s": "s", "verify_s": "s", "figures_s": "s",
               "rows_per_s": "1/s", "nonrel_step_us": "us"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Pin BLAS to one thread and import relqtraj from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "relqtraj", "__init__.py")):
        sys.exit(f"bench: no relqtraj package under {SRC}; run from a full checkout")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import relqtraj
    if not os.path.abspath(relqtraj.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: relqtraj imported from {relqtraj.__file__}, not from {SRC}")
    return relqtraj


def environment(seed):
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "cpu": platform.machine(),
           "git_commit": git_commit(), "seed": seed}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["blas_threads"] = blas_threads()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the pinned variable."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (OPENBLAS_NUM_THREADS)"


def git_commit():
    """HEAD of the checkout when it is a git work tree; read from .git, never searched upward."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git work tree)"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(args, count):
    """Set-up samples from fresh interpreters: each imports, parses and plans again."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def repeat(wl, scratch_root):
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        return wl.run(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def loop_times(wl, windows, clock):
    """Per timed window: (stage, time outside its loops, [(periods, fastest
    period in s) for each of the stage's pacers]); a period is inf where no
    block fits."""
    import numpy as np
    name, _, start_ns, _ = clock.arrays()
    starts = {target: start_ns[name == i] / 1e9 for i, target in enumerate(clock.targets)}
    ops = []
    for stage, t0, t1 in windows:
        rest, loops = t1 - t0, []
        for mod, fn, per_step in wl.pacers[stage]:
            s_all = starts[(mod, fn)]
            s = s_all[np.searchsorted(s_all, t0):np.searchsorted(s_all, t1)]
            edges = s[::STEP_BLOCK * per_step]
            fastest = float(np.diff(edges).min()) / STEP_BLOCK if len(edges) > 1 else math.inf
            periods = (len(s) - 1) / per_step if len(s) > 1 else 0.0
            if periods:
                rest -= float(s[-1] - s[0])
            loops.append((periods, fastest))
        ops.append((stage, rest, loops))
    return ops


def full_speed_wall(wl, ops):
    """wall_s: one operation's wall time with each part at its fastest speed in the run.

    On a shared host, contention slows this process by up to 2-3x for
    stretches of seconds, so whole operations lasting seconds never run at
    full speed and their median moves with the host.  An operation is split
    into the stages of ``wl.pacers``.  In each stage, every loop is charged
    at its fastest block of STEP_BLOCK consecutive periods (a period runs
    from one call of the stage's pacer to the call one step or snapshot
    later; a block is about 10 to 15 ms of work), and the rest of the stage
    at its fastest occurrence.  ``ops`` comes from loop_times.  Returns
    (wall_s, [(stage, rest in s, [(periods, fastest period in s) per pacer])]).
    """
    wall, parts = 0.0, []
    for stage, pacers in wl.pacers.items():
        mine = [(rest, loops) for st, rest, loops in ops if st == stage]
        if not mine:  # every operation failed before this stage was timed
            return math.nan, []
        fastest = [min(loops[i][1] for _, loops in mine) for i in range(len(pacers))]
        rest, loops = min(mine, key=lambda op: op[0])
        loops = [(n, fastest[i] if n else 0.0) for i, (n, _) in enumerate(loops)]
        wall += rest + sum(n * p for n, p in loops)
        parts.append((stage, rest, loops))
    return wall, parts


def clocked_repeat(wl, scratch_root, ops):
    """One repeat with the pacers' calls timed; appends its loop_times to ``ops``.

    The spans are reduced after each repeat, so their memory does not grow
    with the number of repeats and peak_rss_mb stays independent of run length.
    """
    import spans
    targets = {(mod, fn): None for pacers in wl.pacers.values() for mod, fn, _ in pacers}
    clock = spans.Tracer(targets=tuple(targets))
    with clock:
        o = repeat(wl, scratch_root)
    ops.extend(loop_times(wl, o.windows, clock))
    return o


def timed_loop(seconds, body, pause=lambda fraction: None):
    """Call body() repeatedly; start another only if it should end within `seconds`.

    After each call, pause(fraction of `seconds` used so far) runs off the clock.
    """
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        results.append(body())
        last = time.perf_counter() - t
        t = time.perf_counter()
        pause(min((t - start) / seconds, 1.0) if seconds > 0 else 1.0)
        start += time.perf_counter() - t
    return results


def traced_pair(wl, scratch_root):
    """One untraced repeat, then one traced repeat with a fresh tracer."""
    import spans
    plain = repeat(wl, scratch_root)
    tracer = spans.Tracer()
    with tracer:
        traced = repeat(wl, scratch_root)
    return plain, traced, tracer


def layer_metrics(wl, pairs, lines):
    """Per-layer metrics from the median traced repeat, plus derived ratios."""
    import spans
    walls = [p[1].wall for p in pairs]
    order = sorted(range(len(pairs)), key=lambda i: walls[i])
    _, traced, tracer = pairs[order[(len(order) - 1) // 2]]
    summary = spans.summarize(tracer)
    calls, self_us = summary["calls"], summary["self_us"]
    wall_us = traced.wall * 1e6
    untraced_us = wall_us - summary["root_us"]
    overhead_s = (statistics.median(walls)
                  - statistics.median(p[0].wall for p in pairs))

    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_us"] = (self_us[name], "us")

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls["dynamics.rk4_step"]
    rhs = calls["dynamics.eom_rhs"]
    d_in_rhs = spans.calls_under(tracer, "stencils.d_dC", "dynamics.eom_rhs")
    attach = calls["geometry.attach_g01"]
    n_points = wl.n_points
    derived = [
        ("state.builds_per_step", ratio(calls["state.EnsembleState"], steps), "builds/step",
         f"{calls['state.EnsembleState']} EnsembleState builds / {steps} rk4 steps"),
        ("dynamics.rhs_per_step", ratio(rhs, steps), "rhs/step",
         f"{rhs} eom_rhs calls / {steps} rk4 steps"),
        ("stencils.d_dC_per_rhs", ratio(d_in_rhs, rhs), "calls/rhs",
         f"{d_in_rhs} d_dC calls inside eom_rhs / {rhs} eom_rhs calls"),
        ("geometry.g01_useful_ratio", ratio(traced.snapshots, attach), "ratio",
         f"{traced.snapshots} snapshots / {attach} attach_g01 calls"),
        ("stencils.d_dC.flop_computed", 2.0 * n_points ** 2 * calls["stencils.d_dC"], "flop",
         f"computed as 2 N^2 = {2 * n_points ** 2} flop x {calls['stencils.d_dC']} calls (N={n_points})"),
        ("snapshot_io.bytes_written", ratio(traced.bytes_written, traced.snaps_written),
         "B/snapshot", f"{traced.bytes_written} B / {traced.snaps_written} snapshots written"),
        ("snapshot_io.bytes_read", ratio(traced.bytes_read, traced.snaps_read),
         "B/snapshot", f"{traced.bytes_read} B / {traced.snaps_read} snapshots read"),
    ]
    for key, value, unit, base in derived:
        m[key] = (value, unit)
    m["trace.wall_us"] = (wall_us, "us")
    m["trace.untraced_us"] = (untraced_us, "us")
    m["trace.overhead_s"] = (overhead_s, "s")

    lines.append(f"per-layer trace: median of {len(pairs)} traced repeat(s); "
                 "self time = span duration minus its child spans")
    lines.append(f"  {'layer.function':40s} {'calls':>9s} {'self_us':>14s} {'share':>7s}")
    by_module = {}
    for name in spans.SPAN_NAMES:
        by_module.setdefault(name.split(".")[0], 0.0)
        by_module[name.split(".")[0]] += self_us[name]
        if calls[name]:
            lines.append(f"  {name:40s} {calls[name]:9d} {self_us[name]:14.1f} "
                         f"{self_us[name] / wall_us:7.2%}")
    lines.append(f"  {'(untraced: benchmark code between calls)':40s} {'':9s} "
                 f"{untraced_us:14.1f} {untraced_us / wall_us:7.2%}")
    total = sum(self_us.values()) + untraced_us
    lines.append(f"  {'sum = traced wall time':40s} {'':9s} {total:14.1f} (wall {wall_us:.1f})")
    lines.append("  per layer (module) self time: " + ", ".join(
        f"{mod} {us / 1e3:.1f} ms" for mod, us in by_module.items()))
    lines.append("  waiting time: none to report - one thread, no queues, no I/O waits modelled")
    lines.append(f"  tracing overhead: {overhead_s:.4f} s per repeat "
                 "(median traced wall - median untraced wall)")
    lines.append("derived ratios (value, base):")
    for key, value, unit, base in derived:
        lines.append(f"  {key} = {value:.6g} {unit}  ({base})")
    return m, tracer


def main(argv=None):
    args = parse_args(argv)
    rq = import_package()
    import workloads  # bench/ is on sys.path as the script's directory
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args.seed)
    # Set-up probes are spread over the timed loop, so that their median
    # samples the host's speed over the whole run rather than at its ends.
    setup = [setup_s]
    probes = 0 if args.trace else wl.setup_repeats - 1

    def probe(fraction):
        setup.extend(setup_probes(args, round(fraction * probes) - (len(setup) - 1)))

    os.makedirs(OUT, exist_ok=True)
    scratch_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            pairs = timed_loop(args.seconds, lambda: traced_pair(wl, scratch_root))
            outcomes = [o for p in pairs for o in p[:2]]
        else:
            ops = []
            outcomes = timed_loop(args.seconds, lambda: clocked_repeat(wl, scratch_root, ops),
                                  probe)
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
    probe(1.0)

    attempted = sum(o.ops for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    failed = sum(o.failed for o in outcomes)
    lines = [f"relqtraj benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} (relqtraj {rq.__version__})",
             "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
             "load: closed loop, one caller in one process, BLAS pinned to 1 thread"]

    metrics, samples = {}, {}
    if args.trace:
        metrics, tracer = layer_metrics(wl, pairs, lines)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
    else:
        samples = {"setup_s": setup}
        for o in outcomes:
            for k, v in o.times.items():
                samples.setdefault(k, []).extend(v)
        samples["peak_rss_mb"] = [peak_rss_mb()]
        units = dict(END_TO_END_UNITS, **STAGE_UNITS)
        wall, parts = full_speed_wall(wl, ops)
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "peak_rss_mb": samples["peak_rss_mb"][0]}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}
        lines.append("end-to-end metrics:")
        for k, (v, u) in metrics.items():
            lines.append(f"  {k:16s} {v:14.6g} {u}")
        lines.append(f"  (wall_s, per stage: fastest rest + periods x fastest period, each period "
                     f"from the fastest {STEP_BLOCK}-period block in the run; "
                     "setup_s is the median set-up)")
        for stage, rest, loops in parts:
            lines.append(f"    {stage}: {rest:.6g} s" + "".join(
                f" + {n:g} {fn} periods x {p * 1e6:.6g} us" for (_, fn, _), (n, p)
                in zip(wl.pacers[stage], loops) if n))
        lines.append("timings as measured (median [min, max] over n samples; "
                     "too few samples for a tail percentile):")
        for k, vals in samples.items():
            if not vals:
                continue
            lines.append(f"  {k:16s} {statistics.median(vals):14.6g} {units[k]:4s} "
                         f"[{min(vals):.6g}, {max(vals):.6g}] n={len(vals)}")
    lines.append(f"operations: attempted={attempted} failed={failed} "
                 f"fail_frac={failed / max(attempted, 1):.4g}")
    for note in dict.fromkeys(n for o in outcomes for n in o.notes):
        lines.append(f"  {note}")
    for f in failures:
        lines.append(f"  GATE FAILED: {f}")

    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, samples=samples, report=lines), fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
