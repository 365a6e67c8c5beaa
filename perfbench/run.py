"""Benchmark harness for superholonomy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop with one client in this process and prints, as
the last stdout line, a JSON object with the keys correct, attempted, failed
and metrics.  The line before it is a JSON detail record: provenance, the
tail percentile and its sample count, the failing op ids with their residuals,
and the digests of the first pass's evidence and (traced) exact counts.

--trace 0 measures the end-to-end metrics, every timing at reference speed
(calibration.py).  --trace 1 alternates untraced and traced passes of a fixed
op list for the same time and reports the per-layer metrics and the tracing
overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread, set before numpy loads; children inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
PROBE_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MAX_FAILURES_LISTED = 20

END_TO_END = (("setup_s", "s"), ("ref_ops_per_s", "1/s"), ("ref_op_p50_ms", "ms"),
              ("ref_op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

SHARED_SPANS = ("grassmann.mul", "grassmann.inverse", "supermatrix.matmul",
                "supermatrix.gmat_mul", "supermatrix.inverse", "supermatrix.expm",
                "supermatrix.supertranspose", "superlie.build", "superlie.embed",
                "superlie.check_jacobi", "group.sample_member", "group.membership_defect",
                "group.moduli", "phase.check_closure", "phase.flatness_constraints",
                "phase.bracket", "phase.poly_mul", "cli.main")
COUNTS = ("grassmann.term_pairs", "grassmann.merge_sign.calls", "grassmann.mul.calls",
          "grassmann.inverse.calls", "supermatrix.matmul.calls", "supermatrix.gmat_mul.calls",
          "supermatrix.inverse.calls", "supermatrix.expm.calls", "supermatrix.expm.matmuls",
          "superlie.embed.calls", "superlie.check_jacobi.calls", "group.sample_member.calls",
          "group.membership_defect.calls", "group.moduli.calls", "phase.check_closure.calls",
          "phase.flatness_constraints.calls", "phase.bracket.calls", "phase.poly_mul.calls",
          "cli.main.calls", "cli.stdout_bytes", "trace.spans", "trace.pass_ops")
PER_LAYER = (
    tuple((name, "count") for name in COUNTS)
    + (("grassmann.pair_yield", "ratio"),)
    + tuple((f"{name}.self_share", "ratio") for name in SHARED_SPANS)
    + (("trace.outside_share", "ratio"), ("trace.overhead_ratio", "ratio"),
       ("trace.pass_ms", "ms"), ("superlie.build.cold_ms", "ms"),
       ("cli.spawn_ms", "ms"), ("cli.import_ms", "ms"))
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _package_version(name):
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             env=env, timeout=30, check=False)
    except OSError:
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "superholonomy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(wl, seed):
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _package_version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "workload": wl.name,
        "params": wl.params,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine_settings": "none changed: no CPU pinning, no frequency control",
    }


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------

def _failure(op, kind, residual, detail):
    return {"op": op.op_id, "kind": kind, "residual": residual, "detail": detail[:300]}


def execute(op, wrong_result):
    """Run one op; return (evidence, failure record or None)."""
    try:
        return op.run(), None
    except wrong_result as exc:
        return None, _failure(op, "wrong", exc.residual, str(exc))
    except Exception as exc:  # the op boundary: record and keep running
        residual = None
        marker = "residual of "
        text = str(exc)
        if marker in text:
            try:
                residual = float(text.split(marker, 1)[1].split()[0])
            except ValueError:
                residual = None
        return None, _failure(op, "error", residual, f"{type(exc).__name__}: {text}")


def run_pass(ops, wrong_result):
    evidence, failures = [], []
    for op in ops:
        ev, fail = execute(op, wrong_result)
        evidence.append(ev if fail is None else f"FAILED:{fail['kind']}")
        if fail is not None:
            failures.append(fail)
    return evidence, failures


def digest(evidence):
    h = hashlib.sha256()
    for ev in evidence:
        h.update(ev if isinstance(ev, bytes) else repr(ev).encode())
        h.update(b"\0")
    return h.hexdigest()


def tail_percentile(n, cap):
    """Highest ladder percentile up to cap with at least 10 samples beyond it.

    Runs too short to have 10 samples beyond the median report the median.
    """
    for p in TAIL_LADDER:
        if p <= cap and n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(W, wl, seed, env):
    """Median time from spawning a fresh process until its first op could run.

    Returns the median at reference speed and the wall-clock samples.
    """
    import calibration

    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), wl.name, str(seed)]
    walls, kernels = [], []
    for _ in range(SETUP_REPEATS):
        res = W.run_child(probe, env, ready_line=True)
        if (res.returncode != 0 or not res.stdout.startswith(b"ready")
                or res.calibration is None):
            raise RuntimeError(f"setup probe failed (exit {res.returncode}): "
                               f"{res.stderr.decode(errors='replace')[-500:]}")
        walls.append(res.wall_s)
        kernels.append(res.calibration[0])
    # one probe's kernel report moves with that process's memory layout, so
    # the median wall is scaled by the median report
    wall = statistics.median(walls)
    return calibration.at_reference(wall, statistics.median(kernels)), walls


def measure_cli_costs(W, env):
    """Median bare interpreter start and the extra cost of importing the CLI."""
    def median_wall(code):
        walls = []
        for _ in range(PROBE_REPEATS):
            res = W.run_child([sys.executable, "-c", code], env)
            if res.returncode != 0:
                raise RuntimeError(f"probe {code!r} exited {res.returncode}")
            walls.append(res.wall_s)
        return statistics.median(walls)

    spawn = median_wall("pass")
    return spawn * 1e3, (median_wall("import superholonomy.cli") - spawn) * 1e3


def measure_cold_builds(wl):
    """Median time to build the workload's algebras without the lru_cache."""
    from superholonomy import superlie

    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for spec in wl.algebras:
            if spec[-1] == "osp12":
                superlie.build_osp12.__wrapped__()
            else:
                superlie.build_osp.__wrapped__(*spec)
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds) * 1e3


def timed_loop(wl, state, seconds, wrong_result):
    """Warm up on the first pass, then run whole cycles for `seconds`.

    The calibration kernel runs between consecutive ops, and each op is
    scaled to reference speed by the mean of the kernel times just before and
    just after it.  The warm-up pass is checked and counted as attempted, but
    not timed; its evidence is the run's evidence.
    """
    import calibration

    run = wl.start(state)
    warm = [op for c in range(wl.pass_cycles) for op in wl.cycle(run, c)]
    evidence, failures = run_pass(warm, wrong_result)
    wall_ms, ref_ms, cycle_wall_s, cycle_ref_s, kernel_s = [], [], [], [], []
    c = wl.pass_cycles
    before = calibration.kernel_s()
    start = time.perf_counter()
    while True:
        wall = ref = 0.0
        for op in wl.cycle(run, c):
            t0 = time.perf_counter_ns()
            _, fail = execute(op, wrong_result)
            dt = (time.perf_counter_ns() - t0) / 1e9
            after = calibration.kernel_s()
            at_ref = calibration.at_reference(dt, 0.5 * (before + after))
            kernel_s.append(after)
            before = after
            wall_ms.append(dt * 1e3)
            ref_ms.append(at_ref * 1e3)
            wall += dt
            ref += at_ref
            if fail is not None:
                failures.append(fail)
        cycle_wall_s.append(wall)
        cycle_ref_s.append(ref)
        c += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"wall_ms": wall_ms, "ref_ms": ref_ms, "cycle_wall_s": cycle_wall_s,
            "cycle_ref_s": cycle_ref_s, "kernel_s": kernel_s,
            "elapsed_s": time.perf_counter() - start, "attempted": len(warm) + len(wall_ms),
            "evidence": evidence, "failures": failures}


def latency_summary(lat_ms, cycle_s, ops_per_cycle, cap):
    """Throughput over the median cycle, median latency and the tail percentile.

    Throughput uses the median cycle so that a burst of load from outside the
    process does not move it.
    """
    import numpy as np

    lat = np.asarray(lat_ms, dtype=float)
    pct = tail_percentile(len(lat), cap)
    tail = float(np.percentile(lat, pct))
    return {"ops_per_s": ops_per_cycle / statistics.median(cycle_s),
            "op_p50_ms": float(np.percentile(lat, 50)), "op_tail_ms": tail,
            "tail_percentile": pct, "tail_samples_beyond": int(np.sum(lat > tail))}


def end_to_end(W, wl, seed, seconds, ctx):
    import calibration

    setup_s, setup_walls = measure_setup(W, wl, seed, ctx.env)
    state = wl.prepare(wl.setup(seed), ctx)
    loop = timed_loop(wl, state, seconds, W.WrongResult)
    n, cycles = len(loop["wall_ms"]), len(loop["cycle_ref_s"])
    ref = latency_summary(loop["ref_ms"], loop["cycle_ref_s"], n / cycles, wl.tail_cap)
    wall = latency_summary(loop["wall_ms"], loop["cycle_wall_s"], n / cycles, wl.tail_cap)
    wall["setup_s"] = statistics.median(setup_walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": setup_s, "ref_ops_per_s": ref["ops_per_s"],
               "ref_op_p50_ms": ref["op_p50_ms"], "ref_op_tail_ms": ref["op_tail_ms"],
               "peak_rss_mb": rss_kb / 1024.0}
    kernel_ms = statistics.median(loop["kernel_s"]) * 1e3
    detail = {
        "ops": n, "cycles": cycles, "elapsed_s": loop["elapsed_s"],
        "tail_percentile": ref["tail_percentile"],
        "tail_samples_beyond": ref["tail_samples_beyond"],
        "wall_clock": wall,
        "setup_samples_wall_s": setup_walls,
        "calibration": {"reference_ms": calibration.REFERENCE_S * 1e3,
                        "kernel_median_ms": kernel_ms,
                        "host_slowdown": kernel_ms / (calibration.REFERENCE_S * 1e3)},
        "evidence_digest": digest(loop["evidence"]),
    }
    return metrics, loop["attempted"], loop["failures"], detail


def traced(W, wl, seed, seconds, ctx):
    from tracing import SPAN_NAMES, Tracer

    spawn_ms, import_ms = measure_cli_costs(W, ctx.env)
    cold_ms = measure_cold_builds(wl)
    state = wl.prepare(wl.setup(seed), ctx)
    plain_ms, traced_ms, failures, problems = [], [], [], []
    shares = {name: [] for name in SPAN_NAMES}
    outside = []
    first_counts = first_evidence = bindings = None
    attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            ops = wl.pass_ops(state)
            attempted += len(ops)
            tracer = Tracer() if traced_turn else None
            if tracer:
                tracer.install()
            try:
                t0 = time.perf_counter_ns()
                evidence, fails = run_pass(ops, W.WrongResult)
                dt = time.perf_counter_ns() - t0
            finally:
                broken = tracer.uninstall() if tracer else []
            failures += fails
            if broken:
                problems.append(f"bindings not restored: {broken}")
            if first_evidence is None:
                first_evidence = evidence
            elif evidence != first_evidence:
                problems.append("a pass gave different residuals or CLI bytes")
            if not tracer:
                plain_ms.append(dt / 1e6)
                continue
            traced_ms.append(dt / 1e6)
            counts, self_ns = tracer.summary()
            counts["trace.pass_ops"] = len(ops)
            counts["cli.stdout_bytes"] = sum(len(e) for e in evidence if isinstance(e, bytes))
            if first_counts is None:
                first_counts, bindings = counts, dict(tracer.bindings)
            elif counts != first_counts:
                problems.append("exact counts differ between traced passes")
            for name in SPAN_NAMES:
                shares[name].append(self_ns.get(name, 0) / dt)
            outside.append(1.0 - sum(self_ns.values()) / dt)
        k += 1
        if time.perf_counter() - start >= seconds and len(traced_ms) >= 2:
            break
    pairs = first_counts.get("grassmann.term_pairs", 0)
    metrics = {name: float(first_counts.get(name, 0)) for name in COUNTS}
    metrics["grassmann.pair_yield"] = (
        first_counts.get("grassmann.merge_sign.calls", 0) / pairs if pairs else 0.0)
    for name in SHARED_SPANS:
        metrics[f"{name}.self_share"] = statistics.median(shares[name])
    metrics.update({
        "trace.outside_share": statistics.median(outside),
        "trace.overhead_ratio": statistics.median(traced_ms) / statistics.median(plain_ms),
        "trace.pass_ms": statistics.median(plain_ms),
        "superlie.build.cold_ms": cold_ms,
        "cli.spawn_ms": spawn_ms,
        "cli.import_ms": import_ms,
    })
    exact = {name: first_counts.get(name, 0) for name in sorted(first_counts)}
    detail = {
        "passes": {"untraced": len(plain_ms), "traced": len(traced_ms)},
        "pass_ms": {"untraced": plain_ms, "traced": traced_ms},
        "exact_counts": exact,
        "counts_digest": digest(sorted(exact.items())),
        "evidence_digest": digest(first_evidence),
        "bindings_patched": bindings,
        "self_checks_failed": problems,
    }
    return metrics, attempted, failures, detail, problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "superholonomy")):
        sys.stderr.write(f"perfbench: no superholonomy package under {SRC}; "
                         "run from a full checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads as W

    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(W.WORKLOADS)}\n")
        return 2
    ctx = W.Context(sys.executable, child_env())
    if args.trace:
        metrics, attempted, failures, detail, problems = traced(W, wl, args.seed, args.seconds, ctx)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failures, detail = end_to_end(W, wl, args.seed, args.seconds, ctx)
        problems = []
        units = dict(END_TO_END)
    silent = [f for f in failures if f["kind"] == "wrong"]
    detail.update({
        "mode": "traced" if args.trace else "end_to_end",
        "provenance": provenance(wl, args.seed),
        "failed_ratio": {"failed": len(failures), "attempted": attempted,
                         "value": len(failures) / attempted},
        "failures": failures[:MAX_FAILURES_LISTED],
        "failures_not_listed": max(0, len(failures) - MAX_FAILURES_LISTED),
    })
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {
        "correct": not silent and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
