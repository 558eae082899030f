"""Benchmark of the doublephase library and CLI, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload solve-1d --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``solve-1d``: the three 1D acceptance fixtures through ``solver.solve_weak``
  (Laplace N=128, p-Laplacian p=3 N=256, double-phase p=1.5 q=3 mu=x N=256
  with the two-start check).  Per-call overhead on 256-cell arrays and the
  Armijo line search dominate.
* ``cli-solve-2d``: ``doublephase solve`` in-process on 64x64 cells, with
  the two-start check and 256 dual-bound probes.  Array work on 4096 cells,
  Luxemburg bisections, expression sampling and the CSV/report writers.
* ``verify-sweeps``: ``check-sandwich``, ``verify-uc``, ``check-inequalities``
  and ``check-monotone``.  No solver code runs, so a solver-only change
  must leave this workload unchanged.

One process runs one workload single-threaded (BLAS/OpenMP threads pinned
to 1).  It repeats passes over the workload's operations until ``--seconds``
would be exceeded (at least one pass) and checks every output against the
acceptance suite's thresholds; a failing or raising operation is counted,
never fatal.  The last stdout line is the result JSON; the line before it
holds the details (per-pass times, per-operation verdicts, environment).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass, tracing off;
* ``setup_s``: median over nine fresh processes of the time from process
  start until the workload is ready for its first timed call (imports,
  config parsing, expression sampling, building the problems);
* ``success_fraction``: operations that passed their rule / attempted;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` spends half the time on untraced passes and half on passes
with the tracer of ``tracer.py`` installed, then runs the micro-timings of
``micro.py``, and reports the per-layer metrics.  The per-layer spans are
written to ``bench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 9
# Every run must end within 180 s; an operation still running at this point
# is interrupted and counted as failed.
HARD_LIMIT_S = 160.0
MICRO_RESERVE_S = 30.0

PER_LAYER_UNITS = {
    "solver.minimize.first_s": "s",
    "solver.minimize.second_s": "s",
    "solver.minimize.single_s": "s",
    "solver.iterations.first": "count",
    "solver.iterations.second": "count",
    "solver.iterations.single": "count",
    "solver.step_delta.calls": "count",
    "solver.armijo_accept_ratio": "ratio",
    "solver.weak_residual.total_s": "s",
    "solver.uniqueness_certificate.total_s": "s",
    "solver.solve_weak.total_s": "s",
    "modular.estimate_dual_bound.total_s": "s",
    "modular.luxemburg_norm.calls": "count",
    "modular.luxemburg_norm.total_s": "s",
    "modular._luxemburg.calls": "count",
    "modular.modular_value.calls": "count",
    "modular.modular_value.self_s": "s",
    "modular.evals_per_norm": "ratio",
    "mesh.gradient_values.calls": "count",
    "mesh.gradient_values.self_s": "s",
    "mesh.gradient_adjoint.calls": "count",
    "mesh.gradient_adjoint.self_s": "s",
    "mesh.cell_average_values.calls": "count",
    "mesh.cell_average_values.self_s": "s",
    "phase.h_of.calls": "count",
    "phase.h_of.self_s": "s",
    "phase.flux_coefficient.calls": "count",
    "phase.flux_coefficient.self_s": "s",
    "convexity.sweep_uc_pairs.total_s": "s",
    "convexity.sweep_two_point.total_s": "s",
    "convexity.sweep_monotonicity.total_s": "s",
    "convexity.verify_uc_pair.total_s": "s",
    "exprparse.sample.self_s": "s",
    "cli.parse_config.total_s": "s",
    "cli.build_problem.total_s": "s",
    "cli.write.total_s": "s",
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"operation interrupted {HARD_LIMIT_S:.0f} s after process start")


def _remaining() -> float:
    return HARD_LIMIT_S - (time.perf_counter() - STARTED)


def _environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _run_pass(ops, results: list, tracer=None, label: str = "") -> float:
    """Run every operation once; returns the summed wall time of the program calls."""
    gc.collect()
    wall = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = f"{label}/{op.name}"
        raw = None
        error = None
        signal.setitimer(signal.ITIMER_REAL, max(_remaining(), 0.001))
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as err:  # counted as a failed operation
            error = err
        finally:
            wall += time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            results.append({"op": op.name, "ok": False, "detail": f"raised {error!r}", "fingerprint": None})
            continue
        try:
            ok, detail, fingerprint = op.check(raw)
        except Exception as err:
            traceback.print_exc(file=sys.stderr)
            ok, detail, fingerprint = False, f"check raised {err!r}", None
        results.append({"op": op.name, "ok": bool(ok), "detail": detail, "fingerprint": fingerprint})
    return wall


def _repeat(ops, results, budget_s: float, tracer=None, label="pass", on_pass=None) -> list[float]:
    """Passes until the next one would overrun ``budget_s``; at least one."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(_run_pass(ops, results, tracer, f"{label}{len(walls)}"))
        if on_pass is not None:
            on_pass()
        mean = statistics.fmean(walls)
        if time.perf_counter() - start + mean > budget_s or mean > _remaining():
            return walls


def _fingerprint_mismatches(results: list) -> list[str]:
    first: dict[str, dict] = {}
    out = []
    for r in results:
        if r["fingerprint"] is None:
            continue
        ref = first.setdefault(r["op"], r["fingerprint"])
        if r["fingerprint"] != ref:
            out.append(f"{r['op']}: {r['fingerprint']} != {ref}")
    return out


def _setup_probes(workload: str, seed: int) -> list[float]:
    """Time from spawning a fresh interpreter to the workload being ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


def _layer_metrics(tr) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    starts = tr.minimize_starts()
    m = {}
    for role in ("first", "second", "single"):
        m[f"solver.minimize.{role}_s"] = sum(s["end"] - s["start"] for s in starts[role])
        m[f"solver.iterations.{role}"] = sum(s["iterations"] or 0 for s in starts[role])
    step_calls = tr.calls("solver._modular_step_delta")
    accepted = sum(m[f"solver.iterations.{role}"] for role in ("first", "second", "single"))
    m["solver.step_delta.calls"] = step_calls
    m["solver.armijo_accept_ratio"] = accepted / step_calls if step_calls else 0.0
    for name in ("solver.weak_residual", "solver.uniqueness_certificate", "solver.solve_weak",
                 "modular.estimate_dual_bound", "modular.luxemburg_norm",
                 "convexity.sweep_uc_pairs", "convexity.sweep_two_point",
                 "convexity.sweep_monotonicity", "convexity.verify_uc_pair",
                 "cli.parse_config", "cli.build_problem"):
        m[f"{name}.total_s"] = tr.total_s(name)
    m["modular.luxemburg_norm.calls"] = tr.calls("modular.luxemburg_norm")
    bisections = tr.calls("modular._luxemburg")
    m["modular._luxemburg.calls"] = bisections
    m["modular.evals_per_norm"] = (
        tr.calls("modular.modular_value", parent="modular._luxemburg") / bisections
        if bisections else 0.0
    )
    for name in ("modular.modular_value", "mesh.gradient_values", "mesh.gradient_adjoint",
                 "mesh.cell_average_values", "phase.h_of", "phase.flux_coefficient"):
        m[f"{name}.calls"] = tr.calls(name)
        m[f"{name}.self_s"] = tr.self_s(name)
    m["exprparse.sample.self_s"] = tr.self_s("exprparse.sample")
    m["cli.write.total_s"] = tr.total_s("cli._write_report") + tr.total_s("cli._write_solution_csv")
    return {k: m[k] for k in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "doublephase" / "__init__.py").is_file():
        print(f"error: no doublephase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {tuple(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return _measure(args, ops, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _high_percentile(walls: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    if len(walls) < 11:
        return None
    k = len(walls) - 11
    return {"percentile": 100.0 * (k + 1) / len(walls), "value": sorted(walls)[k]}


def _untraced(args, ops, results, details) -> dict:
    setup = _setup_probes(args.workload, args.seed)
    walls = _repeat(ops, results, args.seconds)
    details.update(pass_wall_s=walls, wall_s_high=_high_percentile(walls), setup_s=setup)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(args, ops, results, details) -> dict:
    import micro
    import tracer

    walls = _repeat(ops, results, args.seconds / 2)
    tr = tracer.Tracer()
    per_pass, counts, dumps = [], [], []

    def collect():
        per_pass.append(_layer_metrics(tr))
        counts.append(tr.deterministic_counts())
        dumps.append(tr.dump())
        tr.reset()

    tr.install()
    try:
        traced = _repeat(ops, results, args.seconds / 2, tr, "traced", on_pass=collect)
    finally:
        tr.uninstall()
    metrics = {k: (statistics.median(p[k] for p in per_pass), unit)
               for k, unit in PER_LAYER_UNITS.items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(walls), "s")
    # counts that differ between traced passes, plus (below) outputs that
    # differ between traced and untraced passes: either means the tracer
    # perturbed the program
    metrics["trace.count_mismatches"] = (float(sum(c != counts[0] for c in counts[1:])), "count")
    metrics["trace.absent_targets"] = (float(len(tr.absent)), "count")
    absent = list(tr.absent)
    if _remaining() > MICRO_RESERVE_S:
        micro_values, micro_absent = micro.micro_metrics(args.seed)
        metrics.update(micro_values)
        absent += micro_absent
    else:
        absent.append("micro-timings skipped: not enough time left")
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"passes": dumps}, indent=1), encoding="utf-8")
    details.update(pass_wall_s=walls, traced_pass_wall_s=traced, absent=absent,
                   trace_file=str(trace_path.relative_to(ROOT)))
    return metrics


def _measure(args, ops, workloads) -> int:
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "setup_in_process_s": time.perf_counter() - STARTED}
    signal.signal(signal.SIGALRM, _on_alarm)
    results: list[dict] = []
    metrics = (_traced if args.trace else _untraced)(args, ops, results, details)

    mismatches = _fingerprint_mismatches(results)
    failed = sum(not r["ok"] for r in results)
    attempted = len(results)
    if args.trace:
        value, unit = metrics["trace.count_mismatches"]
        metrics["trace.count_mismatches"] = (value + len(mismatches), unit)
    else:
        metrics["success_fraction"] = ((attempted - failed) / attempted, "fraction")

    first_pass = results[: len(ops)]
    details.update(
        ops=[{k: r[k] for k in ("op", "ok", "detail")} for r in first_pass],
        failures=[{k: r[k] for k in ("op", "detail")} for r in results if not r["ok"]],
        fingerprints={r["op"]: r["fingerprint"] for r in first_pass},
        fingerprint_mismatches=mismatches,
        reference_iterations={
            r["op"]: {"defined_at": workloads.REFERENCE_ITERATIONS[r["op"]],
                      "observed": (r["fingerprint"] or {}).get("iterations")}
            for r in first_pass if r["op"] in workloads.REFERENCE_ITERATIONS
        },
        environment=_environment(),
    )
    print(json.dumps(details, default=str))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
