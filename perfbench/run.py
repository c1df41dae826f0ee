"""The repository benchmark: one workload per process, one JSON line out.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload train_protocol --seed 1 --seconds 30 --trace 0

Workloads are ``train_protocol``, ``forecast_eval`` and ``long_history``
(see ``workloads.py``); every input is made from ``--seed``.  A run sets
its inputs up several times (the median is ``setup_s``), warms up, repeats
the workload's iteration until ``--seconds`` have passed, and then runs
its correctness checks.  The loop is closed: one caller, one call at a
time.

With ``--trace 0`` nothing is wrapped.  The JSON line carries the
end-to-end metrics, which every workload reports under the same names:

===========  ======================  =======================  =====================
metric       train_protocol          forecast_eval            long_history
===========  ======================  =======================  =====================
setup_s      CSV written, ingested   17,420-hour CSV and a    CSV written, ingested
             and windowed; params    checkpoint written       and windowed; params
peak_rss_mb  ru_maxrss of the workload's own process
step_ms_p50  one optimizer step      predict_windows over     one ``full``-variant
                                     val+test (6.3k windows)  optimizer step
fwd_ms_p50   forward + loss of that  untracked forward of     forward + loss of
             step                    one 32-window batch      that step
job_s        one ``fit``             one eval path            one ``full`` step plus
                                                              one ``gru`` step
===========  ======================  =======================  =====================

Above the JSON line the run prints the same numbers under each workload's
own names (``train_step_ms_p50``/``_p90``, ``fit_s``, ``eval_s``,
``predict_windows_per_s``, ``long_step_ms_p50``, ``long_fwd_ms_p50``,
``long_gru_step_ms_p50``) with their sample counts, the environment and
every check, and it writes all of it, raw samples included, to
``perfbench-out/``.

With ``--trace 1`` the public entry points are wrapped (``spans.py``)
during set-up and on every other loop iteration.  The JSON line carries
the per-layer metrics and ``trace_overhead_frac``, the median traced
iteration over the median untraced one; the spans go to ``perfbench-out/``.

Memory figures are in MB of 2**20 bytes.

Exit codes: 0 all checks passed, 1 a check failed or an operation raised,
2 no ``src/tpgn`` under the working directory, or bad arguments.
"""

# BLAS threads are pinned before numpy loads, with the variables the tpgn
# CLI sets for TPGN_THREADS, so medians do not depend on thread scheduling.
import os

BLAS_THREADS = "1"
for _var in ("TPGN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = "perfbench-out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_protocol", "forecast_eval", "long_history"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_tpgn(root: Path):
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "tpgn" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import tpgn
    import tpgn.autodiff, tpgn.baselines, tpgn.data, tpgn.model, tpgn.training  # noqa: E401,F401
    if Path(tpgn.__file__).resolve().parent != (src / "tpgn").resolve():
        return None
    return tpgn


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas}


def _percentile(values, q: int):
    """The median, or a higher percentile only when ten samples lie beyond it."""
    if q == 50:
        return statistics.median(values) if values else None
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(wl, seconds: float, tracer):
    """Repeat the iteration until ``seconds`` pass; trace every other one.

    Returns (untraced iteration seconds, traced iteration seconds).
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.phase, tracer.iteration = "loop", i
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.iteration()
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        (traced if on else plain).append(dt)
        i += 1
        enough = len(plain) >= 2 and (tracer is None or len(traced) >= 2)
        if enough and time.perf_counter() >= deadline:
            return plain, traced


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    tpgn = _import_tpgn(root)
    if tpgn is None:
        print(f"error: no tpgn package under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    import numpy as np
    import spans
    import workloads

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    run = workloads.Run()
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, run)
    tracer = spans.build_tracer(tpgn) if args.trace else None

    setup_times = []
    for _ in range(workloads.SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
    wl.warmup()
    plain, traced = _measure(wl, args.seconds, tracer)
    run.op("final_checks", wl.final_checks)
    probes = wl.extra_probes() if args.trace else {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics.update({
            "autodiff.tape_peak_mb_min": (min(probes["tape_mb"]), "MB"),
            "autodiff.tape_peak_mb_max": (max(probes["tape_mb"]), "MB"),
            "process.tracemalloc_peak_mb": (probes["tracemalloc_mb"], "MB"),
            "trace_overhead_frac": (statistics.median(traced) / statistics.median(plain),
                                    "ratio")})
        counts = {}
        own = {}
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        e2e = {slot: run.samples[key] for slot, key in wl.slots.items()}
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "step_ms_p50": (_percentile(e2e["step"], 50), "ms"),
                   "fwd_ms_p50": (_percentile(e2e["fwd"], 50), "ms"),
                   "job_s": (_percentile(e2e["job"], 50), "s")}
        counts = {"setup_s": len(setup_times), "peak_rss_mb": 1,
                  "step_ms_p50": len(e2e["step"]), "fwd_ms_p50": len(e2e["fwd"]),
                  "job_s": len(e2e["job"])}
        # the workload's own figures, under the names the workload uses
        own = {}
        for name, unit in wl.figures:
            samples = run.samples[name]
            for q in (50, 90):
                value = _percentile(samples, q)
                if value is not None:
                    own[f"{name}_p{q}"] = {"value": value, "unit": unit, "n": len(samples)}

    env = _environment(np)
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} iterations={len(plain) + len(traced)}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    lines += [f"metric {k} = {m['value']:.6g} {m['unit']} (n={m['n']})" for k, m in own.items()]
    for name, (value, unit) in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        lines.append(f"metric {name} = {value:.6g} {unit}{n}" if value is not None
                     else f"metric {name} = missing (no sample)")
    lines += [f"check {k}: {'PASS' if ok else 'FAIL'} - {d}" for k, (ok, d) in run.checks.items()]
    lines += [f"error {e}" for e in run.errors[:20]]
    print("\n".join(lines))

    complete = all(value is not None for value, _ in metrics.values())
    correct = run.checks_ok and run.failed == 0 and complete
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if v is not None}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "sample_counts": counts, "workload_figures": own,
              "setup_times_s": setup_times, "samples": dict(run.samples),
              "iteration_s": {"untraced": plain, "traced": traced},
              "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in run.checks.items()},
              "errors": run.errors}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
