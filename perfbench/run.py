"""One benchmark run of one workload against the `twrelay` sources in
`src/` next to this directory.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 12 --trace 0

Untraced (--trace 0): set-up is timed in fresh processes, the workload is
warmed up, then whole passes repeat until --seconds have elapsed (at least
one pass).  Set-up and pass times are normalised to a reference host speed
by a calibration chunk sampled while they run (see speed.py); the raw wall
times are kept in the run's record.  Every row of the first pass is gated
against reference.json; every later pass must reproduce the first byte for
byte.  The last line of
stdout is the JSON result with every end-to-end metric of BENCHMARK.json.

Traced (--trace 1): one untraced pass, then one pass with spans around every
call into `twrelay` (see tracing.py).  The two passes must give identical
output; the result holds every per-layer metric of BENCHMARK.json.

`correct` is true when no row fails other than those recorded in
known_defects.json (the defects present when the benchmark was defined),
every unit's output parses, and the output repeats exactly.  Known defects
still count in `failed` and `failed_share`.  A record of the run, with the
environment and every row, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# BLAS is pinned to one thread (at most nproc), so that results do not
# depend on the core count of the machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# speed imports only math, signal and time, so the probe still times every
# dependency of twrelay
SETUP_PROBE = ("import speed; wall, norm, _, _ = speed.timed(lambda: __import__('twrelay')); "
               "print(wall, norm)")

sys.path.insert(0, str(HERE))

import gate as G  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_twrelay():
    """Import the package from SRC, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import twrelay
    import twrelay.cli  # noqa: F401  (not imported by the package itself)
    where = Path(twrelay.__file__).resolve().parent
    if where != (SRC / "twrelay").resolve():
        raise ImportError(f"twrelay was imported from {where}, not from {SRC}")
    return twrelay


def environment(args, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "program_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": blas, "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "chunk_ref_s": speed.CHUNK_REF_S, "sample_interval_s": speed.INTERVAL_S,
    }


def setup_seconds(n: int) -> tuple[list, list]:
    """Time to import twrelay and its dependencies, once per fresh process:
    (normalised seconds, raw seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    norm, raw = [], []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        wall, value = map(float, proc.stdout.split()[-2:])
        raw.append(wall)
        norm.append(value)
    return norm, raw


def run_units(units: list, tw) -> dict:
    """{unit name: output text} of one pass."""
    outputs = {}
    for unit in units:
        try:
            outputs[unit.name] = unit.run(tw)
        except Exception as exc:  # the unit's rows fail; the run goes on
            outputs[unit.name] = f"error:{type(exc).__name__}: {exc}"
    return outputs


def run_pass(units: list, tw) -> tuple[float, dict]:
    """(raw wall seconds, outputs) of one pass, without calibration samples."""
    gc.collect()
    t0 = time.perf_counter()
    outputs = run_units(units, tw)
    return time.perf_counter() - t0, outputs


def timed_passes(units: list, tw, seconds: float) -> tuple[list, list, dict, bool]:
    """Repeat passes until `seconds` have elapsed: (normalised pass times,
    raw pass times, first outputs, whether every pass reproduced the first)."""
    walls, raw, first, stable = [], [], None, True
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        gc.collect()
        wall, norm, _, out = speed.timed(lambda: run_units(units, tw))
        walls.append(norm)
        raw.append(wall)
        if first is None:
            first = out
        elif out != first:
            stable = False
    return walls, raw, first, stable


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twrelay" / "__init__.py").is_file():
        print(f"perfbench: no twrelay package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["workloads"][args.workload]
    known = json.loads((HERE / "known_defects.json").read_text())[args.workload]
    tw = import_twrelay()
    seed = args.seed % 2 ** 63
    env = environment(args, seed)
    setup, setup_raw = ([], []) if args.trace else setup_seconds(SETUP_PROBES)

    for unit in W.warmup_units(args.workload):
        unit.run(tw)
    units = W.units(args.workload, seed)
    record = {"env": env}
    if args.trace:
        wall_plain, outputs = run_pass(units, tw)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall_traced, traced_outputs = run_pass(units, tw)
        finally:
            tracer.uninstall()
        stable = traced_outputs == outputs
        layers = tracing.layer_metrics(tracer)
        layers["trace.wall_s"] = wall_traced
        layers["trace.overhead_s"] = wall_traced - wall_plain
        layers["trace.unattributed_s"] = wall_traced - layers["trace.attributed_s"]
        record.update(untraced_wall_s=wall_plain, traced_wall_s=wall_traced, layers=layers)
    else:
        walls, walls_raw, outputs, stable = timed_passes(units, tw, args.seconds)
        record.update(walls=walls, walls_raw=walls_raw, setup=setup, setup_raw=setup_raw)

    rows, problems = W.rows(outputs)
    verdicts, gate_problems = G.gate(rows, expected)
    problems += gate_problems
    if not stable:
        problems.append("output differs between passes" if not args.trace
                        else "traced output differs from untraced output")
    failing = [v for v in verdicts if not v.ok]
    new = [v for v in failing if v.id not in known]
    correct = not new and not problems

    if args.trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_share": G.failed_share(len(failing), len(verdicts)),
            "min_digits": G.min_digits(verdicts, expected),
            "mc_rel_se": G.mc_rel_se(rows),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    by_id = {r.id: r for r in rows}
    record.update(correct=correct, problems=problems, metrics=metrics,
                  rows=[{"id": v.id, "ok": v.ok, "reason": v.reason, "digits": v.digits,
                         "value": getattr(by_id.get(v.id), "value", None),
                         "std_error": getattr(by_id.get(v.id), "std_error", None)} for v in verdicts])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"rows: {len(verdicts)} attempted, {len(failing)} failed "
          f"({len(failing) - len(new)} known defects, {len(new)} new)")
    for v in failing:
        print(f"FAIL{' (new)' if v in new else ''} {v.id}: {v.reason}")
    for p in problems:
        print(f"PROBLEM {p}")
    if not args.trace:
        print(f"raw wall times of the passes: {walls_raw}; of the set-up probes: {setup_raw}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": len(failing),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
