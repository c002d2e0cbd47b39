"""tricol benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``tricol`` is imported from ``./src``.
Workloads: inverse-block, markov-chains, infinite-certify, spectral (see
``perfbench/README.md`` for what each measures and why).  ``BENCHMARK.json``
lists the first three only: some ``spectral`` ops fail on today's library,
and a gated workload must run without failures.  ``spectral`` stays here to
be run by hand; it reports those failures.

The run has four steps, each in its own process so that no reference or
set-up work lands in the timed process:

1. ``refs.py`` computes the independent references for the seed.
2. With ``--trace 0``, ``worker.py --setup-only`` runs SETUP_PROBES times in
   fresh processes; ``setup_s`` is their median.
3. ``worker.py`` runs the timed closed loop, checking every output.  Times
   are scaled to a reference machine speed by a calibration kernel timed in
   the same process (see the README).
4. This script writes the full report to ``.perfbench/results/`` and prints
   a readable summary, then one JSON line with the metrics BENCHMARK.json
   names: the end-to-end ones with ``--trace 0`` (tracing off), the
   per-layer ones with ``--trace 1`` (tracing on).

It exits non-zero without printing a result when ``src/tricol`` is missing
or any step fails.
"""

from __future__ import annotations

import os

#: BLAS thread variables, forced to 1 before NumPy loads in any process.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("inverse-block", "markov-chains", "infinite-certify", "spectral")
SETUP_PROBES = 5
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "ok_frac": "ratio", "failed_frac": "ratio", "oracle_err": "ratio", "peak_rss_mb": "MB"}


def provenance(root: str, args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "tricol")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "loop": "closed, one caller, one thread",
    }


def step(cmd: list[str], env: dict, timeout: float) -> dict:
    """Run one step to completion; its last stdout line is JSON."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{os.path.basename(cmd[3])} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tricol", "__init__.py")):
        print(f"perfbench: no tricol package under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    work = os.path.join(root, ".perfbench")
    results = os.path.join(work, "results")
    refs_dir = os.path.join(work, f"refs-{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    py = [sys.executable, "-X", "faulthandler"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        ref_checks = step(py + [os.path.join(HERE, "refs.py"), *common, "--out", refs_dir],
                          env, 600)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(step(py + [os.path.join(HERE, "worker.py"), *common,
                                         "--setup-only"], env, 120))
        res = step(py + [os.path.join(HERE, "worker.py"), *common,
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--refs", refs_dir, "--out", results,
                         "--cache", os.path.join(work, "cache")],
                   env, args.seconds + 600)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(refs_dir, ignore_errors=True)

    e2e = res["end_to_end"]
    if setups:
        e2e["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        res["detail"]["setup_probes"] = setups
    res["detail"]["reference_checks"] = ref_checks
    report = {"provenance": provenance(root, args), **res}
    out_path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)

    detail = res["detail"]
    tail = detail["op_tail"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {res['attempted']} ops in {detail['rounds']} rounds, "
          f"{res['failed']} failed, correct={res['correct']}")
    print("  times at the reference speed (perfbench/README.md)"
          + ("; tracing on, so they include its overhead" if args.trace else ""))
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "failed_frac",
                 "oracle_err", "peak_rss_mb", "ok_frac"):
        if name in e2e:
            note = (f"  (p{tail['percentile']:g} of {tail['samples']} ops, "
                    f"{tail['beyond']} beyond)" if name == "op_tail_ms" else "")
            print(f"  {name:<14} {e2e[name]:.6g} {UNITS[name]}{note}")
    for cls, c in detail["classes"].items():
        print(f"  class {cls:<32} raw median {c['median_ms']:.4g} ms over {c['ops']} ops"
              + (f", failures {c['failures']}" if c["failures"] else ""))
    if args.trace:
        for name, value in res["per_layer"].items():
            print(f"  {name:<36} {value:.6g}")
    print(f"  report: {os.path.relpath(out_path, root)}")

    if args.trace:
        wanted, values = spec["per_layer"], res["per_layer"]
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
