"""The process that runs the timed ops, and the set-up probe.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --refs DIR --out DIR
    python3 perfbench/worker.py --setup-only --workload W --seed N

Both start by importing ``tricol`` from ``./src`` and building the
workload's instances; that is what set-up time measures.  The worker then
runs a closed loop with one caller: whole rounds, one op of each class per
round, until ``--seconds`` have passed and every pool instance has run.
Each output is checked against the reference in ``--refs`` between ops,
outside the timed region, and a calibration kernel is timed after each op
to scale its latency to a reference machine speed.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter

from tracing import Tracer

def tail_latency(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at a nearest-rank percentile."""
    xs = sorted(latencies)
    k = max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0)
    return xs[k], len(xs) - 1 - k


#: Times are reported as if the calibration kernel took exactly this long.
CAL_REF_S = 0.005


def calibration_s() -> float:
    """Best of three timings of a fixed kernel: scalar float64 recurrences
    over a NumPy array, the kind of loop the library's fills run.  The
    machine's speed drifts by tens of percent over minutes; dividing times by
    this kernel's time in the same process removes most of that drift."""
    import numpy as np

    a = np.linspace(0.5, 1.5, 4096)
    out = np.empty(4096)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.0
        for _ in range(3):
            for i in range(1, 4096):
                x = a[i] * x + a[i - 1]
                out[i] = x
                x = x / (1.0 + a[i])
        best = min(best, time.perf_counter() - t0)
    return best


def stream_error(out, path: str, scale: float, rows: int = 64) -> float:
    """Relative max deviation from a 2-D .npy reference read a few rows at a
    time, so the reference adds almost nothing to this process's memory."""
    import numpy as np

    fmt = np.lib.format
    if out.ndim != 2 or not np.isfinite(out).all():
        return math.inf
    with open(path, "rb") as f:
        major, _ = fmt.read_magic(f)
        read_header = fmt.read_array_header_1_0 if major == 1 else fmt.read_array_header_2_0
        shape, fortran, dtype = read_header(f)
        if tuple(shape) != out.shape or fortran:
            return math.inf
        worst = 0.0
        for r0 in range(0, shape[0], rows):
            r1 = min(r0 + rows, shape[0])
            chunk = np.frombuffer(f.read((r1 - r0) * shape[1] * dtype.itemsize), dtype=dtype)
            worst = max(worst, float(np.max(np.abs(out[r0:r1] - chunk.reshape(r1 - r0, -1)))))
    return worst / scale


class Checker:
    """Compares op outputs with the references one process computed earlier."""

    def __init__(self, workload: str, refs_dir: str):
        import numpy as np
        import workloads as wl

        self.np, self.wl = np, wl
        self.workload = workload
        self.dir = refs_dir
        with open(os.path.join(refs_dir, "refs.json")) as f:
            self.meta = json.load(f)

    def error(self, cls: str, j: int, out) -> float:
        np, wl = self.np, self.wl
        name = f"{cls}-{j}.npy"
        path = os.path.join(self.dir, name)
        out = np.asarray(out)
        if self.workload == "spectral":
            return wl.spectrum_error(out, np.load(path))
        if out.ndim == 2:
            return stream_error(out, path, self.meta["refs"][name]["scale"])
        ref = np.load(path)
        if cls == "steady_state-tail":
            ref = ref[: len(out)]  # the rest of the reference holds < 1e-40 of the mass
        return wl.relative_error(out, ref)


def mpmath_eigenvalues(dense, cache_path: str):
    """50-digit eigenvalues, cached on disk by instance."""
    import numpy as np

    if os.path.exists(cache_path):
        return np.load(cache_path)
    import mpmath

    with mpmath.workdps(50):
        vals = mpmath.eig(mpmath.matrix(dense.tolist()), left=False, right=False)
        out = np.array([complex(v) for v in vals])
    os.makedirs(os.path.dirname(cache_path), exist_ok=True)
    tmp = f"{cache_path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        np.save(f, out)
    os.replace(tmp, cache_path)   # readers never see a partial file
    return out


def run(args) -> dict:
    t0 = time.perf_counter()
    import tricol
    import_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(tricol.__file__).startswith(src + os.sep):
        raise SystemExit(f"tricol was imported from {tricol.__file__}, not from {src}")
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed)
    tracer = Tracer().install() if args.trace else None
    t1 = time.perf_counter()
    classes = wl.op_classes(tricol, args.workload, inputs)
    build_s = time.perf_counter() - t1
    setup = {"setup_raw_s": import_s + build_s, "import_s": import_s, "build_s": build_s}
    if args.setup_only:
        cal = calibration_s()
        return {**setup, "calibration_s": cal, "setup_s": (import_s + build_s) * CAL_REF_S / cal}

    pool = wl.POOL[args.workload]
    tol = wl.TOLERANCE[args.workload]
    checker = Checker(args.workload, args.refs)
    typed_error = tricol.errors.TricolError

    warnings.simplefilter("ignore", RuntimeWarning)
    if tracer is not None:
        tracer.uninstall()
    # untimed warm-up round on round 0's instances: first-touch page faults and
    # lazy imports are not what later ops pay; a traced run times one more
    # untraced round, the base of the tracing overhead
    for _ in range(1 if tracer is None else 2):
        untraced_round = 0.0
        for oc in classes:
            ta = time.perf_counter()
            try:
                oc.run(oc.instances[0])
            except Exception:
                pass   # outcomes are classified in the timed loop
            untraced_round += time.perf_counter() - ta
    if tracer is not None:
        tracer.install()
        tracer.counts.clear()

    per_class = {oc.name: {"latency_s": [], "failures": Counter()} for oc in classes}
    latencies: list[float] = []
    round_latency: list[float] = []
    attempted = failed = 0
    correct = True
    oracle_err = 0.0
    warn_count = 0
    report = {"truncation_level": 0, "entry_ops": 0, "coeff_ops": 0, "near_degenerate": 0}
    spectra: dict[tuple[str, int], object] = {}   # first spectrum returned per instance
    check_s = 0.0     # checking and calibrating, both outside the timed loop
    calibrations = [calibration_s()]   # one before the first op, then one after each op
    scaled: list[float] = []           # latencies at the reference speed
    rounds = 0
    start = time.perf_counter()
    while True:
        j = rounds % pool
        this_round = 0.0
        for oc in classes:
            inst = oc.instances[j]
            if tracer is not None:
                tracer.op_index = attempted
            out = rep = exc = None
            with warnings.catch_warnings(record=tracer is not None) as caught:
                if tracer is not None:
                    warnings.simplefilter("always")
                ta = time.perf_counter()
                try:
                    out, rep = oc.run(inst)
                except Exception as e:  # classified below, outside the timed region
                    exc = e
                tb = time.perf_counter()
            latencies.append(tb - ta)
            this_round += tb - ta
            per_class[oc.name]["latency_s"].append(tb - ta)
            attempted += 1
            if caught:
                warn_count += sum(issubclass(w.category, RuntimeWarning) for w in caught)

            failure = None
            if exc is not None:
                if not (oc.expect and isinstance(exc, oc.expect)):
                    failure = type(exc).__name__
                    correct = correct and isinstance(exc, typed_error)
            elif oc.expect:
                failure = "NoErrorRaised"   # a result where none exists
                correct = False
            else:
                err = checker.error(oc.name, j, out)
                oracle_err = max(oracle_err, err)
                if not err <= tol:
                    failure = "OracleMismatch"
                    correct = correct and args.workload in wl.UNPROMISED_ACCURACY
                if args.workload == "spectral":
                    spectra.setdefault((oc.name, j), out)
            if failure is not None:
                failed += 1
                per_class[oc.name]["failures"][failure] += 1
            if rep is not None:
                level = getattr(rep, "truncation_level", None)
                report["truncation_level"] += level or 0
                report["entry_ops"] += getattr(rep, "entry_ops", 0)
                report["coeff_ops"] += getattr(rep, "coeff_ops", 0)
                report["near_degenerate"] += int(bool(getattr(rep, "near_degenerate", False)))
            del out, rep, exc
            calibrations.append(calibration_s())
            scaled.append((tb - ta) * 2 * CAL_REF_S / (calibrations[-2] + calibrations[-1]))
            check_s += time.perf_counter() - tb
        round_latency.append(this_round)
        rounds += 1
        if rounds >= pool and time.perf_counter() - start - check_s >= args.seconds:
            break
    wall = time.perf_counter() - start - check_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_p = wl.TAIL_PERCENTILE[args.workload]
    tail_v, tail_beyond = tail_latency(scaled, tail_p)
    speed = statistics.median(s / r for s, r in zip(scaled, latencies))  # for per-layer times
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "ops_per_s": attempted / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_tail_ms": tail_v * 1e3,
            "ok_frac": (attempted - failed) / attempted,
            "failed_frac": failed / attempted,
            "oracle_err": min(oracle_err, 1e300),
            "peak_rss_mb": peak_rss_mb,
        },
        "detail": {
            "setup": setup,
            "rounds": rounds,
            "loop_wall_s": wall,
            "round_s": round_latency,
            "calibration_s": calibrations,
            "raw": {"ops_per_s": attempted / wall,
                    "op_p50_ms": statistics.median(latencies) * 1e3,
                    "op_tail_ms": tail_latency(latencies, tail_p)[0] * 1e3},
            "check_s": check_s,
            "tolerance": tol,
            "op_tail": {"percentile": tail_p, "samples": attempted, "beyond": tail_beyond},
            "classes": {k: {"median_ms": statistics.median(v["latency_s"]) * 1e3,
                            "ops": len(v["latency_s"]), "failures": v["failures"]}
                        for k, v in per_class.items()},
        },
    }
    if tracer is None:
        return result

    loop_ops = set(range(attempted))
    selfs = tracer.self_times(loop_ops)
    calls = tracer.call_counts(loop_ops)
    counts = dict(tracer.counts)

    # baselines on the same instances (round 0), outside the loop
    if args.workload == "inverse-block":
        for i, oc in enumerate(classes):
            tracer.op_index = -2 - i
            m = oc.instances[0]
            tricol.dense_invert(m.to_dense())
            try:
                tricol.sherman_morrison_invert(m)
            except typed_error:
                pass
    elif args.workload == "spectral":
        tracer.op_index = -2
        for oc in classes:
            tricol.dense_eigen(oc.instances[0].to_dense())
    tracer.uninstall()

    def s(*names, ops=None):
        table = selfs if ops is None else tracer.self_times(ops)
        return sum(table.get(n, 0.0) for n in names)

    per_round = 1.0 / rounds
    layer = {
        "model.validate_s": s("model.validate", ops={-1}),
        "model.rates_s": s(*("model.BandSpec.rates", "model.StructuredMatrix.band_rates")) * per_round,
        "model.rates_calls": counts.get("model.rates_calls", 0) * per_round,
        "model.rate_indices": counts.get("model.rate_indices", 0) * per_round,
        "model.entry_calls": counts.get("model.StructuredMatrix.entry", 0) * per_round,
        "model.to_dense_s": s("model.StructuredMatrix.to_dense") * per_round,
        "general.materialize_s": s("general.InverseView.materialize") * per_round,
        "general.block_s": s("general.InverseView.block") * per_round,
        "general.block_residual_s": s("general.block_residual") * per_round,
        "general.gamma_table_s": s("general.gamma_table") * per_round,
        "general.gamma1_s": s("general.gamma1") * per_round,
        "general.truncation_level": report["truncation_level"] * per_round,
        "general.entry_ops": report["entry_ops"] * per_round,
        "general.coeff_ops": report["coeff_ops"] * per_round,
        "homogeneous.hom_invert_s": s("homogeneous.hom_invert") * per_round,
        "applications.steady_state_s": s("applications.steady_state") * per_round,
        "applications.value_function_s": s("applications.value_function") * per_round,
        "runtime_warnings": warn_count * per_round,
        "tridiag.solve_s": s("_tridiag.tridiag_solve_pivot") * per_round,
        "tridiag.solve_calls": calls.get("_tridiag.tridiag_solve_pivot", 0) * per_round,
        "spectral.tridiag_eigen_s": s("spectral.tridiag_eigen") * per_round,
        "spectral.eig_vectors_s": s("spectral.eig_vectors") * per_round,
        "spectral.decompose_perturbation_s": s("spectral.decompose_perturbation") * per_round,
        "spectral.rank_one_update_s": s("spectral.rank_one_update") * per_round,
        "spectral.solve_alpha_s": s("spectral.solve_alpha") * per_round,
        "spectral.solve_alpha_calls": calls.get("spectral.solve_alpha", 0) * per_round,
        "spectral.near_degenerate": report["near_degenerate"] * per_round,
        "oracles.sherman_morrison_s": tracer.top_level_time("oracles.sherman_morrison_invert"),
        "oracles.dense_eigen_s": tracer.top_level_time("oracles.dense_eigen"),
        "failed_frac": result["end_to_end"]["failed_frac"],
        "oracle_err": result["end_to_end"]["oracle_err"],
    }
    for i, n in enumerate(wl.INVERSE_SIZES):
        layer[f"oracles.dense_invert_s_n{n}"] = tracer.top_level_time("oracles.dense_invert",
                                                                     ops={-2 - i})

    # 50-digit gaps: per size, the first pool instance the pipeline returned a spectrum for
    import refs

    for n, oc in zip(wl.SPECTRAL_SIZES, classes if args.workload == "spectral" else ()):
        hit = next(((j, spectra[(oc.name, j)]) for j in range(pool) if (oc.name, j) in spectra),
                   None)
        if hit is None:
            layer[f"spectral.mpmath_gap_n{n}"] = -1.0   # no instance of this size was solved
            continue
        j, values = hit
        inp = inputs[oc.name][j]
        exact = mpmath_eigenvalues(
            refs.dense_matrix(inp["bd"], inp["bu"], inp["bz"]),
            os.path.join(args.cache, "mpmath", wl.instance_key(oc.name, inp) + ".npy"))
        layer[f"spectral.mpmath_gap_n{n}"] = wl.spectrum_error(values, exact)
    for n in wl.SPECTRAL_SIZES:
        layer.setdefault(f"spectral.mpmath_gap_n{n}", 0.0)

    for name in layer:
        if name.endswith("_s") or "_s_n" in name:
            layer[name] *= speed

    # tracing overhead: a traced round on round 0's instances against the untraced one
    traced = round_latency[pool] if rounds > pool else round_latency[0]
    layer["trace.overhead"] = traced / untraced_round - 1.0
    result["per_layer"] = layer
    result["detail"]["self_s_per_round"] = {k: v * per_round for k, v in sorted(selfs.items())}
    result["detail"]["counts_per_round"] = {k: v * per_round for k, v in sorted(counts.items())}
    spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                   "spans": tracer.dump()}, f)
    result["detail"]["spans_file"] = os.path.relpath(spans_path)
    result["detail"]["spans"] = len(tracer.spans)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--refs")
    ap.add_argument("--out")
    ap.add_argument("--cache")
    args = ap.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
