"""The four workloads: seeded inputs, instance building, ops and checks.

Inputs are plain NumPy arrays drawn from ``--seed``; the library only ever
sees specs built from them.  Each workload has op classes that the timed
loop interleaves round-robin in equal counts.  Round ``r`` runs pool
instance ``r % POOL`` of every class, so once ``POOL`` rounds have run every
instance has been checked and the accuracy figures depend on the seed only.

This module needs NumPy only; ``op_classes`` takes the imported ``tricol``
package so that the set-up probe can time that import itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Outputs must be within this relative distance of their reference.
#: Spectral: the pipeline is documented to lose digits with size (see the
#: numerical notes in the repository README), so its check catches a wrong spectrum, not lost
#: digits; ``oracle_err`` and the mpmath gaps report the digits.
TOLERANCE = {
    "inverse-block": 1e-10,
    "markov-chains": 1e-10,
    "infinite-certify": 1e-9,
    "spectral": 1e-3,
}

#: Workloads whose accuracy the library does not promise: the README says the
#: spectral pipeline matches the dense oracle only through size ~12.  A
#: mismatch there is a failure; elsewhere it also makes the run incorrect.
UNPROMISED_ACCURACY = {"spectral"}

#: Percentile reported as ``op_tail_ms``: the highest of p99.9, p99, p95,
#: p90, p75 and p50 that had at least 10 samples beyond it in every run of
#: the library as of this benchmark's definition, 20 s on a 2-core machine
#: (25 to 45 ops for inverse-block and infinite-certify, 30 to 50 for
#: markov-chains, 80 to 135 for spectral).  It is fixed so that a faster
#: program, which completes more ops, is compared at the same percentile.
TAIL_PERCENTILE = {"inverse-block": 50.0, "markov-chains": 50.0, "infinite-certify": 50.0,
                   "spectral": 75.0}

#: Instances per op class.
POOL = {"inverse-block": 2, "markov-chains": 2, "infinite-certify": 2, "spectral": 24}

WORKLOAD_IDS = {"inverse-block": 1, "markov-chains": 2, "infinite-certify": 3, "spectral": 4}

INVERSE_SIZES = (256, 1024, 2048)
MARKOV_N = 100_000
BD_N = 1000
CERTIFY_BLOCK = 128
HOM_BLOCK = 1024
PERIOD = 16          # period of the callable infinite rates
HEAD = 32            # explicit head before the homogeneous tail
SPECTRAL_SIZES = (16, 32, 64)


@dataclass
class OpClass:
    """One kind of op: ``run(instance)`` is what the timed loop measures."""

    name: str
    run: Callable
    expect: tuple = ()            # exception types that count as success
    instances: list = field(default_factory=list)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_IDS[workload], seed])


# ---------------------------------------------------------------------------
# inputs: dicts of arrays per op class, one dict per pool instance
# ---------------------------------------------------------------------------

def _finite_rates(rng, n, low=0.5, high=1.5):
    bd = rng.uniform(low, high, n)
    bu = rng.uniform(low, high, n)
    bz = rng.uniform(0.05, 0.5, n)
    bu[-1] = 0.0
    return bd, bu, bz


def _generator(rng, n, dense_column: bool):
    qd = rng.uniform(0.5, 1.5, n)
    qu = rng.uniform(0.5, 1.5, n)
    qz = rng.uniform(0.01, 0.1, n) if dense_column else np.zeros(n)
    qd[0] = 0.0
    qu[-1] = 0.0
    qz[:2] = 0.0       # row 1's column-0 entry is its subdiagonal qd[1]
    return qd, qu, qz


def make_inputs(workload: str, seed: int) -> dict[str, list[dict]]:
    rng = rng_for(workload, seed)
    k = POOL[workload]
    out: dict[str, list[dict]] = {}
    if workload == "inverse-block":
        for n in INVERSE_SIZES:
            insts = []
            for j in range(k):
                bd, bu, bz = _finite_rates(rng, n)
                bd[rng.choice(np.arange(2, n - 1), 3, replace=False)] = 0.0
                if j % 2:
                    bu[rng.integers(n // 4, 3 * n // 4)] = 0.0
                insts.append({"bd": bd, "bu": bu, "bz": bz})
            out[f"invert-n{n}"] = insts
    elif workload == "markov-chains":
        out["steady_state-n100000"] = [
            dict(zip(("qd", "qu", "qz"), _generator(rng, MARKOV_N, True))) for _ in range(k)]
        for name, n, dense in (("value_function-column-n100000", MARKOV_N, True),
                               ("value_function-bd-n1000", BD_N, False)):
            insts = []
            for _ in range(k):
                qd, qu, qz = _generator(rng, n, dense)
                insts.append({"qd": qd, "qu": qu, "qz": qz, "cost": rng.uniform(0.0, 1.0, n),
                              "discount": np.array([rng.uniform(0.05, 0.5)])})
            out[name] = insts
    elif workload == "infinite-certify":
        slow = []
        for _ in range(k):
            scale = 10.0 ** rng.uniform(-2.0, np.log10(0.03))
            slow.append({"bd": rng.uniform(0.8, 1.2, PERIOD), "bu": rng.uniform(0.8, 1.2, PERIOD),
                         "bz": scale * rng.uniform(0.5, 1.5, PERIOD)})
        out["invert-n128"] = slow
        out["gamma1"] = slow
        tails = []
        for _ in range(k):
            qd, qu, qz = _generator(rng, HEAD, True)
            tails.append({"qd": qd, "qu": qu, "qz": qz,
                          "tail": np.array([rng.uniform(1.3, 1.7), rng.uniform(0.8, 1.2),
                                            rng.uniform(0.02, 0.08)])})
        out["steady_state-tail"] = tails
        out["hom_invert-n1024"] = [
            {"rates": np.array([rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5),
                                rng.uniform(0.2, 1.0)])} for _ in range(k)]
        out["steady_state-null"] = [{"rate": np.array([rng.uniform(0.5, 2.0)])} for _ in range(k)]
    elif workload == "spectral":
        for n in SPECTRAL_SIZES:
            insts = []
            for j in range(k):
                if j % 2 == 0:
                    bd, bu, bz = (rng.uniform(0.5, 1.5, n) for _ in range(3))
                else:  # log-uniform over two decades
                    bd, bu, bz = (10.0 ** rng.uniform(-1.0, 1.0, n) for _ in range(3))
                bu[-1] = 0.0
                insts.append({"bd": bd, "bu": bu, "bz": bz})
            out[f"eigenvalues_of_B-n{n}"] = insts
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def instance_key(cls: str, inp: dict) -> str:
    """Content hash of one instance's input arrays, for on-disk caches."""
    h = hashlib.sha256(cls.encode())
    for k in sorted(inp):
        h.update(b"|" + np.ascontiguousarray(inp[k], dtype=float).tobytes())
    return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# building specs from the arrays (this is what set-up time measures)
# ---------------------------------------------------------------------------

def _periodic(values: list) -> Callable[[int], float]:
    p = len(values)
    return lambda i: values[i % p]


def _head_tail(head: list, tail: float) -> Callable[[int], float]:
    h = len(head)
    return lambda i: head[i] if i < h else tail


def build_instance(tricol, workload: str, cls: str, inp: dict):
    """The library object an op of class ``cls`` runs on."""
    if workload in ("inverse-block", "spectral"):
        return tricol.validate(tricol.BandSpec.finite(inp["bd"], inp["bu"], inp["bz"]))
    if workload == "markov-chains":
        q = tricol.BandSpec.finite(inp["qd"], inp["qu"], inp["qz"])
        if cls.startswith("steady_state"):
            return q
        return q, inp["cost"], float(inp["discount"][0])
    if cls in ("invert-n128", "gamma1"):
        rates = [_periodic([float(x) for x in inp[k]]) for k in ("bd", "bu", "bz")]
        return tricol.validate(tricol.BandSpec.infinite(*rates))
    if cls == "steady_state-tail":
        tail = [float(x) for x in inp["tail"]]
        rules = [_head_tail([float(x) for x in inp[k]], t)
                 for k, t in zip(("qd", "qu", "qz"), tail)]
        return tricol.BandSpec.infinite(*rules, tail_start=HEAD)
    if cls == "hom_invert-n1024":
        bd, bu, bz = (float(x) for x in inp["rates"])
        spec = tricol.HomogeneousSpec(bd=bd, bu=bu, bz=bz)
        tricol.validate(spec)
        return spec
    if cls == "steady_state-null":
        c = float(inp["rate"][0])
        return tricol.BandSpec.infinite(lambda i: 0.0 if i == 0 else c, lambda i: c,
                                        lambda i: 0.0)
    raise ValueError(f"unknown op class {cls!r}")


# ---------------------------------------------------------------------------
# ops: each returns (output to check, report-like object or None)
# ---------------------------------------------------------------------------

def op_classes(tricol, workload: str, inputs: dict[str, list[dict]]) -> list[OpClass]:
    def invert_block(n):
        def run(m):
            view = tricol.invert(m, n=n)
            return view.block(), view.report
        return run

    def gamma1(m):
        return np.array([tricol.gamma1(m)]), None

    def stationary(q):
        res = tricol.steady_state(q)
        return res.pi, res

    def value(args):
        q, cost, discount = args
        return tricol.value_function(q, cost, discount).values, None

    def hom(spec):
        view = tricol.hom_invert(spec, n=HOM_BLOCK)
        return view.block(), view.report

    def spectrum(m):
        values, audit = tricol.eigenvalues_of_B(m)
        return values.values, audit

    no_stationary = (tricol.errors.NoConvergence, tricol.errors.NotNormalizable)
    ops = {
        **{f"invert-n{n}": (invert_block(n), ()) for n in INVERSE_SIZES + (CERTIFY_BLOCK,)},
        "steady_state-n100000": (stationary, ()),
        "value_function-column-n100000": (value, ()),
        "value_function-bd-n1000": (value, ()),
        "gamma1": (gamma1, ()),
        "steady_state-tail": (stationary, ()),
        "hom_invert-n1024": (hom, ()),
        "steady_state-null": (stationary, no_stationary),
        **{f"eigenvalues_of_B-n{n}": (spectrum, ()) for n in SPECTRAL_SIZES},
    }
    return [OpClass(cls, *ops[cls], [build_instance(tricol, workload, cls, inp) for inp in inps])
            for cls, inps in inputs.items()]


def relative_error(out: np.ndarray, ref: np.ndarray) -> float:
    """max |out - ref| / max |ref|; inf when shapes differ or values are not finite."""
    out = np.asarray(out)
    if out.shape != ref.shape:
        return float("inf")
    err = float(np.max(np.abs(out - ref))) / float(np.max(np.abs(ref)))
    return err if np.isfinite(err) else float("inf")


def spectrum_error(values: np.ndarray, ref: np.ndarray) -> float:
    """Largest matched eigenvalue distance / spectral radius of the reference.

    Each reference eigenvalue, taken in ascending order, is matched to the
    nearest output eigenvalue not matched yet.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return float("inf")
    free = np.ones(len(values), dtype=bool)
    worst = 0.0
    for r in ref[np.lexsort((ref.imag, ref.real))]:
        dist = np.where(free, np.abs(values - r), np.inf)
        k = int(np.argmin(dist))
        free[k] = False
        worst = max(worst, float(dist[k]))
    return worst / float(np.max(np.abs(ref)))
