"""Independent references for one workload and seed, computed in their own process.

    python3 perfbench/refs.py --workload NAME --seed N --out DIR

Writes ``DIR/<class>-<index>.npy`` per pool instance plus ``DIR/refs.json``
with each reference's scale (max |value|) and self-checks, and prints the
self-checks as one JSON line.  Nothing here is
timed and none of it runs in the process whose memory is reported.

* inverse-block: dense LU inverse (LAPACK getrf/getri through SciPy) of the
  matrix assembled from the rate arrays.
* markov-chains: ``scipy.sparse`` LU solves.  The stationary vector fixes
  pi[0] = 1 and solves the balance equations of columns 1..n-1, which involve
  band entries only; value functions solve (alpha I - Q) V = c.
* infinite-certify: sparse LU on leading truncations, checked against a
  truncation twice as deep; ``hom_invert`` is checked against the library's
  general certification of ``spec.as_band()``.
* spectral: LAPACK ``geev`` eigenvalues.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spl

import workloads as wl

#: Leading truncation used for infinite references (doubled for the self-check).
TRUNCATION = 8192


def dense_matrix(bd, bu, bz) -> np.ndarray:
    return band_matrix(bd, bu, bz).toarray()


def band_matrix(bd, bu, bz) -> sp.csc_matrix:
    """B from its rates, or the leading truncation of an infinite B.

    Row 0 is (-bd0-bu0, bu0); row i >= 1 has bd[i] below the diagonal,
    -(bd+bu+bz)[i] on it, bu[i] above it and bz[i] in column 0.
    """
    diag = -(bd + bu + bz)
    diag[0] = -(bd[0] + bu[0])
    return _assemble(diag, bu, bd, bz)


def generator(qd, qu, qz) -> sp.csc_matrix:
    """Conservative generator Q (zero row sums) from its rates."""
    return _assemble(-(qd + qu + qz), qu, qd, qz)


def _assemble(diag, up, down, col0) -> sp.csc_matrix:
    n = len(diag)
    i = np.arange(n)
    rows = np.concatenate([i, i[:-1], i[1:], i[2:]])
    cols = np.concatenate([i, i[:-1] + 1, i[1:] - 1, np.zeros(max(n - 2, 0), dtype=int)])
    sub = down[1:].copy()
    if n > 1:
        sub[0] += col0[1]  # row 1's column-0 entry is its subdiagonal entry
    vals = np.concatenate([diag, up[:-1], sub, col0[2:]])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


def stationary(q: sp.csc_matrix) -> np.ndarray:
    """pi with pi Q = 0, sum pi = 1, from the balance of columns 1..n-1."""
    qt = q.T.tocsr()
    x = spl.splu(qt[1:, 1:].tocsc()).solve(-qt[1:, 0].toarray().ravel())
    pi = np.concatenate([[1.0], x])
    return pi / pi.sum()


def _rates(rules, n):
    return [np.array([r(i) for i in range(n)]) for r in rules]


def certify_block(inp: dict, depth: int) -> np.ndarray:
    """Leading 128 x 128 block of the inverse of a depth x depth truncation."""
    rules = [wl._periodic([float(x) for x in inp[k]]) for k in ("bd", "bu", "bz")]
    bd, bu, bz = _rates(rules, depth)
    b = band_matrix(bd, bu, bz)
    rhs = np.zeros((depth, wl.CERTIFY_BLOCK))
    rhs[np.arange(wl.CERTIFY_BLOCK), np.arange(wl.CERTIFY_BLOCK)] = 1.0
    return spl.splu(b).solve(rhs)[: wl.CERTIFY_BLOCK]


def tail_stationary(inp: dict, depth: int) -> np.ndarray:
    tail = [float(x) for x in inp["tail"]]
    rules = [wl._head_tail([float(x) for x in inp[k]], t)
             for k, t in zip(("qd", "qu", "qz"), tail)]
    qd, qu, qz = _rates(rules, depth)
    qu[-1] = 0.0  # reflect at the truncation
    return stationary(generator(qd, qu, qz))


def reference(workload: str, cls: str, inp: dict, checks: dict) -> np.ndarray | None:
    if workload == "inverse-block":
        return scipy.linalg.inv(dense_matrix(inp["bd"], inp["bu"], inp["bz"]))
    if workload == "spectral":
        return scipy.linalg.eigvals(dense_matrix(inp["bd"], inp["bu"], inp["bz"]))
    if workload == "markov-chains":
        q = generator(inp["qd"], inp["qu"], inp["qz"])
        if cls.startswith("steady_state"):
            return stationary(q)
        alpha = float(inp["discount"][0])
        return spl.splu((alpha * sp.identity(q.shape[0], format="csc") - q).tocsc()).solve(
            inp["cost"])
    if cls in ("invert-n128", "gamma1"):
        c = certify_block(inp, TRUNCATION)
        c2 = certify_block(inp, 2 * TRUNCATION)
        checks["truncation_diff"] = max(checks.get("truncation_diff", 0.0),
                                        float(np.max(np.abs(c - c2)) / np.max(np.abs(c2))))
        return c2 if cls == "invert-n128" else np.array([c2[0, 1] / c2[0, 0]])
    if cls == "steady_state-tail":
        pi = tail_stationary(inp, 4096)
        pi2 = tail_stationary(inp, 8192)
        checks["tail_truncation_diff"] = max(checks.get("tail_truncation_diff", 0.0),
                                             float(np.max(np.abs(pi - pi2[:4096]))))
        return pi2
    if cls == "hom_invert-n1024":
        import tricol  # the general certification is the reference for the closed forms

        bd, bu, bz = (float(x) for x in inp["rates"])
        band = tricol.HomogeneousSpec(bd=bd, bu=bu, bz=bz).as_band()
        return tricol.invert(tricol.validate(band), n=wl.HOM_BLOCK).block()
    if cls == "steady_state-null":
        return None  # the expected outcome is a typed error
    raise ValueError(f"unknown op class {cls!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOAD_IDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    meta: dict = {"refs": {}, "checks": {}}
    for cls, insts in wl.make_inputs(args.workload, args.seed).items():
        for j, inp in enumerate(insts):
            ref = reference(args.workload, cls, inp, meta["checks"])
            if ref is None:
                continue
            name = f"{cls}-{j}.npy"
            np.save(os.path.join(args.out, name), ref)
            meta["refs"][name] = {"scale": float(np.max(np.abs(ref)))}
    with open(os.path.join(args.out, "refs.json"), "w") as f:
        json.dump(meta, f)
    print(json.dumps(meta["checks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
