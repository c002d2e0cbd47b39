"""Batch command-line front end.

Reads matrix spec documents (JSON, schema in ``model.from_dict``), runs the
solvers and prints self-verifying output: every numeric result is
accompanied by its residual or audit.  Exit codes: 1 usage, 2 validation
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import applications, general, homogeneous, model, oracles, spectral
from .bench import bench as run_bench, render_table, report_to_dict
from .errors import NumericalError, TricolError, ValidationError

USAGE_EXIT = 1
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3

DEFAULT_TOL_ENV = "TRICOL_TOL"


def _default_tol() -> float:
    raw = os.environ.get(DEFAULT_TOL_ENV)
    if raw is None:
        return 1e-12
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{DEFAULT_TOL_ENV}={raw!r} is not a number")


class _Fmt:
    def __init__(self, digits: int, exact: bool):
        self.digits = digits
        self.exact = exact

    def __call__(self, x) -> str:
        if isinstance(x, complex) or (hasattr(x, "imag") and getattr(x, "imag", 0.0) != 0.0):
            return f"{self(float(x.real))}{'+' if x.imag >= 0 else '-'}{self(abs(float(x.imag)))}j"
        x = float(x)
        if self.exact:
            return repr(x)
        return f"{x:.{self.digits}g}"


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec file {path} is not valid JSON: {exc}")


def _load_matrix(path: str):
    return model.validate(model.from_dict(_load_doc(path)))


def _vec_line(vec, fmt) -> str:
    return " ".join(fmt(x) for x in vec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args, fmt) -> int:
    doc = _load_doc(args.spec)
    spec = model.from_dict(doc)
    m = model.validate(spec)
    kind = "homogeneous" if isinstance(spec, model.HomogeneousSpec) else "explicit"
    extent = f"finite l={m.last}" if m.is_finite else "infinite"
    print(f"valid {kind} {extent}")
    print("conditions: bd[0] > 0; rates >= 0; bw[i] > 0 (i >= 1)"
          + ("; final row sums to zero" if m.is_finite else ""))
    return 0


def _cmd_invert(args, fmt) -> int:
    m = _load_matrix(args.spec)
    n = args.n if args.n is not None else (m.last + 1 if m.is_finite else None)
    if n is None:
        raise ValidationError("--n is required for infinite extent")
    view = general.invert(m, n=n, tol=args.tol)
    C = view.block(n)
    audited = m.is_finite and n == m.last + 1  # the solve audited this block
    resid = view.report.residual if audited else general.block_residual(view, n)
    for i in range(n):
        print(_vec_line(C[i], fmt))
    print(f"residual {fmt(resid)}")
    if view.report.truncation_level is not None:
        print(f"truncation-level {view.report.truncation_level}")
    if args.out:
        np.savetxt(args.out, C)
    return 0


def _cmd_element(args, fmt) -> int:
    m = _load_matrix(args.spec)
    view = general.InverseView(m, tol=args.tol)
    i, j = args.i, args.j
    value = view.element(i, j)  # materializes the generators only as far as needed
    print(f"c({i},{j}) = {fmt(value)}")
    # residual of the defining equation sum_k B(i,k) c(k,j) = delta_ij
    cols = {0, max(0, i - 1), i}
    if not (m.is_finite and i == m.last):
        cols.add(i + 1)
    acc = -(1.0 if i == j else 0.0)
    for k in sorted(cols):
        acc += m.entry(i, k) * view.element(k, j)
    print(f"equation-residual {fmt(abs(acc))}")
    return 0


def _cmd_steady_state(args, fmt) -> int:
    doc = _load_doc(args.spec)
    Q = model.generator_from_dict(doc)
    res = applications.steady_state(Q, tol=args.tol)
    print(_vec_line(res.pi, fmt))
    print(f"residual {fmt(res.residual)}")
    if res.truncation_level is not None:
        print(f"truncation-level {res.truncation_level}")
    if res.tail_bound is not None:
        print(f"tail-bound {fmt(res.tail_bound)}")
    return 0


def _cmd_value_function(args, fmt) -> int:
    doc = _load_doc(args.spec)
    Q = model.generator_from_dict(doc)
    cost = doc.get("cost")
    if args.cost is not None:
        cost = [float(x) for x in args.cost.split(",")]
    if cost is None:
        raise ValidationError("cost vector required ('cost' field or --cost)")
    discount = args.discount if args.discount is not None else doc.get("discount")
    if discount is None:
        raise ValidationError("discount required ('discount' field or --discount)")
    res = applications.value_function(Q, cost, float(discount), tol=args.tol)
    print(_vec_line(res.values, fmt))
    print(f"residual {fmt(res.residual)}")
    return 0


def _cmd_absorbing_bd(args, fmt) -> int:
    view = applications.absorbing_bd_invert(
        args.bd, args.bu, args.bz, n=args.n, last=args.l, shape=args.shape,
        tol=args.tol)
    C = view.block(args.n)
    for i in range(args.n):
        print(_vec_line(C[i], fmt))
    c11 = applications.absorbing_c11(args.bd, args.bu, args.bz, shape=args.shape)
    print(f"c11-closed-form {fmt(c11)}")
    resid = general.block_residual(view, args.n)
    print(f"residual {fmt(resid)}")
    return 0


def _cmd_eigen(args, fmt) -> int:
    m = _load_matrix(args.spec)
    spec, audit = spectral.eigenvalues_of_B(m, compare_oracle=args.oracle)
    print(_vec_line(spec.values, fmt))
    print(f"gershgorin {'ok' if audit.gershgorin_ok else 'FAILED'} "
          f"max-center-plus-radius {fmt(audit.max_center_plus_radius)}")
    print(f"max-real-part {fmt(audit.max_real_part)}")
    print(f"expansion-residual {fmt(audit.expansion_residual)} m {audit.m_count}")
    print(f"alphas-all-real {audit.alphas_all_real} "
          f"sign-condition {audit.sign_condition_holds}")
    if audit.oracle_gap is not None:
        print(f"oracle-gap {fmt(audit.oracle_gap)}")
    if not audit.gershgorin_ok or audit.max_real_part >= 0.0:
        return NUMERICAL_EXIT
    return 0


def _cmd_bench(args, fmt) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rep = run_bench(sizes, repetitions=args.repetitions, seed=args.seed)
    print(render_table(rep, with_times=args.repetitions > 0))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(rep), fh, indent=2)
        print(f"report written to {args.out}")
    return 0


def _cmd_selftest(args, fmt) -> int:
    failures = 0
    for name, fn in _SELFTESTS:
        try:
            ok, detail = fn()
        except TricolError as exc:
            ok, detail = False, f"error: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} selftest(s) failed")
        return NUMERICAL_EXIT
    print("all selftests passed")
    return 0


# ---------------------------------------------------------------------------
# selftest fixtures: the worked examples
# ---------------------------------------------------------------------------

def _worked_matrix():
    return model.validate(model.BandSpec.finite([1, 1, 2], [2, 1, 0], [0, 1, 1]))


def _st_worked_inverse():
    m = _worked_matrix()
    view = general.invert(m)
    C = view.block()
    want_row0 = np.array([-1.0, -6.0 / 7.0, -2.0 / 7.0])
    err = max(float(np.max(np.abs(C[:, 0] + 1.0))),
              float(np.max(np.abs(C[0] - want_row0))))
    g1 = general.gamma1(m)
    err = max(err, abs(g1 - 6.0 / 7.0))
    return err < 1e-12, f"max deviation {err:.2e}"


def _st_homogeneous_constants():
    k = homogeneous.hom_constants(model.HomogeneousSpec(2.0, 1.0, 1.0))
    err = max(abs(k.gamma - (1.0 - 0.5 * np.sqrt(2.0))),
              abs(k.psi - 2.0 * k.gamma),
              abs(k.diag_limit + 1.0 / np.sqrt(8.0)))
    return err < 1e-13, f"max deviation {err:.2e}"


def _st_truncated_homogeneous():
    spec = model.HomogeneousSpec(2.0, 1.0, 1.0, last=5, truncation="special")
    view = homogeneous.hom_finite_invert(spec)
    resid = view.report.residual
    return resid < 1e-10, f"residual {resid:.2e}"


def _st_steady_two_state():
    res = applications.steady_state(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    err = float(np.max(np.abs(res.pi - np.array([2.0 / 3.0, 1.0 / 3.0]))))
    return err < 1e-12, f"max deviation {err:.2e}"


def _st_absorbing_c11():
    got = applications.absorbing_c11(2.0, 1.0, 1.0)
    err = abs(got + np.sqrt(0.5))
    return err < 1e-12, f"deviation {err:.2e}"


def _st_sherman_morrison():
    m = _worked_matrix()
    sm = oracles.sherman_morrison_invert(m)
    lu = oracles.dense_invert(m.to_dense())
    err = float(np.max(np.abs(sm - lu)))
    return err < 1e-10, f"max deviation {err:.2e}"


def _st_spectral_worked():
    m = _worked_matrix()
    spec, audit = spectral.eigenvalues_of_B(m, compare_oracle=True)
    ok = audit.oracle_gap < 1e-6 and audit.gershgorin_ok and audit.max_real_part < 0
    return ok, f"oracle gap {audit.oracle_gap:.2e}"


def _st_infinite_homogeneous():
    # gamma1 through the doubling levels, as a rate-callable band and as a
    # homogeneous spec: 1 - sqrt(2)/2
    spec = model.HomogeneousSpec(2.0, 1.0, 1.0)
    want = 1.0 - 0.5 * np.sqrt(2.0)
    err = max(abs(general.gamma1(model.validate(s)) - want) for s in (spec.as_band(), spec))
    # the infinite M/M/1 chain with qu = 1, qd = 2: pi_j = 0.5 * 0.5**j
    mm1 = model.BandSpec.infinite(lambda i: 0.0 if i == 0 else 2.0, lambda i: 1.0,
                                  lambda i: 0.0, tail_start=1)
    pi = applications.steady_state(mm1).pi
    pi_err = float(np.max(np.abs(pi - 0.5 * 0.5 ** np.arange(len(pi)))))
    return err < 1e-13 and pi_err < 1e-12, \
        f"gamma1 deviation {err:.2e}, M/M/1 pi deviation {pi_err:.2e}"


_SELFTESTS = [
    ("worked-3x3-inverse", _st_worked_inverse),
    ("homogeneous-constants", _st_homogeneous_constants),
    ("special-truncation-residual", _st_truncated_homogeneous),
    ("steady-state-2-state", _st_steady_two_state),
    ("absorbing-c11", _st_absorbing_c11),
    ("sherman-morrison-vs-lu", _st_sherman_morrison),
    ("spectral-worked-3x3", _st_spectral_worked),
    ("infinite-homogeneous", _st_infinite_homogeneous),
]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tricol",
        description="solvers for tridiagonal + dense-first-column matrices")
    p.add_argument("--digits", type=int, default=12,
                   help="significant digits for printed numbers (default 12)")
    p.add_argument("--exact", action="store_true",
                   help="print full binary64 round-trip representations")
    p.add_argument("--tol", type=float, default=None,
                   help=f"tolerance (default 1e-12, or ${DEFAULT_TOL_ENV})")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a spec file")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("invert", help="print an inverse block")
    sp.add_argument("spec")
    sp.add_argument("--n", type=int, default=None, help="block size")
    sp.add_argument("--out", default=None, help="also write the block to a file")
    sp.set_defaults(fn=_cmd_invert)

    sp = sub.add_parser("element", help="print one inverse entry")
    sp.add_argument("spec")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.set_defaults(fn=_cmd_element)

    sp = sub.add_parser("steady-state", help="stationary distribution of a generator")
    sp.add_argument("spec")
    sp.set_defaults(fn=_cmd_steady_state)

    sp = sub.add_parser("value-function", help="discounted value function")
    sp.add_argument("spec")
    sp.add_argument("--discount", type=float, default=None)
    sp.add_argument("--cost", default=None, help="comma-separated cost vector")
    sp.set_defaults(fn=_cmd_value_function)

    sp = sub.add_parser("absorbing-bd", help="absorbing birth-and-death inverse")
    sp.add_argument("--bd", type=float, required=True)
    sp.add_argument("--bu", type=float, required=True)
    sp.add_argument("--bz", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="block size to print")
    sp.add_argument("--l", type=int, default=None, help="finite truncation index")
    sp.add_argument("--shape", choices=("absorbing", "original"), default="absorbing")
    sp.set_defaults(fn=_cmd_absorbing_bd)

    sp = sub.add_parser("eigen", help="eigenvalues via the rank-one pipeline")
    sp.add_argument("spec")
    sp.add_argument("--oracle", action="store_true",
                    help="also compare against the dense eigenvalue oracle")
    sp.set_defaults(fn=_cmd_eigen)

    sp = sub.add_parser("bench", help="complexity benchmark")
    sp.add_argument("--sizes", default="64,128,256,512,1024")
    sp.add_argument("--repetitions", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="write a JSON report")
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("selftest", help="run the built-in worked examples")
    sp.set_defaults(fn=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        tol = args.tol if args.tol is not None else _default_tol()
        if tol <= 0:
            raise ValidationError(f"tolerance must be positive, got {tol}")
        args.tol = tol
        fmt = _Fmt(args.digits, args.exact)
        return args.fn(args, fmt)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except TricolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
