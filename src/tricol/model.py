"""Matrix model: band + dense-first-column structured matrices.

A matrix in this family is tridiagonal except for its first column.  Row 0 is
``(-bd[0]-bu[0], bu[0], 0, ...)``; row i >= 1 carries ``bd[i]`` on the
subdiagonal, ``-bw[i]`` on the diagonal, ``bu[i]`` on the superdiagonal and
``bz[i]`` in column 0 (for row 1 the subdiagonal position *is* column 0, so
the entry there is ``bd[1] + bz[1]``).  The weights satisfy
``bw[i] = bz[i] + bd[i] + bu[i] > 0`` and ``bd[0] > 0``; every row i >= 1 sums
to zero and row 0 sums to ``-bd[0]``.  Finite matrices additionally treat
``bu[last]`` as zero so the final row also sums to zero.  Every matrix is
held as its rates (a homogeneous spec as its ``as_band()``, the special
truncation included), and ``StructuredMatrix.stencil`` lays out B from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadFinalRow,
    InfiniteExtent,
    NegativeRate,
    NonFiniteRate,
    NonPositiveB0d,
    OutOfRange,
    ValidationError,
    ZeroRowWeight,
)

RateRule = Callable[[int], float]


def _as_rule(seq) -> RateRule:
    if callable(seq):
        return seq
    arr = [float(x) for x in seq]
    return lambda i: arr[i]


class _RangeRule:
    """A library-built rate rule that also realizes whole slices:
    ``range(lo, hi)`` is bitwise the array of ``rule(i)`` over lo..hi
    inclusive.  ``BandSpec.rates`` reads it in one call; any other callable
    is called once per index."""


class _HeadTail(_RangeRule):
    """``head[i]`` below ``len(head)``, the constant ``tail`` from there on."""

    def __init__(self, head: Sequence[float], tail: float):
        self.head = [float(x) for x in head]
        self.tail = float(tail)

    def __call__(self, i: int) -> float:
        return self.head[i] if i < len(self.head) else self.tail

    def range(self, lo: int, hi: int) -> np.ndarray:
        out = np.full(hi + 1 - lo, self.tail)
        head = self.head[lo: hi + 1]
        out[: len(head)] = head
        return out


def _realize(rule: RateRule, lo: int, hi: int) -> np.ndarray:
    """The rates rule(lo), ..., rule(hi) as one float array."""
    if isinstance(rule, _RangeRule):
        return rule.range(lo, hi)
    return np.fromiter(map(rule, range(lo, hi + 1)), dtype=float, count=hi + 1 - lo)


@dataclass(frozen=True)
class BandSpec:
    """Rate data (bd, bu, bz) defining one matrix, finite or infinite.

    For finite extent the sequences are stored as arrays of length
    ``last + 1``.  For infinite extent they are deterministic callables over
    the index, optionally declared homogeneous from ``tail_start`` on, which
    lets downstream code use closed-form tail bounds.  A window of rates
    calls a callable once per index; the library's head/tail rules
    (``from_dict``, ``HomogeneousSpec.as_band``, ``absorbing_bd_spec``) fill
    it at NumPy speed instead.  Polynomial rules and sequences passed to
    ``infinite`` stay per-index.
    """

    down: object
    up: object
    tozero: object
    last: Optional[int] = None  # final index; None means infinite extent
    tail_start: Optional[int] = None

    @property
    def is_finite(self) -> bool:
        return self.last is not None

    @property
    def size(self) -> Optional[int]:
        return None if self.last is None else self.last + 1

    @staticmethod
    def finite(bd: Sequence[float], bu: Sequence[float], bz: Sequence[float]) -> "BandSpec":
        bd = np.asarray(bd, dtype=float)
        bu = np.asarray(bu, dtype=float)
        bz = np.asarray(bz, dtype=float)
        if not (len(bd) == len(bu) == len(bz)):
            raise ValidationError("bd, bu, bz must have equal length")
        if len(bd) == 0:
            raise ValidationError("empty spec")
        return BandSpec(down=bd, up=bu, tozero=bz, last=len(bd) - 1)

    @staticmethod
    def infinite(
        bd: RateRule | Sequence[float],
        bu: RateRule | Sequence[float],
        bz: RateRule | Sequence[float],
        tail_start: Optional[int] = None,
    ) -> "BandSpec":
        return BandSpec(
            down=_as_rule(bd), up=_as_rule(bu), tozero=_as_rule(bz),
            last=None, tail_start=tail_start,
        )

    def rates(self, hi: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (bd, bu, bz) covering indices lo..hi inclusive."""
        if self.is_finite:
            if hi > self.last:
                raise OutOfRange(f"index {hi} beyond final index {self.last}")
            return (np.asarray(self.down)[lo: hi + 1],
                    np.asarray(self.up)[lo: hi + 1],
                    np.asarray(self.tozero)[lo: hi + 1])
        return tuple(_realize(rule, lo, hi) for rule in (self.down, self.up, self.tozero))


@dataclass(frozen=True)
class HomogeneousSpec:
    """Element-homogeneous rates: every row shares (bd, bu, bz).

    ``truncation`` selects how a finite instance closes its last row:
    ``"special"`` is the last row under which the closed forms stay exact,
    ``"generic"`` the plain zero-row-sum boundary.  Both are rate rows of
    ``as_band()``, and the general algorithm solves both.
    """

    bd: float
    bu: float
    bz: float
    last: Optional[int] = None
    truncation: str = "special"  # "special" | "generic"

    @property
    def bw(self) -> float:
        return self.bz + self.bd + self.bu

    @property
    def is_finite(self) -> bool:
        return self.last is not None

    def as_band(self) -> BandSpec:
        """The same matrix as a plain BandSpec, with bu[last] = 0 if finite.
        The special truncation's last row (bu/gamma - bd, 0, ..., bd, -bu/gamma)
        is the rate bz[last] = bu/gamma - bd >= 0 (gamma <= bu/bd), clipped
        at 0 against rounding."""
        if self.is_finite:
            n = self.last + 1
            up = np.full(n, self.bu)
            up[-1] = 0.0
            tozero = np.full(n, self.bz, dtype=float)
            if self.truncation == "special":
                from .homogeneous import hom_constants  # local import: avoid cycle at module load
                tozero[-1] = max(self.bu / hom_constants(self).gamma - self.bd, 0.0)
            return BandSpec.finite(np.full(n, self.bd), up, tozero)
        return BandSpec.infinite(_HeadTail([], self.bd), _HeadTail([], self.bu),
                                 _HeadTail([], self.bz), tail_start=0)


class StructuredMatrix:
    """A validated matrix with an entry accessor.

    ``band`` holds the spec's rates (a homogeneous spec's ``as_band()``), and
    ``stencil`` reads B's entries from them.  Immutable after validation;
    safe for concurrent readers.
    """

    def __init__(self, spec):
        self.spec = spec
        self.band = spec.as_band() if isinstance(spec, HomogeneousSpec) else spec
        self.validated = False

    # -- extent ----------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.spec.is_finite

    @property
    def last(self) -> Optional[int]:
        return self.spec.last

    @property
    def size(self) -> Optional[int]:
        return self.band.size

    # -- rate access -----------------------------------------------------
    def band_rates(self, hi: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bd, bu, bz) arrays for indices lo..hi; uniform over spec kinds."""
        return self.band.rates(hi, lo)

    def _rate(self, which: str, i: int) -> float:
        rule = getattr(self.band, which)
        return float(np.asarray(rule)[i]) if self.is_finite else float(rule(i))

    def bd(self, i: int) -> float:
        return self._rate("down", i)

    def bu(self, i: int) -> float:
        return self._rate("up", i)

    def bz(self, i: int) -> float:
        return self._rate("tozero", i)

    def bw(self, i: int) -> float:
        return self.bz(i) + self.bd(i) + self.bu(i)

    # -- entries ----------------------------------------------------------
    def stencil(self, hi: int, lo: int = 0):
        """Rows lo..hi of B as arrays (col0, sub, dia, sup): row i's entries
        in columns 0, i - 1, i and i + 1.  Coinciding columns (row 0's
        diagonal, row 1's subdiagonal) are merged into col0 and hold 0 in the
        other array.  hi < lo gives empty arrays."""
        if hi < lo:
            return tuple(np.zeros(0) for _ in range(4))
        bd, bu, bz = self.band_rates(hi, lo)
        col0, sub, dia, sup = bz.copy(), bd.copy(), -(bz + bd + bu), bu.copy()
        if lo == 0:
            col0[0], sub[0], dia[0] = -bd[0] - bu[0], 0.0, 0.0
        if lo <= 1 <= hi:
            col0[1 - lo], sub[1 - lo] = bd[1 - lo] + bz[1 - lo], 0.0
        return col0, sub, dia, sup

    def entry(self, i: int, j: int) -> float:
        """The (i, j) entry.  Pure: equal arguments give identical values."""
        if i < 0 or j < 0:
            raise OutOfRange(f"negative index ({i}, {j})")
        if self.is_finite and (i > self.last or j > self.last):
            raise OutOfRange(f"index ({i}, {j}) beyond final index {self.last}")
        col0, sub, dia, sup = (float(a[0]) for a in self.stencil(i, i))
        # col0 comes last: it wins where row i's columns coincide
        return {i - 1: sub, i + 1: sup, i: dia, 0: col0}.get(j, 0.0)

    def to_dense(self, n: Optional[int] = None) -> np.ndarray:
        """Leading n x n block as a dense array (full matrix if finite)."""
        if n is None:
            if not self.is_finite:
                raise InfiniteExtent("n required for infinite extent")
            n = self.last + 1
        return _place(np.zeros((n, n)), *self.stencil(n - 1))


def _place(out: np.ndarray, col0, sub, dia, sup) -> np.ndarray:
    """Write a stencil into the zero n x n array ``out``; column 0 goes last,
    so it holds row 0's (0, 0), and no row n - 1 superdiagonal is written."""
    r = np.arange(len(out))
    out[r, r] = dia
    out[r[2:], r[1:-1]] = sub[2:]
    out[r[:-1], r[1:]] = sup[:-1]
    out[:, :1] = col0[:, None]  # a slice, which n = 0 also has
    return out


def validate(spec) -> StructuredMatrix:
    """Check the structural conditions and return an entry-addressable matrix.

    Raises NonPositiveB0d, NonFiniteRate, NegativeRate, ZeroRowWeight or
    BadFinalRow.  For infinite extent a deterministic probe of the leading
    indices is checked here and the same conditions are re-checked lazily
    whenever more of the sequence is realized.
    """
    if isinstance(spec, HomogeneousSpec):
        _check_triple(spec.bd, spec.bu, spec.bz, index=1)
        if spec.bd <= 0:
            raise NonPositiveB0d(f"bd = {spec.bd} must be > 0")
        if spec.truncation not in ("special", "generic"):
            raise ValidationError(f"unknown truncation mode {spec.truncation!r}")
        if spec.truncation == "special" and spec.is_finite:
            # the mode only matters for finite extent; infinite specs ignore it
            if spec.bu <= 0:
                raise ValidationError("special truncation needs bu > 0")
            if spec.last < 1:
                raise ValidationError("special truncation needs at least 2 rows")
        m = StructuredMatrix(spec)
        m.validated = True
        return m

    if not isinstance(spec, BandSpec):
        raise ValidationError(f"cannot validate object of type {type(spec).__name__}")

    probe_hi = spec.last if spec.is_finite else 64
    bd, bu, bz = spec.rates(probe_hi)
    if bd[0] <= 0:
        raise NonPositiveB0d(f"bd[0] = {bd[0]} must be > 0")
    _check_rates(bd, bu, bz)
    if spec.is_finite:
        tail = bu[spec.last]
        if tail != 0.0:
            raise BadFinalRow(
                f"bu[{spec.last}] = {tail} nonzero; final row must sum to zero")
    m = StructuredMatrix(spec)
    m.validated = True
    return m


def _check_rates(bd, bu, bz, first: int = 0) -> None:
    """Rates must be finite and nonnegative, row weights positive from index 1 on.

    The arrays hold indices first, first + 1, ...; errors name the true
    index.
    """
    _check_nonnegative(bd, bu, bz, first)
    bw = bd + bu + bz
    skip = 1 if first == 0 else 0  # row 0 has no row-weight rule
    bad = np.flatnonzero(bw[skip:] <= 0)
    if bad.size:
        k = int(bad[0]) + skip
        raise ZeroRowWeight(f"bw[{k + first}] = {bw[k]} must be > 0")


def _check_nonnegative(bd, bu, bz, first: int = 0) -> None:
    """Rates must be finite and nonnegative (no row-weight rule); the arrays
    hold indices first, first + 1, ..."""
    for name, arr in (("bd", bd), ("bu", bu), ("bz", bz)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            k = int(bad[0])
            raise NonFiniteRate(f"{name}[{k + first}] = {arr[k]} is not finite")
        bad = np.flatnonzero(arr < 0)
        if bad.size:
            k = int(bad[0])
            raise NegativeRate(f"{name}[{k + first}] = {arr[k]} is negative")


def decompose(m: StructuredMatrix):
    """Split a finite matrix as B = u delta - W with W tridiagonal.

    The convention keeps all first-column irregularity in u: the band of W is
    the negated band of B (so u[i] = bz[i] for i >= 2 and u[0] = u[1] = 0).
    Entries are produced by exact negation, so recomposing u*delta - W gives
    back B bit-for-bit.
    """
    if not m.is_finite:
        raise InfiniteExtent("decomposition defined for finite matrices only")
    n = m.last + 1
    col0, sub, dia, sup = m.stencil(n - 1)
    u = np.zeros(n)
    u[2:] = col0[2:]
    z = u * 0.0  # u[i]*delta[j] off column 0, with its sign of zero
    W = _place(np.zeros((n, n)), u - col0, z - sub, z - dia, z - sup)
    delta = np.zeros(n)
    delta[0] = 1.0
    return W, u, delta


def _check_triple(bd, bu, bz, index):
    for name, v in (("bd", bd), ("bu", bu), ("bz", bz)):
        if not np.isfinite(v):
            raise NonFiniteRate(f"{name} = {v} is not finite")
        if v < 0:
            raise NegativeRate(f"{name} = {v} is negative")
    if bz + bd + bu <= 0:
        raise ZeroRowWeight(f"bw = {bz + bd + bu} must be > 0 (row {index})")


# ---------------------------------------------------------------------------
# spec documents (the on-disk schema consumed by the CLI)
# ---------------------------------------------------------------------------

def from_dict(doc: dict):
    """Build a BandSpec or HomogeneousSpec from a spec document.

    Schema (JSON):
      finite explicit   {"extent": "finite", "l": 2,
                         "bd": [...], "bu": [...], "bz": [...]}
      homogeneous       {"extent": "finite"|"infinite", "l": 9,
                         "homogeneous": {"bd": 2, "bu": 1, "bz": 1},
                         "truncation": "special"|"generic"}
      head + hom tail   {"extent": "infinite",
                         "head": {"bd": [...], "bu": [...], "bz": [...]},
                         "tail": {"bd": 2, "bu": 1, "bz": 1}}
      polynomial rates  {"extent": "infinite",
                         "rates": {"kind": "polynomial",
                                   "bd": [c0, c1, ...], "bu": [...], "bz": [...]}}
    Polynomial coefficients are in ascending powers of the index i.
    """
    extent = doc.get("extent")
    if extent not in ("finite", "infinite"):
        raise ValidationError(f"extent must be 'finite' or 'infinite', got {extent!r}")
    finite = extent == "finite"

    if "homogeneous" in doc:
        h = doc["homogeneous"]
        last = None
        if finite:
            if "l" not in doc:
                raise ValidationError("finite homogeneous spec needs field 'l'")
            last = int(doc["l"])
        return HomogeneousSpec(
            bd=float(h["bd"]), bu=float(h["bu"]), bz=float(h["bz"]),
            last=last, truncation=doc.get("truncation", "special" if finite else "generic"),
        )

    if finite:
        for key in ("bd", "bu", "bz"):
            if key not in doc:
                raise ValidationError(f"finite spec needs array {key!r}")
        bd, bu, bz = doc["bd"], doc["bu"], doc["bz"]
        if "l" in doc and int(doc["l"]) != len(bd) - 1:
            raise ValidationError(
                f"field 'l' = {doc['l']} does not match array length {len(bd)}")
        return BandSpec.finite(bd, bu, bz)

    if "head" in doc or "tail" in doc:
        head = doc.get("head", {"bd": [], "bu": [], "bz": []})
        tail = doc["tail"]
        k = len(head["bd"])
        if len(head["bu"]) != k or len(head["bz"]) != k:
            raise ValidationError("head arrays bd, bu, bz must have equal length")
        return BandSpec.infinite(*(_HeadTail(head[key], tail[key]) for key in ("bd", "bu", "bz")),
                                 tail_start=k)

    if "rates" in doc:
        r = doc["rates"]
        if r.get("kind") != "polynomial":
            raise ValidationError(f"unknown rate rule {r.get('kind')!r}")

        def poly(coeffs):
            cs = [float(c) for c in coeffs]
            return lambda i: sum(c * i**p for p, c in enumerate(cs))

        return BandSpec.infinite(poly(r["bd"]), poly(r["bu"]), poly(r["bz"]))

    raise ValidationError("infinite spec needs 'homogeneous', 'head'/'tail' or 'rates'")


def generator_from_dict(doc: dict) -> BandSpec:
    """Read a conservative generator Q (zero row sums) in band+column shape.

    Same schema as ``from_dict`` but ``bd[0]`` must be 0 so that row 0 of Q
    sums to zero.  Returned as a BandSpec carrying Q's rates verbatim; it is
    not itself a valid B matrix until an application shifts bd[0].
    """
    spec = from_dict(doc)
    if isinstance(spec, HomogeneousSpec):
        raise ValidationError("generator specs must use explicit rate arrays")
    if spec.is_finite and float(np.asarray(spec.down)[0]) != 0.0:
        raise ValidationError("generator rows must sum to zero: bd[0] must be 0")
    return spec
