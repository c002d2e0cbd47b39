"""Matrix model: band + dense-first-column structured matrices.

A matrix in this family is tridiagonal except for its first column.  Row 0 is
``(-bd[0]-bu[0], bu[0], 0, ...)``; row i >= 1 carries ``bd[i]`` on the
subdiagonal, ``-bw[i]`` on the diagonal, ``bu[i]`` on the superdiagonal and
``bz[i]`` in column 0 (for row 1 the subdiagonal position *is* column 0, so
the entry there is ``bd[1] + bz[1]``).  The weights satisfy
``bw[i] = bz[i] + bd[i] + bu[i] > 0`` and ``bd[0] > 0``; every row i >= 1 sums
to zero and row 0 sums to ``-bd[0]``.  Finite matrices additionally treat
``bu[last]`` as zero so the final row also sums to zero.
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
    ``"special"`` uses the boundary overrides that keep the closed-form fill
    exact, ``"generic"`` keeps the plain zero-row-sum boundary and defers to
    the general algorithm.
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
        """The same matrix as a plain BandSpec (generic truncation shape)."""
        if self.is_finite:
            n = self.last + 1
            up = np.full(n, self.bu)
            up[-1] = 0.0
            return BandSpec.finite(np.full(n, self.bd), up, np.full(n, self.bz))
        return BandSpec.infinite(_HeadTail([], self.bd), _HeadTail([], self.bu),
                                 _HeadTail([], self.bz), tail_start=0)


class StructuredMatrix:
    """A validated matrix with an entry accessor.

    Immutable after validation; safe for concurrent readers.
    """

    def __init__(self, spec):
        self.spec = spec
        self.validated = False
        self._special = isinstance(spec, HomogeneousSpec) and spec.truncation == "special" \
            and spec.is_finite
        self._gamma_boundary = None
        if self._special:
            from .homogeneous import hom_constants  # local import: avoid cycle at module load
            self._gamma_boundary = hom_constants(spec).gamma

    # -- extent ----------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.spec.is_finite

    @property
    def last(self) -> Optional[int]:
        return self.spec.last

    @property
    def size(self) -> Optional[int]:
        return self.spec.size if isinstance(self.spec, BandSpec) else (
            None if self.spec.last is None else self.spec.last + 1)

    # -- rate access -----------------------------------------------------
    def band_rates(self, hi: int, lo: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bd, bu, bz) arrays for indices lo..hi; uniform over spec kinds."""
        spec = self.spec
        if isinstance(spec, BandSpec):
            return spec.rates(hi, lo)
        if spec.is_finite and hi > spec.last:
            raise OutOfRange(f"index {hi} beyond final index {spec.last}")
        n = hi + 1 - lo
        bd = np.full(n, spec.bd)
        bu = np.full(n, spec.bu)
        bz = np.full(n, spec.bz)
        if spec.is_finite and hi == spec.last:
            bu[-1] = 0.0
        return bd, bu, bz

    def _rate(self, which: str, i: int) -> float:
        spec = self.spec
        if isinstance(spec, HomogeneousSpec):
            if which == "up" and spec.is_finite and i == spec.last:
                return 0.0
            return getattr(spec, {"down": "bd", "up": "bu", "tozero": "bz"}[which])
        if spec.is_finite:
            return float(np.asarray(getattr(spec, which))[i])
        return float(getattr(spec, which)(i))

    def bd(self, i: int) -> float:
        return self._rate("down", i)

    def bu(self, i: int) -> float:
        return self._rate("up", i)

    def bz(self, i: int) -> float:
        return self._rate("tozero", i)

    def bw(self, i: int) -> float:
        return self.bz(i) + self.bd(i) + self.bu(i)

    # -- entries ----------------------------------------------------------
    def entry(self, i: int, j: int) -> float:
        """The (i, j) entry.  Pure: equal arguments give identical values."""
        if i < 0 or j < 0:
            raise OutOfRange(f"negative index ({i}, {j})")
        if self.is_finite and (i > self.last or j > self.last):
            raise OutOfRange(f"index ({i}, {j}) beyond final index {self.last}")
        if self._special and i == self.last:
            return self._special_last_row(j)
        if i == 0:
            if j == 0:
                return -self.bd(0) - self.bu(0)
            if j == 1:
                return self.bu(0)
            return 0.0
        if j == 0:
            if i == 1:
                return self.bd(1) + self.bz(1)
            return self.bz(i)
        if j == i:
            return -self.bw(i)
        if j == i - 1:
            return self.bd(i)
        if j == i + 1:
            return self.bu(i)
        return 0.0

    def _special_last_row(self, j: int) -> float:
        # last row of the specially truncated homogeneous matrix:
        # (bu/gamma - bd, 0, ..., 0, bd, -bu/gamma)
        spec = self.spec
        g = self._gamma_boundary
        i = self.last
        if j == i:
            return -spec.bu / g
        if j == i - 1 and j != 0:
            return spec.bd
        if j == 0:
            v = spec.bu / g - spec.bd
            if i == 1:
                v += spec.bd  # subdiagonal position coincides with column 0
            return v
        return 0.0

    def to_dense(self, n: Optional[int] = None) -> np.ndarray:
        """Leading n x n block as a dense array (full matrix if finite)."""
        if n is None:
            if not self.is_finite:
                raise InfiniteExtent("n required for infinite extent")
            n = self.last + 1
        out = np.zeros((n, n))
        for i in range(n):
            lo = max(0, i - 1)
            cols = {0, lo, i, min(n - 1, i + 1)}
            for j in cols:
                out[i, j] = self.entry(i, j)
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
    u = np.zeros(n)
    for i in range(2, n):
        u[i] = m.entry(i, 0)
    W = np.zeros((n, n))
    for i in range(n):
        for j in {0, max(0, i - 1), i, min(n - 1, i + 1)}:
            W[i, j] = u[i] * (1.0 if j == 0 else 0.0) - m.entry(i, j)
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
