"""Model data types: kernel matrix instances and sparse cluster-size distributions.

A model instance is the pair (A, p): a symmetric nonnegative m x m matrix A
defining the bilinear merge kernel K(k, l) = k . A l on integer composition
vectors, and a probability vector p of initial monomer masses per component.
Cluster-size distributions are sparse maps from compositions to masses.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import SpecValidationError

# A composition is an immutable vector of per-component monomer counts.
Composition = tuple[int, ...]

P_SUM_EXACT_TOL = 1e-12   # |sum(p) - 1| below this: accepted verbatim
P_SUM_RENORM_TOL = 1e-6   # below this: renormalized with a warning; above: rejected
MASS_FLOOR = 1e-300       # ODE snapshot entries below this read 0.0
FORMS = ("reduced", "full")  # ODE loss term: frozen p, or the windowed mass vector


def as_composition(n: Iterable[int], m: int | None = None) -> Composition:
    """A tuple of ints, each entry read by _whole_number and >= 0, optionally of length m;
    SpecValidationError for anything else (a bool, text, None, nan, inf, a fraction,
    a bare number).  Integral floats and numpy integers are read as ints."""
    try:
        comp = tuple(_whole_number("composition entry", v) for v in n)
    except TypeError:
        raise SpecValidationError(f"a composition must be a sequence of integers, got {n!r}") from None
    if min(comp, default=0) < 0:
        raise SpecValidationError(f"composition entries must be >= 0, got {comp}")
    if m is not None and len(comp) != m:
        raise SpecValidationError(f"composition has {len(comp)} components, expected {m}")
    return comp


def composition_size(n: Iterable[int]) -> int:
    """Total monomer count |n| of a composition, as read by as_composition."""
    return sum(as_composition(n))


def _whole_number(name: str, value) -> int:
    """value as an int when it is an int, a numpy integer or an integral float
    (1e5 is taken as 100000); SpecValidationError for anything else."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):  # a string, None, nan or inf
        whole = None
    if isinstance(value, (bool, np.bool_)) or whole is None or whole != value:
        raise SpecValidationError(f"{name} must be an integer, got {value!r}")
    return whole


def _count(name: str, value) -> int:
    """The one check of a size or a count (n_max, replicates, threads, max_iter):
    a whole number >= 1, as for _whole_number."""
    whole = _whole_number(name, value)
    if whole < 1:
        raise SpecValidationError(f"{name} must be >= 1, got {value!r}")
    return whole


def _root_type(m: int, root) -> int:
    """The one check of a root type (progeny_pmf, the Monte Carlo samplers): an int or
    a numpy integer, not a bool, in [0, m); SpecValidationError for anything else."""
    if isinstance(root, bool) or not isinstance(root, (int, np.integer)) or not 0 <= root < m:
        raise SpecValidationError(f"root must be a type index in [0, {m}), got {root!r}")
    return int(root)


def _real(name: str, value) -> float:
    """value as a float when it is a real number other than a bool (numpy scalars
    included); SpecValidationError for anything else, a string or None included."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise SpecValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _reals(name: str, values) -> np.ndarray:
    """The one check of a real vector or matrix (A and p of a model, a simplex point,
    a fixed-point x): a new float array; SpecValidationError for a ragged shape or an
    entry that is text, a bool or no number.  A float array is taken without a scan."""
    try:
        out = np.array(values, dtype=float)
        # the float conversion reads the text "2" as 2.0 and true as 1.0, so look at each
        # entry as given, now that the shape is known to be rectangular
        odd = [] if isinstance(values, np.ndarray) and values.dtype == float else [
            e for e in np.array(values, dtype=object).flat if isinstance(e, (str, bytes, bool, np.bool_))]
    except (TypeError, ValueError, OverflowError) as e:
        raise SpecValidationError(f"{name} must be numeric ({e})") from None
    if odd:
        raise SpecValidationError(f"{name} must be numeric, not text or booleans: {odd[0]!r}")
    return out


def _time(name: str, value, positive: bool = False) -> float:
    """The one check of a time, a time step or a stopping tolerance, for every entry
    point that takes one: a finite real number >= 0, or > 0 when positive."""
    t = _real(name, value)
    if not math.isfinite(t) or t < 0.0 or (positive and t == 0.0):
        raise SpecValidationError(
            f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value!r}")
    return t


def compositions_up_to(m: int, n_max: int) -> tuple[Composition, ...]:
    """All compositions with 1 <= |n| <= n_max, in graded lexicographic order."""
    m = _whole_number("m", m)  # checked before the cache, where True would find 1
    if m < 1:
        raise SpecValidationError("need m >= 1")
    return _compositions(m, _count("n_max", n_max))


@lru_cache(maxsize=32)
def _compositions(m: int, n_max: int) -> tuple[Composition, ...]:
    def parts(total: int, k: int) -> Iterator[Composition]:
        if k == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in parts(total - first, k - 1):
                yield (first, *rest)

    return tuple(c for total in range(1, n_max + 1) for c in parts(total, m))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable model instance.

    An asymmetric A is symmetrized to A/2 + A^T/2 at construction (flagged), p is
    renormalized when its sum is within 1e-6 of one (flagged, warned).
    Arrays are stored read-only; instances hash by identity.
    """

    m: int
    A: np.ndarray
    p: np.ndarray
    symmetrized: bool = field(init=False, default=False)
    renormalized: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        m = _whole_number("m", self.m)
        A, p = _reals("A", self.A), _reals("p", self.p)
        if m < 1:
            raise SpecValidationError("m must be >= 1")
        if A.shape != (m, m):
            raise SpecValidationError(f"A must be {m}x{m}, got shape {A.shape}")
        if p.shape != (m,):
            raise SpecValidationError(f"p must have length {m}, got shape {p.shape}")
        was_asym = not np.array_equal(A, A.T)
        with np.errstate(invalid="ignore"):  # inf - inf, in a kernel rejected just below
            sym = 0.5 * A + 0.5 * A.T if was_asym else A  # halves first: finite stays finite
        if not np.all(np.isfinite(sym)) or not np.all(np.isfinite(p)):
            raise SpecValidationError("A and p must be finite")
        if np.any(A < 0.0):
            raise SpecValidationError("A must be entrywise nonnegative")
        if np.any(p < 0.0):
            raise SpecValidationError("p must be entrywise nonnegative")
        if np.all(sym == 0.0):
            raise SpecValidationError("A must have at least one positive entry")

        s = float(p.sum())
        renorm = False
        if abs(s - 1.0) > P_SUM_EXACT_TOL:
            if abs(s - 1.0) > P_SUM_RENORM_TOL:
                raise SpecValidationError(f"p must sum to 1 within {P_SUM_RENORM_TOL}, got {s!r}")
            warnings.warn(f"p summed to {s!r}; renormalizing", stacklevel=2)
            p = p / s
            renorm = True

        sym.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "A", sym)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "symmetrized", was_asym)
        object.__setattr__(self, "renormalized", renorm)

    @property
    def support(self) -> tuple[int, ...]:
        """Component indices with p_i > 0."""
        return tuple(int(i) for i in np.flatnonzero(self.p > 0.0))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "A": self.A.tolist(), "p": self.p.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        if not isinstance(d, dict):
            raise SpecValidationError(f"spec JSON must be an object, got {type(d).__name__}")
        try:
            return cls(m=d["m"], A=d["A"], p=d["p"])
        except KeyError as e:
            raise SpecValidationError(f"spec JSON missing key {e}") from e

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "ModelSpec":
        """The spec in a JSON file; SpecValidationError if it is not valid UTF-8 JSON
        or nests deeper than the parser's recursion limit."""
        with open(path, encoding="utf-8") as f:
            try:
                data = json.load(f)
            except (ValueError, RecursionError) as e:  # malformed, not UTF-8, or nested too deep
                raise SpecValidationError(f"{path} is not valid JSON: {e}") from None
        return cls.from_json_dict(data)

    def spec_hash(self) -> str:
        """sha256 of the canonical JSON form, for run manifests."""
        import hashlib  # loads OpenSSL, which only manifests need

        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class ValidationReport:
    m: int
    symmetrized: bool
    renormalized: bool
    zero_p: list[int]
    irreducible: bool
    blocks: list[list[int]]
    messages: list[str]


def validate(spec: ModelSpec) -> ValidationReport:
    """Report structural facts about an already-constructed instance.

    Hard failures (negative entries, bad normalization, zero kernel) are
    raised by the ModelSpec constructor; this never rejects reducibility,
    it only flags it.
    """
    support = list(spec.support)
    zero_p = [i for i in range(spec.m) if i not in support]
    blocks = _support_blocks(spec.A, support)
    irreducible = len(blocks) <= 1
    messages = []
    if spec.symmetrized:
        messages.append("A was symmetrized to (A + A^T)/2")
    if spec.renormalized:
        messages.append("p was renormalized to sum to 1")
    if zero_p:
        messages.append(f"components with p_i = 0: {zero_p} (never populated)")
    if not irreducible:
        messages.append(
            f"support graph of A splits into blocks {blocks}; "
            "each block gels at its own critical time"
        )
    return ValidationReport(
        m=spec.m,
        symmetrized=spec.symmetrized,
        renormalized=spec.renormalized,
        zero_p=zero_p,
        irreducible=irreducible,
        blocks=blocks,
        messages=messages,
    )


def _support_blocks(A: np.ndarray, support: list[int]) -> list[list[int]]:
    """Connected components of the A > 0 graph restricted to the support."""
    remaining = set(support)
    blocks: list[list[int]] = []
    while remaining:
        seed = min(remaining)
        seen = {seed}
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in remaining - seen:
                if A[i, j] > 0.0:
                    seen.add(j)
                    stack.append(j)
        blocks.append(sorted(seen))
        remaining -= seen
    return blocks


def kernel(spec: ModelSpec, k: Iterable[int], l: Iterable[int]) -> float:
    """Merge rate K(k, l) = k . A l for two compositions."""
    ka = np.asarray(as_composition(k, spec.m), dtype=float)
    la = np.asarray(as_composition(l, spec.m), dtype=float)
    return float(ka @ spec.A @ la)


@lru_cache(maxsize=32)
def _window_index(m: int, n_max: int) -> dict[Composition, int]:
    return {c: row for row, c in enumerate(compositions_up_to(m, n_max))}


@lru_cache(maxsize=32)
def _window_array(m: int, n_max: int) -> np.ndarray:
    """compositions_up_to(m, n_max) as a read-only (cells, m) int array."""
    out = np.array(compositions_up_to(m, n_max), dtype=np.int64)
    out.flags.writeable = False
    return out


class _ArrayValues(ValuesView):
    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping.array.tolist())


class _ArrayItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[Composition, float]]:
        return zip(self._mapping._keys, self._mapping.array.tolist())


def scatter_window(m: int, n_max: int, entries: Mapping[Composition, float]) -> np.ndarray:
    """A sparse mapping's values in window order, 0.0 elsewhere; a key outside raises."""
    index = _window_index(m, n_max)
    out = np.zeros(len(index))
    for n, w in entries.items():
        row = index.get(n)
        if row is None:
            raise SpecValidationError(f"composition {n} outside window n_max={n_max}")
        out[row] = w
    return out


class WindowMasses(Mapping):
    """Read-only values of every composition with 1 <= |n| <= n_max.

    The one container of a whole-window result (exact, ODE snapshot, ODE rate):
    `array` holds the values in compositions_up_to order, and the keys and their
    index are shared per window shape, so a window costs 8 bytes per cell.
    """

    def __init__(self, m: int, n_max: int, values: np.ndarray):
        self.m, self.n_max = m, n_max
        self._keys = compositions_up_to(m, n_max)
        self._index = _window_index(m, n_max)
        if values.shape != (len(self._keys),):
            raise SpecValidationError(f"need {len(self._keys)} window values, got shape {values.shape}")
        values.flags.writeable = False  # the window takes the array over
        self.array = values

    def __getitem__(self, n: Composition) -> float:
        return float(self.array[self._index[n]])

    def __iter__(self) -> Iterator[Composition]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    # views that read the array in one pass instead of one lookup per key
    def values(self) -> ValuesView:
        return _ArrayValues(self)

    def items(self) -> ItemsView:
        return _ArrayItems(self)


def _entry(m: int, n, w) -> tuple[Composition, float]:
    """One entry of a sparse distribution: a composition of m entries with |n| >= 1, and
    a mass read by _real that is finite and >= 0; SpecValidationError for anything else."""
    comp = as_composition(n, m)
    if sum(comp) < 1:
        raise SpecValidationError("distribution entries need |n| >= 1")
    mass = _real(f"mass of {comp}", w)
    if not 0.0 <= mass < math.inf:
        raise SpecValidationError(f"mass of {comp} must be finite and >= 0, got {w!r}")
    return comp, mass


@dataclass
class SizeDistribution:
    """Sparse cluster-size distribution at a fixed time.

    entries maps compositions (|n| >= 1) to nonnegative masses w_n: a dict,
    or a WindowMasses when the distribution covers a whole window.
    """

    t: float
    m: int
    entries: Mapping[Composition, float]

    def __post_init__(self) -> None:
        if isinstance(self.entries, WindowMasses):
            if self.entries.m != self.m:
                raise SpecValidationError(f"window has m={self.entries.m}, expected {self.m}")
            return
        self.entries = dict(_entry(self.m, n, w) for n, w in self.entries.items())

    @classmethod
    def monodisperse(cls, spec: ModelSpec) -> "SizeDistribution":
        """Initial condition: w at the unit vector e_i equals p_i."""
        entries: dict[Composition, float] = {}
        for i in spec.support:
            e = [0] * spec.m
            e[i] = 1
            entries[tuple(e)] = float(spec.p[i])
        return cls(t=0.0, m=spec.m, entries=entries)

    @classmethod
    def from_csv(cls, path: str, t: float = 0.0) -> "SizeDistribution":
        """The distribution in a CSV as write_distribution_csv writes it; SpecValidationError
        naming the path and the line for a missing header or a malformed row."""
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            m = len(header) - 1
            if m < 1 or header != [*(f"n_{i+1}" for i in range(m)), "w"]:
                raise SpecValidationError(f"{path}, line 1: need the header n_1,...,n_m,w, got {header!r}")
            entries = {}
            for row in reader:
                try:  # the cells are text: each count must read as an int, the mass as a float
                    if len(row) != m + 1:
                        raise SpecValidationError(f"need {m + 1} cells, got {len(row)}")
                    n, w = _entry(m, [int(v) for v in row[:-1]], float(row[-1]))
                except ValueError as e:  # SpecValidationError included
                    raise SpecValidationError(f"{path}, line {reader.line_num}: {e}") from None
                entries[n] = w
        return cls(t=t, m=m, entries=entries)


def write_distribution_csv(path: str, m: int, rows: Iterable[tuple[Composition, float]],
                           value_headers: tuple[str, ...] = ("w",)) -> None:
    """CSV with header n_1,...,n_m,<values>; floats at 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([f"n_{i+1}" for i in range(m)] + list(value_headers))
        for n, w in rows:
            vals = w if isinstance(w, tuple) else (w,)
            writer.writerow([*n, *(f"{v:.17g}" for v in vals)])


def mass_vector(dist: SizeDistribution) -> np.ndarray:
    """Per-component mass sum_n n * w_n, summed one entry after another in entry order."""
    entries = dist.entries
    if not entries:
        return np.zeros(dist.m)
    comps = np.array(list(entries), dtype=np.int64).reshape(len(entries), dist.m)
    w = np.fromiter(entries.values(), dtype=float, count=len(entries))
    return np.cumsum(comps * w[:, None], axis=0)[-1]  # cumsum adds sequentially, unlike sum
