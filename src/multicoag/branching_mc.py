"""Monte Carlo sampling of the multi-type Poisson branching process.

A type-k node spawns an independent Poisson(t * A_kl * p_l) number of
type-l children.  Only generation totals matter for total progeny, so whole
generations are drawn at once: the children of Z_g are Poisson with mean
t * (Z_g A) * p summed over parents.  Replicates are processed in fixed
blocks of 4096 with one RNG stream per block derived from (seed, block).

Blocks advance in lockstep groups of GROUP_BLOCKS (4 blocks, 16,384 rows):
each generation, every block of the group draws the children of its own
live rows from its own stream, and the rest of the step (row sums, count
update, censoring, compaction) runs once for the whole group.  Threads take
whole groups.  A block's stream never depends on its neighbours, so the
results do not depend on the thread count or on the group width.

Only live replicates draw: a generation calls the Poisson sampler on the
rows that are neither extinct nor censored, in block order.  numpy's
Poisson(0) consumes no random draws, so this yields exactly the stream of
drawing every row with the dead ones at rate 0.  A fixed-seed digest test
(tests/test_branching_mc.py) pins the streams, and so catches a numpy
release that changes its Poisson sampler.

Each group owns its buffers, in the integer type of _count_type, and hands
them to a finish callback: sample_progeny_batch copies them into its int64
result, and estimate_pmf counts them in the worker into one histogram over
the window's cells, one group at a time, and returns their censored count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .model import (Composition, ModelSpec, WindowMasses, _cells, _count, _rank, _root_type, _time,
                    _whole_number, as_composition)

BLOCK_SIZE = 4096
GROUP_BLOCKS = 4  # blocks advanced in lockstep by one call of _simulate_blocks


@dataclass(frozen=True)
class McConfig:
    replicates: int = 10_000
    population_cap: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("replicates", "population_cap"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "seed", _whole_number("seed", self.seed))
        if self.seed < 0:
            raise SpecValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class McPmfEstimate:
    """Empirical pmf over uncensored replicates, with binomial standard errors.

    pmf holds the frequency and se the SE of every composition with
    1 <= |n| <= n_max, in the window's order; a cell no replicate had reads
    0.0 in both.  The window carries m and n_max.
    """

    pmf: WindowMasses
    se: WindowMasses
    censoring_rate: float
    replicates: int
    n_uncensored: int

    def estimate(self, n: Composition) -> tuple[float, float]:
        """(frequency, SE) of cell n, (0.0, 0.0) when no replicate had it;
        SpecValidationError unless n is a composition with 1 <= |n| <= n_max."""
        n = as_composition(n, self.pmf.m)
        if not 1 <= sum(n) <= self.pmf.n_max:
            raise SpecValidationError(f"cell {n} is outside the window 1 <= |n| <= {self.pmf.n_max}")
        row = _rank(n)
        return float(self.pmf.array[row]), float(self.se.array[row])


def _resolve_root(spec: ModelSpec, root: int | None) -> int | None:
    """None (each root type drawn from p), or the root type as model._root_type reads it."""
    try:
        return None if root is None else _root_type(spec.m, root)
    except SpecValidationError:  # whose message names only the type index
        raise SpecValidationError(f"root must be None or a type index in [0, {spec.m}), "
                                  f"got {root!r}") from None


def _rate(spec: ModelSpec, t: float) -> np.ndarray:
    """Children means per parent: rate[k, l] = t A_kl p_l."""
    return t * spec.A * spec.p[None, :]


def _count_type(rate: np.ndarray, cap: int) -> type:
    """Integer type of a group's lockstep buffers: int32 when
    cap * (1 + r) < 2**28, with r the largest row sum of rate, else int64.

    A live row's total is at most cap, so its next generation has a Poisson
    mean below cap * r, and its new total reaches 2**31 only if that
    generation exceeds 8 times its mean.
    """
    return np.int32 if cap * (1.0 + float(rate.sum(axis=1).max())) < 2**28 else np.int64


def _simulate_blocks(spec: ModelSpec, t: float, root: int | None, cap: int, seed: int,
                     blocks: range, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts (size x m) and censored flags (size) of a group of consecutive blocks.

    Block b owns rows (b - blocks.start) * BLOCK_SIZE onward and the stream
    seeded by (seed, b); it draws its roots, then once per generation the
    children of its live rows.  `live` holds the indices of the rows still
    growing, in row order, so each block's live rows are one contiguous run
    of it, and `z` their current generation, overwritten by their children's
    draws once their rates are taken.  All buffers take _count_type's type.
    A row leaves when it has no children or its total passes the cap (censored).
    """
    rate = _rate(spec, t)
    dtype = _count_type(rate, cap)
    counts, censored = np.zeros((size, spec.m), dtype=dtype), np.zeros(size, dtype=bool)
    starts = np.arange(0, size, BLOCK_SIZE, dtype=np.int32)  # live's type: searchsorted casts neither
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=[seed, b])) for b in blocks]
    cuts = starts.tolist() + [size]
    for rng, a, e in zip(rngs, cuts, cuts[1:]):
        if root is None:
            counts[np.arange(a, e), rng.choice(spec.m, size=e - a, p=spec.p)] = 1
        else:
            counts[a:e, root] = 1
    live = np.arange(size, dtype=np.int32)  # a group has at most GROUP_BLOCKS * BLOCK_SIZE rows
    z = counts.copy()
    total = np.ones(size, dtype=dtype)  # progeny so far of each live row
    while live.size:
        cuts = np.searchsorted(live, starts).tolist() + [live.size]
        for rng, a, e in zip(rngs, cuts, cuts[1:]):
            if a < e:  # lambda per block slice, as a lone block would compute it
                z[a:e] = rng.poisson(z[a:e] @ rate)
        born = sum(z.T)  # as sizes in estimate_pmf: faster than sum(axis=1)
        counts[live] += z
        total += born
        over = total > cap
        censored[live[over]] = True
        keep = (born > 0) & ~over
        live, z, total = live[keep], z[keep], total[keep]
    return counts, censored


def _run_groups(spec: ModelSpec, t: float, root: int | None, config: McConfig, threads: int,
                finish) -> list:
    """finish(rows, counts, censored) of every lockstep group, in group order,
    rows being its slice of the R replicates; t, root and threads come
    checked.  Threads take whole groups, each simulated and finished in its worker."""
    n = config.replicates
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run(first: int):
        blocks = range(first, min(first + GROUP_BLOCKS, n_blocks))
        rows = slice(first * BLOCK_SIZE, min(blocks.stop * BLOCK_SIZE, n))
        return finish(rows, *_simulate_blocks(spec, t, root, config.population_cap, config.seed,
                                              blocks, rows.stop - rows.start))

    groups = range(0, n_blocks, GROUP_BLOCKS)
    if threads > 1 and len(groups) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded only where a pool starts

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, groups))
    return [run(g) for g in groups]


def sample_progeny_batch(spec: ModelSpec, t: float, root: int | None,
                         config: McConfig, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All replicates as arrays (counts: R x m, censored: R); censored rows are
    lower bounds of the total progeny by type.

    Block b always uses the stream seeded by (seed, b), so the result is a
    pure function of (spec, t, root, config) whatever the thread count or
    the group width.  Each lockstep group of GROUP_BLOCKS blocks is copied
    into its rows of the result as it finishes; threads take whole groups.
    """
    t, r, threads = _time("t", t), _resolve_root(spec, root), _count("threads", threads)
    counts = np.zeros((config.replicates, spec.m), dtype=np.int64)
    censored = np.zeros(config.replicates, dtype=bool)

    def copy(rows: slice, group_counts: np.ndarray, group_censored: np.ndarray) -> None:
        counts[rows], censored[rows] = group_counts, group_censored

    _run_groups(spec, t, r, config, threads, copy)
    return counts, censored


def estimate_pmf(spec: ModelSpec, t: float, root: int | None, config: McConfig,
                 n_max: int, threads: int = 1) -> McPmfEstimate:
    """Empirical total-progeny pmf over the window of compositions with |n| <= n_max.

    Censored replicates are excluded from the pmf and reported via the
    censoring rate (at a generous cap the censored fraction estimates the
    survival probability past the critical time).  Each group is counted
    into the window's cells in its worker as it finishes, so the R x m count
    matrix never exists; the result equals tabulating sample_progeny_batch's
    arrays.  A window too large to hold raises MemoryError before any draw.
    """
    n_max = _count("n_max", n_max)
    t, r, threads = _time("t", t), _resolve_root(spec, root), _count("threads", threads)
    hist = np.zeros(_cells(spec.m, n_max), dtype=np.int64)
    lock = threading.Lock()

    def reduce(rows: slice, counts: np.ndarray, censored: np.ndarray) -> int:
        sizes = sum(counts.T)  # adding the m columns is several times faster than sum(axis=1)
        with lock:  # one group at a time adds its counts and holds the ranking's int64 temporaries
            kept = counts[~censored & (sizes <= n_max)]
            np.add(hist, np.bincount(_rank(kept.T), minlength=len(hist)), out=hist)
        return int(np.count_nonzero(censored))

    n_censored = sum(_run_groups(spec, t, r, config, threads, reduce))
    n_unc = config.replicates - n_censored
    denom = max(n_unc, 1)  # with every replicate censored every count is 0
    freq = hist / denom
    return McPmfEstimate(
        pmf=WindowMasses(spec.m, n_max, freq),
        se=WindowMasses(spec.m, n_max, np.sqrt(freq * (1.0 - freq) / denom)),
        censoring_rate=n_censored / config.replicates,
        replicates=config.replicates,
        n_uncensored=n_unc,
    )
