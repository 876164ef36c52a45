from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from multicoag import (
    McConfig,
    ModelSpec,
    SpecValidationError,
    compositions_up_to,
    estimate_pmf,
    gelation_time,
    progeny_pmf,
    sample_progeny_batch,
    solve,
    solve_fixed_point,
)
from multicoag import branching_mc
from multicoag.branching_mc import BLOCK_SIZE

from conftest import traced_peak


def test_seed_determinism(bip_spec):
    cfg = McConfig(replicates=5_000, population_cap=10_000, seed=42)
    a = sample_progeny_batch(bip_spec, 0.9, None, cfg)
    b = sample_progeny_batch(bip_spec, 0.9, None, cfg)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    other = sample_progeny_batch(bip_spec, 0.9, None,
                                 McConfig(replicates=5_000, population_cap=10_000, seed=43))
    assert not np.array_equal(a[0], other[0])


def test_worker_count_does_not_change_stream(bip_spec):
    cfg = McConfig(replicates=20_000, population_cap=5_000, seed=11)
    a = sample_progeny_batch(bip_spec, 0.8, None, cfg, threads=1)
    b = sample_progeny_batch(bip_spec, 0.8, None, cfg, threads=4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_zero_time_gives_bare_root(m3_spec):
    for root in range(3):
        counts, censored = sample_progeny_batch(m3_spec, 0.0, root, McConfig(replicates=1, seed=1))
        expect = [1 if i == root else 0 for i in range(3)]
        assert counts.tolist() == [expect]
        assert not censored[0]


def test_root_type_always_counted(bip_spec):
    cfg = McConfig(replicates=2_000, population_cap=10_000, seed=3)
    counts, censored = sample_progeny_batch(bip_spec, 1.2, 0, cfg)
    assert np.all(counts[~censored, 0] >= 1)


def test_invalid_root_rejected(bip_spec):
    with pytest.raises(SpecValidationError):
        sample_progeny_batch(bip_spec, 0.5, 7, McConfig(replicates=1))
    with pytest.raises(SpecValidationError):
        sample_progeny_batch(bip_spec, -0.5, 0, McConfig(replicates=1))


@pytest.mark.parametrize("root", [1.5, 1.0, True, "foo", "rnd", -1, "m"], ids=str)
def test_root_must_be_random_or_a_type_index(two_type_spec, root):
    # a float or bool root once ran as type int(root); "m" is the first index past the types;
    # a mistyped "random" once read as if only a type index were allowed
    root = two_type_spec.m if root == "m" else root
    cfg = McConfig(replicates=1)
    for call in (lambda: sample_progeny_batch(two_type_spec, 0.3, root, cfg),
                 lambda: estimate_pmf(two_type_spec, 0.3, root, cfg, n_max=5)):
        with pytest.raises(SpecValidationError,
                           match=r"^root must be None, 'random' or a type index in \[0, 2\), got "):
            call()


@pytest.mark.parametrize("root", [0, "random", None], ids=str)
def test_valid_roots_still_sample(two_type_spec, root):
    assert sample_progeny_batch(two_type_spec, 0.3, root, McConfig(replicates=1))[0].sum() >= 1


def test_config_validation():
    with pytest.raises(SpecValidationError):
        McConfig(replicates=0)
    with pytest.raises(SpecValidationError):
        McConfig(replicates=10, population_cap=0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", True), ("seed", 2.5), ("seed", "3"), ("seed", None),
    ("replicates", True), ("replicates", 2.5), ("replicates", float("nan")),
    # a nan cap would pass a `< 1` check and switch censoring off: never sample with one
    ("population_cap", float("nan")), ("population_cap", 2.5), ("population_cap", float("inf")),
], ids=str)
def test_config_takes_only_whole_numbers(field, value):
    with pytest.raises(SpecValidationError, match=field):
        McConfig(**{field: value})


def test_config_takes_integral_floats_as_ints():
    cfg = McConfig(replicates=10.0, population_cap=1e5, seed=np.int64(3))
    assert (cfg.replicates, cfg.population_cap, cfg.seed) == (10, 100_000, 3)
    assert all(type(v) is int for v in (cfg.replicates, cfg.population_cap, cfg.seed))


def test_supercritical_censoring_matches_survival(m1_spec):
    # at t = 1.5 the extinction probability solves xi = exp(1.5 (xi - 1))
    xi = float(solve_fixed_point(m1_spec, 1.5, [0.0]).g[0])
    survival = 1.0 - xi
    cfg = McConfig(replicates=100_000, population_cap=100_000, seed=0)
    _, censored = sample_progeny_batch(m1_spec, 1.5, 0, cfg)
    rate = float(censored.mean())
    se = math.sqrt(survival * (1.0 - survival) / cfg.replicates)
    assert abs(rate - survival) <= 3.0 * se


def test_subcritical_censoring_negligible(bip_spec):
    cfg = McConfig(replicates=10_000, population_cap=100_000, seed=2)
    est = estimate_pmf(bip_spec, 0.8 * 2.0, None, cfg, n_max=5)
    assert est.censoring_rate < 1e-4


def test_chi_square_consistency(mc_million, m1_spec):
    # cells 1..10 pooled with the tail, against analytic probabilities
    probs = [progeny_pmf(m1_spec, 0.5, 0, (n,)) for n in range(1, 11)]
    n_unc = mc_million.n_uncensored
    observed = np.array([mc_million.estimate((n,))[0] * n_unc for n in range(1, 11)])
    tail_obs = n_unc - observed.sum()
    expected = np.array(probs) * n_unc
    tail_exp = (1.0 - sum(probs)) * n_unc
    stat = float((((observed - expected) ** 2) / expected).sum()
                 + (tail_obs - tail_exp) ** 2 / tail_exp)
    assert stat < stats.chi2.ppf(0.999, df=10)


def test_estimate_pmf_cell_example(mc_million, m1_spec):
    p3 = progeny_pmf(m1_spec, 0.5, 0, (3,))
    assert p3 == pytest.approx(math.exp(-1.5) * 1.5 ** 2 / 6.0, rel=1e-13)
    freq, se = mc_million.estimate((3,))
    assert abs(freq - p3) <= 3.0 * math.sqrt(p3 * (1 - p3) / mc_million.n_uncensored)
    assert se > 0.0


def test_estimate_pmf_structural_zero(bip_spec):
    cfg = McConfig(replicates=20_000, population_cap=10_000, seed=9)
    est = estimate_pmf(bip_spec, 1.0, 0, cfg, n_max=8)
    assert est.estimate((2, 0)) == (0.0, 0.0)


def test_estimate_pmf_single_replicate(m1_spec):
    est = estimate_pmf(m1_spec, 0.3, 0, McConfig(replicates=1, seed=4), n_max=50)
    assert est.n_uncensored == 1
    [cell] = np.flatnonzero(est.pmf.array)
    assert est.pmf.array[cell] == 1.0
    assert not est.se.array.any()


def test_mixture_identity_random_roots(bip_spec):
    # with the root drawn by p, P(progeny = n) = |n| w_n
    cfg = McConfig(replicates=40_000, population_cap=10_000, seed=3)
    est = estimate_pmf(bip_spec, 0.8, None, cfg, n_max=6)
    for n in ((1, 0), (0, 1), (1, 1), (2, 1), (2, 2)):
        prob = sum(n) * solve(bip_spec, 0.8, n)
        freq, _ = est.estimate(n)
        se = math.sqrt(prob * (1 - prob) / est.n_uncensored)
        assert abs(freq - prob) <= 4.0 * se


# sha256 of counts.tobytes() + censored.tobytes() from sample_progeny_batch
# with 2 * BLOCK_SIZE + 100 replicates at seed 7, keyed by (instance, t / T_c,
# root, population cap).  Recorded from the all-rows sampler that drew every
# row each generation; the live-row sampler must reproduce it bit for bit.
# numpy 2.x's Poisson sampler defines these streams: if a numpy release
# changes it, this test fails first.
STREAM_DIGESTS = {
    ("demo", 0.5, "random", 100000):
        "2c8e49be7e2b11ca7aa5520afac766c24c655733129f1b7a2d73e930bde3c07f",
    ("demo", 0.5, "random", 1000):
        "2c8e49be7e2b11ca7aa5520afac766c24c655733129f1b7a2d73e930bde3c07f",
    ("demo", 0.5, 1, 100000):
        "665edb43b6ecdc562262236b9722f6d54930995ca04fdc97cc5ba7e9d2ae7e61",
    ("demo", 0.5, 1, 1000):
        "665edb43b6ecdc562262236b9722f6d54930995ca04fdc97cc5ba7e9d2ae7e61",
    ("demo", 0.95, "random", 100000):
        "d14f9ab0ef6715993e5e396eea93d3905f856986db4ffd783a071d75bbda2dc0",
    ("demo", 0.95, "random", 1000):
        "2d0460dadabe4b1f715f0acceba9e50564ad64891237a2f55a1876d0c228f0cf",
    ("demo", 0.95, 1, 100000):
        "6420080f1aff986a4ff93e412b28f4e7877a8ce1b866ac7abd7a0b82f9c29444",
    ("demo", 0.95, 1, 1000):
        "56ebcd43d341ac44c8a8877a7b218e13ae42f619155a91dc050159c32b39a116",
    ("demo", 1.1, "random", 100000):
        "9a359a093f2a47f89d10aea7b0e7df92bb8153d2bd5321ba36bbcf404cbd76fd",
    ("demo", 1.1, "random", 1000):
        "fec1fa1269ece97a489d6d21d8c0c0124806a9d10596e55f629c452544a4e3fe",
    ("demo", 1.1, 1, 100000):
        "055f8c45869e71d3a1b3d30388185d2e1579b3502e220b7fb80b3f315634fd30",
    ("demo", 1.1, 1, 1000):
        "7252005280570cfa6f92a39793b2c22a7e43ea6fc96b73618b29bc0bf50aeb16",
    ("m3", 0.5, "random", 100000):
        "e1ac8254483229f9d72b1b85fba3cdce5557dcc3995ab990aff14b31e4beb332",
    ("m3", 0.5, "random", 1000):
        "e1ac8254483229f9d72b1b85fba3cdce5557dcc3995ab990aff14b31e4beb332",
    ("m3", 0.5, 1, 100000):
        "04669438dd281fc7a01cf7c6faf35cbf5dd28286c470e82d3cd9d5e070e78591",
    ("m3", 0.5, 1, 1000):
        "04669438dd281fc7a01cf7c6faf35cbf5dd28286c470e82d3cd9d5e070e78591",
    ("m3", 0.95, "random", 100000):
        "e995cd795ec82db09380d8df871981ca5899ed85cb583231e00c7a5a0c2760b4",
    ("m3", 0.95, "random", 1000):
        "e1488417c3fe73dafeb88c8cc0dace8349a260a5ad7e017492e7244f6273ce17",
    ("m3", 0.95, 1, 100000):
        "e03ac682a919b8684af27dcb124ae7ccbee17d5d1082151b731e645c1ec60032",
    ("m3", 0.95, 1, 1000):
        "cacb3b7a3ace562d469be83bf843d61cf18d71c730cb25ac81c183cd3875e9a0",
    ("m3", 1.1, "random", 100000):
        "42352d3d39ae1f405a117a472ff8f0da9e49661f9b32998ea46b4ac0bc75bcde",
    ("m3", 1.1, "random", 1000):
        "bc13ddb4fda5e47416299755cf83d4407a54bde529d22a0c78d2cfcdeb1bda2a",
    ("m3", 1.1, 1, 100000):
        "006bb05fc8180e3d5ea10bd5e7964dd673a0bfc67b371579ab384d8815d1c238",
    ("m3", 1.1, 1, 1000):
        "b920b1148ddbb424dfa4f495b32e043084f76a3c084be51c6ab2dd1513db4c82",
}


@pytest.mark.parametrize("key", sorted(STREAM_DIGESTS, key=str), ids=str)
def test_stream_digest_pinned(key, request):
    label, frac, root, cap = key
    spec = request.getfixturevalue({"demo": "asym2_spec", "m3": "m3_spec"}[label])
    t = frac * gelation_time(spec).T_c
    cfg = McConfig(replicates=2 * BLOCK_SIZE + 100, population_cap=cap, seed=7)
    for threads in (1, 2):
        counts, censored = sample_progeny_batch(spec, t, root, cfg, threads=threads)
        digest = hashlib.sha256(counts.tobytes() + censored.tobytes()).hexdigest()
        assert digest == STREAM_DIGESTS[key], f"threads={threads}"


def _simulate_block(spec, t, root, cap, rng, counts, censored):
    """Fill one block of replicates into zeroed counts (size x m) and censored (size).

    `live` holds the indices of the rows still growing, in block order, and
    `z` their current generation.  A row leaves when it has no children or
    its total passes the cap (censored).
    """
    size, m = counts.shape
    rate = t * spec.A * spec.p[None, :]  # children means per parent: rate[k, l]
    if root == branching_mc.RANDOM_ROOT:
        roots = rng.choice(m, size=size, p=spec.p)
    else:
        roots = np.full(size, int(root))
    counts[np.arange(size), roots] = 1
    live = np.arange(size)
    z = counts.copy()
    total = np.ones(size, dtype=np.int64)  # progeny so far of each live row
    while live.size:
        children = rng.poisson(z @ rate)
        born = children.sum(axis=1)
        counts[live] += children
        total += born
        over = total > cap
        censored[live[over]] = True
        keep = (born > 0) & ~over
        live, z, total = live[keep], children[keep], total[keep]


def per_block_streams(spec, t, root, config):
    """The sampler one block at a time, each block alone on its (seed, b) stream."""
    n = config.replicates
    counts, censored = np.zeros((n, spec.m), dtype=np.int64), np.zeros(n, dtype=bool)
    for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.seed, b]))
        rows = slice(b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)
        _simulate_block(spec, t, root, config.population_cap, rng, counts[rows], censored[rows])
    return counts, censored


@pytest.mark.parametrize("cap", [100_000, 1_000])
@pytest.mark.parametrize("root", [branching_mc.RANDOM_ROOT, 1])
@pytest.mark.parametrize("frac", [0.5, 0.95, 1.1])
def test_lockstep_groups_reproduce_per_block_streams(frac, root, cap, m3_spec):
    # 11 blocks, the last of 100 rows: groups of 4, 4 and 3 blocks, so every
    # group boundary and a partial last block are crossed
    assert branching_mc.GROUP_BLOCKS == 4
    t = frac * gelation_time(m3_spec).T_c
    cfg = McConfig(replicates=10 * BLOCK_SIZE + 100, population_cap=cap, seed=13)
    want_counts, want_censored = per_block_streams(m3_spec, t, root, cfg)
    for threads in (1, 2, 3):
        counts, censored = sample_progeny_batch(m3_spec, t, root, cfg, threads=threads)
        assert counts.tobytes() == want_counts.tobytes(), f"threads={threads}"
        assert censored.tobytes() == want_censored.tobytes(), f"threads={threads}"


def test_single_replicate_is_row_zero_of_block_zero(asym2_spec):
    t = 0.95 * gelation_time(asym2_spec).T_c
    for seed in range(20):
        cfg = McConfig(replicates=1, population_cap=1_000, seed=seed)
        want_counts, want_censored = per_block_streams(asym2_spec, t, branching_mc.RANDOM_ROOT, cfg)
        counts, censored = sample_progeny_batch(asym2_spec, t, None, cfg)
        assert counts.tolist() == want_counts.tolist()
        assert censored.tolist() == want_censored.tolist()


def unique_rows_pmf(counts: np.ndarray, censored: np.ndarray,
                    n_max: int) -> dict[tuple[int, ...], tuple[float, float]]:
    """The pmf tabulated through np.unique(axis=0), as estimate_pmf once did."""
    keep = ~censored
    n_unc = int(keep.sum())
    pmf = {}
    if n_unc > 0:
        kept = counts[keep]
        kept = kept[kept.sum(axis=1) <= n_max]
        uniq, freq = np.unique(kept, axis=0, return_counts=True)
        for row, c in zip(uniq, freq):
            est = c / n_unc
            se = float(np.sqrt(est * (1.0 - est) / n_unc))
            pmf[tuple(int(v) for v in row)] = (float(est), se)
    return pmf


def _count_arrays():
    # rows with |n| = 0 occur here but never in a sample, whose rows hold their root;
    # the test gives them one
    rng = np.random.default_rng(5)
    yield "m1 n_max=200", rng.geometric(0.02, size=(5_000, 1)) - 1, rng.random(5_000) < 0.1, 200
    for m in (2, 3, 5):
        counts = rng.poisson(1.5, size=(3_000, m))
        yield f"m{m}", counts, rng.random(3_000) < 0.2, 6
    yield "one replicate", np.array([[2, 1]]), np.array([False]), 5
    yield "all censored", rng.poisson(2.0, size=(50, 2)), np.ones(50, dtype=bool), 5
    yield "none within n_max", rng.poisson(2.0, size=(50, 2)) + 4, np.zeros(50, dtype=bool), 5
    # entries near 2**8 and 2**16; an m=2 window of |n| <= 2 * 65536 would hold 8.6e9 cells,
    # so the m=2 windows stop at 600 and drop the rows past it
    for top in (255, 256, 65535, 65536):
        for m in (1, 2):
            counts = rng.choice([0, 1, 2, top - 1, top], size=(600, m))
            yield f"m{m} max {top}", counts, rng.random(600) < 0.1, top if m == 1 else min(2 * top, 600)
    # three groups, the last one partial, with every row of the last one past n_max
    group = branching_mc.GROUP_BLOCKS * BLOCK_SIZE
    counts = np.concatenate([rng.integers(0, 201, size=(group, 2)),
                             rng.integers(0, 301, size=(group, 2)),
                             rng.integers(400, 500, size=(1_000, 2))])
    yield "groups of mixed widths", counts, rng.random(len(counts)) < 0.1, 600


def replay(counts: np.ndarray, censored: np.ndarray):
    """A _simulate_blocks that gives each group its rows of fixed arrays."""
    def fill(spec, t, root, cap, seed, blocks, size):
        rows = slice(blocks.start * BLOCK_SIZE, blocks.start * BLOCK_SIZE + size)
        return counts[rows].copy(), censored[rows].copy()
    return fill


@pytest.mark.parametrize("case", list(_count_arrays()), ids=lambda c: c[0])
def test_estimate_pmf_matches_unique_rows_oracle(case, monkeypatch):
    # the sampler is replaced below the group runner, so the per-group
    # reduction and the tabulation run as they do on sampled rows
    _, counts, censored, n_max = case
    counts = counts.astype(np.int64)
    counts[counts.sum(axis=1) == 0, 0] = 1  # a sampled row holds at least its root
    m = counts.shape[1]
    spec = ModelSpec(m=m, A=np.ones((m, m)), p=np.full(m, 1.0 / m))
    monkeypatch.setattr(branching_mc, "_simulate_blocks", replay(counts, censored))
    want = unique_rows_pmf(counts, censored, n_max)
    cells = compositions_up_to(m, n_max)
    want_freq, want_se = (np.array([want.get(c, (0.0, 0.0))[k] for c in cells]) for k in (0, 1))
    for threads in (1, 2):
        est = estimate_pmf(spec, 0.5, 0, McConfig(replicates=len(counts)), n_max=n_max,
                           threads=threads)
        assert est.pmf.array.tobytes() == want_freq.tobytes(), f"threads={threads}"
        assert est.se.array.tobytes() == want_se.tobytes(), f"threads={threads}"
        assert est.n_uncensored == int((~censored).sum())
        assert est.censoring_rate == float(censored.mean())
    assert [est.estimate(c) for c in cells] == [want.get(c, (0.0, 0.0)) for c in cells]
    assert all(type(v) is int for n in est.pmf for v in n)


def test_estimate_pmf_refuses_a_window_it_cannot_hold(monkeypatch):
    # a window of |n| <= 10**20 at m = 3 has 1.7e59 cells: refused before any draw
    def sample(*args):
        raise AssertionError("sampled before the window was checked")

    monkeypatch.setattr(branching_mc, "_simulate_blocks", sample)
    spec = ModelSpec(m=3, A=np.ones((3, 3)), p=np.full(3, 1.0 / 3))
    with pytest.raises(MemoryError, match=r"^the window m=3, n_max=10{20} "):
        estimate_pmf(spec, 0.5, 0, McConfig(replicates=2_000), n_max=10**20)


def test_estimate_pmf_never_holds_the_count_matrix(m3_spec):
    # 16 groups of subcritical m3 replicates, whose full int64 count matrix
    # alone would take 262,144 x 3 x 8 bytes = 6 MiB
    cfg = McConfig(replicates=16 * branching_mc.GROUP_BLOCKS * BLOCK_SIZE, seed=5)
    t = 0.5 * gelation_time(m3_spec).T_c
    estimate_pmf(m3_spec, t, None, McConfig(replicates=1), n_max=30)  # first-call imports
    runs = []
    peak = traced_peak(lambda: runs.append(estimate_pmf(m3_spec, t, None, cfg, n_max=30, threads=1)))
    assert runs[0].n_uncensored > 0.99 * cfg.replicates
    assert peak < cfg.replicates * m3_spec.m * 8 / 2**20, f"traced peak {peak:.2f} MiB"


def test_estimate_pmf_traced_peak(m3_spec):
    # 100,000 subcritical m3 replicates, 7 groups, n_max 12, seed 5.  With
    # int64 lockstep buffers one group peaked at 1.90 MiB, the estimate at
    # 2.15 MiB on 1 thread and 3.1-4.0 MiB on 2.  With int32 buffers they read
    # 1.03, 1.63 and 2.0-2.3 MiB.  The 1-thread readings are deterministic;
    # their limits sit 46% and 16% above them, below the int64 readings.  A
    # second thread adds at most one more group in flight, so the 2-thread
    # peak, whose size depends on how the groups overlap, is bounded by the
    # 1-thread peak plus one group's (2.66 MiB), and so below 1.9 + 1.5 MiB.
    group = branching_mc.GROUP_BLOCKS * BLOCK_SIZE
    t = 0.5 * gelation_time(m3_spec).T_c
    estimate_pmf(m3_spec, t, None, McConfig(replicates=2 * group), n_max=12, threads=2)  # imports

    def run(replicates, threads):
        return traced_peak(lambda: estimate_pmf(m3_spec, t, None, McConfig(replicates, seed=5),
                                                n_max=12, threads=threads))

    one_group, one_thread = run(group, 1), run(100_000, 1)
    assert one_group < 1.5, f"one group's traced peak {one_group:.2f} MiB"
    assert one_thread < 1.9, f"traced peak on 1 thread {one_thread:.2f} MiB"
    two_threads = max(run(100_000, 2) for _ in range(3))
    assert two_threads < one_thread + one_group, (
        f"traced peak on 2 threads {two_threads:.2f} MiB, on 1 {one_thread:.2f} MiB")


def test_int64_buffers_give_the_int32_result(m3_spec):
    # no subcritical tree nears a cap of 10**5, so the wide and the narrow
    # lockstep buffers must draw the same streams and tabulate the same pmf
    t = 0.5 * gelation_time(m3_spec).T_c
    rate = branching_mc._rate(m3_spec, t)
    assert branching_mc._count_type(rate, 10**5) is np.int32
    assert branching_mc._count_type(rate, 2**31) is np.int64
    r = float(rate.sum(axis=1).max())
    assert branching_mc._count_type(rate, math.floor(2**28 / (1 + r)) - 1) is np.int32
    assert branching_mc._count_type(rate, math.ceil(2**28 / (1 + r))) is np.int64
    narrow, wide = (McConfig(replicates=2 * branching_mc.GROUP_BLOCKS * BLOCK_SIZE + 100,
                             population_cap=cap, seed=17) for cap in (10**5, 2**31))
    a = estimate_pmf(m3_spec, t, None, narrow, n_max=60)
    b = estimate_pmf(m3_spec, t, None, wide, n_max=60)
    assert list(a.pmf.items()) == list(b.pmf.items())
    assert (a.censoring_rate, a.n_uncensored) == (b.censoring_rate, b.n_uncensored) == (0.0, 32_868)
    counts_a, censored_a = sample_progeny_batch(m3_spec, t, None, narrow)
    counts_b, censored_b = sample_progeny_batch(m3_spec, t, None, wide)
    assert counts_a.dtype == counts_b.dtype == np.int64
    assert counts_a.tobytes() == counts_b.tobytes()
    assert not censored_a.any() and not censored_b.any()


@pytest.mark.parametrize("cell", [(1, 2, 3), (1,), (-1, 2), (1.5, 0), (0, 0), (4, 3), ("1", 0),
                                  ("x", 0), (None, 0), (math.nan, 0), (math.inf, 0), 5],
                         ids=str)
def test_estimate_rejects_a_malformed_cell(asym2_spec, cell):
    # the first seven once read (0.0, 0.0), as if the cell had been observed
    # zero times; the others raised a bare ValueError, TypeError or OverflowError
    est = estimate_pmf(asym2_spec, 0.5, None, McConfig(replicates=5_000, seed=1), n_max=6)
    with pytest.raises(SpecValidationError):
        est.estimate(cell)
    assert est.pmf.get(cell) is None  # the pmf itself is a mapping, which just misses


def test_estimate_reads_any_integer_sequence(asym2_spec):
    est = estimate_pmf(asym2_spec, 0.5, None, McConfig(replicates=5_000, seed=1), n_max=6)
    assert est.estimate([1, 0]) == est.estimate((np.int64(1), 0)) == (est.pmf[1, 0], est.se[1, 0])
    assert est.estimate((6, 0)) == (est.pmf[6, 0], est.se[6, 0])
