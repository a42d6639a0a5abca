import math
import sys
import tracemalloc

import numpy as np
import pytest

from bootperc import engine
from bootperc.engine import (
    CLASS_ALMOST,
    CLASS_CENSORED,
    CLASS_STOPPED,
    ImplicitSource,
    SeedSpec,
    TraceOptions,
    martingale_series,
    run_direct,
    run_process,
    write_trace_csv,
)
from bootperc.graph import from_edges, sample_gnp, sample_gnp_with
from bootperc.rng import make_generator
from bootperc.thresholds import (
    DegenerateRegime,
    ProcessParams,
    binom_tail_geq,
    critical_pair,
    stage_predictions,
)


def run_direct_per_edge(g, seed_set, r):
    """The per-edge fixed-point sweep that the vectorised ``run_direct``
    replaced: one frontier vertex and one edge at a time.  The reference."""
    seeds = sorted(set(int(v) for v in seed_set))
    infected = np.zeros(g.n + 1, dtype=bool)
    infected[seeds] = True
    counts = np.zeros(g.n + 1, dtype=np.int64)
    frontier = seeds
    generations = 0
    while frontier:
        crossed = []
        for u in frontier:
            for v in g.neighbors(u).tolist():
                if not infected[v]:
                    counts[v] += 1
                    if counts[v] == r:
                        crossed.append(v)
        joins = [v for v in crossed if not infected[v]]
        if not joins:
            break
        generations += 1
        infected[joins] = True
        frontier = joins
    return frozenset(np.flatnonzero(infected).tolist()), generations


def seeds_first(g, seeds):
    """g renumbered so that the seeds are 1..k, the seeds and the other
    vertices each keeping their order, and the old id of each new id
    (entry 0 is 0).  The engines start from {1..k}; this carries any
    seed set there."""
    is_seed = np.zeros(g.n + 1, dtype=bool)
    is_seed[np.asarray(seeds, dtype=np.int64)] = True
    old = np.concatenate([[0], np.flatnonzero(is_seed), np.flatnonzero(~is_seed[1:]) + 1])
    new = np.empty_like(old)
    new[old] = np.arange(g.n + 1)
    us = np.repeat(np.arange(g.n + 1), np.diff(g.indptr))
    upper = us < g.indices
    return from_edges(g.n, np.stack([new[us[upper]], new[g.indices[upper]]], axis=1)), old


def sampled_cases(seed, count):
    """(graph, r, seeds) over r in {1, 2, 3}, with prefix, scattered and
    empty seed sets."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(20, 400))
        r = case % 3 + 1
        p = float(rng.choice([0.004, 0.01, 0.02, 0.05])) * r
        g = sample_gnp(n, p, seed=int(rng.integers(0, 2**60)))
        k = int(rng.integers(0, n // 4 + 1)) if case % 7 else 0
        if case % 2:
            seeds = rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
        else:
            seeds = list(range(1, k + 1))
        yield g, r, seeds


class TestRunDirect:
    def test_matches_per_edge_reference(self):
        fixed_points = 0
        for g, r, seeds in sampled_cases(13, 120):
            got = run_direct(g, seeds, r)
            assert got == run_direct_per_edge(g, seeds, r)
            # the final set is a fixed point: 0 generations from it
            final = sorted(got[0])
            assert run_direct(g, final, r) == (got[0], 0)
            assert run_direct_per_edge(g, final, r) == (got[0], 0)
            fixed_points += got[1] == 0
        assert 0 < fixed_points < 120

    def test_empty_seed(self):
        g = sample_gnp(30, 0.2, seed=1)
        final, gens = run_direct(g, [], 2)
        assert final == frozenset()
        assert gens == 0

    def test_full_seed(self):
        g = sample_gnp(30, 0.2, seed=1)
        final, gens = run_direct(g, range(1, 31), 2)
        assert final == frozenset(range(1, 31))
        assert gens in (0, 1)

    def test_star_graph(self):
        # K_{1,5}: centre 1 with leaves 2..6; two infected leaves infect
        # only the centre (each remaining leaf has one neighbour)
        g = from_edges(6, [(1, v) for v in range(2, 7)])
        final, gens = run_direct(g, [2, 3], 2)
        assert final == frozenset({1, 2, 3})
        assert gens == 1

    def test_chain_of_triangles_generations(self):
        # vertices 1,2 infect 3 (two common neighbours), then 3,2 infect 4, ...
        edges = [(i, i + 1) for i in range(1, 6)] + [(i, i + 2) for i in range(1, 5)]
        g = from_edges(6, edges)
        final, gens = run_direct(g, [1, 2], 2)
        assert final == frozenset(range(1, 7))
        assert gens == 4


def chain_of_triangles(n):
    """Edges i~i+1 and i~i+2 on 1..n."""
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)])


class TestPushPullClosure:
    """The direction-optimising closure against the per-edge sweep, on
    inputs that push for many generations, pull at the end, pull in the
    first generation and hinge on one hub."""

    @staticmethod
    def closure_and_pulls(monkeypatch, g, seeds, r):
        pulls = []

        def counting_row_entries(graph, vs):
            # a pull reads the rows of the uninfected vertices, `rest` in _close
            if vs is sys._getframe(1).f_locals.get("rest"):
                pulls.append(len(vs))
            return row_entries(graph, vs)

        row_entries = engine._row_entries
        monkeypatch.setattr(engine, "_row_entries", counting_row_entries)
        got = run_direct(g, seeds, r)
        monkeypatch.setattr(engine, "_row_entries", row_entries)
        assert got == run_direct_per_edge(g, seeds, r)
        return got, pulls

    def test_chain_of_triangles(self, monkeypatch):
        n = 2000
        g = chain_of_triangles(n)
        # one join per generation: pushes until the last two, whose rows
        # outweigh the uninfected remainder
        (final, gens), pulls = self.closure_and_pulls(monkeypatch, g, [1, 2], 2)
        assert final == frozenset(range(1, n + 1)) and gens == n - 2
        assert pulls == [1, 0]
        # from both ends and from a stretch in the middle
        for seeds in ([1, 2, n - 1, n], list(range(900, 1100))):
            (final, gens), pulls = self.closure_and_pulls(monkeypatch, g, seeds, 2)
            assert final == frozenset(range(1, n + 1)) and pulls

    def test_pull_in_first_generation(self, monkeypatch):
        # the odd vertices are seeds, so every even vertex but n joins at
        # once, and their rows outweigh the one uninfected row left, n's;
        # n (neighbours n - 2 and n - 1) joins by that pull
        n = 2000
        g = chain_of_triangles(n)
        seeds = list(range(1, n + 1, 2))
        (final, gens), pulls = self.closure_and_pulls(monkeypatch, g, seeds, 2)
        assert final == frozenset(range(1, n + 1)) and gens == 2
        assert pulls == [1, 0]

    def test_star(self, monkeypatch):
        # K_{1,m}: two infected leaves infect the hub, whose row holds every
        # leaf; at r = 1 the hub then infects all the leaves
        m = 500
        g = from_edges(m + 1, [(1, v) for v in range(2, m + 2)])
        (final, gens), _ = self.closure_and_pulls(monkeypatch, g, [2, 3], 2)
        assert final == frozenset({1, 2, 3}) and gens == 1
        (final, gens), pulls = self.closure_and_pulls(monkeypatch, g, [2], 1)
        assert final == frozenset(range(1, m + 2)) and gens == 2
        assert pulls  # the hub's row outweighs the leaves left
        (final, gens), _ = self.closure_and_pulls(monkeypatch, g, [1], 1)
        assert final == frozenset(range(1, m + 2)) and gens == 1


class TestRunProcess:
    def test_no_seeds(self):
        params = ProcessParams(n=50, p=0.05, r=2)
        trace = run_process(ImplicitSource(params, seed=3), SeedSpec.prefix(0), 2)
        assert trace.T == 0
        assert trace.final_size == 0
        assert trace.classification == CLASS_STOPPED
        assert list(trace.infected_sizes) == [0]

    def test_all_seeds(self):
        params = ProcessParams(n=40, p=0.05, r=2)
        trace = run_process(ImplicitSource(params, seed=3), SeedSpec.prefix(40), 2)
        assert trace.T == 40
        assert trace.final_size == 40
        assert trace.classification == CLASS_ALMOST
        # dissecting the whole graph reveals each pair exactly once
        assert trace.bernoulli_draws == 40 * 39 // 2

    def test_explicit_equals_direct(self):
        rng = np.random.default_rng(11)
        for case in range(60):
            n = int(rng.integers(20, 400))
            p = float(rng.choice([0.02, 0.05, 0.1]))
            r = int(rng.choice([2, 3]))
            g = sample_gnp(n, p, seed=int(rng.integers(0, 2**60)))
            k = int(rng.integers(0, n // 2 + 1))
            seeds = rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
            oracle, _ = run_direct(g, seeds, r)
            relabelled, old = seeds_first(g, seeds)
            trace = run_process(relabelled, SeedSpec.prefix(k), r)
            assert frozenset(old[trace.final_infected].tolist()) == oracle

    def test_seed_monotonicity(self):
        rng = np.random.default_rng(12)
        for case in range(30):
            n = int(rng.integers(30, 300))
            g = sample_gnp(n, 0.05, seed=int(rng.integers(0, 2**60)))
            small = set(rng.choice(np.arange(1, n + 1), size=5, replace=False).tolist())
            extra = set(rng.choice(np.arange(1, n + 1), size=8, replace=False).tolist())
            big = small | extra
            f_small, _ = run_direct(g, small, 2)
            f_big, _ = run_direct(g, big, 2)
            assert f_small <= f_big

    def test_trace_invariants(self):
        params = ProcessParams(n=3000, p=2e-3, r=2)
        for trial in range(10):
            src = ImplicitSource(params, rng=make_generator(17, trial, 0))
            trace = run_process(src, SeedSpec.prefix(25), 2)
            sizes = trace.infected_sizes
            assert sizes[0] == 25
            assert np.all(np.diff(sizes) >= 0)
            assert sizes[trace.T] == trace.T
            steps = np.arange(trace.T)
            assert np.all(sizes[:-1] > steps)
            assert trace.final_size <= params.n

    def test_determinism(self):
        params = ProcessParams(n=800, p=3e-3, r=2)
        t1 = run_process(ImplicitSource(params, rng=make_generator(5, 0, 0)), SeedSpec.prefix(12), 2)
        t2 = run_process(ImplicitSource(params, rng=make_generator(5, 0, 0)), SeedSpec.prefix(12), 2)
        assert np.array_equal(t1.infected_sizes, t2.infected_sizes)
        assert t1.final_size == t2.final_size
        assert t1.T == t2.T

    def test_max_steps_censoring(self):
        params = ProcessParams(n=2000, p=2e-3, r=2)
        src = ImplicitSource(params, rng=make_generator(5, 1, 0))
        trace = run_process(src, SeedSpec.prefix(50), 2, TraceOptions(max_steps=30))
        assert trace.T is None
        assert trace.classification == CLASS_CENSORED
        assert len(trace.infected_sizes) == 31

    def test_size_horizon(self):
        params = ProcessParams(n=500, p=5e-3, r=2)
        src = ImplicitSource(params, rng=make_generator(5, 2, 0))
        trace = run_process(src, SeedSpec.prefix(20), 2, TraceOptions(size_horizon=10))
        assert len(trace.infected_sizes) == 11
        assert trace.T is not None  # run completed despite short recording

    def test_examined_order(self):
        g = from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])
        # 1 and 2 reveal 3 twice, 3 reveals 4 once, and the run stops
        trace = run_process(g, SeedSpec.prefix(2), 2)
        assert trace.a == 2 and trace.T == 3
        assert trace.examined.tolist() == [1, 2, 3]
        capped = run_process(g, SeedSpec.prefix(2), 2, TraceOptions(max_steps=2))
        assert capped.examined.tolist() == [1, 2] and capped.T is None
        implicit = run_process(ImplicitSource(ProcessParams(n=6, p=0.5, r=2), seed=1), SeedSpec.prefix(2), 2)
        assert implicit.examined is None

    def test_threshold_checked(self):
        for bad in (0.0, -1.0, 5.0, 1.0000001, float("nan")):
            with pytest.raises(ValueError, match=r"percolation_threshold must lie in \(0,1\]"):
                TraceOptions(percolation_threshold=bad)
        assert TraceOptions(percolation_threshold=1.0).percolation_threshold == 1.0

    @pytest.mark.parametrize("field", ["max_steps", "size_horizon"])
    def test_negative_step_options_rejected(self, field):
        # both engines refuse a negative cap or horizon alike, and read 0
        # the same way: |A(0)| is the only size recorded
        params = ProcessParams(n=200, p=0.02, r=2)
        for source in (ImplicitSource(params, seed=3), sample_gnp(200, 0.02, seed=3)):
            with pytest.raises(ValueError, match=f"{field} must be None or >= 0, got -1"):
                run_process(source, SeedSpec.prefix(5), 2, TraceOptions(**{field: -1}))
            zero = run_process(source, SeedSpec.prefix(5), 2, TraceOptions(**{field: 0}))
            assert zero.infected_sizes.tolist() == [5]

    def test_expected_trajectory(self):
        # mean |A(t)| over trials tracks a + (n-a) pi_hat(t) within 4 SE.
        # |A(t)| - a is Bin(n - a, pi(t)), so the SE is the model's; the
        # sample SE is 0 whenever no trial has an infection by t (at t = 2,
        # pi = 1e-6 and that happens with probability about 0.21)
        params = ProcessParams(n=4000, p=1e-3, r=2)
        a, trials, cap = 40, 400, 60
        stack = []
        for trial in range(trials):
            src = ImplicitSource(params, rng=make_generator(23, trial, 0))
            tr = run_process(src, SeedSpec.prefix(a), 2, TraceOptions(max_steps=cap))
            stack.append(tr.infected_sizes[: min(len(tr.infected_sizes), cap + 1)])
        tmin = min(len(s) for s in stack) - 1
        mat = np.stack([s[: tmin + 1] for s in stack]).astype(float)
        mean = mat.mean(axis=0)
        for t in range(tmin + 1):
            pi = binom_tail_geq(t, params.p, 2)
            se = math.sqrt((params.n - a) * pi * (1.0 - pi) / trials)
            assert abs(mean[t] - (a + (params.n - a) * pi)) <= 4 * se


class TestClosureTail:
    """An uncapped explicit run past its size horizon finishes by
    closure; the full one-vertex-per-step loop is the reference.  A
    scattered seed set runs on the graph renumbered to seed it first."""

    def test_tail_matches_full_loop(self):
        rng = np.random.default_rng(14)
        tails = 0
        for g, r, seeds in sampled_cases(15, 150):
            g, seed = seeds_first(g, seeds)[0], SeedSpec.prefix(len(seeds))
            full = run_process(g, seed, r)
            T = full.T
            small = int(rng.integers(1, max(2, T // 2 + 1)))
            for horizon in (0, small, T + 3):
                got = run_process(g, seed, r, TraceOptions(size_horizon=horizon))
                assert (got.T, got.final_size, got.classification) == (
                    full.T,
                    full.final_size,
                    full.classification,
                )
                assert np.array_equal(got.final_infected, full.final_infected)
                assert np.array_equal(got.infected_sizes, full.infected_sizes[: horizon + 1])
                # the examination order covers the steps taken, up to the horizon
                assert np.array_equal(got.examined, full.examined[:horizon])
                assert got.a == full.a == len(seeds)
                tails += T > horizon
        assert tails >= 100

    def test_capped_run_still_censored(self):
        g = sample_gnp(2000, 3e-3, seed=21)
        capped = run_process(g, SeedSpec.prefix(60), 2, TraceOptions(max_steps=40))
        with_horizon = run_process(
            g, SeedSpec.prefix(60), 2, TraceOptions(max_steps=40, size_horizon=10)
        )
        assert capped.classification == with_horizon.classification == CLASS_CENSORED
        assert capped.T is None and with_horizon.T is None
        assert np.array_equal(capped.final_infected, with_horizon.final_infected)
        assert np.array_equal(with_horizon.infected_sizes, capped.infected_sizes[:11])
        assert capped.final_size > 40


class TestMartingale:
    def test_zero_at_start(self):
        params = ProcessParams(n=200, p=0.01, r=2)
        trace = run_process(ImplicitSource(params, seed=2), SeedSpec.prefix(10), 2)
        series = martingale_series(trace, params)
        assert series[0] == 0.0

    def test_exact_inversion(self):
        params = ProcessParams(n=500, p=5e-3, r=2)
        trace = run_process(ImplicitSource(params, seed=4), SeedSpec.prefix(15), 2)
        series = martingale_series(trace, params)
        a, n = trace.a, trace.n
        for t, m in enumerate(series.tolist()):
            pi = binom_tail_geq(min(t, trace.T), params.p, 2)
            reconstructed = a + m * (1.0 - pi) + (n - a) * pi
            assert reconstructed == pytest.approx(trace.infected_sizes[t], abs=1e-9)

    def test_zero_drift(self):
        # E[M(t)] = 0 for the stopped martingale: check within 4 SE.
        # p is chosen dense enough that every early step sees infections
        # across the trial set, so the empirical SE is meaningful.
        params = ProcessParams(n=4000, p=5e-3, r=2)
        trials = 500
        series_list = []
        for trial in range(trials):
            src = ImplicitSource(params, rng=make_generator(31, trial, 0))
            tr = run_process(src, SeedSpec.prefix(8), 2, TraceOptions(max_steps=16))
            series_list.append(martingale_series(tr, params))
        tmin = min(len(s) for s in series_list) - 1
        mat = np.stack([s[: tmin + 1] for s in series_list])
        mean = mat.mean(axis=0)
        se = mat.std(axis=0, ddof=1) / math.sqrt(trials)
        assert tmin >= 5
        for t in range(1, tmin + 1):
            assert abs(mean[t]) <= 4 * max(se[t], 1e-12)

    def test_matches_loop(self):
        # the per-step loop the vectorised series replaced is the reference
        def loop_series(trace, params):
            values = []
            for t, size in enumerate(trace.infected_sizes.tolist()):
                tt = t if trace.T is None else min(t, trace.T)
                pi = binom_tail_geq(tt, params.p, trace.r)
                if pi >= 1.0:
                    raise DegenerateRegime(f"pi_hat({tt}) = 1")
                values.append((size - trace.a - (trace.n - trace.a) * pi) / (1.0 - pi))
            return np.array(values)

        cases = [
            (ProcessParams(n=3000, p=2e-3, r=2), 40, None),
            (ProcessParams(n=3000, p=1e-2, r=3), 20, 15),
            (ProcessParams(n=50, p=0.999999999, r=2), 5, None),
        ]
        for params, a, cap in cases:
            trace = run_process(
                ImplicitSource(params, seed=12), SeedSpec.prefix(a), params.r,
                TraceOptions(max_steps=cap),
            )
            try:
                want = loop_series(trace, params)
            except DegenerateRegime:
                with pytest.raises(DegenerateRegime):
                    martingale_series(trace, params)
                continue
            got = martingale_series(trace, params)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_csv_export(self, tmp_path):
        params = ProcessParams(n=100, p=0.02, r=2)
        trace = run_process(ImplicitSource(params, seed=8), SeedSpec.prefix(5), 2)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, params, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,infected_size,martingale_value"
        assert len(lines) == len(trace.infected_sizes) + 1
        t0, size0, m0 = lines[1].split(",")
        assert (t0, size0) == ("0", "5")
        assert float(m0) == 0.0


class TestSeedSpec:
    def test_prefix(self):
        # both engines start from the seeds {1..a}
        path = from_edges(6, [(v, v + 1) for v in range(1, 6)])
        trace = run_process(path, SeedSpec.prefix(2), 1)
        assert trace.a == 2 and trace.infected_sizes[0] == 2
        assert trace.examined.tolist() == [1, 2, 3, 4, 5, 6] and trace.final_size == 6
        assert run_process(path, SeedSpec.prefix(0), 1).final_infected.tolist() == []
        # an implicit run takes a large prefix at n = 10^9 as a count
        big = ProcessParams(n=10**9, p=1e-7, r=2)
        trace = run_process(
            ImplicitSource(big, seed=1), SeedSpec.prefix(50_000), 2, TraceOptions(max_steps=10)
        )
        assert trace.a == 50_000 and trace.infected_sizes[0] == 50_000

    def test_validation(self):
        with pytest.raises(ValueError, match="seed count a must be >= 0, got -1"):
            SeedSpec.prefix(-1)
        # a > n is refused by both engines, with and without a cap
        params = ProcessParams(n=100, p=0.02, r=2)
        for source in (ImplicitSource(params, seed=3), sample_gnp(100, 0.02, seed=3)):
            for opts in (TraceOptions(), TraceOptions(max_steps=2)):
                with pytest.raises(ValueError, match=r"seed count a=101 outside 0\.\.100"):
                    run_process(source, SeedSpec.prefix(101), 2, opts)
            assert run_process(source, SeedSpec.prefix(100), 2).final_size == 100
        # the refused implicit runs drew nothing
        fresh = ImplicitSource(params, seed=3)
        refused = ImplicitSource(params, seed=3)
        with pytest.raises(ValueError):
            run_process(refused, SeedSpec.prefix(101), 2)
        assert refused.rng.random() == fresh.rng.random()


def two_sample_z(xs, ys) -> float:
    """Welch z statistic for the difference of two sample means."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    se = math.sqrt(xs.var(ddof=1) / len(xs) + ys.var(ddof=1) / len(ys))
    diff = xs.mean() - ys.mean()
    return 0.0 if se == 0.0 and diff == 0.0 else diff / se


# |z| bound of the walk-vs-explicit comparisons below: with about twenty
# statistics compared, a correct engine exceeds it with probability < 1e-3
Z_WALK = 4.5


class TestImplicitWalk:
    """The infection-time walk against the explicit process on sampled
    G(n,p) graphs: the same law, compared by two-sample z statistics."""

    def test_two_sample_against_explicit(self):
        params = ProcessParams(n=3000, p=2.2e-3, r=2)
        crit = critical_pair(params)
        half = round(math.sqrt(crit.ac))
        a_values = (round(crit.ac) - half, round(crit.ac) + half)  # 34, 46
        t1 = stage_predictions(params, 4.0 * math.ceil(math.sqrt(crit.ac))).t1
        runs = 400

        def stats(trace):
            sizes = trace.infected_sizes
            at_t1 = int(sizes[t1]) if len(sizes) > t1 else trace.final_size
            almost = trace.classification == CLASS_ALMOST
            return trace.T, trace.final_size, at_t1, almost

        walk = {a: [] for a in a_values}
        graph = {a: [] for a in a_values}
        for trial in range(runs):
            g = sample_gnp_with(params.n, params.p, make_generator(61, trial, 2))
            for a in a_values:
                src = ImplicitSource(params, rng=make_generator(62, trial, a))
                walk[a].append(stats(run_process(src, SeedSpec.prefix(a), 2)))
                graph[a].append(stats(run_process(g, SeedSpec.prefix(a), 2)))
        almost = {}
        for a in a_values:
            w, e = np.array(walk[a], dtype=float), np.array(graph[a], dtype=float)
            for col, name in enumerate(("T", "final size", "|A(t1)|", "P(almost)")):
                z = two_sample_z(w[:, col], e[:, col])
                assert abs(z) <= Z_WALK, f"a={a}: {name} z = {z:+.2f}"
            almost[a] = (w[:, 3].mean(), e[:, 3].mean())
        # the two points straddle the transition on both engines
        assert almost[a_values[0]][0] < 0.3 and almost[a_values[0]][1] < 0.3
        assert almost[a_values[1]][0] > 0.4 and almost[a_values[1]][1] > 0.4

    def test_counts_only(self):
        # an implicit run holds no per-vertex state: it reports neither an
        # examination order nor a final set
        params = ProcessParams(n=2000, p=3e-3, r=2)
        pre = run_process(ImplicitSource(params, seed=82), SeedSpec.prefix(40), 2)
        assert pre.infected_sizes[0] == 40 and pre.final_size >= 40
        assert pre.final_infected is None and pre.examined is None

    def test_pairs_per_run(self):
        # two runs on one source each report their own pairs
        params = ProcessParams(n=2000, p=3e-3, r=2)
        src = ImplicitSource(params, seed=83)
        for a in (40, 60):
            trace = run_process(src, SeedSpec.prefix(a), 2)
            steps = trace.T
            assert trace.bernoulli_draws == steps * params.n - steps * (steps + 1) // 2

    def test_horizon_only_sets_the_record(self):
        # every block count is drawn before any infection step, so the
        # horizon changes what is recorded, never how the run ends
        params = ProcessParams(n=50_000, p=4e-4, r=2)
        crit = critical_pair(params)
        t1 = stage_predictions(params, 4.0 * math.ceil(math.sqrt(crit.ac))).t1
        horizons = (0, 5, t1, crit.t0_int, None)
        differs = 0
        for a in (55, 70, 80, 100):
            for seed in range(8):
                for cap in (None, 150):
                    runs = [
                        run_process(
                            ImplicitSource(params, seed=seed), SeedSpec.prefix(a), 2,
                            TraceOptions(max_steps=cap, size_horizon=h),
                        )
                        for h in horizons
                    ]
                    whole = runs[-1]  # horizon None records everything
                    steps = cap if whole.T is None else whole.T
                    assert len(whole.infected_sizes) == steps + 1
                    for tr in runs[:-1]:
                        assert (tr.T, tr.final_size) == (whole.T, whole.final_size), (a, seed, cap)
                        recorded = len(tr.infected_sizes)
                        assert np.array_equal(tr.infected_sizes, whole.infected_sizes[:recorded])
                        differs += recorded != len(whole.infected_sizes)
        assert differs  # the records themselves do differ in length

    def test_billion_vertices_in_the_window(self):
        params = ProcessParams(n=10**9, p=1e-7, r=2)
        crit = critical_pair(params)
        src = ImplicitSource(params, seed=3)
        tracemalloc.start()
        try:
            trace = run_process(
                src, SeedSpec.prefix(round(crit.ac)), 2, TraceOptions(max_steps=crit.t0_int)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        steps = crit.t0_int if trace.T is None else trace.T
        assert len(trace.infected_sizes) == steps + 1
        assert trace.bernoulli_draws == steps * params.n - steps * (steps + 1) // 2
