import heapq
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from bootperc import stages, thresholds
from bootperc.engine import (
    ImplicitSource,
    SeedSpec,
    TraceOptions,
    run_process,
)
from bootperc.graph import count_neighbors_in, from_edges, sample_gnp, sample_gnp_with
from bootperc.montecarlo import trial_sources
from bootperc.rng import make_generator
from bootperc.stages import (
    TraceTooShort,
    bridge_and_expand,
    early_growth_check,
    giant_in_qualified,
    run_stage_pipeline,
    state_at,
)
from bootperc.thresholds import ProcessParams, rho_fixed_point, stage_predictions
from test_engine import seeds_first, two_sample_z

# pilot-calibrated supercritical point reused across the stage tests
PARAMS = ProcessParams(n=50_000, p=4e-4, r=2)
CRIT = thresholds.critical_pair(PARAMS)
ALPHA = float(4 * math.ceil(math.sqrt(CRIT.ac)))
PLAN = stage_predictions(PARAMS, ALPHA)
T1 = PLAN.t1
A_SUPER = round(CRIT.ac) + int(ALPHA)


def capped_run(trial, mode="implicit"):
    """Trial ``trial`` of master seed 101 at the supercritical point, capped
    at T1, and its stage source."""
    src, stage_src = trial_sources(PARAMS, mode, 101, trial)
    opts = TraceOptions(max_steps=T1)
    return stage_src, run_process(src, SeedSpec.prefix(A_SUPER), PARAMS.r, opts)


class TestEarlyGrowth:
    def test_everything_seeded(self):
        params = ProcessParams(n=300, p=0.01, r=2)
        src = ImplicitSource(params, seed=1)
        trace = run_process(src, SeedSpec.prefix(300), 2)
        pred = stage_predictions(params, 8.0)
        assert early_growth_check(trace, pred)
        assert trace.infected_sizes[pred.t1] - pred.t1 == 300 - pred.t1

    def test_subcritical_run_fails_event(self):
        params = ProcessParams(n=5000, p=1e-3, r=2)
        src = ImplicitSource(params, seed=2)
        trace = run_process(src, SeedSpec.prefix(5), 2)  # far below critical
        pred = stage_predictions(params, 40.0)
        assert trace.T <= pred.t1
        assert not early_growth_check(trace, pred)

    def test_too_short_recording_raises(self):
        _, trace = capped_run(0)
        # drop the recorded sizes below t1 while the run is still alive
        short = trace.__class__(
            a=trace.a,
            n=trace.n,
            r=trace.r,
            infected_sizes=trace.infected_sizes[: T1 - 5],
            T=None,
            final_size=trace.final_size,
            final_infected=trace.final_infected,
            examined=trace.examined,
            classification=trace.classification,
            bernoulli_draws=trace.bernoulli_draws,
        )
        with pytest.raises(TraceTooShort):
            early_growth_check(short, stage_predictions(PARAMS, ALPHA))

    def test_supercritical_run_passes(self):
        _, trace = capped_run(1)
        assert early_growth_check(trace, stage_predictions(PARAMS, ALPHA))
        surplus = trace.infected_sizes[T1] - T1
        assert surplus >= (1 - 2 * thresholds.binom_tail_geq(CRIT.t0_int, PARAMS.p, 2)) * ALPHA / 4

    def test_event_frequency_clears_bound(self):
        # the early-growth event should occur at least as often as
        # 1 - exp(-r alpha^2 / (8 (t0 + r alpha/3))) predicts, up to
        # Wilson slack on the empirical frequency
        from bootperc.montecarlo import wilson_interval

        pred = stage_predictions(PARAMS, ALPHA)
        runs = 200
        hits = 0
        for trial in range(runs):
            _, trace = capped_run(trial + 2000)
            hits += early_growth_check(trace, pred)
        lower_bound = 1.0 - math.exp(
            -PARAMS.r * ALPHA**2 / (8.0 * (CRIT.t0 + PARAMS.r * ALPHA / 3.0))
        )
        lo, hi = wilson_interval(hits, runs)
        assert hits / runs >= lower_bound - (hi - lo) / 2.0


@pytest.mark.parametrize("mode", ["implicit", "explicit"])
def test_stage_plan_derived_once(monkeypatch, mode):
    # every stage reads the plan it is handed; the pipeline derives none
    stage_src, trace = capped_run(5, mode)
    calls = []
    real = thresholds.stage_predictions

    def counted(params, alpha):
        calls.append(alpha)
        return real(params, alpha)

    monkeypatch.setattr(thresholds, "stage_predictions", counted)
    rep = run_stage_pipeline(stage_src, trace, PLAN)
    assert rep.early_ok and rep.size_Bhat > 0  # every stage ran
    assert rep.alpha == ALPHA and rep.t1 == T1
    assert calls == []


def test_trace_must_match_stage_source():
    # the stages read n, p and r from the run they measure; a trace of a
    # run at another n, or an implicit one at another r, is refused
    _, trace = capped_run(5)
    for params in (ProcessParams(n=10**6, p=4e-4, r=2), ProcessParams(n=50_000, p=4e-4, r=3)):
        with pytest.raises(ValueError, match="does not match its stage source"):
            run_stage_pipeline(ImplicitSource(params, seed=1), trace, PLAN)
    _, explicit_trace = capped_run(5, "explicit")
    with pytest.raises(ValueError, match="a trace at n=50000, r=2 does not match its stage source"):
        run_stage_pipeline(sample_gnp(2000, 3e-3, seed=1), explicit_trace, PLAN)


def step_loop(g, seeds, r, t):
    """The examine-one-vertex process, one vertex and one edge at a time,
    up to step t: (examined order, counters, sorted infected ids)."""
    infected = set(seeds)
    examined, done = [], set()
    counters = [0] * (g.n + 1)
    heap = sorted(infected)
    while heap and len(examined) < t:
        u = heapq.heappop(heap)
        examined.append(u)
        done.add(u)
        for v in g.neighbors(u).tolist():
            if v in done:
                continue
            counters[v] += 1
            if counters[v] == r and v not in infected:
                infected.add(v)
                heapq.heappush(heap, v)
    return examined, counters, sorted(infected)


class TestStateAt:
    """The state at step t that the explicit stages derive from a run's
    examination order, against the step loop, on fixed graphs, from runs
    capped at t, run with horizon t, and run to the end.  A scattered seed
    set runs on the graph renumbered to seed it first."""

    def test_hand_counted_fixture(self):
        g = from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])
        trace = run_process(g, SeedSpec.prefix(2), 2)
        examined, counters, infected = state_at(g, trace, 2)
        assert examined.tolist() == [1, 2]
        # neighbours of {1,2} among the unexamined: 3 has two, 4 none
        assert counters[3] == 2 and counters[4] == 0
        assert infected.tolist() == [1, 2, 3]

    def test_matches_step_loop(self):
        cases = []
        for k, (n, p, r) in enumerate([(300, 0.02, 2), (400, 0.03, 3), (600, 0.01, 2), (250, 0.05, 1)]):
            g = sample_gnp(n, p, seed=40 + k)
            scattered = np.random.default_rng(k).choice(np.arange(1, n + 1), size=12, replace=False)
            cases += [(g, 15, r), (seeds_first(g, scattered)[0], 12, r)]
        checked = 0
        for g, a, r in cases:
            T = run_process(g, SeedSpec.prefix(a), r).T
            for t in sorted({1, 2, T // 3, T // 2, T - 1, T}):
                want_examined, want_counters, want_infected = step_loop(g, range(1, a + 1), r, t)
                for opts in (TraceOptions(max_steps=t), TraceOptions(size_horizon=t), TraceOptions()):
                    trace = run_process(g, SeedSpec.prefix(a), r, opts)
                    examined, counters, infected = state_at(g, trace, t)
                    assert examined.tolist() == want_examined
                    unexamined = np.setdiff1d(np.arange(1, g.n + 1), examined)
                    assert counters[unexamined].tolist() == [want_counters[v] for v in unexamined]
                    assert infected.tolist() == want_infected
                    checked += 1
        assert checked >= 100

    def test_order_too_short(self):
        g = sample_gnp(300, 0.02, seed=40)
        trace = run_process(g, SeedSpec.prefix(15), 2, TraceOptions(max_steps=5))
        assert len(state_at(g, trace, 5)[0]) == 5
        with pytest.raises(TraceTooShort, match="t1=6"):
            state_at(g, trace, 6)
        implicit = run_process(ImplicitSource(PARAMS, seed=1), SeedSpec.prefix(A_SUPER), 2)
        with pytest.raises(TraceTooShort):
            state_at(g, implicit, 1)


def outside_mask(n, examined, witness):
    """The mask of vertex ids outside {0}, Z(t1) and W."""
    outside = np.ones(n + 1, dtype=bool)
    outside[0] = False
    outside[examined] = False
    outside[witness] = False
    return outside


def spied_pipeline(monkeypatch, graph, trace, plan):
    """run_stage_pipeline on an explicit run, and the sets its stages
    were handed and returned: Z(t1), W, B-hat, B, C, D and the mask
    outside {0}, Z(t1) and W (unchanged by the expansion stages)."""
    seen = {"Z": state_at(graph, trace, plan.t1)[0]}
    real = stages.bridge_and_expand

    def spy(graph, outside, witness, bhat, b, r, pred):
        before = outside.copy()
        bridge, c, d = real(graph, outside, witness, bhat, b, r, pred)
        assert np.array_equal(outside, before)
        seen.update(outside=outside, W=witness, Bhat=bhat, B=b, bridge=bridge, C=c, D=d)
        return bridge, c, d

    monkeypatch.setattr(stages, "bridge_and_expand", spy)
    return run_stage_pipeline(graph, trace, plan), seen


class TestQualifiedSet:
    def test_fresh_process_empty(self, monkeypatch):
        # t1 = 1 edge case: at r = 3 a vertex needs 2 neighbours among the
        # one examined vertex, so nobody qualifies and every stage is empty
        params = ProcessParams(n=100, p=0.02, r=3)
        g = sample_gnp(100, 0.02, seed=5)
        trace = run_process(g, SeedSpec.prefix(10), 3, TraceOptions(max_steps=1))
        plan = replace(stage_predictions(params, 8.0), t1=1)
        rep, seen = spied_pipeline(monkeypatch, g, trace, plan)
        assert len(seen["Bhat"]) == 0 and rep.size_Bhat == 0
        assert (rep.size_B, rep.size_C, rep.size_D) == (0, 0, 0)

    def test_matches_graph_oracle(self, monkeypatch):
        # explicit fixture: B-hat is every vertex outside Z(t1) and the
        # three-vertex witness set with a neighbour in Z(t1), by
        # count_neighbors_in
        g = sample_gnp(600, 0.02, seed=33)
        trace = run_process(g, SeedSpec.prefix(40), 2, TraceOptions(max_steps=25))
        plan = replace(PLAN, t1=25, witness_target=3.0)
        examined, _, infected = state_at(g, trace, 25)
        z = examined.tolist()
        counts = count_neighbors_in(g, z)
        witness = np.setdiff1d(infected, examined)[:3]
        rep, seen = spied_pipeline(monkeypatch, g, trace, plan)
        expect = [
            v
            for v in range(1, 601)
            if counts[v] >= 1 and v not in set(z) and v not in set(witness.tolist())
        ]
        assert seen["W"].tolist() == witness.tolist()
        assert seen["Bhat"].tolist() == expect
        assert rep.size_Bhat == len(expect)

    def test_median_bhat_meets_prediction(self):
        # Monte Carlo: the qualified count should clear its predicted lower
        # bound in a clear majority of supercritical runs
        pred = stage_predictions(PARAMS, ALPHA)
        hits = 0
        trials = 60
        for trial in range(trials):
            stage_src, trace = capped_run(trial + 500)
            hits += run_stage_pipeline(stage_src, trace, PLAN).size_Bhat >= pred.pred_bhat
        assert hits > trials / 2


class TestGiant:
    def test_trivial_sizes(self):
        g = sample_gnp(30, 0.2, seed=3)
        assert len(giant_in_qualified(g, np.array([], dtype=np.int64))) == 0
        comp = giant_in_qualified(g, np.array([17], dtype=np.int64))
        assert comp.tolist() == [17]

    def test_synthetic_supercritical_size(self):
        # |Bhat| p = 1.3: the giant fraction should match rho(0.3)
        k = 40_000
        p = 1.3 / k
        params = ProcessParams(n=k, p=p, r=2)
        rho = rho_fixed_point(0.3)
        fractions = []
        for trial in range(3):
            g = sample_gnp_with(k, p, make_generator(7, trial, 0))
            comp = giant_in_qualified(g, np.arange(1, k + 1, dtype=np.int64))
            fractions.append(len(comp) / k)
        for frac in fractions:
            assert abs(frac - rho) < 0.05


def ks_distance(xs, ys) -> float:
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.union1d(xs, ys)
    cdf_x = np.searchsorted(xs, grid, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cdf_x - cdf_y)))


# |z| bound of the count-form comparisons below: with fifteen statistics
# compared, a correct pipeline exceeds it with probability < 1e-3
Z_STAGES = 4.5
STAGE_FIELDS = ("size_Bhat", "size_B", "bridge_AB", "size_C", "size_D")


class TestCountForm:
    """Implicit stages, drawn from |A(t1)| alone, against explicit stages
    measured on sampled G(n,p) graphs: the same law, compared by
    two-sample z statistics over every reported size."""

    @pytest.mark.parametrize(
        "n, p, r, seeds",
        [
            (3000, 2.2e-3, 2, "above"),
            (3000, 2.2e-3, 2, "unexamined"),  # a = t1 + 40 seeds at t1
            (3000, 0.012, 3, "above"),
        ],
    )
    def test_two_sample_against_explicit(self, n, p, r, seeds):
        params = ProcessParams(n=n, p=p, r=r)
        crit = thresholds.critical_pair(params)
        alpha = float(4 * math.ceil(math.sqrt(crit.ac)))
        plan = stage_predictions(params, alpha)
        t1 = plan.t1
        a = round(crit.ac) + int(alpha) if seeds == "above" else t1 + 40
        reports = {"implicit": [], "explicit": []}
        for trial in range(300):
            for mode in ("implicit", "explicit"):
                src, stage_src = trial_sources(params, mode, 91, trial)
                opts = TraceOptions(max_steps=t1)
                trace = run_process(src, SeedSpec.prefix(a), r, opts)
                reports[mode].append(run_stage_pipeline(stage_src, trace, plan))
        columns = {
            mode: {f: [getattr(rep, f) for rep in reps] for f in STAGE_FIELDS}
            for mode, reps in reports.items()
        }
        for field in STAGE_FIELDS:
            z = two_sample_z(columns["implicit"][field], columns["explicit"][field])
            assert abs(z) <= Z_STAGES, f"{field}: z = {z:+.2f}"
        assert ks_distance(columns["implicit"]["size_B"], columns["explicit"]["size_B"]) < 0.15


class TestBridgeExpand:
    def test_empty_component(self):
        g = sample_gnp(50, 0.1, seed=9)
        witness = np.array([1, 2], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        outside = outside_mask(50, [3, 4], witness)
        bridge, c, d = bridge_and_expand(g, outside, witness, empty, empty, 2, PLAN)
        assert not bridge
        assert len(c) == 0 and len(d) == 0

    def test_dense_fixture_bridges(self):
        # p close to 1: any nonempty witness and component must bridge
        n = 12
        g = from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
        witness = np.array([1], dtype=np.int64)
        bhat = np.array([5, 6, 7], dtype=np.int64)
        outside = outside_mask(n, [2], witness)
        bridge, c, d = bridge_and_expand(g, outside, witness, bhat, bhat[:2], 2, PLAN)
        assert bridge
        # every vertex outside Z, W and B-hat has >= 2 neighbours in B
        assert c.tolist() == [3, 4] + list(range(8, n + 1))
        # D's pool keeps B-hat \ B, vertex 7, and C is complete
        assert d.tolist() == [7]

    def test_exclusion_discipline(self, monkeypatch):
        g, trace = capped_run(7, "explicit")
        rep, seen = spied_pipeline(monkeypatch, g, trace, PLAN)
        z, w, bh, bb, cc, dd = (set(seen[k].tolist()) for k in ("Z", "W", "Bhat", "B", "C", "D"))
        assert rep.early_ok and len(cc) and len(dd)
        assert np.flatnonzero(seen["outside"]).tolist() == sorted(set(range(1, g.n + 1)) - z - w)
        assert not (w & z)
        assert not (bh & z) and not (bh & w)
        assert bb <= bh
        assert not (cc & (z | w | bh))
        assert not (dd & (z | w | bb | cc))
        assert (rep.size_Bhat, rep.size_B, rep.size_C, rep.size_D) == (len(bh), len(bb), len(cc), len(dd))

    def test_pipeline_report_fields(self):
        stage_src, trace = capped_run(3)
        rep = run_stage_pipeline(stage_src, trace, PLAN)
        payload = json.loads(json.dumps(asdict(rep)))
        assert set(payload.keys()) == {
            "alpha",
            "t1",
            "early_ok",
            "size_Bhat",
            "pred_Bhat",
            "size_B",
            "pred_B",
            "bridge_AB",
            "size_C",
            "pred_C",
            "size_D",
            "pred_D_fraction",
            "truncated",
        }
        assert payload["size_B"] <= payload["size_Bhat"]
        assert payload["size_D"] <= PARAMS.n
        assert payload["t1"] == T1

    def test_pred_fields_recompute(self):
        stage_src, trace = capped_run(4)
        rep = run_stage_pipeline(stage_src, trace, PLAN)
        pred = stage_predictions(PARAMS, ALPHA)
        assert rep.pred_Bhat == pred.pred_bhat
        assert rep.pred_B == pred.pred_b
        assert rep.pred_C == pred.pred_c
        assert rep.pred_D_fraction == pred.pred_d_fraction

    def test_stopped_run_zero_report(self):
        params = ProcessParams(n=5000, p=1e-3, r=2)
        src = ImplicitSource(params, seed=6)
        trace = run_process(src, SeedSpec.prefix(3), 2)
        rep = run_stage_pipeline(src, trace, stage_predictions(params, 30.0))
        assert not rep.early_ok
        assert rep.size_Bhat == 0 and rep.size_D == 0
        assert not rep.truncated  # the stages never ran

    def test_truncation_flag(self):
        # truncated exactly when |B| < ceil(b1_target), in both modes
        for mode in ("implicit", "explicit"):
            stage_src, trace = capped_run(8, mode)
            size_b = run_stage_pipeline(stage_src, trace, PLAN).size_B
            assert size_b > 1
            for target, truncated in ((size_b, False), (size_b - 0.5, False), (size_b + 0.5, True)):
                stage_src, trace = capped_run(8, mode)
                rep = run_stage_pipeline(stage_src, trace, replace(PLAN, b1_target=target))
                assert rep.size_B == size_b
                assert rep.truncated is truncated

    def test_c_counts_all_of_a_short_component(self, monkeypatch):
        # a B shorter than its target is used whole as the C stage's subset
        g, trace = capped_run(8, "explicit")
        rep, seen = spied_pipeline(monkeypatch, g, trace, replace(PLAN, b1_target=1e9))
        assert rep.truncated
        counts = count_neighbors_in(g, seen["B"])
        pool = seen["outside"].copy()
        pool[seen["Bhat"]] = False
        assert seen["C"].tolist() == np.flatnonzero(pool & (counts >= PARAMS.r)).tolist()
        assert rep.size_C == len(seen["C"]) > 0


def stages_from_definitions(g, a, r, plan):
    """Every stage size and flag of a run from the seeds {1..a} alive past
    t1, rebuilt from the definitions with Python sets: neighbour counts by
    set intersection, B by breadth-first search (ties go to the component
    holding the smallest vertex)."""
    nbrs = [set()] + [set(g.neighbors(v).tolist()) for v in range(1, g.n + 1)]
    vertices = set(range(1, g.n + 1))
    examined, _, infected = step_loop(g, range(1, a + 1), r, plan.t1)
    z = set(examined)
    w = set(sorted(set(infected) - z)[: math.ceil(plan.witness_target)])
    zw = z | w
    bhat = {v for v in vertices - zw if len(nbrs[v] & z) >= r - 1}
    b, reached = set(), set()
    for root in sorted(bhat):
        if root in reached:
            continue
        comp, frontier = {root}, [root]
        while frontier:
            frontier = [v for u in frontier for v in nbrs[u] & bhat if v not in comp]
            comp.update(frontier)
        reached |= comp
        if len(comp) > len(b):
            b = comp
    b1 = set(sorted(b)[: math.ceil(plan.b1_target)])
    c = {v for v in vertices - zw - bhat if len(nbrs[v] & b1) >= r}
    c1 = set(sorted(c)[: math.ceil(plan.pred_c)])
    d = {v for v in vertices - zw - b - c if len(nbrs[v] & c1) >= r}
    return dict(
        early_ok=len(infected) - plan.t1 >= plan.witness_target,
        size_Bhat=len(bhat),
        size_B=len(b),
        bridge_AB=any(nbrs[u] & b for u in w),
        size_C=len(c),
        size_D=len(d),
        truncated=len(b) < math.ceil(plan.b1_target),
    )


def test_explicit_report_matches_definitions():
    # the explicit pipeline as a whole, on runs alive past t1 (capped at t1
    # or run on with a size horizon), from a_c + alpha seeds or from a_c,
    # at the usual plan and at one whose B1 target is 4 times larger and
    # whose C1 target, 10, is below most |C|
    checked, seen = 0, {"C": 0, "D": 0, "truncated": 0, "no bridge": 0}
    for params in (ProcessParams(n=2000, p=3e-3, r=2), ProcessParams(n=1000, p=0.02, r=3)):
        crit = thresholds.critical_pair(params)
        base = stage_predictions(params, float(4 * math.ceil(math.sqrt(crit.ac))))
        for plan in (base, replace(base, b1_target=4 * base.b1_target, pred_c=10.0)):
            for trial in range(10):
                a = round(crit.ac) + (int(plan.alpha) if trial < 6 else 0)
                g, _ = trial_sources(params, "explicit", 17, trial)
                opts = TraceOptions(max_steps=plan.t1) if trial % 2 else TraceOptions(size_horizon=plan.t1)
                trace = run_process(g, SeedSpec.prefix(a), params.r, opts)
                if trace.T is not None and trace.T <= plan.t1:
                    continue
                rep = asdict(run_stage_pipeline(g, trace, plan))
                want = stages_from_definitions(g, a, params.r, plan)
                assert {k: rep[k] for k in want} == want, (params, plan, a, trial)
                checked += 1
                seen["C"] += want["size_C"] > 0
                seen["D"] += want["size_D"] > 0
                seen["truncated"] += want["truncated"]
                seen["no bridge"] += not want["bridge_AB"]
    assert checked >= 20
    assert all(seen.values()), seen


@pytest.mark.xfail(
    reason=(
        "final-expansion median |D|/n >= 0.9 needs (np)^(1/(4(r-1))) far above "
        "4^r * r!, i.e. np ~ 1e6 for r=2 with np^r < 1: unreachable at "
        "simulation scale; measured D sizes stay far below the asymptotic bound"
    ),
    strict=False,
)
def test_median_d_fraction_reaches_09():
    fracs = []
    for trial in range(30):
        stage_src, trace = capped_run(trial + 900)
        rep = run_stage_pipeline(stage_src, trace, PLAN)
        if rep.bridge_AB:
            fracs.append(rep.size_D / PARAMS.n)
    assert np.median(fracs) >= 0.9
