import heapq
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from bootperc import thresholds
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
    designated_witness,
    early_growth_check,
    giant_in_qualified,
    qualified_set,
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


class TestQualifiedSet:
    def test_fresh_process_empty(self):
        # t1 = 0 edge case: no examined vertices, nobody qualifies at r = 2
        g = sample_gnp(100, 0.02, seed=5)
        trace = run_process(g, SeedSpec.prefix(10), 2, TraceOptions(max_steps=1))
        examined, counters, _ = state_at(g, trace, 1)
        witness = np.array([], dtype=np.int64)
        bhat = qualified_set(counters, examined, witness, r=3)  # needs 2 neighbours among 1 examined
        assert len(bhat) == 0

    def test_matches_graph_oracle(self):
        # explicit fixture: counters at t1 must equal true neighbour counts
        # into Z(t1), so B-hat matches count_neighbors_in
        g = sample_gnp(600, 0.02, seed=33)
        trace = run_process(g, SeedSpec.prefix(40), 2, TraceOptions(max_steps=25))
        examined, counters, infected = state_at(g, trace, 25)
        z = examined.tolist()
        counts = count_neighbors_in(g, z)
        witness = np.setdiff1d(infected, examined)[:3]
        bhat = qualified_set(counters, examined, witness, r=2)
        expect = [
            v
            for v in range(1, 601)
            if counts[v] >= 1 and v not in set(z) and v not in set(witness.tolist())
        ]
        assert bhat.tolist() == expect

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
        pred = stage_predictions(PARAMS, ALPHA)
        res = bridge_and_expand(
            sample_gnp(50, 0.1, seed=9),
            witness=np.array([1, 2], dtype=np.int64),
            b_component=np.array([], dtype=np.int64),
            r=2,
            examined=np.array([3, 4], dtype=np.int64),
            bhat=np.array([], dtype=np.int64),
            predictions=pred,
        )
        assert not res.bridge_AB
        assert len(res.C) == 0 and len(res.D) == 0

    def test_dense_fixture_bridges(self):
        # p close to 1: any nonempty witness and component must bridge
        from bootperc.graph import from_edges

        n = 12
        g = from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
        pred = stage_predictions(PARAMS, ALPHA)  # targets irrelevant here
        res = bridge_and_expand(
            g,
            witness=np.array([1], dtype=np.int64),
            b_component=np.array([5, 6], dtype=np.int64),
            r=2,
            examined=np.array([2], dtype=np.int64),
            bhat=np.array([5, 6, 7], dtype=np.int64),
            predictions=pred,
        )
        assert res.bridge_AB
        # every outside vertex has >= 2 neighbours in the component subset
        assert len(res.C) > 0

    def test_exclusion_discipline(self):
        g, trace = capped_run(7, "explicit")
        examined, counters, infected = state_at(g, trace, T1)
        witness = designated_witness(infected, examined, stage_predictions(PARAMS, ALPHA))
        bhat = qualified_set(counters, examined, witness, PARAMS.r)
        b = giant_in_qualified(g, bhat)
        res = bridge_and_expand(
            g,
            witness,
            b,
            PARAMS.r,
            examined=examined,
            bhat=bhat,
            predictions=stage_predictions(PARAMS, ALPHA),
        )
        z = set(examined.tolist())
        w = set(witness.tolist())
        bh = set(bhat.tolist())
        bb = set(b.tolist())
        cc = set(res.C.tolist())
        dd = set(res.D.tolist())
        assert not (bh & z) and not (bh & w)
        assert bb <= bh
        assert not (cc & (z | w | bh))
        assert not (dd & (z | w | bb | cc))

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

    def test_truncation_flag(self):
        # force |B| below the designated subset target by shrinking B
        g, trace = capped_run(8, "explicit")
        examined, counters, infected = state_at(g, trace, T1)
        witness = designated_witness(infected, examined, stage_predictions(PARAMS, ALPHA))
        bhat = qualified_set(counters, examined, witness, PARAMS.r)
        b = giant_in_qualified(g, bhat)[:5]
        res = bridge_and_expand(
            g,
            witness,
            b,
            PARAMS.r,
            examined=examined,
            bhat=bhat,
            predictions=stage_predictions(PARAMS, ALPHA),
        )
        assert res.truncated


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
