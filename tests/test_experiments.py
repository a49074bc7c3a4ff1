"""Named experiments: certificates, helper oracles, determinism."""

import functools
import hashlib
import inspect
import itertools
import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmech import (
    BiasSpec,
    Certificate,
    ExperimentResult,
    Game,
    ModelError,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_maskin,
    build_status_quo,
    check_strict_cyclical_monotonicity,
    list_experiments,
    make_scenario,
    run_experiment,
    separating_functional,
    three_state_scenario,
    verify_equilibrium,
)
from robustmech import engine, experiments
from robustmech.core import AgentPayoff, SocialChoiceFunction, StateSpace
from robustmech.experiments import (
    deviation_dominance_certificate,
    preferred_outcome_bias,
    step3_closure_certificate,
)

import naive_reference as naive
from generators import (
    point_lottery,
    random_generic_prior,
    random_scm_instance,
    state_dependent_binary,
    uniform_scenario,
    uniform_tremble,
)


def test_experiment_registry():
    assert list_experiments() == [
        "maskin-contagion", "prop1", "prop2", "prop3", "thm1", "thm2", "thm3"
    ]
    with pytest.raises(ModelError):
        run_experiment("nope")


@pytest.mark.parametrize("name", ["thm1", "thm2", "maskin-contagion"])
def test_empty_eta_grid_is_refused(name):
    """No ladder certifies nothing: an empty grid is an error, not a
    vacuous pass nor a division by zero in the mass fit."""
    with pytest.raises(ModelError, match="eta grid is empty"):
        run_experiment(name, eta_grid=[])


@pytest.mark.parametrize("name", ["thm1", "thm2", "maskin-contagion"])
def test_ladder_runs_echo_the_exact_etas(name):
    """A grid written as ``0.05`` and ``1/10`` builds the ladders at 1/20
    and 1/10, and the parameters name those exact etas, as the rows do."""
    result = run_experiment(name, eta_grid=("0.05", "1/10"), depth=10)
    assert result.parameters["eta_grid"] == [F(1, 20), F(1, 10)]
    assert [row["eta"] for row in result.artifacts["grid"]] == [F(1, 20), F(1, 10)]
    assert json.loads(result.to_json())["parameters"]["eta_grid"] == ["1/20", "1/10"]


@pytest.mark.parametrize("name", ["thm1", "thm2", "prop2", "prop3"])
def test_experiments_pass(name):
    result = run_experiment(name)
    assert result.passed, dict(result.certificates)


def test_thm3_contrast():
    result = run_experiment("thm3")
    assert result.passed
    assert result.certificates["asqr_certificate_fails"]
    assert result.certificates["msqr_certificate"]
    assert result.certificates["msqr_truthful_equilibrium"]


def test_prop1_impossibility():
    result = run_experiment("prop1")
    assert result.passed
    assert result.certificates["not_both_passed"]


def _prop1_grid_calls(monkeypatch, scenario=None):
    """The (game, strategy set, candidates) of each of prop1's two grid
    searches, one per tilt; the two-point bound reads the minus tilt's
    hits without residual rather than searching again at epsilon 0."""
    calls = []
    search = experiments._grid_equilibria

    def recording(game, strategy_set, candidates, epsilon):
        calls.append((game, strategy_set, candidates))
        return search(game, strategy_set, candidates, epsilon)

    monkeypatch.setattr(experiments, "_grid_equilibria", recording)
    run_experiment("prop1", scenario)
    monkeypatch.undo()
    assert len(calls) == 2
    return calls


@pytest.mark.parametrize("step", [1, 2, 20])
def test_prop1_candidates_list_each_play_once(step):
    """The pure strategies and the interior of the two-point grid: no
    candidate carries a zero weight and no two are equal, since the
    grid's end points are the pure constants already listed."""
    candidates = experiments._candidate_type_strategies(2, (1, 2), step)
    assert all(all(candidate.values()) for candidate in candidates)
    assert len({frozenset(c.items()) for c in candidates}) == len(candidates) == 4 + step - 1


def test_prop1_games_hold_each_play_once(monkeypatch):
    """The chain's opponent mixtures reach the tilted games without their
    zero weights, so no two play ids of a default prop1 game hold equal
    plays (``Game._plays`` drops zeros, ``Game.play_id`` keys by them)."""
    for game, _, _ in _prop1_grid_calls(monkeypatch):
        plays = [frozenset(play.items()) for play in game._plays]
        assert len(set(plays)) == len(plays)


def _filter_every_report(game, strategy_set, candidates, epsilon):
    """Every candidate profile pair whose full report passes, in (i, j)
    order."""
    sets = (strategy_set, strategy_set)
    fresh = Game(game.scenario, game.mechanism, game.perturbation)
    found = []
    for mix1 in candidates:
        for mix2 in candidates:
            profile = [{0: mix1}, {0: mix2}]
            if verify_equilibrium(fresh, profile, sets, epsilon).is_equilibrium:
                found.append(profile)
    return found


def test_prop1_grid_search_equals_filtering_every_report(monkeypatch):
    """On the binary default, whose grid mixes the two constant vectors,
    and on a three-state scenario, whose grid is the 27 pure strategies."""
    three = uniform_scenario((F(1, 2), F(3, 10), F(1, 5)))
    for scenario in (None, three):
        for game, strategy_set, candidates in _prop1_grid_calls(monkeypatch, scenario):
            for epsilon in (F(1, 10), F(0)):
                want = _filter_every_report(game, strategy_set, candidates, epsilon)
                assert want
                fresh = Game(game.scenario, game.mechanism, game.perturbation)
                assert list(experiments._grid_equilibria(fresh, strategy_set, candidates,
                                                         epsilon)) == want


def test_prop1_grid_passes_mixtures_with_a_member_outside_the_band(monkeypatch):
    """Mixtures of the two constant vectors at every twentieth, some also
    listed in the other order, under the plus tilt: mixtures pass although
    one of their members is more than epsilon below the best value, at
    epsilon 1/100 exactly at the cut, and the search equals filtering
    every report.  Residuals are read from a report on each profile
    found."""
    game, strategy_set, _ = _prop1_grid_calls(monkeypatch)[0]
    sets = (strategy_set, strategy_set)
    a, b = (1, 1), (2, 2)
    candidates = [{a: F(1)}, {b: F(1)}]
    candidates += [{a: F(k, 20), b: 1 - F(k, 20)} for k in range(1, 20)]
    candidates += [{b: F(k, 20), a: 1 - F(k, 20)} for k in (1, 4, 10)]
    for epsilon in (F(1, 10), F(1, 100)):
        found = list(experiments._grid_equilibria(game, strategy_set, candidates, epsilon))
        assert found == _filter_every_report(game, strategy_set, candidates, epsilon)
        outside = at_cut = 0
        for profile in found:
            report = verify_equilibrium(game, profile, sets, epsilon)
            for agent in (0, 1):
                mix = profile[agent][0]
                table = game.payoff_table(agent, 0, profile[1 - agent])
                best = table.best(strategy_set)[1]
                if len(mix) == 2 and any(best - table.value(s) > epsilon for s in mix):
                    outside += 1
                    at_cut += report.residuals[(agent, 0)] == epsilon
        assert outside
        if epsilon == F(1, 100):
            assert at_cut


def test_grid_passes_every_weight_when_both_members_tie():
    """Against an even mix of the two constant vectors, the Maskin rule on
    the binary trial pays both of them the best value, so every weight of
    their mixture passes; the search equals filtering every report."""
    scenario = binary_trial_scenario()
    game = Game(scenario, build_maskin(scenario, 1))
    messages = game.mechanism.messages[0]
    full = engine.full_strategy_set(messages, scenario.n)
    candidates = experiments._candidate_type_strategies(scenario.n, messages, 4)
    found = list(experiments._grid_equilibria(game, full, candidates, F(0)))
    assert found == _filter_every_report(game, full, candidates, F(0))
    half = {(1, 1): F(1, 2), (2, 2): F(1, 2)}
    assert [{0: half}, {0: half}] in found


def test_prop1_grid_refuses_candidates_it_cannot_cut():
    game = Game(binary_trial_scenario(), build_status_quo(binary_trial_scenario(), 1))
    full = ((1, 2), (1, 2))
    three = {(1, 1): F(1, 3), (1, 2): F(1, 3), (2, 2): F(1, 3)}
    for bad in (three, {(1, 3): F(1)}, {(1, 1): F(1, 2)}):
        with pytest.raises(ModelError, match="grid candidate"):
            experiments._grid_equilibria(game, full, [{(1, 1): F(1)}, bad], F(1, 10))


@functools.cache
def _tilted_games(setup):
    """prop1's plus and minus games and their strategy set under one
    rule and state count, recorded from a run: the status quo and the
    matching rule at reward 1/2 at n = 2, and the status quo at n = 3."""
    prior, rule = {"status-quo-n2": (BASELINE_PRIORS[0], None),
                   "maskin-n2": (BASELINE_PRIORS[0], build_maskin),
                   "status-quo-n3": (BASELINE_PRIORS[1], None)}[setup]
    scenario = uniform_scenario(prior)
    calls = []
    search = experiments._grid_equilibria

    def recording(game, strategy_set, candidates, epsilon):
        calls.append((game, strategy_set))
        return search(game, strategy_set, candidates, epsilon)

    with mock.patch.object(experiments, "_grid_equilibria", recording):
        run_experiment("prop1", scenario, mechanism=rule and rule(scenario, F(1, 2)))
    return calls


@st.composite
def grid_candidates(draw, strategy_set):
    """A candidate list over the set: at n = 2, prop1's grid at a drawn
    step (whose even mix ties both constants against the matching rule),
    with extra mixtures of any two pure strategies, in either order of
    their support, shuffled; at n = 3, pure strategies, repeats allowed."""
    pures = list(itertools.product(*strategy_set))
    if len(strategy_set) == 3:
        return [{s: F(1)} for s in draw(st.lists(st.sampled_from(pures), min_size=1,
                                                 max_size=len(pures)))]
    candidates = experiments._candidate_type_strategies(2, strategy_set[0],
                                                        draw(st.sampled_from([1, 2, 4, 5])))
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.permutations(pures))[:2]
        w = draw(st.fractions(min_value=0, max_value=1, max_denominator=10).filter(lambda w: 0 < w < 1))
        candidates.append({a: w, b: 1 - w})
    return draw(st.permutations(candidates))


@given(st.sampled_from(["status-quo-n2", "maskin-n2", "status-quo-n3"]), st.sampled_from([0, 1]),
       st.sampled_from([F(0), F(1, 100), F(1, 10)])
       | st.fractions(min_value=0, max_value=1, max_denominator=50), st.data())
@settings(max_examples=60, deadline=None)
def test_grid_search_equals_the_eager_filter(setup, tilt, epsilon, data):
    """The lazy joint search yields the pairs of the eager filter that
    builds both agents' passing sets against every candidate, in the same
    order, on either tilt's game; each runs on a fresh game."""
    game, strategy_set = _tilted_games(setup)[tilt]
    candidates = data.draw(grid_candidates(strategy_set))

    def fresh():
        return Game(game.scenario, game.mechanism, game.perturbation)

    want = naive.grid_equilibria(fresh(), strategy_set, candidates, epsilon)
    assert list(experiments._grid_equilibria(fresh(), strategy_set, candidates, epsilon)) == want


def test_pure_opponent_tables_are_coordinate_rows():
    """Under either prop1 tilt at n = 3, a type's table against a pure
    opponent strategy is that strategy's coordinate row itself, worth
    what the naive evaluator gives every own strategy; against a mixture
    it is a new table."""
    for game, strategy_set in _tilted_games("status-quo-n3"):
        naive_game = naive.NaiveGame(game)
        pures = list(itertools.product(*strategy_set))
        for agent in (0, 1):
            for opp in pures[::5]:
                table = game.payoff_table(agent, 0, {0: {opp: F(1)}})
                assert table is game.coordinate_row(agent, 0, opp)
                for own in pures:
                    assert table.value(own) == naive.expected_payoff(
                        naive_game, agent, 0, own, {0: {opp: F(1)}})
            mixed = game.payoff_table(agent, 0, {0: {pures[0]: F(1, 2), pures[-1]: F(1, 2)}})
            assert all(mixed is not game.coordinate_row(agent, 0, s) for s in pures)


@pytest.mark.parametrize("grid_step", [0, -1, F(1, 2), True])
def test_prop1_refuses_a_grid_step_below_one(grid_step):
    with pytest.raises(ModelError, match="grid_step"):
        run_experiment("prop1", grid_step=grid_step)


def test_prop1_accepts_a_grid_step_of_one():
    """A grid step of 1 is the coarsest grid, pure messages only."""
    result = run_experiment("prop1", grid_step=1)
    assert result.parameters["grid_step"] == 1
    assert result.passed


def _count_calls(monkeypatch, module, name):
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_prop1_builds_no_report(monkeypatch):
    """8 of the 1,058 profiles of the two tilts' grid searches pass, and
    none gets a report.  Each tilt measures its hits' implementation
    metrics until one has ``max_tv <= 1/10``, 3 in all, each from one
    integer walk of the circumstances; the two-point bound makes one more
    walk for the one exact equilibrium among the minus tilt's hits."""
    searches = _prop1_grid_calls(monkeypatch)
    assert sum(len(list(experiments._grid_equilibria(*call, F(1, 10))))
               for call in searches) == 8
    reports = _count_calls(monkeypatch, experiments, "verify_equilibrium")
    metrics = _count_calls(monkeypatch, experiments, "implementation_metrics")
    walks = _count_calls(monkeypatch, engine, "lottery_nums")
    bound_lotteries = _count_calls(monkeypatch, experiments, "outcome_distribution")
    run_experiment("prop1")
    assert (reports[0], metrics[0], bound_lotteries[0]) == (0, 3, 1)
    assert walks[0] == 3 + 1


def test_prop1_reads_65_payoff_tables(monkeypatch):
    """A default prop1 run makes 65 ``payoff_table`` calls: 21 plus and 14
    minus tables for the inequality chain, 4 for the plus search up to its
    first implementing hit, and 26 for the drained minus search and the
    exact-equilibrium deficits."""
    tables = _count_calls(monkeypatch, engine.Game, "payoff_table")
    run_experiment("prop1")
    assert tables[0] == 65


def test_prop1_plus_search_stops_at_its_first_implementing_hit(monkeypatch):
    """The plus tilt's verdict computes agent 2's passing set against
    fewer than all 23 candidates: its search is read only up to the first
    hit with ``max_tv <= 1/10``."""
    searches, agent2_sets = [], []
    search, table = experiments._grid_equilibria, engine.Game.payoff_table

    def recording(game, strategy_set, candidates, epsilon):
        searches.append((game, candidates))
        return search(game, strategy_set, candidates, epsilon)

    def reading(game, agent, type_index, opponent):
        if searches and game is searches[0][0] and agent == 1:
            agent2_sets.append(opponent)
        return table(game, agent, type_index, opponent)

    monkeypatch.setattr(experiments, "_grid_equilibria", recording)
    monkeypatch.setattr(engine.Game, "payoff_table", reading)
    assert run_experiment("prop1").artifacts["implements_under_plus"]
    candidates = searches[0][1]
    assert len(candidates) == 23
    assert 0 < len(agent2_sets) < len(candidates)


@pytest.mark.parametrize("max_tv, implements", [(F(1, 10), True), (F(1, 10) + F(1, 1000), False)])
def test_prop1_implements_at_a_max_tv_of_at_most_a_tenth(monkeypatch, max_tv, implements):
    """A tilt is passed when a hit's ``max_tv`` is at most 1/10: exactly
    1/10 passes under both tilts, and 1/10 + 1/1000 under neither."""
    monkeypatch.setattr(experiments, "implementation_metrics", lambda game, profile: (F(1), max_tv))
    artifacts = run_experiment("prop1").artifacts
    assert artifacts["implements_under_plus"] is artifacts["implements_under_minus"] is implements


def test_prop3_builds_the_class_graph_once(monkeypatch):
    graphs = _count_calls(monkeypatch, experiments, "_class_graph")
    assert run_experiment("prop3").passed
    assert graphs[0] == 1


def test_prop3_computes_its_pair_margin_once(monkeypatch):
    """The check's strictness re-check computes the truthful pair margin
    and hands it back in the passing witness; the run reports that value
    rather than computing it again."""
    margins = _count_calls(monkeypatch, experiments, "_truthful_margin")
    result = run_experiment("prop3")
    assert margins[0] == 1
    s = experiments._default_prop3_scenario()
    witness = check_strict_cyclical_monotonicity(s.payoffs[0], s.scf).witness
    assert result.artifacts["pair_margin"] == witness["pair_margin"] > 0


def test_prop3_cost_below_threshold_is_strict_at_the_threshold():
    """On the default scenario the learning threshold is 2/5: a cost equal
    to it is not below it, one step less is, and no other key moves."""
    threshold = run_experiment("prop3").artifacts["threshold"]
    assert threshold == F(2, 5)
    for cost, below in ((threshold, False), (threshold - F(1, 10**9), True)):
        certificates = run_experiment("prop3", cost=cost).certificates
        assert certificates.pop("cost_below_threshold") is below
        assert all(v is True for v in certificates.values()), certificates


@pytest.mark.parametrize("agent", [2, -1, True, 1.0])
def test_prop3_refuses_a_respondent_other_than_agent_0_or_1(agent):
    """Agent 2 used to raise an ``IndexError`` and agent -1 to certify
    agent 2's payoffs under another name."""
    with pytest.raises(ModelError, match=re.escape(f"agent 0 or 1, not {agent!r}")):
        run_experiment("prop3", agent=agent)


def test_thm1_cost_bound_holds_at_c_bar_and_fails_just_above():
    """thm1's ladders may carry learning costs up to c_bar = 1 and no
    higher.  The bias overrides payoffs, so its type is perturbed and the
    ladder's ex-ante perturbation probability is its eta."""
    s = binary_trial_scenario()
    at_bound = [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10), cost=1)]
    assert run_experiment("thm1", depth=10, eta_grid=("1/10",), biases=at_bound).passed
    above = [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10), cost=F(1000001, 1000000))]
    with pytest.raises(ModelError, match=re.escape(
        "thm1: the ladder at eta = 1/10 has learning cost 1000001/1000000 above c_bar = 1"
    )):
        run_experiment("thm1", depth=10, eta_grid=("1/10",), biases=above)


@pytest.mark.parametrize("name, state", [("thm1", 0), ("thm2", 1)])
def test_status_quo_runs_refuse_a_ladder_whose_eta_of_is_not_its_eta(name, state):
    """A bias at circumstance 3 perturbs agent 1's type {w3, w4}, whose
    mass is eta (1-eta)^3 (2 - eta), not eta."""
    s = binary_trial_scenario()
    eta = F(1, 10)
    measured = eta * (1 - eta) ** 3 * (2 - eta)
    biases = [BiasSpec(0, 3, preferred_outcome_bias(s, state, 10))]
    with pytest.raises(ModelError, match=re.escape(
        f"{name}: the ladder at eta = 1/10 has ex-ante perturbation probability {measured}, not eta"
    )):
        run_experiment(name, depth=10, eta_grid=("1/10",), biases=biases)


def test_thm2_constant_deviation_comparison_fails_on_a_prior_out_of_order():
    """The key compares q(j) R^j with q(1) R^0 for every j >= 2.  On a
    canonical prior it follows from the schedule's R^0 > R^n q(2) / q(1);
    with the three-state prior reordered to (1/2, 1/10, 2/5), state 3's
    side is 2/5 * 35 = 14 against 1/2 * 8 = 4, and step 3 fails as well."""
    s = three_state_scenario()
    s = replace(s, state_space=StateSpace(s.state_space.states, (F(1, 2), F(1, 10), F(2, 5))))
    result = run_experiment("thm2", s, depth=10, eta_grid=("1/10",))
    r = result.artifacts["schedule"]
    assert (s.prior[2] * r[3], s.prior[0] * r[0]) == (14, 4)
    assert {k for k, ok in result.certificates.items() if not ok} == {
        "constant_deviation_comparison", "step3_closure"}


@pytest.mark.parametrize("depth", [F(5, 2), 2.5, True, "100"])
def test_ladder_depth_must_be_an_integer(depth):
    with pytest.raises(ModelError, match="ladder depth must be an integer"):
        run_experiment("thm1", depth=depth)


def test_certificate_of_rows():
    """A certificate of rows passes iff every row does and unpacks as
    ``(ok, witness)``; the builders return one."""
    rows = [{"ok": True}, {"ok": False}]
    assert Certificate.of_rows(rows) == (False, rows)
    ok, witness = Certificate.of_rows(rows[:1])
    assert ok and witness == rows[:1]
    s = binary_trial_scenario()
    assert step3_closure_certificate(build_status_quo(s, 1), s) == Certificate(True, [])


def test_contagion_fast_grid():
    result = run_experiment("maskin-contagion", depth=30, eta_grid=("1/10",))
    assert result.passed


def test_contagion_certificate_fails_without_a_strong_bias():
    """With the bias equal to the reward, round 1 removes only the
    non-constant reports and the biased type keeps the constant report
    2 beside the status quo, so nothing unravels and the certificate
    fails at every grid point; ``bias_factor=10`` passes with 11 rounds."""
    weak = run_experiment("maskin-contagion", bias_factor=1, depth=20)
    assert weak.certificates == {"unique_survivor_everywhere": False}
    rows = weak.artifacts["grid"]
    assert [(row["unique_always_status_quo"], row["rounds"]) for row in rows] == [(False, 1)] * 3
    strong = run_experiment("maskin-contagion", bias_factor=10, depth=20)
    assert strong.certificates == {"unique_survivor_everywhere": True}
    assert [row["rounds"] for row in strong.artifacts["grid"]] == [11] * 3


def test_random_generic_prior():
    rng = random.Random(7)
    for n in (2, 3, 4):
        prior = random_generic_prior(rng, n)
        assert sum(prior) == 1
        assert prior[0] > max(prior[1:])


def test_preferred_outcome_bias_targets_the_modal_outcome():
    s = binary_trial_scenario()
    bias = preferred_outcome_bias(s, 1, F(10))
    # The second state's target is conviction; the override rewards it in
    # every state.
    assert bias == {(0, 1): F(10), (1, 1): F(10)}


def test_step3_closure_small():
    s = binary_trial_scenario()
    ok, failures = step3_closure_certificate(build_status_quo(s, 1), s)
    assert ok and not failures


def _corrupted(mechanism, rng, edits):
    """The mechanism with ``edits`` random cells changed: an outcome
    swapped for another point lottery, or agent 1's transfer moved by up
    to the largest transfer."""
    outcome, transfer = dict(mechanism.outcome), dict(mechanism.transfer)
    cells = sorted(outcome)
    size = len(outcome[cells[0]].weights)
    for _ in range(edits):
        cell = rng.choice(cells)
        if rng.random() < 0.5:
            points = [point_lottery(y, size) for y in range(size)]
            outcome[cell] = rng.choice([p for p in points if not p.same_as(outcome[cell])])
        else:
            t1, t2 = transfer[cell]
            step = rng.choice((-1, 1)) * F(rng.randint(1, 4), 4) * mechanism.transfer_bound
            transfer[cell] = (t1 + step, t2)
    return replace(mechanism, outcome=outcome, transfer=transfer)


@pytest.mark.parametrize("variant", ["sqr", "asqr"])
@pytest.mark.parametrize("scenario", [binary_trial_scenario(), three_state_scenario()],
                         ids=["n2", "n3"])
def test_step3_closure_matches_the_enumeration_oracle(scenario, variant):
    """The per-state check against the (strategy x opponent) enumeration,
    on the construction's mechanism and on randomly corrupted copies: the
    same verdict, the same (strategy, state, opponent message) outcome
    failures and the same strategies failing the transfer check."""
    mech = (build_status_quo(scenario, scenario.max_cost) if variant == "sqr"
            else build_augmented_status_quo(scenario))
    rng = random.Random(f"step3:{variant}:{scenario.n}")
    verdicts, kinds = [], set()
    for mechanism in [mech] + [_corrupted(mech, rng, rng.randint(1, 3)) for _ in range(10)]:
        ok, failures = step3_closure_certificate(mechanism, scenario)
        want_ok, want = naive.step3_closure_certificate(mechanism, scenario, variant)
        assert ok == want_ok
        assert {
            (f["strategy"], f["state"], f["opponent_message"])
            for f in failures if f["kind"] == "outcome"
        } == {
            (f["strategy"], f["state"], f["opponent"][f["state"]])
            for f in want if f["kind"] == "outcome"
        }
        assert {f["strategy"] for f in failures if f["kind"] == "transfer"} == {
            f["strategy"] for f in want if f["kind"] == "transfer"
        }
        verdicts.append(ok)
        kinds.update(f["kind"] for f in failures)
    assert verdicts[0] and not all(verdicts)
    assert kinds == {"outcome", "transfer"}


def test_step3_closure_fails_on_a_corrupted_mechanism_with_its_witness():
    """Message 2 of agent 1 lies outside the binary status quo rule's
    restricted set at state 0, where its replacement is message 1; giving
    (2, 1) another outcome than (1, 1) breaks the outcome check there,
    raising agent 1's transfer at (2, 1) breaks the transfer check, and a
    tie breaks the augmented rule's strict check."""
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    other = next(lot for lot in s.scf.lotteries if not lot.same_as(mech.g(1, 1)))
    bad_outcome = replace(mech, outcome={**mech.outcome, (2, 1): other})
    ok, failures = step3_closure_certificate(bad_outcome, s)
    assert not ok
    assert failures == [
        {"strategy": (2, 1), "state": 0, "opponent_message": 1, "kind": "outcome"},
        {"strategy": (2, 2), "state": 0, "opponent_message": 1, "kind": "outcome"},
    ]
    t1, t2 = mech.transfer[(2, 1)]
    gap = mech.t(0, 1, 1) - t1 + 1
    bad_transfer = replace(mech, transfer={**mech.transfer, (2, 1): (t1 + gap, t2)})
    ok, failures = step3_closure_certificate(bad_transfer, s)
    assert not ok
    assert [(f["strategy"], f["opponent"], f["kind"]) for f in failures] == [
        ((2, 1), (1, 1), "transfer"), ((2, 2), (1, 1), "transfer"),
    ]
    assert all(f["gain"] == -s.prior[0] for f in failures)
    # Under the augmented rule, (2, 2) is replaced by (-2, -2) and must
    # earn strictly less against the truthful opponent; equal transfers
    # for messages 2 and -2 leave it a tie there.
    asqr = build_augmented_status_quo(s)
    tied = {(a, b): (asqr.t(0, -2, b), t2) if a == 2 else (t1, t2)
            for (a, b), (t1, t2) in asqr.transfer.items()}
    ok, failures = step3_closure_certificate(replace(asqr, transfer=tied), s)
    assert not ok
    assert failures == [{"strategy": (2, 2), "opponent": (1, 2), "gain": 0, "kind": "transfer"}]


def test_separating_functional_binary():
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    sep = separating_functional(s.scf, mech)
    assert sep.values == (F(0), F(1))
    assert sep.margin == 1
    # Smallest integer scale with margin * C > 4 * (largest transfer).
    assert sep.scale == 4 * mech.transfer_bound + 1 == 45


def test_cyclical_monotonicity_oracles_agree():
    rng = random.Random(11)
    for _ in range(40):
        u, scf = random_scm_instance(rng)
        by_cycle, _ = check_strict_cyclical_monotonicity(u, scf)
        assert naive.strict_cyclical_monotonicity(u, scf) == by_cycle


def test_synthesized_transfers_match_path_enumeration():
    """On the seeded draws where strict cyclical monotonicity holds, the
    transfers equal the least of 0 and every simple path weight into each
    class under W - delta, found by enumeration and normalized to 0: 40
    draws each of three, four and five states and outcomes, of which
    15, 4 and 2 pass, and 13, 2 and 2 have at least two classes."""
    counts = []
    for n in (3, 4, 5):
        rng = random.Random(11)
        checked = multi_class = 0
        for _ in range(40):
            u, scf = random_scm_instance(rng, n, n)
            verdict = check_strict_cyclical_monotonicity(u, scf)
            if not verdict.ok:
                continue
            assert verdict.witness["transfers"] == naive.transfer_potentials(u, scf)
            checked += 1
            multi_class += len(set(scf.lotteries)) > 1
        counts.append((checked, multi_class))
    assert counts == [(15, 13), (4, 2), (2, 2)]


def test_cyclical_monotonicity_counterexample():
    # Two states whose targets swap but whose owner strictly prefers the
    # other state's target in both states: the swap permutation gains.
    u = AgentPayoff(((F(0), F(1)), (F(1), F(0))), F(0))
    scf = SocialChoiceFunction((point_lottery(0, 2), point_lottery(1, 2)))
    ok, witness = check_strict_cyclical_monotonicity(u, scf)
    assert not ok and witness


def test_synthesized_transfers_make_truth_strictly_best():
    s = three_state_scenario()
    u = s.payoffs[0]
    # Use a state-sensitive utility so the check is not vacuous.
    from robustmech.experiments import _default_prop3_scenario

    sc = _default_prop3_scenario()
    u = sc.payoffs[0]
    ok, witness = check_strict_cyclical_monotonicity(u, sc.scf)
    assert ok
    t = witness["transfers"]
    assert min(t.values()) == 0
    for a in range(sc.n):
        for b in range(sc.n):
            if sc.scf(a).same_as(sc.scf(b)):
                continue
            own = u.expected_utility(a, sc.scf(a)) + t[a]
            cross = u.expected_utility(a, sc.scf(b)) + t[b]
            assert own > cross


def test_deviation_certificate_weak_vs_strict():
    from robustmech import build_augmented_status_quo, build_modified_status_quo
    from robustmech.engine import TrembleSpec, revealing_signals

    s = three_state_scenario()
    rev = revealing_signals(s)

    def certify(mech):
        tremble = TrembleSpec.point(F(1, 100), mech.messages, (2, 2))
        return deviation_dominance_certificate(Game(s, mech, signals=rev, tremble=tremble))

    asqr_ok, asqr_rows = certify(build_augmented_status_quo(s))
    msqr_ok, _ = certify(build_modified_status_quo(s))
    assert not asqr_ok
    assert msqr_ok
    # The failing comparison is driven by noise mass landing on the high
    # reward: worst case tau * R^2.
    bad = [r for r in asqr_rows if not r["ok"]]
    assert any(r["worst_case"] == F(1, 100) * 30 for r in bad)


# The Baseline priors of the state-count sweep, n = 2..5.
BASELINE_PRIORS = [
    (F(7, 10), F(3, 10)),
    (F(1, 2), F(3, 10), F(1, 5)),
    (F(2, 5), F(3, 10), F(1, 5), F(1, 10)),
    (F(3, 10), F(1, 4), F(1, 5), F(3, 20), F(1, 10)),
]


@pytest.mark.parametrize("prior, digest", [
    (BASELINE_PRIORS[1], "b4f825d090ee5cc2cca8cdf27d120411379e29f01a174fc3c2d713a4f32fcdc5"),
    (BASELINE_PRIORS[2], "8f8687f6f926f32164a571c6662dc630efd8fcbf76feb5d96624fc14b2eb0be2"),
    (BASELINE_PRIORS[3], "7ccd531943334957106d0521631bc3b585ff7b8ceab91bec3d8262ef9774c82d"),
], ids=["n3", "n4", "n5"])
def test_prop1_json_is_pinned_on_the_baseline_priors(prior, digest):
    """prop1's JSON on the Baseline priors at n = 3, 4 and 5, whose grid
    searches run over every pure strategy of 3, 4 and 5 messages: the
    searches find each passing pair from the band's supports alone, as a
    scan of every support against every band did."""
    result = run_experiment("prop1", scenario=uniform_scenario(prior))
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("prior, rule", [
    (BASELINE_PRIORS[1], None), (BASELINE_PRIORS[2], None), (BASELINE_PRIORS[0], build_maskin),
], ids=["n3", "n4", "n2-maskin"])
def test_prop1_verdicts_equal_the_reports_of_its_hits(monkeypatch, prior, rule):
    """On the Baseline priors at n = 3 and 4, and at n = 2 under the
    matching rule at reward 1/2, each tilt's ``implements_under_<tilt>``
    is whether a report on some hit of its search has ``max_tv <= 1/10``,
    and the two-point bound walks the outcomes of exactly the minus
    tilt's hits whose report has residual 0, in order.  Only under the
    matching rule do some minus hits have a positive residual, some of
    them on one agent's side only, and some on the other's."""
    searches, walked = [], []
    search, walk = experiments._grid_equilibria, experiments.outcome_distribution

    def recording(game, strategy_set, candidates, epsilon):
        hits = list(search(game, strategy_set, candidates, epsilon))
        searches.append((game, strategy_set, epsilon, hits))
        return hits

    def walking(game, profile):
        walked.append(profile)
        return walk(game, profile)

    monkeypatch.setattr(experiments, "_grid_equilibria", recording)
    monkeypatch.setattr(experiments, "outcome_distribution", walking)
    scenario = uniform_scenario(prior)
    mechanism = rule and rule(scenario, F(1, 2))
    artifacts = run_experiment("prop1", scenario, mechanism=mechanism).artifacts
    assert len(searches) == 2
    for label, (game, strategy_set, epsilon, hits) in zip(("plus", "minus"), searches):
        fresh = Game(game.scenario, game.mechanism, game.perturbation)
        reports = [verify_equilibrium(fresh, p, (strategy_set, strategy_set), epsilon)
                   for p in hits]
        assert reports and all(r.is_equilibrium for r in reports)
        passed = any(r.max_tv <= F(1, 10) for r in reports)
        assert artifacts[f"implements_under_{label}"] is passed
    minus_hits = searches[1][3]
    assert walked == [p for p, r in zip(minus_hits, reports) if r.max_residual == 0]
    assert walked and (rule is None or len(walked) < len(minus_hits))


def test_deviation_certificate_matches_closed_form():
    """Every witness row and the verdict equal the closed-form oracle's:
    both rules on three states and on the Baseline priors (n = 2..5);
    revealing and mislabeled signals, and on three states a private
    structure whose agents see different signals; point noise onto each
    high message and uniform noise; two tremble probabilities.  The
    oracle writes the payments from the reward schedule, the certificate
    reads them off the mechanism."""
    from robustmech import build_modified_status_quo
    from robustmech.engine import (
        SignalStructure,
        TrembleSpec,
        mislabel_signals,
        revealing_signals,
    )

    for s in [three_state_scenario()] + [uniform_scenario(prior) for prior in BASELINE_PRIORS]:
        structures = [revealing_signals(s)] + [
            mislabel_signals(s, d) for d in (F(1, 100), F(1, 10))
        ]
        if s.n == 3:
            # Agent 1 tells the first state from the others; agent 2 sees the state.
            structures.append(SignalStructure(
                (2, 3), {(j, min(j, 1), j): s.prior[j] for j in range(s.n)}, ((1, 2), (1, 2, 3))
            ))
        verdicts = set()
        for mech in (build_augmented_status_quo(s), build_modified_status_quo(s)):
            msgs = mech.messages[1]
            noises = [
                (TrembleSpec.point(tau, mech.messages, (m, m)), {m: F(1)})
                for tau in (F(1, 100), F(1, 10))
                for m in range(2, s.n + 1)
            ] + [
                (uniform_tremble(tau, mech.messages), {m: F(1, len(msgs)) for m in msgs})
                for tau in (F(1, 100), F(1, 10))
            ]
            for structure in structures:
                for tremble, noise in noises:
                    got = deviation_dominance_certificate(
                        Game(s, mech, signals=structure, tremble=tremble)
                    )
                    assert got == naive.deviation_dominance_certificate(
                        mech, structure, tremble.tau, noise
                    )
                    verdicts.add(got[0])
        assert verdicts == {True, False}


@pytest.mark.parametrize("prior", BASELINE_PRIORS, ids=["n2", "n3", "n4", "n5"])
def test_constant_rows_bound_the_exact_constant_gain(prior):
    """Each constant row of the deviation certificate is at least the
    exact ex ante gain of ``(m, ..., m)`` over its negation, for both
    rules, on revealing and on mislabelled signals with thm3's point
    tremble: the closed form never passes where the exact value fails.
    The modified rule's row is an expected transfer set against the
    ``R^0`` its negation always gets, so it is compared less ``R^0``.
    The augmented rule's row is the exact value."""
    from robustmech import build_modified_status_quo
    from robustmech.engine import TrembleSpec, mislabel_signals, revealing_signals

    s = uniform_scenario(prior)
    for mech in (build_augmented_status_quo(s), build_modified_status_quo(s)):
        tremble = TrembleSpec.point(F(1, 100), mech.messages, (2, 2))
        modified = mech.schedule.penalty is not None
        for signals in (revealing_signals(s), mislabel_signals(s, F(1, 100))):
            game = Game(s, mech, signals=signals, tremble=tremble)
            rows = [r for r in deviation_dominance_certificate(game).witness
                    if r["signal"] == "constant"]
            assert [r["message"] for r in rows] == list(range(2, s.n + 1))
            for row in rows:
                exact = naive.constant_deviation_gain(game, row["message"])
                row_gain = row["worst_case"] - (mech.schedule.r(0) if modified else 0)
                assert row_gain >= exact if modified else row_gain == exact


@pytest.mark.parametrize(
    "name, option, value",
    [("thm2", "eta_grid", (0.1,)), ("thm1", "eta_grid", (0.1,)), ("prop3", "cost", 0.01),
     ("maskin-contagion", "bias_factor", 2.5)],
)
def test_a_float_option_is_refused_by_name(name, option, value):
    """A float reaches a run already rounded to binary: the run refuses
    it with a ``ModelError`` that names the experiment, the option and
    the value, not a bare ``TypeError`` from the exact parser."""
    shown = re.escape(repr(value[0] if isinstance(value, tuple) else value))
    with pytest.raises(ModelError, match=rf"experiment {name}: option {option} .*float {shown}"):
        run_experiment(name, **{option: value})


@pytest.mark.parametrize("name, removed, kept", [
    ("thm1", ("c_bar",), ("depth", "eta_grid", "biases")),
    ("thm2", ("cost_cap",), ("depth", "eta_grid", "biases")),
    ("thm3", ("tau", "delta", "noise_target"), ()),
    ("prop1", ("eta_values",), ("mechanism", "grid_step")),
    ("prop2", (), ("mechanism",)),
    ("prop3", (), ("agent", "cost")),
    ("maskin-contagion", ("reward",), ("bias_factor", "depth", "eta_grid")),
])
def test_each_run_takes_only_the_options_a_caller_sets(name, removed, kept):
    """A run's fixed constants (thm1's c_bar, thm2's cost cap, thm3's tau,
    delta and noise target, prop1's etas, maskin-contagion's reward) are
    not options: passing one is refused by name, and the signature lists
    the scenario and the options that remain."""
    run = getattr(experiments, "run_" + name.replace("-", "_"))
    assert tuple(inspect.signature(run).parameters) == ("scenario", *kept)
    for option in removed:
        with pytest.raises(ModelError, match=re.escape(
            f"experiment {name}: got an unexpected keyword argument '{option}'"
        )):
            run_experiment(name, **{option: 1})


def test_deviation_certificate_needs_a_tremble():
    from robustmech.engine import revealing_signals

    s = three_state_scenario()
    game = Game(s, build_augmented_status_quo(s), signals=revealing_signals(s))
    with pytest.raises(ModelError, match="needs a game with a tremble"):
        deviation_dominance_certificate(game)


def test_maskin_contagion_takes_an_exact_bias_factor():
    """A string bias factor multiplies the reward exactly, as a Fraction
    does, and the parameters keep the value the caller gave."""
    by_string = run_experiment("maskin-contagion", bias_factor="21/2", depth=10)
    by_fraction = run_experiment("maskin-contagion", bias_factor=F(21, 2), depth=10)
    assert by_string.parameters["bias_factor"] == "21/2"
    assert by_string.certificates == by_fraction.certificates
    assert by_string.artifacts == by_fraction.artifacts


@pytest.mark.parametrize("kind", ["sqr", "maskin"])
def test_deviation_certificate_needs_negative_messages(kind):
    """A rule without negative messages has no mirrored deviation to set
    a high message against: the certificate names the rule."""
    from robustmech.engine import TrembleSpec

    s = binary_trial_scenario()
    mech = build_status_quo(s, s.max_cost) if kind == "sqr" else build_maskin(s, 1)
    tremble = TrembleSpec.point(F(1, 100), mech.messages, (2, 2))
    with pytest.raises(ModelError, match=f"needs a rule with negative messages; the {kind} rule"):
        deviation_dominance_certificate(Game(s, mech, tremble=tremble))


@pytest.mark.parametrize("value", [object(), point_lottery(0, 2), 0.5])
def test_result_json_refuses_an_unsupported_type(value):
    """An artifact the serializer does not know, a ``Lottery`` or a float
    among them, raises rather than being written as its ``str``."""
    with pytest.raises(TypeError, match="cannot write a"):
        ExperimentResult("x", {}, {}, {"value": value}).to_json()


def test_result_json_is_deterministic():
    a = run_experiment("thm1").to_json()
    b = run_experiment("thm1").to_json()
    assert a == b
    assert a.endswith("\n")


def test_deep_ladder_json_renders_every_digit():
    """At depth 1500 and eta 1/1000 the tail mass's numerator and
    denominator have about 4,500 digits, beyond Python's default limit on
    int-to-str conversion; the JSON still carries it exactly, and the
    limit is left as it was."""
    limit = sys.get_int_max_str_digits()
    result = run_experiment("maskin-contagion", depth=1500, eta_grid=("1/1000",))
    text = result.to_json()
    assert sys.get_int_max_str_digits() == limit
    tail = result.artifacts["grid"][0]["tail_mass"]
    try:
        sys.set_int_max_str_digits(0)
        want = str(tail)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 2 * 4300
    assert json.loads(text)["artifacts"]["grid"][0]["tail_mass"] == want


def test_grid_csv_shape():
    result = run_experiment("thm1")
    csv = result.grid_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == len(result.artifacts["grid"]) + 1
    assert lines[0] == ",".join(sorted(result.artifacts["grid"][0]))


def test_prop2_values_are_engine_payoffs_on_an_asymmetric_mechanism():
    """With agent 2 as the only respondent, agent 1 has one message and
    agent 2 several, so an agent's payoff depends on which side sends
    which message; the Nash values prop2 reports must be each agent's
    engine payoff in the verified profile."""
    from robustmech.mechanisms import build_one_respondent

    scenario = binary_trial_scenario()
    mech = build_one_respondent(scenario, 1, {1: F(0), 2: F(1)})
    result = experiments.run_prop2(scenario, mech)
    assert result.passed
    nash = result.artifacts["nash"]
    profile = [
        {0: {(m,) * scenario.n: w for m, w in zip(mech.messages[agent], nash[key]) if w}}
        for agent, key in ((0, "x"), (1, "y"))
    ]
    game = Game(scenario, mech)
    for agent in (0, 1):
        table = game.payoff_table(agent, 0, profile[1 - agent])
        value = sum(w * table.value(s) for s, w in profile[agent][0].items())
        assert value == nash["values"][agent]


def _costs(scenario, costs):
    payoffs = tuple(replace(p, cost=F(c)) for p, c in zip(scenario.payoffs, costs))
    return replace(scenario, payoffs=payoffs)


def test_prop2_builds_its_default_mechanism_below_unit_cost():
    """The default mechanism is the status quo rule built on the scenario
    itself, so a largest cost below 1 no longer refuses the run: at costs
    1/2 state-independent stakes satisfy the proposition, and at costs 0
    the run is inapplicable.  Where the unit-cost build succeeded, it
    gives the same mechanism."""
    stakes = experiments._default_prop2_scenario()
    half = experiments.run_prop2(_costs(stakes, ("1/2", "1/2")))
    assert half.certificates["applicable"] and half.passed
    zero = experiments.run_prop2(_costs(stakes, (0, 0)))
    assert zero.certificates == {"applicable": False}
    costly, unit = _costs(stakes, (3, 2)), _costs(stakes, (1, 1))
    assert build_status_quo(costly, 3) == build_status_quo(unit, 3)


def test_prop2_applicability_boundaries():
    """Positive costs are needed with state-independent stakes, and costs
    strictly above twice the utility range otherwise."""
    stakes = experiments._default_prop2_scenario()
    assert not experiments.run_prop2(_costs(stakes, (0, 1))).certificates["applicable"]
    assert experiments.run_prop2(_costs(stakes, (1, "1/100"))).certificates["applicable"]
    assert not experiments.run_prop2(state_dependent_binary((4, 4))).certificates["applicable"]
    assert not experiments.run_prop2(state_dependent_binary((5, 4))).certificates["applicable"]


def test_prop2_learning_values_match_a_naive_e_max_less_max_e():
    """Just above twice the utility range prop2 applies, and each learning
    value is agent 1's expected best payoff per state less its best
    expected payoff, summed from the scenario's utilities and the
    mechanism's transfers: on the default mechanism, whose rewards make
    matching best in every state, and on a matching rule with a small
    reward, where learning pays."""
    scenario = state_dependent_binary(("41/10", "41/10"))
    u = scenario.payoffs[0].u
    learning = []
    for mech in (build_status_quo(scenario, scenario.max_cost), build_maskin(scenario, F(1, 10))):
        result = experiments.run_prop2(scenario, mech)
        assert result.certificates["applicable"]

        def value(state, m1, m2):
            weights = mech.g(m1, m2).weights
            return mech.t(0, m1, m2) + sum(w * u[state][y] for y, w in enumerate(weights))

        want = []
        for m2 in mech.messages[1]:
            e_max = sum(q * max(value(j, m1, m2) for m1 in mech.messages[0])
                        for j, q in enumerate(scenario.prior))
            max_e = max(sum(q * value(j, m1, m2) for j, q in enumerate(scenario.prior))
                        for m1 in mech.messages[0])
            want.append((m2, e_max - max_e))
        got = [(row["m2"], row["learning_value"]) for row in result.artifacts["learning_rows"]]
        assert got == want
        learning.append(max(v for _, v in want))
    assert learning[0] == 0 < learning[1]


CONSTANT = make_scenario([("a", "7/10"), ("b", "3/10")], ["x", "y"],
                         {"a": {"x": 1}, "b": {"x": 1}})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: run_experiment("thm2", make_scenario(
            [("a", "1/2"), ("b", "1/2")], ["x", "y"], {"a": {"x": 1}, "b": {"y": 1}})),
         "augmented rule run needs a generic prior"),
        (lambda: separating_functional(CONSTANT.scf, build_status_quo(CONSTANT, 1)),
         "separating functional needs a non-constant target"),
        (lambda: run_experiment("prop1", CONSTANT), "impossibility run needs a non-constant target"),
    ],
    ids=["thm2-tied", "separating-constant", "prop1-constant"],
)
def test_experiments_refuse_bad_input(build, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build()
