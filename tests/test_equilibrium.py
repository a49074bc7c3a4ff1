"""Equilibrium verification, dominance thresholds, iteration, Nash solver."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import naive_reference as naive
from generators import random_generic_prior, uniform_scenario
from robustmech import (
    BiasSpec,
    Game,
    ModelError,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_ladder,
    build_maskin,
    build_modified_status_quo,
    build_status_quo,
    four_state_scenario,
    full_strategy_set,
    gamma_dominance_threshold,
    iterate_best_response,
    iterated_dominance,
    load_scenario,
    restricted_strategy_set,
    support_enumeration_nash,
    three_state_scenario,
    truthful_profile,
    verify_equilibrium,
)
from robustmech import equilibrium
from robustmech.equilibrium import _strategy_sets, solve_linear
from robustmech.experiments import _status_quo_run, preferred_outcome_bias
from robustmech.mechanisms import Mechanism


def _sqr_game(scenario):
    mech = build_status_quo(scenario, scenario.max_cost)
    rs = restricted_strategy_set(mech.messages[0], tuple(range(1, scenario.n + 1)))
    return Game(scenario, mech), (rs, rs)


def test_truthful_is_a_strict_equilibrium():
    for scenario in (binary_trial_scenario(), three_state_scenario()):
        game, sets = _sqr_game(scenario)
        report = verify_equilibrium(game, truthful_profile(game), sets)
        assert report.is_equilibrium
        assert report.max_residual == 0
        assert report.truthful_mass == 1
        assert report.max_tv == 0


def test_residuals_invariant_to_constant_transfer_shift():
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    shifted = Mechanism(
        mech.kind,
        mech.messages,
        mech.outcome,
        {k: (a + 7, b + 7) for k, (a, b) in mech.transfer.items()},
        mech.schedule,
    )
    rs = restricted_strategy_set(mech.messages[0], (1, 2))
    r1 = verify_equilibrium(Game(s, mech), truthful_profile(Game(s, mech)), (rs, rs))
    g2 = Game(s, shifted)
    r2 = verify_equilibrium(g2, truthful_profile(g2), (rs, rs))
    assert r1.residuals == r2.residuals


def test_best_response_orders_ties_canonically():
    s = binary_trial_scenario(cost=0)
    mech = build_status_quo(binary_trial_scenario(), 1)
    zero = Mechanism(
        "flat", mech.messages, mech.outcome,
        {k: (F(0), F(0)) for k in mech.transfer}, None,
    )
    g = Game(s, zero)
    full = full_strategy_set((1, 2), 2)
    winners, value = g.payoff_table(0, 0, {0: {(1, 1): F(1)}}).best(full)
    assert winners == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert value == 0


def test_best_response_rejects_malformed_choices():
    """A strategy set is one tuple of choices per coordinate, none empty."""
    game, _ = _sqr_game(binary_trial_scenario())
    opponent = {0: {(1, 2): F(1)}}
    table = game.payoff_table(0, 0, opponent)
    for choices in (((1, 2),), ((1,), (1, 2), (1, 2)), ((1,), ())):
        with pytest.raises(ModelError, match="non-empty coordinates"):
            table.best(choices)
    sqr = ((1,), (1, 2))
    winners, value = naive.best_response(naive.NaiveGame(game), 0, 0, opponent, sqr)
    assert table.best(sqr) == (tuple(winners), value)


def test_unknown_message_in_a_strategy_set_is_a_model_error():
    """A strategy set naming a message the mechanism does not have is
    refused with its coordinate, not a bare KeyError."""
    game, (rs, _) = _sqr_game(binary_trial_scenario())
    opponent = {0: {(1, 2): F(1)}}
    bad = ((1,), (1, 5))
    with pytest.raises(ModelError, match="coordinate 1 names unknown message 5"):
        game.payoff_table(0, 0, opponent).best(bad)
    profile = [{0: {(1, 2): F(1)}}, {0: {(1, 2): F(1)}}]
    with pytest.raises(ModelError, match="coordinate 1 names unknown message 5"):
        verify_equilibrium(game, profile, (bad, rs))


def test_best_deviation_accounts_for_the_residual():
    """Off equilibrium, each type's named deviation gains exactly its
    residual over the prescribed mixture, which here also plays (2, 2)
    from outside the restricted set.  The w0 bias makes acquittal worth
    100 at no learning cost, so agent 1's type 0 deviates to (1, 1) and
    its other types to (1, 2)."""
    s = binary_trial_scenario()
    mech = build_status_quo(s, s.max_cost)
    rs = restricted_strategy_set(mech.messages[0], (1, 2))
    pert = build_ladder(s, 6, F(1, 10), [BiasSpec(0, 0, {(0, 0): F(100), (1, 0): F(100)}, F(0))])
    game = Game(s, mech, pert)
    reference = naive.NaiveGame(game)
    profile = [
        {t: {(1, 1): F(1, 3), (2, 2): F(2, 3)} for t in range(len(pert.partitions[0]))},
        {t: {(1, 2): F(1)} for t in range(len(pert.partitions[1]))},
    ]
    report = verify_equilibrium(game, profile, (rs, rs))
    assert report.max_residual > 0 and not report.is_equilibrium
    assert report.best_deviation.keys() == report.residuals.keys()
    assert report.best_deviation[(0, 0)] == (1, 1) and report.best_deviation[(0, 1)] == (1, 2)
    for (agent, t), residual in report.residuals.items():
        opponent = profile[1 - agent]
        deviation = report.best_deviation[(agent, t)]
        table = game.payoff_table(agent, t, opponent)
        gain = table.value(deviation) - sum(w * table.value(s) for s, w in profile[agent][t].items())
        assert gain == residual
        assert deviation == naive.best_response(reference, agent, t, opponent, rs)[0][0]


def test_gamma_thresholds_frozen_values():
    cases = [
        (binary_trial_scenario(), "sqr", F(19, 42)),
        (binary_trial_scenario(), "asqr", F(55, 114)),
        (three_state_scenario(), "sqr", F(22, 69)),
        (three_state_scenario(), "asqr", F(94, 213)),
    ]
    for scenario, kind, expected in cases:
        mech = (
            build_status_quo(scenario, scenario.max_cost)
            if kind == "sqr"
            else build_augmented_status_quo(scenario)
        )
        cert = gamma_dominance_threshold(mech, scenario, scenario.max_cost)
        assert cert.gamma == expected
        assert cert.below_half


BASELINE_PRIORS = (
    (F(7, 10), F(3, 10)),
    (F(1, 2), F(3, 10), F(1, 5)),
    (F(2, 5), F(3, 10), F(1, 5), F(1, 10)),
    (F(3, 10), F(1, 4), F(1, 5), F(3, 20), F(1, 10)),
)


MECHANISM_KINDS = {
    "sqr": lambda s: build_status_quo(s, s.max_cost),
    "asqr": build_augmented_status_quo,
    "msqr": build_modified_status_quo,
}


@pytest.mark.parametrize("kind", ["sqr", "asqr", "msqr"])
@pytest.mark.parametrize("prior", BASELINE_PRIORS, ids=lambda p: f"n{len(p)}")
def test_gamma_witness_rows_equal_inner_value_differences(prior, kind):
    """Each agent's one witness row holds a deviation from its restricted
    set whose gains are the ``inner_value`` differences of the game
    charging ``c_bar``: truth against the deviation, facing the truthful
    opponent and facing the row's adversary.  Its threshold is the root
    of those gains and equals the agent's largest threshold in the
    enumerating oracle, and gamma is the largest row threshold."""
    scenario = uniform_scenario(prior)
    mech = MECHANISM_KINDS[kind](scenario)
    cert = gamma_dominance_threshold(mech, scenario, scenario.max_cost)
    oracle = naive.gamma_dominance_threshold(mech, scenario, scenario.max_cost)
    charged = tuple(replace(p, cost=scenario.max_cost) for p in scenario.payoffs)
    game = Game(replace(scenario, payoffs=charged), mech)
    truth = game.truthful(0)
    rs = restricted_strategy_set(mech.messages[0], truth)
    assert [row["agent"] for row in cert.witness] == [0, 1]
    for row in cert.witness:
        agent, s, picks = row["agent"], row["deviation"], row["adversary"]
        assert s != truth and all(m in ms for m, ms in zip(s, rs))
        assert all(b in ms for b, ms in zip(picks, rs))
        d_truth = game.inner_value(agent, 0, truth, truth) - game.inner_value(agent, 0, s, truth)
        d_adv = game.inner_value(agent, 0, truth, picks) - game.inner_value(agent, 0, s, picks)
        assert (row["gain_vs_truthful"], row["worst_case_gain"]) == (d_truth, d_adv)
        assert type(row["gain_vs_truthful"]) is type(row["worst_case_gain"]) is F
        assert row["threshold"] == (0 if d_adv > 0 else d_adv / (d_adv - d_truth))
        assert row["threshold"] == max(
            w["threshold"] for w in oracle.witness if w["agent"] == agent
        )
        if scenario.n <= 3:
            # Small enough to check that the adversary is the worst one.
            assert d_adv == min(
                game.inner_value(agent, 0, truth, b) - game.inner_value(agent, 0, s, b)
                for b in itertools.product(*rs)
            )
    assert cert.gamma == oracle.gamma == max(row["threshold"] for row in cert.witness)


def _gamma_or_error(mech, scenario, c_bar, solver):
    try:
        return solver(mech, scenario, c_bar).gamma
    except ModelError as err:
        return str(err)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gamma_matches_the_enumeration_oracle(n):
    """Gamma, or the error naming the first deviation truth does not
    strictly beat, equals the enumerating oracle's on a drawn generic
    prior, for each status-quo rule and learning-cost bound, and on the
    binary matching rule for several rewards and bounds.  Corrupted rules
    fail the check: one paying no transfers, under a positive bound and
    under a zero one, where the constant deviation ties truth, and one
    paying none to agent 2 only, so that agent 1 passes first."""
    rng = random.Random(f"gamma:{n}")
    scenario = uniform_scenario(random_generic_prior(rng, n))
    cases = [
        (MECHANISM_KINDS[kind](scenario), c_bar)
        for kind in MECHANISM_KINDS
        for c_bar in (scenario.max_cost, F(0), 2 * scenario.max_cost)
    ]
    sqr, asqr = MECHANISM_KINDS["sqr"](scenario), MECHANISM_KINDS["asqr"](scenario)
    unpaid = replace(sqr, transfer={k: (F(0), F(0)) for k in sqr.transfer})
    cases += [
        (unpaid, scenario.max_cost),
        (unpaid, F(0)),
        (replace(asqr, transfer={k: (t1, F(0)) for k, (t1, _) in asqr.transfer.items()}),
         scenario.max_cost),
    ]
    if n == 2:
        cases += [(build_maskin(scenario, r), F(c)) for r in (1, 3, 10) for c in (0, 1, 2)]
    outcomes = set()
    for mech, c_bar in cases:
        got = _gamma_or_error(mech, scenario, c_bar, gamma_dominance_threshold)
        assert got == _gamma_or_error(mech, scenario, c_bar, naive.gamma_dominance_threshold)
        outcomes.add(type(got))
    assert outcomes == {F, str}


def test_gamma_does_not_enumerate_deviations(monkeypatch):
    """At n=6 the augmented rule's restricted set has 8^5 x 7 members per
    agent; one gamma call reads O(n + |M|) values and rows."""
    scenario = uniform_scenario((F(1, 4), F(1, 5), F(1, 6), F(3, 20), F(7, 60), F(7, 60)))
    mech = build_augmented_status_quo(scenario)
    calls = {"inner_value": 0, "coordinate_row": 0}
    for name in calls:
        original = getattr(Game, name)

        def counted(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Game, name, counted)
    cert = gamma_dominance_threshold(mech, scenario, scenario.max_cost)
    assert cert.below_half
    bound = 2 * (scenario.n + len(mech.messages[0]))
    assert 0 < calls["inner_value"] <= bound and 0 < calls["coordinate_row"] <= bound


def test_gamma_threshold_four_states():
    s = four_state_scenario()
    mech = build_status_quo(s, 1)
    cert = gamma_dominance_threshold(mech, s, 1)
    assert cert.below_half


def test_gamma_below_half_fails_with_its_witness():
    """``gamma_below_half`` can be False.  The status-quo rule built for
    c_bar = 1 on the binary trial, charged 5/4, has gamma 43/84: each
    agent's witness row, the constant report (1, 1) against the same
    adversary, has threshold (43/20) / (43/20 + 41/20) = gamma.  The
    certificate key of a status-quo run on that rule and bound reads
    False too."""
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    cert = gamma_dominance_threshold(mech, s, F(5, 4))
    assert cert.gamma == F(43, 84) and not cert.below_half
    assert [(w["deviation"], w["threshold"]) for w in cert.witness] == [((1, 1), cert.gamma)] * 2
    bias = BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10))
    certificates, artifacts = _status_quo_run("thm2", s, mech, F(5, 4), 4, ("1/10",), [bias])
    assert certificates["gamma_below_half"] is False and artifacts["gamma"] == F(43, 84)


def test_gamma_exactly_one_half_is_not_below_half():
    """The test is strict: the three-state status-quo rule charged c_bar =
    9/4 has gamma exactly 1/2, which is not below 1/2, and 1/1000 less
    cost puts it below."""
    s = three_state_scenario()
    mech = build_status_quo(s, s.max_cost)
    cert = gamma_dominance_threshold(mech, s, F(9, 4))
    assert cert.gamma == F(1, 2) and not cert.below_half
    assert all(w["threshold"] == cert.gamma for w in cert.witness)
    assert gamma_dominance_threshold(mech, s, F(9, 4) - F(1, 1000)).below_half


def _row(w):
    return w["deviation"], w["gain_vs_truthful"], w["worst_case_gain"], w["adversary"], w["threshold"]


def test_gamma_matching_rule_plays_full_sets():
    # The matching rule has no status-quo message, so every agent may
    # deviate to any of its three non-truthful strategies and the adversary
    # picks from the full set: the enumerating oracle's rows are the
    # full-set certificate, and each agent's witness row is the largest.
    s = binary_trial_scenario()
    cert = gamma_dominance_threshold(build_maskin(s, 10), s, 1)
    oracle = naive.gamma_dominance_threshold(build_maskin(s, 10), s, 1)
    per_agent = [
        ((1, 1), F(2), F(-4), (1, 1), F(2, 3)),
        ((2, 1), F(10), F(-10), (2, 1), F(1, 2)),
        ((2, 2), F(6), F(-8), (2, 1), F(4, 7)),
    ]
    assert [_row(w) for w in oracle.witness] == per_agent * 2
    assert [(w["agent"], *_row(w)) for w in cert.witness] == [(a, *per_agent[0]) for a in (0, 1)]
    assert cert.gamma == F(2, 3)


def test_gamma_rejects_non_dominant_truthtelling():
    s = binary_trial_scenario()
    sqr = build_status_quo(s, 1)
    mech = Mechanism("sqr", sqr.messages, sqr.outcome, {k: (F(0), F(0)) for k in sqr.transfer})
    with pytest.raises(ModelError):
        gamma_dominance_threshold(mech, s, F(1))


def test_br_iteration_reaches_truthful_fixed_point():
    game, sets = _sqr_game(binary_trial_scenario())
    res = iterate_best_response(game, sets)
    assert res.converged and not res.cycled
    assert res.report.is_equilibrium
    assert res.report.truthful_mass == 1


def test_br_iteration_detects_cycles():
    s = binary_trial_scenario(cost=0)
    msgs = ((1, 2), (1, 2))
    outcome = {(a, b): s.scf(0) for a in (1, 2) for b in (1, 2)}
    transfer = {
        (a, b): (F(1) if a == b else F(-1), F(-1) if a == b else F(1))
        for a in (1, 2)
        for b in (1, 2)
    }
    pennies = Mechanism("pennies", msgs, outcome, transfer)
    g = Game(s, pennies)
    full = full_strategy_set((1, 2), 2)
    init = [{0: {(1, 1): F(1)}}, {0: {(1, 1): F(1)}}]
    res = iterate_best_response(g, (full, full), initial=init, max_rounds=50)
    assert res.cycled and not res.converged
    assert res.rounds == 4


def test_iterated_dominance_keeps_truthful():
    game, sets = _sqr_game(binary_trial_scenario())
    surviving = iterated_dominance(game, sets).surviving
    for agent in (0, 1):
        assert game.truthful(agent) in surviving[agent][0]


def test_contagion_wavefront_moves_one_rung_per_round():
    """On the biased ladder under the Maskin rule, round 1 removes the
    non-constant reports everywhere and the constant report 2 at type 0
    of each agent; each later round r removes that report at type r - 1
    of each agent only, one rung up the ladder, until round 11."""
    s = binary_trial_scenario()
    pert = build_ladder(
        s, 20, F(1, 20), [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10))], tail="renormalize"
    )
    game = Game(s, build_maskin(s, 1), pert)
    full = full_strategy_set((1, 2), s.n)
    result = iterated_dominance(game, (full, full))
    types = range(len(pert.partitions[0]))
    assert [len(pert.partitions[a]) for a in (0, 1)] == [11, 11]
    first = sorted(
        [(a, t, m) for a in (0, 1) for t in types for m in ((1, 2), (2, 1))]
        + [(0, 0, (2, 2)), (1, 0, (2, 2))]
    )
    later = [((0, r - 1, (2, 2)), (1, r - 1, (2, 2))) for r in range(2, 12)]
    assert result.eliminated == (tuple(first), *later, ())
    assert result.rounds == 11 == len(result.eliminated) - 1
    assert result == naive.iterated_dominance(naive.NaiveGame(game), (full, full))


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
RULES = {
    "maskin": lambda s: build_maskin(s, 1),
    "sqr": lambda s: build_status_quo(s, s.max_cost),
    "asqr": build_augmented_status_quo,
    "msqr": build_modified_status_quo,
}


@st.composite
def dominance_inputs(draw):
    """A scenario file's scenario under one of the four rules on a ladder
    of depth 2..200 with either tail, a drawn eta and one or two drawn
    preferred-outcome biases (plus the file's own biases, if it has a
    perturbation), its pairing partitions or drawn irregular ones; the
    full or the restricted sets.  The matching rule is
    defined on two states only.  Checks that take the dominance LP cost
    up to a second each, so the augmented rules are drawn on two states
    only, with their restricted sets;
    ``test_iterated_dominance_equals_the_oracle_through_the_lp`` runs
    their full sets once."""
    path = draw(st.sampled_from(SCENARIO_FILES))
    scenario, loaded = load_scenario(path)
    kind = draw(st.sampled_from(sorted(RULES) if scenario.n == 2 else ["sqr"]))
    depth = draw(st.integers(min_value=2, max_value=200))
    eta = draw(st.fractions(min_value=F(1, 200), max_value=F(1, 2), max_denominator=200))
    biases = {
        (agent, circ): BiasSpec(agent, circ, preferred_outcome_bias(scenario, state, factor))
        for agent, circ, state, factor in draw(st.lists(st.tuples(
            st.integers(0, 1), st.integers(0, depth), st.integers(0, scenario.n - 1),
            st.fractions(min_value=F(1, 2), max_value=40, max_denominator=8),
        ), min_size=1, max_size=2))
    }
    for b in loaded.biases if loaded else ():
        biases[(b.agent, b.circumstance)] = b
    tail = draw(st.sampled_from(["collapse", "renormalize"]))
    pert = build_ladder(scenario, depth, eta, list(biases.values()), tail=tail)
    if draw(st.booleans()):
        pert = replace(pert, partitions=(_irregular(draw, depth + 1), _irregular(draw, depth + 1)))
    mech = RULES[kind](scenario)
    full = scenario.n == 2 and kind in ("maskin", "sqr") and draw(st.booleans())
    return scenario, mech, pert, _sets(mech, scenario.n, full)


def _irregular(draw, size):
    """A partition of ``size`` circumstances into blocks of two but for a
    drawn first block and up to three drawn blocks of one or three, so
    that templates change, and bases jump, at drawn rungs."""
    sizes = [draw(st.sampled_from([1, 2]))] + [2] * size
    for i in draw(st.lists(st.integers(0, size // 2), max_size=3)):
        sizes[i] = draw(st.sampled_from([1, 3]))
    ends = [end for end in itertools.accumulate(sizes) if end < size] + [size]
    return tuple(tuple(range(lo, hi)) for lo, hi in zip([0] + ends, ends))


def _sets(mech, n, full):
    truth = tuple(range(1, n + 1))
    return tuple(full_strategy_set(ms, n) if full else restricted_strategy_set(ms, truth)
                 for ms in mech.messages)


@seed(36)
@settings(max_examples=40, deadline=None)
@given(dominance_inputs())
def test_iterated_dominance_equals_the_round_by_round_oracle(inputs):
    """Runs and the inductive jump change no result: on fresh games,
    ``iterated_dominance`` equals the type-by-type loop in its surviving
    lists, its rounds and every round's eliminations, and leaves the same
    memo, entry for entry and in the same order, and the same pools.
    Every memo entry's witness checks on naive values."""
    _assert_equals_round_by_round(*inputs)


def test_iterated_dominance_equals_the_oracle_through_the_lp():
    """The augmented rule's full sets on maskin-contagion's ladder at T =
    200: every check reaches the dominance LP, and the contagion runs to
    the top of the ladder, T/2 + 1 rounds."""
    s = binary_trial_scenario()
    mech = build_augmented_status_quo(s)
    pert = build_ladder(s, 200, F(1, 20), [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10))],
                        tail="renormalize")
    with mock.patch.object(equilibrium, "_simplex", wraps=equilibrium._simplex) as lp:
        assert _assert_equals_round_by_round(s, mech, pert, _sets(mech, 2, True)).rounds == 101
    assert lp.called


def _assert_equals_round_by_round(scenario, mech, pert, sets):
    game, oracle = Game(scenario, mech, pert), Game(scenario, mech, pert)
    game, oracle = Game(scenario, mech, pert), Game(scenario, mech, pert)
    with mock.patch.object(equilibrium, "_undominated", wraps=equilibrium._undominated) as spy:
        result = iterated_dominance(game, sets)
    expected = naive.round_by_round_dominance(oracle, sets)
    assert (result.surviving, result.rounds, result.eliminated) == expected
    assert list(game._dom_cache.items()) == list(oracle._dom_cache.items())
    assert game._pools == oracle._pools
    assert spy.call_count == len(game._dom_cache)
    for call, (keep, _, witness) in zip(spy.call_args_list, game._dom_cache.values()):
        _, agent, t, pool, opp_pools = call.args
        naive.assert_witnesses(game, agent, t, pool, [game._pools[i] for i in opp_pools],
                               game._pools[keep], witness)
    return result


def test_repeats_stop_where_the_round_read_something_else():
    """``_repeats`` on hand-made rounds of a 21-rung ladder (agent 1's
    type t meets agent 2's t - 1 and t; agent 2's t meets agent 1's t and
    t + 1; runs end at the top types).  A record group is ``(t, end,
    template, base, pool ids, pool id written)``."""
    s = binary_trial_scenario()
    pert = build_ladder(s, 20, F(1, 20), tail="renormalize")
    assert pert._type_runs == ((0, 1), (0, 10))
    # Agent 1 checks type 5 (pool 2, meeting pools 1 and 2) and writes
    # pool 1; agent 2 then reads agent 1's types 4 and 5 as pools 1 and 1.
    # The top of agent 1's reads is type 5, read before the write as pool
    # 2, so type 6 must hold pool 2 for the next round to repeat this one.
    record = ([(5, 6, 1, 4, (2, 1, 2), 1)], [(4, 5, 1, 4, (2, 1, 1), None)])
    for ahead, repeats in ((1, 0), (2, 5)):
        pools = [[1] * 6 + [ahead] * 5, [1] * 5 + [2] * 6]
        assert equilibrium._repeats(pert, pools, record) == repeats
    # Two read ranges of agent 1's pools, [2, 4) and [5, 7), with one
    # unread type between: one repeat reads type 4, a second would read
    # type 5 as if it were unread.
    pert = build_ladder(s, 40, F(1, 20), tail="renormalize")
    record = ([], [(2, 3, 1, 2, (2, 2, 2), None), (5, 6, 1, 5, (2, 2, 2), None)])
    assert equilibrium._repeats(pert, [[2] * 21, [2] * 21], record) == 1
    # A repeat moves each group's base with it.
    assert equilibrium._shifted(record, 3) == (
        [], [(5, 6, 1, 5, (2, 2, 2), None), (8, 9, 1, 8, (2, 2, 2), None)])


class CountingDict(dict):
    """A dominance memo that counts its reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def test_dominance_memo_reads_do_not_grow_with_depth():
    """On maskin-contagion's ladder (bias factor 10, reward 1, eta 1/100,
    renormalized tail), one call reads the dominance memo as often at T =
    50 as at T = 400, though it reports T/2 + 1 rounds: each run of equal
    types is one read, and the rounds that repeat the one before them one
    rung higher are not replayed."""
    s = binary_trial_scenario()
    reads, rounds = [], []
    for depth in (50, 400):
        pert = build_ladder(s, depth, F(1, 100),
                            [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10))], tail="renormalize")
        game = Game(s, build_maskin(s, 1), pert, _dom_cache=CountingDict())
        rounds.append(iterated_dominance(game, _strategy_sets(game)).rounds)
        reads.append(game._dom_cache.reads)
    assert rounds == [26, 201]
    assert reads[0] == reads[1]


def test_support_enumeration_mixed():
    a = [[F(1), F(-1)], [F(-1), F(1)]]
    b = [[F(-1), F(1)], [F(1), F(-1)]]
    x, y, va, vb = support_enumeration_nash(a, b)
    assert x == (F(1, 2), F(1, 2)) and y == (F(1, 2), F(1, 2))
    assert va == 0 and vb == 0


def test_support_enumeration_dominance_solvable():
    a = [[F(3), F(0)], [F(5), F(1)]]
    b = [[F(3), F(5)], [F(0), F(1)]]
    x, y, va, vb = support_enumeration_nash(a, b)
    assert x == (F(0), F(1)) and y == (F(0), F(1))
    assert va == 1 and vb == 1


def test_solve_linear():
    sol = solve_linear([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol == [F(2), F(1)]
    assert solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None
