"""The compiled perturbation tables against the naive per-circumstance
evaluator, by exact equality, plus the table invariants themselves."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_reference as naive
from robustmech import (
    BiasSpec,
    Game,
    ModelError,
    Perturbation,
    TrembleSpec,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_general_ladder,
    build_ladder,
    build_maskin,
    build_status_quo,
    expected_payoff,
    full_strategy_set,
    iterated_dominance,
    mislabel_signals,
    restricted_strategy_set,
    simple_bias_ladder,
)
from robustmech.experiments import preferred_outcome_bias

SCENARIO = binary_trial_scenario()
MECHANISMS = {
    "maskin": build_maskin(SCENARIO, 1),
    "sqr": build_status_quo(SCENARIO, SCENARIO.max_cost),
    "asqr": build_augmented_status_quo(SCENARIO),
}

values = st.fractions(min_value=-10, max_value=10, max_denominator=4)
costs = st.none() | st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def bias_specs(draw, size):
    """Up to two biases per agent, at distinct rungs, overriding
    utilities, the learning cost, or both."""
    out = []
    for agent in (0, 1):
        rungs = draw(st.lists(st.integers(0, size - 1), max_size=2, unique=True))
        for w in rungs:
            keys = draw(st.lists(
                st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=3, unique=True
            ))
            out.append(BiasSpec(agent, w, {k: draw(values) for k in keys}, draw(costs)))
    return out


@st.composite
def ladders(draw):
    depth = draw(st.integers(2, 12))
    eta = draw(st.fractions(min_value=F(1, 50), max_value=F(1, 2), max_denominator=100))
    tail = draw(st.sampled_from(("collapse", "renormalize")))
    return build_ladder(SCENARIO, depth, eta, draw(bias_specs(depth + 1)), tail=tail)


@st.composite
def zero_mass_ladders(draw):
    weights = draw(st.lists(st.integers(1, 5), min_size=3, max_size=10))
    zeros = draw(st.lists(
        st.integers(0, len(weights) - 1), min_size=1, max_size=len(weights) - 1, unique=True
    ))
    for w in zeros:
        weights[w] = 0
    pi = tuple(F(x, sum(weights)) for x in weights)
    return build_general_ladder(SCENARIO, pi, draw(bias_specs(len(pi))))


@st.composite
def coarse_partitions(draw):
    """Arbitrary partitions, so one type meets an opponent type at several
    circumstances and same-class circumstances merge."""
    weights = draw(st.lists(st.integers(0, 5), min_size=2, max_size=8).filter(any))
    pi = tuple(F(x, sum(weights)) for x in weights)
    partitions = []
    for _ in (0, 1):
        labels = draw(st.lists(st.integers(0, 2), min_size=len(pi), max_size=len(pi)))
        partitions.append(tuple(
            tuple(w for w in range(len(pi)) if labels[w] == k) for k in sorted(set(labels))
        ))
    return Perturbation(SCENARIO, pi, tuple(partitions), tuple(draw(bias_specs(len(pi)))))


def strategy_sets(kind, game):
    if kind == "maskin" or game.signals is not None:
        mech = game.mechanism
        return tuple(
            full_strategy_set(mech.messages[a], game.strategy_length(a)) for a in (0, 1)
        )
    rs = restricted_strategy_set(kind, SCENARIO.n)
    return rs, rs


def assert_matches_naive(game, sets, mixture_denominator):
    reference = naive.NaiveGame(game)
    assert iterated_dominance(game, sets, mixture_denominator) == naive.iterated_dominance(
        reference, sets, mixture_denominator
    )
    pert = game.perturbation
    for agent in (0, 1):
        opp_set = sets[1 - agent]
        opponents = [
            {u: {opp_set[u % len(opp_set)]: F(1)} for u in range(len(pert.partitions[1 - agent]))},
            {u: {r: F(1, len(opp_set)) for r in opp_set}
             for u in range(len(pert.partitions[1 - agent]))},
        ]
        for t in range(len(pert.partitions[agent])):
            for opponent in opponents:
                for s in sets[agent]:
                    if pert.type_prob(agent, t) == 0:
                        with pytest.raises(ModelError):
                            expected_payoff(game, agent, t, s, opponent)
                        continue
                    got = expected_payoff(game, agent, t, s, opponent)
                    want = naive.expected_payoff(reference, agent, t, s, opponent)
                    assert type(got) is F
                    assert got == want


@given(ladders(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)))
@settings(max_examples=25, deadline=None)
def test_ladders_match_naive_evaluator(pert, kind, mixture_denominator):
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    assert_matches_naive(game, strategy_sets(kind, game), mixture_denominator)


@given(zero_mass_ladders(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)))
@settings(max_examples=20, deadline=None)
def test_zero_mass_circumstances_match_naive_evaluator(pert, kind, mixture_denominator):
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    assert_matches_naive(game, strategy_sets(kind, game), mixture_denominator)


@given(coarse_partitions(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)))
@settings(max_examples=20, deadline=None)
def test_coarse_partitions_match_naive_evaluator(pert, kind, mixture_denominator):
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    assert_matches_naive(game, strategy_sets(kind, game), mixture_denominator)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20))
@settings(max_examples=10, deadline=None)
def test_signal_game_matches_naive_evaluator(pert, delta):
    game = Game(SCENARIO, MECHANISMS["maskin"], pert, signals=mislabel_signals(SCENARIO, delta))
    assert_matches_naive(game, strategy_sets("maskin", game), 0)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20),
       st.sampled_from(("sqr", "asqr")))
@settings(max_examples=10, deadline=None)
def test_tremble_game_matches_naive_evaluator(pert, tau, kind):
    mech = MECHANISMS[kind]
    game = Game(SCENARIO, mech, pert, tremble=TrembleSpec.uniform(tau, mech.messages))
    assert_matches_naive(game, strategy_sets(kind, game), 3)


def test_payoff_caches_do_not_grow_with_depth():
    mech = MECHANISMS["maskin"]
    full = full_strategy_set((1, 2), SCENARIO.n)
    sizes = []
    for depth in (20, 40):
        pert = simple_bias_ladder(
            SCENARIO, depth, F(1, 10), 0, preferred_outcome_bias(SCENARIO, 0, 10),
            tail="renormalize",
        )
        game = Game(SCENARIO, mech, pert)
        iterated_dominance(game, (full, full))
        sizes.append((len(game._inner_cache), len(game._u_cache)))
    assert sizes[0] == sizes[1]


def test_type_of_rejects_out_of_range_circumstances():
    p = build_ladder(SCENARIO, 4, F(1, 10))
    assert p.type_of(0, 4) == 2
    for circ in (-1, 5):
        with pytest.raises(ModelError):
            p.type_of(0, circ)


def test_negative_circumstance_mass_is_rejected():
    with pytest.raises(ModelError):
        build_general_ladder(SCENARIO, (F(1, 2), F(-1, 2), F(1)))


def test_same_class_circumstances_merge_into_one_weight():
    partitions = (((0, 1), (2,)), ((0, 1, 2),))
    pi = (F(1, 4), F(1, 4), F(1, 2))
    plain = Perturbation(SCENARIO, pi, partitions)
    assert plain.type_groups(0, 0) == ((0, ((0, F(1)),)),)
    assert plain.type_groups(1, 0) == ((0, ((0, F(1, 2)),)), (1, ((2, F(1, 2)),)))
    biased = Perturbation(SCENARIO, pi, partitions, (BiasSpec(0, 1, {}, F(3)),))
    assert biased.payoff_class(0, 1) == 0
    assert biased.payoff_class(1, 1) is None
    assert biased.type_groups(0, 0) == ((0, ((0, F(1, 2)), (1, F(1, 2)))),)
