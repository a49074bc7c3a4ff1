"""The compiled perturbation tables and the type-signature memos against
the naive per-circumstance evaluator, by exact equality, plus the table
invariants themselves.  The ladder masses, conditional weights, outcome
lotteries and truthful mass are compared with the per-rung construction
and the per-circumstance sums."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_reference as naive
from generators import uniform_scenario
from robustmech import (
    BiasSpec,
    Game,
    Lottery,
    ModelError,
    Perturbation,
    SignalStructure,
    TrembleSpec,
    best_response,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_general_ladder,
    build_ladder,
    build_maskin,
    build_status_quo,
    equilibrium_residuals,
    eta_of,
    expected_payoff,
    full_strategy_set,
    iterate_best_response,
    iterated_dominance,
    mislabel_signals,
    outcome_distribution,
    posterior,
    restricted_strategy_set,
    simple_bias_ladder,
    three_state_scenario,
    truthful_profile,
    verify_equilibrium,
)
from robustmech import equilibrium
from robustmech.equilibrium import truthful_probability_mass
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
def bias_specs(draw, size, n=2):
    """Up to two biases per agent, at distinct rungs, overriding
    utilities, the learning cost, or both."""
    out = []
    for agent in (0, 1):
        rungs = draw(st.lists(st.integers(0, size - 1), max_size=2, unique=True))
        for w in rungs:
            keys = draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3, unique=True
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


def assert_masses_match_naive(pert):
    """Every type's mass, conditional weights and posterior (keys, their
    order and exact values) against the sums over raw masses; a zero-mass
    type has no groups and no posterior."""
    reference = naive.NaivePerturbation(pert)
    for agent in (0, 1):
        for t in range(len(pert.partitions[agent])):
            mass = pert.type_prob(agent, t)
            assert type(mass) is F and mass == reference.type_prob(agent, t)
            groups = pert.type_groups(agent, t)
            assert groups == naive.type_groups(pert, agent, t)
            assert all(type(m) is F for _, cells in groups for _, m in cells)
            assert bool(groups) == bool(mass)
            if not mass:
                with pytest.raises(ModelError):
                    posterior(pert, agent, t)
                continue
            got = posterior(pert, agent, t)
            assert list(got.items()) == list(naive.posterior(pert, agent, t).items())
            assert all(type(x) is F for x in got.values())


def assert_matches_naive(game, sets, mixture_denominator):
    reference = naive.NaiveGame(game)
    want = naive.iterated_dominance(reference, sets, mixture_denominator)
    # Fresh dominance memo, then a warmed one that answers every check.
    assert iterated_dominance(game, sets, mixture_denominator) == want
    assert iterated_dominance(game, sets, mixture_denominator) == want
    pert = game.perturbation
    members = [list(itertools.product(*choices)) for choices in sets]
    for agent in (0, 1):
        opp_set = members[1 - agent]
        opponents = [
            {u: {opp_set[u % len(opp_set)]: F(1)} for u in range(len(pert.partitions[1 - agent]))},
            {u: {r: F(1, len(opp_set)) for r in opp_set}
             for u in range(len(pert.partitions[1 - agent]))},
        ]
        for t in range(len(pert.partitions[agent])):
            for opponent in opponents:
                for s in members[agent]:
                    if pert.type_prob(agent, t) == 0:
                        with pytest.raises(ModelError):
                            expected_payoff(game, agent, t, s, opponent)
                        continue
                    got = expected_payoff(game, agent, t, s, opponent)
                    want = naive.expected_payoff(reference, agent, t, s, opponent)
                    assert type(got) is F
                    assert got == want


def draw_profile(data, game, sets):
    """Per-type plays drawn from a small palette per agent, so that some
    types share their opponent's play and others do not; one palette
    entry carries a zero weight, which must not split a signature.  When
    the agent's set is restricted, the palette also plays a strategy from
    outside it, alone and mixed with one inside, whose own value the
    residual must evaluate afresh."""
    pert = game.perturbation
    profile = []
    for agent in (0, 1):
        members = list(itertools.product(*sets[agent]))
        pick = st.sampled_from(members)
        a, b = data.draw(pick), data.draw(pick)
        palette = [{a: F(1)}, {b: F(1)}]
        if a != b:
            palette += [{a: F(1), b: F(0)}, {a: F(1, 3), b: F(2, 3)}]
        full = full_strategy_set(game.mechanism.messages[agent], game.strategy_length(agent))
        outside = [s for s in itertools.product(*full) if s not in members]
        if outside:
            c = data.draw(st.sampled_from(outside))
            palette += [{c: F(1)}, {a: F(1, 2), c: F(1, 2)}]
        labels = st.integers(0, len(palette) - 1)
        profile.append({
            t: dict(palette[data.draw(labels)]) for t in range(len(pert.partitions[agent]))
        })
    return profile


def assert_best_responses_match_naive(game, sets, data, passes=("fresh", "warmed")):
    """Best responses, residuals and best-response iteration on a copy of
    the game with empty caches, then again with every memo warmed."""
    game = Game(game.scenario, game.mechanism, game.perturbation, game.signals, game.tremble)
    reference = naive.NaiveGame(game)
    pert = game.perturbation
    profile = draw_profile(data, game, sets)
    for _ in passes:
        for agent in (0, 1):
            for t in range(len(pert.partitions[agent])):
                args = (agent, t, profile[1 - agent], sets[agent])
                if pert.type_prob(agent, t) == 0:
                    with pytest.raises(ModelError):
                        best_response(game, *args)
                    continue
                got = best_response(game, *args)
                assert got == naive.best_response(reference, *args)
                got[0].clear()  # callers own the winners list
                assert best_response(game, *args)[0]
        want = naive.residuals(reference, profile, sets)
        assert equilibrium_residuals(game, profile, sets) == want
        report = verify_equilibrium(game, profile, sets)
        assert report.residuals == want
        assert report.best_deviation == {
            (agent, t): naive.best_response(reference, agent, t, profile[1 - agent],
                                            sets[agent])[0][0]
            for agent, t in want
        }
        for initial in (profile, None):
            res = iterate_best_response(game, sets, initial=initial, max_rounds=30)
            start = initial if initial is not None else truthful_profile(game)
            assert (res.profile, res.rounds, res.converged, res.cycled) == (
                naive.iterate_best_response(reference, sets, start, max_rounds=30)
            )
            if res.report is not None:
                assert res.report.residuals == naive.residuals(reference, res.profile, sets)


@given(ladders(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)), st.data())
@settings(max_examples=25, deadline=None)
def test_ladders_match_naive_evaluator(pert, kind, mixture_denominator, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets, mixture_denominator)
    assert_best_responses_match_naive(game, sets, data)


@given(zero_mass_ladders(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)),
       st.data())
@settings(max_examples=20, deadline=None)
def test_zero_mass_circumstances_match_naive_evaluator(pert, kind, mixture_denominator, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets, mixture_denominator)
    assert_best_responses_match_naive(game, sets, data)


@given(coarse_partitions(), st.sampled_from(sorted(MECHANISMS)), st.sampled_from((0, 3)),
       st.data())
@settings(max_examples=20, deadline=None)
def test_coarse_partitions_match_naive_evaluator(pert, kind, mixture_denominator, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets, mixture_denominator)
    assert_best_responses_match_naive(game, sets, data)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20), st.data())
@settings(max_examples=10, deadline=None)
def test_signal_game_matches_naive_evaluator(pert, delta, data):
    game = Game(SCENARIO, MECHANISMS["maskin"], pert, signals=mislabel_signals(SCENARIO, delta))
    sets = strategy_sets("maskin", game)
    assert_matches_naive(game, sets, 0)
    assert_best_responses_match_naive(game, sets, data)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20),
       st.sampled_from(("sqr", "asqr")), st.data())
@settings(max_examples=10, deadline=None)
def test_tremble_game_matches_naive_evaluator(pert, tau, kind, data):
    mech = MECHANISMS[kind]
    game = Game(SCENARIO, mech, pert, tremble=TrembleSpec.uniform(tau, mech.messages))
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets, 3)
    assert_best_responses_match_naive(game, sets, data)


FOUR = uniform_scenario((F(2, 5), F(3, 10), F(1, 5), F(1, 10)))
FOUR_MECHANISMS = {
    "sqr": build_status_quo(FOUR, FOUR.max_cost),
    "asqr": build_augmented_status_quo(FOUR),
}
taus = st.just(F(0)) | st.fractions(min_value=F(1, 20), max_value=F(1, 2), max_denominator=20)


@given(st.integers(2, 4), st.sampled_from(("sqr", "asqr")), taus, st.data())
@settings(max_examples=4, deadline=None)
def test_four_state_games_match_naive_evaluator(depth, kind, tau, data):
    """Four states, where the augmented restricted set has 500 members,
    with and without trembles; the naive iteration over 500 strategies is
    slow, so only with fresh memos."""
    eta = data.draw(st.fractions(min_value=F(1, 20), max_value=F(1, 2), max_denominator=20))
    pert = build_ladder(FOUR, depth, eta, data.draw(bias_specs(depth + 1, FOUR.n)))
    mech = FOUR_MECHANISMS[kind]
    tremble = TrembleSpec.uniform(tau, mech.messages) if tau else None
    game = Game(FOUR, mech, pert, tremble=tremble)
    rs = restricted_strategy_set(kind, FOUR.n)
    assert_best_responses_match_naive(game, (rs, rs), data, passes=("fresh",))


@st.composite
def private_signals(draw):
    """Signal structures whose agents may see different signals: agent 1
    draws from one or two signals and agent 2 from two or three, and
    state 0 puts positive mass on the pair (0, 1)."""
    sizes = (draw(st.integers(1, 2)), draw(st.integers(2, 3)))
    joint = {}
    for theta, q in enumerate(SCENARIO.prior):
        cells = [(theta, k1, k2) for k1 in range(sizes[0]) for k2 in range(sizes[1])]
        weights = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
        if theta == 0:
            weights[cells.index((0, 0, 1))] += 1
        elif not any(weights):
            weights[0] = 1
        for cell, x in zip(cells, weights):
            if x:
                joint[cell] = q * F(x, sum(weights))
    meanings = tuple(tuple(draw(st.integers(1, 2)) for _ in range(k)) for k in sizes)
    return SignalStructure(sizes, joint, meanings)


@given(st.integers(2, 4), private_signals(), st.sampled_from(("maskin", "sqr")), taus, st.data())
@settings(max_examples=8, deadline=None)
def test_private_signal_game_matches_naive_evaluator(depth, signals, kind, tau, data):
    """Signals with k1 != k2 and strategies of different lengths per
    agent (length one included), on full sets of the two-message
    mechanisms, with and without trembles."""
    pert = build_ladder(SCENARIO, depth, F(1, 10), data.draw(bias_specs(depth + 1)))
    mech = MECHANISMS[kind]
    tremble = TrembleSpec.uniform(tau, mech.messages) if tau else None
    game = Game(SCENARIO, mech, pert, signals=signals, tremble=tremble)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets, 0)
    assert_best_responses_match_naive(game, sets, data)


def _interior_pair():
    """Agent 1's types 2 = {w3, w4} and 3 = {w5, w6} of a renormalized
    ladder have the same conditional weights; type 3's w5 carries a
    zero learning cost."""
    pert = build_ladder(SCENARIO, 10, F(1, 10), [BiasSpec(0, 5, {}, F(0))], tail="renormalize")
    weights = [[m for _, cells in pert.type_groups(0, t) for _, m in cells] for t in (2, 3)]
    assert weights[0] == weights[1]
    return pert


def test_memo_separates_equal_weights_of_different_payoff_class():
    pert = _interior_pair()
    game = Game(SCENARIO, MECHANISMS["asqr"], pert)
    reference = naive.NaiveGame(game)
    sets = strategy_sets("asqr", game)
    opponent = truthful_profile(game)[1]
    values = []
    for t in (2, 3):
        got = best_response(game, 0, t, opponent, sets[0])
        assert got == naive.best_response(reference, 0, t, opponent, sets[0])
        values.append(got[1])
    assert values[0] != values[1]


def test_memo_separates_equal_weights_facing_different_play():
    pert = build_ladder(SCENARIO, 10, F(1, 10), tail="renormalize")
    game = Game(SCENARIO, MECHANISMS["asqr"], pert)
    reference = naive.NaiveGame(game)
    sets = strategy_sets("asqr", game)
    # Agent 2's types 0-2 tell the truth and the rest report (-2, -2), so
    # agent 1's type 3 = {w5, w6}, which meets agent 2's types 2 and 3,
    # faces other play than its type 2 = {w3, w4}, which meets types 1 and 2.
    opponent = {
        u: {(1, 2) if u <= 2 else (-2, -2): F(1)} for u in range(len(pert.partitions[1]))
    }
    values = []
    for t in (2, 3):
        got = best_response(game, 0, t, opponent, sets[0])
        assert got == naive.best_response(reference, 0, t, opponent, sets[0])
        values.append(got[1])
    assert values[0] != values[1]


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = [0]
    fn = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_payoff_caches_do_not_grow_with_depth(monkeypatch):
    """Cache and memo sizes, among them the coordinate rows and payoff
    tables best responses build, the best responses memoized on those
    tables, and the dominance checks are all the same at depths 50 and
    100."""
    checks = _counted(monkeypatch, equilibrium, "_is_dominated")

    three = three_state_scenario()
    mech = build_augmented_status_quo(three)
    rs = restricted_strategy_set("asqr", three.n)
    bias = BiasSpec(0, 0, preferred_outcome_bias(three, 1, 10 * mech.schedule.top),
                    cost=10**6 * three.payoffs[0].cost)
    br = []
    for depth in (50, 100):
        game = Game(three, mech, build_ladder(three, depth, F(1, 100), [bias]))
        result = iterate_best_response(game, (rs, rs))
        assert result.converged and result.report.is_equilibrium
        best = sum(len(table._best) for table in game._table_cache.values())
        br.append((len(game._inner_cache), len(game._u_cache), len(game._row_cache),
                   len(game._table_cache), best, result.rounds))
    assert br[0] == br[1]

    full = full_strategy_set((1, 2), SCENARIO.n)
    dominance = []
    for depth in (50, 100):
        pert = simple_bias_ladder(
            SCENARIO, depth, F(1, 10), 0, preferred_outcome_bias(SCENARIO, 0, 10),
            tail="renormalize",
        )
        game = Game(SCENARIO, MECHANISMS["maskin"], pert)
        checks[0] = 0
        iterated_dominance(game, (full, full))
        dominance.append((len(game._inner_cache), len(game._u_cache), len(game._dom_cache),
                          checks[0]))
    assert dominance[0] == dominance[1]


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


@given(
    st.integers(2, 60),
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    st.sampled_from(("collapse", "renormalize")),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_ladder_matches_per_rung_construction(depth, eta, tail, data):
    """Masses, tail mass, type masses, conditional weights and posteriors
    of the ratio/coefficient record equal those built from each rung's own
    power, all of them Fractions."""
    pert = build_ladder(SCENARIO, depth, eta, data.draw(bias_specs(depth + 1)), tail=tail)
    pi = pert.pi
    assert (pi, pert.tail_mass) == naive.ladder_masses(depth, eta, tail)
    assert type(pert.tail_mass) is F and all(type(p) is F for p in pi)
    assert eta_of(pert) == naive.eta_of(pert)
    assert_masses_match_naive(pert)


def assert_lotteries_match_naive(game, data):
    """Every state's lottery and the truthful mass, on the truthful
    profile and on a drawn one whose plays change mid-ladder and carry
    zero weights, against the per-circumstance sums."""
    reference = naive.NaiveGame(game)
    full = tuple(
        full_strategy_set(game.mechanism.messages[a], game.strategy_length(a)) for a in (0, 1)
    )
    for profile in (truthful_profile(game), draw_profile(data, game, full)):
        for j in range(SCENARIO.n):
            got = outcome_distribution(game, profile, j)
            assert got == naive.outcome_distribution(reference, profile, j)
            assert all(type(x) is F for x in got.weights)
        got = truthful_probability_mass(game, profile)
        assert type(got) is F
        assert got == naive.truthful_probability_mass(reference, profile)


@given(st.one_of(ladders(), zero_mass_ladders(), coarse_partitions()),
       st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=40, deadline=None)
def test_lotteries_and_truthful_mass_match_per_circumstance_sums(pert, kind, data):
    assert_lotteries_match_naive(Game(SCENARIO, MECHANISMS[kind], pert), data)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20), taus,
       st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=15, deadline=None)
def test_signal_and_tremble_lotteries_match_per_circumstance_sums(pert, delta, tau, kind, data):
    mech = MECHANISMS[kind]
    game = Game(SCENARIO, mech, pert, signals=mislabel_signals(SCENARIO, delta),
                tremble=TrembleSpec.uniform(tau, mech.messages) if tau else None)
    assert_lotteries_match_naive(game, data)


def test_ladder_arithmetic_does_not_grow_with_depth(monkeypatch):
    """At eta = 1/100, on either tail, the largest conditional-weight
    denominator and the number of parts the truthful lottery mixes are the
    same at depths 50 and 400."""
    mixed = []
    mix = Lottery.mix
    monkeypatch.setattr(Lottery, "mix", staticmethod(lambda parts: mixed.append(len(parts))
                                                     or mix(parts)))
    for tail in ("collapse", "renormalize"):
        sizes = []
        for depth in (50, 400):
            pert = build_ladder(SCENARIO, depth, F(1, 100), tail=tail)
            bits = max(
                m.denominator.bit_length()
                for agent in (0, 1)
                for t in range(len(pert.partitions[agent]))
                for _, cells in pert.type_groups(agent, t)
                for _, m in cells
            )
            game = Game(SCENARIO, MECHANISMS["sqr"], pert)
            mixed.clear()
            for j in range(SCENARIO.n):
                outcome_distribution(game, truthful_profile(game), j)
            sizes.append((bits, list(mixed)))
        assert sizes[0] == sizes[1]


def test_integer_masses_give_fraction_weights():
    """Masses given as ints are read as Fractions, so a conditional weight
    never becomes a float ``int / int``."""
    pert = Perturbation(SCENARIO, (0, 1), (((0, 1),), ((0,), (1,))))
    assert pert.type_groups(0, 0) == ((1, ((1, F(1)),)),)
    assert type(pert.type_groups(0, 0)[0][1][0][1]) is F
    assert type(pert.type_prob(0, 0)) is F and pert.type_prob(1, 0) == 0


def stored_fractions(value):
    """Every Fraction inside nested tuples, lists and dicts."""
    if isinstance(value, F):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from stored_fractions(item)
    elif isinstance(value, dict):
        for item in value.items():
            yield from stored_fractions(item)


def test_stored_numbers_do_not_grow_with_depth():
    """At eta = 1/100, on either tail, the largest denominator over every
    Fraction a ladder stores, its coefficients and compiled tables, is the
    same at depths 50 and 400; only ``tail_mass`` and ``scale`` grow."""
    for tail in ("collapse", "renormalize"):
        bits = []
        for depth in (50, 400):
            pert = build_ladder(SCENARIO, depth, F(1, 100), tail=tail)
            kept = {k: v for k, v in vars(pert).items() if k not in ("tail_mass", "scale")}
            bits.append(max(x.denominator.bit_length() for x in stored_fractions(kept)))
        assert bits[0] == bits[1]


@pytest.mark.parametrize("kwargs, message", [
    ({"ratio": F(0)}, "ratio and scale must be positive"),
    ({"scale": F(0)}, "ratio and scale must be positive"),
    ({"ratio": F(1, 2)}, "must sum to one"),
], ids=["ratio", "scale", "ratio-sum"])
def test_coefficients_that_do_not_fit_the_masses_are_rejected(kwargs, message):
    with pytest.raises(ModelError, match=message):
        Perturbation(SCENARIO, (F(1, 2), F(1, 2)), (((0, 1),), ((0, 1),)), **kwargs)
