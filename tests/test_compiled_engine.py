"""The compiled perturbation tables and the type-signature memos against
the naive per-circumstance evaluator, by exact equality, plus the table
invariants themselves.  The ladder masses, conditional weights, outcome
lotteries and truthful mass are compared with the per-rung construction
and the per-circumstance sums."""

import itertools
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_reference as naive
from naive_reference import PayoffTable
from generators import uniform_scenario, uniform_tremble
from robustmech import (
    BiasSpec,
    Game,
    Mechanism,
    ModelError,
    Perturbation,
    SignalStructure,
    TrembleSpec,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_general_ladder,
    build_ladder,
    build_maskin,
    build_status_quo,
    eta_of,
    full_strategy_set,
    implementation_metrics,
    is_c_bounded,
    iterate_best_response,
    iterated_dominance,
    mislabel_signals,
    outcome_distribution,
    restricted_strategy_set,
    revealing_signals,
    three_state_scenario,
    truthful_profile,
    tv_distance,
    verify_equilibrium,
)
from robustmech import engine, equilibrium
from robustmech.experiments import preferred_outcome_bias, run_experiment

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
    """Full sets for the Maskin rule and for games given a signal
    structure other than the revealing one; the restricted per-coordinate
    sets for the other rules on revealing signals, which a game given no
    signal structure plays."""
    mech = game.mechanism
    if kind == "maskin" or game.signals != revealing_signals(game.scenario):
        return tuple(
            full_strategy_set(mech.messages[a], game.strategy_length(a)) for a in (0, 1)
        )
    return tuple(restricted_strategy_set(mech.messages[a], game.truthful(a)) for a in (0, 1))


def assert_masses_match_naive(pert):
    """Every type's conditional weights (keys, their order and exact
    values) against the sums over raw masses, and their sums per opponent
    type against the posterior's positive entries; a type has no groups
    exactly when its raw mass is zero.  Two types share a kind exactly
    when their per-group ``(payoff class, weight)`` cells are equal.
    ``eta_of`` and ``is_c_bounded``, which read each bias once, equal the
    per-circumstance oracles, the cost bound at every cost in force and a
    step either side of it.  The generators' biases often change nothing:
    their base payoffs are 0 and their base cost 1, values the overrides
    and costs can take."""
    eta = eta_of(pert)
    assert eta == naive.eta_of(pert) and type(eta) is F
    costs = {pert.cost(agent, w) for agent in (0, 1) for w in range(pert.size)}
    for c_bar in {c + step for c in costs for step in (F(-1, 8), 0, F(1, 8))}:
        assert is_c_bounded(pert, c_bar) == naive.is_c_bounded(pert, c_bar)
    reference = naive.NaivePerturbation(pert)
    kinds = {}
    for agent in (0, 1):
        for t in range(len(pert.partitions[agent])):
            mass = reference.type_prob(agent, t)
            groups = pert.type_groups(agent, t)
            assert groups == naive.type_groups(pert, agent, t)
            type_cells = tuple(tuple((pert.payoff_class(agent, w), m) for w, m in group)
                               for _, group in naive.type_groups(pert, agent, t))
            kinds[(agent, t)] = (naive.type_kind(pert, agent, t), type_cells)
            assert all(type(m) is F for _, cells in groups for _, m in cells)
            assert bool(groups) == bool(mass)
            if not mass:
                continue
            got = {opp: sum(m for _, m in cells) for opp, cells in groups}
            want = naive.posterior(pert, agent, t)
            assert got == {opp: x for opp, x in want.items() if x}
            assert sum(got.values()) == 1
    pairs = set(kinds.values())
    assert len(pairs) == len({k for k, _ in pairs}) == len({c for _, c in pairs})


def checked_dominance(game, sets):
    """``iterated_dominance`` on a game with an empty dominance memo, with
    the witnesses of every check it made verified on naive values; each
    check adds one memo entry, in order."""
    assert not game._dom_cache
    with mock.patch.object(equilibrium, "_undominated", wraps=equilibrium._undominated) as spy:
        result = iterated_dominance(game, sets)
    assert spy.call_count == len(game._dom_cache)
    for call, (keep, _, witness) in zip(spy.call_args_list, game._dom_cache.values()):
        _, agent, t, pool, opp_pools = call.args
        naive.assert_witnesses(game, agent, t, pool, [game._pools[i] for i in opp_pools],
                               game._pools[keep], witness)
    assert iterated_dominance(game, sets) == result  # from the warmed memo
    return result


def assert_matches_naive(game, sets):
    """Exact dominance by mixtures: every verdict has a witness that
    checks, and the survivors lie inside the naive grid's at every
    denominator, the pure check (0) among them."""
    reference = naive.NaiveGame(game)
    surviving = checked_dominance(game, sets).surviving
    for mixture_denominator in (0, 3, 4, 10):
        grid = naive.iterated_dominance(reference, sets, mixture_denominator)[0]
        for agent in (0, 1):
            assert all(set(surviving[agent][t]) <= set(pool) for t, pool in grid[agent].items())
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
                    if reference.perturbation.type_prob(agent, t) == 0:
                        with pytest.raises(ModelError):
                            game.payoff_table(agent, t, opponent)
                        continue
                    got = game.payoff_table(agent, t, opponent).value(s)
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
                if reference.perturbation.type_prob(agent, t) == 0:
                    with pytest.raises(ModelError):
                        game.payoff_table(agent, t, profile[1 - agent])
                    continue
                got = game.payoff_table(agent, t, profile[1 - agent]).best(sets[agent])
                winners, value = naive.best_response(reference, agent, t, profile[1 - agent],
                                                     sets[agent])
                assert got == (tuple(winners), value)
        want = naive.residuals(reference, profile, sets)
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


@given(ladders(), st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=25, deadline=None)
def test_ladders_match_naive_evaluator(pert, kind, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets)
    assert_best_responses_match_naive(game, sets, data)


@given(zero_mass_ladders(), st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=20, deadline=None)
def test_zero_mass_circumstances_match_naive_evaluator(pert, kind, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets)
    assert_best_responses_match_naive(game, sets, data)


@given(coarse_partitions(), st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=20, deadline=None)
def test_coarse_partitions_match_naive_evaluator(pert, kind, data):
    assert_masses_match_naive(pert)
    game = Game(SCENARIO, MECHANISMS[kind], pert)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets)
    assert_best_responses_match_naive(game, sets, data)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20), st.data())
@settings(max_examples=10, deadline=None)
def test_signal_game_matches_naive_evaluator(pert, delta, data):
    game = Game(SCENARIO, MECHANISMS["maskin"], pert, signals=mislabel_signals(SCENARIO, delta))
    sets = strategy_sets("maskin", game)
    assert_matches_naive(game, sets)
    assert_best_responses_match_naive(game, sets, data)


@given(ladders(), st.fractions(min_value=0, max_value=F(1, 2), max_denominator=20),
       st.sampled_from(("sqr", "asqr")), st.data())
@settings(max_examples=10, deadline=None)
def test_tremble_game_matches_naive_evaluator(pert, tau, kind, data):
    mech = MECHANISMS[kind]
    game = Game(SCENARIO, mech, pert, tremble=uniform_tremble(tau, mech.messages))
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets)
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
    tremble = uniform_tremble(tau, mech.messages) if tau else None
    game = Game(FOUR, mech, pert, tremble=tremble)
    rs = restricted_strategy_set(mech.messages[0], game.truthful(0))
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
    tremble = uniform_tremble(tau, mech.messages) if tau else None
    game = Game(SCENARIO, mech, pert, signals=signals, tremble=tremble)
    sets = strategy_sets(kind, game)
    assert_matches_naive(game, sets)
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
        winners, value = naive.best_response(reference, 0, t, opponent, sets[0])
        assert game.payoff_table(0, t, opponent).best(sets[0]) == (tuple(winners), value)
        values.append(value)
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
        winners, value = naive.best_response(reference, 0, t, opponent, sets[0])
        assert game.payoff_table(0, t, opponent).best(sets[0]) == (tuple(winners), value)
        values.append(value)
    assert values[0] != values[1]


def _transfer_game(pays):
    """Agent 1 is paid only by transfers, ``pays[a][b - 1]`` when it sends
    ``a`` and agent 2 sends ``b``, under one constant outcome and no
    learning cost; agent 2 is paid nothing and keeps everything.  At the
    second coordinate agent 1 always sends 3.  A fresh game and its
    sets."""
    s = binary_trial_scenario(cost=0)
    msgs = (tuple(sorted(pays)), (1, 2))
    mech = Mechanism(
        "mixture",
        msgs,
        {(a, b): s.scf(0) for a in msgs[0] for b in msgs[1]},
        {(a, b): (F(pays[a][b - 1]), F(0)) for a in msgs[0] for b in msgs[1]},
    )
    return Game(s, mech), ((msgs[0], (3,)), full_strategy_set(msgs[1], 2))


def _dropped_witnesses(game, s):
    """The witnesses of ``s`` from every check that dropped it."""
    return [witness[s] for _, dropped, witness in game._dom_cache.values() if s in dropped]


MIXTURE_PAYS = {1: (12, 9), 2: (9, 12), 3: (10, 10)}


def test_a_grid_mixture_alone_eliminates():
    """Message 1 pays 12 when agent 2 sends 1 and 9 otherwise, message 2
    the reverse, message 3 pays 10, so (3, 3) is worth 10, and (1, 3)
    and (2, 3) each fall to 93/10 when agent 2 sends the other message at
    the first coordinate.  No member dominates (3, 3), and it is a best
    response to no pure selection, so the LP decides it: the half-half
    mixture of (1, 3) and (2, 3), worth 21/2 x 7/10 + 3 = 207/20 at
    worst, dominates it and is its witness, while the pure check (the
    naive grid at 0) keeps it.  The payoffs sit well above zero, so a
    margin that weighs the mixture and the dominated member on different
    scales decides otherwise."""
    game, sets = _transfer_game(MIXTURE_PAYS)
    with mock.patch.object(equilibrium, "_simplex", wraps=equilibrium._simplex) as lp:
        result = checked_dominance(game, sets)
    assert lp.called
    assert result.surviving[0][0] == [(1, 3), (2, 3)]
    assert result.eliminated == (((0, 0, (3, 3)),), ())
    assert _dropped_witnesses(game, (3, 3)) == [{(1, 3): F(1, 2), (2, 3): F(1, 2)}]
    assert naive.iterated_dominance(naive.NaiveGame(game), sets)[0][0][0] == [
        (1, 3), (2, 3), (3, 3)]
    assert_matches_naive(*_transfer_game(MIXTURE_PAYS))


def test_dominance_is_strict_at_the_boundary():
    """(3, 3) survives when its best dominator's ``sum_g min`` is 0
    exactly, and 1/1000 more eliminates it with that dominator as its
    witness.  Pure (step 1): (4, 3) pays what (3, 3) pays, 21/2, then
    21/2 + 1/1000; (3, 3) is best against no opponent strategy, so a
    strict check keeps it.  Mixed (step 3): the half-half mixture of
    (1, 3) and (2, 3) is worth 21/2 at worst against (3, 3)'s 21/2, then
    21/2 - 1/1000, and only the LP decides it."""
    e, h = F(1, 1000), F(21, 2)
    mixed = {1: (12, 9), 2: (9, 12)}
    cases = [
        ({**mixed, 3: (h, h), 4: (h, h)}, {**mixed, 3: (h, h), 4: (h + e, h + e)}, {(4, 3): 1}),
        ({**mixed, 3: (h, h)}, {**mixed, 3: (h - e, h - e)}, {(1, 3): F(1, 2), (2, 3): F(1, 2)}),
    ]
    for tie, above, sigma in cases:
        for pays in (tie, above):
            game, sets = _transfer_game(pays)
            with mock.patch.object(equilibrium, "_simplex", wraps=equilibrium._simplex) as lp:
                result = checked_dominance(game, sets)
            assert lp.called
            dropped = pays is above
            assert ((3, 3) in result.surviving[0][0]) != dropped
            assert _dropped_witnesses(game, (3, 3)) == ([sigma] if dropped else [])


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
    tables, the dominance checks and the interned plays and pools, are
    all the same at depths 50, 100 and 400; only the dominance rounds
    follow the depth, T/2 + 1 of them."""
    checks = _counted(monkeypatch, equilibrium, "_undominated")
    depths = (50, 100, 400)

    three = three_state_scenario()
    mech = build_augmented_status_quo(three)
    rs = restricted_strategy_set(mech.messages[0], (1, 2, 3))
    bias = BiasSpec(0, 0, preferred_outcome_bias(three, 1, 10 * mech.schedule.top),
                    cost=10**6 * three.payoffs[0].cost)
    br = []
    for depth in depths:
        game = Game(three, mech, build_ladder(three, depth, F(1, 100), [bias]))
        result = iterate_best_response(game, (rs, rs))
        assert result.converged and result.report.is_equilibrium
        best = sum(len(table._best) for table in game._table_cache.values())
        br.append((len(game._inner_cache), len(game._u_cache), len(game._row_cache),
                   len(game._table_cache), best, len(game._plays), len(game._pools),
                   result.rounds))
    assert br[0] == br[1] == br[2]

    full = full_strategy_set((1, 2), SCENARIO.n)
    dominance, rounds = [], []
    for depth in depths:
        pert = build_ladder(
            SCENARIO, depth, F(1, 10), [BiasSpec(0, 0, preferred_outcome_bias(SCENARIO, 0, 10))],
            tail="renormalize",
        )
        game = Game(SCENARIO, MECHANISMS["maskin"], pert)
        checks[0] = 0
        rounds.append(iterated_dominance(game, (full, full)).rounds)
        dominance.append((len(game._inner_cache), len(game._u_cache), len(game._dom_cache),
                          len(game._pools), len(game._plays), checks[0]))
    assert dominance[0] == dominance[1] == dominance[2]
    assert dominance[0][2:4] == (9, 3)
    assert rounds == [depth // 2 + 1 for depth in depths]


@pytest.mark.parametrize("circumstance", [0, 3])
def test_a_second_elimination_is_answered_by_the_memo(monkeypatch, circumstance):
    """A second run on the same game repeats the first's result from the
    dominance memo alone: no check is recomputed and no pool or memo
    entry is added.  The bias sits at the ladder's bottom or above it,
    and elimination runs from there to the top of the ladder."""
    checks = _counted(monkeypatch, equilibrium, "_undominated")
    pert = build_ladder(
        SCENARIO, 20, F(1, 20),
        [BiasSpec(0, circumstance, preferred_outcome_bias(SCENARIO, 0, 10))],
        tail="renormalize",
    )
    game = Game(SCENARIO, MECHANISMS["maskin"], pert)
    full = full_strategy_set((1, 2), SCENARIO.n)
    first = iterated_dominance(game, (full, full))
    assert first.rounds == (20 - circumstance) // 2 + 1 and any(first.eliminated)
    made, pools, memo = checks[0], len(game._pools), len(game._dom_cache)
    assert made > 0
    assert iterated_dominance(game, (full, full)) == first
    assert (checks[0], len(game._pools), len(game._dom_cache)) == (made, pools, memo)


def test_contagion_ladders_never_solve_an_lp(monkeypatch):
    """On maskin-contagion's ladders every member that no other member
    dominates is a best response to a pure selection of opponent
    strategies, so the dominance LP never runs."""
    checks = _counted(monkeypatch, equilibrium, "_undominated")
    solves = _counted(monkeypatch, equilibrium, "_simplex")
    for depth in (20, 100, 200):
        for grid in ({}, {"eta_grid": ("1/10", "1/37", "1/100")}):
            assert run_experiment("maskin-contagion", None, depth=depth, **grid).passed
    assert checks[0] > 0 and solves[0] == 0


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
    assert_masses_match_naive(pert)


@pytest.mark.parametrize("tail", ["collapse", "renormalize"])
def test_hypotheses_at_the_top_rung_and_at_zero_mass(tail):
    """A bias at the top rung perturbs agent 2's type {w8, w9}; a bias that
    sets the base payoff and cost leaves agent 1's type {w1, w2} normal; a
    bias on a zero-mass type adds nothing to ``eta_of`` but its cost still
    counts."""
    idle = BiasSpec(0, 1, {(0, 0): F(0)}, cost=F(1))
    top = BiasSpec(1, 9, {(1, 1): F(5)}, cost=F(3))
    pert = build_ladder(SCENARIO, 9, F(1, 7), [idle, top], tail=tail)
    assert_masses_match_naive(pert)
    assert eta_of(pert) == pert.pi[8] + pert.pi[9]
    assert is_c_bounded(pert, 3) and not is_c_bounded(pert, F(3) - F(1, 10**6))
    zero_top = build_general_ladder(SCENARIO, (F(1, 2), F(1, 2), F(0), F(0)),
                                    [BiasSpec(0, 3, {(0, 1): F(2)}, cost=F(4))])
    assert_masses_match_naive(zero_top)
    assert eta_of(zero_top) == 0
    assert not is_c_bounded(zero_top, 3)


def assert_lotteries_match_naive(game, data):
    """Every state's lottery, the largest TV distance to the target and
    the truthful mass, on the truthful profile and on a drawn one whose
    plays change mid-ladder and carry zero weights, against the
    per-circumstance sums; the metrics are the same for the profile given
    as plays and as play ids."""
    reference = naive.NaiveGame(game)
    full = tuple(
        full_strategy_set(game.mechanism.messages[a], game.strategy_length(a)) for a in (0, 1)
    )
    for profile in (truthful_profile(game), draw_profile(data, game, full)):
        expected = [naive.outcome_distribution(reference, profile, j) for j in range(SCENARIO.n)]
        got = outcome_distribution(game, profile)
        assert got == expected
        assert all(type(x) is F for lot in got for x in lot.weights)
        mass, tv = implementation_metrics(game, profile)
        assert type(mass) is F and type(tv) is F
        assert tv == max(tv_distance(lot, SCENARIO.scf(j)) for j, lot in enumerate(expected))
        assert mass == naive.truthful_probability_mass(reference, profile)
        assert implementation_metrics(game, game.play_ids(profile)) == (mass, tv)


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
                tremble=uniform_tremble(tau, mech.messages) if tau else None)
    assert_lotteries_match_naive(game, data)


def test_ladder_arithmetic_does_not_grow_with_depth(monkeypatch):
    """At eta = 1/100, on either tail, the largest conditional-weight
    denominator, and the groups and terms that the integer walks of the
    truthful lotteries and of the implementation metrics sum, are the
    same at depths 50 and 400."""
    walked = []
    groups_of = engine.play_groups

    def counted(game, profile):
        groups = groups_of(game, profile)
        walked.append((len(groups), sum(len(game._plays[i]) * len(game._plays[j])
                                        for i, j in groups)))
        return groups

    monkeypatch.setattr(engine, "play_groups", counted)
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
            walked.clear()
            outcome_distribution(game, truthful_profile(game))
            implementation_metrics(game, truthful_profile(game))
            sizes.append((bits, list(walked)))
        assert len(sizes[0][1]) == 2
        assert sizes[0] == sizes[1]


@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_verify_equilibrium_walks_the_circumstances_once(monkeypatch, kind):
    """A report's truthful mass and TV distance come from one walk of the
    circumstances: one ``play_groups`` and one ``lottery_nums`` call per
    ``verify_equilibrium``, on the truthful profile and on one whose plays
    mix and change mid-ladder."""
    groups = _counted(monkeypatch, engine, "play_groups")
    walks = _counted(monkeypatch, engine, "lottery_nums")
    game = Game(SCENARIO, MECHANISMS[kind], build_ladder(SCENARIO, 12, F(1, 10)))
    sets = strategy_sets(kind, game)
    mixed = [
        {t: {game.truthful(a): F(1, 3), (1,) * SCENARIO.n: F(2, 3)} if t > 4
         else {game.truthful(a): F(1)} for t in range(len(part))}
        for a, part in enumerate(game.perturbation.partitions)
    ]
    for profile in (truthful_profile(game), mixed):
        groups[0] = walks[0] = 0
        report = verify_equilibrium(game, profile, sets)
        assert (groups[0], walks[0]) == (1, 1)
        assert (report.truthful_mass, report.max_tv) == implementation_metrics(game, profile)


@st.composite
def tremble_specs(draw, messages):
    """Uniform noise, point noise, whose other entries are zero, or noise
    drawn per message with zero entries allowed, at a tremble
    probability from 0 to 19/20."""
    tau = draw(st.fractions(min_value=0, max_value=F(19, 20), max_denominator=20))
    kind = draw(st.sampled_from(("uniform", "point", "drawn")))
    if kind == "uniform":
        return uniform_tremble(tau, messages)
    if kind == "point":
        return TrembleSpec.point(tau, messages, tuple(draw(st.sampled_from(ms)) for ms in messages))
    noise = []
    for ms in messages:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(ms), max_size=len(ms)).filter(any))
        noise.append({m: F(w, sum(weights)) for m, w in zip(ms, weights)})
    return TrembleSpec(tau, tuple(noise))


@given(st.sampled_from(sorted(MECHANISMS)), st.data())
@settings(max_examples=60, deadline=None)
def test_tremble_apply_matches_realized_pair_sums(kind, data):
    """At every intended pair, ``TrembleSpec.apply``'s lottery and both
    transfers equal the naive sums over every realized pair
    (``NaiveGame.pair_values``), and every one is a ``Fraction``.  Agent
    2's transfers may be skewed by thirds that depend on the pair, so
    the two agents' transfers differ."""
    mech = MECHANISMS[kind]
    if data.draw(st.booleans()):
        mech = replace(mech, transfer={m: (t1, t2 / 3 + m[0] - 2 * m[1])
                                       for m, (t1, t2) in mech.transfer.items()})
    tremble = data.draw(tremble_specs(mech.messages))
    played = tremble.apply(mech)
    reference = naive.NaiveGame(Game(SCENARIO, mech, tremble=tremble))
    for m1 in mech.messages[0]:
        for m2 in mech.messages[1]:
            t1, t2, lottery = reference.pair_values(m1, m2)
            assert (played.t(0, m1, m2), played.t(1, m1, m2), played.g(m1, m2)) == (t1, t2, lottery)
            outputs = (*played.transfer[(m1, m2)], *played.g(m1, m2).weights)
            assert all(type(x) is F for x in outputs)


def test_integer_masses_give_fraction_weights():
    """Masses given as ints are read as Fractions, so a conditional weight
    never becomes a float ``int / int``."""
    pert = Perturbation(SCENARIO, (0, 1), (((0, 1),), ((0,), (1,))))
    assert pert.type_groups(0, 0) == ((1, ((1, F(1)),)),)
    assert type(pert.type_groups(0, 0)[0][1][0][1]) is F
    assert type(pert.pi[1]) is F and pert.type_groups(1, 0) == ()


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


def test_masses_by_compares_no_coefficients(monkeypatch):
    """The coefficient runs are recorded at construction, so summing a
    ladder's masses by labels compares labels only: the number of
    ``Fraction`` comparisons is the same at depths 50 and 400.  Labels
    must cover every circumstance."""
    calls = [0]
    eq = F.__eq__

    def counting(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(F, "__eq__", counting)
    counts = []
    for depth in (50, 400):
        pert = build_ladder(SCENARIO, depth, F(1, 100), tail="renormalize")
        calls[0] = 0
        pert.masses_by([w % 2 for w in range(pert.size)])
        counts.append(calls[0])
    assert counts[0] == counts[1]
    with pytest.raises(ModelError, match="one label per circumstance"):
        pert.masses_by([0] * (pert.size - 1))


@st.composite
def payoff_tables(draw):
    """A table over messages 1..3 at 1-4 coordinates, with entries from a
    coarse grid so that ties are common, a zero or positive cost, and a
    non-empty, possibly restricted, choice of messages per coordinate."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([F(k, 2) for k in range(-2, 3)])
    coords = tuple({m: draw(entry) for m in (1, 2, 3)} for _ in range(n))
    cost = draw(st.sampled_from([F(0), F(1, 2), F(3, 2)]))
    choices = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from((1, 2, 3)), min_size=1)))) for _ in range(n)
    )
    return PayoffTable.from_fractions(coords, cost), choices


@given(payoff_tables(), st.sampled_from([F(0), F(1, 4), F(1, 2), F(2)]))
@settings(max_examples=200, deadline=None)
def test_near_best_matches_brute_force(drawn, slack):
    """``near_best`` lists exactly the members within ``slack`` of the best
    value, in canonical order; at slack 0 they are the best response's
    winners."""
    table, choices = drawn
    assert table.near_best(choices, slack) == naive.near_best(table, choices, slack)
    assert table.near_best(choices, 0) == list(table.best(choices)[0])


@pytest.mark.parametrize("slack, kept", [
    (F(1, 2), [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]),
    (F(1, 2) - F(1, 1000), [(1, 1, 1)]),
])
def test_near_best_keeps_a_member_whose_room_is_exactly_the_cost(slack, kept):
    """The best member is the constant ``(1, 1, 1)``, worth 3.  At slack
    1/2 the threshold is 5/2, and each non-constant member that sends 1
    first has entries summing to 3: room 1/2 over the threshold, exactly
    the cost, whether the first differing message comes second or third.
    It is kept at that slack and dropped just below it."""
    table = PayoffTable.from_fractions(
        ({1: F(1), 2: F(0)}, {1: F(1), 2: F(1)}, {1: F(1), 2: F(1)}), F(1, 2)
    )
    choices = ((1, 2),) * 3
    assert table.near_best(choices, slack) == naive.near_best(table, choices, slack) == kept


# Primes, so the denominators of one table are unrelated and large.
PRIMES = (3, 7, 10_007, 65_537, 999_983, 2**31 - 1, 2**61 - 1)


@st.composite
def exact_tables(draw):
    """Exact entries at 1-4 coordinates over messages -1, 1, 2, 3, whose
    denominators are products of unrelated large primes, drawn from a
    small pool so that ties are common; a cost of zero or of another
    such denominator; a non-empty, possibly restricted, choice per
    coordinate; and a mixture over the members, whose weights need not
    sum to one."""
    msgs = (-1, 1, 2, 3)
    big = st.builds(
        lambda num, p, q: F(num, p * q),
        st.integers(-(10**20), 10**20), st.sampled_from(PRIMES), st.sampled_from(PRIMES),
    )
    pool = draw(st.lists(big, min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    coords = tuple({m: draw(st.sampled_from(pool) | big) for m in msgs} for _ in range(n))
    cost = draw(st.just(F(0)) | st.builds(abs, big))
    choices = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(msgs), min_size=1)))) for _ in range(n)
    )
    members = list(itertools.product(*choices))
    weights = st.fractions(min_value=0, max_value=1, max_denominator=997)
    mixture = draw(st.dictionaries(st.sampled_from(members), weights, min_size=1, max_size=3))
    return coords, cost, choices, mixture


@given(exact_tables(), st.integers(0, 10**12), st.integers(0, 255), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_payoff_table_matches_fraction_evaluation(drawn, slack_num, pick, shift):
    """The integer table against brute-force ``Fraction`` sums of the same
    entries: every value, the best value and maximizers, ``near_best``,
    and the deficits of every member and of a mixture, all equal exactly
    and of type ``Fraction``.  ``near_best`` runs under two slacks: one
    drawn at random, whose denominator carries the prime 1,000,003, which
    no entry uses, so it does not divide the table's, and one within
    ``3 / (1,000,003 x den)`` of a member's deficit, where a threshold
    rounded the wrong way would keep or drop that member, or on it."""
    coords, cost, choices, mixture = drawn
    table = PayoffTable.from_fractions(coords, cost)
    assert table.entries() == coords and F(table.cost_num, table.den) == cost
    value = {
        s: sum(cell[m] for cell, m in zip(coords, s)) - (0 if len(set(s)) == 1 else cost)
        for s in itertools.product(*full_strategy_set((-1, 1, 2, 3), len(coords)))
    }
    for s, v in value.items():
        assert table.value(s) == v and type(table.value(s)) is F
    members = list(itertools.product(*choices))
    best = max(value[s] for s in members)
    winners, best_value = table.best(choices)
    assert winners == tuple(s for s in members if value[s] == best)
    assert best_value == best and type(best_value) is F
    far = F(slack_num, 1_000_003)
    assert far == 0 or table.den % far.denominator
    near = best - value[members[pick % len(members)]] + F(shift, 1_000_003 * table.den)
    for slack in (far, max(near, F(0))):
        assert table.near_best(choices, slack) == [s for s in members if value[s] >= best - slack]
    for s in members:
        deficit = table.deficit(choices, {s: 1})
        assert deficit == best - value[s] and type(deficit) is F
    residual = table.deficit(choices, mixture)
    assert residual == best - sum(w * value[s] for s, w in mixture.items())
    assert type(residual) is F
