"""Work that best-response runs on a ladder do only once: payoff rows
shared across the games of one eta grid, best-response rounds that
recheck only the neighbours of the last round's movers, type kinds
that key the payoff-table memo without hashing a weight, and rows
converted to integers once, so that a type's table sums no
``Fraction``."""

import fractions
from fractions import Fraction as F

import pytest

from robustmech import (
    BiasSpec,
    Game,
    ModelError,
    Perturbation,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_ladder,
    iterate_best_response,
    iterated_dominance,
    restricted_strategy_set,
    three_state_scenario,
    verify_equilibrium,
)
from robustmech import equilibrium, experiments
from robustmech.engine import full_strategy_set
from robustmech.experiments import preferred_outcome_bias
from robustmech.mechanisms import Mechanism

import naive_reference as naive

THREE = three_state_scenario()
MECH = build_augmented_status_quo(THREE)
SETS = tuple(restricted_strategy_set(ms, (1, 2, 3)) for ms in MECH.messages)
# thm2's default bias and eta grid on the three-state scenario.
BIAS = [BiasSpec(0, 0, preferred_outcome_bias(THREE, 1, 10 * MECH.schedule.top),
                 cost=10**6 * THREE.payoffs[0].cost)]
ETAS = ("1/1000", "1/100", "1/20", "1/10")


def _ladder(eta, biases=BIAS, depth=50):
    return build_ladder(THREE, depth, eta, biases)


def _outcome(result):
    report = result.report
    return (result.profile, result.rounds, result.converged, result.cycled, result.moves,
            report.residuals, report.best_deviation, report.truthful_mass, report.max_tv)


@pytest.mark.parametrize("eta", ETAS)
def test_shared_rows_give_the_fresh_game_result(eta):
    """A game that reuses the rows the other etas' games built matches a
    game built from nothing, report and all."""
    others = [e for e in ETAS if e != eta]
    game = Game(THREE, MECH, _ladder(others[0]))
    iterate_best_response(game, SETS)
    for other in others[1:]:
        game = game.with_perturbation(_ladder(other))
        iterate_best_response(game, SETS)
    rows = len(game._row_cache)
    game = game.with_perturbation(_ladder(eta))
    fresh = Game(THREE, MECH, _ladder(eta))
    assert _outcome(iterate_best_response(game, SETS)) == _outcome(
        iterate_best_response(fresh, SETS))
    assert len(game._row_cache) == rows == len(fresh._row_cache)


def test_shared_rows_keep_per_perturbation_tables():
    first = Game(THREE, MECH, _ladder(ETAS[0]))
    second = first.with_perturbation(_ladder(ETAS[1]))
    for name in ("_u_cache", "_row_cache", "_inner_cache"):
        assert getattr(second, name) is getattr(first, name)
    for name in ("_table_cache", "_dom_cache"):
        assert getattr(second, name) is not getattr(first, name)
    assert (second.signals, second.tremble) == (first.signals, first.tremble)


def test_shared_rows_need_equal_biases_and_the_same_scenario():
    game = Game(THREE, MECH, _ladder(ETAS[0]))
    other_bias = [BiasSpec(0, 0, BIAS[0].u_overrides, cost=F(0))]
    with pytest.raises(ModelError, match="equal biases"):
        game.with_perturbation(_ladder(ETAS[1], other_bias))
    with pytest.raises(ModelError, match="equal biases"):
        game.with_perturbation(_ladder(ETAS[1], []))
    # An equal scenario that is another object does not share the rows.
    twin = three_state_scenario()
    with pytest.raises(ModelError, match="different scenario"):
        game.with_perturbation(build_ladder(twin, 50, ETAS[1], BIAS))
    # An equal bias that is another object shares them.
    equal = [BiasSpec(0, 0, dict(BIAS[0].u_overrides), BIAS[0].cost)]
    shared = game.with_perturbation(_ladder(ETAS[1], equal))
    assert shared._row_cache is game._row_cache


def _recorded_reads(monkeypatch):
    """The ``(agent, type)`` of each payoff-table read from now on, and
    ``None`` where a verification starts."""
    calls = []
    payoff_table, verify_equilibrium = Game.payoff_table, equilibrium.verify_equilibrium

    def recorded(game, agent, t, *args):
        calls.append((agent, t))
        return payoff_table(game, agent, t, *args)

    def verified(*args):
        calls.append(None)
        return verify_equilibrium(*args)

    monkeypatch.setattr(Game, "payoff_table", recorded)
    monkeypatch.setattr(equilibrium, "verify_equilibrium", verified)
    return calls


@pytest.mark.parametrize("eta", ETAS)
def test_payoff_table_reads_per_run_do_not_grow_with_depth(monkeypatch, eta):
    """A run reads one table per stretch of equal keys, in its rounds and
    in its verification alike, and a ladder has as many stretches at any
    depth."""
    calls = _recorded_reads(monkeypatch)
    counts = []
    for depth in (50, 400):
        calls.clear()
        result = iterate_best_response(Game(THREE, MECH, _ladder(eta, depth=depth)), SETS)
        assert result.converged and result.rounds == 2
        counts.append((calls.index(None), len(calls)))
    assert counts[0] == counts[1]


def test_round_two_reads_only_stretches_that_hold_a_neighbour_of_a_mover(monkeypatch):
    """Round 1 reads every positive-mass type's stretch; round 2 reads only
    the stretches of the opponent types that meet a type round 1 moved,
    the verification aside."""
    calls = _recorded_reads(monkeypatch)
    pert = _ladder(ETAS[1])
    first = iterate_best_response(Game(THREE, MECH, pert), SETS, max_rounds=1)
    assert not first.converged and None not in calls
    round_one = list(calls)
    calls.clear()
    result = iterate_best_response(Game(THREE, MECH, pert), SETS, max_rounds=2)
    assert result.converged and result.rounds == 2
    assert calls[:len(round_one)] == round_one
    round_two = calls[len(round_one):calls.index(None)]
    neighbours = {(1 - a, u) for a, t in result.moves[0] for u, _ in pert.type_groups(a, t)}
    assert result.moves[0] == first.moves[0] == ((0, 0),)
    assert round_two == sorted(neighbours) == [(1, 0)]
    # Round 1 read fewer tables than there are positive-mass types.
    assert len(round_one) < sum(bool(pert.type_groups(a, t)) for a in (0, 1)
                                for t in range(len(pert.partitions[a])))


def test_round_moves_record_the_changed_types():
    """Round 1 moves only the biased type, agent 1's {w0}; the last round
    of a converged run moves nothing."""
    for eta in ETAS:
        result = iterate_best_response(Game(THREE, MECH, _ladder(eta)), SETS)
        assert result.converged
        assert result.moves == (((0, 0),), ())
        assert len(result.moves) == result.rounds


def test_cycling_run_moves_in_every_round():
    s = binary_trial_scenario(cost=0)
    outcome = {(a, b): s.scf(0) for a in (1, 2) for b in (1, 2)}
    transfer = {(a, b): (F(1) if a == b else F(-1), F(-1) if a == b else F(1))
                for a in (1, 2) for b in (1, 2)}
    game = Game(s, Mechanism("pennies", ((1, 2), (1, 2)), outcome, transfer))
    full = full_strategy_set((1, 2), 2)
    init = [{0: {(1, 1): F(1)}}, {0: {(1, 1): F(1)}}]
    result = iterate_best_response(game, (full, full), initial=init, max_rounds=50)
    assert result.cycled and len(result.moves) == result.rounds == 4
    assert all(result.moves)


def test_interior_rungs_share_a_kind():
    pert = _ladder(ETAS[1])
    for agent in (0, 1):
        interior = {naive.type_kind(pert, agent, t)
                    for t in range(1, len(pert.partitions[agent]) - 1)}
        assert len(interior) == 1
    # Agent 1's {w0} is biased, so it is a kind of its own.
    assert naive.type_kind(pert, 0, 0) != naive.type_kind(pert, 0, 1)


def _mixture_game():
    """``test_a_grid_mixture_alone_eliminates``'s game: on its restricted
    sets, only the half-half mixture eliminates anything."""
    s = binary_trial_scenario(cost=0)
    msgs = ((1, 2, 3), (1, 2))
    pays = {1: (12, 9), 2: (9, 12), 3: (10, 10)}
    mech = Mechanism("mixture", msgs, {(a, b): s.scf(0) for a in msgs[0] for b in msgs[1]},
                     {(a, b): (F(pays[a][b - 1]), F(0)) for a in msgs[0] for b in msgs[1]})
    return s, mech, None, (((1, 2, 3), (3,)), full_strategy_set(msgs[1], 2))


def _contagion_game():
    """A renormalized two-state ladder whose pools shrink over rounds."""
    s = binary_trial_scenario()
    mech = build_augmented_status_quo(s)
    pert = build_ladder(s, 10, F(1, 10), [BiasSpec(0, 0, preferred_outcome_bias(s, 0, 10))],
                        tail="renormalize")
    return s, mech, pert, tuple(restricted_strategy_set(ms, (1, 2)) for ms in mech.messages)


@pytest.mark.parametrize("build", [_mixture_game, _contagion_game])
def test_one_game_eliminates_as_fresh_games_do(build):
    """A game's pool ids live beside its dominance memo and outlive a
    call: runs on one game with full sets, then restricted sets, the same
    sets with their coordinates reversed (pools of the same sizes), then
    full sets again each give a fresh game's result."""
    s, mech, pert, restricted = build()
    full = tuple(full_strategy_set(ms, s.n) for ms in mech.messages)
    reversed_sets = tuple(choices[::-1] for choices in restricted)
    game = Game(s, mech, pert)
    for sets in (full, restricted, reversed_sets, full):
        assert iterated_dominance(game, sets) == iterated_dominance(Game(s, mech, pert), sets)


def test_equal_weights_of_another_payoff_class_are_another_kind():
    """Agent 1's types {w3, w4} and {w5, w6} of a renormalized ladder have
    equal conditional weights; a bias at w5 alone splits their kinds."""
    s = binary_trial_scenario()
    plain = build_ladder(s, 10, F(1, 10), tail="renormalize")
    biased = build_ladder(s, 10, F(1, 10), [BiasSpec(0, 5, {}, F(0))], tail="renormalize")
    for pert in (plain, biased):
        weights = [[m for _, cells in pert.type_groups(0, t) for _, m in cells] for t in (2, 3)]
        assert weights[0] == weights[1]
    assert naive.type_kind(plain, 0, 2) == naive.type_kind(plain, 0, 3)
    assert naive.type_kind(biased, 0, 2) != naive.type_kind(biased, 0, 3)


def test_play_ids_are_equal_iff_the_plays_are():
    """``Game.play_id`` gives two plays one id exactly when they are
    equal as dicts: a zero weight tells a play from the one without it,
    the order of the keys does not, and an int is an id already."""
    game = Game(THREE, MECH, _ladder(ETAS[1]))
    a, b = (1, 2, 3), (1, 1, 1)
    pure = game.play_id({a: F(1)})
    assert game.play_id({a: F(1), b: F(0)}) != pure
    assert game._plays[game.play_id({a: F(1), b: F(0)})] == game._plays[pure] == {a: F(1)}
    assert game.play_id({a: F(1, 3), b: F(2, 3)}) == game.play_id({b: F(2, 3), a: F(1, 3)})
    assert game.play_id({a: 1}) == pure
    assert game.play_id(pure) == pure
    # A side of ids is copied; a side of plays, list or dict, is read.
    n0, n1 = map(len, game.perturbation.partitions)
    sides = [[pure] * n0, [{a: F(1)}] * n1]
    ids = game.play_ids(sides)
    assert ids == [[pure] * n0, [pure] * n1] and ids[0] is not sides[0]
    assert game.play_ids([dict(enumerate(side)) for side in sides]) == ids


def test_best_response_rounds_hash_no_fraction(monkeypatch):
    """Memo keys and the verification walk hold ints and strategies: a
    whole best-response run, with its report, hashes no ``Fraction``."""
    game = Game(THREE, MECH, _ladder(ETAS[1]))
    keyed = Game(THREE, MECH, game.perturbation)
    opponent = {u: {(1, 2, 3): F(1)} for u in range(len(game.perturbation.partitions[1]))}
    table = keyed.payoff_table(0, 1, opponent)
    truth = keyed.play_id({(1, 2, 3): F(1)})
    kind = naive.type_kind(keyed.perturbation, 0, 1)
    assert keyed._table_cache == {(0, kind, (truth, truth)): table}
    hashed = [0]
    fraction_hash = fractions.Fraction.__hash__

    def counted(self):
        hashed[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(fractions.Fraction, "__hash__", counted)
    result = iterate_best_response(game, SETS)
    assert result.converged and result.report.is_equilibrium
    assert hashed[0] == 0
    assert F(1, 3) in {F(1, 3)} and hashed[0] == 2


def test_verification_walks_the_circumstances_once(monkeypatch):
    """The truthful mass and every state's lottery come from one
    ``masses_by`` walk, labelled by small-int play pairs."""
    labels = []
    masses_by = Perturbation.masses_by

    def recorded(self, walked):
        labels.append(walked)
        return masses_by(self, walked)

    game = Game(THREE, MECH, _ladder(ETAS[1]))
    result = iterate_best_response(game, SETS)
    monkeypatch.setattr(Perturbation, "masses_by", recorded)
    report = verify_equilibrium(game, result.profile, SETS)
    assert len(labels) == 1
    assert set(labels[0]) == {(0, 0), (1, 0)}
    assert (report.truthful_mass, report.max_tv) == (
        result.report.truthful_mass, result.report.max_tv)


def test_tables_on_warm_rows_add_no_fraction(monkeypatch):
    """With the rows a type meets already built, a fresh payoff table for
    it, its best response and its near-best members run on integers:
    no ``Fraction`` is added."""
    game = Game(THREE, MECH, _ladder(ETAS[1]))
    sides = len(game.perturbation.partitions[1])
    for r in ((1, 2, 3), (1, 1, 1)):
        game.payoff_table(0, 1, {u: {r: F(1)} for u in range(sides)})
    rows = len(game._row_cache)
    opponent = {u: {(1, 2, 3): F(1, 3), (1, 1, 1): F(2, 3)} for u in range(sides)}
    added = [0]
    for name in ("__add__", "__radd__"):
        original = getattr(fractions.Fraction, name)

        def counted(self, other, original=original):
            added[0] += 1
            return original(self, other)

        monkeypatch.setattr(fractions.Fraction, name, counted)
    table = game.payoff_table(0, 1, opponent)
    table.best(SETS[0])
    table.near_best(SETS[0], F(1, 7))
    assert added[0] == 0 and len(game._row_cache) == rows
    assert F(1, 3) + 1 == 1 + F(1, 3) and added[0] == 2


@pytest.mark.parametrize("scenario", [THREE, binary_trial_scenario()], ids=["three", "binary"])
def test_thm2_caches_do_not_grow_with_depth(monkeypatch, scenario):
    """thm2 at its defaults keeps, in every game of its eta grid, 6 payoff
    tables, 2 plays and 4 coordinate rows, and converges in 2 rounds, at
    depth 50 and at depth 400 alike."""
    runs = []

    def recorded(game, *args, **kwargs):
        result = iterate_best_response(game, *args, **kwargs)
        runs.append((game, result.rounds))
        return result

    monkeypatch.setattr(experiments, "iterate_best_response", recorded)
    for depth in (50, 400):
        runs.clear()
        assert experiments.run_thm2(scenario, depth=depth).passed
        assert len(runs) == len(ETAS)
        for game, rounds in runs:
            sizes = (len(game._table_cache), len(game._plays), len(game._row_cache), rounds)
            assert sizes == (6, 2, 4, 2)
