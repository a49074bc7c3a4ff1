"""One compile per eta grid: the ladders of a grid share their compiled
partition tables and weigh their templates per eta, and the grid's games
share the played mechanism's tables; a fresh ``build_ladder`` and a fresh
``Game`` are the oracle, and every mass check still fires on the shared
path."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmech import (
    BiasSpec,
    Game,
    ModelError,
    Perturbation,
    binary_trial_scenario,
    build_general_ladder,
    build_ladder,
    build_status_quo,
    iterate_best_response,
    iterated_dominance,
)
from robustmech import experiments
from robustmech.equilibrium import _strategy_sets
from robustmech.experiments import _ladder_games, preferred_outcome_bias
from robustmech.perturbations import _ladder_masses

BINARY = binary_trial_scenario()
MECH = build_status_quo(BINARY, 1)
PULL = preferred_outcome_bias(BINARY, 0, 10 * MECH.schedule.top)


def _compiles(monkeypatch):
    """A list that gains one entry per structural compile from now on."""
    calls = []
    compile_ = Perturbation._compile

    def counted(pert):
        calls.append(pert.size)
        return compile_(pert)

    monkeypatch.setattr(Perturbation, "_compile", counted)
    return calls


def _same(grid: Perturbation, fresh: Perturbation):
    """Equal in every field and every private table."""
    assert grid == fresh
    assert vars(grid) == vars(fresh)


def _results(game):
    sets = _strategy_sets(game)
    br = iterate_best_response(game, sets)
    report = br.report
    return (br.profile, br.rounds, br.converged, br.cycled, br.moves,
            report and (report.residuals, report.best_deviation, report.truthful_mass,
                        report.max_tv, report.is_equilibrium),
            iterated_dominance(game, sets))


@st.composite
def _grids(draw):
    depth = draw(st.integers(2, 200))
    tail = draw(st.sampled_from(["collapse", "renormalize"]))
    etas = draw(st.lists(st.fractions(F(1, 1000), F(1, 2), max_denominator=1000),
                         min_size=2, max_size=3))
    rungs = st.one_of(st.just(depth), st.integers(0, depth))
    spots = draw(st.lists(st.tuples(st.integers(0, 1), rungs), max_size=2,
                          unique=True))
    biases = [BiasSpec(agent, circ, PULL) for agent, circ in spots]
    if biases and draw(st.booleans()):
        agent, circ = spots[0]
        biases[0] = BiasSpec(agent, circ, cost=F(draw(st.integers(0, 30)), 10))
    return depth, tail, etas, biases


@settings(max_examples=30, deadline=None)
@given(_grids())
def test_grid_ladders_and_games_equal_fresh_builds(grid):
    """Every later eta of a grid gives the perturbation that a fresh
    ``build_ladder`` gives at that eta, table for table, and a game on it
    that reaches the fresh game's best-response run and dominance result."""
    depth, tail, etas, biases = grid
    first = None
    for eta, pert, game in _ladder_games("grid", BINARY, MECH, depth, etas, biases, tail):
        fresh = build_ladder(BINARY, depth, eta, biases, tail=tail)
        _same(pert, fresh)
        if first is None:
            first = pert
        else:
            assert pert._type_index is first._type_index
        assert _results(game) == _results(Game(BINARY, MECH, fresh))


def test_a_thm2_grid_compiles_once_and_its_games_share_the_played_tables(monkeypatch):
    """thm2's four etas compile the ladder's partitions once, not four
    times, and its four games hold one ``played``, one ``_outcomes`` and
    one ``_seen``."""
    compiles = _compiles(monkeypatch)
    games = []

    def recorded(game, *args, **kwargs):
        games.append(game)
        return iterate_best_response(game, *args, **kwargs)

    monkeypatch.setattr(experiments, "iterate_best_response", recorded)
    assert experiments.run_thm2(depth=60).passed
    assert compiles.count(61) == 1  # the others are unperturbed games' single circumstance
    assert len(games) == 4
    for name in ("played", "_outcomes", "_seen"):
        assert len({id(vars(game)[name]) for game in games}) == 1


@pytest.mark.parametrize("bad", ["2", "0"])
def test_a_bad_eta_later_in_the_grid_raises_as_a_first_one(bad):
    with pytest.raises(ModelError) as first:
        experiments.run_thm2(depth=10, eta_grid=(bad,))
    with pytest.raises(ModelError) as second:
        experiments.run_thm2(depth=10, eta_grid=("1/10", bad))
    assert str(second.value) == str(first.value) == "eta must lie strictly between 0 and 1"


def test_the_sum_check_refuses_a_coefficient_off_by_one_part_in_10_to_the_30(monkeypatch):
    ladder = build_ladder(BINARY, 40, "1/10")
    masses = _ladder_masses(40, "1/20", "collapse")
    coef = masses["coef"]
    masses["coef"] = coef[:-1] + (coef[-1] * (1 + F(1, 10**30)),)
    compiles = _compiles(monkeypatch)
    with pytest.raises(ModelError, match="sum to one"):
        ladder._reweighed(**masses)
    assert compiles == []


def test_the_sign_checks_fire_on_the_shared_path(monkeypatch):
    donor = build_general_ladder(BINARY, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    compiles = _compiles(monkeypatch)
    with pytest.raises(ModelError, match="nonnegative"):
        donor._reweighed((F(1), F(1, 2), F(-1, 4), F(-1, 4)), F(0), F(1), F(1))
    with pytest.raises(ModelError, match="ratio and scale must be positive"):
        donor._reweighed(donor.coef, F(0), F(0), F(1))
    assert compiles == []


SHAPES = [
    # same run lengths and zeros: the compiled tables are shared
    ((F(1, 2), F(1, 4), F(1, 8), F(1, 8)), (F(1, 4), F(1, 2), F(1, 8), F(1, 8)), False),
    # other run lengths
    ((F(1, 2), F(1, 4), F(1, 8), F(1, 8)), (F(1, 4),) * 4, True),
    # same run lengths, another zero
    ((F(1, 2), F(1, 4), F(1, 4), F(0)), (F(1, 2), F(0), F(0), F(1, 2)), True),
]


@pytest.mark.parametrize("old, new, compiled", SHAPES, ids=["same", "lengths", "zeros"])
def test_another_coefficient_run_shape_compiles_in_full(monkeypatch, old, new, compiled):
    biases = [BiasSpec(0, 0, PULL), BiasSpec(1, 3, cost=F(1, 2))]
    donor = build_general_ladder(BINARY, old, biases)
    compiles = _compiles(monkeypatch)
    pert = donor._reweighed(new, F(0), F(1), F(1))
    assert compiles == ([4] if compiled else [])
    assert (pert._type_template is donor._type_template) is not compiled
    fresh = build_general_ladder(BINARY, new, biases)
    _same(pert, fresh)
    assert _results(Game(BINARY, MECH, pert)) == _results(Game(BINARY, MECH, fresh))
