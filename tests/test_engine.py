"""Game assembly: signals, trembles, strategy sets, replacements."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import naive_reference as naive
from generators import uniform_tremble
from robustmech import (
    BiasSpec,
    Game,
    Lottery,
    ModelError,
    SignalStructure,
    TrembleSpec,
    binary_trial_scenario,
    build_ladder,
    build_modified_status_quo,
    build_status_quo,
    canonical_replacement,
    full_strategy_set,
    implementation_metrics,
    mislabel_signals,
    outcome_distribution,
    restricted_strategy_set,
    revealing_signals,
    run_experiment,
    size_of_signal_structure,
    three_state_scenario,
    truthful_profile,
)
from robustmech.experiments import preferred_outcome_bias
from robustmech.mechanisms import augmented_messages


def test_revealing_signals_have_size_zero():
    s = three_state_scenario()
    st = revealing_signals(s)
    assert size_of_signal_structure(st, s.prior) == 0
    assert st.theta_marginal(s.n) == s.prior
    assert Game(s, build_status_quo(s, 1)).signals == st


def test_mislabel_signals_have_size_delta():
    s = binary_trial_scenario()
    for delta in (F(1, 100), F(1, 20), F(1, 7)):
        st = mislabel_signals(s, delta)
        assert size_of_signal_structure(st, s.prior) == delta
        assert st.theta_marginal(s.n) == s.prior


def test_size_checks_the_marginal():
    s = binary_trial_scenario()
    st = mislabel_signals(s, F(1, 10))
    with pytest.raises(ModelError):
        size_of_signal_structure(st, (F(1, 2), F(1, 2)))


@st.composite
def signal_structures(draw):
    """Revealing and mislabel structures, and drawn ones: per state, the
    prior spread over the signal pairs with zero entries allowed, one
    signal per agent optionally left at probability zero, and meaning
    maps drawn per agent, so they may differ between the agents."""
    s = draw(st.sampled_from((binary_trial_scenario(), three_state_scenario())))
    kind = draw(st.sampled_from(("revealing", "mislabel", "drawn")))
    if kind == "revealing":
        return s, revealing_signals(s)
    if kind == "mislabel":
        return s, mislabel_signals(s, draw(st.fractions(0, 1, max_denominator=12)))
    used = [draw(st.integers(1, 3)) for _ in (0, 1)]
    sizes = tuple(k + draw(st.integers(0, 1)) for k in used)
    cells = list(itertools.product(range(used[0]), range(used[1])))
    joint = {}
    for theta, q in enumerate(s.prior):
        weights = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
                       .filter(any))
        for (s1, s2), w in zip(cells, weights):
            joint[(theta, s1, s2)] = q * F(w, sum(weights))
    meanings = tuple(
        tuple(draw(st.lists(st.integers(1, s.n), min_size=k, max_size=k))) for k in sizes
    )
    return s, SignalStructure(sizes, joint, meanings)


@seed(1729)
@given(signal_structures())
@settings(max_examples=150, deadline=None)
def test_size_matches_per_signal_agreement_sums(drawn):
    s, structure = drawn
    got = size_of_signal_structure(structure, s.prior)
    assert got == naive.size_of_signal_structure(structure, s.prior)
    assert type(got) is F


def test_signal_distribution_validated():
    with pytest.raises(ModelError):
        SignalStructure((2, 2), {(0, 0, 0): F(1, 2)}, ((1, 2), (1, 2)))


@pytest.mark.parametrize("meanings", [((1,), (1, 2)), ((1, 2), (2,))], ids=["agent1", "agent2"])
def test_signal_structure_refuses_a_short_meaning_map(meanings):
    """Each agent has two signals; a meaning map of one entry is refused."""
    joint = {(0, 0, 0): F(7, 10), (1, 1, 1): F(3, 10)}
    with pytest.raises(ModelError, match="^meaning map must cover every signal$"):
        SignalStructure((2, 2), joint, meanings)


def test_signal_structure_refuses_a_negative_probability():
    """A negative mass is refused even when the masses sum to one."""
    joint = {(0, 0, 0): F(3, 2), (1, 1, 1): F(-1, 2)}
    with pytest.raises(ModelError, match=r"\(1, 1, 1\) is negative"):
        SignalStructure((2, 2), joint, ((1, 2), (1, 2)))


@pytest.mark.parametrize("key", [(0, 2, 0), (0, 0, 2), (0, -1, 0)])
def test_signal_structure_refuses_a_signal_outside_its_sizes(key):
    """Agent 1 has two signals and agent 2 two: a signal index 2, or a
    negative one, would end in an ``IndexError`` in ``coordinate_row``."""
    joint = {(0, 0, 0): F(1, 2), key: F(1, 2)}
    with pytest.raises(ModelError, match="lies outside 0..1"):
        SignalStructure((2, 2), joint, ((1, 2), (1, 2)))


def test_game_refuses_a_signal_state_outside_the_scenario():
    s = binary_trial_scenario()
    structure = SignalStructure((2, 2), {(0, 0, 0): F(1, 2), (2, 1, 1): F(1, 2)}, ((1, 2), (1, 2)))
    with pytest.raises(ModelError, match="state index 2; the scenario has 2"):
        Game(s, build_status_quo(s, 1), signals=structure)


@pytest.mark.parametrize("meaning", [0, 3])
def test_game_refuses_a_signal_meaning_outside_the_states(meaning):
    s = binary_trial_scenario()
    joint = {(0, 0, 0): F(7, 10), (1, 1, 1): F(3, 10)}
    structure = SignalStructure((2, 2), joint, ((1, 2), (1, meaning)))
    with pytest.raises(ModelError, match=f"agent 2's signal 1 means state {meaning}, outside 1..2"):
        Game(s, build_status_quo(s, 1), signals=structure)


def test_full_and_restricted_strategy_sets():
    assert full_strategy_set((2, 1), 2) == ((1, 2), (1, 2))
    assert restricted_strategy_set((1, 2), (1, 2)) == ((1,), (1, 2))
    assert list(itertools.product(*restricted_strategy_set(augmented_messages(2), (1, 2)))) == [
        (-2, -2), (-2, 1), (-2, 2), (1, -2), (1, 1), (1, 2)
    ]
    # Per-state choices: negatives plus {1, k}; the first state adds
    # nothing beyond the status quo message.
    rs3 = restricted_strategy_set(augmented_messages(3), (1, 2, 3))
    assert rs3 == ((-3, -2, 1), (-3, -2, 1, 2), (-3, -2, 1, 3))
    # The modified rule has the augmented rule's messages, so its
    # restricted game is the same.
    binary, three = binary_trial_scenario(), three_state_scenario()
    msqr2, msqr3 = build_modified_status_quo(binary), build_modified_status_quo(three)
    assert restricted_strategy_set(msqr2.messages[1], (1, 2)) == ((-2, 1), (-2, 1, 2))
    assert restricted_strategy_set(msqr3.messages[0], (1, 2, 3)) == rs3
    assert restricted_strategy_set(msqr3.messages[1], (2, 3, 1)) == (
        (-3, -2, 1, 2), (-3, -2, 1, 3), (-3, -2, 1)
    )


def test_canonical_replacement():
    aug3 = augmented_messages(3)
    assert canonical_replacement((2, 1), (1, 2), (1, 2)) == (1, 1)
    assert canonical_replacement((3, 3, 3), aug3, (1, 2, 3)) == (-3, -3, -3)
    assert canonical_replacement((2, 3, 2), aug3, (1, 2, 3)) == (-2, -3, -2)
    # Strategies already in the restricted set have no replacement.
    for strat, messages in (((1, 2), (1, 2)), ((1, 2, 3), aug3)):
        with pytest.raises(ModelError):
            canonical_replacement(strat, messages, tuple(range(1, len(strat) + 1)))


def rule_messages(negatives, n):
    """The plain rule's messages, or the augmented and modified rules'."""
    return augmented_messages(n) if negatives else tuple(range(1, n + 1))


def meaning_maps(n):
    """The identity meanings and a cyclic shift, as a mislabeled signal
    structure has."""
    return tuple(range(1, n + 1)), tuple(j % n + 1 for j in range(1, n + 1))


@pytest.mark.parametrize("negatives", [False, True], ids=["sqr", "asqr"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("shifted", [False, True])
def test_restricted_set_is_the_product_of_its_choices(negatives, n, shifted):
    """With the identity meanings and a cyclic shift: the set is the
    product of the per-coordinate choices, and every full-set strategy
    outside it has a canonical replacement inside it."""
    messages = rule_messages(negatives, n)
    meanings = meaning_maps(n)[shifted]
    choices = restricted_strategy_set(messages, meanings)
    assert all(h in c for h, c in zip(meanings, choices))
    assert all(list(c) == sorted(set(c)) for c in choices)
    restricted = list(itertools.product(*choices))
    assert restricted == sorted(restricted)
    inside = set(restricted)
    full = itertools.product(*full_strategy_set(messages, n))
    outside = [s for s in full if s not in inside]
    assert outside
    for strategy in outside:
        assert canonical_replacement(strategy, messages, meanings) in inside


@pytest.mark.parametrize("negatives", [False, True], ids=["sqr", "asqr"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_restricted_sets_match_the_variant_reference(negatives, n):
    """Read off the rule's messages, the restricted set equals the one
    named by the variant string, for n = 2..5 under the identity and the
    shifted meanings; up to n = 4, so does the replacement of every
    full-set strategy outside it."""
    messages = rule_messages(negatives, n)
    variant = "asqr" if negatives else "sqr"
    for meanings in meaning_maps(n):
        choices = restricted_strategy_set(messages, meanings)
        assert choices == naive.restricted_strategy_set(variant, n, meanings)
        if n > 4:
            continue
        inside = set(itertools.product(*choices))
        for s in itertools.product(*full_strategy_set(messages, n)):
            if s not in inside:
                assert canonical_replacement(s, messages, meanings) == (
                    naive.canonical_replacement(s, variant, n, meanings)
                )


def test_truthful_strategy_and_profile():
    s = binary_trial_scenario()
    g = Game(s, build_status_quo(s, 1))
    assert g.truthful(0) == (1, 2)
    prof = truthful_profile(g)
    assert prof[0][0] == {(1, 2): F(1)}


def test_truthful_profile_hits_the_target_exactly():
    s = three_state_scenario()
    g = Game(s, build_status_quo(s, 1))
    prof = truthful_profile(g)
    assert outcome_distribution(g, prof) == list(s.scf.lotteries)
    assert implementation_metrics(g, prof) == (1, 0)


def test_signals_off_the_prior_give_no_outcome_lottery():
    """A signal structure whose state marginal is not the prior (1/2 on
    each state against 7/10 and 3/10) gives conditional outcome weights
    that do not sum to one, so the outcome lotteries and the TV distance
    are refused, as ``Lottery`` refuses such weights."""
    s = binary_trial_scenario()
    signals = SignalStructure((2, 2), {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)}, ((1, 2), (1, 2)))
    g = Game(s, build_status_quo(s, 1), signals=signals)
    for read in (lambda: outcome_distribution(g, truthful_profile(g)),
                 lambda: implementation_metrics(g, truthful_profile(g))):
        with pytest.raises(ModelError, match="state 0's lottery weights .* sum to one"):
            read()


def test_zero_tremble_changes_nothing():
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    plain = Game(s, mech)
    trembled = Game(s, mech, tremble=uniform_tremble(F(0), mech.messages))
    opp = truthful_profile(plain)[1]
    tables = [g.payoff_table(0, 0, opp) for g in (plain, trembled)]
    for strat in itertools.product(*full_strategy_set((1, 2), 2)):
        assert tables[0].value(strat) == tables[1].value(strat)


def test_point_tremble_realization():
    mech = build_status_quo(binary_trial_scenario(), 1)
    tr = TrembleSpec.point(F(1, 10), mech.messages, (2, 2))
    assert tr.realized(0, 1) == [(1, F(9, 10)), (2, F(1, 10))]
    assert tr.realized(0, 2) == [(2, F(1))]
    with pytest.raises(ModelError, match="tremble target 7 of agent 1 is not one of its messages"):
        TrembleSpec.point(F(1, 10), mech.messages, (7, 2))


def test_tremble_apply_takes_expectations_over_realized_pairs():
    """A point tremble of 1/10 onto message 2, on the binary status-quo
    rule: at each intended pair, the lottery and transfers are the
    expectations over the realized pairs, computed by hand."""
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    r1, r2 = mech.schedule.r(1), mech.schedule.r(2)
    f0, f1 = s.scf(0), s.scf(1)
    tr = TrembleSpec.point(F(1, 10), mech.messages, (2, 2))
    played = tr.apply(mech)
    assert (played.kind, played.messages, played.schedule) == (
        mech.kind, mech.messages, mech.schedule
    )
    expected = {
        # (1, 1) w.p. 81/100, (2, 2) w.p. 1/100, a mismatch otherwise.
        (1, 1): (F(81, 100) * r1 + F(1, 100) * r2, [(F(99, 100), f0), (F(1, 100), f1)]),
        (1, 2): (F(1, 10) * r2, [(F(9, 10), f0), (F(1, 10), f1)]),
        (2, 1): (F(1, 10) * r2, [(F(9, 10), f0), (F(1, 10), f1)]),
        (2, 2): (r2, [(F(1), f1)]),
    }
    for pair, (t, parts) in expected.items():
        assert played.transfer[pair] == (t, t)
        assert played.g(*pair) == Lottery.mix(parts)
    assert Game(s, mech, tremble=tr).played == played
    assert Game(s, mech, tremble=TrembleSpec.point(0, mech.messages, (2, 2))).played is mech


def test_a_game_folds_its_tremble_on_first_read(monkeypatch):
    """``played`` is built when first read, once per game: ``run_thm3``
    plays only the modified rule's trembling game, so it folds one
    tremble; the augmented rule's game is read by its certificate alone.
    A game without a tremble plays its own mechanism."""
    calls = []
    apply = TrembleSpec.apply

    def counted(self, mechanism):
        calls.append(mechanism.kind)
        return apply(self, mechanism)

    monkeypatch.setattr(TrembleSpec, "apply", counted)
    s = binary_trial_scenario()
    mech = build_status_quo(s, 1)
    game = Game(s, mech, tremble=TrembleSpec.point(F(1, 10), mech.messages, (2, 2)))
    assert calls == []
    assert game.played is game.played
    assert calls == ["sqr"]
    assert Game(s, mech).played is mech
    calls.clear()
    run_experiment("thm3")
    assert calls == ["msqr"]


def test_tremble_validation():
    with pytest.raises(ModelError):
        TrembleSpec(F(1), ({1: F(1)}, {1: F(1)}))
    with pytest.raises(ModelError):
        TrembleSpec(F(1, 10), ({1: F(1, 2)}, {1: F(1)}))


def test_game_refuses_tremble_noise_on_an_unknown_message():
    """Noise on a message the mechanism lacks would end in a ``KeyError``
    from ``TrembleSpec.apply``; the game refuses it, naming agent and
    message."""
    s = binary_trial_scenario()
    tremble = TrembleSpec(F(1, 10), ({1: F(1, 2), 7: F(1, 2)}, {1: F(1, 2), 2: F(1, 2)}))
    with pytest.raises(ModelError, match="agent 1 names message 7"):
        Game(s, build_status_quo(s, 1), tremble=tremble)


def test_nonconstant_strategy_pays_the_cost():
    s = binary_trial_scenario()
    g = Game(s, build_status_quo(s, 1))
    opp = {0: {(1, 1): F(1)}}
    # Against the constant status quo report, learning only costs: both
    # strategies face the same transfers but (1, 2) pays c in state 2.
    table = g.payoff_table(0, 0, opp)
    v_const = table.value((1, 1))
    v_learn = table.value((1, 2))
    r1 = g.mechanism.schedule.r(1)
    assert v_const - v_learn == s.prior[1] * r1 + 1
    # A coordinate row charges its circumstance's cost to a non-constant
    # strategy only.
    costly = three_state_scenario(cost=3)
    row = Game(costly, build_status_quo(costly, 3)).coordinate_row(0, 0, (1, 2, 3))
    assert row.cost_num == 3 * row.den
    for strategy in ((1, 1, 1), (1, 2, 1)):
        entries = sum(cell[m] for cell, m in zip(row.entries(), strategy))
        charged = 0 if strategy == (1, 1, 1) else 3
        assert row.value(strategy) == entries - charged


def test_game_rejects_foreign_perturbation():
    from robustmech import unperturbed

    a = binary_trial_scenario()
    b = binary_trial_scenario()
    with pytest.raises(ModelError):
        Game(a, build_status_quo(a, 1), unperturbed(b))


def test_integer_rows_match_fraction_sums_with_trembles_and_mislabelled_signals():
    """Rows summed on integer state values and signal probabilities equal
    the naive ``Fraction`` sums in thm3's kind of game: the modified rule
    under a point tremble, signals mislabelled with probability 1/7, and
    a ladder whose first circumstance gives agent 1 other utilities and
    another cost.  Every own strategy of the full set is priced against
    opponents inside and outside the restricted set, which between them
    send every message, at the biased and at a normal circumstance."""
    s = three_state_scenario()
    mech = build_modified_status_quo(s)
    bias = BiasSpec(0, 0, preferred_outcome_bias(s, 1, F(7, 2)), cost=F(5, 3))
    game = Game(s, mech, build_ladder(s, 4, F(1, 10), [bias]),
                signals=mislabel_signals(s, F(1, 7)),
                tremble=TrembleSpec.point(F(1, 20), mech.messages, (3, 3)))
    assert [game.perturbation.payoff_class(0, circ) for circ in (0, 1)] == [0, None]
    reference = naive.NaiveGame(game)
    msgs = mech.messages[0]
    for agent in (0, 1):
        for circ in (0, 1):
            for opp in ((1, 2, 3), (-3, 1, 2), (2, 2, 2), (-2, 3, -2)):
                row = game.coordinate_row(agent, circ, opp)
                for own in itertools.product(*full_strategy_set(msgs, s.n)):
                    assert row.value(own) == reference.inner_value(agent, circ, own, opp)
