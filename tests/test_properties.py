"""Property-based invariants over randomly generated model objects."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from robustmech import (
    Game,
    Lottery,
    binary_trial_scenario,
    build_ladder,
    build_status_quo,
    check_reward_constraints,
    full_strategy_set,
    mislabel_signals,
    size_of_signal_structure,
    solve_rewards,
    tv_distance,
)


def lotteries(size=3):
    return st.lists(
        st.integers(min_value=0, max_value=8), min_size=size, max_size=size
    ).filter(lambda w: sum(w) > 0).map(
        lambda w: Lottery(tuple(F(x, sum(w)) for x in w))
    )


@given(lotteries(), lotteries())
def test_tv_symmetric_and_bounded(a, b):
    d = tv_distance(a, b)
    assert d == tv_distance(b, a)
    assert 0 <= d <= 1
    assert (d == 0) == a.same_as(b)


@given(lotteries(), lotteries(), lotteries())
def test_tv_triangle_inequality(a, b, c):
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


@given(lotteries(), lotteries(), st.integers(min_value=0, max_value=10))
def test_mixture_lottery_is_valid(a, b, k):
    lam = F(k, 10)
    m = Lottery.mix([(lam, a), (1 - lam, b)])
    assert sum(m.weights) == 1
    # Mixing contracts total variation to any third point.
    assert tv_distance(m, a) <= (1 - lam) * tv_distance(a, b)


@given(
    st.integers(min_value=2, max_value=8),
    st.fractions(min_value=F(1, 50), max_value=F(1, 2)),
)
@settings(max_examples=30, deadline=None)
def test_ladder_posteriors_are_distributions(depth, eta):
    s = binary_trial_scenario()
    for tail in ("collapse", "renormalize"):
        p = build_ladder(s, depth, eta, tail=tail)
        assert sum(p.pi) == 1
        for agent in (0, 1):
            for t in range(len(p.partitions[agent])):
                assert sum(x for _, cells in p.type_groups(agent, t) for _, x in cells) == 1


@given(st.fractions(min_value=F(0), max_value=F(1, 2)))
@settings(max_examples=25, deadline=None)
def test_signal_size_equals_mislabel_rate(delta):
    s = binary_trial_scenario()
    st_ = mislabel_signals(s, delta)
    assert size_of_signal_structure(st_, s.prior) == delta


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_solved_schedules_always_feasible(weights, cost):
    total = sum(weights)
    prior = tuple(sorted((F(w, total) for w in weights), reverse=True))
    sched = solve_rewards(prior, F(cost), "sqr")
    assert all(c.ok for c in check_reward_constraints(sched, prior, F(cost), "sqr"))


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_expected_payoff_affine_in_opponent_mixture(k):
    lam = F(k, 12)
    s = binary_trial_scenario()
    g = Game(s, build_status_quo(s, 1))
    own = (1, 2)
    a, b = (1, 1), (1, 2)
    mixed = {0: {a: lam, b: 1 - lam}}
    va = g.payoff_table(0, 0, {0: {a: F(1)}}).value(own)
    vb = g.payoff_table(0, 0, {0: {b: F(1)}}).value(own)
    assert g.payoff_table(0, 0, mixed).value(own) == lam * va + (1 - lam) * vb


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_mixture_payoff_affine_in_own_mixture(k):
    """A residual (``PayoffTable.deficit``) is affine in the type's own
    mixture: the mixture's deficit is the weighted sum of its members'."""
    lam = F(k, 12)
    s = binary_trial_scenario()
    g = Game(s, build_status_quo(s, 1))
    table = g.payoff_table(0, 0, {0: {(1, 2): F(1)}})
    choices = full_strategy_set((1, 2), 2)
    a, b = (1, 1), (1, 2)
    da = table.deficit(choices, {a: F(1)})
    db = table.deficit(choices, {b: F(1)})
    assert table.deficit(choices, {a: lam, b: 1 - lam}) == lam * da + (1 - lam) * db
