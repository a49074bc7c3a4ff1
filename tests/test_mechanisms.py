"""Mechanism builders: tables, reward schedules, export round trips."""

import signal
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_reference as naive
from robustmech import (
    InfeasibleScheduleError,
    Lottery,
    ModelError,
    StateSpace,
    binary_trial_scenario,
    build_augmented_status_quo,
    build_maskin,
    build_modified_status_quo,
    build_one_respondent,
    build_status_quo,
    check_reward_constraints,
    export_mechanism,
    import_mechanism,
    make_scenario,
    solve_rewards,
    three_state_scenario,
)
from robustmech.mechanisms import RewardSchedule, augmented_messages


def test_matching_rule_table():
    s = binary_trial_scenario()
    m = build_maskin(s, F(2))
    assert m.messages == ((1, 2), (1, 2))
    for j in (1, 2):
        assert m.g(j, j).same_as(s.scf(j - 1))
        assert m.t(0, j, j) == 2 and m.t(1, j, j) == 2
    mid = Lottery((F(1, 2), F(1, 2)))
    assert m.g(1, 2).same_as(mid) and m.g(2, 1).same_as(mid)
    assert m.t(0, 1, 2) == 0 and m.t(1, 2, 1) == 0


def test_matching_rule_validation():
    with pytest.raises(ModelError):
        build_maskin(binary_trial_scenario(), F(0))
    with pytest.raises(ModelError):
        build_maskin(three_state_scenario(), F(1))


def test_solved_schedules_are_the_frozen_minima():
    b = binary_trial_scenario()
    t = three_state_scenario()
    assert solve_rewards(b.prior, 1, "sqr").rewards == {1: F(3), 2: F(11)}
    assert solve_rewards(b.prior, 1, "asqr").rewards == {0: F(11), 1: F(15), 2: F(23)}
    ms = solve_rewards(b.prior, 1, "msqr")
    assert ms.rewards == {0: F(14), 1: F(21), 2: F(42)} and ms.penalty == 13
    assert solve_rewards(t.prior, 1, "sqr").rewards == {1: F(3), 2: F(12), 3: F(18)}
    assert solve_rewards(t.prior, 1, "asqr").rewards == {
        0: F(16), 1: F(21), 2: F(30), 3: F(36)
    }
    ms3 = solve_rewards(t.prior, 1, "msqr")
    assert ms3.rewards == {0: F(15), 1: F(23), 2: F(46), 3: F(52)} and ms3.penalty == 14


@pytest.mark.parametrize("kind", ["sqr", "asqr", "msqr"])
@pytest.mark.parametrize("scenario", [binary_trial_scenario(), three_state_scenario()])
def test_solved_schedules_satisfy_all_strict_constraints(kind, scenario):
    sched = solve_rewards(scenario.prior, scenario.max_cost, kind)
    for c in check_reward_constraints(sched, scenario.prior, scenario.max_cost, kind):
        assert c.ok, c.name


def test_ratio_constraints_need_a_unique_modal_state():
    uniform = (F(1, 2), F(1, 2))
    for kind in ("asqr", "msqr"):
        with pytest.raises(InfeasibleScheduleError):
            solve_rewards(uniform, 1, kind)
    # The base rule has no ratio constraint, so it stays feasible.
    assert solve_rewards(uniform, 1, "sqr").rewards[1] > 0


@contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: raise after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ratio_constraints_need_the_first_state_most_likely():
    """A generic prior whose first state is not the most likely has no
    settling ratio system: R0 > Rn*q2/q1 and x > q2*(R2-R0)/q1 then bound
    each variable by more than itself."""
    ascending = (F(3, 10), F(7, 10))
    b = binary_trial_scenario()
    reversed_ = replace(b, state_space=StateSpace(b.state_space.states[::-1], ascending))
    assert reversed_.generic
    with _deadline(10):
        for kind in ("asqr", "msqr"):
            with pytest.raises(InfeasibleScheduleError):
                solve_rewards(ascending, 1, kind)
        for build in (build_augmented_status_quo, build_modified_status_quo):
            with pytest.raises(InfeasibleScheduleError):
                build(reversed_)


def test_modified_rule_rewards_ascend():
    """R3 = R2 passes every other msqr inequality at this prior and cost 0;
    the ascending entry R3 > R2 refuses it, and the solver lifts R3 to 12."""
    s = make_scenario(
        [("a", "33/59"), ("b", "15/59"), ("c", "11/59")],
        ["o1", "o2", "o3"],
        {"a": {"o1": 1}, "b": {"o2": 1}, "c": {"o3": 1}},
        costs=(0, 0),
    )
    flat = RewardSchedule("msqr", {0: 5, 1: 6, 2: 11, 3: 11}, penalty=4, cost=0)
    with pytest.raises(InfeasibleScheduleError, match=r"^R3 > R2 violated \(slack 0\)$"):
        build_modified_status_quo(s, schedule=flat)
    assert solve_rewards(s.prior, 0, "msqr") == replace(flat, rewards={**flat.rewards, 3: 12})


def test_schedule_missing_a_reward_is_infeasible():
    """A custom schedule that lacks a reward its system names is refused
    with that reward's name, not a bare ``KeyError``."""
    s = three_state_scenario()
    with pytest.raises(InfeasibleScheduleError, match=r"^schedule has no reward R3$"):
        build_status_quo(s, 1, schedule=RewardSchedule("sqr", {1: 3, 2: 12}))
    with pytest.raises(InfeasibleScheduleError, match=r"^schedule has no reward R0$"):
        build_modified_status_quo(
            s, schedule=RewardSchedule("msqr", {1: 3, 2: 12}, penalty=1)
        )


@st.composite
def descending_priors(draw):
    """Priors on 2 to 5 states in descending order, some with a tied
    maximum."""
    weights = sorted(draw(st.lists(st.integers(1, 10), min_size=2, max_size=5)), reverse=True)
    if draw(st.booleans()):
        weights[1] = weights[0]
    return tuple(F(w, sum(weights)) for w in weights)


@given(
    descending_priors(),
    st.builds(F, st.integers(0, 15), st.integers(1, 5)),
    st.sampled_from(("sqr", "asqr", "msqr")),
)
@settings(max_examples=200, deadline=None)
def test_solver_equals_the_closed_form_oracle(prior, c, kind):
    """The list-driven solver returns the closed-form solver's schedule, or
    the same error class, and leaves a unit of slack on every entry."""

    def outcome(solver):
        try:
            return solver(prior, c, kind)
        except (InfeasibleScheduleError, ModelError) as exc:
            return type(exc)

    got = outcome(solve_rewards)
    assert got == outcome(naive.solve_rewards)
    if isinstance(got, RewardSchedule):
        assert all(con.slack >= 1 for con in check_reward_constraints(got, prior, c, kind))


def test_status_quo_table_against_direct_rule():
    s = three_state_scenario()
    m = build_status_quo(s, 1)
    R = m.schedule.rewards
    for a in m.messages[0]:
        for b in m.messages[1]:
            want_outcome = s.scf(a - 1) if a == b else s.scf(0)
            want_t = R[a] if a == b else F(0)
            assert m.g(a, b).same_as(want_outcome)
            assert m.t(0, a, b) == want_t
            assert m.t(1, a, b) == want_t


def test_augmented_table_against_direct_rule():
    s = three_state_scenario()
    m = build_augmented_status_quo(s)
    R = m.schedule.rewards
    assert m.messages[0] == (-3, -2, 1, 2, 3)
    for a in m.messages[0]:
        for b in m.messages[1]:
            want_outcome = s.scf(abs(a) - 1) if abs(a) == abs(b) else s.scf(0)
            if a == b and a >= 1:
                want_t = R[a]
            elif a <= 1 and b <= 1 and (a, b) != (1, 1):
                want_t = R[0]
            else:
                want_t = F(0)
            assert m.g(a, b).same_as(want_outcome)
            assert m.t(0, a, b) == want_t
            # Transfers are symmetric across agents under this rule.
            assert m.t(1, b, a) == want_t


def test_modified_table_against_direct_rule():
    s = three_state_scenario()
    m = build_modified_status_quo(s)
    R, x = m.schedule.rewards, m.schedule.penalty
    for a in m.messages[0]:
        for b in m.messages[1]:
            if a == b and a >= 1:
                want_t = R[a]
            elif a <= 1 and (a, b) != (1, 1):
                want_t = R[0]
            elif a >= 2 and b <= 1:
                want_t = R[0] - x
            else:
                want_t = F(0)
            assert m.t(0, a, b) == want_t
            assert m.t(1, b, a) == want_t


def test_modified_rule_is_asymmetric_per_pair():
    m = build_modified_status_quo(binary_trial_scenario())
    R, x = m.schedule.rewards, m.schedule.penalty
    assert m.t(0, 2, 1) == R[0] - x
    assert m.t(1, 2, 1) == R[0]


def test_augmented_messages():
    assert augmented_messages(2) == (-2, 1, 2)
    assert augmented_messages(4) == (-4, -3, -2, 1, 2, 3, 4)


def test_custom_schedule_is_validated():
    s = binary_trial_scenario()
    bad = RewardSchedule("sqr", {1: F(3), 2: F(4)}, cost=F(1))
    with pytest.raises(InfeasibleScheduleError):
        build_status_quo(s, 1, schedule=bad)
    # Validation can be skipped deliberately, e.g. to study failures.
    m = build_status_quo(s, 1, schedule=bad, validate=False)
    assert m.t(0, 2, 2) == 4


def test_cost_bound_must_cover_scenario_costs():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_status_quo(s, F(1, 2))


def test_export_import_round_trip():
    for build in (build_status_quo, build_augmented_status_quo, build_modified_status_quo):
        s = binary_trial_scenario()
        m = build(s, 1) if build is build_status_quo else build(s)
        again = import_mechanism(export_mechanism(m))
        assert again.messages == m.messages
        for pair in m.outcome:
            assert again.g(*pair).same_as(m.g(*pair))
            assert again.transfer[pair] == m.transfer[pair]


def test_transfer_bound():
    m = build_status_quo(binary_trial_scenario(), 1)
    assert m.transfer_bound == 11


def test_one_respondent_mechanism():
    s = three_state_scenario()
    pay = {1: F(0), 2: F(1), 3: F(2)}
    m = build_one_respondent(s, 0, pay)
    assert m.messages == ((1, 2, 3), (1,))
    for a in (1, 2, 3):
        assert m.g(a, 1).same_as(s.scf(a - 1))
        assert m.t(0, a, 1) == pay[a]
        assert m.t(1, a, 1) == 0
