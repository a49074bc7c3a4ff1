"""Mechanism factories and reward-schedule solving/validation.

Message conventions (integers):

* plain and Maskin rules use ``1..n``;
* augmented/modified rules use ``{-n,...,-2} U {1} U {2,...,n}``;
* the one-respondent rule of the full-implementation result uses ``1..n``
  for the respondent and the single message ``1`` for the other agent.

Each schedule kind states its reward constraints once, as one list of
strict inequalities ``R[variable] > bound(R)``: the checker reports each
entry's exact slack, and the solver raises each variable to one unit above
its bound.  The modified rule's rewards ascend, ``R^j > R^(j-1)`` for j >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Lottery, ModelError, ScenarioModel, is_generic
from .numeric import Number, fmt, rat


class InfeasibleScheduleError(ValueError):
    """No reward schedule satisfies the requested constraint system."""


@dataclass(frozen=True)
class RewardSchedule:
    """Diagonal rewards ``R^j``, optional base reward ``R^0`` and penalty x.

    A schedule names no rule or cost: each builder checks the schedule it
    plays against its own rule's system at its own cost."""

    rewards: dict[int, Number]  # j -> R^j; includes 0 for asqr/msqr
    penalty: Number | None = None  # x, modified rule only

    def r(self, j: int) -> Number:
        return self.rewards[j]

    @property
    def top(self) -> Number:
        return self.rewards[max(self.rewards)]


@dataclass(frozen=True)
class Constraint:
    name: str
    slack: Number

    @property
    def ok(self) -> bool:
        return self.slack > 0


def _reward_system(kind: str, prior: tuple[Number, ...], c: Number):
    """The strict inequalities a schedule of ``kind`` must satisfy.

    Each entry ``(name, variable, bound)`` means ``R[variable] > bound(R)``,
    where ``R`` maps each reward index ``j`` to ``R^j`` and ``"x"`` to the
    penalty.
    """
    q = tuple(rat(p) for p in prior)
    c = rat(c)
    n = len(q)
    later = range(2, n + 1)
    if kind == "sqr":
        return [
            ("R1 > 0", 1, lambda R: 0),
            # Needed so replacing a constant misreport with a learning strategy
            # gains more at the top state than the worst-case learning cost.
            ("R1 > c_bar/q1", 1, lambda R: c / q[0]),
            *((f"R{j} > R1 + 2c/q{j}", j, lambda R, j=j: R[1] + 2 * c / q[j - 1]) for j in later),
        ]
    if kind == "asqr":
        return [
            ("R0 > 0", 0, lambda R: 0),
            *((f"R{j} > R{j - 1}", j, lambda R, j=j: R[j - 1]) for j in range(1, n + 1)),
            ("R1 > R0 + 2c/q1", 1, lambda R: R[0] + 2 * c / q[0]),
            *((f"R{j} > R1 + 2c/q{j}", j, lambda R, j=j: R[1] + 2 * c / q[j - 1]) for j in later),
            ("R0 > Rn*q2/q1", 0, lambda R: R[n] * q[1] / q[0]),
        ]
    if kind == "msqr":
        return [
            ("x > c/qn", "x", lambda R: c / q[n - 1]),
            *((f"R{j} > x", j, lambda R: R["x"]) for j in range(n + 1)),
            *((f"R{j} > R{j - 1}", j, lambda R, j=j: R[j - 1]) for j in later),
            ("R1 > R0 + 4c/q1", 1, lambda R: R[0] + 4 * c / q[0]),
            *(
                (f"R{j} > R1 + x + 2c/q{j}", j, lambda R, j=j: R[1] + R["x"] + 2 * c / q[j - 1])
                for j in later
            ),
            *(
                (f"x > q{j}*(R{j}-R0)/q1", "x", lambda R, j=j: q[j - 1] * (R[j] - R[0]) / q[0])
                for j in later
            ),
        ]
    raise ModelError(f"unknown schedule kind {kind!r}")


def check_reward_constraints(
    schedule: RewardSchedule, prior: tuple[Number, ...], c: Number, kind: str
) -> list[Constraint]:
    """Exact slack ``R[variable] - bound(R)`` of every strict inequality of
    ``kind``'s system, in list order.

    All inequalities are strict, matching how the incentive arguments use
    them; a slack of zero therefore fails.  The modified rule's system
    needs the schedule's penalty.  A missing reward raises
    :class:`InfeasibleScheduleError` before any bound is read.
    """
    if kind == "msqr" and schedule.penalty is None:
        raise ModelError("modified rule needs a penalty")
    R = {**schedule.rewards, "x": schedule.penalty}
    system = _reward_system(kind, prior, c)
    for _, var, _ in system:
        if var not in R:
            raise InfeasibleScheduleError(f"schedule has no reward R{var}")
    return [Constraint(name, R[var] - bound(R)) for name, var, bound in system]


def solve_rewards(prior: tuple[Number, ...], c: Number, kind: str) -> RewardSchedule:
    """Integer schedule with at least one unit of slack on every inequality
    of ``kind``'s system: every variable starts at 0, and each pass over the
    list raises a short variable to ``ceil(bound + 1)``, until a pass moves
    none.  The augmented and modified rules, whose ratio entries need
    ``q_j < q_1`` to settle, raise :class:`InfeasibleScheduleError` unless
    the first state is strictly the most likely, as the canonical order gives.
    """
    system = _reward_system(kind, prior, c)
    if kind != "sqr" and is_generic(tuple(rat(p) for p in prior)) != (True, 0):
        raise InfeasibleScheduleError(
            "ratio constraints need the first state to be strictly the most likely"
        )
    R = {var: Fraction(0) for _, var, _ in system}
    moved = True
    while moved:
        moved = False
        for _, var, bound in system:
            least = Fraction(math.ceil(bound(R) + 1))
            if R[var] < least:
                R[var], moved = least, True
    penalty = R.pop("x", None)
    return RewardSchedule(dict(sorted(R.items())), penalty=penalty)


@dataclass(frozen=True)
class Mechanism:
    """Finite message sets with an outcome map into lotteries and transfers."""

    kind: str
    messages: tuple[tuple[int, ...], tuple[int, ...]]
    outcome: dict[tuple[int, int], Lottery]
    transfer: dict[tuple[int, int], tuple[Number, Number]]
    schedule: RewardSchedule | None = None

    def __post_init__(self):
        pairs = {(a, b) for a in self.messages[0] for b in self.messages[1]}
        if set(self.outcome) != pairs or set(self.transfer) != pairs:
            raise ModelError("outcome/transfer maps must be total on M1 x M2")

    def g(self, m1: int, m2: int) -> Lottery:
        return self.outcome[(m1, m2)]

    def t(self, agent: int, m1: int, m2: int) -> Number:
        return self.transfer[(m1, m2)][agent]

    @property
    def transfer_bound(self) -> Number:
        """Largest absolute transfer, the scale used by the impossibility
        construction."""
        return max(abs(v) for pair in self.transfer.values() for v in pair)


def build_maskin(scenario: ScenarioModel, reward: Number) -> Mechanism:
    """Symmetric matching rule: agree and implement the report, disagree
    and implement the midpoint lottery with zero transfers."""
    reward = rat(reward)
    if scenario.n != 2:
        raise ModelError("matching rule is defined for binary state spaces")
    if reward <= 0:
        raise ModelError("reward R must be positive")
    f = scenario.scf
    mid = Lottery.mix([(Fraction(1, 2), f(0)), (Fraction(1, 2), f(1))])
    msgs = (1, 2)
    outcome, transfer = {}, {}
    for a in msgs:
        for b in msgs:
            if a == b:
                outcome[(a, b)] = f(a - 1)
                transfer[(a, b)] = (reward, reward)
            else:
                outcome[(a, b)] = mid
                transfer[(a, b)] = (Fraction(0), Fraction(0))
    return Mechanism("maskin", (msgs, msgs), outcome, transfer)


def _status_quo_family(scenario, kind, c, messages, transfer):
    """The body the status-quo rules share: equal-magnitude reports
    implement that state and any other pair the status quo ``f(theta^1)``.

    Solves ``kind``'s schedule at cost ``c`` and checks it, the exact
    certificate of the rule's rewards, naming every violated entry.
    ``transfer(schedule, own, other)`` is one agent's transfer when it
    sends ``own`` against ``other``.
    """
    schedule = solve_rewards(scenario.prior, c, kind)
    bad = [r for r in check_reward_constraints(schedule, scenario.prior, c, kind) if not r.ok]
    if bad:
        raise InfeasibleScheduleError(
            "; ".join(f"{r.name} violated (slack {fmt(r.slack)})" for r in bad)
        )
    f = scenario.scf
    outcome, table = {}, {}
    for a in messages:
        for b in messages:
            outcome[(a, b)] = f(abs(a) - 1) if abs(a) == abs(b) else f(0)
            table[(a, b)] = (transfer(schedule, a, b), transfer(schedule, b, a))
    return Mechanism(kind, (messages, messages), outcome, table, schedule)


def build_status_quo(scenario: ScenarioModel, c_bar: Number) -> Mechanism:
    """Status quo rule with ascending transfers: ``n`` messages per agent,
    matching reports implement the reported state and pay ``R^j``,
    anything else the status quo ``f(theta^1)`` and nothing."""
    c_bar = rat(c_bar)
    if c_bar < scenario.max_cost:
        raise ModelError("cost bound must dominate the unperturbed costs")
    return _status_quo_family(
        scenario, "sqr", c_bar, tuple(range(1, scenario.n + 1)),
        lambda sched, own, other: sched.r(own) if own == other else Fraction(0),
    )


def augmented_messages(n: int) -> tuple[int, ...]:
    return tuple(range(-n, -1)) + tuple(range(1, n + 1))


def build_augmented_status_quo(scenario: ScenarioModel) -> Mechanism:
    """Augmented rule: ``2n - 1`` messages, negative messages mirror the
    positive ones in outcomes but coordinate on the base reward ``R^0``."""
    if not scenario.generic:
        raise ModelError("augmented rule needs a generic prior")

    def transfer(sched, own, other):
        if own == other and own >= 1:
            return sched.r(own)
        if own <= 1 and other <= 1:
            return sched.r(0)
        return Fraction(0)

    return _status_quo_family(
        scenario, "asqr", scenario.max_cost, augmented_messages(scenario.n), transfer
    )


def build_modified_status_quo(scenario: ScenarioModel) -> Mechanism:
    """Modified rule: same outcomes as the augmented rule, but a sender of
    a high message pays penalty ``x`` when the opponent stays low."""
    if not scenario.generic:
        raise ModelError("modified rule needs a generic prior")

    def transfer(sched, own, other):
        if own == other and own >= 1:
            return sched.r(own)
        if own <= 1:
            return sched.r(0)
        if other <= 1:
            return sched.r(0) - sched.penalty
        return Fraction(0)

    return _status_quo_family(
        scenario, "msqr", scenario.max_cost, augmented_messages(scenario.n), transfer
    )


def build_one_respondent(
    scenario: ScenarioModel, respondent: int, transfers: dict[int, Number]
) -> Mechanism:
    """Mechanism that asks only one agent: the respondent picks a state
    index and is paid a state-class reward; the other agent is ignored."""
    n = scenario.n
    resp_msgs = tuple(range(1, n + 1))
    other_msgs = (1,)
    msgs = (resp_msgs, other_msgs) if respondent == 0 else (other_msgs, resp_msgs)
    outcome, transfer = {}, {}
    for a in msgs[0]:
        for b in msgs[1]:
            pick = a if respondent == 0 else b
            outcome[(a, b)] = scenario.scf(pick - 1)
            pay = transfers[pick]
            transfer[(a, b)] = (pay, Fraction(0)) if respondent == 0 else (Fraction(0), pay)
    return Mechanism("one-respondent", msgs, outcome, transfer)


def export_mechanism(mechanism: Mechanism) -> str:
    """Tabular text form: one row per message pair for auditability."""
    lines = ["m1\tm2\toutcome\tt1\tt2"]
    for a in mechanism.messages[0]:
        for b in mechanism.messages[1]:
            lot = ",".join(fmt(w) for w in mechanism.outcome[(a, b)].weights)
            t1, t2 = mechanism.transfer[(a, b)]
            lines.append(f"{a}\t{b}\t{lot}\t{fmt(t1)}\t{fmt(t2)}")
    return "\n".join(lines) + "\n"
