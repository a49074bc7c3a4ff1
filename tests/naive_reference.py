"""Naive reference evaluator for differential tests.

The functions below are the per-circumstance evaluator that the compiled
perturbation tables replaced: linear scans for types and masses, raw
ladder masses as weights, caches keyed by circumstance, and iterated
dominance that rechecks every type in every round.  They are kept
verbatim so that the compiled engine can be compared against them by
exact equality.  ``NaiveGame`` wraps a ``Game`` and supplies the old
``inner_value``; ``NaivePerturbation`` supplies the old ``type_of`` and
``type_prob``, summed from the masses it reads once from ``pi``.
``ladder_masses``, ``type_groups``, ``posterior``, ``eta_of``,
``outcome_distribution`` and ``truthful_probability_mass`` are the
ladder construction and the mass sums before the ratio/coefficient form:
per-rung powers renormalized by a sum, conditional weights and posteriors
divided out of raw masses, and lotteries mixed once per circumstance.
A ``Perturbation`` computes ``pi`` on each access, so every function
here reads it once.
``strict_cyclical_monotonicity`` enumerates every state
permutation, the oracle for the class-graph check, and
``step3_closure_certificate`` every (strategy, restricted opponent
strategy) pair, the oracle for the per-state check.  ``solve_rewards``
derives each schedule kind's closed form by hand and steps its ratio
variable one unit at a time, the oracle for the solver that reads each
kind's inequality list; it can loop forever when the first state is not
the most likely, so it is only called on descending priors.  Strategy
sets come
as per-coordinate choices, and every function here enumerates their
product itself, so the oracle scans every member.
"""

import itertools
import math
from fractions import Fraction

from robustmech.core import Lottery, ModelError, is_generic
from robustmech.engine import (
    Game,
    PureStrategy,
    StrategySet,
    TypeStrategy,
    canonical_replacement,
    full_strategy_set,
    is_constant,
    StrategyProfile,
    restricted_strategy_set,
)
from robustmech.mechanisms import InfeasibleScheduleError, RewardSchedule
from robustmech.numeric import Number, rat


def ladder_masses(depth: int, eta: Fraction, tail: str = "collapse"):
    """``(pi, tail_mass)`` of a geometric ladder, each rung's mass from its
    own power of ``1 - eta``."""
    pi = [eta * (1 - eta) ** t for t in range(depth)]
    if tail == "collapse":
        tail_mass = (1 - eta) ** depth
        pi.append(tail_mass)
    elif tail == "renormalize":
        pi.append(eta * (1 - eta) ** depth)
        total = sum(pi)
        pi = [p / total for p in pi]
        tail_mass = 1 - total
    else:
        raise ModelError(f"unknown tail convention {tail!r}")
    return tuple(pi), tail_mass


def type_groups(pert, agent: int, type_index: int):
    """A type's conditional weights ``pi[w] / P(type)``, grouped by
    opponent type and merged by payoff class, from the raw masses."""
    naive = NaivePerturbation(pert)
    mass = naive.type_prob(agent, type_index)
    by_opp: dict[int, dict] = {}
    for w in pert.partitions[agent][type_index]:
        if not naive.pi[w]:
            continue
        cells = by_opp.setdefault(naive.type_of(1 - agent, w), {})
        cls = pert.payoff_class(agent, w)
        rep, weight = cells.get(cls, (w, 0))
        cells[cls] = (rep, weight + naive.pi[w] / mass)
    return tuple((opp, tuple(cells.values())) for opp, cells in by_opp.items())


def posterior(pert, agent: int, type_index: int) -> dict[int, Number]:
    """Bayes posterior over the opponent's types given one's own type,
    summed circumstance by circumstance from the raw masses."""
    naive = NaivePerturbation(pert)
    element = pert.partitions[agent][type_index]
    total = naive.type_prob(agent, type_index)
    if total == 0:
        raise ModelError("posterior of a zero-probability type")
    out: dict[int, Number] = {}
    for w in element:
        opp = naive.type_of(1 - agent, w)
        out[opp] = out.get(opp, 0) + naive.pi[w] / total
    return out


def eta_of(perturbation) -> Number:
    """One minus the probability that both agents are normal types."""
    normal = [
        {
            idx
            for idx in range(len(perturbation.partitions[agent]))
            if perturbation.type_is_normal(agent, idx)
        }
        for agent in (0, 1)
    ]
    pi = perturbation.pi
    mass = sum(
        pi[w]
        for w in range(perturbation.size)
        if perturbation.type_of(0, w) in normal[0]
        and perturbation.type_of(1, w) in normal[1]
    )
    return 1 - mass


def outcome_distribution(game: Game, profile: StrategyProfile, state: int) -> Lottery:
    """Implemented lottery conditional on the state, integrating over
    circumstances, signals, mixtures, and trembles."""
    pert = game.perturbation
    coords = [
        (k1, k2, p / game.scenario.prior[state])
        for theta, k1, k2, p in game.coords
        if theta == state
    ]
    parts = []
    pi = pert.pi
    for w in range(pert.size):
        mass = pi[w]
        if mass == 0:
            continue
        mix1 = profile[0][pert.type_of(0, w)]
        mix2 = profile[1][pert.type_of(1, w)]
        for s1, w1 in mix1.items():
            for s2, w2 in mix2.items():
                weight = mass * w1 * w2
                if not weight:
                    continue
                for k1, k2, pc in coords:
                    lot = game.pair_values(s1[k1], s2[k2])[2]
                    parts.append((weight * pc, lot))
    return Lottery.mix(parts)


def truthful_probability_mass(game: Game, profile: StrategyProfile) -> Number:
    """Probability that both agents' realized intent is the truthful one."""
    pert = game.perturbation
    mass = Fraction(0)
    pi = pert.pi
    for w in range(pert.size):
        p = pi[w]
        if not p:
            continue
        w1 = profile[0][pert.type_of(0, w)].get(game.truthful(0), Fraction(0))
        w2 = profile[1][pert.type_of(1, w)].get(game.truthful(1), Fraction(0))
        mass += p * w1 * w2
    return mass


class NaivePerturbation:
    """Pre-compilation type lookups over a ``Perturbation``."""

    def __init__(self, pert):
        self._pert = pert
        self.pi = pert.pi
        self.partitions = pert.partitions

    def __getattr__(self, name):
        return getattr(self._pert, name)

    def type_of(self, agent: int, circ: int) -> int:
        for idx, block in enumerate(self.partitions[agent]):
            if circ in block:
                return idx
        raise ModelError(f"circumstance {circ} not in agent {agent} partition")

    def type_prob(self, agent: int, type_index: int) -> Number:
        return sum(self.pi[w] for w in self.partitions[agent][type_index])


class NaiveGame:
    """A ``Game`` seen through the per-circumstance payoff caches."""

    def __init__(self, game):
        self.scenario = game.scenario
        self.perturbation = NaivePerturbation(game.perturbation)
        self.coords = game.coords
        self.pair_values = game.pair_values
        self.truthful = game.truthful
        self._u_cache = {}
        self._inner_cache = {}

    def _expected_u(self, agent: int, circ: int, state: int, m1: int, m2: int) -> Number:
        key = (agent, circ, state, m1, m2)
        hit = self._u_cache.get(key)
        if hit is not None:
            return hit
        lot = self.pair_values(m1, m2)[2]
        value = sum(
            w * self.perturbation.utility(agent, circ, state, y)
            for y, w in enumerate(lot.weights)
            if w
        )
        self._u_cache[key] = value
        return value

    def inner_value(self, agent: int, circ: int, own: PureStrategy, opp: PureStrategy) -> Number:
        """Expected payoff at a fixed circumstance against an opponent pure
        strategy, integrating over states, signals, and trembles."""
        key = (agent, circ, own, opp)
        hit = self._inner_cache.get(key)
        if hit is not None:
            return hit
        total = Fraction(0)
        for theta, k1, k2, p in self.coords:
            if agent == 0:
                m1, m2 = own[k1], opp[k2]
            else:
                m1, m2 = opp[k1], own[k2]
            t = self.pair_values(m1, m2)[agent]
            total += p * (t + self._expected_u(agent, circ, theta, m1, m2))
        if not is_constant(own):
            total -= self.perturbation.cost(agent, circ)
        self._inner_cache[key] = total
        return total


def expected_payoff(
    game: Game,
    agent: int,
    type_index: int,
    strategy: PureStrategy,
    opponent: dict[int, TypeStrategy],
) -> Number:
    """Interim expected payoff of a type playing a pure strategy against the
    opponent side of a profile."""
    pert = game.perturbation
    element = pert.partitions[agent][type_index]
    pi = pert.pi
    total_mass = sum(pi[w] for w in element)
    if total_mass == 0:
        raise ModelError("expected payoff of a zero-probability type")
    value = Fraction(0)
    for w in element:
        mass = pi[w]
        if mass == 0:
            continue
        opp_type = pert.type_of(1 - agent, w)
        for r, weight in opponent[opp_type].items():
            if weight:
                value += mass * weight * game.inner_value(agent, w, strategy, r)
    return value / total_mass


def iterated_dominance(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
    mixture_denominator: int = 0,
    max_rounds: int = 10_000,
) -> tuple[list[dict[int, list[PureStrategy]]], int]:
    """Interim iterated elimination of strictly dominated strategies.

    A type's strategy is eliminated when some other surviving strategy
    (or, if ``mixture_denominator`` > 0, a two-point mixture on that grid)
    does strictly better against every selection of surviving opponent
    strategies.  The worst case separates across opponent types, so each
    comparison is a sum of per-opponent-type minima.  Returns the
    surviving sets per (agent, type) and the number of rounds to the
    fixed point.
    """
    pert = game.perturbation
    surviving: list[dict[int, list[PureStrategy]]] = [
        {
            t: sorted(itertools.product(*strategy_sets[agent]))
            for t in range(len(pert.partitions[agent]))
        }
        for agent in (0, 1)
    ]
    rounds = 0
    while rounds < max_rounds:
        changed = False
        for agent in (0, 1):
            opp = 1 - agent
            for t, pool in surviving[agent].items():
                if pert.type_prob(agent, t) == 0 or len(pool) <= 1:
                    continue
                keep = [
                    s
                    for s in pool
                    if not _is_dominated(
                        game, agent, t, s, pool, surviving[opp], mixture_denominator
                    )
                ]
                if len(keep) != len(pool):
                    surviving[agent][t] = keep
                    changed = True
        if not changed:
            break
        rounds += 1
    return surviving, rounds


def _type_groups(game: Game, agent: int, t: int):
    """Own-type circumstances grouped by the opponent type they induce."""
    pert = game.perturbation
    pi = pert.pi
    groups: dict[int, list[int]] = {}
    for w in pert.partitions[agent][t]:
        if pi[w]:
            groups.setdefault(pert.type_of(1 - agent, w), []).append(w)
    return groups


def _pair_margin(game: Game, agent: int, t: int, better, worse, opp_surviving):
    """Worst-case payoff gain of ``better`` over ``worse``; ``better`` may
    be a pure strategy or a [(strategy, weight)] mixture."""
    pi = game.perturbation.pi
    total = Fraction(0)
    for opp_type, circs in _type_groups(game, agent, t).items():
        best = None
        for r in opp_surviving[opp_type]:
            gain = Fraction(0)
            for w in circs:
                mass = pi[w]
                if isinstance(better, tuple):
                    up = game.inner_value(agent, w, better, r)
                else:
                    up = sum(
                        wt * game.inner_value(agent, w, s, r) for s, wt in better
                    )
                gain += mass * (up - game.inner_value(agent, w, worse, r))
            if best is None or gain < best:
                best = gain
        total += best
    return total


def _is_dominated(game, agent, t, s, pool, opp_surviving, mixture_denominator):
    for other in pool:
        if other == s:
            continue
        if _pair_margin(game, agent, t, other, s, opp_surviving) > 0:
            return True
    if mixture_denominator > 1:
        for a, b in itertools.combinations([x for x in pool if x != s], 2):
            for k in range(1, mixture_denominator):
                w = Fraction(k, mixture_denominator)
                mix = [(a, w), (b, 1 - w)]
                if _pair_margin(game, agent, t, mix, s, opp_surviving) > 0:
                    return True
    return False


def best_response(game, agent, type_index, opponent, strategy_set):
    """Argmax of the naive expected payoff over the whole strategy set,
    ties in canonical (sorted) order, with the attained value."""
    best_value = None
    winners = []
    for s in sorted(itertools.product(*strategy_set)):
        v = expected_payoff(game, agent, type_index, s, opponent)
        if best_value is None or v > best_value:
            best_value, winners = v, [s]
        elif v == best_value:
            winners.append(s)
    return winners, best_value


def residuals(game, profile, strategy_sets):
    """Best pure deviation value minus the prescribed mixture's value, for
    every positive-mass type."""
    pert = game.perturbation
    out = {}
    for agent in (0, 1):
        opponent = profile[1 - agent]
        for t in range(len(pert.partitions[agent])):
            if pert.type_prob(agent, t) == 0:
                continue
            _, best = best_response(game, agent, t, opponent, strategy_sets[agent])
            own = sum(
                w * expected_payoff(game, agent, t, s, opponent)
                for s, w in profile[agent][t].items()
                if w
            )
            out[(agent, t)] = best - own
    return out


def iterate_best_response(game, strategy_sets, initial, max_rounds=200):
    """Synchronous pure best-response iteration with canonical tie
    breaking; returns (profile, rounds, converged, cycled)."""
    pert = game.perturbation

    def key(profile):
        return tuple(
            tuple(sorted((t, tuple(sorted(mix.items()))) for t, mix in side.items()))
            for side in profile
        )

    profile = initial
    seen = {key(profile)}
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        nxt = [{}, {}]
        for agent in (0, 1):
            for t in range(len(pert.partitions[agent])):
                if pert.type_prob(agent, t) == 0:
                    nxt[agent][t] = dict(profile[agent][t])
                    continue
                winners, _ = best_response(
                    game, agent, t, profile[1 - agent], strategy_sets[agent]
                )
                nxt[agent][t] = {winners[0]: Fraction(1)}
        if key(nxt) == key(profile):
            return nxt, rounds, True, False
        if key(nxt) in seen:
            return nxt, rounds, False, True
        seen.add(key(nxt))
        profile = nxt
    return profile, rounds, False, False


def strict_cyclical_monotonicity(u, scf) -> bool:
    """Whether truthful assignment beats every state permutation, by
    enumerating all n! of them: no permutation may gain, and one that
    changes some state's target lottery must lose strictly."""
    n = len(scf.lotteries)
    diag = sum(u.expected_utility(j, scf(j)) for j in range(n))
    for perm in itertools.permutations(range(n)):
        total = sum(u.expected_utility(j, scf(perm[j])) for j in range(n))
        changes = any(not scf(perm[j]).same_as(scf(j)) for j in range(n))
        if total > diag or (changes and total == diag):
            return False
    return True


def step3_closure_certificate(mechanism, scenario, variant):
    """Exhaustive replacement-dominance check by enumeration.

    Every pure strategy outside the restricted set must (a) induce the
    same state-outcome distribution as its canonical replacement against
    every restricted opponent pure strategy and (b) never earn a larger
    expected transfer, strictly smaller for constant vectors of a high
    message.  Returns failures as witnesses.
    """
    n = scenario.n
    sigma_star = set(itertools.product(*restricted_strategy_set(variant, n)))
    opp_set = list(itertools.product(*restricted_strategy_set(variant, n)))
    # Per state j and message triple (a, a_star, b): whether a and its
    # replacement a_star give the same outcome against b, and the
    # prior-weighted transfer gain of a_star over a.
    msgs_own, msgs_opp = mechanism.messages
    coordinate = [
        {
            (a, a_star, b): (
                mechanism.g(a, b).same_as(mechanism.g(a_star, b)),
                scenario.prior[j] * (mechanism.t(0, a_star, b) - mechanism.t(0, a, b)),
            )
            for a in msgs_own
            for a_star in msgs_own
            for b in msgs_opp
        }
        for j in range(n)
    ]
    failures = []
    for s in itertools.product(*full_strategy_set(msgs_own, n)):
        if s in sigma_star:
            continue
        s_star = canonical_replacement(s, variant, n)
        want_strict = is_constant(s) and s[0] >= 2 and variant != "sqr"
        for r in opp_set:
            gain = Fraction(0)
            for j in range(n):
                same, term = coordinate[j][(s[j], s_star[j], r[j])]
                if not same:
                    failures.append({"strategy": s, "opponent": r, "state": j, "kind": "outcome"})
                gain += term
            if gain < 0 or (want_strict and r == tuple(range(1, n + 1)) and gain <= 0):
                failures.append({"strategy": s, "opponent": r, "gain": gain, "kind": "transfer"})
    return not failures, failures


def _grid_ceil(value: Number, step: Number) -> Number:
    k = math.ceil(Fraction(value) / Fraction(step))
    return k * step


def solve_rewards(
    prior: tuple[Number, ...],
    c: Number,
    kind: str,
    step: Number = 1,
    margin: int = 1,
) -> RewardSchedule:
    """Lexicographically minimal grid schedule with ``margin`` steps of slack.

    The ratio constraints of the augmented and modified rules require a
    generic prior; a tied maximum raises :class:`InfeasibleScheduleError`.
    """
    c = rat(c)
    step = rat(step)
    q = tuple(rat(p) for p in prior)
    n = len(q)
    slack = margin * step
    if kind == "sqr":
        r1 = _grid_ceil(max(slack, c / q[0] + slack), step)
        rewards = {1: r1}
        for j in range(2, n + 1):
            rewards[j] = _grid_ceil(r1 + 2 * c / q[j - 1] + slack, step)
        return RewardSchedule("sqr", rewards, cost=c)

    generic, _ = is_generic(q)
    if not generic:
        raise InfeasibleScheduleError(
            "ratio constraints need a unique strictly-most-likely state"
        )

    if kind == "asqr":
        r0 = _grid_ceil(slack, step)
        while True:
            rewards = {0: r0}
            rewards[1] = _grid_ceil(r0 + 2 * c / q[0] + slack, step)
            for j in range(2, n + 1):
                bound = max(rewards[j - 1] + slack, rewards[1] + 2 * c / q[j - 1] + slack)
                rewards[j] = _grid_ceil(bound, step)
            if r0 * q[0] - rewards[n] * q[1] >= slack * q[0]:
                return RewardSchedule("asqr", rewards, cost=c)
            r0 += step

    if kind == "msqr":
        x = _grid_ceil(c / q[n - 1] + slack, step)
        while True:
            rewards = {0: _grid_ceil(x + slack, step)}
            rewards[1] = _grid_ceil(rewards[0] + 4 * c / q[0] + slack, step)
            for j in range(2, n + 1):
                bound = max(
                    rewards[j - 1] + slack,
                    rewards[1] + x + 2 * c / q[j - 1] + slack,
                )
                rewards[j] = _grid_ceil(bound, step)
            if all(
                x * q[0] - q[j - 1] * (rewards[j] - rewards[0]) >= slack * q[0]
                for j in range(2, n + 1)
            ):
                return RewardSchedule("msqr", rewards, penalty=x, cost=c)
            x += step

    raise ModelError(f"unknown schedule kind {kind!r}")
