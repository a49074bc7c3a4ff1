"""Naive reference evaluator for differential tests.

The functions below are the per-circumstance evaluator that the compiled
perturbation tables replaced: linear scans for types and masses, raw
ladder masses as weights, caches keyed by circumstance, and iterated
dominance that rechecks every type in every round.  They are kept
verbatim so that the compiled engine can be compared against them by
exact equality.  ``NaiveGame`` wraps a ``Game`` and supplies the old
``inner_value``, and ``pair_values``, which integrates each intended
pair over its realized pairs from the tremble's ``tau`` and noise, the
oracle for ``TrembleSpec.apply``; ``NaivePerturbation`` supplies the old
``type_of`` and ``type_prob``, summed from the masses it reads once from
``pi``; the functions that skip zero-mass types take a ``NaiveGame``
and read those masses.
``ladder_masses``, ``type_groups``, ``posterior``, ``eta_of``,
``outcome_distribution`` and ``truthful_probability_mass`` are the
ladder construction and the mass sums before the ratio/coefficient form:
per-rung powers renormalized by a sum, conditional weights and posteriors
divided out of raw masses, and lotteries mixed once per circumstance.
``is_biased_at``, ``type_is_normal`` and ``is_c_bounded`` read every
circumstance's bias and cost, the oracles for ``eta_of`` and
``is_c_bounded``, which read each bias once.
A ``Perturbation`` computes ``pi`` on each access, so every function
here reads it once.
``restricted_strategy_set`` and ``canonical_replacement`` name a rule's
restricted game by a variant string, ``"sqr"`` or ``"asqr"``, the
oracle for the functions that read it off the rule's messages.
``strict_cyclical_monotonicity`` enumerates every state
permutation, the oracle for the class-graph check, and
``step3_closure_certificate`` every (strategy, restricted opponent
strategy) pair, the oracle for the per-state check.
``deviation_dominance_certificate`` takes the tremble's realized
probabilities in closed form and the signal conditionals straight from
the joint, the oracle for the certificate that reads a ``Game``.  ``solve_rewards``
derives each schedule kind's closed form by hand and steps its ratio
variable one unit at a time, the oracle for the solver that reads each
kind's inequality list; it can loop forever when the first state is not
the most likely, so it is only called on descending priors.
``near_best`` scans a whole product for the members within a slack of
its best value, the oracle for ``PayoffTable.near_best``, and
``PayoffTable.from_fractions`` builds a table from exact entries over the
least common multiple of their denominators, as the engine converted
each row before it summed rows on integers.
``size_of_signal_structure`` sums the joint once per (agent, signal)
for each of the two agreement conditions, the oracle for the one pass
per agent that gathers every signal's total and agreement mass.
``gamma_dominance_threshold`` computes one threshold per deviation over
the whole product of the agent's choices, the oracle for the
per-coordinate fractional program.  Strategy
sets come
as per-coordinate choices, and every function here enumerates their
product itself, so the oracle scans every member.
``assert_witnesses`` checks the witnesses of exact dominance by mixtures
on ``expected_payoff`` and ``_pair_margin``, one per verdict.
``type_kind`` reads a type's kind, the int that keys its payoff tables,
off its template.
``round_by_round_dominance`` is the engine's iterated dominance before it
checked types in runs and skipped a contagion's repeated rounds: one
memo lookup per stale type and every round replayed, the oracle for both.
``grid_equilibria`` is prop1's grid search before it went lazy: both
agents' passing sets against every candidate, built in full, then every
pair filtered, the oracle for the joint search that builds a passing set
only when a pair needs it.
"""

import bisect
import itertools
import math
from dataclasses import replace
from fractions import Fraction

from robustmech import engine
from robustmech.core import Lottery, ModelError, is_generic
from robustmech.engine import (
    Game,
    PureStrategy,
    StrategySet,
    TypeStrategy,
    full_strategy_set,
    is_constant,
    StrategyProfile,
)
from robustmech.equilibrium import DominanceCertificate, EliminationResult, _undominated
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


def type_kind(pert, agent: int, type_index: int) -> int:
    return pert._templates[pert._type_template[agent][type_index]][1]


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


def is_biased_at(pert, agent: int, circ: int) -> bool:
    """Whether the bias at ``circ``, if any, changes the agent's cost or
    a payoff."""
    cls = pert.payoff_class(agent, circ)
    if cls is None:
        return False
    bias, base = pert.biases[cls], pert.scenario.payoffs[agent]
    if bias.cost is not None and bias.cost != base.cost:
        return True
    return any(value != base.u[s][o] for (s, o), value in bias.u_overrides.items())


def type_is_normal(pert, agent: int, type_index: int) -> bool:
    """A type is normal iff payoffs and cost match the unperturbed model
    on every circumstance of its partition element."""
    return not any(is_biased_at(pert, agent, w) for w in pert.partitions[agent][type_index])


def is_c_bounded(pert, c_bar: Number) -> bool:
    """True iff every circumstance's learning cost is at most ``c_bar``."""
    return all(pert.cost(agent, w) <= c_bar for agent in (0, 1) for w in range(pert.size))


def eta_of(perturbation) -> Number:
    """One minus the probability that both agents are normal types."""
    normal = [
        {
            idx
            for idx in range(len(perturbation.partitions[agent]))
            if type_is_normal(perturbation, agent, idx)
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
        for (theta, k1, k2), p in game.signals.joint.items()
        if theta == state and p
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


def size_of_signal_structure(structure, prior) -> Number:
    """Smallest ``tau`` with, for each agent, (a) every signal of positive
    probability agreeing with the opponent's signal's meaning with
    conditional probability at least ``1 - tau``, and (b) the agent's
    signal meaning the state with probability at least ``1 - tau``."""
    joint, h = structure.joint, structure.meanings
    for j, q in enumerate(prior):
        if sum(p for (theta, _, _), p in joint.items() if theta == j) != q:
            raise ModelError("signal structure marginal on states differs from the prior")
    tau = Fraction(0)
    for i in (0, 1):
        for k in range(structure.sizes[i]):
            total = sum(p for key, p in joint.items() if key[1 + i] == k)
            if total == 0:
                continue
            agree = sum(p for key, p in joint.items()
                        if key[1 + i] == k and h[1 - i][key[2 - i]] == h[i][k])
            tau = max(tau, 1 - agree / total)
        correct = sum(p for key, p in joint.items() if h[i][key[1 + i]] == key[0] + 1)
        tau = max(tau, 1 - correct)
    return tau


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
        self.signals = game.signals
        self.mechanism = game.mechanism
        self.tremble = game.tremble
        self.truthful = game.truthful
        self._pairs = {}
        self._u_cache = {}
        self._inner_cache = {}

    def _realized_prob(self, agent: int, intended: int, m: int) -> Number:
        """Probability that the agent's message ``m`` is realized when it
        intends ``intended``."""
        stays = Fraction(1 if m == intended else 0)
        if self.tremble is None:
            return stays
        tau = self.tremble.tau
        return (1 - tau) * stays + tau * self.tremble.noise[agent].get(m, 0)

    def pair_values(self, m1: int, m2: int):
        """Expected transfers and outcome lottery of an intended pair, a
        sum over every pair of messages the mechanism has.  Cached by the
        intended pair."""
        hit = self._pairs.get((m1, m2))
        if hit is not None:
            return hit
        mech = self.mechanism
        t1 = t2 = Fraction(0)
        parts = []
        for a in mech.messages[0]:
            for b in mech.messages[1]:
                w = self._realized_prob(0, m1, a) * self._realized_prob(1, m2, b)
                if w:
                    t1 += w * mech.t(0, a, b)
                    t2 += w * mech.t(1, a, b)
                    parts.append((w, mech.g(a, b)))
        hit = self._pairs[(m1, m2)] = (t1, t2, Lottery.mix(parts))
        return hit

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
        for (theta, k1, k2), p in self.signals.joint.items():
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
    game: NaiveGame,
    strategy_sets: tuple[StrategySet, StrategySet],
    mixture_denominator: int = 0,
    max_rounds: int = 10_000,
) -> tuple[list[dict[int, list[PureStrategy]]], int, tuple]:
    """Interim iterated elimination of strategies strictly dominated by
    a member or, if ``mixture_denominator`` > 0, by a two-point mixture on
    that grid: a bound on exact dominance by any mixture, whose survivors
    it contains.

    A type's strategy is eliminated when some other surviving strategy
    (or a grid mixture) does strictly better against every selection of
    surviving opponent strategies.  The worst case separates across
    opponent types, so each comparison is a sum of per-opponent-type
    minima.  Returns the surviving sets per (agent, type), the number of
    rounds to the fixed point and, per round run, the sorted ``(agent,
    type, strategy)`` triples it eliminated.
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
    eliminated = []
    while rounds < max_rounds:
        changed = False
        removed = []
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
                    removed.extend((agent, t, s) for s in pool if s not in keep)
                    surviving[agent][t] = keep
                    changed = True
        eliminated.append(tuple(sorted(removed)))
        if not changed:
            break
        rounds += 1
    return surviving, rounds, tuple(eliminated)


def round_by_round_dominance(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
) -> EliminationResult:
    """``iterated_dominance`` type by type and round by round: the loop it
    replaced, kept unchanged as its oracle.  It checks each stale type on
    its own, with the engine's ``_undominated`` and the game's dominance
    memo, and replays every round of a contagion up a ladder."""
    pert, cache, members = game.perturbation, game._dom_cache, game._pools
    pools = [[game.pool_id(itertools.product(*strategy_sets[agent]))] * len(part)
             for agent, part in enumerate(pert.partitions)]
    templates = pert._templates
    meets = [[tuple([b + u for u in templates[i][2]]) for i, b in zip(tids, bases)]
             for tids, bases in zip(pert._type_template, pert._type_base)]
    kinds = [[templates[i][1] for i in tids] for tids in pert._type_template]
    stale = [set(range(len(side))) for side in pools]
    eliminated = []
    for rounds in itertools.count():
        removed = []
        for agent, opp in ((0, 1), (1, 0)):
            own, opp_pools, own_kinds = pools[agent], pools[opp], kinds[agent]
            todo, stale[agent] = stale[agent], set()
            for t in sorted(todo):
                nbrs, pid = meets[agent][t], own[t]
                if not nbrs or len(members[pid]) <= 1:
                    continue
                opp_ids = tuple([opp_pools[u] for u in nbrs])
                key = (agent, pid, own_kinds[t], opp_ids)
                entry = cache.get(key)
                if entry is None:
                    pool = members[pid]
                    keep, witness = _undominated(game, agent, t, pool, opp_ids)
                    entry = cache[key] = (game.pool_id(keep),
                                          tuple([s for s in pool if s not in keep]), witness)
                if entry[1]:
                    removed.extend([(agent, t, s) for s in entry[1]])
                    own[t] = entry[0]
                    stale[opp].update(nbrs)
        # Agents, types and pools are walked in order, so ``removed`` is sorted.
        eliminated.append(tuple(removed))
        if not removed:
            surviving = [{t: list(members[i]) for t, i in enumerate(side)} for side in pools]
            return EliminationResult(surviving, rounds, tuple(eliminated))


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
        # ``_pair_margin`` of the mixture k/D a + (1 - k/D) b, times D and
        # a common denominator: each member's per-opponent-type values
        # against each surviving strategy, as integers.
        pi, groups = game.perturbation.pi, _type_groups(game, agent, t).items()
        vals = {x: [[sum(pi[w] * game.inner_value(agent, w, x, r) for w in circs)
                     for r in opp_surviving[u]] for u, circs in groups] for x in pool}
        den = math.lcm(*(v.denominator for rows in vals.values() for row in rows for v in row))
        ints = {x: [[int(v * den) for v in row] for row in rows] for x, rows in vals.items()}
        d, low = mixture_denominator, ints.pop(s)
        for a, b in itertools.combinations(ints, 2):
            for k in range(1, d):
                if sum(min(k * p + (d - k) * q - d * z for p, q, z in zip(*rows))
                       for rows in zip(ints[a], ints[b], low)) > 0:
                    return True
    return False


def assert_witnesses(game, agent, t, pool, opp_pools, keep, witness):
    """Every member's witness from one dominance check of type ``t``, on
    naive values: a dropped member's mixture ``sigma`` of the pool
    strictly dominates it against every selection from ``opp_pools``, and
    a kept member is a best response within the pool to its beliefs
    ``mu``.  ``opp_pools`` and each ``mu`` follow ``type_groups`` order."""
    met = [u for u, _ in game.perturbation.type_groups(agent, t)]
    reference, opp = NaiveGame(game), dict(zip(met, opp_pools))
    for s in pool:
        w = witness[s]
        weights = [w] if s not in keep else list(w)
        assert all(sum(x.values()) == 1 and min(x.values()) > 0 for x in weights)
        if s not in keep:
            assert set(w) <= set(pool) - {s}
            assert _pair_margin(reference, agent, t, list(w.items()), s, opp) > 0
            continue
        beliefs = dict(zip(met, w))
        assert len(w) == len(met) and all(set(beliefs[u]) <= set(opp[u]) for u in met)
        value = expected_payoff(reference, agent, t, s, beliefs)
        assert all(expected_payoff(reference, agent, t, x, beliefs) <= value for x in pool)


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


def near_best(table, choices, slack):
    """Every member of the product of ``choices`` worth at least its best
    value less ``slack``, by scanning the product in canonical order."""
    members = list(itertools.product(*choices))
    best = max(table.value(s) for s in members)
    return [s for s in members if table.value(s) >= best - slack]


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


class PayoffTable(engine.PayoffTable):
    """The engine's table, built from exact entries."""

    __slots__ = ()

    @classmethod
    def from_fractions(cls, coords, cost) -> "PayoffTable":
        """The table of exact entries ``coords[k][m]`` and ``cost``, over
        the least common multiple of their denominators."""
        den = math.lcm(cost.denominator, *(x.denominator for cell in coords for x in cell.values()))
        nums = tuple(
            {m: x.numerator * (den // x.denominator) for m, x in cell.items()} for cell in coords
        )
        return cls(nums, cost.numerator * (den // cost.denominator), den)


def gamma_dominance_threshold(mechanism, scenario, c_bar) -> DominanceCertificate:
    """The dominance threshold by enumeration: one witness row per agent
    and deviation, in canonical order, each with its gains read from
    ``inner_value`` and its own threshold; gamma is the largest.  Raises
    the ``ModelError`` naming the first deviation, in canonical order,
    that truth does not strictly beat against the truthful opponent."""
    truth = tuple(range(1, scenario.n + 1))
    gamma = Fraction(0)
    witness = []
    charged = tuple(replace(p, cost=c_bar) for p in scenario.payoffs)
    game = Game(replace(scenario, payoffs=charged), mechanism)
    messages = mechanism.messages
    if mechanism.kind == "maskin":
        sets = tuple(full_strategy_set(messages[i], scenario.n) for i in (0, 1))
    else:
        sets = tuple(engine.restricted_strategy_set(messages[i], truth) for i in (0, 1))
    for agent in (0, 1):
        own = sets[agent]
        allowed = sets[1 - agent]
        msgs_own = sorted({m for ms in own for m in ms})
        phi = {
            b: game.coordinate_row(agent, 0, (b,) * scenario.n).entries()
            for b in {b for a in allowed for b in a}
        }
        worst = {
            (k, m): min(allowed[k], key=lambda b: phi[b][k][t] - phi[b][k][m])
            for k, t in enumerate(truth)
            for m in msgs_own
        }
        truth_value = game.inner_value(agent, 0, truth, truth)
        for s in itertools.product(*own):
            if s == truth:
                continue
            d_truth = truth_value - game.inner_value(agent, 0, s, truth)
            if d_truth <= 0:
                raise ModelError(
                    f"truthful reporting is not strictly dominant at gamma=1 "
                    f"(deviation {s} gains {-d_truth})"
                )
            picks = tuple(worst[(k, m)] for k, m in enumerate(s))
            d_adv = game.inner_value(agent, 0, truth, picks) - game.inner_value(agent, 0, s, picks)
            root = Fraction(0) if d_adv > 0 else d_adv / (d_adv - d_truth)
            gamma = max(gamma, root)
            witness.append(
                {
                    "agent": agent,
                    "deviation": s,
                    "gain_vs_truthful": d_truth,
                    "worst_case_gain": d_adv,
                    "adversary": picks,
                    "threshold": root,
                }
            )
    return DominanceCertificate(gamma, tuple(witness))


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


def transfer_potentials(u, scf) -> dict[int, Number]:
    """Per-state transfers by path enumeration, for instances where strict
    cyclical monotonicity holds.  Classes are the distinct target
    lotteries; the arc ``W(A, B)`` is the least, over A's states, of the
    utility of A's target less B's; ``delta`` is the minimum simple cycle
    weight over twice the class count.  A class's potential is the least
    of 0 and the weight under ``W - delta`` of every simple path into it;
    the potentials are shifted so that the least is 0."""
    reps: list[Lottery] = []
    for lot in scf.lotteries:
        if not any(lot.same_as(rep) for rep in reps):
            reps.append(lot)
    cls = [next(i for i, rep in enumerate(reps) if lot.same_as(rep)) for lot in scf.lotteries]
    k = len(reps)

    def arc(a, b):
        return min(u.expected_utility(j, reps[a]) - u.expected_utility(j, reps[b])
                   for j in range(len(cls)) if cls[j] == a)

    def weight(path):
        return sum((arc(a, b) for a, b in zip(path, path[1:])), Fraction(0))

    paths = [p for size in range(2, k + 1) for p in itertools.permutations(range(k), size)]
    delta = min(weight(p + p[:1]) for p in paths) / (2 * k) if paths else Fraction(0)
    reach = [
        min([Fraction(0)] + [weight(p) - (len(p) - 1) * delta for p in paths if p[-1] == b])
        for b in range(k)
    ]
    low = min(reach)
    return {j: reach[cls[j]] - low for j in range(len(cls))}


def restricted_strategy_set(
    variant: str,
    n: int,
    meanings: tuple[int, ...] | None = None,
) -> StrategySet:
    """The strategies kept by each construction's restricted game, named
    by a variant string instead of read off the rule's messages.

    A coordinate's meaning is its state index, or, with a signal
    structure, the state index its signal means (pass the agent's meaning
    map).  ``"sqr"``: the status-quo message or the meaning.  ``"asqr"``:
    any negative message as well.
    """
    if variant == "sqr":
        negatives = ()
    elif variant == "asqr":
        negatives = tuple(range(-n, -1))
    else:
        raise ModelError(f"unknown restricted-set variant {variant!r}")
    if meanings is None:
        meanings = range(1, n + 1)
    return tuple(negatives + ((1,) if h == 1 else (1, h)) for h in meanings)


def canonical_replacement(
    strategy: PureStrategy,
    variant: str,
    n: int,
    meanings: tuple[int, ...] | None = None,
) -> PureStrategy:
    """Map a strategy outside the variant's restricted set to its
    canonical stand-in.

    The plain-rule variant replaces invalid entries by the status quo
    message; the augmented variant flips invalid entries to their negative,
    except a wholly-constant high vector which flips as a whole.
    """
    allowed = restricted_strategy_set(variant, n, meanings)
    if all(m in a for m, a in zip(strategy, allowed)):
        raise ModelError("strategy already belongs to the restricted set")
    if variant == "sqr":
        return tuple(m if m in a else 1 for m, a in zip(strategy, allowed))
    if is_constant(strategy) and strategy[0] >= 2:
        return tuple(-m for m in strategy)
    return tuple(m if m in a else -m for m, a in zip(strategy, allowed))


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


def deviation_dominance_certificate(mechanism, structure, tau, noise_opp):
    """Agent 1's replacement-transfer check from the closed form: agent 2
    realizes ``m`` when it intends ``b`` w.p. ``(1 - tau)[b = m] + tau *
    noise[m]``, and its signal's conditional law is divided out of the
    joint one own signal at a time."""
    tau = rat(tau)
    sched = mechanism.schedule
    n = max(sched.rewards)
    x = sched.penalty if sched.penalty is not None else Fraction(0)
    modified = sched.penalty is not None
    r0 = sched.r(0)
    h_own, h_opp = structure.meanings
    opp_choices = restricted_strategy_set("asqr", n, h_opp)
    noise_m = {m: noise_opp.get(m, Fraction(0)) for m in mechanism.messages[1]}
    noise_low = sum(p for m, p in noise_m.items() if m <= 1)
    rows = []
    ok = True

    def realized_probs(intent: int, m: int):
        p_m = (1 - tau) * (1 if intent == m else 0) + tau * noise_m[m]
        p_low = (1 - tau) * (1 if intent <= 1 else 0) + tau * noise_low
        return p_m, p_low

    for k in range(structure.sizes[0]):
        own_total = sum(p for (_, s1, _), p in structure.joint.items() if s1 == k)
        if own_total == 0:
            continue
        cond = {}
        for (theta, s1, s2), p in structure.joint.items():
            if s1 == k and p:
                cond[s2] = cond.get(s2, Fraction(0)) + p / own_total
        for m in range(2, n + 1):
            if m == h_own[k]:
                continue
            worst = Fraction(0)
            for s_opp, p_cond in cond.items():
                best = None
                for b in opp_choices[s_opp]:
                    p_m, p_low = realized_probs(b, m)
                    if modified:
                        value = p_m * sched.r(m) + p_low * (r0 - x)
                    else:
                        value = p_m * sched.r(m) - p_low * r0
                    if best is None or value > best:
                        best = value
                worst += p_cond * best
            bound = r0 if modified else Fraction(0)
            passed = worst < bound if modified else worst <= bound
            ok = ok and passed
            rows.append(
                {"signal": k, "message": m, "worst_case": worst, "bound": bound, "ok": passed}
            )
    prob_meaning = {
        j: sum(p for (theta, s1, s2), p in structure.joint.items() if h_opp[s2] == j)
        for j in range(1, n + 1)
    }
    for m in range(2, n + 1):
        p_m_max = (1 - tau) * prob_meaning[m] + tau * noise_m[m]
        p_low_min = (1 - tau) * prob_meaning[1] + tau * noise_low
        if modified:
            worst = p_m_max * sched.r(m) + max(
                (r0 - x) * ((1 - tau) + tau * noise_low), (r0 - x) * (tau * noise_low)
            )
            passed = worst < r0
        else:
            worst = p_m_max * sched.r(m) - p_low_min * r0
            passed = worst < 0
        ok = ok and passed
        rows.append({"signal": "constant", "message": m, "worst_case": worst, "ok": passed})
    return ok, rows


def constant_deviation_gain(game: Game, m: int) -> Number:
    """The exact ex ante gain, in agent 1's transfers, of the constant
    high vector ``(m, ..., m)`` over its negation ``(-m, ..., -m)``
    against the best of agent 2's restricted play at each of its signals:

        sum_j P(agent 2 sees j) max_{b in restricted(j)} E[t1(m, a) - t1(-m, a)],

    where agent 2 realizes ``a`` w.p. ``(1 - tau)[a = b] + tau noise[a]``
    when it intends ``b``, and ``restricted(j)`` holds the rule's negative
    messages, the status quo 1 and the meaning of ``j``.  The modified
    rule always pays the negation ``R^0``, so there the gain is the
    expected transfer of ``m`` less ``R^0``."""
    mech, tremble = game.mechanism, game.tremble
    negatives = [b for b in mech.messages[1] if b < 0]
    seen: dict[int, Number] = {}
    for (_, _, j), p in game.signals.joint.items():
        seen[j] = seen.get(j, Fraction(0)) + p

    def gain(b):
        return sum(
            ((1 - tremble.tau) * (a == b) + tremble.tau * tremble.noise[1].get(a, 0))
            * (mech.t(0, m, a) - mech.t(0, -m, a))
            for a in mech.messages[1]
        )

    return sum(
        (p * max(gain(b) for b in negatives + [1, game.signals.meanings[1][j]])
         for j, p in seen.items()),
        Fraction(0),
    )


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
        return RewardSchedule(rewards)

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
                return RewardSchedule(rewards)
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
                return RewardSchedule(rewards, penalty=x)
            x += step

    raise ModelError(f"unknown schedule kind {kind!r}")


def grid_equilibria(game, strategy_set, candidates, epsilon):
    """Every candidate profile pair passing the residual check, in
    ``(i, j)`` order, as ``[{0: mix_i}, {0: mix_j}]``; no report is built.

    An agent's residual depends on the pair only through the opponent's
    candidate, which fixes its payoff table and best value.  So each
    agent gets, per opponent candidate, the set of own candidates that
    pass against it, and a pair passes iff each side's candidate is in
    its set against the other's.

    A candidate mixes at most two pure strategies of the set, ``a`` with
    weight ``w`` and ``b``.  With the deficits ``d = best - value``, its
    residual is ``w * d_a + (1 - w) * d_b``, so it passes only if ``a``
    or ``b`` is within ``epsilon`` of the best (``PayoffTable.near_best``).
    Supports are indexed by member, so only those that meet that band are
    visited.  For each, the deficits are read once, as numerators over the
    table's denominator (``PayoffTable.deficit_nums``): the passing
    weights lie on one side of the cut ``(epsilon - d_b) / (d_a - d_b)``,
    one ``Fraction``, and when ``d_a == d_b`` every weight passes.  A
    support's candidates are kept in ascending weight, so the passing ones
    are a prefix or a suffix, found by bisection."""
    supports: dict[tuple, list] = {}
    for i, mix in enumerate(candidates):
        support = tuple(s for s, w in mix.items() if w)
        if len(support) > 2 or sum(mix.values()) != 1 or not all(
            len(s) == len(strategy_set) and all(m in ms for m, ms in zip(s, strategy_set))
            for s in support
        ):
            raise ModelError(f"grid candidate {i} must mix at most two strategies of the set, "
                             "with weights summing to one")
        supports.setdefault(support, []).append((mix[support[0]], i))
    by_weight, by_member = {}, {}
    for support, members in supports.items():
        members.sort()
        by_weight[support] = ([w for w, _ in members], [i for _, i in members])
        for s in support:
            by_member.setdefault(s, []).append(support)
    eps_num, eps_den = epsilon.numerator, epsilon.denominator

    def passing(agent):
        """Per opponent candidate, the own candidates passing against it."""
        out = []
        for opp in candidates:
            table = game.payoff_table(agent, 0, {0: opp})
            band = table.near_best(strategy_set, epsilon)
            passed = set()
            for support in dict.fromkeys(u for s in band for u in by_member.get(s, ())):
                weights, ids = by_weight[support]
                if len(support) == 2:
                    d_a, d_b = table.deficit_nums(strategy_set, support)
                    if d_a != d_b:
                        cut = Fraction(eps_num * table.den - d_b * eps_den, (d_a - d_b) * eps_den)
                        ids = (ids[:bisect.bisect_right(weights, cut)] if d_a > d_b
                               else ids[bisect.bisect_left(weights, cut):])
                passed.update(ids)
            out.append(passed)
        return out

    own, other = passing(0), passing(1)
    return [[{0: mix1}, {0: candidates[j]}]
            for i, mix1 in enumerate(candidates) for j in sorted(other[i]) if i in own[j]]
