"""Equilibrium verification, best responses, dominance thresholds,
iterated elimination, and a small exact bimatrix solver.

Everything here works over finite strategy sets with exact arithmetic when
the scenario is exact.  Best-response ties are broken by canonical
strategy order: lexicographic over intent vectors with ascending message
numbers, so negative messages come before positive ones.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import ModelError, ScenarioModel
from .engine import (
    Game,
    PayoffTable,
    PureStrategy,
    StrategyProfile,
    StrategySet,
    full_strategy_set,
    implementation_metrics,
    is_constant,
    restricted_strategy_set,
    truthful_profile,
)
from .mechanisms import Mechanism
from .numeric import ONE, Number


@dataclass(frozen=True)
class EquilibriumReport:
    """Best-response residuals of a profile plus implementation metrics."""

    residuals: dict[tuple[int, int], Number]  # (agent, type) -> gain from best deviation
    max_residual: Number
    is_equilibrium: bool
    epsilon: Number
    truthful_mass: Number
    max_tv: Number
    best_deviation: dict[tuple[int, int], PureStrategy]  # canonically first maximizer


def _residuals(game, ids, strategy_sets):
    """Per positive-probability type, its residual and its canonically
    first best deviation, from play ids, and the distinct residuals.

    Types are read in stretches of equal own and opponent ids
    (``_stretches``), which have one payoff table and one own play, so
    each stretch makes one ``Game.payoff_table`` call and each distinct
    (table, own play) one deficit; the per-type dicts are filled a
    stretch at a time.

    The residual is the best pure deviation's value over the agent's
    strategy set (per-coordinate choices) less the prescribed mixture's
    value; pure deviations suffice because payoffs are affine in own
    mixtures.  ``PayoffTable.deficit`` reads both on the table's integer
    numerators: the best one as in ``PayoffTable.best``, and the
    mixture's as the weighted sum of ``PayoffTable.value``, which prices
    any message vector, inside the set or not."""
    residuals: dict[tuple[int, int], Number] = {}
    deviations: dict[tuple[int, int], PureStrategy] = {}
    distinct = []
    pert = game.perturbation
    for agent in (0, 1):
        choices, own, opp, shared = strategy_sets[agent], ids[agent], ids[1 - agent], {}
        for lo, hi, tid, _, (i, *_) in _stretches(pert, agent, [(0, len(own))], opp, own):
            if not pert._templates[tid][0]:  # zero mass
                continue
            table = game.payoff_table(agent, lo, opp)
            hit = shared.get((table, i))
            if hit is None:
                hit = shared[(table, i)] = (table.deficit(choices, game._plays[i]),
                                            table.best(choices)[0][0])
                distinct.append(hit[0])
            types = list(zip(itertools.repeat(agent), range(lo, hi)))
            residuals.update(zip(types, itertools.repeat(hit[0])))
            deviations.update(zip(types, itertools.repeat(hit[1])))
    return residuals, deviations, distinct


def verify_equilibrium(
    game: Game,
    profile: StrategyProfile,
    strategy_sets: tuple[StrategySet, StrategySet],
    epsilon: Number = 0,
) -> EquilibriumReport:
    """Interim check: each type's residual, with the best deviation behind
    it (``_residuals``), plus the implementation metrics
    (``truthful_mass`` and ``max_tv``).

    All read one list of play ids per profile (``Game.play_ids``).  The
    largest residual is taken over the distinct residuals, one per
    stretch of equal keys, not over the types.  Both metrics come from
    ``implementation_metrics`` on those ids, which makes one walk of the
    circumstances (``play_groups``), labelling each circumstance by the
    play ids of its types, and sums the truthful mass and every state's
    outcome lottery from its groups."""
    ids = game.play_ids(profile)
    residuals, deviations, distinct = _residuals(game, ids, strategy_sets)
    max_res = max(distinct)
    truthful_mass, max_tv = implementation_metrics(game, ids)
    return EquilibriumReport(
        residuals=residuals,
        max_residual=max_res,
        is_equilibrium=max_res <= epsilon,
        epsilon=epsilon,
        truthful_mass=truthful_mass,
        max_tv=max_tv,
        best_deviation=deviations,
    )


# -- gamma dominance -------------------------------------------------------


@dataclass(frozen=True)
class DominanceCertificate:
    """Threshold above which truthful reporting is the strict best reply
    whenever the opponent's truthful weight exceeds it.

    ``witness`` holds one row per agent with a deviation: the deviation
    whose threshold is the agent's largest, its truth-vs-truth gain, its
    adversarial worst-case gain with the adversary's per-state message
    choices, and that threshold.
    """

    gamma: Number
    witness: tuple[dict, ...]

    @property
    def below_half(self) -> bool:
        return self.gamma < Fraction(1, 2)


def _strategy_sets(game: Game) -> tuple[StrategySet, StrategySet]:
    """Maskin's full sets; any other rule's restricted sets.  Each agent's
    strategies have the game's signal count as length, and its restricted
    set keeps each signal's meaning."""
    messages = game.mechanism.messages
    if game.mechanism.kind == "maskin":
        return tuple(full_strategy_set(messages[i], game.strategy_length(i)) for i in (0, 1))
    return tuple(restricted_strategy_set(messages[i], game.truthful(i)) for i in (0, 1))


def gamma_dominance_threshold(
    mechanism: Mechanism, scenario: ScenarioModel, c_bar: Number
) -> DominanceCertificate:
    """Exact threshold for truthful reporting on the unperturbed scenario.

    Each agent plays the rule's restricted game: its set is
    ``restricted_strategy_set`` of the agent's messages under the
    mechanism, with the states as meanings.  The matching rule has no
    status-quo message to fall back on and plays its full sets.  Against
    a mixture putting weight g on the truthful opponent and 1 - g on an
    adversarial strategy from those sets, the gain of truth over a
    deviation ``s`` is ``(1 - g) d_adv(s) + g d_truth(s)``; the
    adversarial side separates across states because the opponent may
    pick its message at each state from that state's choices, so the
    worst case is a per-state minimum.  A deviation's threshold is the
    root of that gain, zero when ``d_adv(s) > 0``; the reported gamma is
    the largest threshold across agents and deviations, and strictness
    holds for truthful weight above it.

    The learning-cost bound ``c_bar`` is charged in place of the scenario
    cost, which makes the certificate valid for every cost profile below
    the bound.  Gamma is found per agent without enumerating the
    deviations (``_largest_threshold``); the witness row's gains are then
    read as differences of ``inner_value`` in the game charging
    ``c_bar``, and must give the same threshold.
    """
    truth = tuple(range(1, scenario.n + 1))
    game = Game(scenario.with_cost(c_bar), mechanism)
    sets = _strategy_sets(game)
    witness = []
    for agent in (0, 1):
        found = _largest_threshold(game, agent, sets[agent], sets[1 - agent], truth)
        if found is None:
            continue
        s, picks, g = found
        d_truth = game.inner_value(agent, 0, truth, truth) - game.inner_value(agent, 0, s, truth)
        d_adv = game.inner_value(agent, 0, truth, picks) - game.inner_value(agent, 0, s, picks)
        root = Fraction(0) if d_adv > 0 else d_adv / (d_adv - d_truth)
        if root != g:
            raise ModelError(
                f"deviation {s}: inner_value gives threshold {root}, the separable gains {g}"
            )
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
    return DominanceCertificate(max([Fraction(0)] + [w["threshold"] for w in witness]),
                                tuple(witness))


def _largest_threshold(game, agent, own, allowed, truth):
    """``(deviation, adversary, threshold)`` of the agent's largest
    threshold over the product of ``own`` less the truth, or ``None`` when
    that product holds no deviation.

    The gains separate by coordinate, on the integer numerators of the
    constant opponents' coordinate rows ``phi[b]``: ``d_truth(s) = sum_k
    gt[k][s_k] - c [s constant]``, and ``d_adv(s)`` is the same sum over
    ``ga``, whose adversary at state k depends on ``s`` only through
    ``s_k``.  So gamma is the maximum of a ratio of separable sums, which
    Dinkelbach's iteration finds exactly (Dinkelbach 1967; Schaible
    1976): from g = 0, take a deviation maximizing ``-(1 - g) d_adv -
    g d_truth``; if that maximum is positive, set g to the deviation's
    threshold, which exceeds g, and repeat.  A maximum of at most zero
    means no threshold exceeds g, and the maximizer's threshold is g.
    Each maximum is read by ``PayoffTable.best`` over the product with
    one coordinate at a time kept off the truth.

    Raises ``ModelError`` first if truth does not strictly beat some
    deviation against the truthful opponent (the maximum of ``-d_truth``
    is non-negative), naming the first such deviation in canonical order
    and its gain, read off the truthful opponent's coordinate row.
    """
    n = len(truth)
    rows = {b: game.coordinate_row(agent, 0, (b,) * n) for b in {b for a in allowed for b in a}}
    den = math.lcm(*(row.den for row in rows.values()))
    phi = {b: [{m: x * (den // row.den) for m, x in cell.items()} for cell in row.nums]
           for b, row in rows.items()}
    row = next(iter(rows.values()))
    cost = row.cost_num * (den // row.den)
    adversary = [
        {m: min(allowed[k], key=lambda b: phi[b][k][t] - phi[b][k][m]) for m in own[k]}
        for k, t in enumerate(truth)
    ]
    gt = [{m: phi[t][k][t] - phi[t][k][m] for m in own[k]} for k, t in enumerate(truth)]
    ga = [{m: phi[b][k][t] - phi[b][k][m] for m, b in adversary[k].items()}
          for k, t in enumerate(truth)]
    off_truth = [
        (*own[:k], tuple(m for m in own[k] if m != t), *own[k + 1:])
        for k, t in enumerate(truth)
        if own[k] != (t,)
    ]
    if not off_truth:
        return None

    def gains(s):
        charge = cost if is_constant(s) else 0
        return (sum(cell[m] for cell, m in zip(gt, s)) - charge,
                sum(cell[m] for cell, m in zip(ga, s)) - charge)

    def best_deviation(h, bonus):
        """A deviation maximizing ``sum_k h[k][s_k] + bonus [s constant]``,
        which is ``bonus`` plus a table's value at learning cost ``bonus``,
        and that maximum."""
        table = PayoffTable(tuple(h), bonus, 1)
        winners, value = max((table.best(choices) for choices in off_truth), key=lambda x: x[1])
        return value + bonus, winners[0]

    if best_deviation([{m: -x for m, x in cell.items()} for cell in gt], cost)[0] >= 0:
        truthful = game.coordinate_row(agent, 0, truth)
        for s in itertools.product(*own):
            d_truth = truthful.value(truth) - truthful.value(s)
            if d_truth <= 0 and s != truth:
                raise ModelError(
                    f"truthful reporting is not strictly dominant at gamma=1 "
                    f"(deviation {s} gains {-d_truth})"
                )
    g = Fraction(0)
    while True:
        p, q = g.numerator, g.denominator
        h = [{m: -(q - p) * ga[k][m] - p * x for m, x in cell.items()} for k, cell in enumerate(gt)]
        score, s = best_deviation(h, q * cost)
        if score <= 0:
            break
        d_truth, d_adv = gains(s)
        g = Fraction(-d_adv, d_truth - d_adv)
    return s, tuple(adversary[k][m] for k, m in enumerate(s)), g


# -- best-response iteration ----------------------------------------------


@dataclass(frozen=True)
class BRIterationResult:
    """``moves[r]`` lists, sorted, the ``(agent, type)`` pairs whose play
    changed in round ``r + 1``; a converged run's last round moves none."""

    profile: StrategyProfile
    rounds: int
    converged: bool
    cycled: bool
    report: EquilibriumReport | None
    moves: tuple[tuple[tuple[int, int], ...], ...]


def iterate_best_response(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
    initial: StrategyProfile | None = None,
    max_rounds: int = 200,
) -> BRIterationResult:
    """Synchronous pure best-response iteration from the truthful profile
    (or a given start).  Ties resolve to the canonically first maximizer.
    On convergence the fixed point is re-verified.

    Round 1 computes every positive-mass type.  A type's best response
    depends only on the plays at the opponent types it meets with
    positive mass (``type_groups``, read here as the type's opponent-type
    base plus its template's offsets), and meeting is symmetric, so from
    round 2 on only the types that meet a type whose play changed in the
    previous round are computed again; every other type's best response
    equals its play, which it computed against the same opponent plays.
    The profiles, rounds and flags are those of computing every type every
    round, and the changed types are the round's ``moves``.

    Types are computed in stretches (``_stretches``): the stale ranges
    are cut where runs end and grouped by the opponent ids at each
    template offset, read by slice, so a stretch has one
    ``Game.payoff_table`` key.  A stretch makes one table read, one best
    response and one ``Game.play_id``, and its types that moved are found
    by comparing its own ids with that id; their opponents' ranges are
    the next round's stale set.

    Each type's play is carried as its ``Game.play_id``, which only a type
    that moved gets anew, and the ids are exact (equal iff the plays are
    equal as dicts), so a cycle is found on them.  The start profile is
    copied once, and each mover's play is written into it after its round.
    """
    pert = game.perturbation
    start = initial if initial is not None else truthful_profile(game)
    if initial is None:  # one play per agent
        ids = [[game.play_id(side[0])] * len(side) for side in start]
    else:
        ids = game.play_ids(start)
    profile: StrategyProfile = [dict(start[0]), dict(start[1])]
    seen = {(tuple(ids[0]), tuple(ids[1]))}
    stale = [[(0, len(side))] for side in ids]
    moves = []
    rounds = 0
    cycled = False
    for rounds in range(1, max_rounds + 1):
        moved = []  # (agent, lo, hi, tid, base, best, id) per range of movers
        for agent in (0, 1):
            own, opponent, choices = ids[agent], ids[1 - agent], strategy_sets[agent]
            for lo, hi, tid, base, _ in _stretches(pert, agent, stale[agent], opponent):
                best = game.payoff_table(agent, lo, opponent).best(choices)[0][0]
                new, t = game.play_id({best: ONE}), lo
                for same, run in itertools.groupby(own[lo:hi], new.__eq__):
                    end = t + len(list(run))
                    if not same:
                        moved.append((agent, t, end, tid, base, best, new))
                    t = end
        moves.append(tuple((agent, t) for agent, lo, hi, *_ in moved for t in range(lo, hi)))
        if not moved:
            report = verify_equilibrium(game, ids, strategy_sets)
            return BRIterationResult(profile, rounds, True, False, report, tuple(moves))
        stale = [[], []]
        for agent, lo, hi, tid, base, best, new in moved:
            ids[agent][lo:hi] = [new] * (hi - lo)
            profile[agent].update((t, {best: ONE}) for t in range(lo, hi))
            stale[1 - agent].extend((base + lo + u, base + hi + u) for u in pert._templates[tid][2])
        key = (tuple(ids[0]), tuple(ids[1]))
        if key in seen:
            cycled = True
            break
        seen.add(key)
    return BRIterationResult(profile, rounds, False, cycled, None, tuple(moves))


# -- iterated strict dominance --------------------------------------------


class EliminationResult(NamedTuple):
    """``eliminated[r]`` lists the ``(agent, type, strategy)`` triples
    removed in round ``r + 1``, sorted; the last round removes none."""

    surviving: list[dict[int, list[PureStrategy]]]
    rounds: int
    eliminated: tuple[tuple[tuple[int, int, PureStrategy], ...], ...]


def iterated_dominance(
    game: Game,
    strategy_sets: tuple[StrategySet, StrategySet],
) -> EliminationResult:
    """Interim iterated elimination of strictly dominated strategies.

    A type's strategy is eliminated when some mixture of the other
    surviving strategies does strictly better against every selection of
    surviving opponent strategies.  The worst case separates across
    opponent types, so each comparison is a sum of per-opponent-type
    minima.  Every type's pool starts as the product of its agent's
    per-coordinate choices, in canonical order; surviving pools are not
    products, so they are member lists.  Returns the surviving lists per
    (agent, type), the number of rounds to the fixed point and the
    strategies each round eliminated.

    A round checks agent 1's types, then agent 2's, so agent 2 sees agent
    1's eliminations of the same round.  A type is checked again only
    when an opponent type it meets with positive mass has lost a strategy
    since its last check.  Its own pool shrinking needs no recheck: a
    strategy that is a best response within a pool to some beliefs stays
    one within any subset of that pool.  Every skipped check would have
    eliminated nothing, so the surviving sets after each round, the round
    count and each round's eliminations equal those of checking every
    type every round.

    Each type's pool is carried as its ``Game.pool_id`` alone, which only
    a pool that shrinks gets anew; the surviving lists are read off the
    game's pools once, at the fixed point.  A check's result is memoized
    on the game by ``(agent, own pool id, type kind, opponent pool ids)``,
    in ``type_groups`` order; the pool ids and the memo outlive a call.
    An entry holds the surviving pool id, the dropped strategies in pool
    order and every member's witness, found on the miss by ``_undominated``.

    Types are checked in stretches (``_stretches``): a round cuts its
    stale ranges where runs end and groups each piece by its own and
    opponent pool ids, read by slice, so a group has one memo key: one
    lookup, one slice write, one stale range per template offset.

    Contagion up a ladder (Rubinstein 1989; Kajii and Morris 1997) is an
    induction: each round is the one before, one rung higher.  A round
    records its groups' ranges, templates, bases and pool ids.  When that
    is the last round's record shifted by one type, with the same memo
    keys, the next rounds repeat it one type higher each, until a group
    would leave its run or the pools above what it read differ from what
    it read (``_repeats``).  They are applied in one step: the round's
    eliminations, shifted, each written pool's last value, in one slice,
    and the stale types, shifted.  Equal keys are what make the memo
    return the same entry, so the result and the memo are the replay's.
    """
    pert, cache, members = game.perturbation, game._dom_cache, game._pools
    pools = [[game.pool_id(itertools.product(*strategy_sets[agent]))] * len(part)
             for agent, part in enumerate(pert.partitions)]
    stale = [[(0, len(side))] for side in pools]
    eliminated, last, rounds = [], None, 0
    while True:
        removed, record = [], ([], [])
        for agent, opp in ((0, 1), (1, 0)):
            own, todo, stale[agent] = pools[agent], stale[agent], []
            for t, end, tid, base, ids in _stretches(pert, agent, todo, pools[opp], own):
                _, kind, offsets = pert._templates[tid]
                pid, opp_ids, new = ids[0], ids[1:], None
                if offsets and len(members[pid]) > 1:
                    key = (agent, pid, kind, opp_ids)
                    entry = cache.get(key)
                    if entry is None:
                        pool = members[pid]
                        keep, witness = _undominated(game, agent, t, pool, opp_ids)
                        entry = cache[key] = (game.pool_id(keep),
                                              tuple([s for s in pool if s not in keep]), witness)
                    if entry[1]:
                        new = entry[0]
                        removed.extend([(agent, x, s) for x in range(t, end) for s in entry[1]])
                        own[t:end] = [new] * (end - t)
                        stale[opp].extend([(base + t + u, base + end + u) for u in offsets])
                record[agent].append((t, end, tid, base + t, ids, new))
        # Agents, types and pools are walked in order, so ``removed`` is sorted.
        eliminated.append(tuple(removed))
        if not removed:
            surviving = [{t: list(members[i]) for t, i in enumerate(side)} for side in pools]
            return EliminationResult(surviving, rounds, tuple(eliminated))
        rounds += 1
        k = _repeats(pert, pools, record) if last and record == _shifted(last, 1) else 0
        if k:
            eliminated.extend(tuple([(a, t + j, s) for a, t, s in removed]) for j in range(1, k + 1))
            for side, groups in zip(pools, record):
                # A type gets its last write: the group lowest below it.
                for t, end, *_, new in reversed(groups):
                    if new is not None:
                        side[t + 1:end + k] = [new] * (end + k - t - 1)
            stale[0] = [(lo + k, hi + k) for lo, hi in stale[0]]
            rounds += k
        last = _shifted(record, k)


def _merged(spans):
    """The ranges ``spans`` (tuples led by ``lo, hi``) cover, as sorted
    disjoint ``[lo, hi]`` lists."""
    out = []
    for lo, hi, *_ in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _pieces(ranges, starts):
    """The types of ``ranges``, merged, as ranges cut at the run ``starts``."""
    for lo, hi in _merged(ranges):
        for cut in starts[bisect.bisect_right(starts, lo):bisect.bisect_left(starts, hi)] + (hi,):
            yield lo, cut
            lo = cut


def _stretches(pert, agent, ranges, opp, own=None):
    """The agent's types in ``ranges`` as stretches: maximal ranges inside
    one run (``Perturbation._type_runs``) over which the opponent ids
    ``opp`` at every template offset, and the own ids ``own`` when given,
    are equal, read by slice.  The types of a stretch have one
    ``Game.payoff_table`` key and, with ``own``, one own id.  Yields
    ``(lo, hi, tid, base, ids)``: the template id, the run's base offset
    (type ``t``'s opponent-type base is ``base + t``) and the ids, own
    first.  A zero-mass type has no offsets, so it is in a
    stretch only when ``own`` is given."""
    for lo, hi in _pieces(ranges, pert._type_runs[agent]):
        tid, base = pert._type_template[agent][lo], pert._type_base[agent][lo] - lo
        cols = [opp[base + lo + u:base + hi + u] for u in pert._templates[tid][2]]
        if own is not None:
            cols.insert(0, own[lo:hi])
        end = lo
        for ids, group in itertools.groupby(zip(*cols)):
            lo, end = end, end + len(list(group))
            yield lo, end, tid, base, ids


def _shifted(record, k):
    """A round's record with every group moved up ``k`` types."""
    return tuple([(t + k, end + k, tid, base + k, *rest) for t, end, tid, base, *rest in groups]
                 for groups in record)


def _repeats(pert, pools, record):
    """How many rounds after a round with ``record`` repeat it, each one
    type higher, given that it repeated the round before it.  Each group
    must stay in its run.  Above the top ``p`` of each range a pool list
    is read on (own groups, and the opponent's at each offset), the
    repeats read what the round read at ``p`` (before its write there, if
    the agent checked ``p``), so they stop where the pools ahead differ
    from it or the next read range begins."""
    k = len(pools[0]) + len(pools[1])
    reads = ([], [])
    for agent, groups in enumerate(record):
        starts = pert._type_runs[agent]
        for t, end, tid, base, ids, _ in groups:
            i = bisect.bisect_right(starts, end - 1)
            k = min(k, (starts[i] if i < len(starts) else len(pools[agent])) - end)
            reads[agent].append((t, end, 0, ids[0]))
            reads[1 - agent].extend((base + u, base + u + end - t, 1, v)
                                    for u, v in zip(pert._templates[tid][2], ids[1:]))
    for side, spans in zip(pools, reads):
        covered = _merged(spans)
        for (_, top), (nxt, _) in zip(covered, covered[1:] + [[len(side), None]]):
            value = min((flag, v) for lo, hi, flag, v in spans if lo < top <= hi)[1]
            ahead = itertools.islice(side, top, min(nxt, top + k))
            k = min(k, len(list(itertools.takewhile(value.__eq__, ahead))))
    return k


def _undominated(game: Game, agent: int, t: int, pool, opp_pools):
    """The members of ``pool`` that no mixture of the others strictly
    dominates for type ``t``, in pool order, and a witness per member.
    ``opp_pools`` holds the ``Game.pool_id`` of the surviving strategies
    at each opponent type the type meets, in ``type_groups`` order.

    ``v[g][r][s]`` is member ``s``'s value against the ``r``-th surviving
    strategy of the ``g``-th opponent type the type meets: its cells'
    conditional weight x ``inner_value``, summed.  Each is read once, as
    an integer numerator over one least common multiple of every term's
    ``weight.denominator x value.denominator``, as in ``payoff_table``.
    With ``d = v - v[i]``, a mixture ``sigma`` dominates ``i`` iff
    ``sum_g min_r sigma . d[g][r] > 0``; else, by LP duality, ``i`` is a
    best response within the pool to one belief ``mu_g`` per opponent
    type (Pearce 1984, Lemma 3).  The first of three steps that settles
    ``i`` decides it: another member dominates it; it is a best response
    to a pure selection of opponent strategies (``_supporting_selection``);
    or ``_mixed_verdict`` solves the LP.  A dropped member's witness is
    ``sigma``, a dict from members to weights, and a kept member's ``mu``,
    one dict per opponent type from its strategies to weights.
    """
    terms = [
        [
            [[(mass, game.inner_value(agent, w, s, r)) for w, mass in cells] for s in pool]
            for r in game._pools[i]
        ]
        for (_, cells), i in zip(game.perturbation.type_groups(agent, t), opp_pools)
    ]
    den = math.lcm(*{
        m.denominator * x.denominator
        for rows in terms for row in rows for cell in row for m, x in cell
    })
    v = [
        [
            [
                sum(m.numerator * x.numerator * (den // (m.denominator * x.denominator))
                    for m, x in cell)
                for cell in row
            ]
            for row in rows
        ]
        for rows in terms
    ]
    opps = [game._pools[i] for i in opp_pools]
    # The LP has this many rows, and pivots over all of them at least once
    # per opponent type, so trying as many selections costs less.
    budget = sum(map(len, v)) + 1
    tops = [[max(row) for row in rows] for rows in v]
    # Per opponent type, each member's first row at which it is best.  A
    # member with one at every type is a best response to those rows,
    # which no mixture dominates: step 2 holds and step 1 is skipped.
    firsts = [{m: r for r, (row, top) in reversed(list(enumerate(zip(rows, ts))))
               for m, x in enumerate(row) if x == top} for rows, ts in zip(v, tops)]
    keep, witness, size = [], {}, len(pool)
    for i, s in enumerate(pool):
        if all(i in first for first in firsts):
            witness[s] = tuple([{opp[first[i]]: ONE} for opp, first in zip(opps, firsts)])
            keep.append(s)
            continue
        j = next((j for j in range(size) if j != i
                  and sum(min([row[j] - row[i] for row in rows]) for rows in v) > 0), None)
        if j is not None:
            witness[s] = {pool[j]: ONE}
            continue
        pick = _supporting_selection(v, tops, i, budget)
        if pick is not None:
            witness[s] = tuple([{opp[r]: ONE} for opp, r in zip(opps, pick)])
        else:
            dominated, witness[s] = _mixed_verdict(v, i, pool, opps)
            if dominated:
                continue
        keep.append(s)
    return tuple(keep), witness


def _supporting_selection(v, tops, i, budget):
    """The first of at most ``budget`` selections of one row per group of
    ``v`` on whose sum entry ``i`` is largest, or ``None``.  Each group's
    rows are tried in increasing order of their lead, the row's largest
    entry (``tops``) less entry ``i``."""
    leads = [[top - row[i] for top, row in zip(ts, rows)] for ts, rows in zip(tops, v)]
    orders = [sorted(range(len(lead)), key=lead.__getitem__) for lead in leads]
    for pick in itertools.islice(itertools.product(*orders), budget):
        totals = [sum(col) for col in zip(*[rows[r] for rows, r in zip(v, pick)])]
        if totals[i] == max(totals):
            return pick
    return None


def _mixed_verdict(v, i, pool, opps):
    """``(True, sigma)`` if a mixture ``sigma`` of the members of ``pool``
    other than member ``i`` strictly dominates it, else ``(False, mu)``,
    beliefs over ``opps`` to which it is a best response.

    With ``d = v - v[i]``, the LP ``max sum_g z_g`` subject to ``z_g <=
    sigma . d[g][r]`` and ``sigma`` on the simplex is posed with ``z_g =
    y_g + low_g``, where ``low_g`` is one below the group's least entry,
    so that ``y >= 0`` loses nothing and the origin is a vertex.  Every
    optimum has ``sum sigma = 1`` and ``y_g >= 1``, so by complementary
    slackness each group's dual prices sum to 1: a belief ``mu_g``."""
    others = [j for j in range(len(pool)) if j != i]
    d = [[[row[j] - row[i] for j in others] for row in rows] for rows in v]
    lows = [min(map(min, rows)) - 1 for rows in d]
    a = [[low - x for x in row] + [int(h == g) for h in range(len(d))]
         for g, (rows, low) in enumerate(zip(d, lows)) for row in rows]
    a.append([1] * len(others) + [0] * len(d))
    value, x, prices = _simplex(a, [0] * (len(a) - 1) + [1], [0] * len(others) + [1] * len(d))
    if value + sum(lows) > 0:
        return True, {pool[j]: x[k] for k, j in enumerate(others) if x.get(k)}
    ends = list(itertools.accumulate(map(len, d), initial=0))
    return False, tuple({opp[r]: p for r, p in enumerate(prices[lo:hi]) if p}
                        for opp, lo, hi in zip(opps, ends, ends[1:]))


def _simplex(a, b, c):
    """``(optimum, x, prices)`` of ``max c . x`` subject to ``a x <= b``
    and ``x >= 0``, where ``b >= 0`` and the program is bounded: ``x``
    maps the basic columns to their values, and ``prices`` are the rows'
    dual prices.  An exact tableau over ``Fraction`` pivots
    by Bland's rule, which cannot cycle (Bland 1977): the lowest improving
    column enters, and ratio ties leave by the lowest basic variable."""
    m, n = len(a), len(c)
    tab = [[Fraction(x) for x in row] + [Fraction(int(k == r)) for k in range(m)]
           + [Fraction(b[r])] for r, row in enumerate(a)]
    obj = [Fraction(-x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while (col := next((j for j, x in enumerate(obj[:-1]) if x < 0), None)) is not None:
        _, _, r = min((row[-1] / row[col], basis[k], k)
                      for k, row in enumerate(tab) if row[col] > 0)
        pivot = tab[r] = [x / tab[r][col] for x in tab[r]]
        for row in (*tab, obj):
            if row is not pivot and (f := row[col]):
                row[:] = [x - f * y for x, y in zip(row, pivot)]
        basis[r] = col
    return obj[-1], {j: row[-1] for j, row in zip(basis, tab)}, obj[n:n + m]


# -- exact bimatrix solving ------------------------------------------------


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None when singular or
    inconsistent."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        factor = aug[row][col]
        aug[row] = [v / factor for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][m] != 0:
            return None
    if len(pivots) < m:
        return None
    out = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        out[col] = aug[r][m]
    return out


def support_enumeration_nash(
    a: list[list[Number]], b: list[list[Number]]
) -> tuple[tuple[Number, ...], tuple[Number, ...], Number, Number]:
    """One exact Nash equilibrium of a bimatrix game.

    Supports are scanned by total size then lexicographically, so the
    output is deterministic.  Returns the two mixtures and their values.
    """
    rows, cols = len(a), len(a[0])
    a = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in a]
    b = [[Fraction(x) if not isinstance(x, Fraction) else x for x in row] for row in b]
    supports_r = _supports(rows)
    supports_c = _supports(cols)
    for size in range(2, rows + cols + 1):
        for sr in supports_r:
            for sc in supports_c:
                if len(sr) + len(sc) != size:
                    continue
                result = _try_supports(a, b, sr, sc)
                if result is not None:
                    return result
    raise ModelError("no equilibrium found; inputs are not a finite bimatrix game")


def _supports(k: int):
    out = []
    for size in range(1, k + 1):
        out.extend(itertools.combinations(range(k), size))
    return out


def _try_supports(a, b, sr, sc):
    rows, cols = len(a), len(a[0])
    # Column player's mixture equalizes row payoffs on sr; likewise for rows.
    y = _equalizing(
        [[a[i][j] for j in sc] for i in sr], len(sc)
    )
    x = _equalizing(
        [[b[i][j] for i in sr] for j in sc], len(sr)
    )
    if x is None or y is None:
        return None
    xs = [Fraction(0)] * rows
    ys = [Fraction(0)] * cols
    for idx, i in enumerate(sr):
        xs[i] = x[idx]
    for idx, j in enumerate(sc):
        ys[j] = y[idx]
    va = [sum(a[i][j] * ys[j] for j in range(cols)) for i in range(rows)]
    vb = [sum(b[i][j] * xs[i] for i in range(rows)) for j in range(cols)]
    value_a = va[sr[0]]
    value_b = vb[sc[0]]
    if any(va[i] > value_a for i in range(rows)):
        return None
    if any(vb[j] > value_b for j in range(cols)):
        return None
    return tuple(xs), tuple(ys), value_a, value_b


def _equalizing(payoff_rows, width):
    """Opponent mixture making all listed payoff rows equal, or None."""
    k = len(payoff_rows)
    matrix = []
    rhs = []
    for r in range(1, k):
        matrix.append([payoff_rows[r][j] - payoff_rows[0][j] for j in range(width)])
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] * width)
    rhs.append(Fraction(1))
    sol = solve_linear(matrix, rhs)
    if sol is None or any(v < 0 for v in sol):
        return None
    return sol
