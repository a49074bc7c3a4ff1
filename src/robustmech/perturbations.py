"""Finite perturbed environments: circumstance ladders, information
partitions, perturbed payoffs and costs, and their size measures.

A countable circumstance space is truncated to ``T + 1`` elements whose
last one always carries normal payoffs; every perturbation records its
truncation tail mass so callers can report it next to their results.
Masses are recorded once, as ``scale * coef[w] * ratio**w``, whose parts
stay small on a ladder of any depth; exact masses are computed only when a
caller asks for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import AgentPayoff, ModelError, ScenarioModel
from .numeric import Number, frac_key, rat


@dataclass(frozen=True)
class BiasSpec:
    """Payoff/cost override for one agent at one circumstance.

    ``u_overrides`` maps (state index, outcome index) -> value and is
    applied on top of the agent's unperturbed table; ``cost`` replaces the
    unperturbed learning cost when given.
    """

    agent: int
    circumstance: int
    u_overrides: dict[tuple[int, int], Number] = field(default_factory=dict)
    cost: Number | None = None

    def __post_init__(self):
        if self.cost is not None and self.cost < 0:
            raise ModelError("learning cost must be non-negative")


def _template_tables(template, runs, ratio, kinds):
    """A template's tables, relative to its anchor: per opponent type its
    members meet, the group ``((circ offset, weight), ...)`` with
    same-class members merged into the first one; the kind that ``kinds``
    interns for its cells; and the opponent-type offsets, in group order."""
    rel = [runs[r][0] / runs[template[0][0]][0] * ratio**k for r, k, _, _ in template]
    total = sum(rel)
    by_opp: dict[int, dict] = {}
    for (_, k, cls, opp), x in zip(template, rel):
        cells = by_opp.setdefault(opp, {})
        first = cells.get(cls)
        cells[cls] = (k, x / total) if first is None else (first[0], first[1] + x / total)
    cells_key = tuple(
        tuple((cls, *frac_key(x)) for cls, (_, x) in cells.items()) for cells in by_opp.values()
    )
    groups = tuple(tuple(cells.values()) for cells in by_opp.values())
    return groups, kinds.setdefault(cells_key, len(kinds)), tuple(by_opp)


# What ``Perturbation._compile`` sets.
_COMPILED = ("_type_index", "_classes", "_template_keys", "_type_template", "_type_anchor",
             "_type_base", "_type_runs")


def ladder_partition(size: int, offset: int) -> tuple[tuple[int, ...], ...]:
    """Pairing partition of circumstances 0..size-1.

    ``offset=0`` gives {w0},{w1,w2},... and ``offset=1`` gives
    {w0,w1},{w2,w3},...; a leftover element becomes a singleton.
    """
    start = 1 if offset == 0 else 0
    head = ((0,),) if offset == 0 else ()
    tail = ((size - 1,),) if (size - start) % 2 else ()
    return head + tuple(zip(range(start, size - 1, 2), range(start + 1, size, 2))) + tail


@dataclass(frozen=True)
class Perturbation:
    """Circumstance ladder with partitions and perturbed payoffs.

    Masses are recorded once, as ``pi[w] = scale * coef[w] * ratio**w``.  A
    geometric ladder has ratio ``1 - eta``, so its coefficients are the
    same small number on every rung, and a renormalized ladder puts its
    renormalizing factor in ``scale``; any other distribution is its masses
    as ``coef`` at ratio 1 and scale 1 (the defaults).  Exact masses, whose
    denominators grow with the ladder depth, are computed only where a
    caller asks: ``pi`` and ``masses_by``.

    Construction compiles the partitions into per-agent tables so that
    evaluators never rescan them:

    * a circumstance -> type table, which makes ``type_of`` a lookup;
    * payoff classes: a circumstance's class for an agent is ``None``
      ("normal") or the index of the one ``BiasSpec`` that applies to that
      agent there, so every circumstance of a class has the same payoffs
      and cost;
    * per type, the conditional weights ``pi[w] / P(type)`` of its
      positive-mass circumstances, grouped by the opponent type they
      induce, with same-class circumstances merged by summing their
      weights (``type_groups``).  A type has zero mass exactly when it has
      no group;
    * per type, its kind, a small int in its template (``_templates[i][1]``):
      types with equal cells share one, and kinds mean nothing across
      perturbations.

    A type's weights come from masses relative to its first positive-mass
    circumstance ``a``, its anchor: ``coef[w] / coef[a] * ratio**(w - a)``.
    Its template fixes its groups and kind up to a shift by ``a`` and by
    ``a``'s opponent type ``b``, its base: per positive-mass ``w``, its
    coefficient run (``_coef_runs``), ``w - a``, its payoff class and its
    opponent type less ``b``.  A type keeps three ints, its template id,
    ``a`` and ``b`` (``_type_template``, ``_type_anchor``, ``_type_base``);
    each distinct template keeps once, in ``_templates``, its groups'
    cells as circumstance offsets and weights, its kind and its groups'
    opponent-type offsets.  So a new rung costs a dict lookup and three
    ints, and no table holds a number that grows with the depth.
    Evaluators read the template tables and add the type's ints, and key
    their caches by payoff class and kind, so their size does not grow
    with the depth either.  ``_type_runs`` holds each agent's run starts:
    a run is a range of types of one template whose base steps by one.

    Construction has three steps (``_build``): the mass checks, the
    structural compile of every table above but the weights and kinds
    (``_compile``, which keeps the template keys in first-seen order), and
    the weighing of each template key into ``_templates``.  Only the
    weighing reads the coefficients' values and the ratio; the compile
    reads the partitions, the biases and the coefficient runs' lengths and
    zeros.  So the ladders of one eta grid share one compile:
    ``_reweighed`` gives these partitions and biases other masses, checks
    and weighs them, and copies the compiled tables when those lengths and
    zeros are unchanged.
    """

    scenario: ScenarioModel
    coef: tuple[Number, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
    biases: tuple[BiasSpec, ...] = ()
    tail_mass: Number = Fraction(0)
    ratio: Number = Fraction(1)
    scale: Number = Fraction(1)

    def __post_init__(self):
        self._build(None)

    def _build(self, donor: "Perturbation | None") -> None:
        """The one construction path: check the masses, compile the
        partitions and biases, and weigh the templates.  A ``donor`` with
        these partitions and biases lends its compiled tables instead,
        when its coefficient runs have the same lengths and the same zeros
        as these, which fixes every template key; otherwise they are
        compiled afresh."""
        object.__setattr__(self, "coef", tuple(map(rat, self.coef)))
        object.__setattr__(self, "ratio", rat(self.ratio))
        object.__setattr__(self, "scale", rat(self.scale))
        if not (self.ratio > 0 and self.scale > 0):
            raise ModelError("mass ratio and scale must be positive")
        runs = tuple((c, len(list(run))) for c, run in itertools.groupby(self.coef))
        object.__setattr__(self, "_coef_runs", runs)
        if not self._sums_to_one():
            raise ModelError("circumstance distribution must sum to one")
        if any(c < 0 for c, _ in runs):
            raise ModelError("circumstance probabilities must be nonnegative")
        shape = [(width, not c) for c, width in runs]
        if donor is not None and shape == [(width, not c) for c, width in donor._coef_runs]:
            for name in _COMPILED:
                object.__setattr__(self, name, getattr(donor, name))
        else:
            self._compile()
        kinds: dict[tuple, int] = {}
        object.__setattr__(self, "_templates", tuple(
            [_template_tables(key, runs, self.ratio, kinds) for key in self._template_keys]))

    def _compile(self) -> None:
        """The tables that the partitions, the biases and the coefficient
        runs' lengths and zeros fix (``_COMPILED``): every template key, in
        first-seen order, and each type's template id, anchor and base."""
        size = len(self.coef)
        for part in self.partitions:
            if sorted(itertools.chain.from_iterable(part)) != list(range(size)):
                raise ModelError("partition must cover circumstances exactly once")
        classes = ([None] * size, [None] * size)
        for i, b in enumerate(self.biases):
            if b.agent not in (0, 1) or not 0 <= b.circumstance < size:
                raise ModelError("bias refers to a missing agent or circumstance")
            if classes[b.agent][b.circumstance] is not None:
                raise ModelError(
                    f"two biases apply to agent {b.agent} at circumstance {b.circumstance}"
                )
            classes[b.agent][b.circumstance] = i
        type_index = []
        for part in self.partitions:
            index = [0] * size
            for t, block in enumerate(part):
                for w in block:
                    index[w] = t
            type_index.append(index)
        run_of: list = []  # per circumstance, its run's index; None at zero mass
        for r, (c, width) in enumerate(self._coef_runs):
            run_of += [r if c else None] * width
        template_ids: dict[tuple, int] = {}
        type_template, anchors, bases, starts = ([], []), ([], []), ([], []), ([], [])
        for agent, part in enumerate(self.partitions):
            opp_index, cls = type_index[1 - agent], classes[agent]
            tids, anchor, base = type_template[agent], anchors[agent], bases[agent]
            for block in part:
                members = [w for w in block if run_of[w] is not None]
                a = members[0] if members else 0
                b = opp_index[a]
                template = tuple([(run_of[w], w - a, cls[w], opp_index[w] - b) for w in members])
                tid = template_ids.setdefault(template, len(template_ids))
                if not tids or tid != tids[-1] or b != base[-1] + 1:
                    starts[agent].append(len(tids))
                tids.append(tid)
                anchor.append(a)
                base.append(b)
        object.__setattr__(self, "_type_index", tuple(map(tuple, type_index)))
        object.__setattr__(self, "_classes", tuple(map(tuple, classes)))
        object.__setattr__(self, "_template_keys", tuple(template_ids))
        object.__setattr__(self, "_type_template", tuple(map(tuple, type_template)))
        object.__setattr__(self, "_type_anchor", tuple(map(tuple, anchors)))
        object.__setattr__(self, "_type_base", tuple(map(tuple, bases)))
        object.__setattr__(self, "_type_runs", tuple(map(tuple, starts)))

    def _reweighed(self, coef, tail_mass, ratio, scale) -> "Perturbation":
        """These partitions and biases under other masses, built by
        ``_build`` with ``self`` as the donor: the masses are checked and
        the templates weighed as in construction, and the compiled tables
        are shared when the coefficient runs allow it."""
        new = object.__new__(Perturbation)
        vars(new).update(scenario=self.scenario, coef=coef, partitions=self.partitions,
                         biases=self.biases, tail_mass=tail_mass, ratio=ratio, scale=scale)
        new._build(self)
        return new

    def _sums_to_one(self) -> bool:
        """Whether the masses sum to one, on integers: with ``ratio = p/q``
        and the coefficients over their least common denominator ``d``,
        the run of ``len`` rungs from ``lo`` sums to ``scale * c * p**lo *
        (q**len - p**len) / (q**(lo + len - 1) * (q - p))``, so each run is
        brought over ``q**(size - 1) * (q - p) * d`` and no gcd of
        ladder-sized numbers is taken."""
        p, q, size = self.ratio.numerator, self.ratio.denominator, len(self.coef)
        d = math.lcm(*[c.denominator for c, _ in self._coef_runs])
        total, lo = 0, 0
        for c, width in self._coef_runs:
            run = width if p == q else p**lo * (q**width - p**width) * q ** (size - lo - width)
            total += c.numerator * (d // c.denominator) * run
            lo += width
        den = d if p == q else d * q ** (size - 1) * (q - p)
        return self.scale.numerator * total == self.scale.denominator * den

    def masses_by(self, labels) -> dict:
        """``{label: mass}``: the total mass of the circumstances carrying
        each label, for ``labels[w]`` a hashable per circumstance.

        Walks maximal runs of circumstances with one label and one
        coefficient; the coefficient runs are recorded at construction, so
        only labels are compared here.  The masses of a run are geometric,
        so each run is summed in closed form on integers, as in
        ``_sums_to_one``, and each label gets one ``Fraction``.  Labels met
        only at zero mass are left out."""
        if len(labels) != len(self.coef):
            raise ModelError(f"masses_by needs one label per circumstance, not {len(labels)}")
        return self._prefix_masses(labels)

    def _prefix_masses(self, labels) -> dict:
        """``masses_by`` of circumstances ``0 .. len(labels) - 1`` alone:
        the walk stops after the last label, so the circumstances above it
        cost nothing.  With ``ratio = p/q``, the coefficients over their
        least common denominator ``d`` and ``size = len(labels)``, the
        run of ``len`` rungs from ``lo`` at coefficient ``c`` sums to
        ``c * p**lo * (q**len - p**len) * q**(size - lo - len)`` over
        ``q**(size - 1) * (q - p) * d``, times ``scale`` (``c * len``
        over ``d`` at ratio 1); a label's numerators are summed as
        integers."""
        p, q, size = self.ratio.numerator, self.ratio.denominator, len(labels)
        d = math.lcm(*[c.denominator for c, _ in self._coef_runs])
        sums: dict = {}
        lo = 0
        for c, width in self._coef_runs:
            num = c.numerator * (d // c.denominator)
            for label, run in itertools.groupby(labels[lo:lo + width]):
                length = len(list(run))
                if num:
                    part = length if p == q else (
                        p**lo * (q**length - p**length) * q ** (size - lo - length))
                    sums[label] = sums.get(label, 0) + num * part
                lo += length
            if lo >= size:
                break
        if not sums:
            return {}
        den = self.scale.denominator * (d if p == q else d * q ** (size - 1) * (q - p))
        return {label: Fraction(self.scale.numerator * x, den) for label, x in sums.items()}

    @property
    def pi(self) -> tuple[Fraction, ...]:
        """Every circumstance's mass, computed on each access."""
        out, step = [], self.scale
        for c in self.coef:
            out.append(step * c)
            step *= self.ratio
        return tuple(out)

    @property
    def size(self) -> int:
        return len(self.coef)

    def type_of(self, agent: int, circ: int) -> int:
        if not 0 <= circ < len(self.coef):
            raise ModelError(f"circumstance {circ} not in agent {agent} partition")
        return self._type_index[agent][circ]

    def payoff_class(self, agent: int, circ: int) -> int | None:
        """``None`` where the agent has normal payoffs, else the index of
        the bias that applies to the agent at ``circ``."""
        return self._classes[agent][circ]

    def type_groups(self, agent: int, type_index: int):
        """``((opp_type, ((circ, weight), ...)), ...)``: the type's
        positive-mass circumstances grouped by the opponent type they
        induce, one representative circumstance per payoff class, with the
        class's summed conditional weight ``pi[w] / P(type)``; empty for a
        zero-mass type.  Built on each call, by shifting the template's
        groups by the type's anchor and opponent-type base."""
        groups, _, offsets = self._templates[self._type_template[agent][type_index]]
        a, b = self._type_anchor[agent][type_index], self._type_base[agent][type_index]
        return tuple([(b + u, tuple([(a + k, x) for k, x in cells]))
                      for u, cells in zip(offsets, groups)])

    def _bias(self, agent: int, circ: int) -> BiasSpec | None:
        cls = self._classes[agent][circ]
        return None if cls is None else self.biases[cls]

    def cost(self, agent: int, circ: int) -> Number:
        bias = self._bias(agent, circ)
        if bias is not None and bias.cost is not None:
            return bias.cost
        return self.scenario.payoffs[agent].cost

    def utility(self, agent: int, circ: int, state: int, outcome: int) -> Number:
        bias = self._bias(agent, circ)
        if bias is not None and (state, outcome) in bias.u_overrides:
            return bias.u_overrides[(state, outcome)]
        return self.scenario.payoffs[agent].u[state][outcome]


def unperturbed(scenario: ScenarioModel) -> Perturbation:
    """Single-circumstance perturbation equal to the unperturbed model."""
    one = (Fraction(1),)
    return Perturbation(scenario, one, (((0,),), ((0,),)))


def build_ladder(
    scenario: ScenarioModel,
    depth: int,
    eta: Number | str,
    biases: list[BiasSpec] | None = None,
    tail: str = "collapse",
) -> Perturbation:
    """Geometric circumstance ladder truncated at ``depth``.

    Circumstance ``w_t`` has probability ``eta * (1 - eta)^t`` for
    ``t < depth``.  With ``tail="collapse"`` the residual mass
    ``(1 - eta)^depth`` sits on the last circumstance, so the mass of
    ``w_0`` is exactly ``eta``; with ``tail="renormalize"`` the geometric
    weights extend through the last circumstance and are rescaled to sum
    to one, which preserves the 1/(2-eta) posterior at every rung of the
    ladder, including the top one.  Contagion arguments need the second
    form: collapsing the tail inverts the last type's posterior and lets
    the boundary types keep a self-sustaining coordination pair.  The last
    circumstance keeps normal payoffs either way.  Agent 1's partition is
    {w0},{w1,w2},...; agent 2's is {w0,w1},{w2,w3},...

    The perturbation records ratio ``1 - eta`` and coefficient ``eta`` on
    every geometric rung.  A collapsed tail has coefficient 1 and scale 1;
    a renormalized ladder has coefficient ``eta`` on its last rung too and
    scale ``1 / (1 - tail_mass)``, its truncated tail mass being
    ``(1 - eta)^(depth+1)``.
    """
    masses = _ladder_masses(depth, eta, tail)
    return Perturbation(
        scenario,
        partitions=(ladder_partition(depth + 1, 0), ladder_partition(depth + 1, 1)),
        biases=tuple(biases or ()),
        **masses,
    )


def _ladder_masses(depth: int, eta: Number | str, tail: str) -> dict:
    """``build_ladder``'s masses as ``Perturbation`` keywords: ``coef``,
    ``tail_mass``, ``ratio`` and ``scale``, after the checks of ``eta``,
    ``depth`` and ``tail``.  A grid of etas at one depth and tail gets
    its later ladders from ``Perturbation._reweighed`` with these."""
    eta = rat(eta)
    if not 0 < eta < 1:
        raise ModelError("eta must lie strictly between 0 and 1")
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ModelError(f"ladder depth must be an integer, not {depth!r}")
    if depth < 2:
        raise ModelError("ladder depth must be at least 2")
    ratio = 1 - eta
    if tail == "collapse":
        tail_mass, coef, scale = ratio**depth, (eta,) * depth + (Fraction(1),), Fraction(1)
    elif tail == "renormalize":
        tail_mass = ratio ** (depth + 1)
        coef, scale = (eta,) * (depth + 1), 1 / (1 - tail_mass)
    else:
        raise ModelError(f"unknown tail convention {tail!r}")
    return {"coef": coef, "tail_mass": tail_mass, "ratio": ratio, "scale": scale}


def build_general_ladder(
    scenario: ScenarioModel,
    pi: tuple[Number, ...],
    biases: list[BiasSpec] | None = None,
) -> Perturbation:
    """Ladder partition structure with an arbitrary finite distribution."""
    return Perturbation(
        scenario,
        pi,
        (ladder_partition(len(pi), 0), ladder_partition(len(pi), 1)),
        tuple(biases or ()),
    )


def _changes_payoffs(bias: BiasSpec, base: AgentPayoff) -> bool:
    """Whether ``bias`` gives its agent a cost or a payoff other than the
    unperturbed ``base``; a bias that changes nothing leaves a normal type."""
    if bias.cost is not None and bias.cost != base.cost:
        return True
    return any(value != base.u[s][o] for (s, o), value in bias.u_overrides.items())


def eta_of(perturbation: Perturbation) -> Number:
    """The ex-ante probability of a perturbed type: the mass of the
    circumstances where some agent's type is not normal.  A type is normal
    iff none of its circumstances carries a bias that changes its agent's
    cost or payoffs, so only the biases are read, and the mass walk stops
    at the highest circumstance of a type that is not normal."""
    p = perturbation
    abnormal = {
        w
        for bias in p.biases
        if _changes_payoffs(bias, p.scenario.payoffs[bias.agent])
        for w in p.partitions[bias.agent][p.type_of(bias.agent, bias.circumstance)]
    }
    flags = [w in abnormal for w in range(max(abnormal, default=-1) + 1)]
    return p._prefix_masses(flags).get(True, Fraction(0))


def _learning_costs(perturbation: Perturbation) -> set:
    """Every learning cost in force at some circumstance: each bias's
    cost, its agent's unperturbed one where it sets none, and the
    unperturbed cost of each agent with a circumstance of class ``None``."""
    p, base = perturbation, perturbation.scenario.payoffs
    costs = {base[agent].cost for agent in (0, 1) if None in p._classes[agent]}
    costs.update(base[b.agent].cost if b.cost is None else b.cost for b in p.biases)
    return costs


def is_c_bounded(perturbation: Perturbation, c_bar: Number) -> bool:
    """True iff every perturbed learning cost is at most ``c_bar``."""
    return all(c <= c_bar for c in _learning_costs(perturbation))
