"""Circumstance ladders, partitions, conditional weights, and size measures."""

import random
from fractions import Fraction as F

import pytest

import naive_reference as naive
from robustmech import (
    BiasSpec,
    ModelError,
    Perturbation,
    binary_trial_scenario,
    build_general_ladder,
    build_ladder,
    eta_of,
    is_c_bounded,
    unperturbed,
)
from robustmech.perturbations import ladder_partition


def _pairing_loop(size, offset):
    """The pairing partition, built block by block."""
    blocks = []
    start = 0
    if offset == 0:
        blocks.append((0,))
        start = 1
    while start < size:
        blocks.append(tuple(range(start, min(start + 2, size))))
        start += 2
    return tuple(blocks)


def test_ladder_partition_offsets():
    assert ladder_partition(5, 0) == ((0,), (1, 2), (3, 4))
    assert ladder_partition(5, 1) == ((0, 1), (2, 3), (4,))
    for size in range(1, 13):
        for offset in (0, 1):
            assert ladder_partition(size, offset) == _pairing_loop(size, offset)


@pytest.mark.parametrize("tail, biased, tables", [
    ("collapse", False, (4, 3)),
    ("collapse", True, (4, 4)),
    ("renormalize", False, (2, 2)),
    ("renormalize", True, (3, 3)),
])
def test_ladders_store_no_per_rung_tables(tail, biased, tables):
    """A ladder keeps one table per distinct template, and as many kinds,
    at every depth: ``(templates, distinct kinds)`` does not follow T."""
    s = binary_trial_scenario()
    biases = [BiasSpec(0, 0, {(0, 0): 5})] if biased else []
    for depth in (2, 3, 50, 51, 400, 401):
        pert = build_ladder(s, depth, F(1, 10), biases, tail=tail)
        assert (len(pert._templates), len({kind for _, kind, _ in pert._templates})) == tables


def test_collapse_tail_masses():
    s = binary_trial_scenario()
    eta = F(1, 10)
    p = build_ladder(s, 4, eta)
    assert p.pi[0] == eta
    assert p.pi[2] == eta * (1 - eta) ** 2
    assert p.pi[-1] == (1 - eta) ** 4
    assert sum(p.pi) == 1
    assert p.tail_mass == (1 - eta) ** 4


def test_renormalized_tail_posteriors():
    s = binary_trial_scenario()
    eta = F(1, 20)
    p = build_ladder(s, 6, eta, tail="renormalize")
    assert sum(p.pi) == 1
    # Every two-circumstance type puts 1/(2 - eta) on its lower rung,
    # including the topmost one.
    for agent in (0, 1):
        for t, block in enumerate(p.partitions[agent]):
            if len(block) != 2:
                continue
            lo, hi = block
            assert p.pi[lo] / (p.pi[lo] + p.pi[hi]) == 1 / (2 - eta)


def test_unknown_tail_convention():
    with pytest.raises(ModelError):
        build_ladder(binary_trial_scenario(), 4, F(1, 10), tail="drop")


def test_eta_of_single_bias():
    s = binary_trial_scenario()
    eta = F(1, 100)
    p = build_ladder(s, 10, eta, [BiasSpec(0, 0, {(0, 1): F(50)})])
    # Only the first circumstance carries a biased type, and agent 1's
    # first partition element is exactly that circumstance.
    assert eta_of(p) == eta
    assert not naive.type_is_normal(p, 0, 0)
    assert naive.type_is_normal(p, 1, 0)


def test_eta_of_unperturbed_is_zero():
    assert eta_of(unperturbed(binary_trial_scenario())) == 0


def test_override_equal_to_base_is_not_a_bias():
    s = binary_trial_scenario()
    p = build_ladder(s, 4, F(1, 10), [BiasSpec(0, 0, {(0, 0): s.payoffs[0].u[0][0]})])
    assert naive.type_is_normal(p, 0, 0)
    assert eta_of(p) == 0


def test_cost_bound():
    s = binary_trial_scenario()
    p = build_ladder(s, 4, F(1, 10), [BiasSpec(0, 0, {}, F(5))])
    assert is_c_bounded(p, 5)
    assert not is_c_bounded(p, 4)
    assert p.cost(0, 0) == 5
    assert p.cost(0, 1) == 1
    assert p.cost(1, 0) == 1


def test_posterior_sums_to_one_and_matches_ladder():
    """The posterior is the summed conditional weights of ``type_groups``."""
    s = binary_trial_scenario()
    eta = F(1, 10)
    p = build_ladder(s, 10, eta)
    for agent in (0, 1):
        for t in range(len(p.partitions[agent])):
            assert sum(x for _, cells in p.type_groups(agent, t) for _, x in cells) == 1
    # Interior rung of agent 1: type {w1, w2} sees the opponent's
    # {w0, w1} with probability 1/(2 - eta).
    groups = dict(p.type_groups(0, 1))
    assert groups[p.type_of(1, 1)] == ((1, 1 / (2 - eta)),)


def test_partition_must_cover():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        Perturbation(s, (F(1, 2), F(1, 2)), (((0,),), ((0, 1),)))


def test_distribution_must_sum_to_one():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_general_ladder(s, (F(1, 2), F(1, 3)))


@pytest.mark.parametrize("tail", ["collapse", "renormalize"])
def test_a_deep_ladder_one_part_in_10_30_off_is_refused(tail):
    """The sum-to-one check stays exact on a deep ladder: at T = 4000, the
    ladder with its last coefficient raised by one part in 10**30, or
    lowered by as much, is refused with the same message."""
    s = binary_trial_scenario()
    ladder = build_ladder(s, 4000, F(1, 100), tail=tail)
    last = ladder.coef[-1]
    for off in (last * (1 + F(1, 10**30)), last * (1 - F(1, 10**30))):
        with pytest.raises(ModelError, match="^circumstance distribution must sum to one$"):
            Perturbation(s, ladder.coef[:-1] + (off,), ladder.partitions,
                         ratio=ladder.ratio, scale=ladder.scale)


@pytest.mark.parametrize("coef, ratio, scale", [
    ((F(1, 2), F(1, 3), F(1, 6)), 1, 1),
    ((F(1, 2), F(1, 3), F(1, 7)), 1, 1),
    ((F(3, 2), F(-1, 2)), 1, 1),
    ((F(1, 4),) * 3 + (F(1, 8),) * 2, 1, 1),
    ((F(1, 10),) * 5 + (F(0),) + (F(1, 10),) * 2, F(9, 10), 1 / (1 - F(9, 10)**5 + F(9, 10)**6
                                                                  - F(9, 10)**8)),
    ((F(1, 10),) * 5 + (F(0),) + (F(1, 10),) * 2, F(9, 10), 1),
    ((F(2),) * 3, F(3, 2), F(2, 19)),
    ((F(2),) * 3, F(3, 2), F(1, 19)),
])
def test_the_sum_check_agrees_with_the_exact_sum(coef, ratio, scale):
    """The integer check accepts exactly the coefficients whose masses
    ``scale * coef[w] * ratio**w`` sum to one in ``Fraction``s, on runs of
    equal coefficients, zero ones and a ratio above one alike."""
    s = binary_trial_scenario()
    parts = (tuple((w,) for w in range(len(coef))),) * 2
    exact = sum(scale * c * F(ratio)**w for w, c in enumerate(coef)) == 1
    try:
        Perturbation(s, coef, parts, ratio=ratio, scale=scale)
        accepted = True
    except ModelError as error:
        accepted = str(error) != "circumstance distribution must sum to one"
    assert accepted == exact


def _plain_masses(pert, labels):
    """``masses_by`` as a plain ``Fraction`` sum of ``pi``, label by label,
    in order of first positive mass."""
    out = {}
    for label, mass in zip(labels, pert.pi):
        if mass:
            out[label] = out.get(label, 0) + mass
    return out


_GENERAL = (F(1, 4), F(1, 4), F(1, 8), F(1, 8), F(1, 4))
_ZEROS = (F(1, 2), F(0), F(0), F(1, 4), F(0), F(1, 4))
_MASS_CASES = {
    "collapse": lambda s: build_ladder(s, 9, F(1, 10)),
    "renormalize": lambda s: build_ladder(s, 9, F(1, 7), tail="renormalize"),
    "general": lambda s: build_general_ladder(s, _GENERAL),
    "general-zeros": lambda s: build_general_ladder(s, _ZEROS),
    "geometric-zero": lambda s: Perturbation(
        s, (F(1, 10),) * 5 + (F(0),) + (F(1, 10),) * 2,
        (tuple((w,) for w in range(8)),) * 2, ratio=F(9, 10),
        scale=1 / (1 - F(9, 10)**5 + F(9, 10)**6 - F(9, 10)**8)),
    "ratio-above-one": lambda s: Perturbation(
        s, (F(2),) * 3, (tuple((w,) for w in range(3)),) * 2, ratio=F(3, 2), scale=F(2, 19)),
}


@pytest.mark.parametrize("case", sorted(_MASS_CASES))
def test_masses_by_is_the_plain_sum_of_pi(case):
    """The integer run sums give each label the plain sum of its masses,
    in the same order, for whole label lists and for prefixes alike (the
    path ``eta_of`` takes)."""
    pert = _MASS_CASES[case](binary_trial_scenario())
    rng = random.Random(case)
    patterns = [[0] * pert.size, list(range(pert.size)), [w % 2 for w in range(pert.size)],
                [w // 3 for w in range(pert.size)]]
    patterns += [[rng.choice("abc") for _ in range(pert.size)] for _ in range(20)]
    for labels in patterns:
        got = pert.masses_by(labels)
        assert list(got.items()) == list(_plain_masses(pert, labels).items())
        for k in range(pert.size + 1):
            got = pert._prefix_masses(labels[:k])
            assert list(got.items()) == list(_plain_masses(pert, labels[:k]).items())


@pytest.mark.parametrize("case", sorted(_MASS_CASES))
def test_eta_of_is_the_plain_mass_of_perturbed_types(case):
    """``eta_of`` against the naive sum over every circumstance, with
    biases at the bottom, in the middle and at the top."""
    s = binary_trial_scenario()
    pert = _MASS_CASES[case](s)
    for agent, circ in [(0, 0), (1, 0), (0, 2), (1, pert.size // 2), (0, pert.size - 1)]:
        biased = Perturbation(s, pert.coef, pert.partitions,
                              (BiasSpec(agent, circ, {(0, 1): F(50)}),),
                              pert.tail_mass, pert.ratio, pert.scale)
        assert eta_of(biased) == naive.eta_of(biased)


def test_bias_circumstance_in_range():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_general_ladder(s, (F(1, 2), F(1, 2)), [BiasSpec(0, 5, {})])


@pytest.mark.parametrize("agent", [2, -1])
def test_bias_agent_in_range(agent):
    """A bias names agent 0 or 1; another index is refused, not ignored
    nor read from the end."""
    s = binary_trial_scenario()
    with pytest.raises(ModelError, match="missing agent"):
        build_general_ladder(s, (F(1, 2), F(1, 2)), [BiasSpec(agent, 0, {}, F(0))])


def test_second_bias_at_one_circumstance_is_rejected():
    """Two biases for one agent at one circumstance are refused rather
    than the second silently replacing the first; the other agent may
    have its own there."""
    s = binary_trial_scenario()
    with pytest.raises(ModelError, match="two biases apply to agent 0 at circumstance 0"):
        build_ladder(s, 4, "1/10", [BiasSpec(0, 0, {(0, 0): 5}), BiasSpec(0, 0, {(0, 1): 7})])
    p = build_ladder(s, 4, "1/10", [BiasSpec(0, 0, {(0, 0): 5}), BiasSpec(1, 0, {(0, 1): 7})])
    assert p.utility(0, 0, 0, 0) == 5 and p.utility(1, 0, 0, 1) == 7


def test_depth_and_eta_validation():
    s = binary_trial_scenario()
    with pytest.raises(ModelError):
        build_ladder(s, 1, F(1, 10))
    with pytest.raises(ModelError):
        build_ladder(s, 4, F(0))
