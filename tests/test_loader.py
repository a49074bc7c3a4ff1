"""Scenario YAML loading and validation errors."""

import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import yaml

from robustmech import ScenarioFileError, binary_trial_scenario, load_scenario, parse_scenario
from robustmech import loader
from robustmech.loader import load_unperturbed_scenario
from robustmech.perturbations import eta_of

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOOD = """
states:
  - {name: innocent, prob: "7/10"}
  - {name: guilty, prob: "3/10"}
outcomes: [acquit, convict]
scf:
  innocent: {acquit: "1"}
  guilty: {convict: "1"}
agents:
  - cost: "1"
  - cost: "1"
"""


def test_load_binary_example_matches_builtin():
    loaded, pert = load_scenario(SCENARIOS / "binary_trial.yaml")
    built = binary_trial_scenario()
    assert pert is None
    assert loaded.prior == built.prior
    assert loaded.state_space.states == built.state_space.states
    assert all(loaded.scf(j).same_as(built.scf(j)) for j in range(2))
    assert loaded.payoffs[0].cost == 1


def test_load_ladder_example():
    scenario, pert = load_scenario(SCENARIOS / "binary_trial_ladder.yaml")
    assert pert is not None
    assert pert.size == 51
    assert eta_of(pert) == F(1, 100)
    # The biased circumstance overrides agent 1's payoff and cost.
    assert pert.cost(0, 0) == 0
    assert pert.utility(0, 0, 0, 0) == 1000
    assert pert.utility(0, 1, 0, 0) == scenario.payoffs[0].u[0][0]


def test_load_three_state_example():
    scenario, _ = load_scenario(SCENARIOS / "three_state.yaml")
    assert scenario.n == 3
    assert scenario.generic


def test_parse_good_text():
    scenario, pert = parse_scenario(GOOD)
    assert scenario.n == 2 and pert is None


def test_not_yaml():
    with pytest.raises(ScenarioFileError):
        parse_scenario("states: [unclosed")


def test_empty_document():
    with pytest.raises(ScenarioFileError):
        parse_scenario("")


def test_missing_scf_row_reports_line():
    text = GOOD.replace('  guilty: {convict: "1"}\n', "")
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario(text)
    assert "guilty" in str(err.value)
    assert err.value.line is not None


def test_bad_probability():
    text = GOOD.replace('"3/10"', '"4/10"')
    with pytest.raises(ScenarioFileError):
        parse_scenario(text)


def test_unknown_outcome_in_scf():
    text = GOOD.replace("{convict: \"1\"}", "{banish: \"1\"}")
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario(text)
    assert "banish" in str(err.value)


def test_agent_utility_overrides():
    text = GOOD.replace(
        '  - cost: "1"\n  - cost: "1"\n',
        '  - cost: "2"\n    u: {"guilty,convict": "5", "*,acquit": "1"}\n  - cost: "1"\n',
    )
    scenario, _ = parse_scenario(text)
    u = scenario.payoffs[0]
    assert u.cost == 2
    assert u.u[1][1] == 5
    assert u.u[0][0] == 1 and u.u[1][0] == 1


def test_exactly_two_agents():
    text = GOOD + '  - cost: "1"\n'
    with pytest.raises(ScenarioFileError):
        parse_scenario(text)


LADDER = GOOD + """perturbation:
  kind: ladder
  depth: 4
  eta: "1/10"
  bias:
    - {agent: 1, circumstance: 0, cost: "0"}
    - {agent: 2, circumstance: 1, u: {KEY: "1000"}}
"""


@pytest.mark.parametrize("key, word", [
    ('"nosuch,acquit"', "unknown state 'nosuch'"),
    ('"guilty,banish"', "unknown outcome 'banish'"),
    ('"guilty"', "key must be 'state,outcome'"),
])
def test_bad_bias_utility_key_names_the_entry(key, word):
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario(LADDER.replace("KEY", key))
    message = str(err.value)
    assert word in message
    assert "bias entry 2" in message
    assert err.value.line is not None


def test_good_bias_utility_key():
    _, pert = parse_scenario(LADDER.replace("KEY", '"*,acquit"'))
    assert pert.utility(1, 1, 0, 0) == 1000
    assert pert.utility(1, 1, 1, 0) == 1000
    assert pert.cost(0, 0) == 0


def test_decimal_numbers_load_as_exact_fractions():
    text = GOOD.replace('"7/10"', "0.7").replace('"3/10"', "0.3").replace('cost: "1"', "cost: 0.1")
    scenario, _ = parse_scenario(text)
    assert scenario.prior == (F(7, 10), F(3, 10))
    assert scenario.payoffs[0].cost == F(1, 10)
    assert all(type(p) is F for p in scenario.prior)
    # Read from the text: no float rounds a long decimal first.
    long_cost, _ = parse_scenario(GOOD.replace('cost: "1"', "cost: 0.1234567890123456789"))
    assert long_cost.payoffs[0].cost == F(1234567890123456789, 10**19)
    thirds = GOOD.replace('"7/10"', "0.6666666666666666667").replace('"3/10"', "0.3333333333333333333")
    long_prior, _ = parse_scenario(thirds)
    assert long_prior.prior == (F(6666666666666666667, 10**19), F(3333333333333333333, 10**19))
    stakes, _ = parse_scenario(
        GOOD.replace('cost: "1"\n  - cost', 'cost: "1"\n    u: {"guilty,convict": 1.5e+3}\n  - cost')
    )
    assert stakes.payoffs[0].u[1][1] == 1500
    with pytest.raises(ScenarioFileError, match="non-negative"):
        parse_scenario(GOOD.replace('cost: "1"', "cost: -.5"))


@pytest.mark.parametrize("form", ["0x10", "0b101", "1:30", "010", "1_000", "16"])
def test_integer_forms_load_as_yaml_reads_them(form):
    """Hexadecimal, binary, base-60, leading-zero octal and underscored
    integers load as ``yaml.safe_load`` reads them."""
    scenario, _ = parse_scenario(GOOD.replace('  - cost: "1"\n', f"  - cost: {form}\n", 1))
    assert scenario.payoffs[0].cost == yaml.safe_load(f"cost: {form}")["cost"]
    assert scenario.payoffs[1].cost == 1


@pytest.mark.parametrize("form", ['!!int "ten"', '!!int ""'])
def test_integer_tag_that_does_not_parse_names_its_line(form):
    with pytest.raises(ScenarioFileError, match=r"expected an integer, got '(ten)?' \(line 10\)"):
        parse_scenario(GOOD.replace('  - cost: "1"\n', f"  - cost: {form}\n", 1))


@pytest.mark.parametrize("key", ["{guilty: 1}", "[guilty]"])
def test_mapping_or_list_as_a_key_names_its_line(key):
    """A flow mapping or list in key position is refused with its line,
    not a bare ``TypeError`` for an unhashable key."""
    text = GOOD.replace("  guilty: {convict", f"  {key}: {{convict")
    with pytest.raises(ScenarioFileError, match=r"a mapping key must be a scalar \(line 8\)"):
        parse_scenario(text)


def test_unperturbed_load_refuses_the_block_before_building_it(tmp_path, monkeypatch):
    """A 200,000-rung ladder is refused without a ladder built, and an eta
    out of range is refused as a block, not as a bad eta; the same
    counter sees the one ladder ``load_scenario`` builds."""
    calls = []
    build = loader.build_ladder
    monkeypatch.setattr(loader, "build_ladder", lambda *args: calls.append(args) or build(*args))
    text = (SCENARIOS / "binary_trial_ladder.yaml").read_text()
    for old, new in (("depth: 50", "depth: 200000"), ('eta: "1/100"', 'eta: "2"')):
        path = tmp_path / "edited.yaml"
        path.write_text(text.replace(old, new))
        with pytest.raises(ScenarioFileError) as info:
            load_unperturbed_scenario(path)
        assert str(info.value) == (
            f"{path}: this command plays no perturbation, so the perturbation block "
            "would be ignored; remove it (line 14)"
        )
    assert calls == []
    load_scenario(SCENARIOS / "binary_trial_ladder.yaml")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("a: &x [*x]\n", r"^an alias refers to a collection that contains it \(line 1\)$"),
        ('states: &s\n  - {name: a, prob: "1"}\n  - *s\n',
         r"^an alias refers to a collection that contains it \(line 1\)$"),
        ('states:\n  - &s {name: a, prob: "1", x: [1, *s]}\n',
         r"^an alias refers to a collection that contains it \(line 2\)$"),
        ("states: " + "[" * 3000 + "\n", r"^not valid YAML: nesting too deep$"),
    ],
    ids=["flow-alias", "block-alias", "nested-alias", "deep-nesting"],
)
def test_self_containing_alias_or_deep_nesting_is_a_file_error(text, message):
    with pytest.raises(ScenarioFileError, match=message):
        parse_scenario(text)


def test_an_alias_to_a_finished_collection_loads():
    """Only an alias inside its own collection is refused: two agents may
    share one block."""
    text = GOOD.replace('  - cost: "1"\n  - cost: "1"', '  - &a {cost: "2"}\n  - *a')
    scenario, _ = parse_scenario(text)
    assert [p.cost for p in scenario.payoffs] == [2, 2]


NESTED_ALIASES = Path(__file__).resolve().parent / "data" / "nested_aliases.yaml"


@pytest.mark.parametrize(
    "text, line",
    [
        ('a: &a ["1"]\nb: &b [*a, *a]\nc: [*b]\n', 2),
        ('a: &a [&b ["1"], *b]\nc: *a\n', 1),
        ('a: &a {x: &b ["1"], y: *b}\nc: [*a]\n', 1),
    ],
    ids=["list-of-aliases", "anchor-and-alias-in-one-list", "mapping-of-aliases"],
)
def test_an_alias_to_a_collection_that_holds_an_alias_is_a_file_error(text, line):
    """Each alias copies a collection that holds no alias, so no copy is
    bigger than the file."""
    message = rf"^an alias refers to a collection that holds an alias \(line {line}\)$"
    with pytest.raises(ScenarioFileError, match=message):
        parse_scenario(text)


def test_nested_aliases_are_refused_before_they_expand():
    """30 lines whose full expansion has 2**27 strings in its last line
    are refused at the first alias to a list of aliases, at once."""
    assert len(NESTED_ALIASES.read_text().splitlines()) == 30
    start = time.perf_counter()
    with pytest.raises(ScenarioFileError, match=r"holds an alias \(line 5\)$"):
        load_scenario(NESTED_ALIASES)
    assert time.perf_counter() - start < 0.5


def test_a_file_that_is_not_utf8_is_a_file_error(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(GOOD.encode() + b"# caf\xe9\n")
    with pytest.raises(ScenarioFileError) as info:
        load_scenario(path)
    assert str(info.value) == f"scenario file {path} is not UTF-8 at byte {len(GOOD) + 5}"
