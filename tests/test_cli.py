"""Command line interface behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robustmech import import_mechanism
from robustmech.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_experiment_list(capsys):
    code, out, _ = run(capsys, "experiment", "list")
    assert code == 0
    assert out.split() == [
        "maskin-contagion", "prop1", "prop2", "prop3", "thm1", "thm2", "thm3"
    ]


def test_mechanism_build_stdout(capsys):
    code, out, _ = run(capsys, "mechanism", "build", "--kind", "sqr")
    assert code == 0
    assert out.startswith("m1\tm2\toutcome\tt1\tt2")
    # The table round-trips through the importer.
    table = out.rsplit("\n", 2)[0] + "\n"
    mech = import_mechanism(table)
    assert mech.messages == ((1, 2), (1, 2))


def test_mechanism_build_to_file(tmp_path, capsys):
    target = tmp_path / "mech.tsv"
    code, out, _ = run(capsys, "mechanism", "build", "--kind", "asqr", "--out", str(target))
    assert code == 0
    mech = import_mechanism(target.read_text())
    assert mech.messages == ((-2, 1, 2), (-2, 1, 2))


def test_equilibrium_check(capsys):
    code, out, _ = run(
        capsys, "equilibrium", "check", "--kind", "sqr",
        "--scenario", str(SCENARIOS / "binary_trial.yaml"),
    )
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["is_equilibrium"] is True
    assert record["max_residual"] == "0"


def test_equilibrium_br_iterate(capsys):
    code, out, _ = run(capsys, "equilibrium", "br-iterate", "--kind", "sqr")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["converged"] is True


def test_dominance_gamma(capsys):
    code, out, _ = run(capsys, "dominance", "gamma", "--kind", "sqr")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["gamma"] == "19/42"
    assert record["below_half"] is True


def test_dominance_eliminate(capsys):
    code, out, _ = run(capsys, "dominance", "eliminate", "--kind", "sqr", "--full")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["rounds"] >= 1


def test_experiment_run_writes_artifacts(tmp_path, capsys):
    code, out, _ = run(
        capsys, "experiment", "run", "maskin-contagion",
        "--eta-grid", "1/10", "--out", str(tmp_path),
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    record = json.loads((tmp_path / "maskin-contagion.json").read_text())
    assert record["passed"] is True
    assert (tmp_path / "maskin-contagion.csv").exists()


def test_experiment_run_unknown_name(capsys):
    code, _, err = run(capsys, "experiment", "run", "nope")
    assert code == 2
    assert "unknown experiment" in err


def test_bad_scenario_path(capsys):
    code, _, err = run(capsys, "equilibrium", "check", "--scenario", "/no/such/file.yaml")
    assert code == 2
    assert err.startswith("error:") and "/no/such/file.yaml" in err
    assert "Traceback" not in err


def test_missing_experiment_scenario_exits_2(capsys):
    code, _, err = run(capsys, "experiment", "run", "prop2", "--scenario", "/no/such/file.yaml")
    assert code == 2
    assert err.startswith("error:") and "/no/such/file.yaml" in err


def run_cli(*argv):
    """Run the command line in a subprocess on this checkout's sources."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "robustmech.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )


def eliminate_on_edited_ladder(tmp_path, old, new):
    """Run ``dominance eliminate`` in a subprocess on the ladder scenario
    with one edit, which may span lines; returns the process and the
    number of the edit's last line in the edited file."""
    text = (SCENARIOS / "binary_trial_ladder.yaml").read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new))
    line = text[: text.index(old)].count("\n") + 1 + new.count("\n")
    return run_cli("dominance", "eliminate", "--scenario", str(bad)), line


def test_bad_bias_key_exits_2_without_traceback(tmp_path):
    proc, _ = eliminate_on_edited_ladder(tmp_path, '"*,acquit"', '"nosuch,acquit"')
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unknown state 'nosuch'" in proc.stderr


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("circumstance: 0", 'circumstance: "x"', "bias entry 1 circumstance"),
        ("circumstance: 0", "circumstance: 999", "bias entry 1 circumstance"),
        ("depth: 50", 'depth: "ten"', "perturbation depth"),
        ('eta: "1/100"', 'eta: "2"', "perturbation eta: eta must lie strictly between 0 and 1"),
        ("kind: ladder", 'kind: general\n  pi: ["1/2", "1/3"]',
         "perturbation pi: circumstance distribution must sum to one"),
        ('- {agent: 1, circumstance: 0, cost: "0", u: {"*,acquit": "1000"}}', "- 3",
         "bias entry 1: expected a mapping, got 3"),
        ('cost: "0"', 'cost: "-3"', "bias entry 1: learning cost must be non-negative"),
        ('u: {"*,acquit": "1000"}}',
         'u: {"*,acquit": "1000"}}\n    - {agent: 1, circumstance: 0, u: {"*,convict": "1"}}',
         "bias entry 2: agent 1 already has a bias at circumstance 0"),
    ],
)
def test_bad_perturbation_input_exits_2_naming_the_line(tmp_path, old, new, message):
    proc, line = eliminate_on_edited_ladder(tmp_path, old, new)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr and f"(line {line})" in proc.stderr


BIAS_BLOCK = 'bias:\n    - {agent: 1, circumstance: 0, cost: "0", u: {"*,acquit": "1000"}}'
LADDER_BLOCK = 'perturbation:\n  kind: ladder\n  depth: 50\n  eta: "1/100"\n  ' + BIAS_BLOCK


@pytest.mark.parametrize(
    "old, new",
    [
        ('states:\n  - {name: innocent, prob: "7/10"}\n  - {name: guilty, prob: "3/10"}',
         "states: 3"),
        ("outcomes: [acquit, convict]", "outcomes: 3"),
        ('scf:\n  innocent: {acquit: "1"}\n  guilty: {convict: "1"}', "scf: 3"),
        ('agents:\n  - cost: "1"\n  - cost: "1"', "agents: 3"),
        ('  - cost: "1"\n  - cost: "1"', '  - cost: "1"\n  - 3'),
        ('innocent: {acquit: "1"}', "innocent: 3"),
        ('  - cost: "1"\n  - cost: "1"', '  - cost: "1"\n  - cost: "1"\n    u: 3'),
        (LADDER_BLOCK, "perturbation: 3"),
        (BIAS_BLOCK, "bias: 3"),
        ('u: {"*,acquit": "1000"}', "u: 3"),
        ("kind: ladder", "kind: general\n  pi: 3"),
    ],
    ids=["states", "outcomes", "scf", "agents", "agent-entry", "scf-row", "agent-u",
         "perturbation", "bias", "bias-u", "general-pi"],
)
def test_scalar_in_place_of_a_list_or_mapping_exits_2_naming_the_line(tmp_path, old, new):
    proc, line = eliminate_on_edited_ladder(tmp_path, old, new)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "expected a " in proc.stderr and "got 3" in proc.stderr
    assert f"(line {line})" in proc.stderr


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("perturbation:", "perturbaton:", "scenario file: unknown key 'perturbaton'"),
        ('{name: innocent, prob: "7/10"}', '{name: innocent, prob: "7/10", weight: "1"}',
         "state entry 1: unknown key 'weight'"),
        ('  - cost: "1"\n  - cost: "1"', '  - cost: "1"\n  - cost: "1"\n    costs: "2"',
         "agent 2: unknown key 'costs'"),
        ('eta: "1/100"', 'eta: "1/100"\n  tail: renormalize',
         "perturbation: unknown key 'tail'"),
        ("circumstance: 0", "circumstance: 0, agnet: 2", "bias entry 1: unknown key 'agnet'"),
        ('guilty: {convict: "1"}', 'guilty: {convict: "1"}\n  bogus: {acquit: "1"}',
         "scf: unknown state 'bogus'"),
    ],
    ids=["top-level", "state-entry", "agent-entry", "perturbation", "bias-entry", "scf-row"],
)
def test_unknown_key_exits_2_naming_the_key_and_its_line(tmp_path, old, new, message):
    proc, line = eliminate_on_edited_ladder(tmp_path, old, new)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr and f"(line {line})" in proc.stderr


def test_prop3_refusal_prints_its_witness_in_fractions():
    proc = run_cli("experiment", "run", "prop3", "--scenario", str(SCENARIOS / "three_state.yaml"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: strict cyclical monotonicity fails: minimum cycle weight 0 at class 0\n"
    )


@pytest.mark.parametrize("name", ["thm3", "prop2"])
def test_experiment_option_it_does_not_take_exits_2(name):
    proc = run_cli("experiment", "run", name, "--eta-grid", "1/10")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: experiment {name}: ")
    assert "eta_grid" in proc.stderr
    assert not proc.stdout


def test_prop3_on_a_constant_target_exits_2(tmp_path):
    path = tmp_path / "constant.yaml"
    path.write_text(
        "states:\n"
        '  - {name: innocent, prob: "7/10"}\n'
        '  - {name: guilty, prob: "3/10"}\n'
        "outcomes: [acquit, convict]\n"
        "scf:\n"
        '  innocent: {acquit: "1"}\n'
        '  guilty: {acquit: "1"}\n'
        "agents:\n"
        '  - cost: "1"\n'
        '  - cost: "1"\n'
    )
    proc = run_cli("experiment", "run", "prop3", "--scenario", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "full implementation run needs a non-constant target" in proc.stderr


def test_experiment_scenario_with_perturbation_block_exits_2(tmp_path):
    path = SCENARIOS / "binary_trial_ladder.yaml"
    proc = run_cli("experiment", "run", "maskin-contagion", "--scenario", str(path),
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    line = path.read_text().splitlines().index("perturbation:") + 1
    assert str(path) in proc.stderr and f"(line {line})" in proc.stderr
    assert "perturbation block would be ignored" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_experiment_scenario_without_perturbation_block_runs(capsys):
    code, out, err = run(
        capsys, "experiment", "run", "prop2", "--scenario", str(SCENARIOS / "binary_trial.yaml"),
    )
    assert code == 0 and not err
    assert json.loads(out[out.index("{"):])["passed"] is True


@pytest.mark.parametrize(
    "argv, option",
    [
        (("equilibrium", "check", "--epsilon", "abc"), "--epsilon"),
        (("equilibrium", "check", "--epsilon", "-1"), "--epsilon"),
        (("equilibrium", "check", "--c-bar", "x"), "--c-bar"),
        (("mechanism", "build", "--kind", "maskin", "--reward", "x"), "--reward"),
        (("dominance", "gamma", "--c-bar", "1/0"), "--c-bar"),
        (("experiment", "run", "maskin-contagion", "--eta-grid", "1/0"), "--eta-grid"),
        (("equilibrium", "br-iterate", "--max-rounds", "-1"), "--max-rounds"),
        (("equilibrium", "br-iterate", "--max-rounds", "2.5"), "--max-rounds"),
        (("dominance", "eliminate", "--mixture-denominator", "-3"), "--mixture-denominator"),
    ],
    ids=["epsilon-text", "epsilon-negative", "c-bar-text", "reward-text", "c-bar-zero-denominator",
         "eta-grid-zero-denominator", "max-rounds-negative", "max-rounds-fraction",
         "mixture-denominator-negative"],
)
def test_bad_numeric_option_exits_2_naming_the_option(argv, option):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not proc.stdout
    assert f"error: argument {option}: " in proc.stderr


def test_numeric_options_reach_the_commands(capsys):
    """Parsed values are used as given: a zero learning cost bound is
    checked against the scenario's costs, not replaced by them."""
    code, _, err = run(capsys, "dominance", "gamma", "--kind", "sqr", "--c-bar", "0")
    assert code == 2
    assert err == "error: cost bound must dominate the unperturbed costs\n"
    code, out, _ = run(capsys, "dominance", "gamma", "--kind", "sqr", "--c-bar", "1")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["gamma"] == "19/42"
    code, out, _ = run(capsys, "equilibrium", "check", "--kind", "sqr", "--epsilon", "1/10")
    assert code == 0
