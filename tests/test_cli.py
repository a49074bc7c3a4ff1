"""Command line interface behavior and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from robustmech import (
    binary_trial_scenario,
    build_augmented_status_quo,
    build_status_quo,
    export_mechanism,
)
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
    # The table, byte for byte, and then the schedule's JSON line.
    scenario = binary_trial_scenario()
    table = export_mechanism(build_status_quo(scenario, scenario.max_cost))
    assert out.startswith("m1\tm2\toutcome\tt1\tt2")
    assert out.rsplit("\n", 2)[0] + "\n" == table


def test_mechanism_build_to_file(tmp_path, capsys):
    target = tmp_path / "mech.tsv"
    code, out, _ = run(capsys, "mechanism", "build", "--kind", "asqr", "--out", str(target))
    assert code == 0
    table = export_mechanism(build_augmented_status_quo(binary_trial_scenario()))
    assert target.read_text() == table
    assert out.startswith(f"wrote {target}\n")


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


@pytest.mark.parametrize("kind", ["asqr", "msqr"])
def test_dominance_eliminate_by_mixtures_on_the_ladder(kind):
    """On the ladder scenario's full sets, mixtures dominate where no
    member does: 25 rounds of eliminations, the same bytes for both
    rules."""
    proc = run_cli("dominance", "eliminate", "--kind", kind, "--full",
                   "--scenario", str(SCENARIOS / "binary_trial_ladder.yaml"))
    assert proc.returncode == 0 and not proc.stderr
    assert proc.stdout.startswith("rounds: 25\n")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "737d57f33263e4dce0970acc6a1aaa75b09d909c28111f1df566744b5e5d19fb"
    )


def test_removed_mixture_denominator_flag_exits_2():
    proc = run_cli("dominance", "eliminate", "--mixture-denominator", "10")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not proc.stdout
    assert "unrecognized arguments: --mixture-denominator 10" in proc.stderr


def test_closed_pipe_ends_quietly():
    """A reader that leaves before the output is written, as ``| head -1``
    may, gets no traceback on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "robustmech.cli", "experiment", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait()
    assert err == ""


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


def test_experiment_run_writes_no_csv_without_grid_rows(tmp_path, capsys):
    """prop3 measures no grid, so ``--out`` writes its JSON alone."""
    code, out, _ = run(capsys, "experiment", "run", "prop3", "--out", str(tmp_path))
    assert code == 0
    assert out.endswith(f"wrote {tmp_path / 'prop3.json'}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prop3.json"]


def test_experiment_run_unknown_name(capsys):
    code, _, err = run(capsys, "experiment", "run", "nope")
    assert code == 2
    assert "unknown experiment" in err


def test_bad_scenario_path(capsys):
    code, _, err = run(capsys, "equilibrium", "check", "--scenario", "/no/such/file.yaml")
    assert code == 2
    assert err.startswith("error:") and "/no/such/file.yaml" in err
    assert "Traceback" not in err


def test_nested_aliases_exit_2_naming_the_line(capsys):
    path = Path(__file__).resolve().parent / "data" / "nested_aliases.yaml"
    code, _, err = run(capsys, "equilibrium", "check", "--kind", "sqr", "--scenario", str(path))
    assert code == 2
    assert err == "error: an alias refers to a collection that holds an alias (line 5)\n"


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


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan", "1/0"])
def test_non_rational_number_exits_2_naming_the_line(tmp_path, value):
    proc, line = eliminate_on_edited_ladder(tmp_path, 'agents:\n  - cost: "1"',
                                            f"agents:\n  - cost: {value}")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"agent 1 cost: expected a rational, got '{value}' (line {line})" in proc.stderr


def gamma_on_costs(tmp_path, cost):
    """``dominance gamma`` in a subprocess on the binary scenario with both
    learning costs written as ``cost``; returns the process and the line
    of the first cost."""
    text = (SCENARIOS / "binary_trial.yaml").read_text()
    old = '  - cost: "1"\n  - cost: "1"'
    edited = tmp_path / "scenario.yaml"
    edited.write_text(text.replace(old, f"  - cost: {cost}\n  - cost: {cost}"))
    proc = run_cli("dominance", "gamma", "--kind", "sqr", "--scenario", str(edited))
    return proc, text[: text.index(old)].count("\n") + 1


@pytest.mark.parametrize("form, quoted", [("0x10", '"16"'), ("1:30", '"90"'), ("010", '"8"')])
def test_integer_forms_in_a_scenario_reach_the_command(tmp_path, form, quoted):
    """A cost written in another YAML integer form prints what the same
    cost written as a quoted integer does."""
    proc, _ = gamma_on_costs(tmp_path, form)
    assert proc.returncode == 0 and not proc.stderr
    assert proc.stdout == gamma_on_costs(tmp_path, quoted)[0].stdout


def test_integer_tag_that_does_not_parse_exits_2_naming_the_line(tmp_path):
    proc, line = gamma_on_costs(tmp_path, '!!int "ten"')
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"expected an integer, got 'ten' (line {line})" in proc.stderr


def test_prop3_refusal_prints_its_witness_in_fractions():
    """Without strict cyclical monotonicity prop3 fails that one check,
    with the minimum cycle as its witness, and exits 1."""
    proc = run_cli("experiment", "run", "prop3", "--scenario", str(SCENARIOS / "three_state.yaml"))
    assert proc.returncode == 1
    assert not proc.stderr
    head, payload = proc.stdout.split("\n", 1)
    assert head == "FAIL  cyclical_monotonicity"
    record = json.loads(payload)
    assert record["certificates"] == {"cyclical_monotonicity": False}
    assert record["artifacts"] == {"min_cycle_weight": "0", "at_class": 0}
    assert record["passed"] is False


@pytest.mark.parametrize("name", ["thm3", "prop2"])
def test_experiment_option_it_does_not_take_exits_2(name):
    proc = run_cli("experiment", "run", name, "--eta-grid", "1/10")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: experiment {name}: ")
    assert "eta_grid" in proc.stderr
    assert not proc.stdout


def test_empty_eta_grid_exits_2():
    """``--eta-grid`` given no values reaches the run, which refuses the
    empty grid, instead of running the default one."""
    proc = run_cli("experiment", "run", "thm2", "--eta-grid")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: eta grid is empty: a ladder certificate needs at least one eta\n"
    )
    assert not proc.stdout


def test_thm1_on_costs_above_c_bar_exits_2(tmp_path):
    """Learning costs of 2 exceed thm1's default c_bar of 1."""
    path = tmp_path / "costly.yaml"
    path.write_text((SCENARIOS / "binary_trial.yaml").read_text().replace('cost: "1"', 'cost: "2"'))
    proc = run_cli("experiment", "run", "thm1", "--scenario", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: cost bound must dominate the unperturbed costs\n"
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


@pytest.mark.parametrize("command", [("mechanism", "build"), ("dominance", "gamma")])
def test_command_that_plays_no_perturbation_refuses_the_block(command):
    """Like ``experiment run``, these commands would drop the block."""
    path = SCENARIOS / "binary_trial_ladder.yaml"
    proc = run_cli(*command, "--kind", "sqr", "--scenario", str(path))
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == (
        f"error: {path}: this command plays no perturbation, so the perturbation block "
        "would be ignored; remove it (line 14)\n"
    )


@pytest.mark.parametrize(
    "content",
    [b"states: caf\xe9\n", b"a: &x [*x]\n", b"states: " + b"[" * 3000 + b"\n"],
    ids=["not-utf8", "self-alias", "deep-nesting"],
)
def test_unreadable_scenario_exits_2_without_traceback(tmp_path, content):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    proc = run_cli("equilibrium", "check", "--scenario", str(path))
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


def test_experiment_scenario_without_perturbation_block_runs(capsys):
    code, out, err = run(
        capsys, "experiment", "run", "prop2", "--scenario", str(SCENARIOS / "binary_trial.yaml"),
    )
    assert code == 0 and not err
    assert json.loads(out[out.index("{"):])["passed"] is True


def test_prop2_at_zero_costs_reports_inapplicable(tmp_path):
    """A scenario whose costs are 0 builds prop2's default mechanism and
    comes back inapplicable: the run's one certificate is
    ``applicable: False``, a verdict that does not pass (exit 1), with no
    error and no traceback."""
    path = tmp_path / "free.yaml"
    path.write_text((SCENARIOS / "binary_trial.yaml").read_text().replace('cost: "1"', 'cost: "0"'))
    proc = run_cli("experiment", "run", "prop2", "--scenario", str(path))
    assert proc.returncode == 1
    assert not proc.stderr
    assert proc.stdout.splitlines()[0] == "FAIL  applicable"
    assert json.loads(proc.stdout.splitlines()[1])["certificates"] == {"applicable": False}


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
    ],
    ids=["epsilon-text", "epsilon-negative", "c-bar-text", "reward-text", "c-bar-zero-denominator",
         "eta-grid-zero-denominator", "max-rounds-negative", "max-rounds-fraction"],
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


FUZZED_COMMANDS = (
    ("equilibrium", "check"),
    ("dominance", "gamma"),
    ("dominance", "eliminate"),
    ("experiment", "run", "prop2"),
)


@st.composite
def mutated_scenario(draw):
    """A scenario file with one to three lines or space-separated tokens
    deleted, duplicated or swapped.  Nothing is edited inside a token, so
    no number grows and no run asks for a larger ladder or state space
    than the file names."""
    path = draw(st.sampled_from(sorted(SCENARIOS.glob("*.yaml"))))
    lines = [line.split(" ") for line in path.read_text().splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if draw(st.booleans()):  # a whole line
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
            continue
        cells = [(i, k) for i, line in enumerate(lines) for k in range(len(line))]
        (i, k), (j, m) = (draw(st.sampled_from(cells)) for _ in range(2))
        if op == "delete":
            del lines[i][k]
        elif op == "duplicate":
            lines[i].insert(k, lines[i][k])
        else:
            lines[i][k], lines[j][m] = lines[j][m], lines[i][k]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@seed(20211213)
@settings(max_examples=40, deadline=None)
@given(mutated_scenario())
def test_mutated_scenarios_exit_cleanly(text):
    """Bad input ends in exit 2 with an error, never a traceback: every
    fuzzed command returns 0, 1 or 2 in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.yaml")
        with open(path, "w") as fh:
            fh.write(text)
        for command in FUZZED_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, "--scenario", path])
            assert code in (0, 1, 2), (command, text)
