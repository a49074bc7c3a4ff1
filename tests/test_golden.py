"""Byte stability of experiment JSON, the sha256 of ``to_json()`` for the
seven default experiments and three scaled variants (one on a
``uniform_scenario`` prior given in the corpus), for prop1/prop2/prop3
on inputs outside the defaults, and of the stdout of the best-response
and dominance CLI commands on the ladder scenario."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import robustmech
from generators import state_dependent_binary, uniform_scenario
from robustmech.cli import main
from robustmech.experiments import _default_prop3_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
CORPUS = json.loads((GOLDEN / "experiments.json").read_text())
CLI_CORPUS = json.loads((GOLDEN / "cli.json").read_text())
CERTIFICATE_CORPUS = json.loads((GOLDEN / "certificates.json").read_text())


def prop3_swapped_payoffs():
    """The default prop3 scenario with agent 2 as the informed respondent."""
    scenario = _default_prop3_scenario()
    return replace(scenario, payoffs=scenario.payoffs[::-1])


SCENARIOS = {
    "three_state_scenario": robustmech.three_state_scenario,
    "state_dependent_binary": state_dependent_binary,
    "prop3_swapped_payoffs": prop3_swapped_payoffs,
}


def test_experiment_json_matches_golden_hashes():
    got, want = {}, {}
    for entry in CORPUS:
        kwargs = dict(entry.get("kwargs", {}))
        if "scenario" in entry:
            kwargs["scenario"] = getattr(robustmech, entry["scenario"])()
        if "prior" in entry:
            kwargs["scenario"] = uniform_scenario(tuple(Fraction(p) for p in entry["prior"]))
        text = robustmech.run_experiment(entry["experiment"], **kwargs).to_json()
        got[entry["id"]] = hashlib.sha256(text.encode()).hexdigest()
        want[entry["id"]] = entry["sha256"]
    assert got == want


def test_cli_stdout_matches_golden_hashes(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    got, want = {}, {}
    for entry in CLI_CORPUS:
        assert main(entry["argv"]) == 0
        got[entry["id"]] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        want[entry["id"]] = entry["sha256"]
    assert got == want


def test_certificate_json_matches_golden_hashes():
    got, want = {}, {}
    for entry in CERTIFICATE_CORPUS:
        scenario = SCENARIOS[entry["scenario"]]()
        result = robustmech.run_experiment(entry["experiment"], scenario, **entry.get("kwargs", {}))
        got[entry["id"]] = hashlib.sha256(result.to_json().encode()).hexdigest()
        want[entry["id"]] = entry["sha256"]
    assert got == want


def _rows_pass(rows, field="ok"):
    assert rows, "a verdict over no rows would hold vacuously"
    return all(row[field] for row in rows)


ROW_VERDICTS = {
    "inequality_chain": lambda a: _rows_pass(a["chain_rows"]),
    "tv_linear_lower_bound": lambda a: _rows_pass(a["grid"]),
    "learning_value_bounded": lambda a: _rows_pass(a["learning_rows"]),
    "msqr_certificate": lambda a: _rows_pass(a["msqr_witness"]),
    "asqr_certificate_fails": lambda a: not _rows_pass(a["asqr_witness"]),
    "ladder_equilibria": lambda a: _rows_pass(a["grid"], "equilibrium"),
    "unique_survivor_everywhere": lambda a: _rows_pass(a["grid"], "unique_always_status_quo"),
}


@pytest.mark.parametrize("entry", CORPUS + CERTIFICATE_CORPUS, ids=lambda entry: entry["id"])
def test_row_backed_verdicts_are_the_all_of_their_rows(entry):
    """Every certificate that sums up witness rows equals the ``all`` of
    the rows it emits, on the seven defaults and every corpus input."""
    kwargs = dict(entry.get("kwargs", {}))
    if "scenario" in entry:
        kwargs["scenario"] = SCENARIOS[entry["scenario"]]()
    if "prior" in entry:
        kwargs["scenario"] = uniform_scenario(tuple(Fraction(p) for p in entry["prior"]))
    result = robustmech.run_experiment(entry["experiment"], **kwargs)
    for key, verdict in ROW_VERDICTS.items():
        if key in result.certificates:
            assert result.certificates[key] == verdict(result.artifacts), key
