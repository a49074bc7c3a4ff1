"""Byte stability of experiment JSON, the sha256 of ``to_json()`` for the
seven default experiments and two scaled variants, and of the stdout of
the best-response and dominance CLI commands on the ladder scenario."""

import hashlib
import json
from pathlib import Path

import robustmech
from robustmech.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
CORPUS = json.loads((GOLDEN / "experiments.json").read_text())
CLI_CORPUS = json.loads((GOLDEN / "cli.json").read_text())


def test_experiment_json_matches_golden_hashes():
    got, want = {}, {}
    for entry in CORPUS:
        kwargs = dict(entry.get("kwargs", {}))
        if "scenario" in entry:
            kwargs["scenario"] = getattr(robustmech, entry["scenario"])()
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
