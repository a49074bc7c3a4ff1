"""Scenario file loader.

Scenario files are YAML documents whose probabilities and payoffs are
written as exact fraction strings (``"7/10"``).  Validation errors carry
the line of the offending node so that authoring mistakes are easy to
locate.

Layout::

    states:
      - {name: innocent, prob: "7/10"}
      - {name: guilty,  prob: "3/10"}
    outcomes: [acquit, convict]
    scf:
      innocent: {acquit: "1"}
      guilty:   {convict: "1"}
    agents:
      - cost: "1"
        u: {"guilty,convict": "2"}      # optional "state,outcome" overrides
      - cost: "1"
    perturbation:                        # optional
      kind: ladder          # or: general
      depth: 100
      eta: "1/100"
      pi: ["1/3", "1/3", "1/3"]          # general kind only
      bias:
        - {agent: 1, circumstance: 0, cost: "5", u: {"*,convict": "10"}}
"""

from __future__ import annotations

from fractions import Fraction

import yaml

from .core import (
    AgentPayoff,
    Lottery,
    ModelError,
    OutcomeSpace,
    ScenarioModel,
    SocialChoiceFunction,
    StateSpace,
)
from .numeric import rat
from .perturbations import BiasSpec, Perturbation, build_general_ladder, build_ladder


class ScenarioFileError(ValueError):
    """Loader error with a file line attached when one is known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line + 1})" if line is not None else ""
        super().__init__(f"{message}{where}")


class _Mapping(dict):
    """A built YAML mapping; ``key_lines`` maps each key to its line."""

    key_lines: dict


def _build(node):
    """Turn a YAML node graph into plain values, remembering source lines."""
    if isinstance(node, yaml.ScalarNode):
        value = yaml.SafeLoader("").construct_scalar(node)
        tag = node.tag
        if tag.endswith(":int"):
            value = int(value)
        elif tag.endswith(":float"):
            value = float(value)
        elif tag.endswith(":bool"):
            value = value.lower() in ("true", "yes", "on")
        elif tag.endswith(":null"):
            value = None
        return value, node.start_mark.line
    if isinstance(node, yaml.SequenceNode):
        return [_build(child) for child in node.value], node.start_mark.line
    if isinstance(node, yaml.MappingNode):
        out = _Mapping()
        out.key_lines = {}
        for key_node, val_node in node.value:
            key, key_line = _build(key_node)
            out[key] = _build(val_node)
            out.key_lines[key] = key_line
        return out, node.start_mark.line
    raise ScenarioFileError(f"unsupported YAML node {node!r}")


def _rat(entry, what):
    value, line = entry
    try:
        return rat(value)
    except (TypeError, ValueError):
        raise ScenarioFileError(f"{what}: expected a rational, got {value!r}", line)


_SHAPES = {dict: "a mapping", list: "a list"}


def _expect(entry, kind, what):
    """A built ``(value, line)`` node whose value must be a ``dict`` or a
    ``list``; any other shape raises ``ScenarioFileError`` naming the
    node's line."""
    value, line = entry
    if not isinstance(value, kind):
        got = _SHAPES.get(type(value), repr(value))
        raise ScenarioFileError(f"{what}: expected {_SHAPES[kind]}, got {got}", line)
    return entry


def _known_keys(mapping, keys, what):
    """Raise ``ScenarioFileError`` naming the first key of a built mapping
    that is not in ``keys``, with the key's line: a misspelled block
    would otherwise be dropped without a word."""
    for key, line in mapping.key_lines.items():
        if key not in keys:
            raise ScenarioFileError(f"{what}: unknown key {key!r}", line)


def _u_overrides(entry, states, outcomes, table, name_key):
    """``{(state index, outcome index): value}`` from a ``u`` node keyed by
    ``"state,outcome"``, where ``*`` spans every state of ``states``.

    Errors start with ``table`` (``"agent 1 u"``); with ``name_key`` they
    name the key as ``table[key]``, otherwise a malformed key is quoted.
    """
    u_raw, line = _expect(entry, dict, table)
    overrides = {}
    for key, value in u_raw.items():
        where = f"{table}[{key}]" if name_key else table
        parts = [p.strip() for p in str(key).split(",")]
        if len(parts) != 2:
            got = "" if name_key else f", got {key!r}"
            raise ScenarioFileError(f"{where}: key must be 'state,outcome'{got}", line)
        sname, oname = parts
        if sname != "*" and sname not in states:
            raise ScenarioFileError(f"{where}: unknown state {sname!r}", line)
        if oname not in outcomes:
            raise ScenarioFileError(f"{where}: unknown outcome {oname!r}", line)
        number = _rat(value, f"{table}[{key}]")
        for s in range(len(states)) if sname == "*" else [states.index(sname)]:
            overrides[(s, outcomes.index(oname))] = number
    return overrides


def _require(mapping, key, line, what):
    if key not in mapping:
        raise ScenarioFileError(f"{what}: missing key {key!r}", line)
    return mapping[key]


def load_scenario(path) -> tuple[ScenarioModel, Perturbation | None]:
    """Parse and validate a scenario file.

    Returns the canonicalized scenario and the optional perturbation
    described in the file (``None`` when no perturbation block exists).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file {path}: {exc.strerror}")
    return parse_scenario(text)


def load_unperturbed_scenario(path) -> ScenarioModel:
    """Parse a scenario file for the named experiments.

    Experiments build their own ladders and would drop the file's
    ``perturbation`` block without a word, so a block raises
    ``ScenarioFileError`` naming the file and the block's line instead.
    """
    scenario, perturbation = load_scenario(path)
    if perturbation is not None:
        with open(path) as fh:
            node = yaml.compose(fh, Loader=yaml.SafeLoader)
        line = next(key.start_mark.line for key, _ in node.value if key.value == "perturbation")
        raise ScenarioFileError(
            f"{path}: experiments build their own ladders, so the perturbation "
            "block would be ignored; remove it", line
        )
    return scenario


def parse_scenario(text: str):
    try:
        node = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ScenarioFileError(f"not valid YAML: {exc}", mark.line if mark else None)
    if node is None:
        raise ScenarioFileError("empty scenario file")
    doc, top_line = _expect(_build(node), dict, "scenario file")
    _known_keys(doc, ("states", "outcomes", "scf", "agents", "perturbation"), "scenario file")

    states_raw, states_line = _expect(_require(doc, "states", top_line, "scenario"), list, "states")
    labels, prior = [], []
    for number, entry in enumerate(states_raw, start=1):
        item, line = _expect(entry, dict, f"state entry {number}")
        _known_keys(item, ("name", "prob"), f"state entry {number}")
        name, _ = _require(item, "name", line, "state")
        labels.append(str(name))
        prior.append(_rat(_require(item, "prob", line, f"state {name!r}"), f"state {name!r} prob"))

    outcomes_raw, _ = _expect(_require(doc, "outcomes", top_line, "scenario"), list, "outcomes")
    outcomes = [str(o) for o, _ in outcomes_raw]

    try:
        state_space = StateSpace(tuple(labels), tuple(prior))
        outcome_space = OutcomeSpace(tuple(outcomes))
    except ModelError as exc:
        raise ScenarioFileError(str(exc), states_line)

    scf_raw, scf_line = _expect(_require(doc, "scf", top_line, "scenario"), dict, "scf")
    for label, line in scf_raw.key_lines.items():
        if label not in labels:
            raise ScenarioFileError(f"scf: unknown state {label!r}", line)
    lots = []
    for label in labels:
        if label not in scf_raw:
            raise ScenarioFileError(f"scf: missing row for state {label!r}", scf_line)
        row, row_line = _expect(scf_raw[label], dict, f"scf[{label}]")
        weights = [Fraction(0)] * len(outcomes)
        for oname, entry in row.items():
            if oname not in outcomes:
                raise ScenarioFileError(f"scf[{label}]: unknown outcome {oname!r}", row_line)
            weights[outcomes.index(oname)] = _rat(entry, f"scf[{label}][{oname}]")
        try:
            lots.append(Lottery(tuple(weights)))
        except ModelError as exc:
            raise ScenarioFileError(f"scf[{label}]: {exc}", row_line)

    agents_raw, agents_line = _expect(_require(doc, "agents", top_line, "scenario"), list, "agents")
    if len(agents_raw) != 2:
        raise ScenarioFileError("agents: exactly two agents are supported", agents_line)
    payoffs = []
    for i, entry in enumerate(agents_raw):
        agent, line = _expect(entry, dict, f"agent {i + 1}")
        _known_keys(agent, ("cost", "u"), f"agent {i + 1}")
        cost = _rat(_require(agent, "cost", line, f"agent {i + 1}"), f"agent {i + 1} cost")
        table = {}
        if agent.get("u", (None,))[0] is not None:
            table = _u_overrides(agent["u"], labels, outcomes, f"agent {i + 1} u", False)
        u = tuple(
            tuple(table.get((s, o), Fraction(0)) for o in range(len(outcomes)))
            for s in range(len(labels))
        )
        try:
            payoffs.append(AgentPayoff(u, cost))
        except ModelError as exc:
            raise ScenarioFileError(f"agent {i + 1}: {exc}", line)

    scenario = ScenarioModel(
        state_space, outcome_space, SocialChoiceFunction(tuple(lots)), tuple(payoffs)
    ).canonicalize()

    perturbation = None
    if "perturbation" in doc:
        perturbation = _parse_perturbation(doc["perturbation"], scenario, labels, outcomes)
    return scenario, perturbation


def _parse_perturbation(entry, scenario, labels, outcomes):
    block, line = _expect(entry, dict, "perturbation")
    kind, kind_line = _require(block, "kind", line, "perturbation")
    _known_keys(block, ("kind", "depth", "eta", "pi", "bias"), "perturbation")
    if kind == "ladder":
        depth, depth_line = block.get("depth", (100, line))
        if not _is_int(depth) or depth < 2:
            raise ScenarioFileError(
                f"perturbation depth: expected an integer of at least 2, got {depth!r}",
                depth_line,
            )
        eta_entry = _require(block, "eta", line, "perturbation")
        eta = _rat(eta_entry, "eta")
        blame = ("eta", eta_entry[1])
        size = depth + 1
    elif kind == "general":
        pi_raw, pi_line = _expect(_require(block, "pi", line, "perturbation"), list,
                                  "perturbation pi")
        pi = tuple(_rat(p, "pi entry") for p in pi_raw)
        blame = ("pi", pi_line)
        size = len(pi)
    else:
        raise ScenarioFileError(f"perturbation: unknown kind {kind!r}", kind_line)

    biases, first_entry = [], {}
    if "bias" in block:
        for number, entry in enumerate(_expect(block["bias"], list, "bias")[0], start=1):
            item, b_line = _expect(entry, dict, f"bias entry {number}")
            _known_keys(item, ("agent", "circumstance", "cost", "u"), f"bias entry {number}")
            agent = item.get("agent", (1, b_line))[0]
            if agent not in (1, 2):
                raise ScenarioFileError("bias: agent must be 1 or 2", b_line)
            circ, c_line = _require(item, "circumstance", b_line, "bias")
            if not _is_int(circ) or not 0 <= circ < size:
                raise ScenarioFileError(
                    f"bias entry {number} circumstance: expected an integer from 0 to "
                    f"{size - 1}, got {circ!r}", c_line
                )
            if first_entry.setdefault((agent, circ), number) != number:
                raise ScenarioFileError(
                    f"bias entry {number}: agent {agent} already has a bias at circumstance "
                    f"{circ} (bias entry {first_entry[agent, circ]})", b_line
                )
            cost = None
            if "cost" in item:
                cost = _rat(item["cost"], "bias cost")
            overrides = {}
            if item.get("u", (None,))[0] is not None:
                # Bias rows follow the scenario's canonical state order.
                overrides = _u_overrides(item["u"], scenario.state_space.states, outcomes,
                                         f"bias entry {number} u", True)
            try:
                biases.append(BiasSpec(agent - 1, circ, overrides, cost))
            except ModelError as exc:
                raise ScenarioFileError(f"bias entry {number}: {exc}", item["cost"][1])

    try:
        if kind == "ladder":
            return build_ladder(scenario, depth, eta, biases)
        return build_general_ladder(scenario, pi, biases)
    except ModelError as exc:
        raise ScenarioFileError(f"perturbation {blame[0]}: {exc}", blame[1])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)

