"""Experiment configuration: strict JSON schema, version 1.

Unknown fields are rejected with the offending field path so typos fail
loudly instead of silently running a different experiment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ._flat import check_grid
from .errors import ConfigError, ParameterOutOfRange
from .graphs import (
    DegreeDistribution,
    Graph,
    make_transitive,
    read_graph,
    sample_configuration_model,
)
from .io import read_text
from .seeding import derive_rng

__all__ = ["ExperimentConfig", "load_config", "build_graph", "check_sites"]

# the one list of task kinds, which the CLI, the runner and the checks read
_TASK_KINDS = ("density", "tracked_cluster", "occupancy", "nhat", "tau_coal")
_CONVENTIONS = ("per_edge_unit", "total_unit")


@dataclass
class ExperimentConfig:
    graph: dict
    rate_convention: str
    times: list[float]
    replicates: int
    master_seed: int
    outputs: str
    tasks: list[dict]
    schema: int = 1

    def as_dict(self) -> dict:
        return asdict(self)


def _expect_keys(obj: dict, path: str, required: dict, optional: dict | None = None):
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    for key, kind in {**required, **optional}.items():
        at = f"{path}.{key}" if path else key
        if key in obj:
            _check_type(obj[key], kind, at)
        elif key in required:
            raise ConfigError(at, "missing field")


# the Python types and the name of each field kind; an integer is no bool
_KINDS = {"int": (int, "an integer"), "number": ((int, float), "a number"),
          "str": (str, "a string"), "list": (list, "a list"), "dict": (dict, "an object"),
          "bool": (bool, "a boolean")}


def _check_type(value, kind, path):
    types, name = _KINDS[kind]
    if not isinstance(value, types) or (kind == "int" and isinstance(value, bool)):
        raise ConfigError(path, f"expected {name}")


def validate_config(raw: dict) -> ExperimentConfig:
    _expect_keys(
        raw,
        "",
        {
            "schema": "int",
            "graph": "dict",
            "times": "list",
            "replicates": "int",
            "master_seed": "int",
            "outputs": "str",
            "tasks": "list",
        },
        {"rate_convention": "str"},
    )
    if raw["schema"] != 1:
        raise ConfigError("schema", f"unsupported schema version {raw['schema']}")
    _validate_graph(raw["graph"])
    convention = raw.get("rate_convention", "per_edge_unit")
    if convention not in _CONVENTIONS:
        raise ConfigError("rate_convention", f"unknown convention {convention!r}")
    if not raw["times"]:
        raise ConfigError("times", "expected a nonempty list of numbers")
    times = _check_times(raw["times"], "times")
    if raw["replicates"] < 1:
        raise ConfigError("replicates", "must be >= 1")
    if not raw["tasks"]:
        raise ConfigError("tasks", "need at least one task")
    for i, task in enumerate(raw["tasks"]):
        _validate_task(task, f"tasks[{i}]")
    return ExperimentConfig(
        graph=raw["graph"],
        rate_convention=convention,
        times=times,
        replicates=raw["replicates"],
        master_seed=raw["master_seed"],
        outputs=raw["outputs"],
        tasks=raw["tasks"],
    )


def _validate_graph(graph: dict):
    kinds = [k for k in ("family", "path", "cm") if k in graph]
    if len(kinds) != 1:
        raise ConfigError("graph", "need exactly one of family/path/cm")
    if "family" in graph:
        _expect_keys(graph, "graph", {"family": "str", "params": "list"})
        for i, p in enumerate(graph["params"]):
            _check_type(p, "int", f"graph.params[{i}]")
    elif "path" in graph:
        _expect_keys(graph, "graph", {"path": "str"})
    else:
        _expect_keys(graph, "graph", {"cm": "dict"})
        _expect_keys(
            graph["cm"],
            "graph.cm",
            {"degrees": "list", "n": "int"},
            {"require_connected": "bool", "seed": "int"},
        )
        for i, pair in enumerate(graph["cm"]["degrees"]):
            path = f"graph.cm.degrees[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(path, "expected a [degree, probability] pair")
            _check_type(pair[0], "int", path)
            _check_type(pair[1], "number", path)
        try:
            DegreeDistribution.from_pairs(graph["cm"]["degrees"])
        except ParameterOutOfRange as exc:
            raise ConfigError("graph.cm.degrees", str(exc)) from exc


def _validate_task(task: dict, path: str):
    _expect_keys(
        task,
        path,
        {"task": "str"},
        {"replicates": "int", "sites": "list", "times": "list"},
    )
    if task["task"] not in _TASK_KINDS:
        raise ConfigError(f"{path}.task", f"unknown task {task['task']!r}")
    if "replicates" in task and task["replicates"] < 1:
        raise ConfigError(f"{path}.replicates", "must be >= 1")
    if "times" in task:
        _check_times(task["times"], f"{path}.times")
    seen = set()
    for i, v in enumerate(task.get("sites", [])):
        _check_type(v, "int", f"{path}.sites[{i}]")
        # one column per site: a repeat would write two columns of one name
        if v in seen:
            raise ConfigError(f"{path}.sites[{i}]", f"site {v} repeated")
        seen.add(v)


def _check_times(times: list, path: str) -> list:
    try:
        return check_grid(times)
    except ParameterOutOfRange as exc:
        raise ConfigError(path, str(exc)) from exc


def check_sites(tasks: list, n: int) -> None:
    """Occupancy sites must be vertices of the built graph."""
    for i, task in enumerate(tasks):
        for j, v in enumerate(task.get("sites", [])):
            if not 0 <= v < n:
                raise ConfigError(
                    f"tasks[{i}].sites[{j}]", f"site {v} outside 0..{n - 1}"
                )


def load_config(path) -> ExperimentConfig:
    """A config, or the manifest that embeds one, read from ``path``."""
    try:
        raw = json.loads(read_text(path))
    except ParameterOutOfRange as exc:
        raise ConfigError("<file>", str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path}: invalid JSON: {exc}") from exc
    # a manifest embeds its config verbatim; accept it for exact re-runs
    if isinstance(raw, dict) and "config" in raw and "schema" not in raw:
        raw = raw["config"]
    return validate_config(raw)


def build_graph(cfg_graph: dict, master_seed: int) -> Graph:
    if "family" in cfg_graph:
        return make_transitive(cfg_graph["family"], *cfg_graph["params"])
    if "path" in cfg_graph:
        try:
            return read_graph(cfg_graph["path"])
        except ParameterOutOfRange as exc:
            raise ConfigError("graph.path", str(exc)) from None
    cm = cfg_graph["cm"]
    dist = DegreeDistribution.from_pairs(cm["degrees"])
    rng = derive_rng(cm.get("seed", master_seed), "graph_gen", 0)
    return sample_configuration_model(
        dist, cm["n"], rng, require_connected=cm.get("require_connected", False)
    )
