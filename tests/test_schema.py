"""The config schema: one declaration per command, checked before anything
is built, so no config reaches exit 3.

``test_no_mutated_config_exits_three`` mutates each bundled config (drops,
renames and nests keys, copies a key into another block, swaps a value for
one of another JSON type) and requires ``srmarket.cli.main`` to run it
(exit 0 or 1) or refuse it with one config error line (exit 2)."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srmarket.axioms import SearchConfig
from srmarket.cli import bundled_config_names, load_config, main
from srmarket.schema import SEARCH, validate
from test_bundled_reports import _command as command

# values of every JSON type that a mutation swaps in
POOL = [None, True, 0, -1, 2.5, "x", [], [1], {}]


def _slots(value, path=()):
    """The path of every dict entry and list item below value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield path + (key,)
        yield from _slots(v, path + (key,))


def _blocks(value, path=()):
    """The path of every object in value, value itself included."""
    if isinstance(value, dict):
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield from _blocks(v, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated(draw, config: dict) -> dict:
    """config after one to three mutations."""
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(config))
        if not slots:
            break
        path = draw(st.sampled_from(slots))
        parent, key = _at(config, path[:-1]), path[-1]
        kind = draw(st.sampled_from(["drop", "rename", "nest", "copy", "swap"]))
        if kind == "swap" or not isinstance(parent, dict):
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        elif kind == "drop":
            del parent[key]
        elif kind == "rename":
            parent[key + draw(st.sampled_from(["_", "s", "x"]))] = parent.pop(key)
        elif kind == "nest":
            parent[key] = {key: parent[key]}
        else:
            target = _at(config, draw(st.sampled_from(list(_blocks(config)))))
            target[key] = copy.deepcopy(parent[key])
    return config


def run_main(cmd: str, config: dict) -> tuple:
    """(exit code, stderr) of ``srmarket cmd`` on the config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([cmd, "--config", path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("name", bundled_config_names())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_mutated_config_exits_three(name, data):
    original = load_config(name)
    config = data.draw(mutated(original), label="config")
    code, err = run_main(command(original), config)
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("config error:") and err.count("\n") == 1, err


def test_search_block_takes_the_search_config_fields():
    assert set(SEARCH.keys) == \
        {f.name for f in fields(SearchConfig)} | {"exhaustive_scenarios"}


@pytest.mark.parametrize("name", bundled_config_names())
def test_validate_leaves_the_config_unchanged(name):
    config = load_config(name)
    before = json.dumps(config, sort_keys=True)
    validate(config, command(config))
    assert json.dumps(config, sort_keys=True) == before


@pytest.mark.parametrize("edit", [
    lambda c: c["btb"].update(epsilons=[-0.5]),
    lambda c: c["btb"].update(epsilons=[0.5, 0.0])],
    ids=["btb", "btb-zero"])
def test_a_budget_that_is_not_positive_exits_two(edit):
    # BTB quantifies over budgets epsilon > 0; a negative one held its
    # verdict to `fails` with margin 0
    config = load_config("mode_market")
    edit(config)
    code, err = run_main("check", config)
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "positive" in err
