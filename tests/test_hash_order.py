"""Experiment output must not depend on hash order.

``Syscall`` members hash by identity, and ``str`` hashes are salted by
``PYTHONHASHSEED``, so the iteration order of syscall sets and string sets
changes from one process to the next.  Anything that lets such an order
reach a report would make the experiments' output irreproducible.  This
runs each experiment's smoke spec in fresh interpreters with different hash
seeds and requires identical JSON once wall-clock timings are removed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _strip_wall(value):
    if isinstance(value, dict):
        return {k: _strip_wall(v) for k, v in value.items() if not k.startswith("wall")}
    if isinstance(value, list):
        return [_strip_wall(v) for v in value]
    return value


def _run(experiment: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", experiment, "--smoke", "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    # Re-serialized, not compared as dicts: dict equality ignores key order.
    return json.dumps(_strip_wall(json.loads(completed.stdout)), indent=1)


@pytest.mark.slow
@pytest.mark.parametrize("experiment", ["table2", "detection", "apps"])
def test_experiment_json_is_independent_of_hash_seed(experiment):
    # Identity hashes follow heap addresses, which vary run to run, so two
    # processes can agree on a set's order by chance; a third run makes a
    # leaked order far likelier to show.
    first, *others = (_run(experiment, seed) for seed in ("0", "1", "2"))
    assert all(other == first for other in others)
