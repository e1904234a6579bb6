"""The benchmark's own checks: smoke runs, corrupted outputs, exact counts.

Every run here uses ``--smoke`` (tiny sizes, one pass), so the assertions are
on correctness and deterministic counts, never on timings.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import corpus, run, serving
from repro.attacks.outcomes import OutcomeKind
from perfbench.metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, SHOULD_MOVE

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(capsys, workload: str, *, seed: int = 7, trace: int = 0):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    argv.append("--smoke")
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert set(SHOULD_MOVE) == set(PER_LAYER)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"])
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    # Every run measures run_seconds plus a few seconds of start-up and set-up.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 4) < 3420


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, lines, result = smoke(capsys, workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"  {name} " in printed and printed.count(f" {unit}") >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def corrupt_expected(monkeypatch, workload: str) -> None:
    """Make the run's reference wrong in one place.

    Serving: flip one byte of the standalone server's first response.
    Corpus: give the first record a wrong oracle kind.
    """
    if workload in serving.SERVING_WORKLOADS:
        standalone_pass = serving.ServingBench.standalone_pass

        def flipped(bench):
            seconds, responses = standalone_pass(bench)
            first = bytearray(responses[0][0])
            first[0] ^= 0x01
            return seconds, [(bytes(first),) + responses[0][1:]] + responses[1:]

        monkeypatch.setattr(serving.ServingBench, "standalone_pass", flipped)
    else:
        build_matrix = corpus.build_matrix

        def wrong_kind(seed):
            records = build_matrix(seed)
            first = records[0]
            wrong = next(kind.value for kind in OutcomeKind if kind.value != first.expected_kind)
            return [dataclasses.replace(first, expected_kind=wrong)] + records[1:]

        monkeypatch.setattr(corpus, "build_matrix", wrong_kind)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_corrupted_expected_output_fails_the_run(capsys, monkeypatch, workload):
    corrupt_expected(monkeypatch, workload)
    code, _, result = smoke(capsys, workload)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_counts_repeat_exactly_across_runs_and_seeds(capsys):
    for seed in (3, 11):
        for workload in run.WORKLOADS:
            first = smoke(capsys, workload, seed=seed, trace=1)[2]["metrics"]
            again = smoke(capsys, workload, seed=seed, trace=1)[2]["metrics"]
            for name in EXACT_COUNTS:
                assert first[name]["value"] == again[name]["value"], (workload, seed, name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    argv = [sys.executable, "perfbench/run.py", "--workload", "httpd-addr-uid",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
