"""Smoke test of the benchmark itself, on tiny grids.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import hashlib
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (also puts src/ on sys.path)
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

OUT = run.OUT / "smoke"

SWEEP = workloads.Grid(("two",), "0:1:3", "0:2:5", "0,0.25", "1,2")
COMPARE = workloads.Grid(("one", "two"), "0:1:2", "0:1:3", "0.25", "1,2")


def tiny(command: str) -> workloads.Workload:
    if command == "sweep":
        return workloads.Workload("tiny-sweep", ("sweep", "--strategy", "two") + SWEEP.flags(), SWEEP)
    if command == "compare":
        return workloads.Workload(
            "tiny-compare", ("compare", "--strategy", "all") + COMPARE.flags(), COMPARE
        )
    return workloads.Workload("tiny-verify", ("verify", "--only", "s-unitary"), checks=1)


def declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("command", ["sweep", "compare", "verify"])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(command, trace, kind, capsys):
    assert run.report(tiny(command), 0, 0, trace)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared(kind)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_corrupted_csv_is_an_error(capsys):
    from ybc import cli

    workload = tiny("sweep")
    OUT.mkdir(parents=True, exist_ok=True)
    csv = OUT / "corrupt.csv"
    assert cli.main([*workload.argv, "--out", str(csv)]) == 0
    assert workloads.check_output(workload, 0, "", csv, 0) == (
        None,
        hashlib.sha256(csv.read_bytes()).hexdigest(),
    )
    good = csv.read_text()
    lines = good.split("\n")

    fields = lines[7].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    csv.write_text("\n".join(lines[:7] + [",".join(fields)] + lines[8:]))
    error, _ = workloads.check_output(workload, 0, "", csv, 0)
    assert error is not None and "c_l1_sim" in error

    csv.write_text("\n".join(lines[:-2] + [""]))
    assert "rows" in workloads.check_output(workload, 0, "", csv, 0)[0]
    csv.write_text(good)
    assert workloads.check_output(workload, 1, "", csv, 0)[0] == "exit code 1"
    assert workloads.check_output(tiny("verify"), 0, "0/1 checks passed\n", None, 0)[0]
    csv.unlink()


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize(
    "target, column",
    [("build_r_theta_phi", "c_l1_sim"), ("closed_form_l1", "c_l1_closed")],
)
def test_oracle_does_not_move_with_ybc(command, target, column, monkeypatch):
    # A wrong gate or closed form inside ybc must fail the output check.
    from ybc import cli, strategies

    original = getattr(strategies, target)
    if target == "build_r_theta_phi":
        strategies._channel_unitary.cache_clear()
        monkeypatch.setattr(
            strategies, target, lambda p: original(dataclasses.replace(p, theta=p.theta + 1e-6))
        )
    else:
        monkeypatch.setattr(strategies, target, lambda spec: original(spec) + 1e-6)
    workload = tiny(command)
    OUT.mkdir(parents=True, exist_ok=True)
    csv = OUT / "wrong.csv"
    try:
        assert cli.main([*workload.argv, "--out", str(csv)]) == 0
    finally:
        strategies._channel_unitary.cache_clear()
    error, _ = workloads.check_output(workload, 0, "", csv, 0)
    csv.unlink()
    assert error is not None and column in error


def test_failed_checks_count_as_errors():
    # The CLI writes phi = 0.5 pi but the check expects the tiny grid's 0.25 pi.
    wrong = workloads.Grid(("one", "two"), "0:1:2", "0:1:3", "0.5", "1,2")
    workload = workloads.Workload("tiny-wrong", ("compare",) + wrong.flags(), COMPARE)
    summary = run.measure(workload, 0, 0, 0, OUT)
    assert summary["failed"] == summary["attempted"] >= 1
    assert summary["metrics"] is None
    assert "column phi" in summary["runs"][0]["error"]


def test_layer_self_times_add_up_to_traced_wall():
    summary = run.measure(tiny("compare"), 0, 0, 1, OUT)
    traced = [r for r in summary["runs"] if r["traced"]]
    assert traced and summary["failed"] == 0
    for r in traced:
        values = run.layer_values(r)
        self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert self_total == pytest.approx(r["trace"]["root_s"], abs=1e-9)
        wall = r["raw"]["wall_s"]
        assert self_total + values["unattributed_s"] == pytest.approx(wall, abs=1e-12)
        assert values["unattributed_s"] > 0.0  # main's own argument handling


def _snapshot() -> dict:
    state = {}
    for name in ("ybc", *(f"ybc.{layer}" for layer in LAYERS)):
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            state[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for key, value in vars(obj).items():
                    state[(name, attr, key)] = value
            if isinstance(obj, list):
                for i, entry in enumerate(obj):
                    state[(name, attr, i)] = entry
    return state


def test_tracer_patches_lookup_sites_and_restores_them(capsys):
    from ybc import cli, linalg, strategies

    before = _snapshot()
    OUT.mkdir(parents=True, exist_ok=True)
    csv = OUT / "traced.csv"
    with Tracer() as tracer:
        assert strategies.kron is linalg.kron
        assert linalg.kron is not before[("ybc.linalg", "kron")]
        assert cli.VERIFY_CHECKS[0][1] is not before[("ybc.cli", "VERIFY_CHECKS", 0)][1]
        assert linalg.DensityMatrix.purity is not before[("ybc.linalg", "DensityMatrix", "purity")]
        assert cli.main([*tiny("compare").argv, "--out", str(csv)]) == 0
    csv.unlink()
    functions = tracer.summary()["functions"]
    assert functions["strategies.simulate_reduced"]["calls"] == COMPARE.rows
    assert functions["linalg.partial_trace"]["calls"] == COMPARE.rows
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
