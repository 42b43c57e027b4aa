"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They check that every metric prints with its name and unit, that a
corrupted served result, a changed tune winner and a changed lint
finding each count as a failed op, and that the binding check catches a
function left unwrapped.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS pools before numpy loads)
from run import W, layers  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == layers.per_layer_metrics())


def _run(monkeypatch, capsys, trace: int):
    """One lint_files run over three small files; returns (lines, result)."""
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(W.LintFiles, "round_items", lambda self: self.order[:3])
    monkeypatch.setattr(W.LintFiles, "warmup_items", lambda self: self.order[:1])
    assert run.main(["--workload", "lint_files", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_name_and_unit(monkeypatch, capsys, spec, trace, kind):
    lines, result = _run(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"lint_files {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any("host.ref_loop_ms" in line for line in lines)
    assert any("failed share" in line for line in lines)


def test_corrupted_served_result_is_a_failed_op():
    serve = W.ServeChaos(0)
    lap = serve.order[0]
    stream = W.lap_stream(lap, serve.tenants)
    tickets = serve.run_lap(lap, stream, W.Clock(), [])
    clean = W.RoundResult()
    serve.check_lap(lap, stream, tickets, clean)
    assert clean.failed == 0 and not clean.problems

    victim = next(t for t in tickets if t.status == "served")
    victim.result.c = victim.result.c.copy()
    victim.result.c.flat[0] += 1.0
    corrupted = W.RoundResult()
    serve.check_lap(lap, stream, tickets, corrupted)
    assert corrupted.failed == 1
    assert "relative error" in corrupted.problems[0]


def test_changed_tune_winner_is_a_failed_op():
    tune = W.TuneCatalog(0)
    key = W.tune_key("sandybridge", "d", "exhaustive")
    result = W.RoundResult()
    tune.run_ops([key], W.Clock(), result)
    assert result.failed == 0 and result.ops == 1

    tune.expected = dict(tune.expected, **{key: dict(tune.expected[key], gflops="1.0")})
    changed = W.RoundResult()
    tune.run_ops([key], W.Clock(), changed)
    assert changed.failed == 1 and "winner" in changed.problems[0]


def test_changed_lint_finding_is_a_failed_op():
    lint = W.LintFiles(0)
    path = "repro/analyze/source_checks.py"
    result = W.RoundResult()
    lint.run_ops([path], W.Clock(), result)
    assert result.failed == 0
    assert lint.expected[path]  # two pragma-suppressed findings

    lint.texts[path] += "\n\ndef _late():\n    try:\n        pass\n    except:\n        pass\n"
    changed = W.RoundResult()
    lint.run_ops([path], W.Clock(), changed)
    assert changed.failed == 1 and "host.except.bare" in changed.problems[0]


def test_binding_check_catches_an_unwrapped_function(monkeypatch):
    from repro.perfmodel import model

    original = model.estimate_kernel_time
    inst = layers.Instrumentation()
    assert inst.install() > 0
    try:
        assert inst.unwrapped() == []
        assert model.estimate_kernel_time is not original
        late = types.ModuleType("repro._late_import")
        late.estimate_kernel_time = original
        monkeypatch.setitem(sys.modules, late.__name__, late)
        left = inst.unwrapped()
        assert len(left) == 1 and "repro._late_import" in left[0]
    finally:
        inst.uninstall()
    assert model.estimate_kernel_time is original


def test_self_time_excludes_child_spans():
    now = [0.0]
    timer = layers.LayerTimer(clock=lambda: now[0])

    def child():
        now[0] += 2.0

    wrapped_child = timer.wrap(child, lambda args: "child")

    def parent():
        now[0] += 1.0
        wrapped_child()
        now[0] += 3.0

    timer.wrap(parent, lambda args: "parent")()
    assert timer.calls == {"parent": 1, "child": 1}
    assert timer.self_s == {"parent": 4.0, "child": 2.0}
