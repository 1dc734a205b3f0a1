"""Self-tests of the benchmark on a tiny N=2 corpus.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--n-slots", "2", "--entries", "8"]


def bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "inf-bcd", "--seconds", "1", *TINY)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = proc.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        line = next(line for line in report if line.split()[:1] == [name])
        assert line.split()[2] == unit
        assert "n=" in line or "median of" in line or " of " in line or "ru_maxrss" in line
    for name in ("ops_per_s", "op_s.p50", "op_s.p90", "fail_frac"):
        assert any(line.split()[:1] == [name] for line in report)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_every_per_layer_metric_is_printed_with_its_unit():
    proc = bench("--workload", "verify-cli", "--seconds", "1", "--trace", "1", *TINY)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"]
    assert result["metrics"]["oracle.dp_solve.self_s_per_op"]["value"] > 0


def test_half_objective_stub_is_counted_as_failed():
    proc = bench("--workload", "inf-bcd", "--seconds", "1", "--stub", "half-objective", *TINY)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    fail_line = next(line for line in proc.stdout.splitlines() if line.split()[:1] == ["fail_frac"])
    assert float(fail_line.split()[1]) == 1.0


def test_objective_below_reference_is_a_failure():
    workload = corpus.WORKLOADS["verify-cli"]
    entry = corpus.make_entry(workload, corpus.DEFAULT_SEED, 0)
    output = (0, "objective 1.000000000 nats; DP lower bound 0.9 (quantum 0.1 mJ)\nPASS\n")
    assert run.check(None, workload, entry, None, output, reference=1.0) == []
    assert run.check(None, workload, entry, None, output, reference=2.0)
    assert run.check(None, workload, entry, None, (3, "FAIL\n"), reference=None)


def test_op_past_its_budget_is_a_timeout():
    budget = corpus.WORKLOADS["inf-bcd"].budget_s
    proc = bench("--workload", "inf-bcd", "--seconds", "0.5", "--stub", "sleep", *TINY)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    fail_line = next(line for line in proc.stdout.splitlines() if line.split()[:1] == ["fail_frac"])
    assert float(fail_line.split()[1]) == 1.0
    assert f"{result['attempted']} timeouts" in fail_line
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert budget <= result["metrics"]["op_s.mean"]["value"] < budget + 0.3


def test_timeouts_inside_traced_ops_leave_the_tracer_consistent(tmp_path):
    from tracer import Tracer

    workload = corpus.WORKLOADS["finite-dwf"]
    ehcoop, entries, inputs, workdir = run.set_up(workload, 1, 8, 2)
    shutil.rmtree(workdir)
    ops = [run.make_op(ehcoop, workload, e, inputs[e.index]) for e in entries]
    tracer = Tracer()
    tracer.install()
    try:
        for k in range(200):    # budgets of 0.05-10 ms cut the ops at many points
            tracer.begin_op(0)
            run.Watchdog(5e-5 * (k + 1)).call(ops[k % len(ops)])
        statuses = []
        for op in ops:
            tracer.begin_op(0)
            statuses.append(run.Watchdog(60).call(op)[1])
    finally:
        tracer.op_id = -1
        tracer.remove()
    assert statuses == [run.DONE] * len(ops)
    tracer.write(tmp_path / "spans.npz")


def test_seed_determines_inputs():
    for name in corpus.WORKLOADS:
        first = corpus.make_corpus(name, 1, 8, 2)
        assert first == corpus.make_corpus(name, 1, 8, 2)
        other = corpus.make_corpus(name, 2, 8, 2)
        assert all(a.harvests != b.harvests for a, b in zip(first, other))
        assert [(e.model, e.mode) for e in first] == [(e.model, e.mode) for e in other]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "inf-bcd", "--seconds", "1", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
