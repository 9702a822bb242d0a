"""Tests of the benchmark itself: the correctness gate, the span arithmetic
and the smoke mode of the full command.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from array import array

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, totals_by  # noqa: E402


@pytest.fixture(scope="module")
def ensemble_out(tmp_path_factory):
    """Outputs of a tiny regime-B ensemble, written by the CLI in-process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ssbelab import cli

    out = tmp_path_factory.mktemp("bench") / "experiment"
    argv = ["experiment", os.path.join(ROOT, "configs/regime_b.cfg"), "--out", str(out),
            "--set", "run.paths=4", "--set", "run.steps=2000"]
    assert cli.main(argv) == 0
    return out


@pytest.fixture
def outputs(ensemble_out, tmp_path):
    """A private copy of the outputs plus a reference copy of its CSV."""
    run = tmp_path / "run"
    shutil.copytree(ensemble_out, run)
    ref = tmp_path / "ref"
    ref.mkdir()
    shutil.copy(run / "ensemble.csv", ref / "ensemble.csv")
    return run, ref


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _perturb_first_summary(csv_path, factor):
    lines = csv_path.read_text().splitlines(keepends=True)
    i = next(k for k, ln in enumerate(lines) if ln.startswith("0,"))
    cells = lines[i].rstrip("\n").split(",")
    cells[5] = repr(float(cells[5]) * factor)  # time_avg_sq of path 0
    lines[i] = ",".join(cells) + "\n"
    csv_path.write_text("".join(lines))


def test_gate_accepts_untouched_outputs(outputs):
    run, ref = outputs
    assert gate.check_experiment(str(run), {"regime": "B"}, str(ref)) == []


def test_gate_rejects_wrong_regime(outputs):
    run, ref = outputs
    _edit(run / "ensemble_report.kv", "predicted_regime = B", "predicted_regime = A")
    fails = gate.check_experiment(str(run), {"regime": "B"}, str(ref))
    assert any("predicted regime A" in f for f in fails)
    assert gate.check_experiment(str(run), {"regime": "A"}, str(ref)) != []


def test_gate_rejects_fractions_that_disagree_with_the_csv(outputs):
    run, _ = outputs
    _edit(run / "ensemble_report.kv", "fraction.bounded_oscillatory = 1.0",
          "fraction.bounded_oscillatory = 0.75")
    fails = gate.check_experiment(str(run), {"regime": "B"})
    assert any("fraction.bounded_oscillatory" in f for f in fails)


def test_gate_rejects_summary_perturbed_beyond_tolerance(outputs):
    run, ref = outputs
    _perturb_first_summary(run / "ensemble.csv", 1.0 + 1e-8)
    fails = gate.check_experiment(str(run), {"regime": "B"}, str(ref))
    assert any("column time_avg_sq" in f for f in fails)


def test_gate_accepts_summary_within_tolerance(outputs):
    run, ref = outputs
    _perturb_first_summary(run / "ensemble.csv", 1.0 + 1e-12)
    assert gate.check_experiment(str(run), {"regime": "B"}, str(ref)) == []


def test_gate_rejects_non_identical_rerun(outputs):
    run, _ = outputs
    first = gate.digest(str(run))
    assert gate.digest_mismatch(first, gate.digest(str(run))) == []
    _perturb_first_summary(run / "ensemble.csv", 1.0 + 1e-12)
    assert gate.digest_mismatch(first, gate.digest(str(run))) == [
        "ensemble.csv is not byte-identical to the first run"
    ]
    (run / "extra.txt").write_text("x")
    assert gate.digest_mismatch(first, gate.digest(str(run))) != []


def test_gate_checks_classify_label_and_method(tmp_path):
    (tmp_path / "regime_report.kv").write_text("regime = B\nmethod = analytic_L\n")
    assert gate.check_classify(str(tmp_path), {"regime": "B", "method": "analytic_L"}) == []
    assert gate.check_classify(str(tmp_path), {"regime": "C", "method": "analytic_L"}) != []
    assert gate.check_classify(str(tmp_path), {"regime": "B", "method": "empirical_trend"}) != []


def test_self_times_exact_on_synthetic_tree():
    # root [0, 16] -> a [1, 5] -> a1 [2, 3]; root -> b [6, 14] -> b1 [7, 9], b2 [10, 12]
    parents = [-1, 0, 1, 0, 3, 3]
    starts = [0.0, 1.0, 2.0, 6.0, 7.0, 10.0]
    ends = [16.0, 5.0, 3.0, 14.0, 9.0, 12.0]
    selfs = self_times(parents, starts, ends)
    assert selfs == [4.0, 3.0, 1.0, 4.0, 2.0, 2.0]
    assert sum(selfs) == ends[0] - starts[0]
    tracer = Tracer("synthetic")
    for name in ("root", "a", "a1", "b", "b1", "b2"):
        tracer._name_id(name)
    tracer.name, tracer.parent = array("i", range(6)), array("i", parents)
    tracer.start, tracer.end = array("d", starts), array("d", ends)
    buckets = {"root": "x", "a": "y", "a1": "x", "b": "y", "b1": "z", "b2": "z"}
    assert totals_by(tracer, buckets) == {"x": 5.0, "y": 7.0, "z": 4.0}


def test_self_times_count_overlapping_children_once():
    # b [6, 14] with children [7, 9] and [8, 12]: covered is their union [7, 12].
    selfs = self_times([-1, 0, 0], [6.0, 7.0, 8.0], [14.0, 9.0, 12.0])
    assert selfs == [3.0, 2.0, 4.0]


def test_wrappers_record_nesting_and_restore_attributes():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    original = vars(Owner)["inner"]
    tracer = Tracer("nesting")
    seen = []
    tracer.install(Owner, "inner", "inner", lambda c, a, k, r: seen.append(r))
    tracer.install(Owner, "outer", "outer")
    with tracer.root("session"):
        assert Owner.outer(1) == 4
    tracer.uninstall()
    assert vars(Owner)["inner"] is original
    assert seen == [2]
    assert [tracer.names[i] for i in tracer.name] == ["session", "outer", "inner"]
    assert list(tracer.parent) == [-1, 0, 1]
    totals = totals_by(tracer, {"session": "s", "outer": "s", "inner": "i"})
    wall = tracer.end[0] - tracer.start[0]
    assert totals["s"] + totals["i"] == pytest.approx(wall, rel=1e-12)


def test_session_times_are_medians_of_ratios_to_the_reference_loop():
    import run

    def rep(wall, ref):
        return {"result": {"wall_s": wall, "ref_s": ref, "simulate_s": wall / 2,
                           "classify_s": wall / 4, "path_steps": 1000, "peak_rss_mb": 60.0},
                "failures": []}

    runs = [rep(0.9, 0.5), rep(0.6, 0.4), rep(1.2, 0.3)]  # ratios 1.8, 1.5, 4.0
    m = run._metrics(runs, [0.8, 0.7, 0.9], trace=False)
    assert m["wall_ref"]["value"] == 0.9 / 0.5
    assert m["simulate_ref"]["value"] == 0.45 / 0.5
    assert m["path_steps_per_ref"]["value"] == 1000 / (0.9 / 0.5)
    assert m["setup_s"]["value"] == 0.8
    assert sorted(m) == sorted(run.END_TO_END)


def test_stop_kills_the_session_and_its_forked_child():
    import run

    code = "import os, time\nos.fork()\ntime.sleep(60)\n"
    proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
    time.sleep(0.5)
    run._stop_group(proc)
    assert proc.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_mode_runs_every_workload():
    proc, result = _bench("--workload", "all", "--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        assert result["metrics"][f"{w}.wall_ref"]["value"] > 0
        assert result["metrics"][f"{w}.wall_ref"]["unit"] == "ref"
        assert result["metrics"][f"{w}.setup_s"]["unit"] == "s"


def test_smoke_mode_traced_reports_every_layer():
    proc, result = _bench("--workload", "desk_session", "--smoke", "--seconds", "0",
                          "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(per_layer)
    # classify.truncation=2000 in smoke mode: cells 0..2000 of the quadrature schedule
    assert result["metrics"]["quadrature.cells"]["value"] == 2001
    for name, m in result["metrics"].items():
        if m["unit"] == "s" and name != "trace.overhead_s":
            assert m["value"] > 0, name


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
