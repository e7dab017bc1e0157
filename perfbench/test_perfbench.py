"""Self-checks of the benchmark harness (fast: no campaign is run).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import launch  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _checked(digest: str, stores=()) -> dict:
    return {"monolithic": digest, "stores": list(stores),
            "kernel.activations": 5, "sim.simulated_cycles": 7}


def _reference(digest: str) -> dict:
    return {"seed": 1, "workloads": {"cli_grid": {
        "monolithic": digest, "kernel.activations": 5,
        "sim.simulated_cycles": 7}}}


def test_gate_detects_a_corrupted_artifact(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{\n  "rows": [1, 2]\n}\n')
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_bytes(good.read_bytes().replace(b"2", b"3"))
    digest = hashlib.sha256(good.read_bytes()).hexdigest()
    samples = [{"artifact": good, "store": None},
               {"artifact": corrupted, "store": None}]

    failures = run.gate("cli_grid", 2, samples, _checked(digest),
                        _reference(digest))

    assert len(failures) == 1 and "corrupted.json" in failures[0]
    assert [sample.get("failed", False) for sample in samples] == [False, True]
    report = {"failed": 1, "failures": failures, "attempted": 2,
              "end_to_end": {}}
    assert run.result_line(report, trace=False)["correct"] is False


def test_gate_checks_stores_counts_and_the_reference_seed(tmp_path):
    artifact = tmp_path / "artifact.json"
    artifact.write_text("{}\n")
    digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
    samples = [{"artifact": artifact, "store": "s0"},
               {"artifact": artifact, "store": "s1",
                "layers": {"kernel.activations": 6,
                           "sim.simulated_cycles": 7}}]

    failures = run.gate("cli_grid", 1, samples,
                        _checked(digest, [digest, "0" * 64]),
                        _reference("f" * 64))

    assert [sample.get("failed", False) for sample in samples] == [False, True]
    assert any("regenerated from s1" in failure for failure in failures)
    assert any("traced kernel.activations 6" in failure
               for failure in failures)
    assert any("reference.json" in failure for failure in failures)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert ledger.tail_percentile([float(v) for v in range(10)]) is None
    assert ledger.tail_percentile([float(v) for v in range(1, 12)]) == (
        pytest.approx(100 / 11), 1.0)
    values = [float(v) for v in range(40, 0, -1)]
    percent, value = ledger.tail_percentile(values)
    assert (percent, value) == (75.0, 30.0)
    assert sum(1 for v in values if v > value) == 10


def test_summary_reports_median_best_tail_and_sample_count():
    assert run._summary([float(v) for v in range(1, 41)], "lower") == {
        "median": 20.5, "best": 1.0, "n": 40,
        "tail": {"percentile": 75.0, "value": 30.0}}
    assert run._summary([3.0, 1.0, 2.0], "higher") == {
        "median": 2.0, "best": 3.0, "n": 3, "tail": None}


def test_result_line_carries_one_statistic_per_metric():
    assert set(run.RESULT_STATISTIC) == set(run.END_TO_END_UNITS)
    summary = {"median": 2.0, "best": 1.0, "n": 3, "tail": None}
    report = {"failed": 0, "failures": [], "attempted": 3,
              "end_to_end": {name: summary for name in run.END_TO_END_UNITS}}
    metrics = run.result_line(report, trace=False)["metrics"]
    assert metrics["wall_s"] == {"value": 1.0, "unit": "s"}
    assert metrics["setup_s"] == {"value": 2.0, "unit": "s"}


def test_children_do_not_inherit_an_ignored_sigint():
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        run.stop_signal_reaches_children()
        child = subprocess.run(
            [sys.executable, "-c", "import signal; print(signal.getsignal("
             "signal.SIGINT) is signal.default_int_handler)"],
            capture_output=True, text=True, timeout=60)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert child.stdout.strip() == "True"


def test_untraced_runs_install_no_wrappers(tmp_path):
    bench = run.Bench(WORKLOADS["cli_grid"], 1, tmp_path)
    untraced = bench._command(["campaign", "--help"], None)
    assert untraced[1:] == ["-m", "repro.explore", "campaign", "--help"]
    traced = bench._command(["campaign"], tmp_path / "trace.json")
    assert Path(traced[1]).name == "launch.py"

    def wrapped():
        return [ledger.is_traced(vars(owner)[attr])
                for owner, attr, *_ in launch.targets()]

    # Importing the harness and the program installs nothing ...
    assert not any(wrapped())
    recorder = ledger.Ledger()
    launch.install(recorder)
    try:
        assert all(wrapped())
    finally:
        recorder.uninstall()
    # ... and a traced run leaves the program as it found it.
    assert not any(wrapped())


def test_self_time_and_attributed_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0])
    recorder = ledger.Ledger(clock=lambda: next(ticks))
    outer = recorder.enter("outer")
    inner = recorder.enter("inner")
    recorder.exit(inner)
    recorder.exit(outer)
    recorder.exit(recorder.enter("later"))

    totals = ledger.layer_times(recorder.spans)

    assert totals["outer"] == {"count": 1, "inclusive": 4.0, "self": 2.0}
    assert totals["inner"] == {"count": 1, "inclusive": 2.0, "self": 2.0}
    intervals = ledger.top_level_intervals(recorder.spans)
    assert ledger.covered_seconds(intervals, 0.0, 10.0) == 5.0
    assert ledger.covered_seconds(intervals, 3.5, 5.5) == 1.0


def test_wrap_records_calls_and_refuses_inherited_attributes():
    class Base:
        def work(self, amount):
            return amount * 2

    class Derived(Base):
        pass

    recorder = ledger.Ledger()
    with pytest.raises(AttributeError):
        recorder.wrap(Derived, "work", "layer.work")
    recorder.wrap(Base, "work", "layer.work",
                  after=lambda led, args, result, state: led.count(
                      "layer.amount", result))
    try:
        assert Derived().work(3) == 6
    finally:
        recorder.uninstall()
    assert not ledger.is_traced(Base.work)
    assert [span[0] for span in recorder.spans] == ["layer.work"]
    assert recorder.counters == {"layer.amount": 6}
