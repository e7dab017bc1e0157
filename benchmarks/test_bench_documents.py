"""Bookkeeping of the ``BENCH_*.json`` documents written by run_benchmarks.

A ratio is only meaningful between two runs of the same work on the same
host, and a document mixes quick ``ci`` runs, full-scale runs and runs
recorded on other hosts.  So ``write_document`` records runs and writes no
speedup at all; a quick ``ci`` run written after a full-scale ``baseline``
must in particular not produce one.
"""

import importlib.util
import json
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def run_benchmarks():
    path = Path(__file__).with_name("run_benchmarks.py")
    spec = importlib.util.spec_from_file_location("run_benchmarks_under_test",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FULL = {"timeout_processes": 160, "timeout_steps_per_process": 1200}
QUICK = {"timeout_processes": 160, "timeout_steps_per_process": 96}


def _run(workload, rate):
    return {"workload": dict(workload), "timeout_dispatch_per_second": rate}


def _speedup_keys(document):
    return [key for key in document if "speedup" in key]


def test_quick_ci_run_gets_no_cross_workload_speedup(tmp_path, run_benchmarks):
    write = run_benchmarks.write_document
    write(tmp_path, "kernel", "baseline", _run(FULL, 100.0), None)
    path = write(tmp_path, "kernel", "ci", _run(QUICK, 300.0), None)
    document = json.loads(path.read_text())
    assert _speedup_keys(document) == []
    assert document["runs"]["ci"] == _run(QUICK, 300.0)


def test_runs_accumulate_without_ratios(tmp_path, run_benchmarks):
    write = run_benchmarks.write_document
    write(tmp_path, "kernel", "baseline", _run(FULL, 100.0), None)
    write(tmp_path, "kernel", "after", _run(FULL, 250.0), None)
    path = write(tmp_path, "kernel", "ci", _run(QUICK, 280.0), None)
    document = json.loads(path.read_text())
    assert _speedup_keys(document) == []
    assert set(document["runs"]) == {"baseline", "after", "ci"}
    assert document["runs"]["after"] == _run(FULL, 250.0)


def test_checked_in_documents_carry_no_top_level_speedup():
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.glob("BENCH_*.json")):
        assert _speedup_keys(json.loads(path.read_text())) == [], path.name
