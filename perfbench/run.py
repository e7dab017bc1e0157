#!/usr/bin/env python3
"""End-to-end campaign benchmark: real entry points, layer-attributed ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_grid --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: closed-loop campaigns through
``python -m repro.explore`` for ``--seconds``, with cold starts of the
workload's subcommand spread among them.  ``--trace 1`` alternates
untraced campaigns with campaigns whose processes run under ``launch.py
traced`` and reports the per-layer ledger.  Every campaign's JSON artifact
is hashed and must equal an in-process monolithic ``Campaign.run`` of the
same grid (and, for the reference seed, the digest recorded in
``reference.json``); a mismatch fails the campaign and the exit status.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from ledger import covered_seconds, merge_documents, tail_percentile
from workloads import WORKLOADS, Workload, pool_worker_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Cold starts measured per run; setup_s is their median.
SETUP_REPEATS = 11
#: Campaigns measured per run even when --seconds has already run out.
MIN_SAMPLES = 3
#: Seconds any one child process may run before it is killed (a failure).
CHILD_TIMEOUT = 120.0
#: Seconds between progress polls of the pool's work/submit processes.
POLL_SECONDS = "0.02"
#: Simulated statistics that must repeat exactly (see reference.json).
EXACT_COUNTS = ("kernel.activations", "sim.simulated_cycles")

#: Metric names and units, in BENCHMARK.json's order.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {metric["name"]: metric["unit"]
                    for metric in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"]
                   for metric in _SPEC["per_layer"]}
BETTER = {metric["name"]: metric["better"] for metric in _SPEC["end_to_end"]}
#: The statistic of each end-to-end metric that the result line carries.
#: Campaign timings are the run's best campaign: load from outside the
#: benchmark only ever slows a campaign down, in episodes of seconds that
#: can cover most of a run, so the median of a run moves with the host while
#: its best campaign moves with the program (README.md, "Best campaign,
#: not median").  Peak RSS does not depend on load, and set-up is the
#: median of its cold starts.
RESULT_STATISTIC = {"wall_s": "best", "rows_per_s": "best",
                    "cpu_s_per_row": "best", "peak_rss_mb": "median",
                    "setup_s": "median"}


class BenchmarkError(RuntimeError):
    """A campaign or check failed; the message says which."""


class Child:
    """A child process in its own session, reaped with ``wait4``.

    A watchdog kills the whole session after ``timeout`` seconds, so a hung
    process (or a blocked read of its output) ends as a failure.
    """

    def __init__(self, argv: List[str], log: Path, env: Dict[str, str],
                 timeout: float = CHILD_TIMEOUT, pipe: bool = False):
        self.log = log
        with open(log, "wb") as handle:
            self.process = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if pipe else handle, stderr=handle,
                start_new_session=True)
        self.timed_out = False
        self._watchdog = threading.Timer(timeout, self._expire)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.maxrss_mb = 0.0

    def _expire(self) -> None:
        self.timed_out = True
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def readline(self) -> str:
        return self.process.stdout.readline().decode("utf-8", "replace")

    def wait(self) -> int:
        """Reap the process; returns its exit code (ru_maxrss is kept)."""
        if self.process.returncode is None:
            _, status, usage = os.wait4(self.process.pid, 0)
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._watchdog.cancel()
        if self.process.stdout is not None:
            self.process.stdout.close()
        return self.process.returncode

    def check(self, what: str) -> None:
        code = self.wait()
        if self.timed_out:
            raise BenchmarkError(f"{what} timed out (log: {self.log})")
        if code != 0:
            raise BenchmarkError(f"{what} exited {code} (log: {self.log})")


def stop_signal_reaches_children() -> None:
    """Let children inherit a default SIGINT disposition.

    The pool workload stops ``serve`` with SIGINT.  A shell that starts the
    harness in the background makes it ignore SIGINT, an ignored signal stays
    ignored across ``exec``, and ``serve`` would then never stop.  A handled
    signal is reset to its default in the child, so the harness handles it.
    """
    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _address(line: str, prefix: str) -> str:
    if not line.startswith(prefix):
        raise BenchmarkError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix):].strip()


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.python = sys.executable
        # Children run with the interpreter's default buffering and bytecode
        # caching, whatever the calling shell sets; warm_up() fills the cache.
        self.env = {name: value for name, value in os.environ.items()
                    if name not in ("PYTHONDONTWRITEBYTECODE",
                                    "PYTHONUNBUFFERED")}
        source = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")]))
        self.cpus = len(os.sched_getaffinity(0))
        self.samples = 0

    def _command(self, argv: List[str], trace: Optional[Path]) -> List[str]:
        if trace is None:
            return [self.python, "-m", "repro.explore", *argv]
        return [self.python, str(HERE / "launch.py"), "traced", str(trace),
                "--", *argv]

    def _sample_dir(self, kind: str) -> Path:
        self.samples += 1
        path = self.workdir / f"{self.samples:03d}-{kind}"
        path.mkdir(parents=True)
        return path

    # -- set-up ----------------------------------------------------------------
    def warm_up(self) -> None:
        """One untimed cold start, so bytecode compilation is never timed."""
        directory = self._sample_dir("warm-up")
        Child(self._command(["campaign", "--help"], None),
              directory / "help.log", self.env).check("campaign --help")

    def setup_seconds(self) -> float:
        """Cold interpreter start, imports and argument parsing."""
        directory = self._sample_dir("setup")
        if self.workload.mode == "campaign":
            start = time.monotonic()
            child = Child(self._command(["campaign", "--help"], None),
                          directory / "help.log", self.env)
            child.check("campaign --help")
            return time.monotonic() - start
        start = time.monotonic()
        serve = Child(self._command(["serve", "--port", "0"], None),
                      directory / "serve.log", self.env, pipe=True)
        try:
            _address(serve.readline(), "coordinator listening on ")
            elapsed = time.monotonic() - start
        finally:
            serve.kill()
            serve.wait()
        return elapsed

    # -- one campaign --------------------------------------------------------------
    def campaign(self, traced: bool) -> Dict[str, object]:
        if self.workload.mode == "pool":
            return self._pool_campaign(traced)
        return self._cli_campaign(traced)

    def _cli_campaign(self, traced: bool) -> Dict[str, object]:
        directory = self._sample_dir("traced" if traced else "timed")
        artifact = directory / "artifact.json"
        trace = directory / "trace.json" if traced else None
        argv = ["campaign", *self.workload.grid_argv(self.seed),
                "--workers", "1", "--json", str(artifact)]
        cpu = _children_cpu()
        start = time.monotonic()
        child = Child(self._command(argv, trace), directory / "campaign.log",
                      self.env)
        child.check("campaign")
        stop = time.monotonic()
        return {"start": start, "wall": stop - start,
                "cpu": _children_cpu() - cpu, "rss_mb": child.maxrss_mb,
                "artifact": artifact, "store": None,
                "traces": [trace] if traced else []}

    def _pool_campaign(self, traced: bool) -> Dict[str, object]:
        directory = self._sample_dir("traced" if traced else "timed")
        artifact = directory / "artifact.json"
        store = directory / "store"
        traces: List[Path] = []

        def command(name: str, argv: List[str]) -> List[str]:
            trace = directory / f"trace-{name}.json" if traced else None
            if trace is not None:
                traces.append(trace)
            return self._command(argv, trace)

        children: List[Child] = []
        cpu = _children_cpu()
        start = time.monotonic()
        try:
            serve_argv = ["serve", "--port", "0"]
            if traced:
                serve_argv += ["--metrics-port", "0"]
            serve = Child(command("serve", serve_argv),
                          directory / "serve.log", self.env, pipe=True)
            children.append(serve)
            address = _address(serve.readline(), "coordinator listening on ")
            metrics_address = (
                _address(serve.readline(), "metrics listening on ")
                if traced else None)
            for index in range(pool_worker_count(self.cpus)):
                children.append(Child(command(f"work{index}", [
                    "work", "--connect", address, "--id", f"w{index}",
                    "--prefetch", "2", "--poll", POLL_SECONDS,
                    "--reconnect-tries", "0"]),
                    directory / f"work{index}.log", self.env))
            submit_argv = ["submit", "--connect", address,
                           *self.workload.grid_argv(self.seed),
                           "--shards", str(self.workload.shards), "--wait",
                           "--poll", POLL_SECONDS, "--json", str(artifact),
                           "--store", str(store)]
            submit = Child(command("submit", submit_argv),
                           directory / "submit.log", self.env)
            children.append(submit)
            submit.check("submit")
            stop = time.monotonic()
            coordinator = None
            if traced:
                coordinator = self._coordinator_snapshot(
                    directory, address, metrics_address)
            # SIGINT is serve's interactive stop (drain, then exit); the
            # workers then see the coordinator go away and exit too.
            os.kill(serve.process.pid, signal.SIGINT)
            for child in children[:-1]:
                child.check(f"{child.log.stem} (after submit)")
        finally:
            for child in children:
                if child.process.returncode is None:
                    child.kill()
                    child.wait()
        return {"start": start, "wall": stop - start,
                "cpu": _children_cpu() - cpu,
                "rss_mb": max(child.maxrss_mb for child in children),
                "artifact": artifact, "store": store, "traces": traces,
                "coordinator": coordinator}

    def _coordinator_snapshot(self, directory: Path, address: str,
                              metrics_address: str) -> Dict[str, float]:
        """``status --json`` plus one ``/metrics`` scrape, after the run."""
        status_log = directory / "status.json"
        child = Child(self._command(
            ["status", "--connect", address, "--json"], None),
            status_log, self.env)
        child.check("status")
        status = json.loads(status_log.read_text())
        with urllib.request.urlopen(f"http://{metrics_address}/metrics",
                                    timeout=30) as response:
            exposition = response.read().decode("utf-8")
        samples = {}
        for line in exposition.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        latency_count = samples.get("coordinator_span_latency_seconds_count",
                                    0.0)
        granted = status["leases_granted"]
        return {
            "coordinator.span_latency_s": (
                samples["coordinator_span_latency_seconds_sum"]
                / latency_count if latency_count else 0.0),
            "coordinator.leases": granted,
            "coordinator.useful_lease_ratio": (
                status["completed_spans"] / granted if granted else 0.0),
            "coordinator.steals": status["steals"],
            "coordinator.stale_completions": status["stale_completions"],
            "coordinator.protocol_errors": status["protocol_errors"],
        }

    # -- verification ----------------------------------------------------------------
    def verify(self, stores: List[Path]) -> Dict[str, object]:
        directory = self._sample_dir("verify")
        log = directory / "verify.log"
        child = Child([self.python, str(HERE / "launch.py"), "verify",
                       self.workload.name, str(self.seed), str(directory),
                       *map(str, stores)], log, self.env, pipe=True)
        output = child.process.stdout.read().decode("utf-8")
        child.check("verify")
        return json.loads(output.strip().splitlines()[-1])


def layer_metrics(sample: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign (all its processes)."""
    documents = [json.loads(Path(path).read_text())
                 for path in sample["traces"]]
    totals, counters, intervals, durations = merge_documents(documents)

    def self_seconds(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def inclusive_seconds(name: str) -> float:
        return totals.get(name, {}).get("inclusive", 0.0)

    hits = counters.get("scenarios.cache_hits", 0)
    lookups = hits + counters.get("scenarios.cache_misses", 0)
    activations = counters.get("kernel.activations", 0)
    kernel = inclusive_seconds("kernel.run")
    leases = durations.get("coordinator.lease", [])
    start, wall = sample["start"], sample["wall"]
    values = {
        "startup.import_s": self_seconds("startup.import"),
        "scenarios.describe_s": self_seconds("scenarios.describe"),
        "scenarios.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "schedule.build_s": self_seconds("schedule.build"),
        "schedule.estimate_s": self_seconds("schedule.estimate"),
        "soc.build_s": self_seconds("soc.build"),
        "soc.builds": totals.get("soc.build", {}).get("count", 0),
        "sim.run_s": inclusive_seconds("sim.run"),
        "kernel.run_s": kernel,
        "kernel.activations": activations,
        "kernel.us_per_activation": (kernel / activations * 1e6
                                     if activations else 0.0),
        "sim.simulated_cycles": counters.get("sim.simulated_cycles", 0),
        "campaign.row_s": self_seconds("campaign.row"),
        "campaign.write_s": self_seconds("campaign.write"),
        "store.encode_s": self_seconds("store.encode"),
        "store.ingest_s": self_seconds("store.ingest"),
        "store.write_s": self_seconds("store.write"),
        "distrib.validate_s": self_seconds("distrib.validate"),
        "worker.execute_s": inclusive_seconds("worker.execute"),
        "worker.idle_polls": counters.get("worker.idle_polls", 0),
        "coordinator.lease_rtt_s": (statistics.median(leases)
                                    if leases else 0.0),
        "coordinator.span_latency_s": 0.0,
        "coordinator.leases": 0,
        "coordinator.useful_lease_ratio": 0.0,
        "coordinator.steals": 0,
        "coordinator.stale_completions": 0,
        "coordinator.protocol_errors": 0,
        "trace.unattributed_s": wall - covered_seconds(intervals, start,
                                                       start + wall),
    }
    values.update(sample.get("coordinator") or {})
    return values


def gate(workload_name: str, seed: int, samples: List[Dict[str, object]],
         checked: Dict[str, object], reference: Dict[str, object]
         ) -> List[str]:
    """The result-identity and exact-count checks of one invocation.

    Every artifact, and the JSON regenerated from every store (in sample
    order, as ``launch.py verify`` returns them), must equal the monolithic
    in-process artifact; every traced campaign must count exactly the
    artifact's kernel activations and simulated cycles; and on the
    reference seed the digest and counts must equal ``reference.json``.
    A campaign that fails a check is marked ``failed``.
    """
    failures: List[str] = []
    expected = checked["monolithic"]
    regenerated = iter(checked["stores"])

    def fail(sample: Dict[str, object], message: str) -> None:
        failures.append(message)
        sample["failed"] = True

    for sample in samples:
        if _digest(Path(sample["artifact"])) != expected:
            fail(sample, f"{sample['artifact']} differs from the monolithic "
                         f"Campaign.run artifact")
        if sample["store"] and next(regenerated) != expected:
            fail(sample, f"JSON regenerated from {sample['store']} differs "
                         f"from the monolithic Campaign.run artifact")
        for key in EXACT_COUNTS:
            if "layers" in sample and sample["layers"][key] != checked[key]:
                fail(sample, f"traced {key} {sample['layers'][key]} differs "
                             f"from the artifact's {checked[key]}")
    if seed == reference["seed"]:
        recorded = reference["workloads"][workload_name]
        for key in ("monolithic", *EXACT_COUNTS):
            if checked[key] != recorded[key]:
                failures.append(f"{key} is {checked[key]}, reference.json "
                                f"records {recorded[key]}")
    return failures


def _summary(values: List[float], better: str) -> Dict[str, object]:
    tail = tail_percentile(values)
    return {"median": statistics.median(values),
            "best": min(values) if better == "lower" else max(values),
            "n": len(values),
            "tail": None if tail is None else
            {"percentile": tail[0], "value": tail[1]}}


def _provenance(seed: int, cpus: int, numpy_version: Optional[str]
                ) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"seed": seed, "nproc": cpus,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit, "host": platform.machine()}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Dict[str, object]:
    """Measure one workload; returns the full report (see README.md)."""
    reference = json.loads(REFERENCE.read_text())
    bench = Bench(workload, seed, workdir)
    failures: List[str] = []
    setups: List[float] = []
    timed: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    attempted = 0

    def attempt(is_traced: bool) -> None:
        nonlocal attempted
        attempted += 1
        try:
            sample = bench.campaign(is_traced)
        except BenchmarkError as error:
            failures.append(str(error))
            return
        (traced if is_traced else timed).append(sample)

    bench.warm_up()
    began = time.monotonic()
    while True:
        elapsed = time.monotonic() - began
        if elapsed >= seconds and attempted >= MIN_SAMPLES:
            break
        # Cold starts are spread over the run rather than taken back to
        # back, so one burst of load on the host cannot move all of them.
        if not trace and len(setups) < min(
                SETUP_REPEATS, int(SETUP_REPEATS * elapsed / seconds) + 1):
            setups.append(bench.setup_seconds())
            continue
        attempt(False)
        if trace:
            attempt(True)
        if len(failures) >= MIN_SAMPLES:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(bench.setup_seconds())

    samples = timed + traced
    checked = bench.verify([sample["store"] for sample in samples
                            if sample["store"]])
    for sample in traced:
        sample["layers"] = layer_metrics(sample)
    failures += gate(workload.name, seed, samples, checked, reference)
    failed = attempted - len(samples) + sum(
        1 for sample in samples if sample.get("failed"))
    layers = [sample["layers"] for sample in traced]

    rows = checked["rows"]
    good = [sample for sample in timed if not sample.get("failed")]
    distributions: Dict[str, List[float]] = {}
    if good:
        distributions = {
            "wall_s": [sample["wall"] for sample in good],
            "rows_per_s": [rows / sample["wall"] for sample in good],
            "cpu_s_per_row": [sample["cpu"] / rows for sample in good],
            "peak_rss_mb": [sample["rss_mb"] for sample in good],
        }
    if setups:
        distributions["setup_s"] = setups
    end_to_end = {name: _summary(values, BETTER[name])
                  for name, values in distributions.items()}
    per_layer: Dict[str, float] = {}
    if layers and timed:
        untraced = statistics.median(sample["wall"] for sample in timed)
        for sample in traced:
            sample["layers"]["trace.overhead_ratio"] = sample["wall"] / untraced
        per_layer = {name: statistics.median(values[name] for values in layers)
                     for name in PER_LAYER_UNITS}
    return {
        "workload": workload.name,
        "why": workload.why,
        "provenance": _provenance(seed, bench.cpus, checked.get("numpy")),
        "held_out_seed": reference["held_out_seed"],
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": failures,
        "rows": rows,
        "end_to_end": end_to_end,
        "samples": distributions,
        "per_layer": per_layer,
        "table1": checked["table1"],
    }


def print_report(report: Dict[str, object]) -> None:
    provenance = report["provenance"]
    print(f"workload {report['workload']}: {report['why']}")
    print("provenance: " + ", ".join(f"{key}={value}"
                                     for key, value in provenance.items())
          + f" (held-out seed: {report['held_out_seed']})")
    print(f"campaigns: {report['attempted']} attempted, {report['failed']} "
          f"failed (failed_fraction {report['failed_fraction']:.3f}), "
          f"{report['rows']} rows each")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    for name, summary in report["end_to_end"].items():
        tail = summary["tail"]
        tail_text = ("no percentile has 10 samples beyond it" if tail is None
                     else f"p{tail['percentile']:.0f} {tail['value']:.6g}")
        print(f"  {name:<16} median {summary['median']:.6g} "
              f"{END_TO_END_UNITS[name]}  (n={summary['n']}; {tail_text}; "
              f"best {summary['best']:.6g}; result line: "
              f"{RESULT_STATISTIC[name]})")
    for name, value in report["per_layer"].items():
        print(f"  {name:<32} {value:.6g} {PER_LAYER_UNITS[name]}")
    print("model accuracy against the published Table I (not an RTL run):")
    for row in report["table1"]:
        error = (row["mcycles"] - row["paper_mcycles"]) / row["paper_mcycles"]
        print(f"  {row['schedule']}: {row['mcycles']:.1f} Mcycles "
              f"(paper {row['paper_mcycles']:.0f}, error {error:+.1%}); "
              f"TAM peak {row['peak_tam']:.2f} (paper "
              f"{row['paper_peak_tam']:.2f}, error "
              f"{row['peak_tam'] - row['paper_peak_tam']:+.2f}), avg "
              f"{row['avg_tam']:.2f} (paper {row['paper_avg_tam']:.2f}, "
              f"error {row['avg_tam'] - row['paper_avg_tam']:+.2f}); "
              f"CPU {row['cpu_s']:.3f} s (paper {row['paper_cpu_s']:.0f} s)")


def result_line(report: Dict[str, object], trace: bool) -> Dict[str, object]:
    if trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": summary[RESULT_STATISTIC[name]],
                          "unit": END_TO_END_UNITS[name]}
                   for name, summary in report["end_to_end"].items()}
    return {"correct": report["failed"] == 0 and not report["failures"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stop_signal_reaches_children()
    if not (ROOT / "src" / "repro" / "explore" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    (workdir.parent / f"report-{args.workload}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=2, default=str) + "\n")
    print_report(report)
    line = result_line(report, bool(args.trace))
    if line["correct"]:
        shutil.rmtree(workdir)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
