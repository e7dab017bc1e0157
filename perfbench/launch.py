"""Child-process entry points of the benchmark (these import the program).

``python3 perfbench/launch.py traced OUT.json -- <explore CLI argv>``
    Time the cold ``import repro.explore.cli``, wrap the layer entry points
    in :data:`TARGETS` with a :class:`ledger.Ledger`, run
    ``repro.explore.cli.main(argv)`` -- the same code path as
    ``python -m repro.explore`` -- and write the spans and counters to
    OUT.json.  Exits with the CLI's status.

``python3 perfbench/launch.py verify WORKLOAD SEED OUTDIR [STORE ...]``
    Run the workload's grid as one in-process monolithic
    ``Campaign.run(workers=1)``, regenerate a JSON artifact from every given
    columnar store, run ``run_table1()``, and print one JSON document with
    the digests, exact simulated counts, the Table I comparison and the
    library versions.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from ledger import Ledger


def _operation(args) -> str:
    request = args[1] if len(args) > 1 else {}
    op = request.get("op") if isinstance(request, dict) else None
    return "coordinator.lease" if op == "lease" else "coordinator.call"


def _count_activations(ledger, args, result, before) -> None:
    ledger.count("kernel.activations",
                 args[0].dispatched_activations - before)


def _count_cycles(ledger, args, result, before) -> None:
    ledger.count("sim.simulated_cycles", result.test_length_cycles)


def _count_idle_polls(ledger, args, result, before) -> None:
    ledger.count("worker.idle_polls", result.get("idle_polls", 0))


def targets():
    """(owner, attribute, span name, before, after) per traced entry point.

    Functions are wrapped where their callers look them up: the coordinator
    imports the store codecs and writers into its own namespace, the store
    imports ``validate_shard_result`` and the worker imports ``run_shard``.
    A span name of None records no span, only the counter hook.
    """
    from repro.explore import campaign, coordinator, scenarios, store, worker
    from repro.kernel.simulator import Simulator
    from repro.soc.system import SocTlmBase

    session = coordinator.CoordinatorSession
    merge = store.IncrementalShardMerge
    return [
        (scenarios, "generate_core_descriptions", "scenarios.describe",
         None, None),
        (scenarios, "generate_tasks", "scenarios.describe", None, None),
        (scenarios, "generate_schedules", "schedule.build", None, None),
        (scenarios.Scenario, "schedule_for", "schedule.build", None, None),
        (scenarios.Scenario, "estimated_cycles", "schedule.estimate",
         None, None),
        (scenarios.Scenario, "build_soc", "soc.build", None, None),
        (SocTlmBase, "run_test_schedule", "sim.run", None, _count_cycles),
        (Simulator, "run", "kernel.run",
         lambda args: args[0].dispatched_activations, _count_activations),
        (campaign.CampaignOutcome, "as_row", "campaign.row", None, None),
        (campaign.CampaignRun, "write_json", "campaign.write", None, None),
        (coordinator, "encode_shard_block", "store.encode", None, None),
        (coordinator, "decode_shard_block", "store.ingest", None, None),
        (merge, "add_shard_document", "store.ingest", None, None),
        (merge, "add_shard_block", "store.ingest", None, None),
        (store, "validate_shard_result", "distrib.validate", None, None),
        (merge, "finalize", "store.write", None, None),
        (coordinator, "write_document_json", "store.write", None, None),
        (coordinator, "write_document_csv", "store.write", None, None),
        (worker, "run_shard", "worker.execute", None, None),
        (session, "call", _operation, None, None),
        (session, "call_many", "coordinator.call", None, None),
        (session, "complete", "coordinator.complete", None, None),
        (session, "complete_many", "coordinator.complete", None, None),
        (worker.CampaignWorker, "run", None, None, _count_idle_polls),
    ]


def install(ledger: Ledger) -> None:
    for owner, attr, name, before, after in targets():
        ledger.wrap(owner, attr, name, before=before, after=after)


def traced(out: str, argv) -> int:
    ledger = Ledger()
    index = ledger.enter("startup.import")
    import repro.explore.cli as cli
    ledger.exit(index)
    install(ledger)
    try:
        status = cli.main(argv)
    finally:
        from repro.explore.campaign import scenario_cache_stats
        cache = scenario_cache_stats()
        ledger.count("scenarios.cache_hits", cache["hits"])
        ledger.count("scenarios.cache_misses", cache["misses"])
        ledger.uninstall()
        ledger.dump(out)
    return status


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def verify(workload_name: str, seed: int, outdir: str, stores) -> int:
    import numpy

    from repro.explore.campaign import campaign_from_axes
    from repro.explore.experiments import PAPER_TABLE1, run_table1
    from repro.explore.scenarios import ScenarioSpec
    from repro.explore.store import ColumnarStore, write_document_json
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    base = ScenarioSpec(name="base", patterns_per_core=workload.patterns,
                        memory_words=workload.memory_words, seed=seed,
                        schedules=workload.schedules + workload.strategies)
    campaign = campaign_from_axes(
        {axis: list(values) for axis, values in workload.axes.items()},
        base=base)
    run = campaign.run(workers=1)
    monolithic = Path(outdir) / "monolithic.json"
    run.write_json(monolithic, deterministic=True)
    regenerated = []
    for index, store in enumerate(stores):
        path = Path(outdir) / f"regenerated-{index}.json"
        write_document_json(ColumnarStore.open(store), path)
        regenerated.append(_digest(path))
    table1 = []
    for name in sorted(PAPER_TABLE1):
        cpu_start = time.process_time()
        [result] = run_table1([name])
        cpu_seconds = time.process_time() - cpu_start
        metrics, paper = result.metrics, PAPER_TABLE1[name]
        table1.append({
            "schedule": name,
            "mcycles": metrics.test_length_mcycles,
            "paper_mcycles": paper["test_length_mcycles"],
            "peak_tam": metrics.peak_tam_utilization,
            "paper_peak_tam": paper["peak_tam_utilization"],
            "avg_tam": metrics.avg_tam_utilization,
            "paper_avg_tam": paper["avg_tam_utilization"],
            "cpu_s": cpu_seconds,
            "paper_cpu_s": paper["cpu_seconds"],
        })
    json.dump({
        "monolithic": _digest(monolithic),
        "rows": len(run.outcomes),
        "kernel.activations": sum(outcome.simulated_activations
                                  for outcome in run.outcomes),
        "sim.simulated_cycles": sum(outcome.test_length_cycles
                                    for outcome in run.outcomes),
        "stores": regenerated,
        "table1": table1,
        "numpy": numpy.__version__,
    }, sys.stdout)
    print()
    return 0


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "traced" and argv[2] == "--":
        return traced(argv[1], argv[3:])
    if len(argv) >= 4 and argv[0] == "verify":
        return verify(argv[1], int(argv[2]), argv[3], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
