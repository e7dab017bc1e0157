"""Plain-text reporting of experiment results.

Formatting only — nothing here touches the persisted artifact schemas.  The
CSV/JSON artifacts follow :data:`repro.explore.campaign.RESULT_COLUMNS`
(versioned by ``schema_version``) plus, for adaptive runs, the provenance
columns of :mod:`repro.explore.adaptive` (``adaptive_schema_version``); the
tables rendered here are condensed, human-oriented views of those rows and
may change freely without a version bump.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str],
                 headers: Mapping[str, str] = None,
                 float_format: str = "{:.2f}") -> str:
    """Format *rows* as a fixed-width text table with the given *columns*."""
    headers = dict(headers or {})
    titles = [headers.get(column, column) for column in columns]

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(titles[i]), *(len(r[i]) for r in rendered)) if rendered else len(titles[i])
        for i in range(len(columns))
    ]
    lines = []
    lines.append("  ".join(title.ljust(widths[i]) for i, title in enumerate(titles)))
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_table1(results) -> str:
    """Format the Table I reproduction: measured values next to paper values."""
    rows: List[Dict[str, object]] = []
    for result in results:
        metrics = result.metrics
        paper = result.paper_row() or {}
        rows.append({
            "scenario": metrics.schedule_name,
            "peak_util": f"{metrics.peak_tam_utilization:.0%}",
            "paper_peak": _percent(paper.get("peak_tam_utilization")),
            "avg_util": f"{metrics.avg_tam_utilization:.0%}",
            "paper_avg": _percent(paper.get("avg_tam_utilization")),
            "length_mcycles": f"{metrics.test_length_mcycles:.0f}",
            "paper_length": _number(paper.get("test_length_mcycles")),
            "cpu_s": f"{metrics.cpu_seconds:.1f}",
            "paper_cpu_s": _number(paper.get("cpu_seconds")),
        })
    columns = ["scenario", "peak_util", "paper_peak", "avg_util", "paper_avg",
               "length_mcycles", "paper_length", "cpu_s", "paper_cpu_s"]
    headers = {
        "scenario": "Test scenario",
        "peak_util": "Peak TAM",
        "paper_peak": "(paper)",
        "avg_util": "Avg TAM",
        "paper_avg": "(paper)",
        "length_mcycles": "Length [Mcycles]",
        "paper_length": "(paper)",
        "cpu_s": "CPU [s]",
        "paper_cpu_s": "(paper)",
    }
    return format_table(rows, columns, headers)


#: Columns of the campaign summary table (a condensed view of the full rows).
CAMPAIGN_COLUMNS = ["scenario", "schedule", "cores", "tam", "length_kcycles",
                    "peak_tam", "avg_tam", "peak_power", "cpu_ms"]


def format_campaign(run) -> str:
    """Summarize a :class:`~repro.explore.campaign.CampaignRun` as a table."""
    rows = []
    for outcome in run.outcomes:
        spec = outcome.spec
        rows.append({
            "scenario": spec.name,
            "schedule": outcome.schedule,
            "cores": spec.core_count if spec.kind == "generated" else "jpeg",
            "tam": spec.tam_width_bits,
            "length_kcycles": f"{outcome.test_length_cycles / 1e3:.1f}",
            "peak_tam": f"{outcome.peak_tam_utilization:.0%}",
            "avg_tam": f"{outcome.avg_tam_utilization:.0%}",
            "peak_power": f"{outcome.peak_power:.2f}",
            "cpu_ms": f"{outcome.cpu_seconds * 1e3:.1f}",
        })
    table = format_table(rows, CAMPAIGN_COLUMNS)
    footer = (f"{run.scenario_count} scenarios, {len(run.outcomes)} result rows "
              f"in {run.wall_seconds:.2f} s "
              f"({run.rows_per_second:.1f} rows/s, "
              f"{run.workers} worker{'s' if run.workers != 1 else ''})")
    return f"{table}\n\n{footer}"


def format_adaptive(result) -> str:
    """Summarize an :class:`~repro.explore.adaptive.AdaptiveResult`.

    One line per round (budget, jobs, survivors) followed by the final Pareto
    front rendered as a table over the search objectives.  Replayed rounds of
    a resumed run and round-boundary checkpoints (partial runs) are called
    out explicitly.
    """
    round_rows = []
    for round_ in result.rounds:
        replayed = round_.index < result.resumed_rounds
        row = {
            "round": round_.index,
            "budget": f"{round_.budget:g}",
            "jobs": round_.job_count,
            "simulated": round_.simulated_jobs,
            "survivors": len(round_.survivors),
            "wall_s": "resumed" if replayed else f"{round_.run.wall_seconds:.2f}",
        }
        if result.race:
            row["stopped"] = len(round_.race_stopped)
        round_rows.append(row)
    round_columns = ["round", "budget", "jobs", "simulated", "survivors"]
    if result.race:
        round_columns.append("stopped")
    round_columns.append("wall_s")
    rounds_table = format_table(round_rows, round_columns)

    front_rows = []
    for outcome in result.front:
        row = {"scenario": outcome.spec.name, "schedule": outcome.schedule}
        full = outcome.as_row()
        for objective in result.objectives:
            row[str(objective)] = full[objective.column]
        front_rows.append(row)
    front_columns = ["scenario", "schedule"] + [str(o) for o in result.objectives]
    front_table = format_table(front_rows, front_columns)

    footer = (f"{result.total_jobs} jobs total, "
              f"{result.full_fidelity_jobs} at full fidelity "
              f"(exhaustive grid: {result.exhaustive_jobs}), "
              f"front size {len(result.front)}, "
              f"{result.wall_seconds:.2f} s with {result.workers} "
              f"worker{'s' if result.workers != 1 else ''}")
    if result.surrogate is not None:
        footer += (f"; surrogate: {result.surrogate.kept} of "
                   f"{result.surrogate.screened} candidate(s) past the "
                   f"estimator screen (keep={result.surrogate.keep:g})")
    if result.race:
        footer += (f"; racing stopped {result.race_stopped_jobs} "
                   f"dominated job(s) early")
    if result.resumed_rounds:
        footer += (f"; resumed: {result.resumed_rounds} round(s) replayed "
                   f"from the checkpoint artifact")
    if not result.complete:
        footer += (f"; CHECKPOINT: {len(result.rounds)} of "
                   f"{result.planned_rounds} rounds done, front pending — "
                   f"finish with --resume-from")
    return (f"rounds:\n{rounds_table}\n\n"
            f"Pareto front:\n{front_table}\n\n{footer}")


def format_strategies() -> str:
    """List the registered scheduler strategies, parameters and defaults."""
    from repro.schedule.strategies import get_strategy, strategy_names

    rows = []
    for name in strategy_names():
        strategy = get_strategy(name)
        parameters = ", ".join(f"{p}={default} ({kind})"
                               for p, kind, default in strategy.parameter_docs())
        rows.append({
            "strategy": name,
            "parameters": parameters or "-",
            "description": strategy.summary,
        })
    table = format_table(rows, ["strategy", "parameters", "description"])
    footer = ("select with --strategy NAME[:key=val,...] on the campaign "
              "and adaptive subcommands")
    return f"{table}\n\n{footer}"


def format_shard(result) -> str:
    """Summarize a :class:`~repro.explore.distrib.ShardRun`: the shard's
    provenance line followed by the standard campaign table of its rows."""
    shard = result.shard
    header = (f"shard {shard.index}/{shard.count}: "
              f"jobs [{shard.start}, {shard.stop}) of {shard.total_jobs}, "
              f"space fingerprint {shard.fingerprint[:12]}")
    return f"{header}\n{format_campaign(result.run)}"


def format_merged(shard_documents: Sequence[Mapping[str, object]],
                  merged: Mapping[str, object]) -> str:
    """Summarize a shard merge: one line per input shard, then the totals."""
    rows = []
    for document in sorted(shard_documents,
                           key=lambda d: d["shard"]["index"]):
        shard = document["shard"]
        rows.append({
            "shard": f"{shard['index']}/{shard['count']}",
            "jobs": f"[{shard['start']}, {shard['stop']})",
            "rows": document["row_count"],
        })
    table = format_table(rows, ["shard", "jobs", "rows"])
    fingerprint = shard_documents[0]["shard"]["fingerprint"]
    footer = (f"merged {len(shard_documents)} shard artifact(s) into "
              f"{merged['row_count']} rows "
              f"(schema v{merged['schema_version']}, "
              f"space fingerprint {fingerprint[:12]})")
    partial = merged.get("partial")
    if partial:
        gaps = ", ".join(f"{span['index']}/{partial['count']} "
                         f"[{span['start']}, {span['stop']})"
                         for span in partial["missing"])
        footer += (f"; PARTIAL: covering {merged['row_count']} of "
                   f"{partial['total_jobs']} jobs — missing shard(s) {gaps}")
    return f"{table}\n\n{footer}"


#: Metrics aggregated per schedule by the store summary (column, aggregate
#: label pairs rendered as ``mean_<column>`` etc.).
STORE_SUMMARY_METRICS = ("test_length_cycles", "peak_tam_utilization",
                         "peak_power")


def summarize_store(store, group_by: str = "schedule",
                    metrics: Sequence[str] = STORE_SUMMARY_METRICS,
                    ) -> List[Dict[str, object]]:
    """Vectorized per-group aggregates over a columnar store.

    One ``np.unique`` pass buckets the rows by *group_by* and
    ``np.bincount``/``np.minimum.at`` reduce each metric column — no Python
    loop over rows, which is what makes summarizing a millions-of-rows
    store tractable.  Returns one dict per group (sorted by key) with
    ``rows`` and ``mean_/min_/max_`` entries per metric.
    """
    import numpy as np

    groups = np.asarray(store.column(group_by))
    uniques, inverse = np.unique(groups, return_inverse=True)
    if len(uniques) == 0:
        return []
    counts = np.bincount(inverse, minlength=len(uniques))
    summary: List[Dict[str, object]] = [
        {group_by: str(value), "rows": int(count)}
        for value, count in zip(uniques.tolist(), counts.tolist())
    ]
    for metric in metrics:
        values = store.column(metric).astype(np.float64)
        means = np.bincount(inverse, weights=values,
                            minlength=len(uniques)) / counts
        lows = np.full(len(uniques), np.inf)
        highs = np.full(len(uniques), -np.inf)
        np.minimum.at(lows, inverse, values)
        np.maximum.at(highs, inverse, values)
        for row, mean, low, high in zip(summary, means.tolist(),
                                        lows.tolist(), highs.tolist()):
            row[f"mean_{metric}"] = mean
            row[f"min_{metric}"] = low
            row[f"max_{metric}"] = high
    return summary


def format_store_summary(store, group_by: str = "schedule") -> str:
    """Render a columnar store as a per-schedule aggregate table."""
    summary = summarize_store(store, group_by=group_by)
    rows = [{
        group_by: entry[group_by],
        "rows": entry["rows"],
        "mean_kcycles": entry["mean_test_length_cycles"] / 1e3,
        "min_kcycles": entry["min_test_length_cycles"] / 1e3,
        "mean_peak_tam": f"{entry['mean_peak_tam_utilization']:.0%}",
        "mean_peak_power": entry["mean_peak_power"],
        "max_peak_power": entry["max_peak_power"],
    } for entry in summary]
    table = format_table(rows, [group_by, "rows", "mean_kcycles",
                                "min_kcycles", "mean_peak_tam",
                                "mean_peak_power", "max_peak_power"])
    footer = (f"{store.row_count} rows in {store.chunk_count} chunk(s), "
              f"schema v{store.schema_version}, grouped by {group_by}")
    return f"{table}\n\n{footer}"


def format_coordinator_status(status: Mapping[str, object]) -> str:
    """Render a coordinator status document as a live-operations view.

    One row per submitted campaign (progress, queue position, steals)
    followed by the fleet counters (queue depth, lease ages, throughput).
    The input is the versioned document from
    :meth:`~repro.explore.coordinator.Coordinator.status`; because those
    counters are read from the coordinator's metrics registry, this table
    shows the same numbers a ``/metrics`` scrape exposes.
    """
    campaigns = status.get("campaigns", [])
    rows = []
    for entry in campaigns:
        done = entry["completed"]
        spans = entry["spans"]
        rows.append({
            "campaign": entry["campaign"],
            "label": entry["label"],
            "jobs": entry["total_jobs"],
            "spans": f"{done}/{spans}",
            "pending": entry["pending"],
            "leased": entry["leased"],
            "rows": entry["row_count"],
            "steals": entry["steals"],
            "state": "done" if entry["complete"] else "running",
        })
    table = format_table(rows, ["campaign", "label", "jobs", "spans",
                                "pending", "leased", "rows", "steals",
                                "state"]) if rows else "no campaigns submitted"
    workers = status.get("workers", {})
    footer = (f"queue depth {status['queue_depth']}, "
              f"{status['active_leases']} active lease(s) "
              f"(oldest {status['max_lease_age_seconds']:.1f} s), "
              f"{status['steals']} steal(s), "
              f"{status['stale_completions']} stale completion(s); "
              f"{status['completed_spans']} span(s) / "
              f"{status['completed_rows']} row(s) done "
              f"({status['spans_per_second']:.2f} spans/s, "
              f"{status['rows_per_second']:.1f} rows/s) "
              f"over {status['uptime_seconds']:.1f} s; "
              f"{len(workers)} worker(s) seen")
    # v2 registry-backed counters; absent when rendering a v1 document.
    if "leases_granted" in status:
        footer += (f"; {status['leases_granted']} lease(s) granted, "
                   f"{status['heartbeats']} heartbeat(s)")
    if status.get("invalid_documents"):
        footer += f", {status['invalid_documents']} invalid document(s)"
    if status.get("draining"):
        footer += "; DRAINING"
    return f"{table}\n\n{footer}"


def format_worker_stats(worker_id: str, stats: Mapping[str, int]) -> str:
    """One summary line for a finished :class:`~repro.explore.worker.
    CampaignWorker` run."""
    line = (f"worker {worker_id}: {stats['completed']} span(s) completed, "
            f"{stats['stale']} stale, {stats['leases']} lease(s), "
            f"{stats['idle_polls']} idle poll(s)")
    if stats.get("reconnects"):
        line += f", {stats['reconnects']} reconnect(s)"
    return line


def _percent(value) -> str:
    return f"{value:.0%}" if isinstance(value, (int, float)) else ""


def _number(value) -> str:
    return f"{value:.0f}" if isinstance(value, (int, float)) else ""
