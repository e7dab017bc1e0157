"""Tests of the columnar result store: typed round trips, streaming shard
merge and the bitwise-identity contract of the streaming artifact writers.

The load-bearing property throughout: everything a store regenerates
(``write_document_json`` / ``write_document_csv``) must be *byte for byte*
identical to what the campaign artifact writers produce for the same rows —
that is what lets merged artifacts interoperate with every existing
consumer.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore.campaign import (
    SCHEMA_VERSION,
    campaign_from_axes,
    result_columns,
    write_csv_artifact,
    write_json_artifact,
)
from repro.explore.distrib import (
    MergeError,
    ShardRun,
    plan_merge,
    plan_shards,
    run_shard,
)
from repro.explore.report import format_store_summary, summarize_store
from repro.explore.scenarios import ScenarioSpec
from tests.explore.conftest import merge_shard_files
from repro.explore.store import (
    DEFAULT_CHUNK_ROWS,
    STORE_SCHEMA_VERSION,
    ColumnarStore,
    StoreError,
    merge_artifacts_to_store,
    store_campaign_run,
    store_shard_run,
    write_document_csv,
    write_document_json,
)

from repro.explore.campaign import (
    Campaign,
    CampaignJob,
    CampaignOutcome,
    CampaignRun,
)


def small_campaign(**axes) -> Campaign:
    axes = axes or {"core_count": [1, 2], "tam_width_bits": [16, 32]}
    return campaign_from_axes(
        axes, base=ScenarioSpec(name="base", patterns_per_core=16, seed=3))


def fake_jobs(job_count: int):
    return [
        CampaignJob(spec=ScenarioSpec(name=f"s{index:02d}", core_count=1,
                                      patterns_per_core=8, seed=index + 1),
                    schedule="sequential")
        for index in range(job_count)
    ]


def fake_outcome(job: CampaignJob, value: int) -> CampaignOutcome:
    return CampaignOutcome(
        spec=job.spec, schedule=job.schedule, phase_count=1, task_count=1,
        estimated_cycles=value, test_length_cycles=value * 10,
        peak_tam_utilization=0.5, avg_tam_utilization=0.25,
        peak_power=2.0, avg_power=1.0, simulated_activations=value * 3)


def fake_shard_documents(job_count: int, shard_count: int):
    """Shard artifacts over constructed (never simulated) outcomes,
    JSON-round-tripped like files — mirrors test_distrib's helper."""
    documents = []
    for shard in plan_shards(fake_jobs(job_count), shard_count):
        outcomes = [fake_outcome(job, shard.start + offset)
                    for offset, job in enumerate(shard.jobs)]
        documents.append(json.loads(json.dumps(
            ShardRun(shard=shard, run=CampaignRun(outcomes=outcomes))
            .as_document())))
    return documents


def write_monolithic(job_count: int, directory) -> None:
    """``mono.json``/``mono.csv``: the single-host artifacts of the same
    fake outcomes :func:`fake_shard_documents` shards."""
    run = CampaignRun(outcomes=[fake_outcome(job, index) for index, job
                                in enumerate(fake_jobs(job_count))])
    run.write_json(directory / "mono.json", deterministic=True)
    run.write_csv(directory / "mono.csv", deterministic=True)


#: A small typed schema exercising every declared column kind: str
#: (scenario/schedule), int (seed), float (compression_ratio), bool
#: (survivor).
TYPED_COLUMNS = ("scenario", "seed", "compression_ratio", "survivor",
                 "schedule")


def typed_row(index: int) -> dict:
    return {
        "scenario": f"s{index:03d}",
        "seed": index * 7 - 3,
        "compression_ratio": index * 1.5,
        "survivor": index % 2 == 0,
        "schedule": ("greedy", "sequential")[index % 2],
    }


class TestColumnarStore:
    def test_round_trip_preserves_values_and_types(self, tmp_path):
        rows = [typed_row(i) for i in range(10)]
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=4) as store:
            store.append_rows(rows)

        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == rows
        assert reopened.row_count == 10
        assert reopened.chunk_count == 3  # 4 + 4 + 2
        assert reopened.columns == list(TYPED_COLUMNS)
        assert reopened.schema_version == SCHEMA_VERSION
        # Native Python scalars out, not numpy scalars.
        row = reopened.rows()[3]
        assert type(row["seed"]) is int
        assert type(row["compression_ratio"]) is float
        assert type(row["survivor"]) is bool
        assert type(row["scenario"]) is str

    def test_column_is_typed_numpy_view(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=3) as store:
            store.append_rows(typed_row(i) for i in range(8))
        reopened = ColumnarStore.open(tmp_path / "s")
        seeds = reopened.column("seed")
        assert seeds.dtype == np.int64
        assert seeds.tolist() == [i * 7 - 3 for i in range(8)]
        assert reopened.column("compression_ratio").dtype == np.float64
        assert reopened.column("survivor").dtype == np.bool_
        with pytest.raises(StoreError, match="no column"):
            reopened.column("nope")

    def test_empty_store_round_trips(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            pass
        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == []
        assert reopened.row_count == 0
        assert reopened.chunk_count == 0
        assert reopened.column("seed").dtype == np.int64

    def test_append_columns_matches_append_rows(self, tmp_path):
        rows = [typed_row(i) for i in range(11)]
        with ColumnarStore.create(tmp_path / "a", TYPED_COLUMNS,
                                  chunk_rows=4) as by_row:
            by_row.append_rows(rows)
        with ColumnarStore.create(tmp_path / "b", TYPED_COLUMNS,
                                  chunk_rows=4) as by_block:
            by_block.append_columns(
                {c: [row[c] for row in rows] for c in TYPED_COLUMNS})
        assert (ColumnarStore.open(tmp_path / "a").rows()
                == ColumnarStore.open(tmp_path / "b").rows())

    def test_append_row_missing_column_is_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="missing column 'survivor'"):
            store.append_row({c: typed_row(0)[c] for c in TYPED_COLUMNS
                              if c != "survivor"})

    def test_append_columns_validates_block(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="missing column"):
            store.append_columns({"scenario": ["a"]})
        block = {c: [typed_row(0)[c]] for c in TYPED_COLUMNS}
        block["seed"] = [1, 2]
        with pytest.raises(StoreError, match="lengths disagree"):
            store.append_columns(block)

    def test_mixed_value_unknown_column_is_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", ("blob",))
        store.append_row({"blob": {"not": "a scalar"}})
        with pytest.raises(StoreError, match="mixed/unsupported"):
            store.flush()

    def test_create_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "not-a-store"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("data")
        with pytest.raises(StoreError, match="refusing to overwrite"):
            ColumnarStore.create(foreign, TYPED_COLUMNS)
        assert (foreign / "precious.txt").read_text() == "data"

    def test_create_replaces_existing_store(self, tmp_path):
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=1) as store:
            store.append_rows(typed_row(i) for i in range(5))
        assert ColumnarStore.open(tmp_path / "s").chunk_count == 5
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            store.append_row(typed_row(0))
        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == [typed_row(0)]
        # No stale chunk files behind the fresh manifest.
        assert len(list(reopened.path.glob("chunk-*.npz"))) == 1

    def test_open_rejects_non_store_and_future_layout(self, tmp_path):
        with pytest.raises(StoreError, match="not a columnar store"):
            ColumnarStore.open(tmp_path)
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS) as store:
            pass
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["store_schema_version"] = STORE_SCHEMA_VERSION + 1
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="store_schema_version"):
            ColumnarStore.open(tmp_path / "s")

    def test_mode_violations_are_rejected(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS)
        with pytest.raises(StoreError, match="still open for writing"):
            store.column("seed")
        store.close()
        with pytest.raises(StoreError, match="not open for writing"):
            store.append_row(typed_row(0))

    def test_row_count_includes_buffered_rows(self, tmp_path):
        store = ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                     chunk_rows=100)
        store.append_rows(typed_row(i) for i in range(7))
        assert store.row_count == 7
        assert store.chunk_count == 0
        store.close()
        assert store.chunk_count == 1


# -- hypothesis: arbitrary rows round-trip through disk -----------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
# numpy U-dtype arrays silently drop trailing NUL characters, so the store's
# text support excludes \x00 (JSON artifacts never contain it anyway).
safe_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\x00"),
    max_size=20)
int64s = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)

typed_rows = st.lists(
    st.fixed_dictionaries({
        "scenario": safe_text,
        "seed": int64s,
        "compression_ratio": finite_floats,
        "survivor": st.booleans(),
        "schedule": safe_text,
    }),
    max_size=120)


class TestStoreProperties:
    # ColumnarStore.create atomically replaces an existing store, so reusing
    # one tmp_path across hypothesis examples is safe.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=typed_rows, chunk_rows=st.integers(min_value=1, max_value=50))
    def test_append_flush_reopen_preserves_rows(self, tmp_path, rows,
                                                chunk_rows):
        """append → close → open streams back exactly the appended rows,
        for arbitrary row counts and chunk sizes (including chunk_rows=1
        and rows spanning many partial chunks)."""
        with ColumnarStore.create(tmp_path / "s", TYPED_COLUMNS,
                                  chunk_rows=chunk_rows) as store:
            store.append_rows(rows)
            assert store.row_count == len(rows)

        reopened = ColumnarStore.open(tmp_path / "s")
        assert reopened.rows() == rows
        assert reopened.row_count == len(rows)
        assert sum(len(chunk) for chunk in reopened.iter_row_chunks()) \
            == len(rows)
        expected_chunks = -(-len(rows) // chunk_rows) if rows else 0
        assert reopened.chunk_count == expected_chunks


# -- persisted result objects: bitwise identity -------------------------------

class TestResultObjectStores:
    def test_campaign_store_regenerates_bitwise_artifacts(self, tmp_path):
        run = small_campaign().run(workers=1)
        run.write_json(tmp_path / "direct.json", deterministic=True)
        run.write_csv(tmp_path / "direct.csv", deterministic=True)

        store = store_campaign_run(run, tmp_path / "run.store", chunk_rows=3)
        write_document_json(store, tmp_path / "store.json")
        write_document_csv(store, tmp_path / "store.csv")

        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert (tmp_path / "store.csv").read_bytes() \
            == (tmp_path / "direct.csv").read_bytes()
        assert store.metadata["kind"] == "campaign"

    def test_nondeterministic_campaign_store_keeps_run_metadata(
            self, tmp_path):
        run = small_campaign().run(workers=1)
        run.write_json(tmp_path / "direct.json", deterministic=False)
        store = store_campaign_run(run, tmp_path / "run.store",
                                   deterministic=False)
        write_document_json(store, tmp_path / "store.json")
        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert store.columns == result_columns(deterministic=False)

    def test_shard_store_regenerates_bitwise_artifact(self, tmp_path):
        campaign = small_campaign()
        shard = plan_shards(campaign.jobs(), 2)[0]
        result = run_shard(shard, workers=1)
        result.write_json(tmp_path / "direct.json")

        store = store_shard_run(result, tmp_path / "shard.store")
        write_document_json(store, tmp_path / "store.json")
        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "direct.json").read_bytes()
        assert store.metadata["shard"]["index"] == 0


# -- streaming merge ----------------------------------------------------------

class TestStreamingMerge:
    def write_shards(self, tmp_path, job_count=9, shard_count=3):
        documents = fake_shard_documents(job_count, shard_count)
        paths = []
        for document in documents:
            path = tmp_path / f"shard{document['shard']['index']}.json"
            write_json_artifact(document, path)
            paths.append(path)
        return documents, paths

    @staticmethod
    def write_dict_merge(documents, partial, directory):
        """The reference: the merged document assembled in memory from the
        shard dicts (plan header + concatenated rows in shard order),
        through the one JSON and CSV artifact writers."""
        plan = plan_merge(documents, partial=partial)
        rows = [row for position in plan.order
                for row in documents[position]["rows"]]
        merged = plan.header()
        merged.update(row_count=len(rows), rows=rows)
        write_json_artifact(merged, directory / "dict.json")
        write_csv_artifact(plan.columns, rows, directory / "dict.csv")

    def test_merge_artifacts_matches_dict_merge_bitwise(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        self.write_dict_merge(documents, False, tmp_path)

        store, headers = merge_artifacts_to_store(
            paths, tmp_path / "merged.store", chunk_rows=4)
        write_document_json(store, tmp_path / "store.json")
        write_document_csv(store, tmp_path / "store.csv")

        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "dict.json").read_bytes()
        assert (tmp_path / "store.csv").read_bytes() \
            == (tmp_path / "dict.csv").read_bytes()
        # Headers are the artifacts minus their rows, for the merge report.
        assert [h["shard"]["index"] for h in headers] == [0, 1, 2]
        assert all("rows" not in h for h in headers)
        assert store.metadata["kind"] == "merged-campaign"
        assert store.metadata["shard_count"] == 3

    def test_merge_accepts_unordered_paths(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        store, _ = merge_artifacts_to_store(
            list(reversed(paths)), tmp_path / "merged.store")
        assert ColumnarStore.open(store.path).rows() == \
            [row for document in documents for row in document["rows"]]

    def test_partial_merge_matches_dict_merge_bitwise(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        self.write_dict_merge(documents[:2], True, tmp_path)

        store, _ = merge_artifacts_to_store(
            paths[:2], tmp_path / "merged.store", partial=True)
        write_document_json(store, tmp_path / "store.json")
        assert (tmp_path / "store.json").read_bytes() \
            == (tmp_path / "dict.json").read_bytes()
        assert store.metadata["missing"] == [2]

    @pytest.mark.parametrize("defect", ["missing-column", "foreign-kind",
                                        "non-object-row"])
    def test_malformed_rows_rejected_as_merge_error(self, tmp_path, defect):
        documents, paths = self.write_shards(tmp_path)
        row = documents[1]["rows"][0]
        if defect == "missing-column":
            del row["peak_power"]
        elif defect == "foreign-kind":
            row["test_length_cycles"] = "x"
        else:
            documents[1]["rows"][0] = [1, 2]
        write_json_artifact(documents[1], paths[1])
        with pytest.raises(MergeError, match=str(paths[1])):
            merge_artifacts_to_store(paths, tmp_path / "merged.store")

    def test_merge_rejects_bad_shard_sets_before_writing(self, tmp_path):
        documents, paths = self.write_shards(tmp_path)
        with pytest.raises(MergeError, match="overlapping shards"):
            merge_artifacts_to_store([paths[0], paths[0], paths[1]],
                                     tmp_path / "merged.store")
        with pytest.raises(MergeError, match="missing"):
            merge_artifacts_to_store(paths[:2], tmp_path / "m2.store")
        # Validation failed before any store directory was created.
        assert not (tmp_path / "merged.store").exists()
        assert not (tmp_path / "m2.store").exists()


@pytest.mark.slow
def test_large_streaming_merge_is_bitwise_identical(tmp_path):
    """The at-scale differential: tens of thousands of fake rows through the
    streaming merge regenerate the monolithic JSON byte for byte."""
    write_monolithic(20_000, tmp_path)
    store = merge_shard_files(fake_shard_documents(20_000, 7), tmp_path)
    write_document_json(store, tmp_path / "store.json")
    assert (tmp_path / "store.json").read_bytes() \
        == (tmp_path / "mono.json").read_bytes()


# -- store analytics ----------------------------------------------------------

class TestStoreSummary:
    def store(self, tmp_path):
        run = small_campaign().run(workers=1)
        return store_campaign_run(run, tmp_path / "run.store"), run

    def test_summary_matches_python_group_by(self, tmp_path):
        store, run = self.store(tmp_path)
        summary = summarize_store(store, group_by="schedule",
                                  metrics=("test_length_cycles",))
        groups = {}
        for outcome in run.outcomes:
            groups.setdefault(outcome.schedule, []).append(
                outcome.test_length_cycles)
        assert [entry["schedule"] for entry in summary] == sorted(groups)
        for entry in summary:
            values = groups[entry["schedule"]]
            assert entry["rows"] == len(values)
            assert entry["mean_test_length_cycles"] == pytest.approx(
                sum(values) / len(values))
            assert entry["min_test_length_cycles"] == min(values)
            assert entry["max_test_length_cycles"] == max(values)

    def test_format_store_summary_renders_table(self, tmp_path):
        store, run = self.store(tmp_path)
        text = format_store_summary(store)
        assert "schedule" in text
        assert f"{store.row_count} rows in {store.chunk_count} chunk(s)" \
            in text
        assert f"schema v{SCHEMA_VERSION}" in text
