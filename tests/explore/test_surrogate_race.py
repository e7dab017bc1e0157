"""Tests of the surrogate screening tier and in-round simulation racing.

The contract under test: with ``--surrogate`` the estimator pre-screens
the candidate grid (keeping its Pareto front plus a ``--surrogate-keep``
margin) before any simulation runs; with ``--race`` later jobs in a round
stop at the horizon where the incumbent front provably dominates them.
Both leave provenance (surrogate scores, race stops) in the artifact,
both survive ``--resume-from`` round-trips bitwise, and neither changes
the artifact of a default search by a single byte.
"""

import json

import pytest

from repro.explore.adaptive import (
    DEFAULT_OBJECTIVES,
    AdaptiveSearch,
    adaptive_search_from_axes,
    parse_objective,
    race_jobs,
    resume_search,
    surrogate_screen_candidates,
    validate_race_objectives,
    validate_surrogate_objectives,
)
from repro.explore.campaign import clear_scenario_cache
from repro.explore.cli import main
from repro.explore.scenarios import ScenarioGrid, ScenarioSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


def small_search(**kwargs) -> AdaptiveSearch:
    return adaptive_search_from_axes(
        {"core_count": [1, 2], "tam_width_bits": [8, 32]},
        base=ScenarioSpec(name="base", patterns_per_core=16, seed=7),
        **kwargs,
    )


# -- surrogate screening ------------------------------------------------------
class TestSurrogateScreen:
    def test_screen_keeps_the_estimator_front(self):
        search = small_search()
        screen, kept = surrogate_screen_candidates(
            search.specs, search.candidates(), DEFAULT_OBJECTIVES, 0.0)
        assert screen.screened == len(search.candidates())
        assert screen.kept == len(kept) > 0
        # With keep=0 only estimator-rank-0 candidates survive; every kept
        # entry must be non-dominated among the scores.
        scores = screen.scores()
        kept_keys = {(spec.name, schedule) for spec, schedule in kept}
        for key in kept_keys:
            cycles, peak = scores[key]
            assert not any(
                other[0] < cycles and other[1] < peak
                for other_key, other in scores.items()
                if other_key != key)

    def test_keep_fraction_widens_the_margin(self):
        search = small_search()
        candidates = search.candidates()
        sizes = []
        for keep in (0.0, 0.5, 1.0):
            _, kept = surrogate_screen_candidates(
                search.specs, candidates, DEFAULT_OBJECTIVES, keep)
            sizes.append(len(kept))
        assert sizes[0] <= sizes[1] <= sizes[2]
        assert sizes[2] == len(candidates)  # keep=1.0 screens nothing out

    def test_screen_is_deterministic(self):
        search = small_search()
        first = surrogate_screen_candidates(
            search.specs, search.candidates(), DEFAULT_OBJECTIVES, 0.25)
        second = surrogate_screen_candidates(
            search.specs, search.candidates(), DEFAULT_OBJECTIVES, 0.25)
        assert first[1] == second[1]
        assert [e.key for e in first[0].entries] == \
            [e.key for e in second[0].entries]

    def test_surrogate_objectives_must_be_estimable(self):
        validate_surrogate_objectives(DEFAULT_OBJECTIVES)
        with pytest.raises(ValueError, match="surrogate"):
            validate_surrogate_objectives(
                (parse_objective("peak_tam_utilization:min"),))
        with pytest.raises(ValueError, match="surrogate"):
            validate_surrogate_objectives(
                (parse_objective("test_length_cycles:max"),))

    def test_race_objectives_validated(self):
        validate_race_objectives(DEFAULT_OBJECTIVES)
        with pytest.raises(ValueError, match="rac"):
            validate_race_objectives((parse_objective("peak_power:min"),))


# -- provenance in artifacts --------------------------------------------------
class TestProvenance:
    def test_surrogate_columns_and_block_present(self):
        result = small_search(surrogate=True, surrogate_keep=0.5).run()
        document = result.as_document()
        assert "surrogate_cycles" in document["columns"]
        assert "surrogate_peak_power" in document["columns"]
        assert document["surrogate"]["keep"] == 0.5
        assert document["surrogate"]["screened"] >= \
            document["surrogate"]["kept"] > 0
        for row in document["rows"]:
            assert row["surrogate_cycles"] > 0
            assert row["surrogate_peak_power"] > 0

    def test_race_column_and_block_present(self):
        result = small_search(race=True).run()
        document = result.as_document()
        assert "race_stopped" in document["columns"]
        assert document["race"]["stopped_jobs"] == sum(
            1 for row in document["rows"] if row["race_stopped"])
        assert all("race_stopped" in stats
                   for stats in document["round_stats"])

    def test_default_artifact_has_no_feature_traces(self):
        document = small_search().run().as_document()
        assert "surrogate" not in document
        assert "race" not in document
        assert "surrogate_cycles" not in document["columns"]
        assert "race_stopped" not in document["columns"]
        assert all("race_stopped" not in stats
                   for stats in document["round_stats"])

    def test_stopped_jobs_never_reach_the_front(self):
        result = small_search(surrogate=True, race=True).run()
        stopped = {tuple(key) for round_ in result.rounds
                   for key in round_.race_stopped}
        front = {(o.spec.name, o.schedule) for o in result.front}
        assert not stopped & front

    def test_race_front_matches_unraced_front(self):
        plain = small_search().run()
        raced = small_search(race=True).run()
        assert sorted((o.spec.name, o.schedule) for o in plain.front) == \
            sorted((o.spec.name, o.schedule) for o in raced.front)


# -- resume round-trips -------------------------------------------------------
class TestResume:
    def _roundtrip(self, max_rounds=1, **kwargs):
        """Checkpoint after *max_rounds*, resume, compare bitwise against
        the uninterrupted run."""
        full = small_search(**kwargs).run()
        partial = small_search(**kwargs).run(max_rounds=max_rounds)
        document = json.loads(json.dumps(partial.as_document()))
        resumed = resume_search(document)
        assert resumed.as_document() == full.as_document()

    def test_surrogate_race_artifact_roundtrips_bitwise(self):
        self._roundtrip(surrogate=True, surrogate_keep=0.5, race=True)

    def test_surrogate_only_roundtrips(self):
        self._roundtrip(surrogate=True)

    def test_race_only_roundtrips(self):
        self._roundtrip(race=True)

    def test_resume_replays_race_stops_across_two_rounds(self):
        # A two-round checkpoint forces the replay path to reconstruct
        # race-stopped rows (partial metrics, not memoized) from provenance.
        self._roundtrip(max_rounds=2, surrogate=True, race=True)


# -- racing the campaign job list ---------------------------------------------
class TestRaceJobs:
    def test_raced_campaign_front_matches_full_run(self):
        from repro.explore.adaptive import pareto_front_mask, objective_vector
        from repro.explore.campaign import campaign_from_axes

        campaign = campaign_from_axes(
            {"core_count": [1, 2], "tam_width_bits": [8, 32]},
            base=ScenarioSpec(name="base", patterns_per_core=16, seed=7))
        full = campaign.run()
        raced, stopped = race_jobs(list(campaign.jobs()))
        assert len(raced.outcomes) + len(stopped) == len(full.outcomes)

        def front(outcomes):
            vectors = [objective_vector(o, DEFAULT_OBJECTIVES)
                       for o in outcomes]
            mask = pareto_front_mask(vectors)
            return sorted((o.spec.name, o.schedule)
                          for o, keep in zip(outcomes, mask) if keep)

        assert front(full.outcomes) == front(raced.outcomes)

    def test_completed_outcomes_identical_to_full_run(self):
        from repro.explore.campaign import (
            NONDETERMINISTIC_COLUMNS, campaign_from_axes,
        )

        def row(outcome):
            return {column: value
                    for column, value in outcome.as_row().items()
                    if column not in NONDETERMINISTIC_COLUMNS}

        campaign = campaign_from_axes(
            {"core_count": [1, 2], "tam_width_bits": [8, 32]},
            base=ScenarioSpec(name="base", patterns_per_core=16, seed=7))
        by_key = {(o.spec.name, o.schedule): row(o)
                  for o in campaign.run().outcomes}
        raced, _ = race_jobs(list(campaign.jobs()))
        for outcome in raced.outcomes:
            assert row(outcome) == by_key[(outcome.spec.name,
                                           outcome.schedule)]


# -- parameter validation -----------------------------------------------------
class TestValidation:
    def test_race_excludes_worker_pools(self):
        with pytest.raises(ValueError, match="worker"):
            small_search(race=True).run(workers=2)

    def test_surrogate_keep_range_enforced(self):
        with pytest.raises(ValueError):
            small_search(surrogate=True, surrogate_keep=1.5)
        with pytest.raises(ValueError):
            small_search(surrogate=True, surrogate_keep=-0.1)


# -- CLI wiring ---------------------------------------------------------------
GRID = ["--core-counts", "1", "2", "--tam-widths", "8", "32",
        "--patterns", "16", "--seed", "7"]


class TestCli:
    def test_adaptive_surrogate_race_artifact(self, capsys, tmp_path):
        json_path = tmp_path / "adaptive.json"
        exit_code = main(["adaptive", *GRID, "--surrogate", "--race",
                          "--surrogate-keep", "0.5",
                          "--json", str(json_path)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(json_path.read_text())
        assert document["surrogate"]["keep"] == 0.5
        assert "race" in document
        assert "surrogate_cycles" in document["columns"]

    def test_adaptive_resume_from_surrogate_checkpoint(self, capsys,
                                                       tmp_path):
        partial = tmp_path / "partial.json"
        resumed = tmp_path / "resumed.json"
        full = tmp_path / "full.json"
        assert main(["adaptive", *GRID, "--surrogate", "--race",
                     "--max-rounds", "1", "--json", str(partial)]) == 0
        assert main(["adaptive", *GRID, "--resume-from", str(partial),
                     "--json", str(resumed)]) == 0
        assert main(["adaptive", *GRID, "--surrogate", "--race",
                     "--json", str(full)]) == 0
        capsys.readouterr()
        assert resumed.read_bytes() == full.read_bytes()

    def test_default_adaptive_artifact_unchanged_by_the_feature_flags(
            self, capsys, tmp_path):
        default = tmp_path / "default.json"
        explicit = tmp_path / "explicit.json"
        assert main(["adaptive", *GRID, "--json", str(default)]) == 0
        assert main(["adaptive", *GRID, "--no-surrogate", "--no-race",
                     "--json", str(explicit)]) == 0
        capsys.readouterr()
        assert default.read_bytes() == explicit.read_bytes()

    def test_campaign_surrogate_screens_jobs(self, capsys, tmp_path):
        json_path = tmp_path / "campaign.json"
        exit_code = main(["campaign", *GRID, "--surrogate",
                          "--json", str(json_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "surrogate screen" in captured.err
        document = json.loads(json_path.read_text())
        assert 0 < document["row_count"] <= 8

    def test_campaign_race_drops_stopped_rows(self, capsys, tmp_path):
        raced_path = tmp_path / "raced.json"
        full_path = tmp_path / "full.json"
        assert main(["campaign", *GRID, "--race",
                     "--json", str(raced_path)]) == 0
        assert main(["campaign", *GRID, "--json", str(full_path)]) == 0
        capsys.readouterr()
        raced = json.loads(raced_path.read_text())
        full = json.loads(full_path.read_text())
        assert raced["row_count"] <= full["row_count"]
        full_rows = {(row["scenario"], row["schedule"]): row
                     for row in full["rows"]}
        for row in raced["rows"]:
            assert row == full_rows[(row["scenario"], row["schedule"])]

    def test_campaign_shard_rejects_surrogate_and_race(self, capsys):
        for flag in ("--surrogate", "--race"):
            exit_code = main(["campaign", *GRID, flag, "--shard", "0/2"])
            captured = capsys.readouterr()
            assert exit_code == 2
            assert "--shard" in captured.err

    def test_surrogate_keep_argument_validated(self, capsys):
        with pytest.raises(SystemExit):
            main(["adaptive", *GRID, "--surrogate", "--surrogate-keep", "2"])
        capsys.readouterr()


# -- the at-scale acceptance criterion ---------------------------------------
@pytest.mark.slow
def test_surrogate_race_reaches_the_same_front_with_3x_fewer_jobs():
    """>=50 scenarios: identical final Pareto front, >=3x fewer
    full-fidelity simulations (the PR's acceptance criterion, same space
    as ``benchmarks/run_benchmarks.py bench_surrogate``)."""
    schedules = ("sequential", "greedy", "binpack",
                 "portfolio:members=greedy|binpack|anneal")
    grid = ScenarioGrid(
        {"core_count": [1, 2], "tam_width_bits": [8, 16, 32, 64],
         "compression_ratio": [10.0, 100.0], "power_budget": [3.0, 8.0],
         "patterns_per_core": [32, 64]},
        base=ScenarioSpec(name="base", seed=5, schedules=schedules))
    specs = grid.specs()
    assert len(specs) >= 50

    full = AdaptiveSearch(specs).run()
    raced = AdaptiveSearch(specs, surrogate=True, surrogate_keep=0.25,
                           race=True).run()
    assert sorted((o.spec.name, o.schedule) for o in full.front) == \
        sorted((o.spec.name, o.schedule) for o in raced.front)
    assert full.full_fidelity_jobs >= 3 * raced.full_fidelity_jobs


# -- normalized tie-break scores ----------------------------------------------
class TestNormalizedScores:
    """The vectorized scalarization must stay bit-identical to the scalar
    min-max loop — selection tie-breaks (and therefore artifacts) hang off
    the exact float values."""

    @staticmethod
    def _reference(vectors):
        if not vectors:
            return []
        dims = len(vectors[0])
        lows = [min(v[d] for v in vectors) for d in range(dims)]
        highs = [max(v[d] for v in vectors) for d in range(dims)]
        scores = []
        for vector in vectors:
            score = 0.0
            for d in range(dims):
                span = highs[d] - lows[d]
                if span > 0:
                    score += (vector[d] - lows[d]) / span
            scores.append(score)
        return scores

    def test_matches_scalar_reference(self):
        from repro.explore.adaptive import _normalized_scores

        vectors = [(1_000_003.0, 2.75), (999_999.0, 8.125),
                   (1_000_003.0, 2.75), (123.0, 0.5), (87_654.0, 19.0)]
        assert _normalized_scores(vectors) == self._reference(vectors)

    def test_degenerate_axes_contribute_nothing(self):
        from repro.explore.adaptive import _normalized_scores

        vectors = [(5.0, 1.0), (7.0, 1.0), (6.0, 1.0)]
        assert _normalized_scores(vectors) == self._reference(vectors)
        assert _normalized_scores([(3.0, 3.0), (3.0, 3.0)]) == [0.0, 0.0]
        assert _normalized_scores([]) == []
