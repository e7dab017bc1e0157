"""Tests of the adaptive exploration engine (Pareto + successive halving)."""

import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.adaptive import (
    ADAPTIVE_SCHEMA_VERSION,
    DEFAULT_OBJECTIVES,
    PROVENANCE_COLUMNS,
    AdaptiveSearch,
    Objective,
    ParetoFront,
    adaptive_search_from_axes,
    dominates,
    objective_vector,
    parse_objective,
    pareto_front_mask,
    pareto_ranks,
)
from repro.explore.campaign import (
    NONDETERMINISTIC_COLUMNS,
    RESULT_COLUMNS,
    SCHEMA_VERSION,
    Campaign,
    clear_scenario_cache,
)
from repro.explore.scenarios import ScenarioGrid, ScenarioSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


# -- dominance unit tests -----------------------------------------------------
class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((2, 2), (1, 1))

    def test_partial_improvement_dominates(self):
        assert dominates((1, 2), (2, 2))
        assert dominates((2, 1), (2, 2))

    def test_trade_off_is_incomparable(self):
        assert not dominates((1, 3), (3, 1))
        assert not dominates((3, 1), (1, 3))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((2, 2), (2, 2))

    def test_single_objective_degenerate_case(self):
        # With one objective, dominance collapses to strict 'less than'.
        assert dominates((1,), (2,))
        assert not dominates((2,), (1,))
        assert not dominates((2,), (2,))


class TestParetoFront:
    def test_front_keeps_trade_offs_and_drops_dominated(self):
        front = ParetoFront()
        assert front.add("a", (1, 3))
        assert front.add("b", (3, 1))
        assert not front.add("c", (4, 4))        # dominated by both
        assert front.add("d", (0, 0))            # dominates everything
        assert front.points == ["d"]

    def test_equal_vectors_coexist(self):
        front = ParetoFront()
        assert front.add("a", (2, 2))
        assert front.add("b", (2, 2))
        assert sorted(front.points) == ["a", "b"]

    def test_tie_on_one_axis(self):
        front = ParetoFront()
        front.add("a", (1, 2))
        assert not front.add("b", (1, 3))        # same x, worse y
        assert front.add("c", (1, 1))            # same x, better y: evicts a
        assert front.points == ["c"]

    def test_single_objective_front_is_the_minimum(self):
        front = ParetoFront(objectives=(Objective("test_length_cycles"),))
        front.add("a", (5,))
        front.add("b", (3,))
        front.add("c", (7,))
        front.add("d", (3,))                     # ties with the minimum
        assert sorted(front.points) == ["b", "d"]

    def test_vector_length_is_validated(self):
        front = ParetoFront()
        with pytest.raises(ValueError):
            front.add("a", (1,))


def test_pareto_ranks_peel_front_by_front():
    vectors = [(0, 0), (1, 1), (2, 2), (0, 3)]
    # (0, 0) dominates everything; (1, 1) and (0, 3) are mutually
    # incomparable and form the second front; (2, 2) peels last.
    assert pareto_ranks(vectors) == [0, 1, 2, 1]


def test_objective_parsing_and_validation():
    assert parse_objective("peak_power") == Objective("peak_power")
    assert parse_objective("avg_power:max") == Objective("avg_power", maximize=True)
    with pytest.raises(ValueError):
        parse_objective("peak_power:upwards")
    with pytest.raises(ValueError):
        Objective("not_a_column")
    for column in NONDETERMINISTIC_COLUMNS:
        # Searching on timing/placement columns would break the bitwise
        # artifact-determinism guarantee.
        with pytest.raises(ValueError):
            Objective(column)
    for column in ("scenario", "kind", "schedule"):
        # Label columns cannot be minimized/maximized; reject up front
        # instead of crashing after the first simulated round.
        with pytest.raises(ValueError):
            Objective(column)


def test_objective_vector_negates_maximized_columns():
    class FakeOutcome:
        @staticmethod
        def as_row():
            return {"test_length_cycles": 10, "peak_power": 2.5}

    vector = objective_vector(
        FakeOutcome(),
        (Objective("test_length_cycles"), Objective("peak_power", maximize=True)),
    )
    assert vector == (10.0, -2.5)


# -- search mechanics ---------------------------------------------------------
def small_search(**kwargs) -> AdaptiveSearch:
    return adaptive_search_from_axes(
        {"core_count": [1, 2], "tam_width_bits": [8, 32]},
        base=ScenarioSpec(name="base", patterns_per_core=16, seed=7),
        **kwargs,
    )


def test_budget_ladder_ends_at_full_fidelity():
    search = small_search(eta=2.0, min_budget=0.25)
    assert search.budgets() == [0.25, 0.5, 1.0]
    assert small_search(min_budget=1.0).budgets() == [1.0]


def test_budget_ladder_starts_at_min_budget():
    # min_budget is always the cheapest round, even when eta overshoots 1.0
    # in one step or 1.0 is not an exact power of eta away.
    assert small_search(eta=8.0, min_budget=0.25).budgets() == [0.25, 1.0]
    assert small_search(eta=2.0, min_budget=0.2).budgets() == [0.2, 0.4, 0.8, 1.0]


def test_budgeted_spec_scales_patterns_only():
    spec = ScenarioSpec(name="s", patterns_per_core=100, seed=3)
    thinned = AdaptiveSearch.budgeted_spec(spec, 0.25)
    assert thinned.patterns_per_core == 25
    assert thinned.name == spec.name and thinned.seed == spec.seed
    assert AdaptiveSearch.budgeted_spec(spec, 1.0) is spec
    # The budget never starves a candidate completely.
    tiny = AdaptiveSearch.budgeted_spec(
        ScenarioSpec(name="t", patterns_per_core=2), 0.1)
    assert tiny.patterns_per_core == 1


def test_parameter_validation():
    specs = [ScenarioSpec(name="a")]
    with pytest.raises(ValueError):
        AdaptiveSearch(specs, eta=1.0)
    with pytest.raises(ValueError):
        AdaptiveSearch(specs, min_budget=0.0)
    with pytest.raises(ValueError):
        AdaptiveSearch(specs, objectives=())
    with pytest.raises(ValueError):
        AdaptiveSearch([])
    with pytest.raises(ValueError):
        AdaptiveSearch([ScenarioSpec(name="a"), ScenarioSpec(name="a")])


def test_rounds_halve_candidates_and_finish_at_full_budget():
    result = small_search(eta=2.0, min_budget=0.25).run()
    assert [r.budget for r in result.rounds] == [0.25, 0.5, 1.0]
    assert result.rounds[0].job_count == 8      # 4 scenarios x 2 schedules
    assert result.rounds[1].job_count == 4
    assert result.rounds[2].job_count == 2
    assert result.full_fidelity_jobs == 2
    assert result.exhaustive_jobs == 8
    assert result.total_jobs == 14


def test_quantized_budgets_reuse_outcomes_instead_of_resimulating():
    # patterns_per_core=1 quantizes every budget to 1 pattern: only the
    # first round simulates anything; later rounds reuse cached outcomes,
    # so the search never costs more than the exhaustive grid.
    search = adaptive_search_from_axes(
        {"core_count": [1, 2], "tam_width_bits": [8, 32]},
        base=ScenarioSpec(name="base", patterns_per_core=1, seed=7),
        eta=2.0, min_budget=0.25,
    )
    result = search.run()
    assert [r.simulated_jobs for r in result.rounds] == [8, 0, 0]
    assert [r.job_count for r in result.rounds] == [8, 4, 2]
    assert result.total_jobs == 8 <= result.exhaustive_jobs
    assert result.full_fidelity_jobs == 0
    # Reused rows are present in the artifacts with their round provenance.
    rows = result.rows()
    assert len(rows) == 14


def test_final_front_is_mutually_non_dominated():
    result = small_search().run()
    assert result.front                          # never empty
    vectors = [objective_vector(o, result.objectives) for o in result.front]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                assert not dominates(a, b)
    # The front is drawn from the final round's survivors.
    final_keys = set(result.rounds[-1].survivors)
    assert {(o.spec.name, o.schedule) for o in result.front} == final_keys


def test_deterministic_artifacts_bitwise_identical(tmp_path):
    paths = []
    # Serial vs worker pool: same seed must yield bitwise-identical files.
    for run_index, workers in enumerate((1, 2)):
        clear_scenario_cache()
        result = small_search(eta=2.0, min_budget=0.25).run(workers=workers)
        csv_path = tmp_path / f"run{run_index}.csv"
        json_path = tmp_path / f"run{run_index}.json"
        result.write_csv(csv_path)
        result.write_json(json_path)
        paths.append((csv_path, json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_artifact_schema(tmp_path):
    result = small_search().run()
    csv_path = tmp_path / "adaptive.csv"
    result.write_csv(csv_path)
    expected = [c for c in RESULT_COLUMNS
                if c not in NONDETERMINISTIC_COLUMNS] + list(PROVENANCE_COLUMNS)
    with open(csv_path) as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == expected
        rows = list(reader)
    # One CSV row per result row (simulated or reused); total_jobs counts
    # only simulated jobs and can be smaller under budget quantization.
    assert len(rows) == sum(r.job_count for r in result.rounds)

    json_path = tmp_path / "adaptive.json"
    result.write_json(json_path)
    document = json.loads(json_path.read_text())
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["adaptive_schema_version"] == ADAPTIVE_SCHEMA_VERSION
    assert document["columns"] == expected
    assert document["full_fidelity_jobs"] == result.full_fidelity_jobs
    assert len(document["front"]) == len(result.front)
    assert "wall_seconds" not in document and "workers" not in document
    # Non-deterministic rows keep the timing/placement columns and metadata.
    loose = result.as_document(deterministic=False)
    assert "cpu_seconds" in loose["columns"]
    assert "wall_seconds" in loose and "workers" in loose


def test_survivor_specs_resume_into_campaign_or_search():
    result = small_search().run()
    specs = result.survivor_specs()
    assert specs
    by_name = {spec.name: spec for spec in specs}
    for outcome in result.front:
        assert outcome.schedule in by_name[outcome.spec.name].schedules
    # The survivors are directly runnable, both exhaustively and adaptively.
    assert len(Campaign(specs).jobs()) == len(result.front)
    AdaptiveSearch(specs, min_budget=0.5)


def test_single_objective_search_degenerates_to_minimization():
    result = small_search(
        objectives=(Objective("test_length_cycles"),)).run()
    lengths = [o.test_length_cycles for o in result.rounds[-1].run.outcomes]
    front_lengths = {o.test_length_cycles for o in result.front}
    assert front_lengths == {min(lengths)}


def test_intermediate_survivors_prefer_non_dominated_pairs():
    search = small_search(eta=2.0, min_budget=0.5)
    result = search.run()
    first = result.rounds[0]
    vectors = {
        (o.spec.name, o.schedule): objective_vector(o, result.objectives)
        for o in first.run.outcomes
    }
    survivors = set(first.survivors)
    ranks = pareto_ranks(list(vectors.values()))
    rank_by_key = dict(zip(vectors.keys(), ranks))
    worst_kept = max(rank_by_key[key] for key in survivors)
    best_cut = min((rank for key, rank in rank_by_key.items()
                    if key not in survivors), default=None)
    # Selection is rank-monotonic: no pruned pair out-ranks a survivor.
    if best_cut is not None:
        assert best_cut >= worst_kept


@pytest.mark.slow
def test_large_space_runs_fewer_full_fidelity_jobs_than_grid():
    grid = ScenarioGrid(
        {
            "core_count": [1, 2, 3],
            "tam_width_bits": [8, 16, 32],
            "compression_ratio": [10.0, 100.0],
            "wrapper_parallel_width_bits": [0, 4],
            "ate_vector_memory_words": [0, 2048],
        },
        base=ScenarioSpec(name="base", patterns_per_core=16, seed=11),
    )
    specs = grid.specs()
    assert len(specs) >= 50
    search = AdaptiveSearch(grid, eta=3.0, min_budget=0.25)
    result = search.run(workers=2)
    exhaustive = len(Campaign(specs).jobs())
    assert result.exhaustive_jobs == exhaustive
    assert result.full_fidelity_jobs < exhaustive
    vectors = [objective_vector(o, result.objectives) for o in result.front]
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j:
                assert not dominates(a, b)


# -- vectorized Pareto analytics vs the definitional reference ----------------

objective_values = st.integers(min_value=0, max_value=6)
vector_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda dims: st.lists(
        st.tuples(*[objective_values] * dims), max_size=40))


#: Real result columns standing in for up-to-4-dimensional objectives
#: (Objective validates its column against RESULT_COLUMNS).
_OBJECTIVE_COLUMNS = ("test_length_cycles", "peak_power", "avg_power",
                      "estimated_cycles")


class _Point:
    """A payload whose as_row() exposes one column per objective dim."""

    def __init__(self, index, vector):
        self.index = index
        self._row = dict(zip(_OBJECTIVE_COLUMNS, vector))

    def as_row(self):
        return self._row


def reference_ranks(vectors):
    """Literal front-by-front peeling with scalar dominates()."""
    vectors = [tuple(float(v) for v in vector) for vector in vectors]
    ranks = [-1] * len(vectors)
    remaining = set(range(len(vectors)))
    rank = 0
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(vectors[j], vectors[i])
                            for j in remaining if j != i)]
        for index in front:
            ranks[index] = rank
        remaining.difference_update(front)
        rank += 1
    return ranks


class TestVectorizedPareto:
    """The numpy pareto_ranks / pareto_front_mask / ParetoFront.extend
    must be indistinguishable from the scalar definitions — small integer
    coordinates force plenty of ties, duplicates and dominance chains."""

    @settings(max_examples=120, deadline=None)
    @given(vectors=vector_lists)
    def test_pareto_ranks_match_reference_peeling(self, vectors):
        assert pareto_ranks(vectors) == reference_ranks(vectors)

    @settings(max_examples=120, deadline=None)
    @given(vectors=vector_lists)
    def test_front_mask_is_rank_zero(self, vectors):
        ranks = reference_ranks(vectors)
        assert pareto_front_mask(vectors) \
            == [rank == 0 for rank in ranks]

    @settings(max_examples=80, deadline=None)
    @given(batches=st.integers(min_value=1, max_value=4).flatmap(
        lambda dims: st.lists(
            st.lists(st.tuples(*[objective_values] * dims), max_size=15),
            min_size=1, max_size=3)))
    def test_extend_equals_sequential_adds(self, batches):
        """Bulk extend() after any prefix of adds leaves exactly the points
        (and insertion order) that one-at-a-time add() would have kept."""
        dims = len(batches[0][0]) if batches[0] else \
            next((len(b[0]) for b in batches if b), 2)
        batches = [[v for v in batch if len(v) == dims] for batch in batches]
        objectives = tuple(Objective(column)
                           for column in _OBJECTIVE_COLUMNS[:dims])

        sequential = ParetoFront(objectives=objectives)
        staged = ParetoFront(objectives=objectives)
        index = 0
        for batch in batches:
            points = [_Point(index + offset, vector)
                      for offset, vector in enumerate(batch)]
            index += len(batch)
            for point in points:
                sequential.add(point,
                               vector=objective_vector(point, objectives))
            staged.extend(points)
            assert [p.index for p in staged.points] \
                == [p.index for p in sequential.points]
            assert staged.vectors == sequential.vectors
