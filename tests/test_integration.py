"""End-to-end integration tests on generated workloads.

These exercise the whole pipeline — dataset generation, rule mining, index
construction, streaming, pruning, refinement, accuracy evaluation — exactly
the way the benchmark harness does, and assert the qualitative claims of the
paper's evaluation (Section 6) at reduced scale:

* TER-iDS reaches a high topic-aware F-score;
* TER-iDS and the CDD-based baselines report the same answer set (the
  indexes and pruning never change the semantics);
* TER-iDS is not slower than the index-free CDD+ER baseline;
* the pruning strategies eliminate a large share of the candidate pairs;
* no false dismissals: on randomly drawn workloads and parameters the
  indexed, pruned engine reports exactly the answers of the exhaustive
  ``CDD+ER`` evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pipelines import (
    METHOD_CDD_ER,
    METHOD_CON_ER,
    METHOD_DD_ER,
    METHOD_IJ_GER,
    METHOD_TER_IDS,
)
from repro.datasets.synthetic import DATASET_PROFILES
from repro.experiments.harness import default_config, make_workload, run_method
from repro.runtime import MicroBatchExecutor


@pytest.fixture(scope="module")
def workload():
    return make_workload("citations", missing_rate=0.3, scale=0.6, seed=7)


@pytest.fixture(scope="module")
def config(workload):
    return default_config(workload, window_size=40)


@pytest.fixture(scope="module")
def ter_ids_result(workload, config):
    return run_method(METHOD_TER_IDS, workload, config)


class TestEndToEndQuality:
    def test_ter_ids_reaches_high_fscore(self, ter_ids_result):
        assert ter_ids_result.f_score >= 0.7

    def test_ter_ids_precision_high(self, ter_ids_result):
        assert ter_ids_result.accuracy.precision >= 0.8

    def test_reported_pairs_are_cross_stream_and_topical(self, workload,
                                                         ter_ids_result):
        for pair in ter_ids_result.matches:
            assert pair.left_source != pair.right_source

    def test_pruning_removes_many_pairs(self, ter_ids_result):
        assert ter_ids_result.pruning_power["total"] >= 0.4
        assert ter_ids_result.pruning_power["topic_keyword"] > 0

    def test_breakup_cost_reported(self, ter_ids_result):
        assert set(ter_ids_result.breakup) == {"cdd_selection", "imputation",
                                               "entity_resolution"}
        assert ter_ids_result.breakup["entity_resolution"] > 0


class TestMethodAgreement:
    def test_ter_ids_matches_cdd_er_answers(self, workload, config,
                                            ter_ids_result):
        """Same imputation method + same thresholds => same answer set."""
        baseline = run_method(METHOD_CDD_ER, workload, config)
        ter_keys = {pair.key() for pair in ter_ids_result.matches}
        cdd_keys = {pair.key() for pair in baseline.matches}
        assert ter_keys == cdd_keys

    def test_ter_ids_matches_ij_ger_answers(self, workload, config,
                                            ter_ids_result):
        baseline = run_method(METHOD_IJ_GER, workload, config)
        assert ({pair.key() for pair in ter_ids_result.matches}
                == {pair.key() for pair in baseline.matches})

    def test_accuracy_ordering_ter_ids_not_worse_than_con(self, workload, config,
                                                          ter_ids_result):
        """Figure 5(a): CDD-based TER-iDS beats the constraint-based baseline."""
        con = run_method(METHOD_CON_ER, workload, config)
        assert ter_ids_result.f_score >= con.f_score - 1e-9

    def test_dd_baseline_runs_and_reports(self, workload, config):
        dd = run_method(METHOD_DD_ER, workload, config)
        assert dd.timestamps_processed == workload.total_stream_size()
        assert 0.0 <= dd.f_score <= 1.0


class TestEfficiencyOrdering:
    def test_ter_ids_faster_than_cdd_er(self, workload, config, ter_ids_result):
        """Figure 5(b): the index join beats the index-free CDD+ER baseline."""
        cdd = run_method(METHOD_CDD_ER, workload, config)
        assert (ter_ids_result.mean_seconds_per_timestamp
                <= cdd.mean_seconds_per_timestamp * 1.5)

    def test_all_timestamps_processed(self, workload, ter_ids_result):
        assert ter_ids_result.timestamps_processed == workload.total_stream_size()


class TestParameterEffects:
    def test_larger_alpha_does_not_increase_matches(self, workload):
        low = run_method(METHOD_TER_IDS, workload,
                         default_config(workload, window_size=40, alpha=0.1))
        high = run_method(METHOD_TER_IDS, workload,
                          default_config(workload, window_size=40, alpha=0.9))
        assert len(high.matches) <= len(low.matches)

    def test_larger_gamma_does_not_increase_matches(self, workload):
        loose = run_method(METHOD_TER_IDS, workload,
                           default_config(workload, window_size=40, rho=0.3))
        strict = run_method(METHOD_TER_IDS, workload,
                            default_config(workload, window_size=40, rho=0.7))
        assert len(strict.matches) <= len(loose.matches)

    def test_topic_free_query_returns_superset(self, workload, config,
                                               ter_ids_result):
        """With K = all keywords (empty set) every topical match still appears."""
        topic_free_config = config.with_keywords([])
        topic_free = run_method(METHOD_TER_IDS, workload, topic_free_config)
        topical_keys = {pair.key() for pair in ter_ids_result.matches}
        free_keys = {pair.key() for pair in topic_free.matches}
        assert topical_keys <= free_keys

    def test_higher_missing_rate_lowers_or_keeps_fscore(self):
        low_missing = make_workload("citations", missing_rate=0.1, scale=0.6,
                                    seed=7)
        high_missing = make_workload("citations", missing_rate=0.8, scale=0.6,
                                     seed=7)
        low_result = run_method(METHOD_TER_IDS, low_missing,
                                default_config(low_missing, window_size=40))
        high_result = run_method(METHOD_TER_IDS, high_missing,
                                 default_config(high_missing, window_size=40))
        assert high_result.f_score <= low_result.f_score + 0.1


class TestNoFalseDismissals:
    @settings(max_examples=12, deadline=None)
    @given(dataset=st.sampled_from(sorted(DATASET_PROFILES)),
           missing_rate=st.floats(min_value=0.0, max_value=0.9),
           alpha=st.floats(min_value=0.05, max_value=0.95),
           rho=st.floats(min_value=0.1, max_value=0.9),
           window=st.integers(min_value=2, max_value=60),
           topic_free=st.booleans(),
           batch_size=st.integers(min_value=1, max_value=64),
           scale=st.sampled_from((0.25, 0.5)),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_engine_answers_equal_exhaustive_evaluation(
            self, dataset, missing_rate, alpha, rho, window, topic_free,
            batch_size, scale, seed):
        """Indexes and the four pruning strategies only skip pairs that
        exact Eq. (2) would reject: the answer set equals ``CDD+ER``'s (no
        index, no pruning, every cross-stream pair evaluated exactly)."""
        workload = make_workload(dataset, missing_rate=missing_rate,
                                 scale=scale, seed=seed)
        config = default_config(workload, window_size=window, alpha=alpha,
                                rho=rho)
        if topic_free:
            config = config.with_keywords([])
        engine = run_method(METHOD_TER_IDS, workload, config,
                            executor=MicroBatchExecutor(batch_size=batch_size))
        exhaustive = run_method(METHOD_CDD_ER, workload, config)
        assert ({pair.key() for pair in engine.matches}
                == {pair.key() for pair in exhaustive.matches})
