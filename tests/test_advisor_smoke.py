"""End-to-end advisor smoke: the full drift story on TPC-H.

One scenario run (small scale, seeded) must show the whole loop the CI
job guards: statistics go stale -> worst-node Q-errors breach -> the
advisor recommends (and, via the opt-in ``advisor_auto_analyze`` hook,
applies) re-ANALYZE -> Q-errors recover; a mid-workload optimizer
reroute is flagged as a plan regression and its cached plans purged.

The scenario itself lives in :mod:`repro.bench.drift`; the committed
``BENCH_advisor`` artifact runs the same code at bench scale.
"""

import pytest

from repro.bench.drift import run_drift_scenario


@pytest.fixture(scope="module")
def payload():
    # Scale 0.35: large enough that the staged reroute's cross-product
    # plan clearly dominates the detour's compile time, small enough to
    # finish in seconds.
    return run_drift_scenario(scale=0.35, seed=42, runs_per_query=4,
                              auto_analyze=True)


class TestDriftRecovery:
    def test_drift_actually_breaches(self, payload):
        breached = payload["recovery"]["breached_queries"]
        assert len(breached) >= 2, (
            "stale statistics produced no clear Q-error breaches; "
            "the scenario is not exercising the advisor")

    def test_auto_analyze_hook_applied_reanalyze(self, payload):
        assert payload["auto_applied"] >= 1

    def test_breached_queries_recover_after_reanalyze(self, payload):
        for row in payload["recovery"]["breached_queries"]:
            assert row["recovered_max_q"] < row["stale_max_q"], (
                f"Q{row['query']} did not recover: "
                f"stale {row['stale_max_q']:.1f} -> "
                f"recovered {row['recovered_max_q']:.1f}")

    def test_recovered_latency_near_baseline(self, payload):
        # Recovery, checked deterministically: after re-ANALYZE every
        # query runs the very plan the fresh-stats baseline ran, with
        # the same worst-node Q-error, so its latency is the baseline's
        # by construction.  (The wall-clock gate — recovered p95 within
        # 1.2x of baseline at bench scale — lives in BENCH_advisor.)
        for number in payload["mix"]:
            key = str(number)
            baseline = payload["baseline"]["queries"][key]
            recovered = payload["recovered"]["queries"][key]
            assert recovered["plan_hashes"] == baseline["plan_hashes"], \
                f"Q{number} did not return to its fresh-stats plan"
            assert recovered["max_q_median"] == baseline["max_q_median"]


class TestRegressionHygiene:
    def test_reroute_flagged_as_plan_regression(self, payload):
        flagged = payload["regression_staging"]["flagged"]
        assert len(flagged) == 1
        assert flagged[0]["factor"] > 1.5
        assert flagged[0]["from_hash"] != flagged[0]["to_hash"]

    def test_regression_recommended_and_purged(self, payload):
        assert "plan_regression" in payload["recommendation_kinds"]
        purges = [a for a in payload["actions"]
                  if a["kind"] == "plan_regression"]
        assert purges and "invalidated" in purges[0]["action"]


class TestAdvice:
    def test_index_advice_for_hot_unindexed_columns(self, payload):
        index_recs = [r for r in payload["recommendations"]
                      if r["kind"] == "index"]
        assert index_recs, "no index advice on the drifting mix"
        # The mix filters heavily on unindexed columns; at least one
        # must surface with a favourable what-if cost delta.
        for rec in index_recs:
            details = rec["details"]
            assert details["index_lookup_cost"] < \
                details["table_scan_cost"]
