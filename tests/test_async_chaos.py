"""Chaos soak: hostile workers vs the PS defense layer.

Acceptance (ISSUE 10): with ``f`` Byzantine workers out of
``n >= 3f + 2``, trimmed-mean or coordinate-median aggregation keeps
held-out AUC / log-loss inside a pinned envelope of the synchronous
fault-free baseline, while plain mean under the *same* seeded injection
demonstrably diverges; no pull is ever admitted beyond the staleness
bound; and a quiesced async checkpoint recovers batch-consistently
through the existing crash-recovery path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.staleness import StalenessController
from repro.errors import StalenessError
from repro.failure.injection import WorkerFaultProfile, hostile_fleet

from tests.harness.scenario import SEED, Fleet, Scenario, evaluate, sync_baseline

WORKERS = 6  # n >= 3f + 2 for f = 1
F = 1
STEPS = 180
SCALE = 6.0  # sign-flip amplification: unmistakably hostile
BOUND = 3

# Pinned envelope (seeded runs are exactly reproducible; observed
# values: sync auc .837 / logloss .503, robust hostile auc .74-.76,
# mean hostile auc .55).
HONEST_AUC_SLACK = 0.03
ROBUST_AUC_FLOOR = 0.70
ROBUST_AUC_SLACK = 0.12
ROBUST_LOGLOSS_CEIL = 0.65
MEAN_AUC_CEIL = 0.62
DEFENSE_MARGIN = 0.08  # robust must beat mean by at least this much


def byzantine_fleet(**overrides):
    kwargs = dict(scale=SCALE, duplicate_prob=0.1, delay_prob=0.1, seed=7)
    kwargs.update(overrides)
    return hostile_fleet(WORKERS, F, "sign_flip", **kwargs)


def fleet_scenario(
    aggregator, profiles=None, *, steps=STEPS, bound=BOUND, staleness=1, envelope=None
):
    """The async fleet on the two-shard cluster the envelope is pinned on;
    ``envelope`` makes the scenario's final verdict hold AUC / log-loss
    within that slack of the synchronous baseline."""
    return Scenario(
        seed=SEED, nodes=2, batches=steps,
        fleet=Fleet(WORKERS, staleness, profiles), envelope=envelope,
        staleness_bound=bound, aggregator=aggregator, aggregator_f=F,
    )


@pytest.fixture(scope="module", name="sync_baseline")
def sync_baseline_metrics():
    return sync_baseline(STEPS)


@pytest.fixture(scope="module")
def hostile_runs():
    """Same fleet, same seeds — only the aggregator differs."""
    return {
        agg: fleet_scenario(
            agg, byzantine_fleet(), envelope=None if agg == "mean" else ROBUST_AUC_SLACK
        ).run()
        for agg in ("trimmed_mean", "median", "mean")
    }


class TestConvergenceEnvelope:
    def test_sync_baseline_converged(self, sync_baseline):
        assert sync_baseline["auc"] > 0.80
        assert sync_baseline["logloss"] < 0.55

    def test_honest_async_within_tight_envelope(self, sync_baseline):
        run = fleet_scenario("trimmed_mean", envelope=HONEST_AUC_SLACK).run()
        assert run.metrics["auc"] >= sync_baseline["auc"] - HONEST_AUC_SLACK
        assert run.metrics["logloss"] <= sync_baseline["logloss"] + HONEST_AUC_SLACK

    @pytest.mark.parametrize("agg", ["trimmed_mean", "median"])
    def test_robust_aggregation_survives_byzantine_minority(
        self, hostile_runs, sync_baseline, agg
    ):
        metrics = hostile_runs[agg].metrics
        assert metrics["auc"] >= ROBUST_AUC_FLOOR
        assert metrics["auc"] >= sync_baseline["auc"] - ROBUST_AUC_SLACK
        assert metrics["logloss"] <= ROBUST_LOGLOSS_CEIL
        assert hostile_runs[agg].trainer.stats.byzantine_pushes > 0  # injection ran

    def test_mean_demonstrably_diverges_under_same_injection(
        self, hostile_runs
    ):
        """The ablation: defense off, identical injection, model ruined."""
        mean_auc = hostile_runs["mean"].metrics["auc"]
        assert mean_auc <= MEAN_AUC_CEIL
        for agg in ("trimmed_mean", "median"):
            assert (
                hostile_runs[agg].metrics["auc"] - mean_auc >= DEFENSE_MARGIN
            )

    def test_duplicates_and_delays_were_absorbed(self, hostile_runs):
        run = hostile_runs["trimmed_mean"]
        assert run.trainer.stats.duplicate_pushes > 0
        assert run.trainer.stats.delayed_pushes > 0
        dropped = sum(
            node.aggregation.stats.duplicates_dropped
            for node in run.backend.nodes
        )
        # Every duplicated push was sent to every shard holding its keys
        # and absorbed by the (worker_id, seq) dedup window.
        assert dropped > 0


class TestBoundedStalenessInvariant:
    @pytest.fixture(scope="class")
    def straggler_run(self):
        fleet = byzantine_fleet(duplicate_prob=0.0, delay_prob=0.0)
        for w in (1, 2):
            fleet[w] = WorkerFaultProfile(
                straggle_prob=0.4, straggle_steps=24, seed=7
            )
        run = fleet_scenario("trimmed_mean", fleet, steps=240, bound=2).run()
        run.backend.collect_metrics(run.registry)
        return run, run.registry

    def test_stragglers_get_rejected_then_fast_forward(self, straggler_run):
        run, __ = straggler_run
        assert run.trainer.stats.straggle_skips > 0
        assert run.trainer.stats.staleness_rejects > 0
        assert run.trainer.stats.skipped_batches > 0
        assert set(run.trainer.stats.rejects_by_worker) <= {1, 2}  # only stragglers

    def test_no_pull_admitted_beyond_bound(self, straggler_run):
        run, __ = straggler_run
        for node in run.backend.nodes:
            controller = node.staleness
            assert controller.rejected + run.trainer.stats.staleness_rejects >= 0
            assert controller.max_admitted_lag() <= 2
            assert all(lag <= 2 for __, lag in controller.admitted_lags)

    def test_metrics_surface_admission_and_folds(self, straggler_run):
        run, registry = straggler_run
        rejected = sum(
            m.value
            for name, __, m in registry.items()
            if name == "repro_async_pulls_rejected"
        )
        folds = sum(
            m.value
            for name, __, m in registry.items()
            if name == "repro_async_aggregator_folds"
        )
        assert rejected > 0
        assert folds > 0
        assert (
            registry.counter("repro_async_staleness_rejects_total").value
            == run.trainer.stats.staleness_rejects
        )
        assert (
            registry.counter("repro_async_straggle_steps_total").value
            == run.trainer.stats.straggle_skips
        )

    def test_still_converges_despite_rejections(self, straggler_run):
        run, __ = straggler_run
        assert run.metrics["auc"] >= 0.65
        assert run.metrics["logloss"] < np.log(2)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # worker
                st.integers(min_value=-1, max_value=40),  # progress
            ),
            max_size=200,
        ),
        bound=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_controller_invariant_over_arbitrary_interleavings(
        self, ops, bound
    ):
        """Hypothesis: whatever the interleaving of pulls, every ADMITTED
        pull has lag <= bound, and rejected pulls never advance the
        progress vector."""
        controller = StalenessController(bound)
        for worker, progress in ops:
            before = dict(controller.last_pull)
            try:
                controller.admit_pull(worker, progress)
            except StalenessError as exc:
                assert exc.lag > bound
                assert controller.last_pull == before
        assert controller.max_admitted_lag() <= bound
        assert all(lag <= bound for __, lag in controller.admitted_lags)
        assert controller.admitted == len(controller.admitted_lags)


class TestQuiescedCheckpointRecovery:
    def test_async_checkpoint_recovers_through_crash_path(self):
        """Quiesce -> checkpoint -> crash -> recover: bitwise state, and
        training continues on the recovered cluster."""
        s = fleet_scenario("trimmed_mean", byzantine_fleet(), steps=60, staleness=2)
        s.train(0, 60)
        server, trainer = s.backend, s.trainer
        missed = trainer.checkpoint(quiesce=True)
        assert missed == 0
        assert trainer.pending_pushes == 0
        assert sum(n.aggregation.pending for n in server.nodes) == 0
        snapshot = {
            k: np.array(v, copy=True)
            for k, v in server.state_snapshot().items()
        }

        s.recover()
        recovered, reports = s.backend, s.recovery_reports
        restored = recovered.state_snapshot()
        assert set(restored) == set(snapshot)
        for key in snapshot:
            assert np.array_equal(restored[key], snapshot[key])
        assert all(r.entries_recovered > 0 for r in reports)

        # The recovered cluster keeps its defenses and keeps training
        # (the scenario hands it a fresh trainer over the same model).
        assert all(n.staleness.bound == BOUND for n in recovered.nodes)
        assert all(n.aggregation is not None for n in recovered.nodes)
        s.train(60, 72)
        losses = s.trainer.loss_history
        assert losses and all(np.isfinite(l) for l in losses)
        metrics = evaluate(recovered, s.model, s.dataset)
        assert metrics["logloss"] < np.log(2)
