"""Flight recorder: ring semantics, dump triggers, postmortems.

Unit coverage for :class:`~repro.obs.flightrec.FlightRecorder` plus the
three places the codebase pulls the trigger:

* a :class:`~repro.obs.tracer.Tracer` tap rings every closed span and
  instant;
* an aborted :class:`~repro.core.migration.ShardMigrator` run dumps
  with trigger ``migration_abort`` naming the step that was executing;
* a chaos-soak kill produces a ``promotion`` dump whose window covers
  the whole failure episode — lease expiry → declare-dead → promotion
  (the acceptance property), and a failed soak audit writes a
  postmortem artifact embedding a ``soak_audit_failed`` dump.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import FlightRecorder, Tracer
from repro.obs.flightrec import FLIGHTREC_SCHEMA
from repro.simulation.clock import SimClock
from tests.harness.scenario import Scenario, poisson_kills, reshard


# ----------------------------------------------------------------------
# ring semantics
# ----------------------------------------------------------------------


class TestRing:
    def test_bounded_ring_drops_oldest(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("unit", f"event{i}")
        events = rec.events()
        assert len(events) == 4
        assert [e["name"] for e in events] == [f"event{i}" for i in range(6, 10)]
        dump = rec.dump("test")
        assert dump["recorded"] == 10
        assert dump["dropped"] == 6

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_dump_schema_and_ring_not_cleared(self):
        clock = SimClock()
        rec = FlightRecorder(node="ps0", clock=clock)
        rec.record("unit", "first", detail=7)
        clock.advance(1.5)
        rec.record("unit", "second")
        dump = rec.dump("declare_dead", node=2)
        assert dump["schema"] == FLIGHTREC_SCHEMA
        assert dump["node"] == "ps0"
        assert dump["trigger"] == "declare_dead"
        assert dump["attrs"] == {"node": 2}
        assert dump["t"] == 1.5
        assert [e["t"] for e in dump["events"]] == [0.0, 1.5]
        assert dump["events"][0]["attrs"] == {"detail": 7}
        # A later trigger still sees the earlier window.
        later = rec.dump("promotion")
        assert [e["name"] for e in later["events"]] == ["first", "second"]
        assert rec.dumps_triggered("declare_dead") == [dump]
        assert rec.dumps_triggered("promotion") == [later]

    def test_dump_dir_writes_numbered_files(self, tmp_path):
        rec = FlightRecorder(node="ps0", dump_dir=tmp_path)
        rec.record("unit", "something")
        rec.dump("promotion")
        rec.dump("promotion")
        names = sorted(p.name for p in rec.dump_paths)
        assert names == ["flightrec_promotion_1.json", "flightrec_promotion_2.json"]
        on_disk = json.loads((tmp_path / names[0]).read_text())
        assert on_disk["schema"] == FLIGHTREC_SCHEMA
        assert on_disk["events"][0]["name"] == "something"


# ----------------------------------------------------------------------
# tracer tap
# ----------------------------------------------------------------------


class TestTracerTap:
    def test_spans_and_instants_ring(self):
        clock = SimClock()
        rec = FlightRecorder(clock=clock)
        tracer = Tracer(clock=clock, recorder=rec)
        with tracer.span("rpc.call", track="rpc", node=1):
            clock.advance(0.25)
        tracer.instant("kill", track="chaos")
        kinds = [(e["kind"], e["name"]) for e in rec.events()]
        assert ("span", "rpc.call") in kinds
        assert ("instant", "kill") in kinds
        span_event = next(e for e in rec.events() if e["kind"] == "span")
        assert span_event["attrs"]["duration"] == pytest.approx(0.25)
        assert span_event["attrs"]["node"] == 1


# ----------------------------------------------------------------------
# migration abort
# ----------------------------------------------------------------------


class TestMigrationAbort:
    def test_aborted_migration_dumps_naming_the_step(self):
        # Three batches, then a scale-out the cluster dies in at
        # mid_transfer; the scenario recovers and finishes the job.
        rec = Scenario(batches=3, schedule=[reshard(2, "scale_out", "mid_transfer")]).run().recorder
        dumps = rec.dumps_triggered("migration_abort")
        assert len(dumps) == 1
        assert dumps[0]["attrs"] == {
            "direction": "scale_out",
            "step": "mid_transfer",
        }
        # The ring holds the step trail up to and including the abort.
        names = [e["name"] for e in dumps[0]["events"] if e["kind"] == "migration"]
        assert names == ["barrier", "provision", "transfer", "mid_transfer", "abort"]


# ----------------------------------------------------------------------
# chaos soak (acceptance): promotion dumps cover the whole episode
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def soak_result(tmp_path_factory):
    return Scenario(
        transport="rpc", seed=1, replicas=2, batches=30, checkpoint_every=3,
        mttf=poisson_kills(3, 30, seed=1), artifact_dir=tmp_path_factory.mktemp("postmortem"),
    ).run()


class TestChaosSoakDumps:
    def test_promotion_dump_covers_the_failure_episode(self, soak_result):
        recorder = soak_result.recorder
        assert recorder is not None
        assert len(soak_result.promotions) >= 1
        dumps = recorder.dumps_triggered("promotion")
        assert len(dumps) == len(soak_result.promotions)
        # Every declare-dead also dumped, before its promotion.
        assert len(recorder.dumps_triggered("declare_dead")) >= len(dumps)
        for dump in dumps:
            assert dump["schema"] == FLIGHTREC_SCHEMA
            assert dump["attrs"]["unavailability_s"] <= (
                soak_result.unavailability_bound_s + 1e-9
            )
            # The window shows the causal story in ring order:
            # lease expiry -> declared dead -> promoted.
            names = [
                e["name"] for e in dump["events"] if e["kind"] == "failover"
            ]
            expired = names.index("lease_expired")
            dead = names.index("declared_dead", expired)
            promoted = names.index("promoted", dead)
            assert expired < dead < promoted

    def test_failed_audit_writes_postmortem_artifact(self, soak_result):
        impossible = soak_result.kills + 100
        with pytest.raises(AssertionError) as excinfo:
            soak_result.audit(min_kills=impossible)
        message = str(excinfo.value)
        assert "postmortem artifact:" in message
        path = message.rsplit("postmortem artifact:", 1)[1].strip()
        artifact = json.loads(open(path).read())
        assert artifact["flightrec"]["trigger"] == "soak_audit_failed"
        assert artifact["flightrec"]["schema"] == FLIGHTREC_SCHEMA
        assert artifact["kills"] == soak_result.kills
        dumps = soak_result.recorder.dumps_triggered("soak_audit_failed")
        assert len(dumps) == 1
