"""Hot failover vs checkpoint recovery under an MTTF kill schedule.

The paper's only failure answer is offline recovery: rescan PMem,
discard versions past the Checkpointed Batch ID, rebuild the hash index
— ~380 s at 2.1 B entries (Figure 14). This bench prices the
availability layer the extension adds on top:

* **detection** is bounded by the lease (``ServerConfig.lease_s``): the
  client waits out the remainder before it may declare death;
* **promotion** is a role switch to the synchronous backup —
  :data:`repro.core.replication.FAILOVER_SECONDS`, independent of model
  size;
* **re-replication** of a fresh backup rides the heartbeat rounds in
  the background, off the training critical path.

So the client-visible outage is ``lease + promotion`` (~1 s at the
default lease) against the paper's ~380 s — and unlike recovery, the
failover loses *nothing*: post-checkpoint batches survive on the
backup.

The live half runs the MTTF chaos soak (a ``tests/harness/scenario.py``
scenario with an MTTF kill schedule) on all three transports
(in-process, RPC, RPC over a lossy wire): Poisson-scheduled kills land
mid-batch while a deterministic workload trains, promotions answer
them, and the weights are compared bitwise against a fault-free replay
after every batch. A soak fails if it loses an
update, regresses a checkpoint id, or blows the unavailability bound.
"""

from __future__ import annotations

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.core.replication import (
    FAILOVER_SECONDS,
    replication_vs_recovery_seconds,
)
from repro.failure.mttf import expected_lost_work_seconds, young_interval_seconds
from tests.harness.scenario import Scenario, percentile, poisson_kills

PAPER_ENTRIES = 2_100_000_000
LEASE_S = 0.5
MTTF_S = 12.0 * 3600
SCENARIOS = {
    "local": dict(transport="local", seed=0, mttf_s=4.0),
    "remote": dict(transport="rpc", seed=1, mttf_s=4.0),
    # The lossy wire advances the clock fast; a tighter MTTF keeps the
    # kills inside the soak's horizon.
    "faulty": dict(transport="rpc_lossy", seed=2, mttf_s=2.0),
}
#: per-transport soak counters reported beside the verdict
SOAK_COLUMNS = ("kills", "promotions", "double_faults", "absorbed", "rebuilt")


def run_soaks(kills: int, batches: int) -> dict:
    """The three-transport chaos soak: flat per-transport metrics plus
    ``soak_failures``."""
    metrics = {"soak_failures": 0}
    for label, scenario in SCENARIOS.items():
        result = Scenario(
            transport=scenario["transport"], seed=scenario["seed"], replicas=2,
            batches=batches, checkpoint_every=3,
            mttf=poisson_kills(kills, batches, scenario["seed"], mttf_s=scenario["mttf_s"]),
        )
        try:
            result.run().audit(min_kills=kills)
        except AssertionError:
            metrics["soak_failures"] += 1
        metrics.update({
            f"{label}_kills": result.kills,
            f"{label}_promotions": len(result.promotions),
            f"{label}_double_faults": result.double_faults,
            f"{label}_absorbed": result.absorbed_kills,
            f"{label}_rebuilt": result.rebuilds_completed,
            f"{label}_p99_unavail_s": percentile(result.unavailability_seconds, 99),
            f"{label}_unavail_bound_s": result.unavailability_bound_s,
        })
    return metrics


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["all_survived"],
         "a chaos soak lost updates or blew its unavailability bound"),
    )


@register(
    "failover",
    params=[
        Param("kills", "int", 3, help="Poisson kills per transport soak"),
        Param("batches", "int", 30),
    ],
    smoke={"kills": 2, "batches": 24},
    headline={
        "all_survived": Headline(),
        # Analytic model: deterministic, gate tightly.
        "recovery_vs_failover_x": Headline(direction="higher", max_regression=0.05),
    },
    check=_check,
    refs=[
        Ref("recovery_seconds", "recovery per failure", "{:.1f} s",
            paper="380.2 s (Fig 14)"),
        Ref("unavailability_s", "failover unavailability", "{:.1f} s",
            paper="O(seconds)"),
        Ref("recovery_vs_failover_x", "recovery -> failover", "{:.0f}x less downtime"),
        Ref("young_interval_s", "Young interval (12h MTTF)", "{:.0f} s",
            paper="sqrt(2*C*MTTF)"),
        Ref("lost_work_s", "  lost work per failure", "{:.0f} s"),
        Ref("all_survived", "chaos soaks: bitwise-exact finish", "{}", paper="True"),
    ] + [
        Ref(f"{label}_{column}", f"  {label} {column}", "{}")
        for label in SCENARIOS for column in SOAK_COLUMNS
    ] + [
        ref
        for label in SCENARIOS
        for ref in (
            Ref(f"{label}_p99_unavail_s", f"  {label} p99 unavailability",
                "{:.3f}s", paper="under its bound"),
            Ref(f"{label}_unavail_bound_s", f"  {label} bound", "{:.3f}s"),
        )
    ],
)
def entry(*, kills, batches):
    """Extension: MTTF chaos soak on three transports — detection + hot
    failover — beside the analytic recovery-vs-failover downtime."""
    __, recovery = replication_vs_recovery_seconds(
        entries=PAPER_ENTRIES, entry_bytes=4 * 64
    )
    unavailability = LEASE_S + FAILOVER_SECONDS
    interval = young_interval_seconds(15.0, MTTF_S)
    soaks = run_soaks(kills=kills, batches=batches)
    return {
        "all_survived": soaks["soak_failures"] == 0,
        "kills_total": sum(soaks[f"{label}_kills"] for label in SCENARIOS),
        "promotions": sum(soaks[f"{label}_promotions"] for label in SCENARIOS),
        "recovery_vs_failover_x": recovery / unavailability,
        "recovery_seconds": recovery,
        "unavailability_s": unavailability,
        "young_interval_s": interval,
        "lost_work_s": expected_lost_work_seconds(interval, MTTF_S),
        **soaks,
    }
