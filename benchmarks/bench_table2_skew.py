"""Table II: access-pattern skew of the DLRM workload.

Generates the synthetic workload trace and reports what share of
accesses the hottest 0.05 % / 0.1 % / 1 % of the key space receives —
the paper's 85.7 % / 89.5 % / 95.7 %.
"""

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, register
from repro.simulation.profiles import DEFAULT_PROFILE
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import AccessTraceAnalyzer


def _check(metrics: dict, params: dict) -> list:
    return failures(
        (metrics["top_1pct_share"] > metrics["top_01pct_share"] > 0.5,
         "skew shares lost their ordering or collapsed below 50%"),
    )


@register(
    "table2_skew",
    params=[
        Param("batches", "int", 200),
        Param("batch_size", "int", 256),
    ],
    smoke={"batches": 80},
    headline={
        "top_1pct_share": Headline(direction="higher", max_regression=0.05),
        "top_01pct_share": Headline(direction="higher", max_regression=0.05),
    },
    check=_check,
    refs=[
        Ref("total_accesses", "trace: accesses", "{}"),
        Ref("distinct_keys", "trace: distinct keys", "{}",
            paper=f"of {DEFAULT_PROFILE.num_keys}"),
        Ref("top_005pct_share", "top 0.05% of entries", "{:.1%}",
            paper=0.857, abs=0.02),
        Ref("top_01pct_share", "top 0.10% of entries", "{:.1%}",
            paper=0.895, abs=0.02),
        Ref("top_1pct_share", "top 1.00% of entries", "{:.1%}",
            paper=0.957, abs=0.02),
    ],
)
def entry(*, batches, batch_size):
    """Table II: share of accesses landing on the hottest 0.05%/0.1%/1%
    of the keyspace in the synthetic DLRM trace."""
    generator = WorkloadGenerator(DEFAULT_PROFILE.workload_config())
    stream = generator.access_stream(num_batches=batches, batch_size=batch_size)
    analyzer = AccessTraceAnalyzer(stream)
    skew = analyzer.skew_report(
        key_fractions=(0.0005, 0.001, 0.01), of_keyspace=DEFAULT_PROFILE.num_keys
    )
    return {
        "top_005pct_share": skew.top_shares[0.0005],
        "top_01pct_share": skew.top_shares[0.001],
        "top_1pct_share": skew.top_shares[0.01],
        "distinct_keys": skew.distinct_keys,
        "total_accesses": skew.total_accesses,
    }
