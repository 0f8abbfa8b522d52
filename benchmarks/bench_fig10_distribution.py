"""Figure 10: workload fitting and distribution adjustment.

Sorts features by access frequency, fits the exponential-decay model
``freq = a * exp(-b * rank/N)`` (the paper's fit), and generates the
more-/less-skewed variants used by Figure 11 (skew 1.15 / 0.85),
keeping total accesses fixed while the decay rate changes.
"""

from benchmarks.common import failures
from repro.bench import Headline, Param, Ref, Trend, register
from repro.simulation.profiles import DEFAULT_PROFILE
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import AccessTraceAnalyzer


def _check(metrics: dict, params: dict) -> list:
    return failures(
        # The head dominates: fitted a (head frequency) far exceeds the tail.
        (metrics["fit_a"] > 50,
         "fitted head frequency too small — skew fit collapsed"),
        (metrics["fit_b"] > 0, "fitted decay rate must be positive"),
    )


@register(
    "fig10_distribution",
    params=[
        Param("skew", "float", 1.0, help="skew temperature (1.0 = original)"),
        Param("batches", "int", 150),
        Param("batch_size", "int", 256),
    ],
    smoke={"batches": 60},
    headline={
        "fit_a": Headline(direction="higher", max_regression=0.10),
        "fit_b": Headline(direction="higher", max_regression=0.10),
    },
    check=_check,
    along="skew",
    refs=[
        Ref("fit_a", "skew {skew}: a", "{:.1f}", paper="exp decay"),
        Ref("fit_b", "skew {skew}: b", "{:.1f}", paper="exp decay"),
        Ref("total_accesses", "skew {skew}: accesses", "{}"),
    ],
    trends=[
        # The paper adjusts the distribution "while keeping the total
        # amount of accesses the same"; more skew -> faster decay.
        Trend("total_accesses", along="skew", shape="flat", by=0),
        Trend("fit_b", along="skew", shape="rising", strict=True),
    ],
)
def entry(*, skew, batches, batch_size):
    """Figure 10: exponential fit ``freq = a*exp(-b*rank/N)`` of the
    access distribution at one skew temperature."""
    generator = WorkloadGenerator(DEFAULT_PROFILE.workload_config(skew))
    stream = generator.access_stream(num_batches=batches, batch_size=batch_size)
    analyzer = AccessTraceAnalyzer(stream)
    a, b = analyzer.fit_exponential()
    return {"fit_a": a, "fit_b": b, "total_accesses": analyzer.total_accesses}
