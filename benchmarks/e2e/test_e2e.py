"""``run.py --selftest`` as pytest (``PYTHONPATH=src python -m pytest benchmarks/e2e``).

Tier-1's ``testpaths = ["tests"]`` does not collect this file: it times
nothing, but it spawns every workload once at smoke scale (~20 s).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run as e2e  # noqa: E402


@pytest.fixture(scope="module")
def guards():
    return e2e.selftest_guards()


def test_each_workload_does_what_it_says(guards):
    """A bench whose metrics do not move when its parameters do is a bug."""
    broken = [f"{label} ({detail})" for label, ok, detail in guards if not ok]
    assert not broken, broken


LOWER = {"name": "op_refs_p50", "better": "lower", "bound": 0.10}
HIGHER = {"name": "samples_per_ref", "better": "higher", "bound": 0.10}


@pytest.mark.parametrize(
    "metric, a, b, expected",
    [
        (LOWER, [10.0], [10.5], "within-bound"),
        (LOWER, [10.0], [11.5], "regressed"),
        (LOWER, [10.0], [8.0], "improved"),
        (HIGHER, [100.0], [85.0], "regressed"),
        (HIGHER, [100.0], [120.0], "improved"),
        # A spread wider than the bound resolves nothing, whatever the medians say.
        (LOWER, [8.0, 10.0, 12.0], [14.0, 15.0, 16.0], "unresolved"),
    ],
)
def test_compare_verdicts(metric, a, b, expected):
    def entry(runs):
        return {"value": e2e.statistics.median(runs), "runs": runs}

    assert e2e.verdict(metric, entry(a), entry(b))[0] == expected


def test_compare_gates_lookup_rows_per_ref(tmp_path):
    """A read-path regression on serve_mixed fails --compare on its own."""
    contract = e2e.load_contract()

    def result(rows_per_ref):
        end_to_end = {
            m["name"]: {"value": 1.0, "runs": [1.0]} for m in contract["end_to_end"]
        }
        end_to_end["failed_ops_ratio"] = {"value": 0.0}
        end_to_end["train_loss"] = {"value": 0.5}
        end_to_end["lookup_rows_per_ref"] = {"value": rows_per_ref}
        return {
            "env": {"seed": 1, "git_sha": "x", "ops": {}},
            "workloads": {"serve_mixed": {"end_to_end": end_to_end, "per_layer": {}}},
        }

    paths = {}
    for label, rows_per_ref in (("base", 100.0), ("same", 95.0), ("half", 50.0)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(e2e.json.dumps(result(rows_per_ref)))
    assert e2e.compare(str(paths["base"]), str(paths["same"])) == 0
    assert e2e.compare(str(paths["base"]), str(paths["half"])) == 1
