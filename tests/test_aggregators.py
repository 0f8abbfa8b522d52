"""Robust-aggregation math and the quorum-fold buffer."""

import inspect
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServerConfig
from repro.core import aggregators, sharding
from repro.core.aggregators import (
    AGGREGATOR_NAMES,
    AggregationBuffer,
    Krum,
    Mean,
    Median,
    TrimmedMean,
    default_byzantine_tolerance,
    make_aggregator,
)
from repro.core.ps_node import PSNode
from repro.core.sharding import summed_per_key
from repro.errors import ConfigError
from repro.obs.tracer import Tracer
from tests.harness.reference_fold import (
    ReferenceAggregationBuffer,
    make_reference_aggregator,
)

DIM = 4


def rows(*vectors):
    return np.asarray(vectors, dtype=np.float32)


class TestFoldMath:
    def test_mean_is_plain_average(self):
        out = Mean().fold(rows([1, 1, 1, 1], [3, 3, 3, 3]))
        assert np.array_equal(out, np.full(DIM, 2, dtype=np.float32))

    def test_single_row_is_bitwise_identity(self):
        g = np.array([[0.1, -0.2, 0.3, 7e-8]], dtype=np.float32)
        for agg in (Mean(), TrimmedMean(1), Median(), Krum(1)):
            assert Mean().fold(g) is g[0] or np.array_equal(agg.fold(g), g[0])

    def test_trimmed_mean_removes_one_outlier_per_end(self):
        honest = rows([1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3])
        poisoned = np.vstack([honest, rows([100, -100, 100, -100])])
        out = TrimmedMean(1).fold(poisoned)
        # f=1 trims the max and min per coordinate; the outlier never
        # survives regardless of its sign pattern.
        assert np.all(np.abs(out) <= 3)

    def test_trimmed_mean_clamps_trim_to_keep_rows(self):
        two = rows([0, 0, 0, 0], [4, 4, 4, 4])
        # trim = min(f, (m-1)//2) = 0 -> plain mean, never empty
        assert np.array_equal(
            TrimmedMean(3).fold(two), np.full(DIM, 2, dtype=np.float32)
        )

    def test_median_ignores_minority_corruption(self):
        out = Median().fold(
            rows([1, 1, 1, 1], [1, 1, 1, 1], [-50, 50, -50, 50])
        )
        assert np.array_equal(out, np.ones(DIM, dtype=np.float32))

    def test_krum_picks_from_the_honest_cluster(self):
        honest = [
            np.full(DIM, 1.0 + 0.01 * i, dtype=np.float32) for i in range(4)
        ]
        byzantine = np.full(DIM, -40.0, dtype=np.float32)
        out = Krum(1).fold(np.stack(honest + [byzantine]))
        assert any(np.array_equal(out, h) for h in honest)

    def test_default_byzantine_tolerance(self):
        # largest f with n >= 3f + 2
        assert [default_byzantine_tolerance(n) for n in (1, 2, 4, 5, 6, 8)] == [
            0, 0, 0, 1, 1, 2,
        ]

    def test_make_aggregator_registry(self):
        assert make_aggregator("none") is None
        for name in AGGREGATOR_NAMES[1:]:
            assert make_aggregator(name, f=1).name == name
        with pytest.raises(ConfigError):
            make_aggregator("bogus")


class TestSegmentSum:
    """:func:`~repro.core.sharding.summed_per_key`, the one sum of a
    push every PS applies (through :meth:`KeyPlan.summed`)."""

    def test_occurrence_order_and_duplicate_accumulation(self):
        keys = np.array([7, 3, 7, 9, 3], dtype=np.uint64)
        grads = np.arange(5 * DIM, dtype=np.float32).reshape(5, DIM)
        unique, summed = summed_per_key(keys, grads)
        assert unique.tolist() == [3, 7, 9]  # ascending
        assert np.array_equal(summed[0], grads[1] + grads[4])
        assert np.array_equal(summed[1], grads[0] + grads[2])
        assert np.array_equal(summed[2], grads[3])

    def test_far_apart_repeats_accumulate_in_occurrence_order(self):
        """A key's repeats at positions 0, 500 and 999, hundreds of other
        keys between them: float32 addition is not associative, and
        (1e8 - 1e8) + 1 is 1 while (1 - 1e8) + 1e8 is 0, so only the
        occurrence order gives these bits."""
        keys = np.arange(1000, dtype=np.uint64) + 10
        keys[[0, 500, 999]] = 5
        grads = np.zeros((1000, DIM), dtype=np.float32)
        grads[[0, 500, 999]] = [[1e8] * DIM, [-1e8] * DIM, [1.0] * DIM]
        unique, summed = summed_per_key(keys, grads)
        assert unique[0] == 5 and len(unique) == 998
        assert np.array_equal(summed[0], np.ones(DIM, dtype=np.float32))
        rev_keys, rev_grads = summed_per_key(keys[::-1].copy(), grads[::-1].copy())
        assert np.array_equal(rev_keys, unique)
        assert np.array_equal(rev_grads[0], np.zeros(DIM, dtype=np.float32))

    def test_matches_cache_fast_path_accumulation_order(self):
        """Seed-from-first then add-in-position-order, the exact float32
        sequence of a per-key loop (bitwise transparency)."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 8, size=64).astype(np.uint64)
        grads = rng.normal(0, 1, (64, DIM)).astype(np.float32)
        unique, summed = summed_per_key(keys, grads)
        for row, key in enumerate(unique.tolist()):
            positions = np.flatnonzero(keys == key)
            acc = np.array(grads[positions[0]], copy=True)
            for p in positions[1:]:
                acc = acc + grads[p]
            assert np.array_equal(summed[row], acc)


class TestAggregationBuffer:
    def push(self, buf, wid, keys, value, batch=0, seq=0):
        grads = np.full((len(keys), DIM), value, dtype=np.float32)
        return buf.add(wid, np.asarray(keys, dtype=np.uint64), grads, batch, seq=seq)

    def test_no_fold_until_quorum(self):
        buf = AggregationBuffer(Mean(), num_workers=3, f=1)  # quorum 2
        assert self.push(buf, 0, [1, 2], 1.0) == []
        assert buf.pending == 1
        folds = self.push(buf, 1, [2, 3], 3.0)
        assert len(folds) == 1 and buf.pending == 0

    def test_fold_merges_key_union_and_averages_overlap(self):
        buf = AggregationBuffer(Mean(), num_workers=2, f=0)
        self.push(buf, 0, [1, 2], 1.0)
        (fold,) = self.push(buf, 1, [2, 3], 3.0)
        got = dict(zip(fold.keys.tolist(), fold.grads[:, 0].tolist()))
        assert got == {1: 1.0, 2: 2.0, 3: 3.0}  # overlap averaged
        assert fold.contributors == 2

    def test_straggler_cannot_stall_folding(self):
        buf = AggregationBuffer(Mean(), num_workers=4, f=1)  # quorum 3
        self.push(buf, 0, [1], 1.0)
        self.push(buf, 1, [1], 1.0)
        folds = self.push(buf, 2, [1], 1.0)  # worker 3 never shows up
        assert len(folds) == 1 and folds[0].contributors == 3

    def test_single_contribution_fold_is_bitwise_identity(self):
        buf = AggregationBuffer(TrimmedMean(1), num_workers=1, f=0)
        keys = np.array([5, 9, 5], dtype=np.uint64)
        grads = np.array(
            [[0.1] * DIM, [7e-8] * DIM, [-0.3] * DIM], dtype=np.float32
        )
        (fold,) = buf.add(0, keys, grads, 4)
        ref_keys, ref_grads = summed_per_key(keys, grads)
        assert np.array_equal(fold.keys, ref_keys)
        assert np.array_equal(fold.grads, ref_grads)
        assert fold.batch_id == 4

    def test_seq_dedup_absorbs_replays(self):
        buf = AggregationBuffer(Mean(), num_workers=2, f=0)
        self.push(buf, 0, [1], 1.0, seq=7)
        assert self.push(buf, 0, [1], 1.0, seq=7) == []  # replay dropped
        assert buf.stats.duplicates_dropped == 1
        (fold,) = self.push(buf, 1, [1], 3.0, seq=8)
        assert fold.grads[0, 0] == 2.0  # the duplicate did not skew it

    def test_seq_zero_opts_out_of_dedup(self):
        buf = AggregationBuffer(Mean(), num_workers=1, f=0)
        self.push(buf, 0, [1], 1.0, seq=0)
        self.push(buf, 0, [1], 1.0, seq=0)
        assert buf.stats.duplicates_dropped == 0
        assert buf.stats.folds == 2  # both applied (quorum 1)

    def test_flush_folds_below_quorum(self):
        buf = AggregationBuffer(Mean(), num_workers=4, f=0)  # quorum 4
        self.push(buf, 0, [1], 1.0, batch=2)
        self.push(buf, 1, [1], 3.0, batch=5)
        folds = buf.flush()
        assert buf.pending == 0
        assert len(folds) == 1 and folds[0].batch_id == 5
        assert folds[0].grads[0, 0] == 2.0

    def test_counters_and_fold_span(self):
        """``rows_reduced`` counts the rows the statistic touched,
        ``max_queue_depth`` how far one worker ran ahead of the quorum,
        and every round is one ``aggregator.fold`` span."""
        buf = AggregationBuffer(Mean(), num_workers=2, f=0)
        buf.tracer = Tracer()
        self.push(buf, 0, [1, 2, 3], 1.0)
        self.push(buf, 0, [4], 1.0)  # worker 0 runs ahead: depth 2
        self.push(buf, 1, [3, 2, 9], 3.0)  # round 1: keys 2, 3 shared
        assert buf.pending == 1 and buf.stats.max_queue_depth == 2
        buf.flush()  # round 2: worker 0's second push alone
        assert (buf.stats.folds, buf.stats.rows_folded) == (2, 5)
        assert buf.stats.rows_reduced == 2
        spans = buf.tracer.spans_named("aggregator.fold")
        assert [span.attrs for span in spans] == [
            {"rows": 4, "contributors": 2, "reduced": 2},
            {"rows": 1, "contributors": 1, "reduced": 0},
        ]

    def test_node_points_the_buffer_at_its_own_tracer(self):
        tracer = Tracer()
        node = PSNode(
            0,
            ServerConfig(
                embedding_dim=DIM, pmem_capacity_bytes=1 << 22,
                aggregator="median", aggregator_workers=2, aggregator_f=0,
            ),
            tracer=tracer,
        )
        node.pull([1, 2], 0)
        node.maintain(0)
        grads = np.ones((2, DIM), dtype=np.float32)
        node.push([1, 2], grads, 0, worker_id=0, seq=1)
        assert not tracer.spans_named("aggregator.fold")  # below quorum
        node.push([2, 1], grads, 0, worker_id=1, seq=1)
        (span,) = tracer.spans_named("aggregator.fold")
        assert span.attrs == {"rows": 2, "contributors": 2, "reduced": 2}

    def test_queues_fold_in_worker_id_order_whatever_the_arrival_order(self):
        """The output keys ascend, so a shared key's rows show the queue
        order: float32 addition is not associative, and the mean of 1e8,
        -1e8 and 1 is 1/3 summed in worker order (0, 1, 2) but 0 in this
        arrival order (2, 0, 1)."""
        buf = AggregationBuffer(Mean(), num_workers=3, f=0)
        self.push(buf, 2, [7, 5], 1.0)
        self.push(buf, 0, [5], 1e8)
        (fold,) = self.push(buf, 1, [6, 5], -1e8)
        assert fold.keys.tolist() == [5, 6, 7]
        third = np.float32(1) / np.float32(3)
        assert np.array_equal(fold.grads[0], np.full(DIM, third, dtype=np.float32))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            AggregationBuffer(Mean(), num_workers=2, f=2)
        with pytest.raises(ConfigError):
            AggregationBuffer(Mean(), num_workers=0)


class _SortCountingNumpy:
    """numpy as ``core/aggregators.py`` sees it, counting its sorts."""

    SORTS = ("argsort", "sort", "unique")

    def __init__(self):
        self.calls = dict.fromkeys(self.SORTS, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.SORTS:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


class TestSortBudget:
    """The layout is one sorted order: a push is summed with at most one
    sort — its plan's, none when its keys already ascend, as a facade
    push's do — a round is laid out with one (a merge of ascending runs)
    plus the ``np.unique`` over its multiplicity classes, and no
    first-occurrence relayout (``np.unique``'s index / inverse outputs)
    comes back beside it."""

    @pytest.fixture
    def counting(self, monkeypatch):
        counting = _SortCountingNumpy()
        for module in (aggregators, sharding):  # the buffer and the plan it sums with
            monkeypatch.setattr(module, "np", counting)
        return counting

    @staticmethod
    def add(counting, buf, wid, keys):
        grads = np.random.default_rng(wid).normal(size=(len(keys), DIM)).astype(np.float32)
        before = dict(counting.calls)
        folds = buf.add(wid, keys, grads, 0)
        return folds, {name: counting.calls[name] - before[name] for name in counting.SORTS}

    def test_one_sort_per_push_and_one_merge_per_round(self, counting):
        buf = AggregationBuffer(Mean(), num_workers=3, f=0)
        rng = np.random.default_rng(5)
        for wid in range(3):
            keys = rng.integers(0, 40, size=64).astype(np.uint64)  # repeats
            folds, made = self.add(counting, buf, wid, keys)
            if wid < 2:
                assert not folds and made == {"argsort": 1, "sort": 0, "unique": 0}
            else:  # the push's sum, then the round's merge and its classes
                assert len(folds) == 1 and folds[0].contributors == 3
                assert made == {"argsort": 2, "sort": 0, "unique": 1}

    def test_an_ascending_push_sorts_nothing(self, counting):
        buf = AggregationBuffer(Mean(), num_workers=2, f=0)
        folds, made = self.add(counting, buf, 0, np.arange(0, 128, 2, dtype=np.uint64))
        assert not folds and made == {"argsort": 0, "sort": 0, "unique": 0}
        folds, made = self.add(counting, buf, 1, np.arange(0, 128, 3, dtype=np.uint64))
        assert len(folds) == 1  # only the round's merge and its classes
        assert made == {"argsort": 1, "sort": 0, "unique": 1}

    def test_no_first_occurrence_layout_in_the_module(self):
        source = inspect.getsource(aggregators)
        assert "return_index" not in source and "return_inverse" not in source

    def test_a_push_is_summed_in_one_place(self):
        """``segment_sum`` has one caller in ``src/``, ``KeyPlan.summed``:
        a second copy of the per-key sum does not come back."""
        src = Path(sharding.__file__).resolve().parents[1]
        callers = [
            (path.relative_to(src).as_posix(), line.strip())
            for path in sorted(src.rglob("*.py"))
            for line in path.read_text().splitlines()
            if re.search(r"(?<!def )\bsegment_sum\(", line)
        ]
        assert callers == [
            ("core/sharding.py", "return segment_sum(grads, self.first[self.inverse], self.first)")
        ]


# Quantised on purpose: a handful of values makes exact ties common, so
# Krum's ``argmin`` and the trim sort have to break them the way the
# per-key fold does. The second pool adds what hostile workers send:
# 3e38 squares to inf, inf - inf is NaN.
FINITE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.1, 7e-8]
FOLD_VALUES = FINITE_VALUES + [3e38, float("inf"), float("-inf"), float("nan")]


@st.composite
def fold_schedules(draw):
    """A buffer configuration and the pushes it receives."""
    workers = draw(st.integers(1, 9))
    width = draw(st.sampled_from([1, 2, 3, 8]))
    push = st.tuples(
        st.integers(0, workers - 1),  # worker id
        st.lists(st.integers(0, 11), max_size=8),  # keys, repeats allowed
        st.integers(0, 20),  # batch id
        st.integers(0, 6),  # seq: 0 opts out, small values replay
        st.sampled_from(["plain", "readonly", "strided", "fortran"]),
        st.randoms(use_true_random=False),
    )
    return (
        draw(st.sampled_from(AGGREGATOR_NAMES[1:])),
        draw(st.integers(0, 2)),  # the aggregator's f
        workers,
        width,
        draw(st.lists(push, min_size=1, max_size=24)),
    )


def fold_gradients(rng, n: int, width: int, layout: str) -> np.ndarray:
    pool = rng.choice([FINITE_VALUES, FOLD_VALUES])
    values = [rng.choice(pool) for __ in range(n * width)]
    grads = np.asarray(values, dtype=np.float32).reshape(n, width)
    if layout == "readonly":
        grads.setflags(write=False)
    elif layout == "strided":  # every other column of a wider block
        wide = np.zeros((n, 2 * width), dtype=np.float32)
        wide[:, ::2] = grads
        grads = wide[:, ::2]
    elif layout == "fortran":
        grads = np.asfortranarray(grads)
    return grads


def assert_same_folds(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.keys.dtype == b.keys.dtype and a.keys.tolist() == b.keys.tolist()
        assert a.grads.dtype == b.grads.dtype and a.grads.shape == b.grads.shape
        assert a.grads.tobytes() == b.grads.tobytes()
        assert (a.batch_id, a.contributors) == (b.batch_id, b.contributors)


class TestBlockFoldMatchesPerKeyOracle:
    """The block fold against ``tests/harness/reference_fold.py``: same
    keys in the same order, same ``batch_id`` / ``contributors`` /
    counters, and the same float32 *bits* — NaN, infinities, signed
    zeros and exact ties included."""

    @given(schedule=fold_schedules())
    @settings(max_examples=300, deadline=None)
    def test_quorum_and_flush_rounds_are_bit_identical(self, schedule):
        name, f, workers, width, pushes = schedule
        tolerated = min(f, workers - 1)
        fast = AggregationBuffer(make_aggregator(name, f), workers, tolerated)
        ref = ReferenceAggregationBuffer(
            make_reference_aggregator(name, f), workers, tolerated
        )
        with np.errstate(all="ignore"):  # overflow and inf - inf are the point
            for wid, keys, batch_id, seq, layout, rng in pushes:
                keys = np.asarray(keys, dtype=np.uint64)
                grads = fold_gradients(rng, len(keys), width, layout)
                assert_same_folds(
                    fast.add(wid, keys, grads, batch_id, seq=seq),
                    ref.add(wid, keys, grads, batch_id, seq=seq),
                )
                assert fast.pending == ref.pending
            assert_same_folds(fast.flush(), ref.flush())
        assert fast.pending == ref.pending == 0
        for counter in (
            "pushes_buffered", "duplicates_dropped", "folds", "rows_folded"
        ):
            assert getattr(fast.stats, counter) == getattr(ref.stats, counter)
        assert fast.stats.rows_reduced <= fast.stats.rows_folded

    @pytest.mark.parametrize("name", AGGREGATOR_NAMES[1:])
    @pytest.mark.parametrize("f", (0, 1, 2))
    def test_block_slices_equal_the_single_key_fold(self, name, f):
        """``fold`` on ``(n, m, width)`` is ``fold`` on each ``(m, width)``."""
        rng = np.random.default_rng(f)
        aggregator = make_aggregator(name, f)
        oracle = make_reference_aggregator(name, f)
        for m, pool in itertools.product(range(1, 10), (FINITE_VALUES, FOLD_VALUES)):
            block = rng.choice(np.asarray(pool, dtype=np.float32), size=(40, m, 5))
            with np.errstate(all="ignore"):
                folded = aggregator.fold(block)
                assert folded.shape == (40, 5) and folded.dtype == np.float32
                for i, rows_of_key in enumerate(block):
                    want = oracle.fold(rows_of_key)
                    assert folded[i].tobytes() == want.tobytes()
                    assert aggregator.fold(rows_of_key).tobytes() == want.tobytes()
