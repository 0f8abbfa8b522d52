"""Property-based serving consistency: no torn rows, bounded staleness.

The serving contract (docs/SERVING.md): every row a
:class:`~repro.dlrm.hps.HierarchicalPS` returns is (a) bitwise equal to
the authoritative state at the Checkpointed Batch ID the row reports —
never a torn mix of checkpoints — and (b) pinned at most
``staleness_bound_k`` completed checkpoints behind the newest.

We drive hypothesis-generated interleavings of training pushes,
read-only evaluation rounds, checkpoint requests and barriers and
concurrent serving lookups, over all three transports (in-process
server, RPC, RPC over a lossy wire), recording the live state at every
checkpoint request as that checkpoint's reference and auditing every
served row against the reference its pin names. A requested checkpoint
becomes servable only once it completed — inside a later maintenance
round or at a barrier — so the audit is the arbiter of completion too:
a checkpoint that completes before its rows are durable serves them
torn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad, PSSGD
from repro.dlrm.hps import HierarchicalPS
from repro.simulation.clock import SimClock

from tests.harness.scenario import build_backend

DIM = 4
NUM_KEYS = 12
STALENESS_K = 1
TRANSPORTS = {"local": "local", "remote": "rpc", "faulty": "rpc_lossy"}


def make_backend(transport: str, cache_rows: int | None = None):
    """Two shards; ``cache_rows`` (default: all of them) bounds each
    shard's DRAM cache, so rounds evict."""
    config = ServerConfig(
        num_nodes=2,
        embedding_dim=DIM,
        pmem_capacity_bytes=1 << 22,
        seed=9,
    )
    row_bytes = 2 * DIM * 4  # weights + the Adagrad accumulator
    cache = CacheConfig(capacity_bytes=1 << 18 if cache_rows is None else cache_rows * row_bytes)
    return build_backend(TRANSPORTS[transport], config, cache, PSAdagrad(lr=0.1), clock=SimClock())


def op_strategy():
    """One interleaved op: train a key set, read it without training
    (evaluation), request a checkpoint, take a barrier checkpoint, or
    serve a lookup."""
    keys = st.lists(
        st.integers(0, NUM_KEYS - 1), min_size=1, max_size=4, unique=True
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("train"), keys),
            st.tuples(st.just("eval"), keys),
            st.tuples(st.just("request"), st.just([])),
            st.tuples(st.just("ckpt"), st.just([])),
            st.tuples(st.just("read"), keys),
        ),
        min_size=3,
        max_size=16,
    )


def cold_init(config: ServerConfig, key: int) -> np.ndarray:
    rng = np.random.default_rng((config.seed, key))
    return rng.uniform(
        -config.initializer_scale, config.initializer_scale, DIM
    ).astype(np.float32)


def audit(tier, backend, references, keys) -> None:
    """One audited lookup: torn-row + staleness-bound assertions."""
    result = tier.lookup(keys)
    completed = sorted(references)
    newest = completed[-1]
    for j, key in enumerate(keys):
        pin = int(result.row_snapshots[j])
        lag = sum(1 for s in completed if pin < s <= newest)
        assert lag <= STALENESS_K, (
            f"row {key} pinned at {pin}, {lag} checkpoints behind {newest} "
            f"(bound {STALENESS_K})"
        )
        assert pin in references, f"row {key} pinned at unknown snapshot {pin}"
        expected = references[pin].get(int(key))
        if expected is None:
            expected = cold_init(backend.server_config, int(key))
        assert np.array_equal(result.weights[j], expected), (
            f"torn row: key {key} at pin {pin} does not match the "
            f"checkpointed reference"
        )


def run_interleaving(transport: str, schedule, cache_rows: int | None = None) -> None:
    backend = make_backend(transport, cache_rows)
    tier = HierarchicalPS(
        backend, capacity_rows=8, staleness_bound_k=STALENESS_K
    )
    #: Checkpointed Batch ID -> {key: weights at that checkpoint}, once
    #: completed; ``requested`` holds the ones still pending.
    references: dict[int, dict[int, np.ndarray]] = {}
    requested: dict[int, dict[int, np.ndarray]] = {}
    batch = 0  # one monotone batch id for training and evaluation rounds
    trained_since_ckpt = False
    for op, keys in schedule:
        if op in ("train", "eval"):
            # An evaluation round pulls and maintains past the trained
            # watermark without pushing: it advances versions, not state.
            backend.pull(keys, batch)
            backend.maintain(batch)
            if op == "train":
                grads = np.full((len(keys), DIM), 0.05, dtype=np.float32)
                backend.push(keys, grads, batch)
                trained_since_ckpt = True
            batch += 1
        elif op in ("request", "ckpt"):
            if trained_since_ckpt:
                live = {
                    int(k): np.array(v, copy=True)
                    for k, v in backend.state_snapshot().items()
                }
                take = backend.barrier_checkpoint if op == "ckpt" else backend.request_checkpoint
                requested[take()] = live
                trained_since_ckpt = False
            elif op == "ckpt":
                backend.complete_pending_checkpoints()
        elif references:  # read; nothing is servable before a checkpoint
            audit(tier, backend, references, keys)
        # A pin is servable, and audited, only once it completed.
        done = backend.latest_serving_snapshot
        for pin in [pin for pin in requested if pin <= done]:
            references[pin] = requested.pop(pin)


@pytest.mark.parametrize("transport", ["local", "remote", "faulty"])
@settings(max_examples=25)
@given(schedule=op_strategy(), cache_rows=st.sampled_from([None, 2]))
# Keys 2, 4, 5, 6 live on shard 0 and 0, 1, 3, 7 on shard 1: 2 and 0 are
# trained, read past the watermark, checkpointed, and evicted by a round
# of three other keys on each shard — the eviction that once completed
# the checkpoint without their trained rows.
@example(
    schedule=[
        ("train", [2, 0]), ("eval", [2, 0]), ("request", []),
        ("eval", [4, 5, 6]), ("eval", [1, 3, 7]), ("read", [2, 0]),
    ],
    cache_rows=2,
)
# ... and the same rows evicted before the request instead of after it.
@example(
    schedule=[
        ("train", [2, 0]), ("eval", [2, 0]), ("eval", [4, 5, 6]), ("eval", [1, 3, 7]),
        ("request", []), ("eval", [4, 5]), ("eval", [1, 3]), ("read", [2, 0]),
    ],
    cache_rows=2,
)
def test_no_torn_rows_bounded_staleness(transport, schedule, cache_rows):
    run_interleaving(transport, schedule, cache_rows)


@pytest.mark.parametrize("transport", ["local", "remote"])
@pytest.mark.parametrize("evicted", ["after_the_request", "before_the_request"])
def test_a_row_read_past_its_state_serves_the_trained_row(transport, evicted):
    """Regression: key 7 is trained at batches 0-2 and read without a
    push at 3-4, so its version runs past the checkpoint requested next
    (2) while its state stays at 2. Pulling six keys into a four-row
    cache at batch 5 evicts it — after the request, and that eviction
    used to complete checkpoint 2 (the victim's version was past it)
    without the version at 2 the row still lacked; or before the
    request, and its flush was stored under batch 4. Either way the
    pinned lookup served the cold initializer instead of the trained
    row."""
    config = ServerConfig(num_nodes=1, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=9)
    cache = CacheConfig(capacity_bytes=4 * DIM * 4)
    backend = build_backend(TRANSPORTS[transport], config, cache, PSSGD(lr=0.5), clock=SimClock())
    for batch in range(5):
        backend.pull([7], batch)
        backend.maintain(batch)
        if batch < 3:
            backend.push([7], np.full((1, DIM), 0.5, dtype=np.float32), batch)
    trained = np.array(backend.state_snapshot()[7], copy=True)
    assert not np.array_equal(trained, cold_init(config, 7))
    if evicted == "before_the_request":
        backend.pull([100, 101, 102, 103], 5)
        backend.maintain(5)
    assert backend.request_checkpoint() == 2
    backend.pull([7, 100, 101, 102, 103, 104], 6)
    backend.maintain(6)
    assert backend.latest_serving_snapshot == 2
    pinned = backend.lookup([7], 2)
    assert pinned.cold == 0
    assert np.array_equal(pinned.weights[0], trained)


def test_lookup_before_any_checkpoint_is_rejected():
    """Serving must refuse rather than serve an inconsistent cut."""
    from repro.errors import CheckpointError

    backend = make_backend("local")
    tier = HierarchicalPS(backend, capacity_rows=8)
    backend.pull([1], 0)
    backend.maintain(0)
    backend.push([1], np.ones((1, DIM), dtype=np.float32), 0)
    with pytest.raises(CheckpointError):
        tier.lookup([1])


def test_read_only_traffic_cannot_break_a_pin():
    """A barrier taken after read-only traffic still reads trained rows.

    Held-out evaluation and serving warm-up pull + maintain WITHOUT
    pushing, at batch ids far past the trained watermark. That advances
    entries' access versions while the next checkpoint still pins at
    the trained watermark — the barrier flush must leave a durable row
    at the pin (not only at the read-advanced version), otherwise a
    checkpoint-pinned export would serve cold initializers for every
    trained key.
    """
    backend = make_backend("local")
    keys = list(range(NUM_KEYS))
    for batch in range(3):
        backend.pull(keys, batch)
        backend.maintain(batch)
        backend.push(keys, np.full((len(keys), DIM), 0.1, np.float32), batch)
    live = {
        int(k): np.array(v, copy=True)
        for k, v in backend.state_snapshot().items()
    }
    for i in range(4):  # held-out evaluation: reads only, no pushes
        backend.pull(keys, 1_000_000 + i)
        backend.maintain(1_000_000 + i)
    pin = backend.barrier_checkpoint()
    assert pin == 2  # the trained watermark, not a read-only batch id
    result = backend.lookup(keys, pin)
    assert result.cold == 0
    for j, key in enumerate(keys):
        assert np.array_equal(result.weights[j], live[key])


def test_cache_never_leaks_across_pins():
    """A cached row must keep the weights of ITS pin, not the newest."""
    backend = make_backend("local")
    tier = HierarchicalPS(backend, capacity_rows=8, staleness_bound_k=1)
    for batch in range(2):
        backend.pull([1, 2], batch)
        backend.maintain(batch)
        backend.push([1, 2], np.full((2, DIM), 0.1, np.float32), batch)
    backend.barrier_checkpoint()
    cached = tier.lookup([1])  # admitted at checkpoint 1
    backend.pull([1, 2], 2)
    backend.maintain(2)
    backend.push([1, 2], np.full((2, DIM), 0.3, np.float32), 2)
    backend.barrier_checkpoint()
    lagging = tier.lookup([1])  # still inside the k=1 window
    assert int(lagging.row_snapshots[0]) == int(cached.row_snapshots[0])
    assert np.array_equal(lagging.weights, cached.weights)
    authoritative = backend.lookup([1], int(lagging.row_snapshots[0]))
    assert np.array_equal(lagging.weights, authoritative.weights)
