"""scripts/code_lines.py: the code-line count simplicity PRs quote."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment does not uncount the line

# a comment-only line
LIMIT = 3
"""Attribute doc: a bare string statement."""


def f(x):
    """Docstring."""
    text = """a string that is
    # data, not a comment"""
    return (
        x
        + LIMIT
    )
'''


def test_counts_code_not_blank_comment_docstring_or_bare_string():
    # import, LIMIT, def, text (2 lines), return ( x + LIMIT ) (4 lines)
    assert code_lines.code_lines(FIXTURE) == 9


def test_diff_report_lists_changed_files_packages_and_total():
    report = code_lines._report(
        {"src/a/x.py": 10, "src/a/y.py": 5, "src/b/z.py": 7},
        {"src/a/x.py": 4, "src/a/y.py": 5, "src/b/new.py": 2, "src/b/z.py": 7},
    )
    rows = [line.split() for line in report.splitlines()]
    assert rows == [
        ["src/a/x.py", "10", "4", "-6"],
        ["src/b/new.py", "0", "2", "+2"],
        ["src/a/", "15", "9", "-6"],
        ["src/b/", "7", "9", "+2"],
        ["total", "22", "18", "-4"],
    ]


MISS_PATH_FILES = [
    "src/repro/core/cache.py", "src/repro/core/entry.py", "src/repro/core/hash_index.py",
    "src/repro/core/queues.py", "src/repro/core/arena.py", "src/repro/pmem/space.py",
]


def test_max_turns_the_total_into_a_budget(tmp_path, capsys):
    module = tmp_path / "m.py"
    module.write_text(FIXTURE)
    assert code_lines.main(["--max", "9", str(module)]) == 0
    assert code_lines.main(["--max", "8", str(module)]) == 1
    assert "9 exceeds the budget of 8" in capsys.readouterr().err


def test_the_miss_path_files_stay_within_their_budget():
    """What CI's tier-1 job gates: the six cache files plus the store
    (and any module split out of them) hold at most 971 code lines
    (1 103 while the cache and the store had a row-less mode, 1 074
    while a round walked its victim decisions one at a time, 962 before
    a push reused its pull's slots, 977 while ``update`` summed a push's
    repeats itself and a pull could refuse to create, 968 before a put
    skipped its prune walk while every chain is minimal under the
    barriers and a full drain stopped sorting by stamp)."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "971", *(str(root / name) for name in MISS_PATH_FILES)]) == 0


SHARD_REACH_FILES = [
    "src/repro/core/server.py", "src/repro/core/migration.py", "src/repro/core/failover.py",
    "src/repro/core/replication.py", "src/repro/network/frontend.py",
    "src/repro/network/service.py",
]


def test_reaching_a_shard_stays_within_its_budget():
    """CI's third gated budget: the facade, its RPC subclass and service,
    and the reshard / failover / replication state machines hold at most
    1 587 code lines (1 852 while failover and the services took
    settings only tests set, 1 825 before the facade checked a push's
    gradient block and folded the shards' buffers ahead of choosing a
    checkpoint id, 1 827 before pull and push took a KeyPlan and a
    reshard folded buffered pushes ahead of its quiesce check, 1 833
    while the client kept a ring-refresh RPC nothing called, 1 787
    while a replicated shard's rebuild tracked and patched the writes
    landing mid-copy and every replica kept its own ring epoch, 1 701
    while the ring word carried a vnode count and a cluster lookup
    filled a per-row snapshot array, 1 676 while the migrator refused
    a modulo cluster and a ring cluster had its own recovery entry
    point, 1 596 before a cluster lookup placed each shard's rows as one
    element per row, 1 598 while the service and the client copied
    each data reply field by field into and out of a reply class of its
    own) — one way to reach a shard, not three seams."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "1587", *(str(root / name) for name in SHARD_REACH_FILES)]) == 0


def test_key_routing_stays_within_its_budget():
    """CI's gated budget for ``core/sharding.py``: the one partitioner
    (jump consistent hash), the KeyPlan and the ring-state word hold at
    most 121 code lines (157 while the ring was a vnode point table with
    a ``bisect`` scalar path beside its vectorized one, 129 while a
    modulo partitioner and a factory choosing between the two sat
    beside it). A second placement path does not fit."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "121", str(root / "src/repro/core/sharding.py")]) == 0


WIRE_FILES = ["src/repro/network/messages.py", "src/repro/network/rpc.py"]


def test_the_wire_stays_within_its_budget():
    """CI's ninth gated budget: the message schema and the RPC channel /
    dispatcher hold at most 657 code lines (650 while a kind had no
    sender, header fields and a trace-context flag byte had no reader
    and the dispatcher kept counters nothing read; 617 while every
    message walked its kind's columns through one generic codec and
    every call ran the retry loop; 683 while every data reply was
    declared twice, as the node's result and as a ``*Response`` kind
    with the same fields, and a ``mirror`` copied one into the other).
    A kind with no sender, a field with no reader, a reply class beside
    the node's result, or a second codec beside the compiled one does
    not fit."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "657", *(str(root / name) for name in WIRE_FILES)]) == 0


LOOKAHEAD_FILES = ["src/repro/dlrm/prefetch.py", "src/repro/simulation/trainer_sim.py"]


def test_the_lookahead_discipline_stays_within_its_budget():
    """CI's gated budget for the prefetch pipeline and the simulator that
    drives it: at most 697 code lines (755 once the simulator stopped
    carrying its own copy of the discipline, 746 while the pipeline had
    an unpatched mode and a buffer cap, 741 while the pipeline charged
    the overlap on its own clock and the simulator kept a request log
    beside its tracer)."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "697", *(str(root / name) for name in LOOKAHEAD_FILES)]) == 0


SERVING_CACHE_FILES = ["src/repro/dlrm/hps.py", "src/repro/core/admission.py"]


def test_the_serving_cache_stays_within_its_budget():
    """CI's fourth gated budget: the set-associative serving tier and its
    count-min admission hold at most 260 code lines (204 + 59 while the
    cache was a per-key OrderedDict, 255 before capacity 0 forwarded to
    the backend and a set's first admitted key took its oldest way by
    argmin, the ways ordered only for sets drawing a second key, 260
    while capacity 0 rebuilt its result with ``dataclasses.replace``
    and a lookup's counters looked the stats up once per field), and
    the tier alone at most 204."""
    root = SCRIPT.parents[1]
    files = [str(root / name) for name in SERVING_CACHE_FILES]
    assert code_lines.main(["--max", "262", *files]) == 0
    assert code_lines.main(["--max", "204", files[0]]) == 0


def test_the_scenario_engine_stays_within_its_budget():
    """CI's fifth gated budget: the one scenario engine that replaced the
    crash-point, MTTF-chaos and hostile-worker harnesses (195 + 279 +
    125 = 599 code lines) holds at most 450 — a fourth harness beside it
    does not fit."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "450", str(root / "tests/harness/scenario.py")]) == 0


def test_the_aggregation_buffer_stays_within_its_budget():
    """CI's seventh gated budget: the robust aggregators and their buffer
    hold at most 208 code lines (224 while a push was summed, and a round
    laid out, in first-occurrence order; 219 while the buffer kept its
    own copy of the per-key sum). The fold's one sorted layout is the
    buffer's; a push is summed by ``sharding.summed_per_key``, and a
    second layout or sum beside them does not fit."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "208", str(root / "src/repro/core/aggregators.py")]) == 0


def test_the_baselines_and_the_pool_stay_within_their_budget():
    """CI's sixth gated budget: the Table III baselines and the PMem pool
    and store hold at most 704 code lines (514 + 498 while every layer
    had a row-less mode and the baselines looped over keys, 856 while a
    baseline push summed its repeats itself and a pull could refuse to
    create, 850 while DRAM-PS dumped its checkpoints into a second,
    per-object store in the pool with staged writes and a Transaction,
    701 before a put skipped its prune walk while every chain is
    minimal and a slab write landed in ascending slots through a byte
    view, 704 before every ``ReadBackend.lookup`` took the serving tier's
    held key mix) — one row format, moved as blocks."""
    root = SCRIPT.parents[1]
    packages = [str(root / "src/repro" / name) for name in ("baselines", "pmem")]
    assert code_lines.main(["--max", "705", *packages]) == 0


def test_the_cli_stays_within_its_budget():
    """CI's eighth gated budget: the command-line front holds at most 717
    code lines (1 028 while `repro faults` and `repro serve-bench`
    restated the network-faults and serving benches, 740 while six
    commands each turned a ConfigError into exit 2 instead of `main`,
    726 while `repro trace` kept its own exit-2 block, 723 while three
    commands each turned lookahead 0 into "no prefetch config", 720
    while `repro simulate` took a ring vnode count).
    Experiments run through `repro bench`; a command that rebuilds a
    bench's cluster does not fit."""
    root = SCRIPT.parents[1]
    assert code_lines.main(["--max", "717", str(root / "src/repro/cli.py")]) == 0
