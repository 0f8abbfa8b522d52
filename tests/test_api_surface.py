"""Public API surface: everything exported resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.pmem",
    "repro.baselines",
    "repro.dlrm",
    "repro.workload",
    "repro.network",
    "repro.obs",
    "repro.simulation",
    "repro.failure",
    "repro.cost",
    "repro.bench",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} missing a module docstring"
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} in __all__ but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_objects_documented(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{package_name}.{name} has no docstring"


def test_version():
    import repro

    assert repro.__version__


class TestPSBackendProtocol:
    """Every shipped PS implementation satisfies the formal protocol."""

    def _implementations(self):
        import numpy as np

        from repro.baselines.dram_ps import DRAMPSNode
        from repro.baselines.pmem_hash import PMemHashNode
        from repro.config import CacheConfig, ServerConfig
        from repro.core.server import OpenEmbeddingServer
        from repro.network.frontend import RemotePSClient

        sc = ServerConfig(
            num_nodes=2, embedding_dim=8, pmem_capacity_bytes=1 << 22
        )
        cc = CacheConfig(capacity_bytes=1 << 18)
        del np
        return [
            OpenEmbeddingServer(sc, cc),
            RemotePSClient(sc, cc),
            DRAMPSNode(sc),
            PMemHashNode(sc),
        ]

    def test_isinstance_and_check(self):
        from repro.core.backend import TrainBackend, check_backend

        for backend in self._implementations():
            assert isinstance(backend, TrainBackend), type(backend).__name__
            assert check_backend(backend) is backend

    def test_every_implementation_is_a_read_backend(self):
        """The serving role: every shipped PS also satisfies ReadBackend."""
        from repro.core.backend import ReadBackend, TrainBackend, check_backend

        for backend in self._implementations():
            name = type(backend).__name__
            assert isinstance(backend, ReadBackend), name
            assert isinstance(backend, TrainBackend), name
            assert check_backend(backend, role="read") is backend

    def test_read_surface_is_pinned(self):
        """The ReadBackend surface is a compatibility contract: adding a
        member is a breaking change for every external backend, so the
        tuples are pinned here and may only grow deliberately."""
        from repro.core import backend as backend_module

        assert backend_module.READ_BACKEND_METHODS == ("pull", "lookup")
        assert backend_module.READ_BACKEND_PROPERTIES == (
            "num_entries",
            "latest_completed_batch",
            "latest_serving_snapshot",
            "checkpoints_completed",
        )
        assert backend_module.TRAIN_BACKEND_METHODS == (
            "push",
            "maintain",
            "request_checkpoint",
            "barrier_checkpoint",
            "complete_pending_checkpoints",
            "state_snapshot",
        )

    def test_lookup_round_trip_everywhere(self):
        """Each implementation serves a snapshot-pinned read after one
        train step + checkpoint (the serving-role protocol member)."""
        import numpy as np

        from repro.core.sharding import mix64_array

        for backend in self._implementations():
            name = type(backend).__name__
            keys = [1, 2, 3]
            backend.pull(keys, 0)
            backend.maintain(0)
            backend.push(keys, np.ones((3, 8), dtype=np.float32), 0)
            pin = backend.barrier_checkpoint()
            assert backend.latest_serving_snapshot == pin, name
            assert backend.checkpoints_completed >= 1, name
            result = backend.lookup(keys)
            assert result.weights.shape == (3, 8), name
            assert result.snapshot_id == pin, name
            # A caller holding the keys' mix (the serving tier) passes it.
            held = backend.lookup(keys, pin, mixed=mix64_array(np.array(keys, dtype=np.uint64)))
            assert held.weights.tobytes() == result.weights.tobytes(), name

    def test_psbackend_alias_is_gone(self):
        """The pre-split name resolves nowhere: no module-level shim."""
        import repro
        import repro.core
        import repro.core.backend

        for module in (repro, repro.core, repro.core.backend):
            assert "PSBackend" not in getattr(module, "__all__", ())
            with pytest.raises(AttributeError):
                module.PSBackend

    def test_check_backend_rejects_partial(self):
        from repro.core.backend import check_backend

        class Half:
            def pull(self, keys, batch_id):
                raise NotImplementedError

        with pytest.raises(TypeError, match="push"):
            check_backend(Half())

    def test_protocol_members_exercisable(self):
        """Each implementation runs one full protocol round-trip."""
        import numpy as np

        from repro.core.backend import aggregate_maintain

        for backend in self._implementations():
            name = type(backend).__name__
            keys = [1, 2, 3]
            result = backend.pull(keys, 0)
            assert result.weights.shape == (3, 8), name
            maintain = aggregate_maintain(backend.maintain(0))
            assert maintain.processed >= 0, name
            backend.push(keys, np.ones((3, 8), dtype=np.float32), 0)
            assert backend.num_entries >= 3, name
            assert backend.barrier_checkpoint() >= 0, name
            backend.complete_pending_checkpoints()  # idempotent
            assert backend.latest_completed_batch >= -1, name
            snapshot = backend.state_snapshot()
            assert set(snapshot) == set(keys), name

    def test_maintain_returns_list(self):
        """Satellite: maintain() is list[MaintainResult] everywhere."""
        from repro.core.cache import MaintainResult

        for backend in self._implementations():
            backend.pull([5, 6], 0)
            results = backend.maintain(0)
            assert isinstance(results, list), type(backend).__name__
            assert all(isinstance(r, MaintainResult) for r in results)


class TestClusterExistsOnce:
    """``RemotePSClient`` inherits cluster policy; it may not re-fork it."""

    #: Everything the RPC client is allowed to define over the facade:
    #: construction (itself, its nodes' tracers), the per-shard calls
    #: that cross the wire, and the three extensions that call
    #: ``super()`` and then do their wire-side half.
    WIRE_OVERRIDES = {
        "__init__",
        "_node_tracer",
        "_shard_pull",
        "_shard_push",
        "_shard_lookup",
        "_shard_maintain",
        "_shard_request_checkpoint",
        "_shard_export",
        "_shard_ingest",
        "_shard_drop",
        "_shard_probe",
        "_shard_promote",
        "provision_node",
        "commit_ring",
        "collect_metrics",
    }

    def test_cluster_members_resolve_to_the_facade(self):
        """Every method/property of ``OpenEmbeddingServer`` is the very
        same object on ``RemotePSClient`` unless allow-listed — pasting
        a cluster method into the client fails here."""
        import inspect

        from repro.core.server import OpenEmbeddingServer
        from repro.network.frontend import RemotePSClient

        assert issubclass(RemotePSClient, OpenEmbeddingServer)
        members = {
            name: member
            for name, member in vars(OpenEmbeddingServer).items()
            if inspect.isfunction(member)
            or isinstance(member, (property, staticmethod, classmethod))
        }
        assert {"pull", "push", "lookup", "maintain", "request_checkpoint",
                "barrier_checkpoint", "complete_pending_checkpoints",
                "flush_aggregation", "crash", "state_snapshot", "owned_keys",
                "read_weights", "aggregate_miss_rate", "num_entries",
                "global_completed_checkpoint", "latest_completed_batch",
                "latest_serving_snapshot", "checkpoints_completed",
                "_sync_external_barriers", "_route"} <= set(members)
        overridden = {
            name
            for name, member in members.items()
            if inspect.getattr_static(RemotePSClient, name) is not member
        }
        assert overridden == self.WIRE_OVERRIDES

    def test_extensions_call_the_facade(self):
        """The three non-hook overrides extend, never replace."""
        import inspect

        from repro.network.frontend import RemotePSClient

        for name in ("provision_node", "commit_ring", "collect_metrics"):
            source = inspect.getsource(getattr(RemotePSClient, name))
            assert f"super().{name}(" in source, name

    def test_moved_names_import_from_their_new_homes(self):
        """``frontend.py`` was split: the service has its own module and
        is *not* re-exported from the old one; the probe channel's policy
        lives with the client that opens it."""
        import repro.network
        import repro.network.frontend as frontend
        from repro.network.frontend import PROBE_CHANNEL_BASE, PROBE_RETRY
        from repro.network.service import DEFAULT_DEDUP_WINDOW, PSNodeService

        assert repro.network.PSNodeService is PSNodeService
        assert repro.network.RemotePSClient is frontend.RemotePSClient
        assert DEFAULT_DEDUP_WINDOW == 1024
        assert PROBE_CHANNEL_BASE == 1000 and PROBE_RETRY.max_attempts == 3
        assert PSNodeService.__module__ != frontend.__name__
        assert repro.network.__all__ == [
            "PullRequest", "PushRequest", "CheckpointRequest",
            "MaintainRequest", "StatusResponse",
            "MessageError", "decode_message", "Delivery", "RpcChannel",
            "RpcServer", "RpcStats", "RemotePSClient", "PSNodeService",
        ]


class TestOneWayToAShard:
    """Migration and failover reach a shard through the facade's
    ``_shard_*`` hooks, like training traffic: no transport seam of
    their own, in process or over the wire."""

    #: The hooks the facade had before resharding and failover used it.
    DATA_PLANE_OVERRIDES = {
        "__init__", "_node_tracer", "_shard_pull", "_shard_push",
        "_shard_lookup", "_shard_maintain", "_shard_request_checkpoint",
        "provision_node", "commit_ring", "collect_metrics",
    }

    def test_no_transport_class_anywhere(self):
        import ast

        for path, source in TestOneKeyMapPerNode.sources("").items():
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ClassDef):
                    assert not node.name.endswith("Transport"), (path, node.name)

    def test_no_protocol_in_migration_or_failover(self):
        import ast

        for path, source in TestOneKeyMapPerNode.sources("core").items():
            if path.name not in ("migration.py", "failover.py"):
                continue
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom):
                    assert "Protocol" not in [a.name for a in node.names], path
                if isinstance(node, ast.ClassDef):
                    bases = [getattr(base, "id", "") for base in node.bases]
                    assert "Protocol" not in bases, (path, node.name)

    def test_no_transport_knob(self):
        import inspect

        from repro.core.failover import FailoverManager
        from repro.core.migration import ShardMigrator

        assert "transport" not in inspect.signature(ShardMigrator.__init__).parameters
        params = inspect.signature(FailoverManager.__init__).parameters
        assert "transport" not in params and "config" not in params

    def test_the_transports_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.network.transports")

    def test_the_wire_overrides_grew_by_the_control_plane_hooks(self):
        grown = TestClusterExistsOnce.WIRE_OVERRIDES - self.DATA_PLANE_OVERRIDES
        assert self.DATA_PLANE_OVERRIDES <= TestClusterExistsOnce.WIRE_OVERRIDES
        assert grown == {
            "_shard_export", "_shard_ingest", "_shard_drop",
            "_shard_probe", "_shard_promote",
        }


def test_trainer_server_kwarg_removed():
    """Trainers take ``backend=`` only; ``server=`` is a plain TypeError."""
    from repro.config import CacheConfig, ServerConfig
    from repro.core.server import OpenEmbeddingServer
    from repro.dlrm.criteo import CriteoSynthetic
    from repro.dlrm.async_trainer import AsynchronousTrainer
    from repro.dlrm.deepfm import DeepFM
    from repro.dlrm.trainer import SynchronousTrainer

    server = OpenEmbeddingServer(
        ServerConfig(num_nodes=1, embedding_dim=8, pmem_capacity_bytes=1 << 22),
        CacheConfig(capacity_bytes=1 << 18),
    )
    model = DeepFM(4, 8, hidden=(8,), use_first_order=False, seed=0)
    dataset = CriteoSynthetic(num_fields=4, vocab_per_field=50, seed=0)
    with pytest.raises(TypeError, match="server"):
        SynchronousTrainer(server=server, model=model, dataset=dataset, batch_size=8)
    with pytest.raises(TypeError, match="server"):
        AsynchronousTrainer(server=server, model=model, dataset=dataset, batch_size=8)
    trainer = SynchronousTrainer(
        backend=server, model=model, dataset=dataset, batch_size=8
    )
    assert trainer.backend is server
    trainer.train(2)


def test_quickstart_snippet_from_readme():
    """The README's core snippet must actually run."""
    import numpy as np

    from repro import CacheConfig, OpenEmbeddingServer, ServerConfig

    server = OpenEmbeddingServer(
        ServerConfig(num_nodes=2, embedding_dim=16, pmem_capacity_bytes=1 << 22),
        CacheConfig(capacity_bytes=1 << 20),
    )
    keys = [3, 14, 159]
    result = server.pull(keys, 0)
    assert result.weights.shape == (3, 16)
    server.maintain(0)
    server.push(keys, np.ones((3, 16), dtype=np.float32), 0)
    server.request_checkpoint()


class TestOneKeyMapPerNode:
    """The node has one index (Section V-A): the DRAM hash index, whose
    slot carries the PMem pointer. The store takes heads and owns no
    key map; ``pmem/`` stays a layer below ``core/``."""

    @staticmethod
    def sources(package: str):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        return {path: path.read_text() for path in (root / package).rglob("*.py")}

    def test_pmem_imports_nothing_from_core(self):
        import ast

        for path, source in self.sources("pmem").items():
            for node in ast.walk(ast.parse(source)):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert not any(name.startswith("repro.core") for name in names), path

    def test_the_store_keeps_no_key_map(self):
        """No ``_latest`` (the retired ``key -> newest slot`` dict), no
        key-list helpers, anywhere in ``src/``; and a store under load
        holds no dict."""
        import numpy as np

        from repro.pmem.pool import PmemPool
        from repro.pmem.space import VersionedEntryStore

        for package in ("pmem", "core"):
            for path, source in self.sources(package).items():
                for retired in ("_latest", "_key_list", "_take("):
                    assert retired not in source.replace("read_latest", ""), (path, retired)
        store = VersionedEntryStore(PmemPool(1 << 16), entry_bytes=16)
        store.set_retention_barriers((1,))
        heads = store.put([1, 2, 1], [-1, -1, -1], [0, 0, 2], np.zeros((3, 4), np.float32))
        assert store.total_versions() == 3 and heads[0] == heads[2]
        held = {name: value for name, value in vars(store).items() if isinstance(value, dict)}
        assert held == {}, f"the store holds a map: {sorted(held)}"

    def test_dram_ps_keeps_its_heads_in_its_index(self):
        """DRAM-PS's checkpoint versions are found through the ``head``
        column of its one hash index, as a PSNode's are."""
        import numpy as np

        from repro.baselines import DRAMPSNode
        from repro.config import ServerConfig

        node = DRAMPSNode(ServerConfig(embedding_dim=4))
        node.pull([3, 1], 0)
        node.checkpoint(0)
        heads = node.index.columns.head[node.index.lookup(np.array([1, 3], np.uint64))]
        assert node.store.slab.key[heads].tolist() == [1, 3]
        held = [name for name, value in vars(node).items() if isinstance(value, dict)]
        assert held == [], f"the node holds a map: {held}"

    def test_store_calls_take_heads(self):
        import inspect

        from repro.pmem.space import VersionedEntryStore

        def params(name):
            return list(inspect.signature(getattr(VersionedEntryStore, name)).parameters)[1:]

        assert params("put") == ["keys", "heads", "versions", "rows"]
        assert params("read_latest") == ["heads"]
        assert params("read_at_most") == ["heads", "barrier", "columns"]
        assert params("export") == ["keys", "heads"]
        assert params("drop") == ["heads"]
        for gone in ("has", "keys", "latest_versions", "drop_key"):
            assert not hasattr(VersionedEntryStore, gone), gone


class TestInitializerExistsOnce:
    """A new key's weights are one function of ``(seed, key)``, stated in
    ``core/initializer.py`` and called from everywhere else."""

    def test_the_key_seeded_generator_is_built_in_one_place(self):
        """``default_rng((…, key))`` — a generator seeded by a key — is
        constructed once in ``src/``: the small-block branch of
        ``key_seeded_rows``. (Generators salted with a constant, a batch
        or a worker id are other streams and not counted.)"""
        import ast

        sites = []
        for path, source in TestOneKeyMapPerNode.sources("").items():
            for node in ast.walk(ast.parse(source)):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") == "default_rng"
                    and node.args
                    and isinstance(node.args[0], ast.Tuple)
                    and any(
                        isinstance(part, ast.Name) and "key" in part.id.lower()
                        for element in node.args[0].elts
                        for part in ast.walk(element)
                    )
                ):
                    sites.append(path.name)
        assert sites == ["initializer.py"]

    def test_nothing_else_draws_with_the_initializer_scale(self):
        for path, source in TestOneKeyMapPerNode.sources("").items():
            if path.name != "initializer.py":
                assert not (".uniform(" in source and "initializer_scale" in source), path

    def test_the_cache_asks_for_rows_as_one_block(self):
        import ast
        import inspect
        import textwrap

        from repro.core.cache import PipelinedCache

        body = textwrap.dedent(inspect.getsource(PipelinedCache.initial_rows))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(node, loops) for node in ast.walk(ast.parse(body)))
        assert ".tolist()" not in body

    def test_the_module_sits_below_the_store_and_the_wire(self):
        import ast

        source = TestOneKeyMapPerNode.sources("core")
        (tree,) = [ast.parse(text) for path, text in source.items() if path.name == "initializer.py"]
        imported = [
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        ]
        assert not any(name.startswith(("repro.pmem", "repro.network")) for name in imported)


class TestLookaheadExistsOnce:
    """The lookahead discipline (demand → maintain → prefetch the window →
    invalidate on push → patch → prune) is stated in ``dlrm/prefetch.py``
    and nowhere else; the simulator and both trainers drive that object."""

    def test_the_mirror_is_gone(self):
        """(``pushes_buffered``, an aggregation counter, is another word.)"""
        import re

        retired = re.compile(r"_run_prefetch_iteration|(?<![A-Za-z0-9])_buffered\b")
        for path, source in TestOneKeyMapPerNode.sources("").items():
            assert not retired.search(source), path

    def test_only_the_pipeline_reads_the_config(self):
        """``PrefetchConfig``'s fields are read in ``config.py`` (which
        validates them) and ``dlrm/prefetch.py``; everyone else passes
        the config along. (``args.lookahead`` is argparse's namespace.)"""
        import ast

        for path, source in TestOneKeyMapPerNode.sources("").items():
            if path.name == "config.py" or path.parts[-2:] == ("dlrm", "prefetch.py"):
                continue
            for node in ast.walk(ast.parse(source)):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "lookahead"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args")
                ):
                    raise AssertionError(f"{path}:{node.lineno} reads .{node.attr}")

    def test_the_pipeline_state_is_arrays(self):
        """No loop or comprehension over keys (the one comprehension walks
        the ``lookahead`` batch ids), no ``.tolist()``, no dict or set."""
        import ast
        from pathlib import Path

        import repro.dlrm.prefetch as module

        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            assert not isinstance(node, (ast.For, ast.While)), node.lineno
            if isinstance(node, ast.comprehension):
                assert isinstance(node.iter, ast.Call) and node.iter.func.id == "range", (
                    f"line {node.iter.lineno}: a comprehension over something "
                    "other than range(...)"
                )
            assert not isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)), (
                node.lineno
            )
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                assert name not in ("tolist", "dict", "set", "list"), (node.lineno, name)

    def test_the_trainers_do_not_flatten_for_the_pipeline(self):
        """``SynchronousTrainer`` pushes through one ``PSEmbedding.push``
        whether or not a pipeline sits in front of the backend."""
        import inspect

        from repro.dlrm.trainer import SynchronousTrainer

        body = inspect.getsource(SynchronousTrainer._step)
        assert "pipeline.push" not in body and "reshape" not in body


class TestCompletionIsOnePredicate:
    """A checkpoint completes when no resident row owes it — decided after
    the round (``PipelinedCache._drain``), never by the eviction walk, and
    the barrier is the same drain: no second completion path."""

    def test_the_walk_completes_no_checkpoint(self):
        """The segment planner and its victim choice never call
        ``complete_head`` and read no ``pending[0]`` (the oldest
        checkpoint, the victim test's bound)."""
        import ast

        (tree,) = [
            ast.parse(source)
            for path, source in TestOneKeyMapPerNode.sources("core").items()
            if path.name == "cache.py"
        ]
        planner = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("_plan_segment", "_victims")
        ]
        assert len(planner) == 2
        for node in (node for function in planner for node in ast.walk(function)):
            if isinstance(node, ast.Attribute):
                assert node.attr != "complete_head", node.lineno
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", "") == "pending":
                index = node.slice
                assert not (isinstance(index, ast.Constant) and index.value == 0), node.lineno

    def test_the_second_barrier_path_is_gone(self):
        import ast

        retired = {"flush_all", "complete_all_pending", "PeriodicCheckpointer"}
        for path, source in TestOneKeyMapPerNode.sources("").items():
            for node in ast.walk(ast.parse(source)):
                name = getattr(node, "name", None) or getattr(node, "attr", None)
                name = name or getattr(node, "id", None)
                assert name not in retired, (path, getattr(node, "lineno", 0), name)


class TestServingTierIsColumns:
    """The serving cache is tag / stamp / pin columns over one row block:
    no ordered dict, no row objects, no loop over the keys of a lookup."""

    @staticmethod
    def tree():
        import ast
        from pathlib import Path

        import repro.dlrm.hps as module

        return ast.parse(Path(module.__file__).read_text())

    def test_no_ordered_dict_and_no_row_objects(self):
        """(An import is an ``alias`` named ``OrderedDict``; a use, a
        ``Name`` or an ``Attribute``.)"""
        import ast

        for node in ast.walk(self.tree()):
            for field in ("name", "attr", "id"):
                name = getattr(node, field, None)
                assert name not in ("OrderedDict", "_CachedRow", "_touched"), (
                    getattr(node, "lineno", 0), name,
                )

    def test_the_lookup_and_the_admission_have_no_loop(self):
        import ast

        methods = {
            node.name: node for node in ast.walk(self.tree())
            if isinstance(node, ast.FunctionDef)
        }
        for name in ("_lookup_unpinned", "_admit"):
            for node in ast.walk(methods[name]):
                assert not isinstance(node, (ast.For, ast.While, ast.comprehension)), (
                    name, node.lineno,
                )


class TestOneRowMode:
    """Every node stores its rows: one row format from the arena to the
    wire. There is no row-less mode to ask for, in a signature, the pool
    or the wire schema."""

    def test_no_metadata_only_identifier(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for package in ("src", "benchmarks"):
            for path in (root / package).rglob("*.py"):
                assert "metadata_only" not in path.read_text(), path

    def test_no_signature_takes_it(self):
        import ast

        for path, source in TestOneKeyMapPerNode.sources("").items():
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
                    assert "metadata_only" not in names, (path, node.lineno)

    def test_the_pool_writes_arrays(self):
        """A row is a slab slot, written as a block of arrays; the pool
        has no object API beside the slab and the root to store in."""
        import numpy as np

        from repro.pmem.pool import PmemPool

        pool = PmemPool(1 << 10)
        with pytest.raises(AttributeError):
            pool.slab(16).write(np.array([1], np.uint64), np.array([0]), None)
        assert len(pool) == 0 and pool.used_bytes == 0
        for gone in ("write", "read", "free", "drain", "keys", "items", "close", "reopen"):
            assert not hasattr(pool, gone), gone

    def test_no_optional_wire_column(self):
        from repro.network.messages import _Column

        assert "optional" not in _Column._fields


class TestEveryOptionHasACaller:
    """A value no program outside the tests sets is a constant where it
    is used, not a setting: each independent option doubles the
    configurations the tests must cover."""

    #: The settings only tests (or nobody) set, by the class they left.
    RETIRED = {
        ("repro.config", "ServerConfig"): ("heartbeat_interval_s", "ring_vnodes", "partitioner"),
        ("repro.config", "PrefetchConfig"): ("patch", "max_buffer_entries"),
        ("repro.config", "NetworkFaultConfig"): ("on_request", "on_response"),
        ("repro.config", "RetryConfig"): ("backoff_multiplier",),
        ("repro.dlrm.prefetch", "PrefetchPipeline"): (
            "metrics", "clock", "gpu_batch_time_s",
        ),
        ("repro.dlrm.trainer", "SynchronousTrainer"): ("clock", "gpu_batch_time_s"),
        ("repro.dlrm.async_trainer", "AsynchronousTrainer"): (
            "clock", "gpu_batch_time_s",
        ),
        ("repro.core.failover", "FailureDetector"): ("suspect_after_s",),
        ("repro.core.failover", "FailoverManager"): ("rebuild_chunk",),
        ("repro.network.service", "PSNodeService"): ("dedup_window",),
        ("repro.network.frontend", "RemotePSClient"): ("dedup_window",),
        ("repro.core.aggregators", "AggregationBuffer"): ("dedup_window",),
        ("repro.simulation.serving_sim", "ServingCostModel"): (
            "probe_threads", "device_threads",
        ),
        ("repro.simulation.trainer_sim", "TrainingSimulator"): (
            "mttf_seed", "record_trace",
        ),
        ("repro.core.sharding", "HashPartitioner"): ("vnodes",),
    }

    def test_every_config_field_is_read_outside_config(self):
        import ast
        import dataclasses
        from pathlib import Path

        import repro.config as config

        read = set()
        for path, source in TestOneKeyMapPerNode.sources("").items():
            if path != Path(config.__file__):
                read |= {
                    node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute)
                }
        for name, cls in vars(config).items():
            if dataclasses.is_dataclass(cls) and cls.__module__ == config.__name__:
                for field in dataclasses.fields(cls):
                    assert field.name in read, f"nothing reads {name}.{field.name}"

    def test_the_retired_settings_are_gone(self):
        import dataclasses
        import inspect

        assert sum(len(names) for names in self.RETIRED.values()) == 25
        for (module, name), gone in self.RETIRED.items():
            cls = getattr(importlib.import_module(module), name)
            settable = set(inspect.signature(cls).parameters)
            if dataclasses.is_dataclass(cls):
                settable |= {field.name for field in dataclasses.fields(cls)}
            assert not settable & set(gone), (name, sorted(settable & set(gone)))


class TestEveryExportHasACaller:
    """A name in a package's ``__all__`` is API because a program calls
    it: a file in ``src/``, ``benchmarks/``, ``examples/`` or
    ``scripts/`` names it outside its own module and outside every
    ``__init__.py``. A name only its own module uses is imported from
    that module; a feature nothing runs is deleted."""

    #: Types a called function returns or takes: callers hold them
    #: without naming them, and the package exports them to say so.
    RETURNED_OR_TAKEN = {
        "ReadBackend": "check_backend(role='read') checks it; HierarchicalPS takes one",
        "RebuildReport": "ReplicatedPSNode.rebuild_backup / finish_rebuild return it",
        "CheckpointStats": "DRAMPSNode.checkpoint returns it",
        "TrainerCheckpoint": "DenseCheckpointStore.load returns it",
        "DeepFMGradients": "DeepFM.train_batch returns it",
        "DLRMGradients": "DLRM.train_batch returns it",
        "ServingStats": "HierarchicalPS.stats holds it",
        "RpcStats": "RpcChannel.stats holds it",
        "Deployment": "deployment_for_model returns it; cost_per_epoch takes it",
        "DeviceSpec": "MemoryDevice takes it",
        "EntrySlab": "PmemPool.slab returns it",
        "Span": "a Tracer.span block enters as it",
        "BenchSpec": "BenchRegistry.get returns it",
        "SweepResult": "SweepRunner.run returns it",
    }

    @staticmethod
    def own_module(package, name: str):
        """The file that defines ``package.name``, found by following the
        package's ``from ... import`` of it (constants carry no module)."""
        import ast
        from pathlib import Path

        for node in ast.parse(Path(package.__file__).read_text()).body:
            if isinstance(node, ast.ImportFrom) and name in [a.name for a in node.names]:
                module = importlib.import_module(node.module)
                if hasattr(module, "__path__"):
                    return TestEveryExportHasACaller.own_module(module, name)
                return Path(module.__file__).resolve()
        raise AssertionError(f"{package.__name__} does not import {name}")

    def test_every_export_has_a_program_caller(self):
        import ast
        import inspect
        import pkgutil
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parents[1]
        named = {}
        for folder in ("src", "benchmarks", "examples", "scripts"):
            for path in (root / folder).rglob("*.py"):
                if path.name != "__init__.py":
                    named[path.resolve()] = {
                        getattr(node, "id", None) or getattr(node, "attr", None)
                        or node.name.rpartition(".")[2]
                        for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                    }
        packages = ["repro"] + [
            f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
        ]
        uncalled, allowed = [], set()
        for package_name in packages:
            package = importlib.import_module(package_name)
            for name in package.__all__:
                own = self.own_module(package, name)
                if any(name in names for path, names in named.items() if path != own):
                    continue
                if name in self.RETURNED_OR_TAKEN:
                    assert inspect.isclass(getattr(package, name)), name
                    allowed.add(name)
                else:
                    uncalled.append(f"{package_name}.{name}")
        assert uncalled == [], f"exported, but no program calls them: {uncalled}"
        assert allowed == set(self.RETURNED_OR_TAKEN), (
            f"listed but called (or not exported): {set(self.RETURNED_OR_TAKEN) - allowed}"
        )
