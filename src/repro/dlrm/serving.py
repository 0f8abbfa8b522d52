"""Model export and read-only serving.

Production DLRM deployments (the paper's 4Paradigm scenarios serve
real-time recommendations) separate *training* — the PS with its cache,
versions and checkpoints — from *serving* — an immutable snapshot
answering lookups. This module provides that boundary:

* :func:`export_model` — freeze a trained model (all embedding entries
  + dense parameters) into one ``.npz`` artifact;
* :class:`InferenceSession` — load an artifact and serve predictions
  with no PS, no versions and no training machinery.

The export round-trip is exact: a session's predictions equal the live
trainer's for the same inputs (tested bitwise).
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.initializer import key_seeded_rows
from repro.errors import ConfigError, ServerError

_FORMAT_VERSION = 1


def _read_pinned(backend, snapshot_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Every owned key (sorted ``uint64``) and its row at ``snapshot_id``."""
    keys = np.sort(np.asarray(backend.owned_keys(), dtype=np.uint64))
    return keys, backend.lookup(keys, snapshot_id).weights


def _pinned_snapshot(server) -> tuple[np.ndarray, np.ndarray] | None:
    """Checkpoint-pinned ``(keys, weights)``, or None if unsupported.

    The preferred export path: barrier-checkpoint the server (bitwise
    flush of any cached dirty rows), then read every owned key through
    the snapshot-pinned ``lookup`` API — the same torn-row-free read
    path online serving uses. Falls back to None when the server lacks
    the serving surface or has not trained any batch yet.
    """
    required = ("lookup", "owned_keys", "barrier_checkpoint")
    if any(not callable(getattr(server, name, None)) for name in required):
        return None
    latest_batch = getattr(server, "latest_completed_batch", -1)
    if latest_batch < 0:
        return None
    snapshot_id = getattr(server, "latest_serving_snapshot", -1)
    if snapshot_id < latest_batch:
        # There is trained state newer than the newest checkpoint:
        # barrier so the export pin captures it bitwise.
        snapshot_id = server.barrier_checkpoint()
    return _read_pinned(server, snapshot_id)


def export_model(
    path: str | pathlib.Path,
    server,
    model,
) -> int:
    """Freeze ``server``'s embeddings and ``model``'s dense state.

    Servers with the serving read surface (``lookup`` / ``owned_keys``)
    are exported *checkpoint-pinned*: a barrier checkpoint is taken and
    every row is read at that pin, so the artifact is snapshot-
    consistent even if training keeps running. Servers without it fall
    back to ``state_snapshot()`` (training/debug-only, assumes the
    server is quiescent).

    Args:
        path: destination ``.npz``.
        server: any PS backend (OpenEmbedding or a baseline).
        model: a DeepFM/DLRM exposing ``dense_state()``.

    Returns the number of embedding entries exported.

    Raises:
        ServerError: the server holds no entries (nothing was trained).
    """
    if getattr(server, "num_entries", 0) == 0:
        raise ServerError("server holds no embedding entries to export")
    pinned = _pinned_snapshot(server)
    if pinned is not None:
        keys, weights = pinned
    else:
        snapshot = server.state_snapshot()
        if not snapshot:
            raise ServerError("server holds no embedding entries to export")
        ordered = sorted(snapshot)
        keys = np.array(ordered, dtype=np.uint64)
        weights = np.stack([snapshot[key] for key in ordered])
    arrays = {
        "version": np.int64(_FORMAT_VERSION),
        "keys": keys,
        "weights": weights.astype(np.float32),
        "dim": np.int64(weights.shape[1]),
        "model_kind": np.bytes_(type(model).__name__.encode()),
    }
    # Cold-start metadata: initialisation is seeded by (server seed,
    # key), so a serving session can regenerate the exact vector any
    # unseen key would get on the live PS — the same contract the
    # online lookup path uses for cold rows.
    server_config = getattr(server, "server_config", None)
    if server_config is not None:
        arrays["init_seed"] = np.int64(server_config.seed)
        arrays["init_scale"] = np.float64(server_config.initializer_scale)
    for i, tensor in enumerate(model.dense_state()):
        arrays[f"dense_{i}"] = tensor
    arrays["dense_count"] = np.int64(len(model.dense_state()))
    np.savez_compressed(path, **arrays)
    return len(keys)


class InferenceSession:
    """Read-only serving over an exported artifact.

    Args:
        path: artifact from :func:`export_model`.
        model: a fresh model instance of the same architecture; its
            dense parameters are overwritten from the artifact.
        default_weight: embedding returned for keys absent from the
            export (a cold-start key). By default the session
            regenerates the trainer's deterministic key-seeded
            initialisation (stored in the artifact), so serving matches
            the live PS even on unseen ids; pass an explicit vector
            (e.g. zeros) to override.
    """

    def __init__(self, path: str | pathlib.Path, model, default_weight=None):
        with np.load(path) as data:
            try:
                version = int(data["version"])
                # artifacts written before keys were uint64 hold int64
                keys = data["keys"].astype(np.uint64)
                weights = data["weights"]
                dense_count = int(data["dense_count"])
                dense_state = [data[f"dense_{i}"] for i in range(dense_count)]
                exported_kind = bytes(data["model_kind"]).decode()
            except KeyError as missing:
                raise ConfigError(
                    f"not a model artifact: missing field {missing}"
                ) from None
            init_seed = int(data["init_seed"]) if "init_seed" in data else None
            init_scale = float(data["init_scale"]) if "init_scale" in data else 0.0
        if version != _FORMAT_VERSION:
            raise ConfigError(f"unsupported artifact version {version}")
        if exported_kind != type(model).__name__:
            raise ConfigError(
                f"artifact holds a {exported_kind}, got a {type(model).__name__}"
            )
        model.load_dense_state([np.array(t, copy=True) for t in dense_state])
        self._init(
            model, default_weight, keys, weights,
            init_seed=init_seed,
            init_scale=init_scale,
            snapshot_id=None,  # artifact sessions are not pinned
        )

    def _init(
        self, model, default_weight, keys, weights, *, init_seed, init_scale,
        snapshot_id,
    ) -> None:
        """The one place a session's fields are set (both constructors)."""
        self.model = model
        self._keys = keys  # sorted uint64, aligned with _weights
        self._weights = np.array(weights, dtype=np.float32)
        self.dim = self._weights.shape[1]
        self._init_seed = init_seed
        self._init_scale = init_scale
        self.default_weight = None
        if default_weight is not None:
            self.default_weight = np.asarray(default_weight, dtype=np.float32)
            if self.default_weight.shape != (self.dim,):
                raise ConfigError(
                    f"default weight shape {self.default_weight.shape}, "
                    f"want ({self.dim},)"
                )
        elif init_seed is None:
            self.default_weight = np.zeros(self.dim, dtype=np.float32)
        self.cold_lookups = 0
        self.snapshot_id = snapshot_id

    @classmethod
    def from_backend(cls, backend, model, default_weight=None) -> "InferenceSession":
        """Build a session directly from a live backend, no artifact.

        Reads every owned key through the snapshot-pinned ``lookup``
        API at the backend's newest completed checkpoint — the same
        torn-row-free path online serving uses — so the session is a
        consistent cut even while training continues. The model's dense
        parameters are used as-is (it is the live, trained model).

        Args:
            backend: any :class:`~repro.core.backend.ReadBackend` that
                also exposes ``owned_keys()``.
            model: the trained DeepFM/DLRM to serve with.
            default_weight: override for cold keys (see ``__init__``).

        Raises:
            ServerError: the backend holds no entries, or has no
                completed checkpoint to pin to.
        """
        from repro.core.backend import check_backend

        check_backend(backend, role="read")
        if not callable(getattr(backend, "owned_keys", None)):
            raise ServerError(
                f"{type(backend).__name__} does not expose owned_keys(); "
                "use export_model with a file artifact instead"
            )
        if backend.num_entries == 0:
            raise ServerError("backend holds no embedding entries to serve")
        snapshot_id = backend.latest_serving_snapshot
        if snapshot_id < 0:
            raise ServerError(
                "backend has no completed checkpoint to pin the session to"
            )
        config = getattr(backend, "server_config", None)
        session = cls.__new__(cls)
        session._init(
            model,
            default_weight,
            *_read_pinned(backend, snapshot_id),
            init_seed=int(config.seed) if config is not None else None,
            init_scale=float(config.initializer_scale) if config is not None else 0.0,
            snapshot_id=snapshot_id,
        )
        return session

    @property
    def num_entries(self) -> int:
        return self._keys.size

    def lookup(self, key_matrix: np.ndarray) -> np.ndarray:
        """(batch, fields, dim) embeddings; unseen keys get the default
        (or the vector they would have on the live PS)."""
        key_matrix = np.asarray(key_matrix)
        if key_matrix.ndim != 2:
            raise ConfigError(f"key matrix must be 2-D, got {key_matrix.shape}")
        flat = key_matrix.reshape(-1).astype(np.uint64, copy=False)
        at = np.minimum(np.searchsorted(self._keys, flat), self._keys.size - 1)
        out = self._weights[at]
        cold = np.flatnonzero(self._keys[at] != flat)
        if cold.size:
            self.cold_lookups += cold.size
            out[cold] = (
                self.default_weight
                if self.default_weight is not None
                else key_seeded_rows(
                    self._init_seed, flat[cold], self._init_scale, self.dim
                )
            )
        return out.reshape(*key_matrix.shape, self.dim)

    def predict_proba(
        self, key_matrix: np.ndarray, dense: np.ndarray | None = None
    ) -> np.ndarray:
        """Click probabilities for a batch of key rows."""
        embeddings = self.lookup(key_matrix)
        if getattr(self.model, "uses_dense_features", False):
            if dense is None:
                raise ConfigError("this model requires dense features")
            return self.model.predict_proba(embeddings, dense)
        return self.model.predict_proba(embeddings)
