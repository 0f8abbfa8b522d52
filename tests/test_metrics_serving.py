"""CTR metrics and the export/serving path."""

import numpy as np
import pytest

from repro.config import CacheConfig, ServerConfig
from repro.core.optimizers import PSAdagrad
from repro.core.server import OpenEmbeddingServer
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM
from repro.dlrm.metrics import calibration_ratio, evaluate_model, log_loss, roc_auc
from repro.dlrm.optimizers import Adam
from repro.dlrm.serving import InferenceSession, export_model
from repro.dlrm.trainer import SynchronousTrainer
from repro.errors import ConfigError, ServerError

FIELDS, DIM = 5, 8


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 2000)
        scores = rng.random(2000)
        assert roc_auc(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_ties_average(self):
        # Two pairs with equal scores: AUC = 0.5 by symmetry.
        assert roc_auc([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_invariant_to_monotone_transform(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        scores = np.array([0.1, 0.6, 0.3, 0.9, 0.5, 0.2])
        assert roc_auc(labels, scores) == pytest.approx(
            roc_auc(labels, scores * 10 - 3)
        )

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            roc_auc([1, 1], [0.5, 0.6])


class TestLogLossCalibration:
    def test_log_loss_at_half(self):
        assert log_loss([0, 1], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_log_loss_penalises_confident_errors(self):
        good = log_loss([1], [0.9])
        bad = log_loss([1], [0.1])
        assert bad > good

    def test_log_loss_clipping(self):
        assert np.isfinite(log_loss([1, 0], [1.0, 0.0]))

    def test_calibration_perfect(self):
        assert calibration_ratio([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 1.0

    def test_calibration_overprediction(self):
        assert calibration_ratio([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]) == 2.0

    def test_calibration_no_positives(self):
        with pytest.raises(ConfigError):
            calibration_ratio([0, 0], [0.5, 0.5])


@pytest.fixture(scope="module")
def trained():
    dataset = CriteoSynthetic(num_fields=FIELDS, vocab_per_field=100, seed=8)
    server = OpenEmbeddingServer(
        ServerConfig(
            num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 26, seed=4
        ),
        CacheConfig(capacity_bytes=128 << 10),
        PSAdagrad(lr=0.05),
    )
    model = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=4)
    trainer = SynchronousTrainer(
        server, model, dataset,
        num_workers=2, batch_size=32, dense_optimizer=Adam(1e-2),
    )
    trainer.train(80)
    return trainer, server, model, dataset


class TestEvaluateModel:
    def test_trained_model_beats_chance(self, trained):
        trainer, server, model, dataset = trained
        metrics = evaluate_model(
            model, trainer.embedding, dataset, batches=8, batch_size=64
        )
        assert metrics["auc"] > 0.55
        assert metrics["logloss"] < np.log(2)
        assert 0.5 < metrics["calibration"] < 2.0


class TestExportServe:
    def test_roundtrip_predictions_identical(self, trained, tmp_path):
        trainer, server, model, dataset = trained
        path = tmp_path / "model.npz"
        exported = export_model(path, server, model)
        assert exported == server.num_entries

        fresh = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=99)
        session = InferenceSession(path, fresh)
        assert session.num_entries == exported

        batch = dataset.batch(16, 50_000)
        live_emb = trainer.embedding.pull(batch.keys, 50_000)
        server.maintain(50_000)
        live = model.predict_proba(live_emb)
        served = session.predict_proba(batch.keys)
        assert np.array_equal(live, served)

    def test_cold_keys_match_live_initialisation(self, trained, tmp_path):
        """Unseen keys serve the exact vector the live PS would create."""
        trainer, server, model, __ = trained
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        fresh = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=0)
        session = InferenceSession(path, fresh)
        unseen_key = 10_000_000
        out = session.lookup(np.full((1, FIELDS), unseen_key))
        live = server.pull([unseen_key], 90_000).weights[0]
        assert np.array_equal(out[0, 0], live)
        assert session.cold_lookups == FIELDS

    def test_explicit_default_weight_override(self, trained, tmp_path):
        trainer, server, model, __ = trained
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        fresh = DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False, seed=0)
        session = InferenceSession(
            path, fresh, default_weight=np.zeros(DIM, dtype=np.float32)
        )
        out = session.lookup(np.full((1, FIELDS), 20_000_000))
        assert np.array_equal(out, np.zeros((1, FIELDS, DIM), dtype=np.float32))

    def test_model_kind_checked(self, trained, tmp_path):
        from repro.dlrm.dlrm_model import DLRM

        trainer, server, model, __ = trained
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        wrong = DLRM(FIELDS, DIM, num_dense=3, bottom_hidden=(4,), top_hidden=(4,))
        with pytest.raises(ConfigError):
            InferenceSession(path, wrong)

    def test_empty_server_rejected(self, tmp_path):
        server = OpenEmbeddingServer(
            ServerConfig(embedding_dim=DIM, pmem_capacity_bytes=1 << 22)
        )
        model = DeepFM(FIELDS, DIM, use_first_order=False)
        with pytest.raises(ServerError):
            export_model(tmp_path / "m.npz", server, model)

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, junk=np.arange(3))
        model = DeepFM(FIELDS, DIM, use_first_order=False)
        with pytest.raises(ConfigError):
            InferenceSession(path, model)

    WIDE_KEYS = [1, 2**63 + 5, 2**64 - 1]

    def _wide_server(self):
        """A server whose resident keys span the full ``uint64`` range."""
        server = OpenEmbeddingServer(
            ServerConfig(
                num_nodes=2, embedding_dim=DIM, pmem_capacity_bytes=1 << 22, seed=4
            ),
            CacheConfig(capacity_bytes=64 << 10),
            PSAdagrad(lr=0.05),
        )
        keys = np.array(self.WIDE_KEYS, dtype=np.uint64)
        server.pull(keys, 0)
        server.maintain(0)
        server.push(keys, np.ones((3, DIM), dtype=np.float32), 0)
        return server, keys

    def test_keys_beyond_int64_round_trip(self, tmp_path):
        """The parent raised a bare ``OverflowError`` in ``export_model``
        for any resident key >= 2**63."""
        server, keys = self._wide_server()
        model = DeepFM(3, DIM, hidden=(16,), use_first_order=False, seed=4)
        path = tmp_path / "wide.npz"
        assert export_model(path, server, model) == 3
        with np.load(path) as data:
            assert data["keys"].dtype == np.uint64
        fresh = DeepFM(3, DIM, hidden=(16,), use_first_order=False, seed=9)
        expected = server.lookup(keys, server.latest_serving_snapshot).weights
        for session in (
            InferenceSession(path, fresh),
            InferenceSession.from_backend(server, model),
        ):
            rows = session.lookup(keys.reshape(1, 3))
            assert np.array_equal(rows[0], expected)
            assert session.cold_lookups == 0

    def test_int64_key_artifact_still_loads(self, trained, tmp_path):
        """Artifacts written before keys were ``uint64`` hold ``int64``."""
        trainer, server, model, dataset = trained
        path, old_path = tmp_path / "new.npz", tmp_path / "old.npz"
        export_model(path, server, model)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["keys"] = arrays["keys"].astype(np.int64)
        np.savez_compressed(old_path, **arrays)
        keys = dataset.batch(16, 50_000).keys
        sessions = [
            InferenceSession(p, DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False))
            for p in (path, old_path)
        ]
        assert np.array_equal(sessions[0].lookup(keys), sessions[1].lookup(keys))

    def test_cold_keys_are_one_block(self, trained, tmp_path, monkeypatch):
        """A lookup asks the initializer once for all its cold keys, and
        the rows are the live PS's, repeated keys and all."""
        from repro.dlrm import serving

        trainer, server, model, __ = trained
        path = tmp_path / "model.npz"
        export_model(path, server, model)
        session = InferenceSession(
            path, DeepFM(FIELDS, DIM, hidden=(16,), use_first_order=False)
        )
        calls = []
        real = serving.key_seeded_rows

        def spy(seed, keys, scale, dim):
            calls.append(len(keys))
            return real(seed, keys, scale, dim)

        monkeypatch.setattr(serving, "key_seeded_rows", spy)
        resident = int(server.owned_keys()[0])
        cold = np.arange(30_000_000, 30_000_000 + 2 * FIELDS - 1)
        matrix = np.concatenate([cold, [resident]]).reshape(2, FIELDS)
        matrix[1, 0] = cold[0]  # a repeated cold key
        out = session.lookup(matrix)
        assert calls == [2 * FIELDS - 1]
        assert session.cold_lookups == 2 * FIELDS - 1
        live = server.pull(matrix.reshape(-1), 95_000).weights
        assert np.array_equal(out.reshape(-1, DIM), live)
