"""Functional DLRM training on top of the parameter server.

A numpy implementation of the paper's training stack: a DeepFM model
(Guo et al. 2017, the algorithm of Section VI-A), a PS-backed embedding
layer speaking the pull/maintain/push protocol, a synchronous
multi-worker trainer with checkpoint/recovery integration, a Keras-like
model API mirroring the paper's TensorFlow/Keras integration, and a
synthetic Criteo-like dataset.

This layer is where *correctness* is demonstrated: real weights, real
gradients, real crashes, bitwise recovery checks.
"""

from repro.dlrm.async_trainer import AsynchronousTrainer
from repro.dlrm.collection import EmbeddingCollection, TableSpec
from repro.dlrm.criteo import CriteoSynthetic
from repro.dlrm.deepfm import DeepFM, DeepFMGradients
from repro.dlrm.dlrm_model import DLRM, DLRMGradients
from repro.dlrm.embedding import PSEmbedding
from repro.dlrm.hps import HierarchicalPS, ServingStats
from repro.dlrm.keras_api import Model, PSEmbeddingLayer
from repro.dlrm.layers import MLP
from repro.dlrm.metrics import evaluate_model
from repro.dlrm.serving import InferenceSession, export_model
from repro.dlrm.optimizers import Adam, DenseOptimizer
from repro.dlrm.prefetch import PrefetchPipeline
from repro.dlrm.trainer import SynchronousTrainer, TrainerCheckpoint

__all__ = [
    "AsynchronousTrainer",
    "EmbeddingCollection",
    "TableSpec",
    "CriteoSynthetic",
    "DeepFM",
    "DeepFMGradients",
    "DLRM",
    "DLRMGradients",
    "PSEmbedding",
    "Model",
    "PSEmbeddingLayer",
    "MLP",
    "DenseOptimizer",
    "Adam",
    "PrefetchPipeline",
    "SynchronousTrainer",
    "TrainerCheckpoint",
    "evaluate_model",
    "export_model",
    "InferenceSession",
    "HierarchicalPS",
    "ServingStats",
]
