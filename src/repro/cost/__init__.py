"""Cloud cost modelling (Table V)."""

from repro.cost.pricing import (
    PMEM_OE_DEPLOYMENT,
    Deployment,
    R6E_13XLARGE,
    RE6P_13XLARGE,
    cost_per_epoch,
    deployment_for_model,
)

__all__ = [
    "Deployment",
    "R6E_13XLARGE",
    "RE6P_13XLARGE",
    "PMEM_OE_DEPLOYMENT",
    "cost_per_epoch",
    "deployment_for_model",
]
