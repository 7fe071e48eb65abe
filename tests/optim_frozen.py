"""Frozen copy of the per-tensor ``trainer.optimizer_step``.

The flat-vector optimizer in ``fond.trainer`` must reproduce this
function bit for bit: same parameter bytes, same slot bytes. It works on
a plain name -> array dict with its own name -> array slots. Keep this
file unchanged; it is the reference, not a second implementation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from fond.errors import ShapeError


@dataclass
class RefOptState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def ref_optimizer_step(tensors: dict, grads: dict, state: RefOptState, cfg) -> RefOptState:
    state.step += 1
    t = state.step
    for name in sorted(grads):
        g = grads[name]
        theta = tensors[name]
        if g.shape != theta.shape:
            raise ShapeError(f"gradient {name} shape {g.shape} != parameter {theta.shape}")
        if cfg.optimizer == "sgd":
            theta -= cfg.learning_rate * g
        else:
            m = state.m.setdefault(name, np.zeros_like(theta))
            v = state.v.setdefault(name, np.zeros_like(theta))
            m *= cfg.adam_beta1
            m += (1.0 - cfg.adam_beta1) * g
            v *= cfg.adam_beta2
            v += (1.0 - cfg.adam_beta2) * (g * g)
            mhat = m / (1.0 - cfg.adam_beta1 ** t)
            vhat = v / (1.0 - cfg.adam_beta2 ** t)
            theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_eps)
    return state


def ref_grad_norm(grads: dict) -> float:
    """The trainer's logged gradient norm, summed tensor by tensor."""
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
