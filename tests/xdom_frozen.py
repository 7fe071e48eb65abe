"""Frozen copy of the full-matrix ``losses.xdom_loss``.

The row-blocked implementation in ``fond.losses`` must reproduce this
function bit for bit: same loss value, same gradient bytes. Keep this
file unchanged; it is the reference, not a second implementation.
"""

import numpy as np

from fond import ndcore
from fond.errors import BatchTooSmallError, ContractError
from fond.losses import UNIT_NORM_TOL


def ref_xdom_loss(z, ann, cfg):
    z = ndcore.as_matrix(z, "z")
    n = z.shape[0]
    if n < 2:
        raise BatchTooSmallError(f"contrastive loss needs at least 2 samples, got {n}")
    if len(ann) != n:
        raise ContractError(f"annotations cover {len(ann)} samples, z has {n}")
    norms = np.sqrt((z * z).sum(axis=1))
    if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        worst = int(np.abs(norms - 1.0).argmax())
        raise ContractError(f"z row {worst} has norm {norms[worst]!r}, expected 1")

    labels, domains = ann.labels, ann.domains
    same_class = labels[:, None] == labels[None, :]
    same_domain = domains[:, None] == domains[None, :]
    off_diag = ~np.eye(n, dtype=bool)

    pos = same_class & off_diag
    n_pos = pos.sum(axis=1)
    valid = n_pos > 0
    if not valid.any():
        return 0.0, np.zeros_like(z)

    cross_domain_pos = pos & ~same_domain
    beta = np.where(same_domain & ~same_class, cfg.b, 1.0)

    st = (z @ z.T) / cfg.temperature
    # row-max shift over the denominator's index set keeps exp bounded
    shift = np.where(off_diag, st, -np.inf).max(axis=1)
    expd = beta * np.exp(st - shift[:, None])
    expd[np.diag_indices(n)] = 0.0
    denom = expd.sum(axis=1)
    log_denom = shift + np.log(denom)

    safe_npos = np.where(valid, n_pos, 1)
    if cfg.alpha_mode == "numerator_scale":
        log_alpha_sum = np.where(cross_domain_pos, np.log(cfg.a), 0.0).sum(axis=1)
        num_term = (st * pos).sum(axis=1) + log_alpha_sum
        dnum = np.where(pos, 1.0, 0.0)
    else:
        alpha = np.where(cross_domain_pos, cfg.a, 1.0)
        num_term = (alpha * st * pos).sum(axis=1)
        dnum = np.where(pos, alpha, 0.0)

    per_anchor = -num_term / safe_npos + log_denom
    loss = float(per_anchor[valid].sum())

    # d loss / d st, rows zeroed for skipped anchors
    g_st = (-dnum / safe_npos[:, None] + expd / denom[:, None])
    g_st[~valid, :] = 0.0
    g_s = g_st / cfg.temperature
    grad_z = g_s @ z + g_s.T @ z
    return loss, grad_z
