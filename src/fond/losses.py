"""Training objectives: cross-entropy, weighted cross-domain contrastive
loss, group-fairness regularizer, and their weighted combination.

All losses return ``(scalar, gradient)`` with analytic gradients; the
combined objective additionally reports its component breakdown. The
contrastive term operates on unit-norm projections z and is weighted by
two scalars:

  alpha (>= 1)  boosts same-class pairs whose two samples come from
                different domains (the cross-domain positives),
  beta  (>= 1)  boosts same-domain different-class pairs in the
                denominator (the hard intra-domain negatives).

``alpha_mode`` selects where alpha enters: ``numerator_scale`` multiplies
the numerator term (so it shifts the loss by a constant and leaves the
gradient untouched), ``similarity_scale`` multiplies the similarity
inside the exponential (so it reshapes the gradient too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ndcore
from .errors import BatchTooSmallError, ConfigError, ContractError, ShapeError, require_finite

ALPHA_MODES = ("numerator_scale", "similarity_scale")

# Ablation lattice: each variant removes ingredients from the full
# objective. The suffix letters name what is removed: F the fairness
# term, B the beta weighting, A the alpha weighting.
VARIANTS = ("fond", "fond_f", "fond_fb", "fond_fba", "erm", "supcon")

# Unit-norm check tolerance. Loose enough that finite-difference probes
# (h ~ 1e-5) of a normalized batch still pass the precondition.
UNIT_NORM_TOL = 1e-4

PROB_ROW_TOL = 1e-9

# Rows of the B x B similarity matrix that xdom_loss processes at once.
# At B = 1024 a 64-row float64 block is 512 KiB, so the block and its
# scratch stay in a core's L2 cache (2 MiB) across the dozen elementwise
# passes. On a 2-vCPU Xeon with single-threaded OpenBLAS, 32 to 128 rows
# all ran a B = 1024 call in about 32 ms (68 ms unblocked); 16 and 256
# were about 5% slower.
XDOM_BLOCK_ROWS = 64


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.1
    a: float = 1.0
    b: float = 1.0
    lambda_xdom: float = 0.0
    lambda_fair: float = 0.0
    alpha_mode: str = "numerator_scale"
    variant: str = "fond"

    def __post_init__(self):
        require_finite(temperature=self.temperature, a=self.a, b=self.b,
                       lambda_xdom=self.lambda_xdom, lambda_fair=self.lambda_fair)
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.a < 1:
            raise ConfigError(f"a must be >= 1, got {self.a}")
        if self.b < 1:
            raise ConfigError(f"b must be >= 1, got {self.b}")
        if self.lambda_xdom < 0 or self.lambda_fair < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigError(f"alpha_mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    def resolved(self) -> "LossConfig":
        """Apply the variant's forcing rules and return the effective config.

        erm drops both auxiliary terms; supcon and fond_fba disable the
        pair weightings; fond_fb disables beta only; every variant other
        than fond drops the fairness term. Idempotent.
        """
        cfg = self
        if cfg.variant == "erm":
            cfg = replace(cfg, lambda_xdom=0.0, lambda_fair=0.0)
        elif cfg.variant in ("supcon", "fond_fba"):
            cfg = replace(cfg, a=1.0, b=1.0, lambda_fair=0.0)
        elif cfg.variant == "fond_fb":
            cfg = replace(cfg, b=1.0, lambda_fair=0.0)
        elif cfg.variant == "fond_f":
            cfg = replace(cfg, lambda_fair=0.0)
        return cfg


@dataclass(frozen=True)
class BatchAnnotations:
    """Per-sample class id, source-domain id, and linked-group flag."""

    labels: np.ndarray
    domains: np.ndarray
    linked_mask: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        domains = np.asarray(self.domains, dtype=np.int64)
        linked = np.asarray(self.linked_mask, dtype=bool)
        if not labels.ndim == domains.ndim == linked.ndim == 1:
            raise ContractError("batch annotations must be 1-D arrays")
        if not len(labels) == len(domains) == len(linked):
            raise ContractError(
                f"annotation lengths differ: labels {len(labels)}, "
                f"domains {len(domains)}, linked_mask {len(linked)}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "linked_mask", linked)

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_plan(cls, labels, domains, plan) -> "BatchAnnotations":
        labels = np.asarray(labels, dtype=np.int64)
        linked = np.isin(labels, np.asarray(sorted(plan.linked_classes), dtype=np.int64))
        return cls(labels=labels, domains=domains, linked_mask=linked)


def _check_probabilities(probabilities, labels):
    probs = ndcore.as_matrix(probabilities, "probabilities")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or len(labels) != probs.shape[0]:
        raise ContractError(
            f"labels shape {labels.shape} does not match probabilities {probs.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= probs.shape[1]):
        raise ContractError(
            f"labels must lie in [0, {probs.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > PROB_ROW_TOL:
        worst = int(np.abs(row_sums - 1.0).argmax())
        raise ContractError(
            f"probability row {worst} sums to {row_sums[worst]!r}, not 1"
        )
    return probs, labels


def _onehot(labels, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _true_label_ce(probs, labels) -> np.ndarray:
    """Per-sample cross-entropy -log p[i, y_i].

    A true-label probability that underflowed to 0 (diverging logits)
    gives +inf, not an error: the loss is then non-finite, which the
    trainer reports together with the step it happened at.
    """
    picked = probs[np.arange(len(labels)), labels]
    with np.errstate(divide="ignore"):
        return -np.log(picked)


def task_loss(probabilities, labels, *, validate: bool = True):
    """Mean cross-entropy; gradient is taken wrt the logits behind the
    probabilities, i.e. (p - onehot) / N.

    ``validate=False`` skips the input checks, for a caller that has run
    ``_check_probabilities`` on these same arrays.
    """
    probs, labels = (_check_probabilities(probabilities, labels) if validate
                     else (probabilities, labels))
    n = probs.shape[0]
    if n == 0:
        raise ContractError("empty batch")
    loss = float(_true_label_ce(probs, labels).mean())
    grad_logits = (probs - _onehot(labels, probs.shape[1])) / n
    return loss, grad_logits


def xdom_loss(z, ann: BatchAnnotations, cfg: LossConfig):
    """Pair-weighted supervised contrastive loss over unit projections.

    For each anchor i with positive set P(i) (same class, other index):

        sum_i (-1/|P(i)|) sum_{p in P(i)}
            log[ alpha_ip exp(z_i.z_p / t) / sum_{a != i} beta_ia exp(z_i.z_a / t) ]

    alpha_ip = cfg.a when anchor and positive come from different
    domains, else 1; beta_ia = cfg.b when a shares the anchor's domain
    but not its class, else 1. Anchors with no positives are skipped
    (an all-skipped batch scores 0). Returns (loss, grad_z).

    Memory is one B x B buffer (the Gram matrix, overwritten row block
    by row block with d loss / d Gram) plus scratch for one block of
    ``XDOM_BLOCK_ROWS`` rows. Blocks split rows only, so every row
    reduction still runs over one whole contiguous row, and each
    element sees the same float operations in the same order as the
    plain full-matrix formula: the result does not depend on the block
    height, bit for bit.
    """
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
    sorted_labels = np.sort(labels)
    first = np.searchsorted(sorted_labels, labels, "left")
    n_pos = np.searchsorted(sorted_labels, labels, "right") - first - 1
    valid = n_pos > 0
    if not valid.any():
        return 0.0, np.zeros_like(z)
    safe_npos = np.where(valid, n_pos, 1)
    neg_npos = -safe_npos[:, None].astype(np.float64)
    # equal codes <=> equal ids; int32 codes compare twice as fast as int64 ids
    class_code = first.astype(np.int32)
    domain_code = np.searchsorted(np.sort(domains), domains).astype(np.int32)
    numerator_mode = cfg.alpha_mode == "numerator_scale"

    buf = z @ z.T
    num_term = np.empty(n)
    log_denom = np.empty(n)
    h = min(XDOM_BLOCK_ROWS, n)
    expd_s, tmp_s = np.empty((h, n)), np.empty((h, n))
    pos_s, same_domain_s, mask_s = (np.empty((h, n), dtype=bool) for _ in range(3))
    for r0 in range(0, n, h):
        rows = slice(r0, min(r0 + h, n))
        m = rows.stop - r0
        st, expd, tmp = buf[rows], expd_s[:m], tmp_s[:m]
        pos, same_domain, mask = pos_s[:m], same_domain_s[:m], mask_s[:m]
        diag = (np.arange(m), np.arange(r0, rows.stop))

        np.divide(st, cfg.temperature, out=st)
        np.equal(class_code[rows, None], class_code[None, :], out=pos)
        np.equal(domain_code[rows, None], domain_code[None, :], out=same_domain)

        # row-max shift over the denominator's index set (a != i) keeps
        # exp bounded; the -inf diagonal also makes exp give its 0 there
        st_diag = st[diag]
        st[diag] = -np.inf
        shift = st.max(axis=1)
        np.subtract(st, shift[:, None], out=expd)
        np.exp(expd, out=expd)
        st[diag] = st_diag
        np.greater(same_domain, pos, out=mask)       # same domain, other class
        np.multiply(np.where(mask, cfg.b, 1.0), expd, out=expd)
        denom = expd.sum(axis=1)
        log_denom[rows] = shift + np.log(denom)

        pos[diag] = False
        np.greater(pos, same_domain, out=mask)        # cross-domain positives
        if numerator_mode:
            np.multiply(st, pos, out=tmp)
            st_pos_sum = tmp.sum(axis=1)
            np.multiply(mask, np.log(cfg.a), out=tmp)
            num_term[rows] = st_pos_sum + tmp.sum(axis=1)
            dnum = pos
        else:
            alpha = np.where(mask, cfg.a, 1.0)
            np.multiply(alpha, st, out=tmp)
            np.multiply(tmp, pos, out=tmp)
            num_term[rows] = tmp.sum(axis=1)
            dnum = np.where(pos, alpha, 0.0)

        # d loss / d st, rows zeroed for skipped anchors, written over st;
        # dnum / -|P(i)| has the same bits as -dnum / |P(i)|
        np.divide(dnum, neg_npos[rows], out=tmp)
        np.divide(expd, denom[:, None], out=expd)
        np.add(tmp, expd, out=expd)
        expd[~valid[rows]] = 0.0
        np.divide(expd, cfg.temperature, out=st)

    per_anchor = -num_term / safe_npos + log_denom
    loss = float(per_anchor[valid].sum())
    grad_z = buf @ z + buf.T @ z
    return loss, grad_z


def fair_loss(probabilities, labels, linked_mask, *, validate: bool = True):
    """Absolute gap between the two groups' mean cross-entropies.

    Groups are the linked-class samples and the rest. A batch missing
    either group scores 0 with zero gradient; at an exact tie the
    subgradient 0 is used. Gradient is wrt logits. ``validate`` is as
    in ``task_loss``.
    """
    probs, labels = (_check_probabilities(probabilities, labels) if validate
                     else (probabilities, labels))
    linked = np.asarray(linked_mask, dtype=bool)
    if linked.shape != labels.shape:
        raise ContractError(
            f"linked_mask shape {linked.shape} does not match labels {labels.shape}"
        )
    n_l = int(linked.sum())
    n_s = int((~linked).sum())
    if n_l == 0 or n_s == 0:
        return 0.0, np.zeros_like(probs)
    ce = _true_label_ce(probs, labels)
    # Python floats: inf - inf after a diverged step is nan without a warning
    gap = float(ce[linked].mean()) - float(ce[~linked].mean())
    sign = float(np.sign(gap))
    loss = abs(gap)

    grad = np.zeros_like(probs)
    if sign != 0.0:
        resid = probs - _onehot(labels, probs.shape[1])
        grad[linked] = sign * resid[linked] / n_l
        grad[~linked] = -sign * resid[~linked] / n_s
    return loss, grad


@dataclass
class FondLoss:
    """Combined objective value with per-component breakdown.

    grad_z is None when the contrastive term is inactive, so downstream
    backprop can skip the projection path entirely.
    """

    total: float
    task: float
    xdom: float
    fair: float
    grad_logits: np.ndarray
    grad_z: np.ndarray | None
    config: LossConfig


def fond_loss(logits, z, ann: BatchAnnotations, cfg: LossConfig,
              probs=None) -> FondLoss:
    """total = task + lambda_xdom * xdom + lambda_fair * fair.

    Components with zero weight are not evaluated (their value is
    reported as 0.0 and they contribute nothing to either gradient, so
    disabling both terms reproduces plain cross-entropy training
    bit-for-bit). A single-sample batch has no pairs, so the contrastive
    component is the empty sum 0 there.

    ``probs`` is ``softmax_forward(logits)`` when the caller already has
    it (``networks.forward_pass`` does); otherwise it is computed here.
    Either way it is checked once and shared by the task and fairness
    terms.
    """
    cfg = cfg.resolved()
    logits = ndcore.as_matrix(logits, "logits")
    if len(ann) != logits.shape[0]:
        raise ContractError(f"annotations cover {len(ann)} samples, logits have {logits.shape[0]}")
    if probs is None:
        probs = ndcore.softmax_forward(logits)
    elif np.shape(probs) != logits.shape:
        raise ShapeError(f"probs{np.shape(probs)} vs logits{logits.shape}")
    probs, labels = _check_probabilities(probs, ann.labels)

    task, grad_logits = task_loss(probs, labels, validate=False)
    total = task

    xdom = 0.0
    grad_z = None
    if cfg.lambda_xdom > 0:
        if logits.shape[0] >= 2:
            xdom, g_z = xdom_loss(z, ann, cfg)
            grad_z = cfg.lambda_xdom * g_z
            total = total + cfg.lambda_xdom * xdom
        else:
            grad_z = np.zeros_like(ndcore.as_matrix(z, "z"))

    fair = 0.0
    if cfg.lambda_fair > 0:
        fair, g_fair = fair_loss(probs, labels, ann.linked_mask, validate=False)
        grad_logits = grad_logits + cfg.lambda_fair * g_fair
        total = total + cfg.lambda_fair * fair

    return FondLoss(total=float(total), task=task, xdom=xdom, fair=fair,
                    grad_logits=grad_logits, grad_z=grad_z, config=cfg)
