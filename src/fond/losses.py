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
inside the exponential (so it reshapes the gradient too). Either mode,
and every alpha and beta, only set the values of ``xdom_loss``'s one
positive-weight table and its beta table: all run one formula.

Inputs are checked where they enter the objective: ``BatchAnnotations``
checks its arrays' ranks and lengths (and, given ``num_classes``, the
label range), ``fond_loss`` checks the labels against the logits, and
``xdom_loss`` checks that z has unit rows and one annotation per row. A
training checks its whole label column once: its per-step annotations are
rows of it (``BatchAnnotations.take``), which ``fond_loss`` does not
range-check again. ``task_loss`` and ``fair_loss`` check nothing; they
take the probabilities and labels that ``fond_loss`` checked. Only this
module calls ``ndcore.softmax_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ndcore
from .errors import BatchTooSmallError, ConfigError, ContractError, require_finite

ALPHA_MODES = ("numerator_scale", "similarity_scale")

# Unit-norm check tolerance. Loose enough that finite-difference probes
# (h ~ 1e-5) of a normalized batch still pass the precondition.
UNIT_NORM_TOL = 1e-4

# Rows of the B x B similarity matrix that xdom_loss processes at once.
# At B = 1024 a 64-row float64 block is 512 KiB, so the block, its
# scratch and the per-pair tables stay in a core's L2 cache (2 MiB)
# across the dozen elementwise passes. On a 2-vCPU Xeon with
# single-threaded OpenBLAS, a B = 1024 call took 16.5 to 17.4 ms at 32, 64
# and 128 rows (best of 11), 17.8 ms at 16 and 19.4 ms at 256. A batch of
# at most this many rows is one block and keys each row by itself.
XDOM_BLOCK_ROWS = 64

# Ablation lattice: the values each variant forces on its config
# (``LossConfig.resolved``). Each rung removes one more ingredient of the
# full objective; the suffix letters name what is removed: F the fairness
# term, B the beta weighting, A the alpha weighting. erm drops both
# auxiliary terms, and supcon (Khosla et al. 2020) is fond_fba's forcing.
_FORCED = {"fond": {}}
_FORCED["fond_f"] = {"lambda_fair": 0.0}
_FORCED["fond_fb"] = {**_FORCED["fond_f"], "b": 1.0}
_FORCED["fond_fba"] = {**_FORCED["fond_fb"], "a": 1.0}
_FORCED["erm"] = {"lambda_xdom": 0.0, "lambda_fair": 0.0}
_FORCED["supcon"] = _FORCED["fond_fba"]
VARIANTS = tuple(_FORCED)


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
        """The effective config: the variant's values of ``_FORCED`` set.

        Idempotent, and a config whose values already obey its rules is
        returned as is, so the per-step call in ``fond_loss`` builds nothing.
        """
        forced = _FORCED[self.variant]
        if all(getattr(self, key) == value for key, value in forced.items()):
            return self
        return replace(self, **forced)

    @property
    def contrastive(self) -> bool:
        """Whether the effective objective has the contrastive term, the one
        reader of the projection z: the projection head P runs exactly then."""
        return self.resolved().lambda_xdom > 0


@dataclass(frozen=True)
class BatchAnnotations:
    """Per-sample class id, source-domain id, and linked-group flag.

    ``num_classes``, when given, is a class count G that every label has
    been checked against here (each in [0, G)); ``fond_loss`` then skips
    that check for logits with G columns.
    """

    labels: np.ndarray
    domains: np.ndarray
    linked_mask: np.ndarray
    num_classes: int | None = None

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
        if self.num_classes is not None:
            _check_label_range(labels, self.num_classes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "linked_mask", linked)

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, index) -> "BatchAnnotations":
        """The annotations of rows ``index`` (an integer index array), with
        the same ``num_classes``: rows of columns checked already, so
        nothing is coerced or checked again."""
        out = object.__new__(BatchAnnotations)
        for name, value in (("labels", self.labels[index]), ("domains", self.domains[index]),
                            ("linked_mask", self.linked_mask[index]),
                            ("num_classes", self.num_classes)):
            object.__setattr__(out, name, value)
        return out


def _check_label_range(labels: np.ndarray, num_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def _check_labels(ann: BatchAnnotations, probs_shape) -> np.ndarray:
    """The annotations' labels: one per row of an (N, G) matrix with
    N >= 1, in [0, G) (not checked again for annotations checked against
    G)."""
    labels = ann.labels
    if len(labels) != probs_shape[0]:
        raise ContractError(
            f"labels shape {labels.shape} does not match probabilities {probs_shape}"
        )
    if not labels.size:
        raise ContractError("empty batch")
    if ann.num_classes != probs_shape[1]:
        _check_label_range(labels, probs_shape[1])
    return labels


def _residual(probs, labels) -> np.ndarray:
    """probs - onehot(labels), the logit gradient of each sample's
    cross-entropy; only the true-label entries are computed (p - 1.0)."""
    resid = probs.copy()
    resid[np.arange(len(labels)), labels] -= 1.0
    return resid


def _group_means(ce, linked) -> tuple[float | None, float | None]:
    """Mean of ``ce`` over the linked samples and over the rest, None for
    an empty group. Each is float(sum) / count, which has np.mean's bits."""
    n_l = int(np.count_nonzero(linked))
    n_s = len(linked) - n_l
    return (float(ce[linked].sum()) / n_l if n_l else None,
            float(ce[~linked].sum()) / n_s if n_s else None)


def _true_label_ce(probs, labels) -> np.ndarray:
    """Per-sample cross-entropy -log p[i, y_i].

    A true-label probability that underflowed to 0 (diverging logits)
    gives +inf, not an error: the loss is then non-finite, which the
    trainer reports together with the step it happened at. Outside
    ``train`` and the CLI, numpy's divide warning comes with it.
    """
    return -np.log(probs[np.arange(len(labels)), labels])


def task_loss(probs, labels, *, ce: np.ndarray | None = None,
              resid: np.ndarray | None = None):
    """Mean cross-entropy; gradient is taken wrt the logits behind the
    probabilities, i.e. (p - onehot) / N.

    ``probs`` is a row-stochastic (N, G) float64 array with N >= 1 and
    ``labels`` one class id in [0, G) per row; neither is checked here
    (``fond_loss`` checks the labels). ``ce`` (``_true_label_ce``) and
    ``resid`` (``_residual``) are of these same arrays when the caller
    has them; None computes them here.
    """
    if ce is None:
        ce = _true_label_ce(probs, labels)
    if resid is None:
        resid = _residual(probs, labels)
    return float(ce.sum()) / len(ce), resid / probs.shape[0]   # np.mean's bits


def _distinct_pairs(labels, domains) -> tuple[np.ndarray, np.ndarray]:
    """For each row, the index of its (label, domain) pair among the
    batch's distinct pairs; and, per distinct pair, one row that holds it."""
    order = np.lexsort((domains, labels))
    sorted_labels, sorted_domains = labels[order], domains[order]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=head[1:])
    head[1:] |= sorted_domains[1:] != sorted_domains[:-1]
    pair_of = np.empty(len(order), dtype=np.intp)
    pair_of[order] = np.cumsum(head) - 1
    return pair_of, order[head]


class GramBuffer:
    """Storage for ``xdom_loss``'s Gram matrix that one caller reuses
    across calls, grown to the largest batch it has seen.

    A fresh B x B Gram matrix per call lands in the malloc heap from the
    second call on (freeing the first, mmapped one raises glibc's mmap
    threshold above its size), and the smaller per-step arrays split the
    hole it leaves, so a process's peak RSS comes to depend on allocation
    order: by 6 MB at B = 1024 between two checkouts that differ only in
    their path. One buffer kept for a whole training stays in its own
    mapping.
    """

    def __init__(self):
        self._flat = None

    def rows(self, n: int, row_len: int) -> np.ndarray:
        """An uninitialized (n, row_len) float64 array."""
        if self._flat is None or self._flat.size < n * row_len:
            self._flat = np.empty(n * row_len)
        return self._flat[:n * row_len].reshape(n, row_len)


def xdom_loss(z, ann: BatchAnnotations, cfg: LossConfig, *,
              gram_buffer: GramBuffer | None = None):
    """Pair-weighted supervised contrastive loss over unit projections.

    For each anchor i with positive set P(i) (same class, other index):

        sum_i (-1/|P(i)|) sum_{p in P(i)}
            log[ alpha_ip exp(z_i.z_p / t) / sum_{a != i} beta_ia exp(z_i.z_a / t) ]

    alpha_ip = cfg.a when anchor and positive come from different
    domains, else 1; beta_ia = cfg.b when a shares the anchor's domain
    but not its class, else 1. Anchors with no positives are skipped
    (an all-skipped batch scores 0). Returns (loss, grad_z).

    Row i of each table (the positive weights, 1 on same-class pairs and
    a on cross-domain ones under ``similarity_scale``, which serve both
    the numerator sum and the gradient's -weight / |P(i)| term; beta; the
    ``numerator_scale`` log(a) row sum) depends only on anchor i's (class,
    domain) pair, apart from its own diagonal entry. So the tables have
    one row per key, and each row block copies its anchors' rows out of
    them and sets the diagonal; every alpha mode, a and b run one loop. A
    batch that fits one block keys each row by itself (the tables are read
    in place); a larger one keys rows by their distinct (class, domain)
    pairs, K of them.

    Memory is one B x B buffer (the Gram matrix, its rows padded by at
    most 15 values, overwritten row block by row block with d loss /
    d Gram), the K x B tables (K <= B), and scratch for one block of
    ``XDOM_BLOCK_ROWS`` rows. Blocks split rows only, so every row
    reduction still runs over one whole contiguous row, and each element
    sees the same float operations in the same order as the plain
    full-matrix formula: the result does not depend on the block height,
    the keying or the padding, bit for bit.
    The B x B buffer comes from ``gram_buffer`` when given (a training
    passes one for all its steps), else it is allocated for the call.
    """
    z = ndcore.as_matrix(z, "z")
    n = z.shape[0]
    if n < 2:
        raise BatchTooSmallError(f"contrastive loss needs at least 2 samples, got {n}")
    if len(ann) != n:
        raise ContractError(f"annotations cover {len(ann)} samples, z has {n}")
    norms = np.sqrt((z * z).sum(axis=1))
    deviation = np.abs(norms - 1.0)
    if not deviation.max() <= UNIT_NORM_TOL:         # NaN fails <= too
        worst = int(deviation.argmax())
        raise ContractError(f"z row {worst} has norm {norms[worst]}, expected 1")

    labels, domains = ann.labels, ann.domains
    by_row = n <= XDOM_BLOCK_ROWS
    if by_row:
        key_of = keys = slice(None)
    else:
        key_of, keys = _distinct_pairs(labels, domains)
    same_class = labels[keys, None] == labels
    pos_rows = same_class.astype(np.float64)
    n_pos = pos_rows.sum(axis=1) - 1.0
    valid = n_pos > 0
    if not valid.any():
        return 0.0, np.zeros_like(z)
    safe_npos = np.maximum(n_pos, 1.0)
    same_domain = domains[keys, None] == domains
    cross_pos = same_class > same_domain            # same class, other domain
    # positive weights: a across domains under similarity_scale, else 1
    if cfg.alpha_mode == "numerator_scale":
        log_alpha_sum = np.where(cross_pos, np.log(cfg.a), 0.0).sum(axis=1)[key_of]
    else:
        log_alpha_sum = -0.0                        # x + -0.0 is x, signed zeros too
        pos_rows = np.where(cross_pos, cfg.a, pos_rows)
    # the gradient's -dnum / |P(i)|, as dnum / -|P(i)| (the same bits)
    coef_rows = pos_rows / -safe_npos[:, None]
    beta_rows = np.where(same_domain > same_class, cfg.b, 1.0)
    safe_npos, valid = safe_npos[key_of], valid[key_of]

    def anchor_rows(table, rows, out):
        """Rows of a key table for the anchors ``rows``: a view of the table
        when rows are their own keys, else copied into ``out``. mode="clip"
        avoids the extra buffer that the default mode writes through."""
        if by_row:
            return table[rows]
        return np.take(table, key_of[rows], axis=0, out=out, mode="clip")

    # numpy computes z @ z.T with BLAS syrk and then copies the upper
    # triangle into the lower one down each column. Past one block, a row
    # stride of an odd number of 64-byte cache lines spreads that walk over
    # the cache sets; a power-of-two stride (B = 1024) sends a whole column
    # to one set. Each block works in place in its padded Gram rows.
    lines = -(-n // 8)                              # 64-byte lines per row
    row_len = n if by_row else 8 * (lines | 1)
    gram = (np.empty((n, row_len)) if gram_buffer is None
            else gram_buffer.rows(n, row_len))[:, :n]
    np.matmul(z, z.T, out=gram)
    num_term = np.empty(n)
    log_denom = np.empty(n)
    h = min(XDOM_BLOCK_ROWS, n)
    tmp_s = np.empty((h, n))
    # Past one block, numpy's buffered iterator, at its default 8,192
    # elements, grows the inner loop of the column-broadcast ufuncs
    # (st - shift[:, None], st / denom[:, None]) and of the passes over the
    # padded Gram rows across rows, copying the broadcast column or the
    # strided rows through its buffer. A buffer one row long (rounded up to the
    # multiple of 16 that numpy requires) keeps each inner loop to one row,
    # with nothing copied; every row reduction still sees its whole row.
    bufsize = None if by_row else np.setbufsize(-(-n // 16) * 16)
    try:
        for r0 in range(0, n, h):
            rows = slice(r0, min(r0 + h, n))
            m = rows.stop - r0
            st = gram[rows]
            tmp = tmp_s[:m]
            diag = (np.arange(m), np.arange(r0, rows.stop))

            np.divide(st, cfg.temperature, out=st)
            pos = anchor_rows(pos_rows, rows, tmp)
            pos[diag] = 0.0
            num_term[rows] = np.multiply(st, pos, out=tmp).sum(axis=1)

            # row-max shift over the denominator's index set (a != i) keeps
            # exp bounded; the -inf diagonal also makes exp give its 0 there.
            # st is not read again, so exp and the gradient overwrite it.
            st[diag] = -np.inf
            shift = st.max(axis=1)
            np.subtract(st, shift[:, None], out=st)
            np.exp(st, out=st)
            np.multiply(anchor_rows(beta_rows, rows, tmp), st, out=st)
            denom = st.sum(axis=1)
            log_denom[rows] = shift + np.log(denom)

            # d loss / d st, rows zeroed for skipped anchors
            coef = anchor_rows(coef_rows, rows, tmp)
            coef[diag] = -0.0                            # 0.0 / -|P(i)|
            np.divide(st, denom[:, None], out=st)
            np.add(coef, st, out=st)
            st[~valid[rows]] = 0.0
            np.divide(st, cfg.temperature, out=st)
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)

    per_anchor = -(num_term + log_alpha_sum) / safe_npos + log_denom
    loss = float(per_anchor[valid].sum())
    grad_z = gram @ z + gram.T @ z
    return loss, grad_z


def fair_loss(probs, labels, linked_mask, *, resid: np.ndarray | None = None,
              group_ce: tuple[float | None, float | None] | None = None):
    """Absolute gap between the two groups' mean cross-entropies.

    Groups are the linked-class samples and the rest (``linked_mask``, one
    flag per row). A batch missing either group scores 0 with zero
    gradient; at an exact tie the subgradient 0 is used. Gradient is wrt
    logits. The inputs and ``resid`` are as in ``task_loss``; ``group_ce``
    is ``_group_means(_true_label_ce(probs, labels), linked_mask)`` when
    the caller has it.
    """
    linked = np.asarray(linked_mask, dtype=bool)
    if group_ce is None:
        group_ce = _group_means(_true_label_ce(probs, labels), linked)
    ce_l, ce_s = group_ce
    if ce_l is None or ce_s is None:
        return 0.0, np.zeros_like(probs)
    # Python floats: inf - inf after a diverged step is nan without a warning
    gap = ce_l - ce_s
    sign = float(np.sign(gap))
    loss = abs(gap)

    if sign == 0.0:
        return loss, np.zeros_like(probs)
    if resid is None:
        resid = _residual(probs, labels)
    # row i: (+-sign * r_i) / n_group, linked rows +sign over n_l, the rest
    # -sign over n - n_l
    n_l = int(np.count_nonzero(linked))
    row_sign = np.where(linked, sign, -sign)
    row_count = np.where(linked, float(n_l), float(len(linked) - n_l))
    return loss, (resid * row_sign[:, None]) / row_count[:, None]


@dataclass
class FondLoss:
    """Combined objective value with per-component breakdown.

    grad_z is None when the contrastive term is inactive, so downstream
    backprop can skip the projection path entirely. ``linked_ce`` and
    ``shared_ce`` are the means of the per-sample cross-entropies
    -log p[i, y_i] over the linked-class samples and over the rest (None
    for an empty group), the values the fairness gap compares.
    """

    total: float
    task: float
    xdom: float
    fair: float
    grad_logits: np.ndarray
    grad_z: np.ndarray | None
    linked_ce: float | None
    shared_ce: float | None


def fond_loss(logits, z, ann: BatchAnnotations, cfg: LossConfig, *,
              gram_buffer: GramBuffer | None = None) -> FondLoss:
    """total = task + lambda_xdom * xdom + lambda_fair * fair.

    Components with zero weight are not evaluated (their value is
    reported as 0.0 and they contribute nothing to either gradient, so
    disabling both terms reproduces plain cross-entropy training
    bit-for-bit). A single-sample batch has no pairs, so the contrastive
    component is the empty sum 0 there.

    The softmax of ``logits`` (an (N, G) float64 array) is computed here,
    once, and it, its per-sample cross-entropies, their two group means
    and the residual p - onehot are shared by the task and fairness terms.
    The labels are the one input checked (one per row, N >= 1, in [0, G);
    the range is not checked again for annotations whose ``num_classes``
    is G). ``cfg`` is resolved here, which returns a resolved config as is.
    ``gram_buffer`` goes to ``xdom_loss``. A true-label probability of 0
    gives +inf, with numpy's divide warning outside ``train`` and the CLI.
    """
    cfg = cfg.resolved()
    probs = ndcore.softmax_forward(logits)
    labels = _check_labels(ann, probs.shape)
    ce = _true_label_ce(probs, labels)
    resid = _residual(probs, labels)
    group_ce = _group_means(ce, ann.linked_mask)

    task, grad_logits = task_loss(probs, labels, ce=ce, resid=resid)
    total = task

    xdom = 0.0
    grad_z = None
    if cfg.contrastive:
        if len(labels) >= 2:
            xdom, grad_z = xdom_loss(z, ann, cfg, gram_buffer=gram_buffer)
            grad_z *= cfg.lambda_xdom
            total = total + cfg.lambda_xdom * xdom
        else:
            grad_z = np.zeros_like(z)

    fair = 0.0
    if cfg.lambda_fair > 0:
        fair, g_fair = fair_loss(probs, labels, ann.linked_mask, resid=resid,
                                 group_ce=group_ce)
        g_fair *= cfg.lambda_fair
        grad_logits += g_fair
        total = total + cfg.lambda_fair * fair

    return FondLoss(total=float(total), task=task, xdom=xdom, fair=fair,
                    grad_logits=grad_logits, grad_z=grad_z,
                    linked_ce=group_ce[0], shared_ce=group_ce[1])
