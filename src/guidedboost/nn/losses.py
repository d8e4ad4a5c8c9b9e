"""Loss functions with analytic gradients.

supcon_loss is the supervised contrastive loss in its mean-over-positives-
outside-the-log form; bce_loss is the per-output binary cross-entropy used by
the auxiliary head.
"""
from __future__ import annotations

import numpy as np


def supcon_loss(
    projections: np.ndarray, labels: np.ndarray, temperature: float = 0.07
) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over one batch of unit-norm embeddings.

    For anchor i with positives P(i) (same-label others) the contribution is
    -(1/|P(i)|) sum_p [S_ip - logsumexp_{a != i} S_ia] with S = Z Z^T / tau;
    anchors without positives contribute zero. Returns the batch-mean loss
    and its gradient with respect to the projections.

    Args:
        projections: (n, d) embedding rows, expected unit-norm.
        labels: (n,) binary class labels defining positives.
        temperature: tau > 0.
    """
    Z = np.asarray(projections, dtype=np.float64)
    y = np.asarray(labels)
    n = Z.shape[0]
    if n < 2:
        raise ValueError("supcon_loss: need at least 2 samples in the batch")
    if temperature <= 0.0:
        raise ValueError("supcon_loss: temperature must be positive")
    S = Z @ Z.T
    S /= temperature
    diag = np.arange(n)
    same = y[:, None] == y[None, :]
    same[diag, diag] = False
    pos_counts = same.sum(axis=1)

    # row-wise logsumexp over non-anchor entries, max-shifted for stability;
    # the -inf diagonal drops out of the max and becomes exactly 0 after exp
    S[diag, diag] = -np.inf
    row_max = S.max(axis=1)
    exp_shift = S - row_max[:, None]
    np.exp(exp_shift, out=exp_shift)
    denom = exp_shift.sum(axis=1)
    lse = row_max + np.log(denom)

    active = pos_counts > 0
    per_anchor = np.zeros(n)
    if active.any():
        S -= lse[:, None]
        pos_term = np.where(same, S, 0.0).sum(axis=1)
        per_anchor[active] = -pos_term[active] / pos_counts[active]
    loss = float(per_anchor.mean())

    # dL/dS_ij = (1/n) (softmax_ij - [j in P(i)]/|P(i)|) for active anchors
    T = exp_shift
    T /= denom[:, None]
    T -= same / np.maximum(pos_counts, 1)[:, None]
    T[~active] = 0.0
    T /= n
    grad = (T + T.T) @ Z
    grad /= temperature
    return loss, grad


def bce_loss(outputs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy averaged over every output unit.

    outputs are post-sigmoid activations in (0,1); targets are 0/1 of the
    same shape (one-hot rows for the two-unit head). Returns loss and the
    gradient with respect to the outputs.
    """
    o = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if o.shape != t.shape:
        raise ValueError("bce_loss: outputs and targets must share a shape")
    o_c = np.clip(o, 1e-12, 1.0 - 1e-12)
    loss = float(-(t * np.log(o_c) + (1.0 - t) * np.log(1.0 - o_c)).mean())
    grad = (o_c - t) / (o_c * (1.0 - o_c)) / o.size
    return loss, grad
