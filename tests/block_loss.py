"""The validation loss in the form nn.batch_loss must give it, from a
one-shot pass over every row."""

import numpy as np

from pgclab import nn


def block_sum_loss(m, x, t, cfg=None):
    """batch_loss as one pass over every row, then one np.sum over the
    float64 squared errors of each nn.row_blocks block, the block sums
    added in order, plus the regularizer term."""
    d = nn._forward_acts(m, x)[-1].astype(np.float64)
    d -= t
    d *= d
    total = 0.0
    for lo, hi in nn.row_blocks(x.shape[0]):
        total += np.sum(d[lo:hi])
    value = float(total) / x.shape[0]
    if cfg is not None and cfg.lam > 0:
        value += cfg.lam * nn.weight_sq_sum(m)
    return value
