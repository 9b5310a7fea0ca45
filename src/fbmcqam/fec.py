"""Rate-1/2 convolutional coding with a batched Viterbi decoder.

Constraint length 7, generators octal 133 and 171 (first output stream from
133), zero-terminated with six flush bits. The decoder runs the 64-state
trellis over a whole batch of codewords at once on per-bit log-likelihood
ratios (positive = bit 0 likelier); a hard decision decodes as the LLRs
``1 - 2 * bits``. A global scaling of the LLRs cannot change the decoded
path. Encoder and decoder take bits along the last axis and a leading axis,
if any, as the batch.

The decoder keeps its path metrics states-major, one row per state and one
column per codeword, in float64. Its rows follow a fixed permutation of the
states (``_ROW``) chosen so that the LLR additions of each trellis step fall
on a few contiguous row ranges. A branch's cost is formed as
``(metric + lam0*c0) + lam1*c1`` in that order, skipping a term whose coded
bit is 0 (adding a signed zero leaves a metric unchanged, and metrics are
never -0). On a tie between the two predecessors of a state the even one
(input history bit 0) survives: the odd branch wins only when its cost is
strictly smaller. Any change of precision, order or layout must keep these
decisions, ties included; the reference decoder in ``tests/helpers.py`` pins
them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_encode", "viterbi_decode", "CONSTRAINT_LENGTH", "GENERATORS"]

CONSTRAINT_LENGTH = 7
GENERATORS = (0o133, 0o171)
_MEMORY = CONSTRAINT_LENGTH - 1
_NSTATES = 1 << _MEMORY


def _parity(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> 4)
    x = x ^ (x >> 2)
    x = x ^ (x >> 1)
    return x & 1


def _transitions():
    """Per next-state predecessor table and the transition output bits.

    Returns pred (64, 2) previous states, out0/out1 (64, 2) coded bits of the
    transition from pred[s', j] into s'.
    """
    nxt = np.arange(_NSTATES)
    inp = nxt >> (_MEMORY - 1)
    base = (nxt & ((_NSTATES >> 1) - 1)) << 1
    pred = np.stack([base, base + 1], axis=1)
    word = (inp[:, None] << _MEMORY) | pred
    out0 = _parity(word & GENERATORS[0])
    out1 = _parity(word & GENERATORS[1])
    return pred, out0, out1


def _runs(mask: np.ndarray) -> tuple[slice, ...]:
    """The contiguous runs of True in a 1-D mask, as slices."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int), [0]])))
    return tuple(slice(int(a), int(b)) for a, b in zip(edges[0::2], edges[1::2]))


def _layout():
    """Row order of the states-major metrics and the per-step tables.

    States are sorted by the coded-bit pair of their even-predecessor branch
    in Gray order 00, 01, 11, 10; the odd branch carries the complement. A
    step gathers both branches' predecessor metrics into a (128, B) cost
    buffer (even branch in rows 0-63, odd in 64-127, both in metric row
    order), so the rows that add lam0 or lam1 form a few runs each.
    Returns row (state -> metric row), gather (128,) metric rows, the lam0
    and lam1 row runs of the cost buffer, prev (64, 2) the metric row of
    each predecessor, and the input bit that leads into each row's state.
    """
    pred, out0, out1 = _transitions()
    gray_rank = np.array([0, 1, 3, 2])          # classes 00, 01, 10, 11
    order = np.argsort(gray_rank[2 * out0[:, 0] + out1[:, 0]], kind="stable")
    row = np.empty(_NSTATES, dtype=np.intp)
    row[order] = np.arange(_NSTATES)
    prev = row[pred[order]]
    gather = np.concatenate([prev[:, 0], prev[:, 1]])
    add0 = _runs(np.concatenate([out0[order, 0], out0[order, 1]]))
    add1 = _runs(np.concatenate([out1[order, 0], out1[order, 1]]))
    return row, gather, add0, add1, prev, order >> (_MEMORY - 1)


_ROW, _GATHER, _ADD0, _ADD1, _PREV, _INPUT = _layout()


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode messages of L bits each; output length 2*(L+6) per message."""
    shape = np.shape(bits)
    bits = np.atleast_2d(bits).astype(np.int64, copy=False)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("message bits must be 0/1")
    b, length = bits.shape
    steps = length + _MEMORY
    # output t sees message bit t - 6 + i through generator bit i
    padded = np.zeros((b, length + 2 * _MEMORY), dtype=np.uint8)
    padded[:, _MEMORY:_MEMORY + length] = bits
    out = np.empty((b, 2 * steps), dtype=np.int64)
    for stream, gen in enumerate(GENERATORS):
        acc = np.zeros((b, steps), dtype=np.uint8)
        for i in range(CONSTRAINT_LENGTH):
            if gen >> i & 1:
                acc ^= padded[:, i:i + steps]
        out[:, stream::2] = acc
    return out.reshape(shape[:-1] + (2 * steps,))


def viterbi_decode(llrs_or_bits: np.ndarray) -> np.ndarray:
    """Maximum-likelihood decode of zero-terminated codewords from finite
    LLRs (positive favors bit 0). Each codeword carries 2*(L+6) values;
    returns the L message bits per codeword. Hard decisions decode as the
    LLRs ``1 - 2 * bits``.
    """
    shape = np.shape(llrs_or_bits)
    obs = np.atleast_2d(np.asarray(llrs_or_bits, dtype=float))
    b, total = obs.shape
    if total % 2 or total < 2 * (_MEMORY + 1):
        raise ValueError(f"coded length {total} malformed: need even length >= "
                         f"{2 * (_MEMORY + 1)}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("expected finite LLRs (no NaN or inf)")

    steps = total // 2
    length = steps - _MEMORY
    lam = np.ascontiguousarray(obs.T)                  # (2*steps, B)
    # path cost of hypothesizing coded bit c against LLR lam is lam * c
    metrics = np.full((_NSTATES, b), np.inf)
    metrics[_ROW[0]] = 0.0
    cost = np.empty((2 * _NSTATES, b))
    cost0, cost1 = cost[:_NSTATES], cost[_NSTATES:]
    choices = np.empty((steps, _NSTATES, b), dtype=bool)
    for t in range(steps):
        # mode="clip" writes straight into cost; "raise" would buffer
        np.take(metrics, _GATHER, axis=0, out=cost, mode="clip")
        lam0, lam1 = lam[2 * t], lam[2 * t + 1]
        for rows in _ADD0:
            cost[rows] += lam0
        for rows in _ADD1:
            cost[rows] += lam1
        np.less(cost1, cost0, out=choices[t])
        np.minimum(cost0, cost1, out=metrics)

    # traceback through flat indices: the decision of (row, codeword) at
    # step t is flat[t, row * B + codeword], its predecessor _PREV[row, bit]
    flat = choices.reshape(steps, -1)
    prev = _PREV.ravel()
    path = np.empty((steps, b), dtype=np.intp)   # metric row at each step
    path[-1] = _ROW[0]
    cols = np.arange(b)
    idx = np.empty(b, dtype=np.intp)
    for t in range(steps - 1, 0, -1):
        np.multiply(path[t], b, out=idx)
        idx += cols
        bit = flat[t].take(idx)
        np.multiply(path[t], 2, out=idx)
        idx += bit
        prev.take(idx, out=path[t - 1])
    return _INPUT.take(path[:length].T).reshape(shape[:-1] + (length,))
