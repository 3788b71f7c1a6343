"""Skip-gram node embedding with negative sampling over candidate pairs.

Two matrices are trained (target and context); the target matrix is the
published embedding.  Per-pair feature vectors for classification are the
element-wise product of the two endpoint vectors, which keeps the combination
commutative while still producing a vector.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .config import EmbeddingConfig
from .errors import DepwalkError, UnknownAddressError

log = logging.getLogger(__name__)

_EXP_CLAMP = 30.0
_MAGIC = b"DEPEMB01"
# Pairs per SGD step.  The step is the batch's summed gradient, so the batch
# size sets only how stale the parameters a pair sees are, and the speed.
_BATCH = 64


@dataclass
class EmbeddingMatrix:
    """Per-vertex vectors plus the context matrix kept from training.

    ``context_vectors`` is not saved; it is kept so that a test of training
    (``test_single_pair_converges``) can read the learned pair score."""

    vertex_index: dict[str, int]
    vectors: np.ndarray
    context_vectors: np.ndarray | None = None
    epoch_losses: tuple[float, ...] = ()

    @property
    def dims(self) -> int:
        return int(self.vectors.shape[1])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Exponent clamped so the loss stays finite even for saturated scores.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_EXP_CLAMP, _EXP_CLAMP)))


def _row_sums(index: np.ndarray, values: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``index``, sorted, and per row the sum of the
    ``values`` rows indexed to it.  ``np.bincount`` adds each cell's values
    in their order, starting from 0.0, as ``np.add.at`` into zeros does, so
    every sum is bit for bit the one ``np.add.at`` gives."""
    touched = np.zeros(n_rows, dtype=bool)
    touched[index] = True
    rows = np.flatnonzero(touched)
    slot = np.cumsum(touched) - 1  # a touched row's place in ``rows``
    dims = values.shape[1]
    cells = (slot[index, None] * dims + np.arange(dims)).ravel()
    sums = np.bincount(cells, values.ravel(), minlength=rows.size * dims)
    return rows, sums.reshape(rows.size, dims)


def pair_loss_and_grads(target: np.ndarray, context: np.ndarray,
                        heads: np.ndarray, ctxs: np.ndarray, signs: np.ndarray):
    """Total loss and gradients for labelled (head, context) pairs.

    A positive pair (sign > 0) contributes ``-log sigma(u.v)``; a negative
    pair contributes ``-log sigma(-u.v)``.  Returns the summed loss together
    with the gradients w.r.t. both matrices, evaluated at the given
    parameters, each as ``(rows, gradient rows)``: the rows the pairs touch,
    sorted, and their gradients; every other row's gradient is zero.
    """
    heads = np.asarray(heads)
    ctxs = np.asarray(ctxs)
    signs = np.asarray(signs)
    scores = np.einsum("ij,ij->i", target[heads], context[ctxs])
    sig = _sigmoid(scores)
    positive = signs > 0
    loss = float(-np.log(np.where(positive, sig, 1.0 - sig)).sum())
    coef = sig - positive.astype(float)
    return (loss, _row_sums(heads, coef[:, None] * context[ctxs], len(target)),
            _row_sums(ctxs, coef[:, None] * target[heads], len(context)))


def train_embedding(pos_pairs: Sequence[tuple[str, str]],
                    neg_pairs: Sequence[tuple[str, str]],
                    vertices: Iterable[str],
                    cfg: EmbeddingConfig) -> EmbeddingMatrix:
    """Minibatch stochastic gradient descent over shuffled ``(head,
    context)`` address pairs.

    Explicit negative pairs train with the negated objective; on top of that
    ``neg_samples_per_positive`` uniform negatives, each with a context other
    than its head, are drawn per positive pair in every epoch.  Each epoch
    shuffles all its pairs and takes one step per ``_BATCH`` of them:
    ``learning_rate`` times their summed gradient, so the rate is a per-pair
    step.  Both matrices initialise uniformly in ``[-0.5/dims, +0.5/dims]``.
    The mean per-pair loss is recorded per epoch; a non-finite epoch loss
    aborts training.
    """
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    for addr in chain.from_iterable(chain(pos_pairs, neg_pairs)):
        if addr not in index:
            raise UnknownAddressError(addr)

    n, dims = len(verts), cfg.dims
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 0.5 / dims
    target = rng.uniform(-bound, bound, size=(n, dims))
    context = rng.uniform(-bound, bound, size=(n, dims))

    pairs = list(chain(pos_pairs, neg_pairs))
    if not pairs:
        log.warning("no candidate pairs; returning the initialised embedding")
        return EmbeddingMatrix(index, target, context, ())

    # each positive's drawn negatives share its head; a lone vertex has no
    # other vertex to draw
    heads = np.array([index[h] for h, _ in pairs])
    drawn_heads = np.repeat(heads[:len(pos_pairs)], cfg.neg_samples_per_positive if n > 1 else 0)
    heads = np.concatenate([heads, drawn_heads])
    fixed_ctxs = np.array([index[c] for _, c in pairs])
    signs = np.repeat([1, -1], [len(pos_pairs), heads.size - len(pos_pairs)])

    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        drawn = rng.integers(0, n - 1, size=drawn_heads.size)
        ctxs = np.concatenate([fixed_ctxs, drawn + (drawn >= drawn_heads)])
        order = rng.permutation(heads.size)
        total = 0.0
        for start in range(0, order.size, _BATCH):
            batch = order[start:start + _BATCH]
            loss, (t_rows, d_target), (c_rows, d_context) = pair_loss_and_grads(
                target, context, heads[batch], ctxs[batch], signs[batch])
            # an untouched row would change by ``x - 0.0 == x``, so skip it
            target[t_rows] -= cfg.learning_rate * d_target
            context[c_rows] -= cfg.learning_rate * d_context
            total += loss
        mean_loss = total / order.size
        if not math.isfinite(mean_loss):
            raise DepwalkError(
                f"non-finite epoch loss at epoch {epoch} (learning_rate={cfg.learning_rate})")
        losses.append(mean_loss)
        log.info("embedding epoch %d/%d mean loss %.6f", epoch, cfg.epochs, mean_loss)
    return EmbeddingMatrix(index, target, context, tuple(losses))


def dependency_vectors(emb: EmbeddingMatrix, pairs: Iterable[Sequence[str]]) -> np.ndarray:
    """The feature matrix of ``(src, dst, ...)`` rows: per row, the
    element-wise product of the two vertex vectors (commutative)."""
    index = emb.vertex_index
    try:
        ends = np.array([(index[row[0]], index[row[1]]) for row in pairs], dtype=np.intp).reshape(-1, 2)
    except KeyError as exc:
        raise UnknownAddressError(exc.args[0]) from None
    return emb.vectors[ends[:, 0]] * emb.vectors[ends[:, 1]]


def save_embedding(emb: EmbeddingMatrix, data_path, manifest_path) -> None:
    """Binary dump: magic, dims, vertex count, address table, then the target
    matrix row-major as little-endian float32; plus a JSON manifest."""
    addrs = sorted(emb.vertex_index, key=emb.vertex_index.get)
    with open(data_path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", emb.dims, len(addrs)))
        for addr in addrs:
            encoded = addr.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
        fh.write(np.ascontiguousarray(emb.vectors, dtype="<f4").tobytes())
    manifest = {
        "format": "depwalk-embedding",
        "version": 1,
        "dims": emb.dims,
        "vertices": len(addrs),
        "epoch_losses": list(emb.epoch_losses),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_embedding(data_path) -> EmbeddingMatrix:
    """Load a binary dump; the context matrix is not persisted.  A damaged file
    (no dimensions, or vector bytes other than the header's, checked before the
    read), a repeated address or a non-finite vector is a ValueError naming it."""
    with open(data_path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{data_path}: not an embedding file (bad magic {magic!r})")
        try:  # a short read fails to unpack or decode
            dims, count = struct.unpack("<II", fh.read(8))
            if dims < 1:
                raise ValueError(f"{dims} dimensions")
            addrs = []
            for _ in range(count):
                (length,) = struct.unpack("<H", fh.read(2))
                addrs.append(fh.read(length).decode("utf-8"))
            size, left = 4 * dims * count, os.fstat(fh.fileno()).st_size - fh.tell()
            if left != size:
                raise ValueError("bytes after the last row" if left > size
                                 else f"{count} vectors of {dims} dimensions need {size} bytes, {left} left")
            matrix = np.frombuffer(fh.read(size), dtype="<f4").reshape(count, dims)
        except (struct.error, ValueError) as exc:
            raise ValueError(f"{data_path}: truncated or damaged embedding file ({exc})") from exc
    index = {a: i for i, a in enumerate(addrs)}
    if len(index) < count:
        repeated = next(a for i, a in enumerate(addrs) if index[a] != i)
        raise ValueError(f"{data_path}: vertex {repeated} is listed more than once")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{data_path}: vertex {addrs[bad[0]]} has a non-finite vector")
    return EmbeddingMatrix(index, matrix.copy())
