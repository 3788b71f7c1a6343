"""Skip-gram node embedding with negative sampling over candidate pairs.

Two matrices are trained (target and context); the target matrix is the
published embedding.  All pairs sharing a head vertex form one batch and are
processed simultaneously: gradients for the whole batch are computed at the
current parameters before any update is applied.  Per-pair feature vectors
for classification are the element-wise product of the two endpoint vectors,
which keeps the combination commutative while still producing a vector.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .config import EmbeddingConfig
from .errors import TrainingDivergedError, UnknownAddressError

log = logging.getLogger(__name__)

_EXP_CLAMP = 30.0
_MAGIC = b"DEPEMB01"


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

    def row(self, addr: str) -> np.ndarray:
        try:
            return self.vectors[self.vertex_index[addr]]
        except KeyError:
            raise UnknownAddressError(addr) from None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Exponent clamped so the loss stays finite even for saturated scores.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_EXP_CLAMP, _EXP_CLAMP)))


def pair_loss_and_grads(target: np.ndarray, context: np.ndarray,
                        heads: np.ndarray, ctxs: np.ndarray,
                        signs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Total loss and gradients for labelled (head, context) pairs.

    A positive pair (sign > 0) contributes ``-log sigma(u.v)``; a negative
    pair contributes ``-log sigma(-u.v)``.  Returns the summed loss together
    with gradients w.r.t. both matrices, evaluated at the given parameters.
    """
    heads = np.asarray(heads)
    ctxs = np.asarray(ctxs)
    signs = np.asarray(signs)
    scores = np.einsum("ij,ij->i", target[heads], context[ctxs])
    sig = _sigmoid(scores)
    positive = signs > 0
    loss = float(-np.log(np.where(positive, sig, 1.0 - sig)).sum())
    coef = sig - positive.astype(float)
    d_target = np.zeros_like(target)
    d_context = np.zeros_like(context)
    np.add.at(d_target, heads, coef[:, None] * context[ctxs])
    np.add.at(d_context, ctxs, coef[:, None] * target[heads])
    return loss, d_target, d_context


def train_embedding(pos_pairs: Sequence[tuple[str, str]],
                    neg_pairs: Sequence[tuple[str, str]],
                    vertices: Iterable[str],
                    cfg: EmbeddingConfig) -> EmbeddingMatrix:
    """Stochastic gradient descent over head-vertex batches of ``(head,
    context)`` address pairs.

    Explicit negative pairs train with the negated objective; on top of that
    ``neg_samples_per_positive`` uniform negatives are drawn per positive
    pair in every epoch.  Both matrices initialise uniformly in
    ``[-0.5/dims, +0.5/dims]``.  The mean per-pair loss is recorded per
    epoch; a non-finite epoch loss aborts training.
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

    by_head: dict[int, tuple[list[int], list[int]]] = {}
    n_positives: dict[int, int] = {}
    for (first, second), sign in chain(((p, 1) for p in pos_pairs), ((p, -1) for p in neg_pairs)):
        h, c = index[first], index[second]
        ctx_list, sign_list = by_head.setdefault(h, ([], []))
        ctx_list.append(c)
        sign_list.append(sign)
        if sign > 0:
            n_positives[h] = n_positives.get(h, 0) + 1

    if not by_head:
        log.warning("no candidate pairs; returning the initialised embedding")
        return EmbeddingMatrix(index, target, context, ())

    heads = sorted(by_head)
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(heads))
        total = 0.0
        count = 0
        for oi in order:
            h = heads[oi]
            base_ctx, base_sign = by_head[h]
            ctx = list(base_ctx)
            sign = list(base_sign)
            draws = n_positives.get(h, 0) * cfg.neg_samples_per_positive
            if draws and n > 1:
                sampled = rng.integers(0, n - 1, size=draws)
                sampled = np.where(sampled >= h, sampled + 1, sampled)
                ctx.extend(int(c) for c in sampled)
                sign.extend([-1] * draws)
            head_arr = np.full(len(ctx), h)
            loss, d_target, d_context = pair_loss_and_grads(
                target, context, head_arr, np.array(ctx), np.array(sign))
            # one SGD step per head batch, scaled to the mean pair gradient so
            # the step size does not grow with the batch
            step = cfg.learning_rate / len(ctx)
            target -= step * d_target
            context -= step * d_context
            total += loss
            count += len(ctx)
        mean_loss = total / count
        if not math.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"non-finite epoch loss at epoch {epoch} (learning_rate={cfg.learning_rate})")
        losses.append(mean_loss)
        log.info("embedding epoch %d/%d mean loss %.6f", epoch, cfg.epochs, mean_loss)
    return EmbeddingMatrix(index, target, context, tuple(losses))


def dependency_vector(emb: EmbeddingMatrix, src: str, dst: str) -> np.ndarray:
    """Element-wise product of the two vertex vectors (commutative)."""
    return emb.row(src) * emb.row(dst)


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
    """Load a binary dump; the context matrix is not persisted.  A damaged
    file, or a vector with a NaN or infinite value, is a ValueError naming
    the file."""
    with open(data_path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{data_path}: not an embedding file (bad magic {magic!r})")
        try:  # a short read fails to unpack, decode or reshape
            dims, count = struct.unpack("<II", fh.read(8))
            addrs = []
            for _ in range(count):
                (length,) = struct.unpack("<H", fh.read(2))
                addrs.append(fh.read(length).decode("utf-8"))
            matrix = np.frombuffer(fh.read(4 * dims * count), dtype="<f4").reshape(count, dims)
            if fh.read(1):
                raise ValueError("bytes after the last row")
        except (struct.error, ValueError) as exc:
            raise ValueError(f"{data_path}: truncated or damaged embedding file ({exc})") from exc
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{data_path}: vertex {addrs[bad[0]]} has a non-finite vector")
    return EmbeddingMatrix({a: i for i, a in enumerate(addrs)}, matrix.copy())
