import math

import numpy as np
import pytest

from conftest import graph_from, repeat_pair
from refimpl import reference_train_embedding
from depwalk import embedding
from depwalk.contexts import split_walk
from depwalk.embedding import (EmbeddingConfig, EmbeddingMatrix, dependency_vectors,
                               load_embedding, pair_loss_and_grads, save_embedding,
                               train_embedding)
from depwalk.errors import ConfigError, DepwalkError, UnknownAddressError
from depwalk.walks import WalkConfig, generate_walks


def test_zero_epochs_is_a_config_error():
    with pytest.raises(ConfigError):
        EmbeddingConfig(epochs=0)
    with pytest.raises(ConfigError):
        EmbeddingConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        EmbeddingConfig(dims=0)


def test_unknown_endpoint_rejected():
    cfg = EmbeddingConfig(dims=4, epochs=1)
    with pytest.raises(UnknownAddressError):
        train_embedding([("a", "zz")], [], ["a", "b"], cfg)


def test_single_pair_converges():
    # one positive pair trained long enough saturates its score
    cfg = EmbeddingConfig(dims=8, epochs=500, learning_rate=0.5,
                          neg_samples_per_positive=0, rng_seed=3)
    emb = train_embedding([("a", "b")], [], ["a", "b"], cfg)
    score = float(emb.vectors[emb.vertex_index["a"]] @ emb.context_vectors[emb.vertex_index["b"]])
    assert 1.0 / (1.0 + math.exp(-score)) > 0.9
    # per-pair loss decreases monotonically for the one-pair objective
    assert all(b < a for a, b in zip(emb.epoch_losses, emb.epoch_losses[1:]))


def test_gradients_match_finite_differences(rng):
    step = 1e-5
    for trial in range(5):
        n = rng.randint(3, 10)
        dims = rng.randint(2, 6)
        gen = np.random.default_rng(trial)
        target = gen.uniform(-0.5, 0.5, (n, dims))
        context = gen.uniform(-0.5, 0.5, (n, dims))
        m = rng.randint(2, 12)
        heads = gen.integers(0, n, m)
        ctxs = gen.integers(0, n, m)
        signs = gen.choice([-1, 1], m)
        _, (t_rows, t_grad), (c_rows, c_grad) = pair_loss_and_grads(target, context, heads, ctxs, signs)
        d_target, d_context = np.zeros_like(target), np.zeros_like(context)
        d_target[t_rows], d_context[c_rows] = t_grad, c_grad  # untouched rows: zero
        for mat, grad in ((target, d_target), (context, d_context)):
            for i in range(n):
                for j in range(dims):
                    mat[i, j] += step
                    up = pair_loss_and_grads(target, context, heads, ctxs, signs)[0]
                    mat[i, j] -= 2 * step
                    down = pair_loss_and_grads(target, context, heads, ctxs, signs)[0]
                    mat[i, j] += step
                    fd = (up - down) / (2 * step)
                    denom = max(abs(fd), abs(grad[i, j]), 1e-6)
                    assert abs(fd - grad[i, j]) / denom < 1e-4


def test_epoch_loss_nonincreasing_with_tolerance():
    gen = np.random.default_rng(11)
    verts = [f"v{i}" for i in range(12)]
    pos_pairs = [(verts[i], verts[(i + 1) % 6]) for i in range(6) for _ in range(10)]
    neg_pairs = [(verts[6 + i], verts[6 + (i + 3) % 6]) for i in range(6) for _ in range(10)]
    cfg = EmbeddingConfig(dims=8, epochs=8, learning_rate=0.1, rng_seed=4)
    emb = train_embedding(pos_pairs, neg_pairs, verts, cfg)
    losses = emb.epoch_losses
    increases = [(a, b) for a, b in zip(losses, losses[1:]) if b > a]
    assert len(increases) <= 1
    for a, b in increases:
        assert (b - a) / a <= 0.05
    # the loss moves: a trainer stuck at ln 2 fails here
    assert losses[-1] <= losses[0] - 0.1


@pytest.mark.parametrize("per_positive", [0, 1, 3])
def test_one_pair_batches_match_the_per_pair_reference(monkeypatch, per_positive):
    # with one pair per step the batched trainer is plain per-pair SGD: the
    # batch size sets only how stale the parameters are, and the speed
    monkeypatch.setattr(embedding, "_BATCH", 1)
    gen = np.random.default_rng(per_positive)
    verts = [f"10.0.0.{i}" for i in range(9)]
    pos_pairs = [(verts[a], verts[b]) for a, b in gen.integers(0, 9, size=(40, 2))]
    neg_pairs = [(verts[a], verts[b]) for a, b in gen.integers(0, 9, size=(15, 2))]
    cfg = EmbeddingConfig(dims=6, epochs=4, learning_rate=0.3,
                          neg_samples_per_positive=per_positive, rng_seed=21)
    emb = train_embedding(pos_pairs, neg_pairs, verts, cfg)
    target, context, losses = reference_train_embedding(pos_pairs, neg_pairs, verts, cfg)
    assert np.allclose(emb.vectors, target, rtol=0, atol=1e-9)
    assert np.allclose(emb.context_vectors, context, rtol=0, atol=1e-9)
    assert np.allclose(emb.epoch_losses, losses, rtol=0, atol=1e-9)
    assert losses[-1] < losses[0]


def test_training_is_deterministic():
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    cfg = EmbeddingConfig(dims=6, epochs=4, rng_seed=9)
    one = train_embedding(pairs[:2], pairs[2:], ["a", "b", "c"], cfg)
    two = train_embedding(pairs[:2], pairs[2:], ["a", "b", "c"], cfg)
    assert np.array_equal(one.vectors, two.vectors)
    assert one.epoch_losses == two.epoch_losses


def test_divergence_raises_with_epoch_and_rate():
    cfg = EmbeddingConfig(dims=4, epochs=20, learning_rate=1e160,
                          neg_samples_per_positive=1, rng_seed=2)
    with np.errstate(all="ignore"), pytest.raises(DepwalkError, match="^non-finite epoch loss at epoch ") as err:
        train_embedding([("a", "b"), ("b", "c"), ("c", "a")],
                        [("a", "c")], ["a", "b", "c"], cfg)
    assert "epoch" in str(err.value) and "1e+160" in str(err.value)


def test_cluster_locality():
    # two dense clusters joined by one bridge edge; walks stay local, so
    # intra-cluster cosine similarity must beat inter-cluster similarity
    left = [f"10.0.0.{i}" for i in range(1, 6)]
    right = [f"10.0.1.{i}" for i in range(1, 6)]
    flows = []
    for group in (left, right):
        for a in group:
            for b in group:
                if a != b:
                    flows += repeat_pair(a, b, 2, 0, 50)
    flows += repeat_pair(left[0], right[0], 1, 0, 50)
    g = graph_from(flows)
    walks = generate_walks(g, WalkConfig(walk_length=5, walks_per_vertex=20,
                                         epsilon=100, n_t=1, rng_seed=7))
    pairs = [p for w in walks for p in split_walk(w, 3)]
    emb = train_embedding(pairs, [], g.vertices,
                          EmbeddingConfig(dims=16, epochs=30, learning_rate=0.5, rng_seed=5))

    def cosine(a, b):
        va, vb = (emb.vectors[emb.vertex_index[v]] for v in (a, b))
        return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    intra = [cosine(a, b) for group in (left, right) for a in group for b in group if a < b]
    inter = [cosine(a, b) for a in left for b in right]
    assert sum(intra) / len(intra) > sum(inter) / len(inter)


def test_dependency_vector_semantics():
    emb = EmbeddingMatrix({"a": 0, "b": 1, "z": 2},
                          np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]))
    assert dependency_vectors(emb, [("a", "b"), ("a", "z", True)]).tolist() == [[3.0, 8.0], [0.0, 0.0]]
    gen = np.random.default_rng(0)
    emb2 = EmbeddingMatrix({"a": 0, "b": 1}, gen.normal(size=(2, 5)))
    assert np.array_equal(*dependency_vectors(emb2, [("a", "b"), ("b", "a")]))
    with pytest.raises(UnknownAddressError) as err:
        dependency_vectors(emb, [("a", "b"), ("a", "missing")])
    assert "missing" in str(err.value)
    with pytest.raises(UnknownAddressError, match="^unknown address: gone$"):
        dependency_vectors(emb, [("gone", "a")])


def test_dependency_vectors_are_the_per_pair_products():
    gen = np.random.default_rng(2)
    addrs = [f"10.0.0.{i}" for i in range(6)]
    emb = EmbeddingMatrix({a: i for i, a in enumerate(addrs)},
                          gen.normal(size=(6, 4)).astype(np.float32))
    pairs = [(addrs[i], addrs[j], i < j) for i, j in gen.integers(0, 6, size=(20, 2))]
    X = dependency_vectors(emb, pairs)
    assert X.dtype == np.float32
    for row, (src, dst, _) in zip(X, pairs):
        expected = emb.vectors[emb.vertex_index[src]] * emb.vectors[emb.vertex_index[dst]]
        assert row.tobytes() == expected.tobytes()


def test_no_pairs_give_an_empty_matrix_of_the_embedding_width():
    emb = EmbeddingMatrix({"a": 0}, np.ones((1, 3)))
    assert dependency_vectors(emb, []).shape == (0, 3)


def test_embedding_file_round_trip(tmp_path):
    gen = np.random.default_rng(1)
    emb = EmbeddingMatrix({"10.0.0.1": 0, "10.0.0.2": 1, "hostx": 2},
                          gen.normal(size=(3, 4)).astype(np.float32).astype(float),
                          epoch_losses=(0.5, 0.4))
    data = tmp_path / "emb.bin"
    manifest = tmp_path / "emb.json"
    save_embedding(emb, data, manifest)
    loaded = load_embedding(data)
    assert loaded.vertex_index == emb.vertex_index
    assert np.array_equal(loaded.vectors, emb.vectors.astype(np.float32))
    assert manifest.exists()


def test_non_finite_vector_is_rejected_at_load(tmp_path):
    vectors = np.array([[0.5, 1.0], [0.5, np.nan], [np.inf, 1.0]])
    emb = EmbeddingMatrix({"10.0.0.1": 0, "10.0.0.2": 1, "10.0.0.3": 2}, vectors)
    data = tmp_path / "emb.bin"
    save_embedding(emb, data, tmp_path / "emb.json")
    with pytest.raises(ValueError) as info:
        load_embedding(data)
    assert str(info.value) == f"{data}: vertex 10.0.0.2 has a non-finite vector"


def test_repeated_address_is_rejected_at_load(tmp_path):
    emb = EmbeddingMatrix({"10.0.0.1": 0, "10.0.0.2": 1}, np.array([[0.5, 1.0], [0.25, 2.0]]))
    data = tmp_path / "emb.bin"
    save_embedding(emb, data, tmp_path / "emb.json")
    data.write_bytes(data.read_bytes().replace(b"10.0.0.2", b"10.0.0.1"))
    with pytest.raises(ValueError) as info:
        load_embedding(data)
    assert str(info.value) == f"{data}: vertex 10.0.0.1 is listed more than once"
