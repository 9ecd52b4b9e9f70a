import gc
import re
import pickle
import weakref

import numpy as np
import pytest

from trajsim import vocabulary
from trajsim.kinematics import Trajectory
from trajsim.scene_io import TEMPLATES, SyntheticSpec, generate_scene
from trajsim.vocabulary import (
    TrajectoryCorpus,
    Vocabulary,
    export_vocabulary_csv,
    headings_from_tangents,
    kmeans,
    load_vocabulary,
    save_vocabulary,
)


def traj_from_xy(xy):
    xy = np.asarray(xy, dtype=float)
    return Trajectory(np.column_stack([xy, headings_from_tangents(xy)]))


def random_corpus(rng, n, m=8, spread=20.0):
    items = []
    for _ in range(n):
        xy = np.cumsum(rng.uniform(-1, 1, size=(m, 2)) * spread / m, axis=0)
        items.append(traj_from_xy(xy))
    return TrajectoryCorpus(items)


def blob_corpus(rng, per_blob=200, offset=50.0):
    """Two well-separated blobs; returns (corpus, [blob means in embed space])."""
    blobs = []
    for center in (0.0, offset):
        base = np.stack([np.linspace(5, 40, 8), np.full(8, center)], axis=1)
        blobs.append(base[None] + rng.normal(0, 0.8, size=(per_blob, 8, 2)))
    corpus = TrajectoryCorpus([traj_from_xy(xy) for b in blobs for xy in b])
    means = [b.reshape(per_blob, -1).mean(axis=0) for b in blobs]
    return corpus, means


class TestHeadings:
    def test_heading_reconstruction_straight(self):
        xy = np.stack([5.0 * np.arange(1, 9), np.zeros(8)], axis=1)
        assert np.all(headings_from_tangents(xy) == 0.0)

    def test_heading_reconstruction_turn(self):
        xy = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [2.0, 2.0]])
        psi = headings_from_tangents(xy)
        assert psi[0] == 0.0
        assert psi[1] == pytest.approx(np.pi / 2)
        assert psi[-1] == psi[-2]  # final heading copies the penultimate tangent


class TestCorpus:
    def test_holds_the_flattened_positions(self):
        rng = np.random.default_rng(14)
        items = [traj_from_xy(rng.normal(size=(5, 2))) for _ in range(7)]
        corpus = TrajectoryCorpus(iter(items))
        assert corpus.m == 5 and corpus.count == len(corpus) == 7
        assert np.array_equal(corpus.xy, np.stack([t.xy.reshape(-1).copy() for t in items]))
        assert not corpus.xy.flags.writeable

    def test_one_waypoint_rejected(self):
        # no corpus can be handed a one-waypoint trajectory: none can be built
        with pytest.raises(ValueError, match=r"^plan needs at least 2 waypoints, got 1$"):
            Trajectory([[1.0, 2.0, 0.0]])

    def test_mixed_waypoint_counts_rejected(self):
        items = [traj_from_xy(np.ones((3, 2)))] * 2 + [traj_from_xy(np.ones((4, 2)))]
        with pytest.raises(ValueError, match=re.escape(
            "corpus trajectories must share one waypoint count: items[2] has 4 waypoints, items[0] has 3"
        )):
            TrajectoryCorpus(items)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="corpus is empty"):
            TrajectoryCorpus(iter(()))

    def test_keeps_no_reference_to_its_items(self):
        rng = np.random.default_rng(15)
        items = [traj_from_xy(rng.normal(size=(8, 2))) for _ in range(50)]
        refs = [weakref.ref(t.poses) for t in items]
        corpus = TrajectoryCorpus(items)
        del items
        gc.collect()
        assert corpus.count == 50 and all(r() is None for r in refs)


class TestKmeans:
    def test_k_equals_n_recovers_inputs(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 12)
        vocab = kmeans(corpus, k=12, seed=1)
        assert vocab.inertia == 0.0
        got = sorted(map(tuple, vocab.poses[:, :, :2].reshape(vocab.k, -1)))
        want = sorted(map(tuple, corpus.xy))
        assert got == want

    def test_identical_corpus_k1(self):
        xy = np.stack([np.arange(1.0, 9.0), np.ones(8)], axis=1)
        corpus = TrajectoryCorpus([traj_from_xy(xy)] * 4)
        vocab = kmeans(corpus, k=1, seed=0)
        assert np.allclose(vocab.centers[0].xy, xy, atol=1e-12)

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(2)
        corpus, means = blob_corpus(rng)
        vocab = kmeans(corpus, k=2, seed=3)
        centers = sorted(vocab.poses[:, :, :2].reshape(vocab.k, -1), key=lambda c: c[1])
        means = sorted(means, key=lambda c: c[1])
        for got, want in zip(centers, means):
            # waypointwise distance between center and brute-force blob mean
            gap = np.hypot(*(got - want).reshape(8, 2).T).max()
            assert gap < 0.5

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            corpus = random_corpus(rng, 300)
            vocab = kmeans(corpus, k=10, seed=trial)
            hist = np.array(vocab.inertia_history)
            assert len(hist) >= 2
            assert np.all(np.diff(hist) <= 1e-9)

    def test_deterministic_same_seed(self):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, 400)
        a = kmeans(corpus, k=16, seed=9)
        b = kmeans(corpus, k=16, seed=9)
        assert np.array_equal(a.poses[:, :, :2], b.poses[:, :, :2])
        assert a.inertia == b.inertia

    def test_workers_other_than_one_refused(self, monkeypatch):
        # clustering runs in one thread; the keyword takes only 1
        monkeypatch.setattr(vocabulary, "_kmeans_pp", None)  # reaching it raises TypeError
        corpus = random_corpus(np.random.default_rng(6), 5)
        for workers in (2, 0):
            with pytest.raises(ValueError, match=re.escape(f"workers must be 1, got {workers}")):
                kmeans(corpus, k=2, seed=11, workers=workers)

    def test_centers_are_cluster_means(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, 500)
        vocab = kmeans(corpus, k=8, seed=13)
        x = corpus.xy
        c = vocab.poses[:, :, :2].reshape(vocab.k, -1)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for j in range(8):
            members = x[labels == j]
            assert len(members) > 0
            assert np.allclose(c[j], members.mean(axis=0), atol=1e-6)

    def test_corpus_smaller_than_k_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            kmeans(random_corpus(rng, 5), k=6, seed=0)

    @pytest.mark.parametrize("seed", [-3, 2**63, True, 1.5, "7"])
    def test_seed_checked_before_clustering(self, monkeypatch, seed):
        # the vocabulary file stores the seed as an i64
        monkeypatch.setattr(vocabulary, "_kmeans_pp", None)  # reaching it raises TypeError
        corpus = random_corpus(np.random.default_rng(8), 5)
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [0, 2**63), got {seed!r}")):
            kmeans(corpus, k=2, seed=seed)

    @pytest.mark.parametrize("name", ["k", "max_iters", "workers"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_counts_checked_before_clustering(self, monkeypatch, name, value):
        monkeypatch.setattr(vocabulary, "_kmeans_pp", None)  # reaching it raises TypeError
        corpus = random_corpus(np.random.default_rng(8), 5)
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            kmeans(corpus, **{"k": 2, name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("k", 0, "k must be >= 1, got 0"),
        ("k", -2, "k must be >= 1, got -2"),
        ("max_iters", 0, "max_iters must be >= 1, got 0"),
    ], ids=["k-0", "k-minus-2", "max_iters-0"])
    def test_counts_below_one_checked_before_clustering(self, monkeypatch, name, value, message):
        monkeypatch.setattr(vocabulary, "_kmeans_pp", None)  # reaching it raises TypeError
        corpus = random_corpus(np.random.default_rng(8), 5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kmeans(corpus, **{"k": 2, name: value})

    def test_numpy_integer_counts_accepted(self):
        corpus = random_corpus(np.random.default_rng(8), 5)
        want = kmeans(corpus, k=2, max_iters=3, seed=0)
        got = kmeans(corpus, k=np.int64(2), max_iters=np.int64(3), seed=0, workers=np.int64(1))
        assert np.array_equal(got.poses, want.poses)

    @pytest.mark.parametrize("seed", [0, np.int64(5), 2**63 - 1])
    def test_every_storable_seed_accepted(self, tmp_path, seed):
        vocab = kmeans(random_corpus(np.random.default_rng(8), 5), k=2, seed=seed)
        save_vocabulary(vocab, tmp_path / "v.bin")
        assert load_vocabulary(tmp_path / "v.bin").seed == seed

    def test_empty_cluster_repair(self):
        # three tight groups, k=3, seeded so at least one Lloyd pass runs
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [30.0, 0.0], [30.1, 0.0], [60.0, 0.0], [60.1, 0.0]])
        items = [traj_from_xy(np.tile(p, (8, 1)) + np.arange(8)[:, None] * [1.0, 0.0]) for p in pts]
        vocab = kmeans(TrajectoryCorpus(items), k=3, seed=0)
        assert vocab.inertia < 1.0  # each group got its own center

    def test_duplicate_heavy_corpus_stays_finite(self):
        # far fewer distinct values than clusters: repair must never empty a
        # donor cluster, so centers stay finite throughout
        distinct = [traj_from_xy(np.cumsum(np.full((8, 2), 0.5 * (i + 1)), axis=0)) for i in range(4)]
        corpus = TrajectoryCorpus(distinct * 10)
        vocab = kmeans(corpus, k=16, seed=2)
        emb = vocab.poses[:, :, :2].reshape(vocab.k, -1)
        assert np.all(np.isfinite(emb))
        assert vocab.inertia == 0.0  # every point sits exactly on some center

    def test_first_pass_recomputes_every_row(self, monkeypatch):
        # the first pass's bounds settle no point: each chunk sends all its
        # rows to _nearest_rows
        corpus = random_corpus(np.random.default_rng(9), 5000)
        sent = []
        real = vocabulary._nearest_rows

        def recording(rows, *args):
            sent.append(rows.copy())
            return real(rows, *args)

        monkeypatch.setattr(vocabulary, "_nearest_rows", recording)
        kmeans(corpus, k=8, max_iters=1, seed=4)
        assert [r.tolist() for r in sent] == [list(range(4096)), list(range(5000 - 4096))]

    def test_lloyd_passes_after_the_first_recompute_under_half_the_rows(self, monkeypatch):
        # a refactor that stops the bounds from skipping rows fails here, not
        # only in the benchmark
        corpus = TrajectoryCorpus(
            generate_scene(SyntheticSpec(TEMPLATES[j % len(TEMPLATES)], seed=j // len(TEMPLATES))).human_trajectory
            for j in range(2000)
        )
        computed = []
        real = vocabulary._nearest_two

        def counting(x, *args):
            computed.append(len(x))
            return real(x, *args)

        monkeypatch.setattr(vocabulary, "_nearest_two", counting)
        vocab = kmeans(corpus, k=64, max_iters=10, seed=1)
        # one chunk of 2000 points: one product per pass that recomputes rows,
        # and none of the whole chunk after the first
        assert len(vocab.inertia_history) == 10 and computed[0] == 2000
        assert 5 <= len(computed) <= 10 and max(computed[1:]) < 1000


class TestArrays:
    def test_vocabulary_checks_its_poses_in_bulk(self):
        good = np.zeros((3, 4, 3))
        bad = good.copy()
        bad[2, 1, 0] = np.nan
        for poses, message in [
            (np.zeros((0, 4, 3)), "k must be >= 1, got 0"),
            (np.zeros((3, 1, 3)), "m must be >= 2 waypoints, got 1"),
            (np.zeros((3, 4, 2)), "(K, M, 3) array"),
            (bad, "centers[2]: trajectory waypoints must be finite"),
            (good + 2e9, "centers[0]: trajectory waypoints must be at most 1e+09 in magnitude"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                Vocabulary(poses, seed=0, inertia=0.0)
        vocab = Vocabulary(good, seed=0, inertia=0.0)
        assert (vocab.k, vocab.m) == (3, 4) and not vocab.poses.flags.writeable

    def test_centers_are_read_only_copies(self):
        # each center's Trajectory owns its poses, as every Trajectory does
        rng = np.random.default_rng(16)
        vocab = kmeans(random_corpus(rng, 40), k=5, seed=1)
        assert vocab.centers is vocab.centers and len(vocab.centers) == 5
        for c, p in zip(vocab.centers, vocab.poses):
            assert not np.shares_memory(c.poses, vocab.poses)
            assert np.array_equal(c.poses, p) and not c.poses.flags.writeable

    def test_pickle_holds_one_array(self):
        rng = np.random.default_rng(17)
        vocab = kmeans(random_corpus(rng, 300), k=64, seed=4)
        centers = vocab.centers  # built, so a pickle of the cache would show
        data = pickle.dumps(vocab)
        assert b"Trajectory" not in data
        assert len(data) <= vocab.poses.nbytes + 1024
        back = pickle.loads(data)
        assert back.poses.tobytes() == vocab.poses.tobytes()
        assert (back.seed, back.inertia, back.inertia_history) == (vocab.seed, vocab.inertia, vocab.inertia_history)
        assert all(a == b for a, b in zip(back.centers, centers, strict=True))

    def test_no_trajectory_built_from_valid_arrays(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(18)
        corpus = random_corpus(rng, 400)
        built = []

        def counting(self, *args, _init=Trajectory.__init__):
            built.append(1)
            _init(self, *args)

        monkeypatch.setattr(Trajectory, "__init__", counting)
        vocab = kmeans(corpus, k=16, seed=3)
        save_vocabulary(vocab, tmp_path / "v.bin")
        export_vocabulary_csv(vocab, tmp_path / "v.csv")
        again = load_vocabulary(tmp_path / "v.bin")
        assert again.poses.tobytes() == vocab.poses.tobytes()
        assert built == []
        assert len(again.centers) == 16 and len(built) == 16  # only centers builds them


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        vocab = kmeans(random_corpus(rng, 100), k=10, seed=2)
        path = tmp_path / "vocab.bin"
        save_vocabulary(vocab, path)
        again = load_vocabulary(path)
        assert again.k == vocab.k and again.seed == vocab.seed
        for a, b in zip(again.centers, vocab.centers):
            assert np.array_equal(a.poses, b.poses)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "vocab.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError) as err:
            load_vocabulary(path)
        assert "magic" in str(err.value)

    @pytest.mark.parametrize("raw, message", [
        (b"TVOC" + bytes(8), "truncated vocabulary file"),
        (b"TVOC" + (2).to_bytes(4, "little") + bytes(20), "unsupported vocabulary version 2"),
    ], ids=["header", "version"])
    def test_header_error_named(self, tmp_path, raw, message):
        path = tmp_path / "vocab.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_vocabulary(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(12)
        vocab = kmeans(random_corpus(rng, 50), k=4, seed=0)
        path = tmp_path / "vocab.bin"
        save_vocabulary(vocab, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_vocabulary(path)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(13)
        vocab = kmeans(random_corpus(rng, 50), k=4, seed=0)
        path = tmp_path / "vocab.csv"
        export_vocabulary_csv(vocab, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "center,waypoint,x_m,y_m,psi_rad"
        assert len(lines) == 1 + 4 * 8
        row = lines[1].split(",")
        assert float(row[2]) == vocab.centers[0].poses[0, 0]
