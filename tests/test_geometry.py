import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointvector import geometry, oracle
from pointvector.errors import (
    DataError,
    EmptyNeighborhoodError,
    SizeError,
)
from pointvector.geometry import (
    NeighborIndex,
    PointSetBatch,
    ball_query,
    ball_query_points,
    farthest_point_sample,
    geometric_start,
    knn,
)
from pointvector.nnops import Tensor
from pointvector.oracle import group_relative


def line_cloud():
    pos = np.array([[[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]]])
    return PointSetBatch(positions=pos, features=np.zeros((1, 4, 2)))


def random_cloud(rng, b=1, n=100, c=4):
    return PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)),
                         features=rng.standard_normal((b, n, c)))


class TestFarthestPointSample:
    def test_farthest_pair(self):
        idx = farthest_point_sample(line_cloud(), 2, 0)
        assert idx.tolist() == [[0, 3]]

    def test_third_pick_maximizes_min_distance(self):
        idx = farthest_point_sample(line_cloud(), 3, 0)
        assert idx.tolist() == [[0, 3, 2]]

    def test_single_sample_is_start(self):
        idx = farthest_point_sample(line_cloud(), 1, 0)
        assert idx.tolist() == [[0]]

    def test_indices_distinct_and_deterministic(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, b=3, n=64)
        a = farthest_point_sample(cloud, 32, 0)
        b = farthest_point_sample(cloud, 32, 0)
        assert np.array_equal(a, b)
        for row in a.reshape(3, -1):
            assert len(set(row.tolist())) == 32

    def test_duplicate_points_still_distinct(self):
        pos = np.zeros((1, 5, 3))
        pos[0, 3] = [1, 0, 0]
        cloud = PointSetBatch(positions=pos)
        idx = farthest_point_sample(cloud, 4, 0)
        assert len(set(idx[0].tolist())) == 4

    def test_size_errors(self):
        with pytest.raises(SizeError):
            farthest_point_sample(line_cloud(), 5, 0)
        with pytest.raises(SizeError):
            farthest_point_sample(line_cloud(), 2, 9)

    def test_per_batch_start(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, b=2, n=16)
        idx = farthest_point_sample(cloud, 4, np.array([3, 7]))
        assert idx[0, 0] == 3 and idx[1, 0] == 7

    def test_geometric_start_permutation_stable(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, n=50)
        perm = rng.permutation(50)
        permuted = PointSetBatch(positions=cloud.positions[:, perm],
                                 features=cloud.features[:, perm])
        s0 = geometric_start(cloud)[0]
        s1 = geometric_start(permuted)[0]
        assert np.allclose(cloud.positions[0, s0], permuted.positions[0, s1])


class TestBallQuery:
    def test_in_radius_scan_order(self):
        nbr = ball_query(np.array([[0]]), line_cloud(), 1.5, 2)
        assert nbr.indices.tolist() == [[[0, 1]]]
        assert not nbr.pad_mask.any()

    def test_padding_repeats_first(self):
        nbr = ball_query(np.array([[0]]), line_cloud(), 0.5, 2)
        assert nbr.indices.tolist() == [[[0, 0]]]
        assert nbr.pad_mask.tolist() == [[[False, True]]]

    def test_three_neighbors(self):
        nbr = ball_query(np.array([[0]]), line_cloud(), 2.5, 3)
        assert nbr.indices.tolist() == [[[0, 1, 2]]]

    def test_radius_bound_on_random_clouds(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cloud = random_cloud(rng, n=200)
            centers = rng.integers(0, 200, size=(1, 32))
            nbr = ball_query(centers, cloud, 0.4, 8)
            rel = geometry.relative_positions(cloud.positions, nbr)
            d = np.linalg.norm(rel, axis=-1)
            assert (d[~nbr.pad_mask] <= 0.4 + 1e-12).all()

    def test_k_too_large(self):
        # more slots than points would return fewer than k columns
        with pytest.raises(SizeError, match="exceeds cloud size"):
            ball_query(np.array([[0]]), line_cloud(), 1.5, 5)

    def test_empty_neighborhood_cross_cloud(self):
        cloud = line_cloud()
        far = np.array([[[100.0, 100.0, 100.0]]])
        with pytest.raises(EmptyNeighborhoodError):
            ball_query_points(far, cloud, 0.5, 2)

    def test_joint_scaling_preserves_membership(self):
        rng = np.random.default_rng(4)
        for scale in (0.8, 1.2, 2.0):
            cloud = random_cloud(rng, n=128)
            centers = rng.integers(0, 128, size=(1, 16))
            nbr = ball_query(centers, cloud, 0.35, 8)
            scaled = PointSetBatch(positions=cloud.positions * scale)
            nbr_s = ball_query(centers, scaled, 0.35 * scale, 8)
            assert np.array_equal(nbr.indices, nbr_s.indices)
            assert np.array_equal(nbr.pad_mask, nbr_s.pad_mask)


class TestKnn:
    def test_nearest_two_on_line(self):
        nbr = knn(np.array([[0]]), line_cloud(), 2)
        assert nbr.indices.tolist() == [[[0, 1]]]

    def test_tie_breaks_to_lower_index(self):
        pos = np.array([[[0.0, 0, 0], [1, 0, 0], [-1, 0, 0]]])
        nbr = knn(np.array([[0]]), PointSetBatch(positions=pos), 2)
        assert nbr.indices.tolist() == [[[0, 1]]]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, b=2, n=100)
        centers = np.stack([rng.permutation(100)[:10] for _ in range(2)])
        nbr = knn(centers, cloud, 8)
        batch = np.arange(2)[:, None]
        expected = oracle.naive_knn(cloud.positions[batch, centers],
                                    cloud.positions, 8)
        assert np.array_equal(nbr.indices, expected)

    def test_matches_naive_on_many_sizes(self):
        rng = np.random.default_rng(6)
        for n, k in ((10, 3), (57, 8), (130, 16)):
            cloud = random_cloud(rng, n=n)
            centers = rng.integers(0, n, size=(1, 7))
            nbr = knn(centers, cloud, k)
            expected = oracle.naive_knn(
                cloud.positions[np.arange(1)[:, None], centers],
                cloud.positions, k)
            assert np.array_equal(nbr.indices, expected)

    def test_k_too_large(self):
        with pytest.raises(SizeError):
            knn(np.array([[0]]), line_cloud(), 5)


def _cloud_pair(seed: int, kind: str, b: int, n: int, m: int):
    """(query [b,m,3], ref [b,n,3]) of one of three kinds of cloud.

    random: uniform reals; lattice: small integer coordinates, so many exact
    distance ties; duplicates: a few distinct points each repeated many
    times. Half the seeds draw queries from the cloud itself.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        ref = rng.uniform(-1, 1, (b, n, 3))
    elif kind == "lattice":
        ref = rng.integers(-2, 3, (b, n, 3)).astype(np.float64)
    else:
        base = rng.uniform(-1, 1, (b, max(1, n // 10), 3))
        ref = base[:, rng.integers(0, base.shape[1], n)]
    if seed % 2:
        query = ref[:, rng.integers(0, n, m)]
    else:
        query = rng.uniform(-2, 2, (b, m, 3))
        if kind == "lattice":
            query = np.round(query)
    return query, ref


CLOUD_KINDS = st.sampled_from(["random", "lattice", "duplicates"])


class TestKnnExactContract:
    """Both candidate sources equal oracle.naive_knn index for index."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 120),
           m=st.integers(1, 40), k=st.integers(1, 20), b=st.integers(1, 2),
           block=st.sampled_from([geometry._KNN_BLOCK_PAIRS, 1, 60, 700]))
    def test_dense_and_tree_equal_oracle(self, seed, kind, n, m, k, b, block):
        # small row blocks make the dense scan span many blocks at these sizes
        k = min(k, n)
        query, ref = _cloud_pair(seed, kind, b, n, m)
        want = oracle.naive_knn(query, ref, k)
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", block):
            assert np.array_equal(geometry._knn_dense(query, ref, k), want)
            assert np.array_equal(geometry._knn_tree(query, ref, k), want)

    def test_row_blocks_at_full_size_equal_one_block(self):
        query, ref = _cloud_pair(3, "duplicates", 2, 1500, 300)
        assert 300 * 1500 > 3 * geometry._KNN_BLOCK_PAIRS
        got = geometry._knn_dense(query, ref, 16)
        assert np.array_equal(got, geometry._knn_rows(query, ref, 16))
        rows = [0, 87, 88, 299]
        assert np.array_equal(got[:, rows], oracle.naive_knn(query[:, rows], ref, 16))

    def test_duplicate_heavy_case(self):
        # the size at which the former |q|^2+|r|^2-2q.r expansion gave
        # identical points different distances
        for seed in range(2):
            query, ref = _cloud_pair(seed, "duplicates", 2, 205, 190)
            want = oracle.naive_knn(query, ref, 15)
            assert np.array_equal(geometry._knn_dense(query, ref, 15), want)
            assert np.array_equal(geometry._knn_tree(query, ref, 15), want)

    def test_large_problem_takes_tree_path_and_agrees(self):
        rng = np.random.default_rng(8)
        cloud = PointSetBatch(positions=rng.uniform(-1, 1, (1, 4100, 3)))
        query = cloud.positions[:, :1024]
        assert 1024 * 4100 > geometry._DENSE_MAX_PAIRS
        got = geometry.knn_points(query, cloud, 8)
        assert np.array_equal(got, geometry._knn_dense(query, cloud.positions, 8))
        rows = rng.choice(1024, size=4, replace=False)
        want = oracle.naive_knn(query[:, rows], cloud.positions, 8)
        assert np.array_equal(got[:, rows], want)

    def test_small_knn_does_not_import_scipy_spatial(self):
        code = (
            "import sys, numpy as np\n"
            "from pointvector import geometry\n"
            "c = geometry.PointSetBatch(positions=np.random.default_rng(0)"
            ".uniform(size=(2, 2048, 3)))\n"
            "geometry.knn_points(c.positions, c, 8)\n"
            "assert 2048 * 2048 <= geometry._DENSE_MAX_PAIRS\n"
            "print('scipy.spatial' in sys.modules)\n")
        src = str(Path(geometry.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


class TestBallQueryContract:
    """The layout of a ball-query neighborhood, which `setabs.pooled_sa`
    relies on to take its max over all K slots."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 120),
           m=st.integers(1, 40), k=st.integers(1, 20), b=st.integers(1, 2),
           radius=st.floats(0.05, 2.0))
    def test_hits_in_radius_then_pads_repeating_slot_zero(self, seed, kind, n, m, k,
                                                          b, radius):
        k = min(k, n)
        _, ref = _cloud_pair(seed, kind, b, n, m)
        centers = np.random.default_rng(seed).integers(0, n, (b, m))
        nbr = ball_query(centers, PointSetBatch(positions=ref), radius, k)
        idx, pad = nbr.indices, nbr.pad_mask
        assert idx.shape == pad.shape == (b, m, k)
        q = ref[np.arange(b)[:, None], centers]
        diff = ref[:, None, :, :] - q[:, :, None, :]
        d2 = (diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]) \
            + diff[..., 2] * diff[..., 2]                              # [b, m, n]
        within = d2 <= radius * radius
        hit_d2 = np.take_along_axis(d2, idx, axis=-1)
        # every real hit is within the radius, distinct and in scan order
        assert (hit_d2[~pad] <= radius * radius).all()
        real_idx = np.where(pad, n, idx)
        assert (np.diff(real_idx, axis=-1)[~pad[..., 1:]] > 0).all()
        # real hits come before pads, and slot 0 is always real
        assert not pad[..., 0].any()
        assert not (pad[..., :-1] & ~pad[..., 1:]).any()
        # every pad repeats slot 0
        assert (idx == np.where(pad, idx[..., :1], idx)).all()
        # pad_mask marks exactly the pads: the real hits are the first
        # min(k, count) in-radius points
        count = np.minimum(within.sum(axis=-1), k)
        assert ((~pad).sum(axis=-1) == count).all()
        first = np.argsort(~within, axis=-1, kind="stable")[..., :k]
        assert (np.where(pad, -1, idx) == np.where(pad, -1, first)).all()


class TestFpsExactContract:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 150),
           frac=st.floats(0.01, 1.0), b=st.integers(1, 3))
    def test_equals_oracle_bit_for_bit(self, seed, kind, n, frac, b):
        _, ref = _cloud_pair(seed, kind, b, n, 1)
        m = max(1, int(frac * n))
        starts = np.random.default_rng(seed).integers(0, n, b)
        got = farthest_point_sample(PointSetBatch(positions=ref), m, starts)
        assert np.array_equal(got, oracle.naive_fps(ref, m, starts))
        for row in got:
            assert len(set(row.tolist())) == m


class TestOrderAndRotationProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(3, 120), frac=st.floats(0.05, 1.0),
           b=st.integers(1, 2))
    def test_geometric_start_fps_ignores_point_order(self, seed, n, frac, b):
        # from n = 3 on, a continuous cloud has no distance ties; two points
        # are always equidistant from their centroid
        rng = np.random.default_rng(seed)
        cloud = PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)))
        perm = rng.permutation(n)
        permuted = PointSetBatch(positions=cloud.positions[:, perm])
        m = max(1, int(frac * n))
        rows = np.arange(b)[:, None]
        picked = cloud.positions[rows, farthest_point_sample(
            cloud, m, geometric_start(cloud))]
        picked_p = permuted.positions[rows, farthest_point_sample(
            permuted, m, geometric_start(permuted))]
        assert np.array_equal(picked, picked_p)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 120), m=st.integers(1, 30),
           k=st.integers(1, 20), angle=st.floats(0.0, 2 * np.pi))
    def test_knn_set_invariant_under_z_rotation(self, seed, n, m, k, angle):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        cloud = PointSetBatch(positions=rng.uniform(-1, 1, (1, n, 3)))
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rotated = PointSetBatch(positions=cloud.positions @ rot.T)
        centers = rng.integers(0, n, (1, m))
        got = knn(centers, cloud, k).indices[0]
        got_r = knn(centers, rotated, k).indices[0]
        d2 = np.sort(((cloud.positions[0, centers[0], None] - cloud.positions[0, None])
                      ** 2).sum(-1), axis=-1)
        for row in range(m):
            # a near tie at the k-th place may legitimately flip under rounding
            if k < n and d2[row, k] - d2[row, k - 1] <= 1e-9 * d2[row, k]:
                continue
            assert set(got[row]) == set(got_r[row])


class TestGroupRelative:
    def test_self_neighbor_is_zero(self):
        cloud = line_cloud()
        nbr = knn(np.array([[1]]), cloud, 1)
        rel_feat, rel_pos = group_relative(cloud, nbr)
        assert np.all(rel_feat == 0) and np.all(rel_pos == 0)

    def test_feature_offset(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 1, 0] = 1.0
        feat = np.array([[[1.0, 2.0], [3.0, 5.0]]])
        cloud = PointSetBatch(positions=pos, features=feat)
        nbr = NeighborIndex(indices=np.array([[[1]]]),
                            pad_mask=np.zeros((1, 1, 1), bool),
                            centers=np.array([[0]]))
        rel_feat, rel_pos = group_relative(cloud, nbr)
        assert rel_feat.tolist() == [[[[2.0, 3.0]]]]
        assert rel_pos.tolist() == [[[[1.0, 0.0, 0.0]]]]

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, n=30, c=5)
        centers = rng.integers(0, 30, size=(1, 6))
        nbr = knn(centers, cloud, 4)
        rel_feat, rel_pos = group_relative(cloud, nbr)
        for i in range(6):
            for j in range(4):
                src = nbr.indices[0, i, j]
                ctr = centers[0, i]
                assert np.allclose(rel_feat[0, i, j],
                                   cloud.features[0, src] - cloud.features[0, ctr])
                assert np.allclose(rel_pos[0, i, j],
                                   cloud.positions[0, src] - cloud.positions[0, ctr])

    def test_requires_features(self):
        cloud = PointSetBatch(positions=np.zeros((1, 3, 3)))
        nbr = knn(np.array([[0]]), cloud, 2)
        with pytest.raises(DataError):
            group_relative(cloud, nbr)


class TestPointSetBatch:
    def test_shape_validation(self):
        with pytest.raises(SizeError):
            PointSetBatch(positions=np.zeros((3, 3)))
        with pytest.raises(SizeError):
            PointSetBatch(positions=np.zeros((1, 2, 3)),
                          features=np.zeros((1, 3, 4)))

    def test_tensor_features_rejected(self):
        with pytest.raises(DataError, match="not a Tensor"):
            PointSetBatch(positions=np.zeros((1, 2, 3)),
                          features=Tensor(np.zeros((1, 2, 4))))

    def test_nonfinite_positions_rejected(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            PointSetBatch(positions=pos)
