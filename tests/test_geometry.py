import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointvector import dataio, geometry, oracle
from pointvector.errors import ConfigError, ContractError, DataError, SizeError
from pointvector.geometry import (
    NeighborIndex,
    PointSetBatch,
    ball_query,
    farthest_point_sample,
    geometric_start,
    knn,
)
from pointvector.model import Model, preset_config
from pointvector.oracle import group_relative


def line_cloud():
    pos = np.array([[[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]]])
    return PointSetBatch(positions=pos)


def random_cloud(rng, b=1, n=100):
    return PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)))


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

    @pytest.mark.parametrize("m", [2.5, True, np.float64(2.0)])
    def test_sample_count_is_an_integer(self, m):
        # a float m would reach range() as a bare TypeError; True would count as 1
        with pytest.raises(SizeError, match=re.escape(f"m={m!r}")):
            farthest_point_sample(line_cloud(), m, 0)

    @pytest.mark.parametrize("start", [1.5, np.array([0, 1, 2])], ids=["float", "three-for-two"])
    def test_start_is_one_integer_index_per_batch_entry(self, start):
        # np.int64 would truncate 1.5 to a silent start at index 1
        cloud = random_cloud(np.random.default_rng(9), b=2, n=8)
        with pytest.raises(SizeError, match="start"):
            farthest_point_sample(cloud, 5, start)

    def test_per_batch_start(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, b=2, n=16)
        idx = farthest_point_sample(cloud, 4, np.array([3, 7]))
        assert idx[0, 0] == 3 and idx[1, 0] == 7

    def test_geometric_start_permutation_stable(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, n=50)
        perm = rng.permutation(50)
        permuted = PointSetBatch(positions=cloud.positions[:, perm])
        s0 = geometric_start(cloud)[0]
        s1 = geometric_start(permuted)[0]
        assert np.allclose(cloud.positions[0, s0], permuted.positions[0, s1])

    def test_geometric_start_ties_resolve_by_position(self):
        # all 8 corners of a cube tie as farthest from the centroid; the start
        # is the lexicographically largest corner whatever the point order
        corners = np.array(np.meshgrid([-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                                       indexing="ij")).reshape(3, -1).T
        rng = np.random.default_rng(3)
        for perm in [np.arange(8), np.arange(8)[::-1]] + [rng.permutation(8)
                                                           for _ in range(20)]:
            pos = np.stack([corners[perm], 2.0 * corners[perm] + 5.0])
            start = geometric_start(PointSetBatch(positions=pos))
            assert pos[0, start[0]].tolist() == [1.0, 1.0, 1.0]
            assert pos[1, start[1]].tolist() == [7.0, 7.0, 7.0]


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
            rel = group_relative(cloud.positions, np.zeros((1, 200, 1)), nbr)[1]
            d = np.linalg.norm(rel, axis=-1)
            assert (d[~nbr.pad_mask] <= 0.4 + 1e-12).all()

    def test_k_too_large(self):
        # more slots than points would return fewer than k columns
        with pytest.raises(SizeError, match="exceeds cloud size"):
            ball_query(np.array([[0]]), line_cloud(), 1.5, 5)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_nonfinite_radius_rejected(self, radius):
        # under a NaN radius no point, not even the center, is in radius
        cloud = random_cloud(np.random.default_rng(10), n=8)
        with pytest.raises(ConfigError, match="radius"):
            ball_query(np.array([[5]]), cloud, radius, 4)

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


@pytest.mark.parametrize("search", [lambda c, x: knn(c, x, 2),
                                    lambda c, x: ball_query(c, x, 1.5, 2)],
                         ids=["knn", "ball_query"])
@pytest.mark.parametrize("center", [-1, 4])
def test_center_outside_the_cloud_is_rejected(search, center):
    with pytest.raises(SizeError, match=r"out of range \[0, 4\)"):
        search(np.array([[0, center]]), line_cloud())


@pytest.mark.parametrize("search", [lambda c, x: knn(c, x, 2),
                                    lambda c, x: ball_query(c, x, 1.5, 2)],
                         ids=["knn", "ball_query"])
def test_fractional_centers_are_rejected(search):
    # an int64 cast would truncate them to the centers [[1, 2]]
    with pytest.raises(SizeError, match="expected integer"):
        search(np.array([[1.7, 2.2]]), line_cloud())


# each oracle's guard, tripped by the smallest input that trips it
ORACLE_GUARDS = {
    "fd_gradient": (lambda: oracle.fd_gradient(lambda x: np.nan, np.zeros(2)),
                    "non-finite evaluation at coordinate 0"),
    "naive_knn_work": (lambda: oracle.naive_knn(np.zeros((1, 1001, 3)), np.zeros((1, 1000, 3)), 1),
                       "naive_knn instance too large"),
    "naive_knn_k": (lambda: oracle.naive_knn(np.zeros((1, 1, 3)), np.zeros((1, 2, 3)), 3),
                    "k=3 exceeds 2 reference points"),
    "naive_ball_query": (lambda: oracle.naive_ball_query(
        np.zeros((1, 1000, 3)), np.zeros((1, 1001), np.int64), 1.0, 1),
        "naive_ball_query instance too large"),
    "naive_ball_query_empty": (lambda: oracle.naive_ball_query(
        np.zeros((1, 1, 3)), np.zeros((1, 1), np.int64), np.nan, 1),
        "no point in radius"),
    "naive_fps": (lambda: oracle.naive_fps(np.zeros((1, 2, 3)), 3),
                  "requested 3 samples from 2 points"),
    "naive_interpolate": (lambda: oracle.naive_interpolate(
        np.zeros((1, 1001, 3)), np.zeros((1, 1001, 1)), np.zeros((1, 1000, 3))),
        "naive_interpolate instance too large"),
    "group_relative": (lambda: group_relative(
        np.zeros((1, 2, 3)), np.zeros((1, 2, 1)),
        NeighborIndex(np.array([[[2]]]), np.zeros((1, 1, 1), bool), np.zeros((1, 1), np.int64))),
        "neighbor indices outside the source cloud"),
    "naive_sa": (lambda: oracle.naive_sa(np.zeros((1, 1, 3)), np.zeros((1, 1, 11)),
                                         np.zeros((1, 1000), np.int64),
                                         np.zeros((1, 1000, 10), np.int64), []),
                 "naive_sa instance too large"),
    "brute_force_vpsa": (lambda: oracle.brute_force_vpsa(
        np.zeros((1, 1, 3)), np.zeros((1, 1, 11)), np.zeros((1, 1000), np.int64),
        np.zeros((1, 1000, 10), np.int64), None, {}),
        "brute_force_vpsa instance too large"),
}


@pytest.mark.parametrize("call,message", ORACLE_GUARDS.values(), ids=ORACLE_GUARDS)
def test_oracle_outside_its_regime_is_a_contract_error(call, message):
    with pytest.raises(ContractError, match=message):
        call()


class TestKnnPointsQuery:
    """A bad query fails with a library error that names the cause."""

    @pytest.mark.parametrize("dense_max", [geometry._DENSE_MAX_PAIRS, 0], ids=["dense", "tree"])
    def test_batch_mismatch(self, dense_max):
        cloud = random_cloud(np.random.default_rng(11), b=2, n=16)
        with mock.patch.object(geometry, "_DENSE_MAX_PAIRS", dense_max), \
                pytest.raises(SizeError, match="batch of 2"):
            geometry.knn_points(np.zeros((3, 4, 3)), cloud, 2)

    def test_two_coordinates(self):
        cloud = random_cloud(np.random.default_rng(12), b=2, n=16)
        with pytest.raises(SizeError, match=r"expected \[B, M, 3\]"):
            geometry.knn_points(np.zeros((2, 4, 2)), cloud, 2)

    def test_nan_query(self):
        query = np.zeros((1, 4, 3))
        query[0, 2, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            geometry.knn_points(query, line_cloud(), 2)

    def test_fractional_k(self):
        with pytest.raises(ConfigError, match="integer"):
            geometry.knn_points(np.zeros((1, 4, 3)), line_cloud(), 2.5)


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
    """Every candidate source, the full dense block, the x-window scan and
    the k-d tree, equals oracle.naive_knn index for index."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 120),
           m=st.integers(1, 40), k=st.integers(1, 20), b=st.integers(1, 2),
           block=st.sampled_from([geometry._KNN_BLOCK_PAIRS, 0, 60, 700]),
           queries=st.sampled_from([1, 3, 7, 16]))
    def test_dense_and_tree_equal_oracle(self, seed, kind, n, m, k, b, block, queries):
        # small pair blocks make the dense scan take x-windows at these
        # sizes; with small query blocks most windows reach only part of the
        # cloud, the last block is short unless m divides evenly, and the
        # rows the windows cannot vouch for are re-solved
        k = min(k, n)
        query, ref = _cloud_pair(seed, kind, b, n, m)
        want = oracle.naive_knn(query, ref, k)
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", block), \
                mock.patch.object(geometry, "_KNN_QUERY_BLOCK", queries):
            assert np.array_equal(geometry._knn_dense(query, ref, k), want)
            assert np.array_equal(geometry._knn_tree(query, ref, k), want)

    def test_window_scan_runs_windows_short_blocks_and_re_solves(self):
        # the property's regime at one size: windows narrower than the cloud,
        # a short last block (40 = 5 * 7 + 5) and re-solved rows
        query, ref = _cloud_pair(2, "random", 1, 120, 40)
        assert 2 * geometry._knn_half_width(2, 120) + 7 < 120
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", 0), \
                mock.patch.object(geometry, "_KNN_QUERY_BLOCK", 7), \
                mock.patch.object(geometry, "_knn_scan", wraps=geometry._knn_scan) as scan:
            got = geometry._knn_dense(query, ref, 2)
        assert scan.call_count == 1 and 0 < len(scan.call_args.args[0]) < 40
        assert np.array_equal(got, oracle.naive_knn(query, ref, 2))

    def test_narrowest_windows_fall_back_to_the_full_scan(self):
        # windows of k+1 ranks either side of each block leave most rows
        # unproven; those rows must come back from the full scan
        query, ref = _cloud_pair(4, "random", 2, 512, 512)
        assert 512 * 512 > geometry._KNN_BLOCK_PAIRS
        with mock.patch.object(geometry, "_knn_half_width", lambda k, n: k + 1), \
                mock.patch.object(geometry, "_knn_scan", wraps=geometry._knn_scan) as scan:
            got = geometry._knn_dense(query, ref, 8)
        assert sum(len(c.args[0]) for c in scan.call_args_list) > 512
        assert np.array_equal(got, geometry._knn_rows(query, ref, 8))

    def test_ties_in_a_window_go_to_the_lower_index(self):
        # sorting by x puts point 2 (x = -1) before point 1 (x = 1), which
        # ties it at d^2 = 1 from the query: the window ranks by index
        ref = np.array([[[0.0, 0, 0], [1, 0, 0], [-1, 0, 0]]])
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", 0), \
                mock.patch.object(geometry, "_knn_window", wraps=geometry._knn_window) as win:
            assert geometry._knn_dense(ref[:, :1], ref, 2).tolist() == [[[0, 1]]]
        assert win.call_count == 1

    def test_tie_just_outside_the_window_goes_to_the_lower_index(self):
        # point 0 is the one point left of the query's window (half-width 5:
        # points 1-5, then 6, which shares the query's x); it ties point 6 at
        # d^2 = 1, the k-th distance, and its x-gap squared is exactly 1, so
        # the row must be re-solved, and the lower index wins
        ref = np.array([[[-1.0, 0, 0]] + [[-0.5, 5, 0]] * 5 + [[0.0, 1, 0]]])
        query = np.zeros((1, 1, 3))
        assert geometry._knn_half_width(1, 7) == 5
        assert oracle.naive_knn(query, ref, 1).tolist() == [[[0]]]
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", 0), \
                mock.patch.object(geometry, "_knn_scan", wraps=geometry._knn_scan) as scan:
            assert geometry._knn_dense(query, ref, 1).tolist() == [[[0]]]
        assert scan.call_count == 1

    @pytest.mark.parametrize("b, m, n, k, windows", [
        (2, 2048, 512, 3, 2), (2, 512, 2048, 32, 2), (2, 512, 512, 8, 2),   # train-l
        (8, 512, 256, 3, 0), (8, 256, 128, 3, 0)])                       # fit-toy-ball
    def test_window_scan_takes_the_large_benchmark_calls(self, b, m, n, k, windows):
        # without scipy.spatial, the three largest kNN calls of a
        # pointvector-l train step at N=2048 scan windows, one per cloud; the
        # toy-seg-ball decoder's calls at N=512 (at most 2^17 pairs per
        # cloud) scan their whole block
        query, ref = _cloud_pair(6, "random", b, n, m)
        with mock.patch.dict(sys.modules), \
                mock.patch.object(geometry, "_knn_window", wraps=geometry._knn_window) as win:
            sys.modules.pop("scipy.spatial", None)
            got = geometry.knn_points(query, PointSetBatch(positions=ref), k)
        assert win.call_count == windows
        assert np.array_equal(got, geometry._knn_rows(query, ref, k))

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

    MID_SIZES = [(512, 2048, 32, 1), (2048, 512, 3, 2)]   # m, n, k, seed

    @pytest.mark.parametrize("m, n, k, seed", MID_SIZES)
    def test_mid_size_takes_tree_once_scipy_spatial_is_loaded(self, m, n, k, seed):
        import scipy.spatial  # noqa: F401

        query, ref = _cloud_pair(seed, "random", 1, n, m)
        assert geometry._TREE_MIN_PAIRS < m * n <= geometry._DENSE_MAX_PAIRS
        with mock.patch.object(geometry, "_knn_tree", wraps=geometry._knn_tree) as tree:
            got = geometry.knn_points(query, PointSetBatch(positions=ref), k)
        assert tree.call_count == 1
        assert np.array_equal(got, geometry._knn_dense(query, ref, k))
        rows = np.random.default_rng(seed).choice(m, size=4, replace=False)
        assert np.array_equal(got[:, rows], oracle.naive_knn(query[:, rows], ref, k))

    @pytest.mark.parametrize("m, n, k, seed", MID_SIZES)
    def test_mid_size_stays_dense_without_scipy_spatial(self, m, n, k, seed):
        query, ref = _cloud_pair(seed, "random", 1, n, m)
        with mock.patch.dict(sys.modules), \
                mock.patch.object(geometry, "_knn_tree", wraps=geometry._knn_tree) as tree:
            sys.modules.pop("scipy.spatial", None)
            got = geometry.knn_points(query, PointSetBatch(positions=ref), k)
        assert tree.call_count == 0
        assert np.array_equal(got, geometry._knn_rows(query, ref, k))

    def test_small_knn_does_not_import_scipy_spatial(self):
        # every kNN size of a pointvector-l train step at N=2048 and of the
        # toy-seg-ball decoder at N=512: loading the module would add about
        # 38 MB to the resident memory of such runs
        code = (
            "import sys, numpy as np\n"
            "from pointvector import geometry\n"
            "rng = np.random.default_rng(0)\n"
            "for m, n, k in [(2048, 2048, 8), (512, 2048, 32), (2048, 512, 3),\n"
            "                (512, 512, 8), (512, 256, 3), (256, 128, 3)]:\n"
            "    c = geometry.PointSetBatch(positions=rng.uniform(size=(2, n, 3)))\n"
            "    geometry.knn_points(rng.uniform(size=(2, m, 3)), c, k)\n"
            "    assert m * n <= geometry._DENSE_MAX_PAIRS\n"
            "print('scipy.spatial' in sys.modules)\n")
        src = str(Path(geometry.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


class TestBallQueryContract:
    """`ball_query` equals `oracle.naive_ball_query`: the first k in-radius
    points by index, then pads that repeat slot 0, the layout that
    `setabs.pooled_sa` relies on to take its max over all K slots."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 120),
           m=st.integers(1, 40), k=st.integers(1, 20), b=st.integers(1, 2),
           radius=st.floats(0.05, 2.0),
           block=st.sampled_from([geometry._KNN_BLOCK_PAIRS, 0, 60, 700]))
    def test_hits_in_radius_then_pads_repeating_slot_zero(self, seed, kind, n, m, k,
                                                          b, radius, block):
        # small pair blocks split each batch entry's rows across row blocks
        k = min(k, n)
        _, ref = _cloud_pair(seed, kind, b, n, m)
        centers = np.random.default_rng(seed).integers(0, n, (b, m))
        with mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", block):
            nbr = ball_query(centers, PointSetBatch(positions=ref), radius, k)
        idx, pad = nbr.indices, nbr.pad_mask
        want_idx, want_pad = oracle.naive_ball_query(ref, centers, radius, k)
        assert np.array_equal(idx, want_idx) and np.array_equal(pad, want_pad)
        # slot 0 is always real, real hits come before pads, pads repeat slot 0
        assert not pad[..., 0].any()
        assert not (pad[..., :-1] & ~pad[..., 1:]).any()
        assert (idx == np.where(pad, idx[..., :1], idx)).all()


def _far_cloud(seed: int, b: int, n: int) -> np.ndarray:
    """Finite points [b,n,3] in clusters about 1e160 apart and 1e152 wide:
    squared distances within a cluster are finite, about 1e304, and those
    across clusters overflow to inf."""
    rng = np.random.default_rng(seed)
    hubs = rng.uniform(-1, 1, (b, max(1, n // 6), 3)) * 1e160
    return hubs[:, rng.integers(0, hubs.shape[1], n)] + rng.uniform(-1, 1, (b, n, 3)) * 1e152


class TestOverflowingDistances:
    """On finite clouds whose squared distances overflow to inf, every
    neighborhood source equals its reference, and no numpy warning leaves
    `geometry`."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("block", [geometry._KNN_BLOCK_PAIRS, 0, 60])
    def test_knn_sources_equal_oracle(self, seed, block):
        # the whole block, x-windows (block 0) and row blocks (block 60) rank
        # rows whose k-th distance is inf; the tree reports such neighbors
        # as index n
        ref = _far_cloud(seed, 2, 40)
        query = np.concatenate([ref[:, ::3], _far_cloud(seed + 100, 2, 10)], axis=1)
        for k in (1, 4, 9, 40):
            with np.errstate(over="ignore"):
                want = oracle.naive_knn(query, ref, k)
            with warnings.catch_warnings(), \
                    mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", block), \
                    mock.patch.object(geometry, "_KNN_QUERY_BLOCK", 7):
                warnings.simplefilter("error")
                assert np.array_equal(geometry._knn_dense(query, ref, k), want)
                assert np.array_equal(geometry._knn_tree(query, ref, k), want)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("block", [geometry._KNN_BLOCK_PAIRS, 0, 60])
    @pytest.mark.parametrize("radius", [3e152, 1e155, 1e300])
    def test_ball_query_equals_oracle(self, seed, block, radius):
        # radii above about 1.3e154 square to inf, which holds every point
        ref = _far_cloud(seed, 2, 40)
        centers = np.random.default_rng(seed).integers(0, 40, (2, 15))
        want_idx, want_pad = oracle.naive_ball_query(ref, centers, radius, 9)
        with warnings.catch_warnings(), \
                mock.patch.object(geometry, "_KNN_BLOCK_PAIRS", block):
            warnings.simplefilter("error")
            nbr = ball_query(centers, PointSetBatch(positions=ref), radius, 9)
        assert np.array_equal(nbr.indices, want_idx)
        assert np.array_equal(nbr.pad_mask, want_pad)


def _fps_equals_oracle(seed, kind, n, frac, b):
    _, ref = _cloud_pair(seed, kind, b, n, 1)
    m = max(1, int(frac * n))
    starts = np.random.default_rng(seed).integers(0, n, b)
    got = farthest_point_sample(PointSetBatch(positions=ref), m, starts)
    assert np.array_equal(got, oracle.naive_fps(ref, m, starts))
    for row in got:
        assert len(set(row.tolist())) == m


class TestFpsExactContract:
    """Both FPS sources equal oracle.naive_fps index for index."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 150),
           frac=st.floats(0.01, 1.0), b=st.integers(1, 3))
    def test_equals_oracle_bit_for_bit(self, seed, kind, n, frac, b):
        _fps_equals_oracle(seed, kind, n, frac, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), kind=CLOUD_KINDS, n=st.integers(1, 150),
           frac=st.floats(0.01, 1.0), b=st.integers(1, 3))
    def test_slab_loop_equals_oracle_bit_for_bit(self, seed, kind, n, frac, b):
        # every cloud takes the slab loop; lattice and duplicate clouds reach
        # exact ties and r^2 = 0
        with mock.patch.object(geometry, "_FPS_SLAB_MIN_POINTS", 0):
            _fps_equals_oracle(seed, kind, n, frac, b)

    def test_slab_reaches_a_point_just_inside_its_edge(self):
        # points 1 and 2 tie at r^2 = 1 + 1e-10 from point 0 and lie 1 apart
        # in x, just inside the slab around point 1; the update takes point
        # 2 to 1, below point 3's 1 + 0.5e-10, so point 3 comes third
        h = np.sqrt(0.75 + 1e-10)
        pos = np.array([[[0.0, 0, 0], [0.5, h, 0], [-0.5, h, 0],
                         [0, -np.sqrt(1 + 0.5e-10), 0]]])
        assert oracle.naive_fps(pos, 4, 0).tolist() == [[0, 1, 3, 2]]
        with mock.patch.object(geometry, "_FPS_SLAB_MIN_POINTS", 1):
            assert farthest_point_sample(PointSetBatch(positions=pos), 4, 0).tolist() \
                == [[0, 1, 3, 2]]

    def test_slab_loop_from_its_threshold_equals_batched_loop(self):
        t = geometry._FPS_SLAB_MIN_POINTS
        # (B, N, calls of the slab loop): the threshold is min(B, 4) t, one
        # point fewer keeps the batched loop, and so do train_loop's batches
        # of 8 clouds of 2048 points
        for b, n, slabs in [(1, t, 1), (1, t - 1, 0), (2, 2 * t, 2), (2, 2 * t - 1, 0),
                            (8, 2048, 0)]:
            _, ref = _cloud_pair(5, "random", b, n, 1)
            starts = np.arange(7, 7 + b)
            m = n // 4 if slabs else 4
            with mock.patch.object(geometry, "_fps_slab", wraps=geometry._fps_slab) as slab:
                got = farthest_point_sample(PointSetBatch(positions=ref), m, starts)
            assert slab.call_count == slabs
            assert np.array_equal(got, geometry._fps_batched(ref, m, starts))


@pytest.mark.matrix
@pytest.mark.parametrize("m, n, k", [(2048, 512, 3), (512, 2048, 32), (512, 512, 8)])
def test_window_knn_on_scene_clouds_equals_full_scan(m, n, k):
    # the three windowed kNN calls of a pointvector-l train step at N=2048:
    # the decoder's 2048 -> 512 interpolation, the SA grouping of 512 FPS
    # centers and the stride-1 VPSA neighborhood among them
    pos = dataio.make_segmentation_dataset(num_scenes=2, num_points=2048, seed=0).positions
    cloud = PointSetBatch(positions=pos)
    sub = pos[np.arange(2)[:, None], farthest_point_sample(cloud, 512, geometric_start(cloud))]
    query, ref = (pos if m == 2048 else sub), (pos if n == 2048 else sub)
    with mock.patch.object(geometry, "_knn_window", wraps=geometry._knn_window) as win:
        got = geometry._knn_dense(query, ref, k)
    assert win.call_count == 2
    assert np.array_equal(got, geometry._knn_rows(query, ref, k))


@pytest.mark.matrix
def test_toy_seg_ball_neighborhoods_on_scene_clouds_equal_oracles(monkeypatch):
    # the four ball queries and the two decoder kNN calls of a toy-seg-ball
    # train forward on the fit-toy-ball benchmark's batch: B=8 scene clouds
    # of 512 points
    data = dataio.make_segmentation_dataset(num_scenes=8, num_points=512, seed=0)
    calls = []

    def spy(name):
        search = getattr(geometry, name)

        def call(*args):
            out = search(*args)
            calls.append((name, args, out))
            return out
        monkeypatch.setattr(geometry, name, call)

    spy("ball_query")
    spy("knn_points")
    Model(preset_config("toy-seg-ball", num_classes=data.num_classes)).forward_seg(
        PointSetBatch(positions=data.positions), "train")
    assert sorted(name for name, _, _ in calls) == ["ball_query"] * 4 + ["knn_points"] * 2
    for name, args, out in calls:
        for bi in range(8):   # one cloud at a time keeps the oracles in their regime
            one = slice(bi, bi + 1)
            if name == "ball_query":
                centers, cloud, radius, k = args
                idx, pad = oracle.naive_ball_query(cloud.positions[one], centers[one], radius, k)
                assert np.array_equal(out.indices[one], idx)
                assert np.array_equal(out.pad_mask[one], pad)
            else:
                query, cloud, k = args
                assert np.array_equal(out[one], oracle.naive_knn(query[one], cloud.positions[one], k))


@pytest.mark.matrix
@pytest.mark.parametrize("n, m", [(8192, 2048), (2048, 512)])
def test_slab_fps_on_scene_clouds_equals_batched_loop(n, m):
    # the two FPS sizes that take the slab loop in a forward pass on two
    # scene clouds: 8192 -> 2048, pointvector-s's first call at N=8192, and
    # 2048 -> 512, its second call and pointvector-l's first at N=2048
    cloud = PointSetBatch(positions=dataio.make_segmentation_dataset(
        num_scenes=2, num_points=n, seed=0).positions)
    start = geometric_start(cloud)
    with mock.patch.object(geometry, "_fps_slab", wraps=geometry._fps_slab) as slab:
        got = farthest_point_sample(cloud, m, start)
    assert slab.call_count == 2
    assert np.array_equal(got, geometry._fps_batched(
        cloud.positions.astype(np.float64), m, start))


class TestOrderAndRotationProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 120), frac=st.floats(0.05, 1.0),
           b=st.integers(1, 2))
    def test_geometric_start_fps_ignores_point_order(self, seed, n, frac, b):
        # two points tie as farthest from their centroid; the start breaks
        # the tie by position, not by index
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
        rel_feat, rel_pos = group_relative(cloud.positions, np.zeros((1, 4, 2)), nbr)
        assert np.all(rel_feat == 0) and np.all(rel_pos == 0)

    def test_feature_offset(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 1, 0] = 1.0
        feat = np.array([[[1.0, 2.0], [3.0, 5.0]]])
        nbr = NeighborIndex(indices=np.array([[[1]]]),
                            pad_mask=np.zeros((1, 1, 1), bool),
                            centers=np.array([[0]]))
        rel_feat, rel_pos = group_relative(pos, feat, nbr)
        assert rel_feat.tolist() == [[[[2.0, 3.0]]]]
        assert rel_pos.tolist() == [[[[1.0, 0.0, 0.0]]]]

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, n=30)
        feat = rng.standard_normal((1, 30, 5))
        centers = rng.integers(0, 30, size=(1, 6))
        nbr = knn(centers, cloud, 4)
        rel_feat, rel_pos = group_relative(cloud.positions, feat, nbr)
        for i in range(6):
            for j in range(4):
                src = nbr.indices[0, i, j]
                ctr = centers[0, i]
                assert np.allclose(rel_feat[0, i, j],
                                   feat[0, src] - feat[0, ctr])
                assert np.allclose(rel_pos[0, i, j],
                                   cloud.positions[0, src] - cloud.positions[0, ctr])


class TestPointSetBatch:
    def test_shape_validation(self):
        with pytest.raises(SizeError):
            PointSetBatch(positions=np.zeros((3, 3)))

    def test_nonfinite_positions_rejected(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            PointSetBatch(positions=pos)


class TestOneDistanceOneOrder:
    """`_sq_dist` is the oracle's formula; `sort_neighbors_by_distance` ranks
    by (d^2, index) with pads last."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape,b_shape", [((2, 5, 1, 3), (2, 1, 7, 3)),
                                                 ((4, 3), (3,)), ((6, 3), (6, 3))])
    def test_sq_dist_is_the_oracle_formula_bit_for_bit(self, dtype, a_shape, b_shape):
        rng = np.random.default_rng(12)
        a = (rng.standard_normal(a_shape) * 10.0 ** rng.integers(-3, 3, a_shape)).astype(dtype)
        b = (rng.standard_normal(b_shape) * 10.0 ** rng.integers(-3, 3, b_shape)).astype(dtype)
        got = geometry._sq_dist(a, b)
        aa, bb = np.broadcast_arrays(a, b)
        assert got.dtype == np.float64 and got.shape == aa.shape[:-1]
        for i in np.ndindex(got.shape):
            d = bb[i].astype(np.float64) - aa[i].astype(np.float64)
            assert got[i] == float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sort_neighbors_ranks_by_distance_then_index_pads_last(self, dtype):
        rng = np.random.default_rng(13)
        pos = rng.integers(-2, 3, (2, 40, 3)).astype(dtype)   # many exact ties
        nbr = ball_query(rng.integers(0, 40, (2, 9)), PointSetBatch(positions=pos), 1.5, 12)
        assert nbr.pad_mask.any()
        shuffled = rng.permuted(np.arange(12)[None, None].repeat(9, 1).repeat(2, 0), axis=-1)
        mixed = NeighborIndex(indices=np.take_along_axis(nbr.indices, shuffled, -1),
                              pad_mask=np.take_along_axis(nbr.pad_mask, shuffled, -1),
                              centers=nbr.centers)
        got = geometry.sort_neighbors_by_distance(pos, mixed)
        for bi, i in np.ndindex(2, 9):
            real = nbr.indices[bi, i][~nbr.pad_mask[bi, i]]
            ctr = pos[bi, nbr.centers[bi, i]].astype(np.float64)
            keys = sorted((float(((pos[bi, j].astype(np.float64) - ctr) ** 2).sum()), j)
                          for j in real)
            assert got.indices[bi, i, :len(real)].tolist() == [j for _, j in keys]
            assert not got.pad_mask[bi, i, :len(real)].any()
            assert got.pad_mask[bi, i, len(real):].all()
            assert (got.indices[bi, i, len(real):] == nbr.indices[bi, i, 0]).all()

    @pytest.mark.parametrize("indices,pad", [([0, 3, 0, 0], [False, False, True, True]),
                                             ([0, 0, 3, 0], [True, False, False, True])])
    def test_sort_neighbors_keeps_an_overflowed_neighbor_ahead_of_the_pads(self, indices,
                                                                            pad):
        """Neighbor 3's d^2 overflows to inf, where the pads used to rank:
        it keeps its real slot, and the pads, which repeat slot 0, stay last."""
        pos = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [1e160, -1e160, 1e160]]])
        nbr = NeighborIndex(indices=np.array([[indices]]), pad_mask=np.array([[pad]]),
                            centers=np.array([[0]]))
        got = geometry.sort_neighbors_by_distance(pos, nbr)
        assert got.indices.tolist() == [[[0, 3, 0, 0]]]
        assert got.pad_mask.tolist() == [[[False, False, True, True]]]
