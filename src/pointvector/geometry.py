"""Deterministic point sampling and neighborhood construction.

All distance computations run in double precision so that tie-breaking is
stable regardless of the training precision. Everything here is a pure
function of its inputs; no op is differentiated (neighbor selection is a
discrete choice).

There is one distance definition: the squared distance between q and r is
(qx-rx)^2 + (qy-ry)^2 + (qz-rz)^2, summed in that order in float64, the
formula `oracle.naive_knn` uses. Neighbors are ordered by (d^2, index), so
exact ties, duplicate points included, resolve to the lower index. kNN
picks its candidates from one of two sources by problem size: up to
`_DENSE_MAX_PAIRS` query-reference pairs per batch entry it scans the dense
[M,N] distance block; above that it asks a k-d tree (`scipy.spatial`,
imported only then) for k+1 candidates, re-scores them exactly, and re-solves
densely any row whose k-th and (k+1)-th distances are too close to separate.
Both sources return the same indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ConfigError, EmptyNeighborhoodError, SizeError
from .nnops import Tensor


@dataclass
class PointSetBatch:
    """A batch of point clouds: positions [B,N,3], features [B,N,C], labels [B,N].

    Features and labels are optional arrays; when only positions exist the
    model derives input features at its entry point. The blocks take their
    autodiff features as a separate Tensor argument, never in this slot.
    """

    positions: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions)
        if self.positions.ndim != 3 or self.positions.shape[-1] != 3:
            raise SizeError(f"positions must be [B,N,3], got {self.positions.shape}")
        if self.positions.shape[1] < 1:
            raise SizeError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.positions)):
            raise DataError("positions contain non-finite values")
        if self.features is not None:
            if isinstance(self.features, Tensor):
                raise DataError("features must be an array, not a Tensor; blocks "
                                "take autodiff features as a separate argument")
            self.features = np.asarray(self.features)
            if self.features.ndim != 3 or self.features.shape[:2] != self.positions.shape[:2]:
                raise SizeError(
                    f"features shape {self.features.shape} does not match positions "
                    f"{self.positions.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != self.positions.shape[:2]:
                raise SizeError(
                    f"labels shape {self.labels.shape} does not match positions")

    @property
    def batch_size(self) -> int:
        return self.positions.shape[0]

    @property
    def num_points(self) -> int:
        return self.positions.shape[1]


@dataclass
class NeighborIndex:
    """Per-center neighbor table: indices [B,M,K], pad_mask [B,M,K], centers [B,M].

    pad_mask is True where an entry is a duplicated pad, not a real neighbor.
    """

    indices: np.ndarray
    pad_mask: np.ndarray
    centers: np.ndarray

    @property
    def k(self) -> int:
        return self.indices.shape[2]


def _pairwise_sq_dist(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared distances [B,M,N] between query [B,M,3] and ref [B,N,3], float64.

    Per-coordinate differences, (dx*dx + dy*dy) + dz*dz, so that identical
    points get bit-identical distances wherever they sit in the block.
    """
    q = query.astype(np.float64)
    r = ref.astype(np.float64)
    d2 = np.subtract(q[:, :, None, 0], r[:, None, :, 0])
    np.multiply(d2, d2, out=d2)
    buf = np.empty_like(d2)
    for j in (1, 2):
        np.subtract(q[:, :, None, j], r[:, None, :, j], out=buf)
        np.multiply(buf, buf, out=buf)
        np.add(d2, buf, out=d2)
    return d2


def farthest_point_sample(cloud: PointSetBatch, m: int, start=0) -> np.ndarray:
    """Iterative max-min-distance subsampling; returns indices [B, m].

    The i-th chosen point maximizes the minimum distance to the already
    chosen set; ties and duplicate points resolve to the lowest unchosen
    index, so the output is deterministic and free of repeats. `start` is a
    single index or one index per batch entry.
    """
    pos = cloud.positions.astype(np.float64)
    b, n, _ = pos.shape
    if n == 0:
        raise SizeError("farthest_point_sample on an empty cloud")
    if not 1 <= m <= n:
        raise SizeError(f"requested {m} samples from a cloud of {n} points")
    starts = np.broadcast_to(np.asarray(start, dtype=np.int64), (b,)).copy()
    if starts.min() < 0 or starts.max() >= n:
        raise SizeError(f"start index outside [0, {n})")
    x, y, z = (np.ascontiguousarray(pos[..., j]) for j in range(3))
    chosen = np.zeros((b, m), dtype=np.int64)
    chosen[:, 0] = starts
    batch = np.arange(b)
    # min squared distance to the chosen set; chosen entries are flagged -1
    # so they can never be selected again even when duplicates exist
    min_d = np.full((b, n), np.inf)
    min_d[batch, starts] = -1.0
    d = np.empty((b, n))
    buf = np.empty((b, n))
    for i in range(1, m):
        last = chosen[:, i - 1]
        # (dx*dx + dy*dy) + dz*dz, the oracle's sum, into preallocated buffers
        np.subtract(x, x[batch, last][:, None], out=d)
        np.multiply(d, d, out=d)
        for c in (y, z):
            np.subtract(c, c[batch, last][:, None], out=buf)
            np.multiply(buf, buf, out=buf)
            np.add(d, buf, out=d)
        np.minimum(min_d, d, out=min_d)
        nxt = np.argmax(min_d, axis=1)
        chosen[:, i] = nxt
        min_d[batch, nxt] = -1.0
    return chosen


def geometric_start(cloud: PointSetBatch) -> np.ndarray:
    """Index of the point farthest from the cloud centroid, per batch entry.

    Unlike a fixed start index, this choice does not depend on point order,
    which makes downsampling stable under input permutations.
    """
    pos = cloud.positions.astype(np.float64)
    centroid = pos.mean(axis=1, keepdims=True)
    d = ((pos - centroid) ** 2).sum(axis=-1)
    return np.argmax(d, axis=1)




def ball_query_points(query_xyz: np.ndarray, cloud: PointSetBatch, radius: float,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Radius search of cloud points around arbitrary query positions.

    Returns (indices [B,M,K], pad_mask [B,M,K]). Neighbors appear in scan
    order; short neighborhoods are padded by repeating the first hit.
    """
    if radius <= 0:
        raise ConfigError(f"ball query radius must be positive, got {radius}")
    if k < 1:
        raise ConfigError(f"ball query k must be >= 1, got {k}")
    b, n, _ = cloud.positions.shape
    if k > n:
        raise SizeError(f"k={k} exceeds cloud size {n}")
    d2 = _pairwise_sq_dist(query_xyz, cloud.positions)
    idx = np.broadcast_to(np.arange(n, dtype=np.int64), d2.shape).copy()
    idx[d2 > float(radius) ** 2] = n
    idx = np.sort(idx, axis=-1)[..., :k]
    pad_mask = idx == n
    if np.any(pad_mask[..., 0]):
        bad = np.argwhere(pad_mask[..., 0])[0]
        raise EmptyNeighborhoodError(
            f"no point within radius {radius} of query {tuple(bad)}")
    first = idx[..., :1]
    idx = np.where(pad_mask, first, idx)
    return idx, pad_mask


def ball_query(centers: np.ndarray, cloud: PointSetBatch, radius: float,
               k: int) -> NeighborIndex:
    """Radius-bounded neighbor search around existing cloud points.

    Up to k in-radius points per center, in scan order; the center itself is
    always eligible (distance 0), so same-cloud queries never come up empty.
    """
    centers = np.asarray(centers, dtype=np.int64)
    batch = np.arange(cloud.batch_size)[:, None]
    query_xyz = cloud.positions[batch, centers]
    idx, pad = ball_query_points(query_xyz, cloud, radius, k)
    return NeighborIndex(indices=idx, pad_mask=pad, centers=centers)


# Largest M*N per batch entry whose kNN scans the dense distance block: 4M
# pairs, a 32 MB float64 block. Importing scipy.spatial for the k-d tree
# costs about 38 MB of resident memory, so smaller problems never load it.
_DENSE_MAX_PAIRS = 1 << 22
# query-reference pairs per row block of the dense kNN scan: a 1 MB float64
# block, which stays in cache through the eight passes of the selection
_KNN_BLOCK_PAIRS = 1 << 17
# relative gap between the k-th and (k+1)-th exact distances above which the
# tree's k+1 candidates hold every point as close as the k-th: the tree's own
# distances and pruning bounds differ from the exact ones by a few ulps
_TREE_MARGIN = 1e-12


def knn_points(query_xyz: np.ndarray, cloud: PointSetBatch, k: int) -> np.ndarray:
    """Indices [B,M,K] of the k nearest cloud points to each query position.

    Each row holds the k smallest keys (d^2, index) in increasing order, with
    d^2 the per-coordinate float64 squared distance of the module docstring:
    nearest first, exact ties to the lower index. The result equals
    `oracle.naive_knn`. Up to `_DENSE_MAX_PAIRS` pairs M*N per batch entry it
    comes from the dense distance block, above that from a k-d tree; the
    choice changes the cost, never the indices.
    """
    n = cloud.num_points
    if k > n:
        raise SizeError(f"k={k} exceeds cloud size {n}")
    if k < 1:
        raise ConfigError(f"knn k must be >= 1, got {k}")
    if query_xyz.shape[1] * n <= _DENSE_MAX_PAIRS:
        return _knn_dense(query_xyz, cloud.positions, k)
    return _knn_tree(query_xyz, cloud.positions, k)


def _knn_dense(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] by partial selection over the dense distance block.

    The block is scanned in row blocks of about `_KNN_BLOCK_PAIRS` pairs, so
    its passes stay in cache; rows are independent, so the indices do not
    depend on the blocking.
    """
    b, m, _ = query.shape
    n = ref.shape[1]
    if b * m * n <= _KNN_BLOCK_PAIRS:
        return _knn_rows(query, ref, k)
    rows = max(1, _KNN_BLOCK_PAIRS // n)
    out = np.empty((b, m, k), dtype=np.int64)
    for bi in range(b):
        for lo in range(0, m, rows):
            out[bi, lo:lo + rows] = _knn_rows(query[bi:bi + 1, lo:lo + rows],
                                              ref[bi:bi + 1], k)[0]
    return out


def _knn_rows(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] by partial selection over the full [B,M,N] distance block.

    Rows where an exact-distance tie straddles the k-th position fall back to
    a full stable sort, so ties always go to the lower index.
    """
    d2 = _pairwise_sq_dist(query, ref)
    if k == ref.shape[1]:
        return np.argsort(d2, axis=-1, kind="stable")
    cand = np.argpartition(d2, k - 1, axis=-1)[..., :k]
    cand_d = np.take_along_axis(d2, cand, axis=-1)
    # candidates in index order, then stable-sorted by distance
    order = np.argsort(cand, axis=-1)
    cand = np.take_along_axis(cand, order, axis=-1)
    cand_d = np.take_along_axis(cand_d, order, axis=-1)
    order = np.argsort(cand_d, axis=-1, kind="stable")
    cand = np.take_along_axis(cand, order, axis=-1)
    cand_d = np.take_along_axis(cand_d, order, axis=-1)
    boundary = cand_d[..., -1:]
    ties = (d2 <= boundary).sum(axis=-1) > k
    if np.any(ties):
        full = np.argsort(d2[ties], axis=-1, kind="stable")[:, :k]
        cand[ties] = full
    return cand


def _knn_tree(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] from k+1 k-d tree candidates, re-scored exactly.

    Candidates are sorted by their exact (d^2, index) keys. A row whose k-th
    and (k+1)-th distances lie within `_TREE_MARGIN` of each other may have
    lost a tied or nearly tied point to the tree's rounding; those rows are
    re-solved densely.
    """
    from scipy.spatial import cKDTree

    q = query.astype(np.float64)
    r = ref.astype(np.float64)
    b, m, _ = q.shape
    n = r.shape[1]
    kk = min(k + 1, n)
    out = np.empty((b, m, k), dtype=np.int64)
    for bi in range(b):
        _, cand = cKDTree(r[bi]).query(q[bi], k=kk)
        cand = cand.reshape(m, kk)
        diff = r[bi][cand] - q[bi][:, None, :]
        d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] \
            + diff[..., 2] * diff[..., 2]
        order = np.lexsort((cand, d2), axis=-1)
        cand = np.take_along_axis(cand, order, axis=-1)
        out[bi] = cand[:, :k]
        if kk == k:
            continue  # every point is a candidate
        d2 = np.take_along_axis(d2, order, axis=-1)
        unsure = np.flatnonzero(d2[:, k] - d2[:, k - 1] <= _TREE_MARGIN * d2[:, k])
        if unsure.size:
            out[bi, unsure] = _knn_dense(q[bi:bi + 1, unsure], r[bi:bi + 1], k)[0]
    return out


def knn(centers: np.ndarray, cloud: PointSetBatch, k: int) -> NeighborIndex:
    """k nearest neighbors of selected cloud points (the center included)."""
    centers = np.asarray(centers, dtype=np.int64)
    batch = np.arange(cloud.batch_size)[:, None]
    query_xyz = cloud.positions[batch, centers]
    idx = knn_points(query_xyz, cloud, k)
    pad = np.zeros(idx.shape, dtype=bool)
    return NeighborIndex(indices=idx, pad_mask=pad, centers=centers)


def relative_positions(positions: np.ndarray, nbr: NeighborIndex) -> np.ndarray:
    """rel_pos[b,i,j] = p_neighbor - p_center, shape [B,M,K,3]."""
    b = positions.shape[0]
    batch3 = np.arange(b)[:, None, None]
    batch2 = np.arange(b)[:, None]
    nbr_pos = positions[batch3, nbr.indices]
    ctr_pos = positions[batch2, nbr.centers]
    return nbr_pos - ctr_pos[:, :, None, :]


def sort_neighbors_by_distance(positions: np.ndarray, nbr: NeighborIndex) -> NeighborIndex:
    """Reorder each neighborhood by (distance, index).

    Gives slot-kernel aggregation modes a canonical neighbor order on
    otherwise unordered sets. Padded entries sort like their source values
    but keep their pad flag count.
    """
    rel = relative_positions(positions, nbr).astype(np.float64)
    d2 = (rel ** 2).sum(axis=-1)
    # push padded duplicates to the end, then sort by distance (stable on index)
    key = np.where(nbr.pad_mask, np.inf, d2)
    order = np.argsort(key, axis=-1, kind="stable")
    idx = np.take_along_axis(nbr.indices, order, axis=-1)
    pad = np.take_along_axis(nbr.pad_mask, order, axis=-1)
    return NeighborIndex(indices=idx, pad_mask=pad, centers=nbr.centers)
