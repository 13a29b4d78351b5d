"""Deterministic point sampling and neighborhood construction.

All distance computations run in double precision so that tie-breaking is
stable regardless of the training precision. Everything here is a pure
function of its inputs; no op is differentiated (neighbor selection is a
discrete choice).

One function computes squared distances, `_sq_dist`: (qx-rx)^2 +
(qy-ry)^2 + (qz-rz)^2, summed in that order in float64, the formula of
`oracle.naive_knn`. A d^2 that overflows is +inf, without a warning. One
function selects from a block of keys, `_first_k`: k rounds of `argmin`,
in which the first minimum wins and each taken key is overwritten, so exact
ties go to the lower column. Every scan lays its references out in
increasing index order, so the lower column is the lower index: kNN takes
the k smallest (d^2, index) keys, and ball query the first k in-radius
points by index. `_rank` orders a candidate set by (d^2, index) with a
lexsort. It ranks the k-d tree's candidates and the rows whose k-th d^2
overflowed, where taken and untaken keys tie at inf.
`sort_neighbors_by_distance` ranks by (pad flag, d^2, index), so that a
real neighbor whose d^2 overflowed still sorts ahead of the pads.

FPS and kNN both skip points by one bound. Rounding is monotone and every
term of the sum is non-negative, so the rounded sum is at least fl(dx*dx),
the rounded square of the rounded x-difference; and a point farther in x
than another, on the same side, has the larger rounded difference. So once
the points are sorted by x, all points beyond a given one have d^2 of at
least that point's fl(dx*dx), and can be left unsummed whenever that bound
already decides.

FPS keeps a copy of the sum in its loop, which runs m-1 times per call,
from one of two sources: a batched loop over every point of every cloud,
or, from `_FPS_SLAB_MIN_POINTS` points, a loop per cloud that sums only the
x-slab the last center can reach (`_fps_slab`). Both return the same
indices.

kNN takes its candidates from one of three sources. A batch entry of at
most `_KNN_BLOCK_PAIRS` query-reference pairs scans its whole [M,N] block.
A larger entry scans, per block of queries in x order, only an x-window of
references (`_knn_window`), gathered back into index order; a row keeps the
window's answer when the bound shows that no point outside the window can
rank in, and is scanned in full, in row blocks of `_KNN_BLOCK_PAIRS` pairs,
otherwise. A k-d tree (`scipy.spatial`) gives k+1 candidates that are
re-scored exactly and ranked, and its near-tie rows, and those whose
distances overflowed, are re-solved densely. All three return the same
indices; the choice changes the cost only. The tree is faster above about
`_TREE_MIN_PAIRS` pairs per batch entry, but importing `scipy.spatial`
costs about 38 MB of resident memory. So the tree answers a problem above
`_DENSE_MAX_PAIRS` pairs, importing the module if need be, and a problem
above `_TREE_MIN_PAIRS` pairs only when the process has already loaded the
module; everything else is scanned densely. Ball query scans each batch
entry in the same row blocks as the full kNN scan, and keeps scan order,
as PointNet++ does: the first k in-radius points by index. Every search
checks its inputs first: an integer k, a finite positive radius, finite
query points and center indices inside their cloud.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ConfigError, SizeError


@dataclass
class PointSetBatch:
    """A batch of point clouds: positions [B,N,3] and optional labels [B,N].

    The model derives its input features from the positions at its entry
    point; blocks take their features as a separate `Tensor` argument.
    """

    positions: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions)
        if self.positions.ndim != 3 or self.positions.shape[-1] != 3:
            raise SizeError(f"positions must be [B,N,3], got {self.positions.shape}")
        if self.positions.shape[1] < 1:
            raise SizeError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.positions)):
            raise DataError("positions contain non-finite values")
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


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between broadcastable [..., 3] point arrays: both
    cast to float64, then (dx*dx + dy*dy) + dz*dz through one scratch buffer.
    A sum that overflows is +inf, which every selection here handles."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        d2 = np.subtract(a[..., 0], b[..., 0])
        np.multiply(d2, d2, out=d2)
        buf = np.empty_like(d2)
        for j in (1, 2):
            np.subtract(a[..., j], b[..., j], out=buf)
            np.multiply(buf, buf, out=buf)
            np.add(d2, buf, out=d2)
    return d2


def _first_k(keys: np.ndarray, k: int):
    """Columns [..., k] of the k smallest of keys [..., W] in each row,
    smallest first, and their keys [..., k]; keys is left as it was.

    Round j takes each row's `argmin`, whose first minimum wins, so exact
    ties go to the lower column, and overwrites the taken key with the
    largest key of its dtype (inf, True), which later rounds pass over. A
    round that finds only that largest key left takes its lowest column,
    perhaps one taken before, and reports the key it reads there: an inf
    k-th distance or a True outside flag tells the caller so.
    """
    w = keys.shape[-1]
    rows = np.ascontiguousarray(keys.reshape(-1, w))
    flat = rows.reshape(-1)     # the same memory as rows
    start = np.arange(0, flat.size, w)
    cols = np.empty((k, start.size), dtype=np.int64)
    vals = np.empty((k, start.size), dtype=keys.dtype)
    top = True if keys.dtype == bool else np.inf
    at = np.empty_like(start)
    for j in range(k):
        rows.argmin(axis=-1, out=cols[j])
        np.add(start, cols[j], out=at)
        flat.take(at, out=vals[j])
        flat.put(at, top)
    # a key that read as top was top before, or was taken in an earlier round
    back = vals != top
    flat[(start + cols)[back]] = vals[back]
    shape = keys.shape[:-1] + (k,)
    return cols.T.reshape(shape), vals.T.reshape(shape)


def _rank(cand: np.ndarray, d2: np.ndarray, k: int):
    """The k of candidates cand [..., C] (indices, squared distances d2) with
    the smallest (d^2, index) keys, in order, and the rows [...] whose k-th
    and (k+1)-th distances lie within `_RANK_MARGIN` or are not both finite
    (none when C == k): there a source may have missed a point as close as
    the k-th.
    """
    order = np.lexsort((cand, d2), axis=-1)
    idx = np.take_along_axis(cand, order[..., :k], axis=-1)
    if cand.shape[-1] == k:
        return idx, np.zeros(idx.shape[:-1], dtype=bool)
    lo, hi = np.moveaxis(np.take_along_axis(d2, order[..., k - 1:k + 1], axis=-1), -1, 0)
    with np.errstate(invalid="ignore"):    # inf - inf, an overflowed k-th
        return idx, ~(hi - lo > _RANK_MARGIN * hi)


# Smallest cloud whose FPS runs the slab loop, one cloud at a time. Batched
# vs slab loop on scene clouds at m = N/4 (2-core Xeon, one BLAS thread), in
# ms: at 2048 points 9.8 vs 6.3 (B=1), 16.1 vs 10.7 (B=2), 26.0 vs 21.9 (B=4)
# and 44.1 vs 45.3 (B=8, a tie); at 1024 points 5.8 vs 5.7 (B=2) but 13.2 vs
# 20.3 (B=8), where the slab loop's per-iteration overhead outweighs the
# points it skips
_FPS_SLAB_MIN_POINTS = 2048


def farthest_point_sample(cloud: PointSetBatch, m: int, start=0) -> np.ndarray:
    """Iterative max-min-distance subsampling; returns indices [B, m].

    The i-th chosen point maximizes the minimum distance to the already
    chosen set; ties and duplicate points resolve to the lowest unchosen
    index, so the output is deterministic and free of repeats. `start` is a
    single index or one index per batch entry. Clouds of fewer than
    `_FPS_SLAB_MIN_POINTS` points run `_fps_batched`, all clouds at once;
    larger ones run `_fps_slab`, one cloud at a time, which updates only the
    points the last center can reach. Both equal `oracle.naive_fps` index
    for index; the choice changes the cost only.
    """
    pos = cloud.positions.astype(np.float64)
    b, n, _ = pos.shape
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or not 1 <= m <= n:
        raise SizeError(f"requested m={m!r} samples from a cloud of {n} points")
    starts = np.asarray(start)
    if starts.dtype.kind not in "iu" or starts.ndim > 1 or starts.size not in (1, b):
        raise SizeError(f"start must be one integer index or one per batch entry "
                        f"({b}), got {start!r}")
    starts = np.broadcast_to(starts.astype(np.int64), (b,)).copy()
    if starts.min() < 0 or starts.max() >= n:
        raise SizeError(f"start index outside [0, {n})")
    if n >= _FPS_SLAB_MIN_POINTS:
        return np.stack([_fps_slab(p, m, s) for p, s in zip(pos, starts)])
    return _fps_batched(pos, m, starts)


def _fps_batched(pos: np.ndarray, m: int, starts: np.ndarray) -> np.ndarray:
    """FPS [B, m] over float64 positions [B,N,3], all clouds in one loop that
    sums `_sq_dist`'s formula over every point into preallocated buffers."""
    b, n, _ = pos.shape
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


def _fps_slab(pos: np.ndarray, m: int, start: int) -> np.ndarray:
    """FPS [m] of one cloud [N,3] that updates only the x-slab the last
    center c can reach; equal to `_fps_batched` index for index.

    The points are sorted once by x (stable), into one x-sorted [3,N] array
    and the permutation `order`; min_d stays in point order, so `argmax`
    still gives ties to the lowest unchosen index. r^2, the min distance of
    c when it was chosen, is the largest of all points' min distances, so c
    can lower min_d[p] <= r^2 only if (x_p - x_c)^2 < r^2. The loop sums the
    oracle's (dx*dx + dy*dy) + dz*dz only over the contiguous slab x_c +-
    r*(1 + 1e-9), found by two `searchsorted` calls. Outside it, |x_p - x_c|
    exceeds the half-width in exact arithmetic, as x_p is a float and the
    bounds round to nearest, and the 1e-9 margin keeps the square of the
    rounded half-width above r^2. By the module docstring's rounding bound,
    the rounded sum, at least fl(dx*dx), is at least r^2 >= min_d[p]: min_d
    would not have changed. The first center has r^2 = inf, a slab of the
    whole cloud; once r^2 = 0, no point can change and the update is
    skipped.
    """
    n = pos.shape[0]
    order = np.argsort(pos[:, 0], kind="stable")
    srt = np.ascontiguousarray(pos[order].T)
    xs = srt[0]
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start
    min_d = np.full(n, np.inf)
    min_d[start] = -1.0
    sq = np.empty((3, n))
    d = np.empty(n)
    last, r2 = start, math.inf
    for i in range(1, m):
        if r2 > 0.0:
            c = pos[last]
            half = math.sqrt(r2) * (1.0 + 1e-9)
            lo = xs.searchsorted(c[0] - half, "left")
            hi = xs.searchsorted(c[0] + half, "right")
            s, ds = sq[:, :hi - lo], d[:hi - lo]
            np.subtract(srt[:, lo:hi], c[:, None], out=s)
            np.multiply(s, s, out=s)
            np.add(s[0], s[1], out=ds)
            np.add(ds, s[2], out=ds)
            idx = order[lo:hi]
            min_d[idx] = np.minimum(min_d[idx], ds, out=ds)
        last = min_d.argmax()
        r2 = float(min_d[last])
        chosen[i] = last
        min_d[last] = -1.0
    return chosen


def geometric_start(cloud: PointSetBatch) -> np.ndarray:
    """Index of the point farthest from the cloud centroid, per batch entry.

    Unlike a fixed start index, this choice does not depend on point order,
    which makes downsampling stable under input permutations. Points tied
    at the largest distance resolve to the lexicographically largest
    position (x, then y, then z).
    """
    pos = cloud.positions.astype(np.float64)
    d = _sq_dist(pos, pos.mean(axis=1, keepdims=True))
    start = np.argmax(d, axis=1)
    tied = d == d[np.arange(d.shape[0]), start][:, None]
    for row in np.flatnonzero(tied.sum(axis=1) > 1):
        cand = np.flatnonzero(tied[row])
        p = pos[row, cand]
        start[row] = cand[np.lexsort((p[:, 2], p[:, 1], p[:, 0]))[-1]]
    return start


def _check_k(k, n: int, search: str) -> None:
    """ConfigError unless k is an integer >= 1; SizeError if k > n."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ConfigError(f"{search} k must be an integer, got {k!r}")
    if k < 1:
        raise ConfigError(f"{search} k must be >= 1, got {k}")
    if k > n:
        raise SizeError(f"k={k} exceeds cloud size {n}")


def _center_positions(centers, cloud: PointSetBatch):
    """Center indices as int64 [B,M] and their positions [B,M,3]; SizeError
    unless they are integers and each row indexes points of its own cloud."""
    centers = np.asarray(centers)
    b, n = cloud.batch_size, cloud.num_points
    if centers.dtype.kind not in "iu" or centers.ndim != 2 or centers.shape[0] != b:
        raise SizeError(f"centers of dtype {centers.dtype} and shape {centers.shape} "
                        f"for a batch of {b}; expected integer [B, M]")
    if np.any(centers < 0) or np.any(centers >= n):
        raise SizeError(f"center index out of range [0, {n})")
    centers = centers.astype(np.int64, copy=False)
    return centers, cloud.positions[np.arange(b)[:, None], centers]


def ball_query(centers: np.ndarray, cloud: PointSetBatch, radius: float,
               k: int) -> NeighborIndex:
    """Radius-bounded neighbor search around existing cloud points.

    Up to k in-radius points per center, in scan order (the first k by
    index); short neighborhoods are padded by repeating the first hit. The
    center itself is always in radius (distance 0), so no neighborhood is
    empty. Each batch entry is scanned in row blocks of at most
    `_KNN_BLOCK_PAIRS` pairs, as `_knn_scan` does, and `_first_k` takes
    each row's first k False entries of its outside mask; a round that
    finds only True entries marks a pad.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ConfigError(f"ball query radius must be finite and positive, got {radius}")
    _check_k(k, cloud.num_points, "ball query")
    centers, query_xyz = _center_positions(centers, cloud)
    with np.errstate(over="ignore"):    # a radius above about 1.3e154 squares to inf
        r2 = np.square(np.float64(radius))
    b, m = centers.shape
    rows = max(1, _KNN_BLOCK_PAIRS // cloud.num_points)
    idx = np.empty((b, m, k), dtype=np.int64)
    pad = np.empty((b, m, k), dtype=bool)
    for bi, ref in enumerate(cloud.positions):
        for lo in range(0, m, rows):
            block = slice(lo, lo + rows)
            outside = _sq_dist(query_xyz[bi, block, None], ref) > r2
            idx[bi, block], pad[bi, block] = _first_k(outside, k)
    idx = np.where(pad, idx[..., :1], idx)
    return NeighborIndex(indices=idx, pad_mask=pad, centers=centers)


# Largest M*N per batch entry whose kNN scans the dense distance block when
# scipy.spatial is not loaded: 4M pairs, which the scan visits one row block
# of `_KNN_BLOCK_PAIRS` pairs (1 MB) at a time. Importing scipy.spatial for
# the k-d tree costs about 38 MB of resident memory, so smaller problems
# never load it.
_DENSE_MAX_PAIRS = 1 << 22
# Largest M*N per batch entry whose kNN scans the dense block once
# scipy.spatial is loaded: the crossover measured on scene clouds over
# 2^12..2^17 pairs with k in {3, 8, 16}
_TREE_MIN_PAIRS = 1 << 14
# query-reference pairs per row block of the dense kNN scan and of ball
# query: a 1 MB float64 block, which stays in cache through the passes of
# the distance sum and of the selection. A kNN batch entry with more pairs
# scans x-windows instead (`_knn_window`)
_KNN_BLOCK_PAIRS = 1 << 17
# queries per block of the window scan, consecutive in x. Swept on the three
# windowed calls of a pointvector-l train step (B=2, N=2048), ms per call
# for 2048x512 k=3 / 512x2048 k=32 / 512x512 k=8, the best of 18 (2-core
# Xeon, one BLAS thread): 32 queries 13.9/28.8/4.3, 64 10.4/20.9/3.4, 96
# 9.1/20.4/2.9, 128 7.4/19.1/2.8, 160 7.1/21.1/3.1, 192 7.0/23.5/3.2, 256
# 6.3/29.8/3.7; the full scan takes 25.9/37.7/7.1. Smaller blocks scan
# narrower windows but re-solve more rows and pay more calls; larger ones
# pay k rounds of `_first_k` over wider windows
_KNN_QUERY_BLOCK = 128
# relative gap between the k-th and (k+1)-th exact distances above which
# the k-d tree's k+1 candidates hold every point as close as the k-th: the
# tree's own distances and pruning bounds differ from the exact ones by a
# few ulps. The dense scans select exactly, by `_first_k`, and need no
# margin
_RANK_MARGIN = 1e-12


def knn_points(query_xyz: np.ndarray, cloud: PointSetBatch, k: int) -> np.ndarray:
    """Indices [B,M,K] of the k nearest cloud points to each query position.

    Each row holds the k smallest (d^2, index) keys in increasing order:
    nearest first, exact ties to the lower index, equal to
    `oracle.naive_knn`. The k-d tree, the x-window scan or the full dense
    block answers by problem size, as the module docstring says; the choice
    changes the cost, never the indices.
    """
    query_xyz = np.asarray(query_xyz)
    b, n = cloud.batch_size, cloud.num_points
    if query_xyz.ndim != 3 or query_xyz.shape[0] != b or query_xyz.shape[2] != 3:
        raise SizeError(f"knn query of shape {query_xyz.shape} for a batch of {b}; "
                        "expected [B, M, 3]")
    if not np.all(np.isfinite(query_xyz)):
        raise DataError("knn query contains non-finite values")
    _check_k(k, n, "knn")
    pairs = query_xyz.shape[1] * n
    if pairs > _DENSE_MAX_PAIRS or (pairs > _TREE_MIN_PAIRS
                                    and "scipy.spatial" in sys.modules):
        return _knn_tree(query_xyz, cloud.positions, k)
    return _knn_dense(query_xyz, cloud.positions, k)


def _knn_dense(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] from exact distances, without a tree.

    A batch entry of at most `_KNN_BLOCK_PAIRS` query-reference pairs scans
    its whole [M,N] block (`_knn_rows`); a larger one scans, per block of
    queries, only a window of references sorted by x (`_knn_window`) and
    re-solves over all N the rows the window may have misled. Rows are
    independent, so the indices depend on neither the blocks nor the
    windows.
    """
    b, m, _ = query.shape
    n = ref.shape[1]
    if b * m * n <= _KNN_BLOCK_PAIRS:
        return _knn_rows(query, ref, k)
    scan = _knn_window if m * n > _KNN_BLOCK_PAIRS else _knn_scan
    return np.stack([scan(np.asarray(q, dtype=np.float64), np.asarray(r, dtype=np.float64), k)
                     for q, r in zip(query, ref)])


def _knn_half_width(k: int, n: int) -> int:
    """Ranks of references that a window takes beyond each end of its query
    block's x-span: ceil(sqrt(k n)) + k + 1. On a surface of n points the
    radius of k neighbors spans about 0.6 sqrt(k n) ranks of x on each side,
    and k + 1 more keep a window of more than k references."""
    return math.isqrt(k * n - 1) + 1 + k + 1


def _knn_window(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [M,K] of one batch entry, float64 queries [M,3] and references
    [N,3], that scans per block of queries only an x-window of references.

    References and queries are sorted by x once (stable); each block of
    `_KNN_QUERY_BLOCK` queries, consecutive in x, takes the references from
    `_knn_half_width` ranks left of its smallest x to as many right of its
    largest, gathered back into increasing index order, so that `_select`
    gives the smallest (d^2, index) keys, exactly within the window. Every
    point outside the window is at least as far in x, on the same side, as
    the nearest outside point, at rank lo-1 or hi, so by the module
    docstring's rounding bound its d^2 is at least g, the rounded square of
    the row's x-difference to that point. A row keeps its window result
    when g exceeds its k-th distance, since then no outside point can rank
    in, not even on a tie; every other row is re-solved over all N points
    by `_knn_scan`.
    """
    m, n = query.shape[0], ref.shape[0]
    order = np.argsort(ref[:, 0], kind="stable")
    xs = ref[order, 0]
    coords = np.ascontiguousarray(ref.T)   # one row per coordinate, for the gathers
    qorder = np.argsort(query[:, 0], kind="stable")
    half = _knn_half_width(k, n)
    out = np.empty((m, k), dtype=np.int64)
    redo = []
    for start in range(0, m, _KNN_QUERY_BLOCK):
        rows = qorder[start:start + _KNN_QUERY_BLOCK]
        q = query[rows]
        qx = q[:, 0]
        lo = max(0, int(xs.searchsorted(qx[0], "left")) - half)
        hi = min(n, int(xs.searchsorted(qx[-1], "right")) + half)
        ids = np.sort(order[lo:hi])
        out[rows], kth = _select(_sq_dist(q[:, None], coords[:, ids].T), ids, k)
        gap = np.full(rows.size, np.inf)
        for edge in (lo - 1, hi):
            if 0 <= edge < n:
                with np.errstate(over="ignore"):
                    np.minimum(gap, (qx - xs[edge]) ** 2, out=gap)
        redo.append(rows[gap <= kth])
    redo = np.concatenate(redo)
    if redo.size:
        out[redo] = _knn_scan(query[redo], ref, k)
    return out


def _knn_scan(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [M,K] of one batch entry over all N references, in row blocks of
    about `_KNN_BLOCK_PAIRS` pairs, so the selection's passes stay in cache."""
    rows = max(1, _KNN_BLOCK_PAIRS // ref.shape[0])
    return np.concatenate([_knn_rows(query[None, lo:lo + rows], ref[None], k)[0]
                           for lo in range(0, query.shape[0], rows)])


def _knn_rows(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] over the full [B,M,N] distance block, by `_select`."""
    d2 = _sq_dist(query[:, :, None], ref[:, None])
    return _select(d2, np.arange(ref.shape[1]), k)[0]


def _select(d2: np.ndarray, ids: np.ndarray, k: int):
    """The k smallest (d^2, id) keys of each row of d2 [..., W], as ids (the
    references' indices [W], increasing), and each row's k-th distance
    [...], by `_first_k`; a row whose k-th distance overflowed is ranked
    over all W references by `_rank`."""
    cols, keys = _first_k(d2, k)
    idx, kth = ids[cols], keys[..., -1]
    over = np.isinf(kth)
    if np.any(over):
        rest = d2[over]
        idx[over] = _rank(np.broadcast_to(ids, rest.shape), rest, k)[0]
    return idx, kth


def _knn_tree(query: np.ndarray, ref: np.ndarray, k: int) -> np.ndarray:
    """kNN [B,M,K] from k+1 k-d tree candidates, re-scored exactly and
    ranked; near-tie rows, where the tree's rounding may have lost a point,
    and rows that lost a candidate to an overflowed distance, are re-solved
    densely."""
    from scipy.spatial import cKDTree

    b, m, _ = query.shape
    n = ref.shape[1]
    kk = min(k + 1, n)
    out = np.empty((b, m, k), dtype=np.int64)
    for bi in range(b):
        cand = cKDTree(ref[bi]).query(query[bi], k=kk)[1].reshape(m, kk)
        # the tree reports neighbors whose distance overflows as index n,
        # after the ones it found
        lost = cand[:, -1] == n
        np.minimum(cand, n - 1, out=cand)
        out[bi], unsure = _rank(cand, _sq_dist(query[bi][:, None], ref[bi][cand]), k)
        rows = np.flatnonzero(unsure | lost)
        if rows.size:
            out[bi, rows] = _knn_dense(query[bi:bi + 1, rows], ref[bi:bi + 1], k)[0]
    return out


def knn(centers: np.ndarray, cloud: PointSetBatch, k: int) -> NeighborIndex:
    """k nearest neighbors of selected cloud points (the center included)."""
    centers, query_xyz = _center_positions(centers, cloud)
    idx = knn_points(query_xyz, cloud, k)
    pad = np.zeros(idx.shape, dtype=bool)
    return NeighborIndex(indices=idx, pad_mask=pad, centers=centers)


def sort_neighbors_by_distance(positions: np.ndarray, nbr: NeighborIndex) -> NeighborIndex:
    """Reorder each neighborhood by (pad flag, distance, index).

    Gives slot-kernel aggregation modes a canonical neighbor order on
    otherwise unordered sets. Pads move to the end, ahead of no real
    neighbor, not even one whose d^2 overflowed to inf.
    """
    batch = np.arange(positions.shape[0])[:, None]
    d2 = _sq_dist(positions[batch[..., None], nbr.indices],
                  positions[batch, nbr.centers][:, :, None])
    order = np.lexsort((nbr.indices, d2, nbr.pad_mask), axis=-1)
    return NeighborIndex(indices=np.take_along_axis(nbr.indices, order, axis=-1),
                         pad_mask=np.take_along_axis(nbr.pad_mask, order, axis=-1),
                         centers=nbr.centers)
