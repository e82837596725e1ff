"""Sampled curves and their discrete differential geometry.

A curve is a polyline with points listed in traversal order; for closed
curves the segment from the last point back to the first is implicit.
Scalar and vector fields along a curve are plain numpy arrays aligned
1:1 with the sample points.

Arclength derivatives come from one table of chord slopes: every sample
with two neighbours takes the three-point stencil, which accepts mildly
non-uniform spacing and reduces to second-order central differences on
uniform grids.  Closed curves wrap periodically; the two ends of an open
curve differentiate the cubic through their four nearest samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CurveFlowError

# Torsion (and the 3-D normal) is flagged undefined at samples where the
# curvature falls below KAPPA_FLOOR_SCALE / (mean segment length).
KAPPA_FLOOR_SCALE = 1e-8

# Vertices turning by more than this angle are corners: the resampler
# keeps them as chord breakpoints instead of fitting an arc through them.
MAX_TURN_ANGLE = 1.0
_COS_MAX_TURN = np.cos(MAX_TURN_ANGLE)

# the shortest chord whose square is a normal double (2**-511); a curve's
# chords lie between it and the longest chord whose square is finite, so
# h^2 and, under the guard's kappa * h <= 1, kappa^2 stay finite
MIN_CHORD = float(np.sqrt(np.finfo(float).tiny))


@dataclass(frozen=True)
class SampledCurve:
    """An ordered polyline in R^2 or R^3.

    ``points`` is a read-only copy of the input, so a curve never changes
    after it is validated.  Callers copy it (``np.array(curve.points)``)
    before handing it to C extensions that need writable buffers, such as
    scipy >= 1.17's ``Rotation.apply``.  Each chord is at least
    ``MIN_CHORD`` long, and its square is finite.
    """

    dimension: int
    closed: bool
    points: np.ndarray
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError("points must have shape (n, dimension)")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if pts.shape[0] < 4:
            raise ValueError("a sampled curve needs at least 4 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve coordinates must be finite")
        # an overflowing chord reads inf and is refused below, without a warning
        with np.errstate(over="ignore"):
            h = chord_lengths(pts, self.closed)
        if not np.all((h >= MIN_CHORD) & (h < np.inf)):
            raise ValueError(f"consecutive points must be distinct, {MIN_CHORD:.3g} or "
                             f"more apart, with chord squares that do not overflow")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def with_points(self, points: np.ndarray) -> "SampledCurve":
        return SampledCurve(self.dimension, self.closed, points, self.label)


@dataclass
class FrenetData:
    """Discrete Frenet frame and curvatures along a curve.

    ``curvature`` is signed in 2-D (positive for counterclockwise
    traversal of a convex curve) and non-negative in 3-D.  In 3-D the
    normal, binormal and torsion carry NaN at samples where the
    curvature sits below the floor; ``torsion_defined`` marks the
    trustworthy samples.  2-D data has ``binormal`` and ``torsion``
    set to None.
    """

    arclength: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    binormal: np.ndarray | None = None
    torsion: np.ndarray | None = None
    torsion_defined: np.ndarray | None = None


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # dot products over the first (coordinate) axis; summing coordinate by
    # coordinate keeps np.linalg.norm's order to the last bit and is much
    # cheaper than a reduction over an axis of length 2 or 3
    prod = u * v
    out = prod[0]
    for k in range(1, len(prod)):
        out = out + prod[k]
    return out


def _cross(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # cross product over the first (coordinate) axis of 3-vectors, written
    # into out if given; each component is the difference of two products
    # in np.cross's order, so the bits match it without its axis moves
    if out is None:
        out = np.empty((3,) + np.broadcast_shapes(u[0].shape, v[0].shape))
    np.subtract(u[1] * v[2], u[2] * v[1], out=out[0])
    np.subtract(u[2] * v[0], u[0] * v[2], out=out[1])
    np.subtract(u[0] * v[1], u[1] * v[0], out=out[2])
    return out


def _unit_scale(x: float) -> float:
    """1.0 for a positive ``x`` within 2**+-128 of 1, else the power of 4 that
    brings it near 1.

    A chord, a curvature or a matrix entry in that band keeps its fourth power
    a normal double.  A power-of-two factor scales exactly, so a computation
    run on scaled inputs and scaled back changes no bit inside the band.
    """
    e = math.frexp(x)[1]
    return 1.0 if -128 <= e <= 128 else math.ldexp(1.0, -(e // 2) * 2)


def _check_grid(name: str, span: tuple[float, float], n: int):
    """Refuse a profile grid (``name``'s ``span`` on ``n`` samples) no stencil can use."""
    a, b = span
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"{name} must be a finite nonempty interval")
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise ValueError("n must be an integer of at least 16")


def chord_lengths(points: np.ndarray, closed: bool) -> np.ndarray:
    """Chord lengths of a point array, including the wrap segment if closed."""
    if closed:
        points = np.concatenate([points, points[:1]])
    seg = (points[1:] - points[:-1]).T
    return np.sqrt(_dot(seg, seg))


def segment_lengths(curve: SampledCurve) -> np.ndarray:
    """Chord lengths, including the wrap segment for closed curves."""
    return chord_lengths(curve.points, curve.closed)


def total_length(curve: SampledCurve) -> float:
    return float(segment_lengths(curve).sum())


def cumulative_arclength(curve: SampledCurve) -> np.ndarray:
    """Arclength coordinate of each sample, starting at 0."""
    h = segment_lengths(curve)
    n = curve.n
    s = np.zeros(n)
    s[1:] = np.cumsum(h[: n - 1])
    return s


# ---------------------------------------------------------------------------
# resampling
#
# The resampling passes hold points coordinate-major, shape (d, m), so that
# per-sample scalars broadcast along the contiguous sample axis.


def _cross_norm(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if len(u) == 2:
        prod = u * v[::-1]
        return np.abs(prod[0] - prod[1])
    w = _cross(u, v)
    return np.sqrt(_dot(w, w))


def _vertex_circumcenters(pts: np.ndarray, step: np.ndarray, sq: np.ndarray,
                          closed: bool):
    """Circumcenter of (P_{i-1}, P_i, P_{i+1}) per vertex.

    ``step`` holds the segment vectors P_{i+1} - P_i, ``sq`` their squared
    lengths.  A closed curve comes as its loop (first vertex repeated at the
    end); open curves copy the neighbouring interior circle onto the end
    vertices.  Returns (centers, valid); invalid triples fall back to chords.
    """
    if closed:
        step = np.concatenate([step[:, -1:], step, step[:, :1]], axis=1)
        sq = np.concatenate([sq[-1:], sq, sq[:1]])
    else:
        pts = pts[:, 1:-1]
    back, ahead = step[:, :-1], step[:, 1:]
    uu, vv = sq[:-1], sq[1:]
    # with the edges u = P_{i-1} - P_i = -back and v = ahead, turn = -u.v,
    # and the turn angle at the vertex has cos = turn/(|u||v|)
    turn = _dot(back, ahead)
    scale = uu * vv
    det = scale - turn * turn
    safe_scale = np.maximum(scale, 1e-300)
    valid = (det > 1e-12 * safe_scale) & (turn / np.sqrt(safe_scale) > _COS_MAX_TURN)
    det_safe = np.where(valid, det, 1.0)
    # the center is P_i + alpha u + beta v
    alpha = 0.5 * (scale + vv * turn) / det_safe
    beta = 0.5 * (scale + uu * turn) / det_safe
    centers = pts - alpha * back + beta * ahead
    if not closed:
        centers = np.concatenate([centers[:, :1], centers, centers[:, -1:]], axis=1)
        valid = np.concatenate([valid[:1], valid, valid[-1:]])
    return centers, valid


def _arc_points(a, b, c, u, valid, frac):
    """Points at arc fraction ``frac`` from ``a`` to ``b`` on circles about ``c``.

    ``u`` is ``a - c``; axis 1 of ``c`` and ``u`` (axis 0 of ``valid``) runs
    over two circles.  Invalid circles and degenerate arcs give chord points.
    """
    v = b[:, None] - c
    ang = np.arctan2(_cross_norm(u, v), _dot(u, v))
    ok = valid & (ang > 1e-12) & (ang < 3.0)
    ang = np.where(ok, ang, 1.0)  # keeps the rows replaced below finite
    w = (v - u * np.cos(ang)) / np.sin(ang)
    f = frac * ang
    arc = c + u * np.cos(f) + w * np.sin(f)
    return arc if ok.all() else np.where(ok, arc, (a + frac * (b - a))[:, None])


def _resample_pass(pts: np.ndarray, closed: bool, n: int) -> np.ndarray:
    loop = np.concatenate([pts, pts[:, :1]], axis=1) if closed else pts
    p0, p1 = loop[:, :-1], loop[:, 1:]
    step = p1 - p0
    sq = _dot(step, step)
    centers, valid = _vertex_circumcenters(loop, step, sq, closed)
    # a segment lies on the circles of both its end vertices; axis 1 of
    # cen and u (axis 0 of ok) runs over the start and the end vertex
    cen = np.stack([centers[:, :-1], centers[:, 1:]], axis=1)
    ok = np.array([valid[:-1], valid[1:]])
    u = p0[:, None] - cen
    chord = np.sqrt(sq)
    diameter = np.sqrt(_dot(u, u))
    diameter = 2.0 * np.where(ok & (diameter > 0), diameter, 1.0)
    arc = np.where(ok, diameter * np.arcsin(np.minimum(chord / diameter, 1.0)), chord)
    seg_len = 0.5 * (arc[0] + arc[1])
    table = np.concatenate([[0.0], np.cumsum(seg_len)])
    length = table[-1]
    if length <= 0.0:
        raise CurveFlowError("degenerate-curve", "curve has zero length")
    if closed:
        targets = np.arange(n) * (length / n)
    else:
        targets = np.linspace(0.0, length, n)
    # targets start at table[0] = 0, so j >= 0 and table[j] <= targets
    j = np.minimum(np.searchsorted(table, targets, side="right") - 1, len(seg_len) - 1)
    frac = np.minimum((targets - table[j]) / seg_len[j], 1.0)
    q = _arc_points(p0.take(j, 1), p1.take(j, 1), cen.take(j, 2), u.take(j, 2),
                    ok.take(j, 1), frac)
    out = (1.0 - frac) * q[:, 0] + frac * q[:, 1]
    if not closed:
        out[:, 0] = pts[:, 0]
        out[:, -1] = pts[:, -1]
    return out


def resample_points(points: np.ndarray, closed: bool, n: int) -> np.ndarray:
    """``resample_arclength`` on a raw ``(m, d)`` point array."""
    if n < 4:
        raise ValueError("resampling needs n >= 4")
    # the circumcircles take fourth powers of the chords
    scale = _unit_scale(float(chord_lengths(points, closed).max()))
    if scale != 1.0:
        return resample_points(points * scale, closed, n) / scale
    pts = np.ascontiguousarray(points.T)
    return np.ascontiguousarray(_resample_pass(_resample_pass(pts, closed, n), closed, n).T)


def resample_arclength(curve: SampledCurve, n: int) -> SampledCurve:
    """Resample to ``n`` points at equal arclength spacing.

    Positions are looked up on local circular arcs blended between the
    circumcircles of neighbouring sample triples (chords where triples
    are collinear); a second lookup pass evens out the spacing.  The map
    preserves open-curve endpoints exactly, and at fixed ``n`` it is
    idempotent to about 1e-7 of the diameter while the curve turns by less
    than 0.3 rad per segment (1e-9 below 0.1 rad).
    """
    return curve.with_points(resample_points(curve.points, curve.closed, n))


# ---------------------------------------------------------------------------
# derivatives and the Frenet frame


def _lagrange_d1_d2(values: np.ndarray, h: np.ndarray, closed: bool):
    """First and second derivative of samples w.r.t. arclength.

    ``h`` holds the segment lengths (with wrap entry for closed curves).
    Every sample with two neighbours, so every sample of a closed curve,
    takes the three-point stencil in chord-slope form: with the slopes
    t = dv/h of the segments before (-) and after (+) it,
    d1 = (h- t+ + h+ t-)/(h- + h+) and d2 = 2 (t+ - t-)/(h- + h+).  Each end
    of an open curve takes the derivatives of the cubic through its four
    nearest samples, in Newton form from the end slope and the d2 of the
    next two samples (Fornberg, Math. Comp. 1988).
    """
    if closed:
        values = np.concatenate([values[-1:], values, values[:1]])
        h = np.concatenate([h[-1:], h])
    # h per column: same-shape operands are far cheaper than broadcasting
    # over a short last axis
    d = values.shape[1]
    hc = np.repeat(h, d).reshape(-1, d)
    t = (values[1:] - values[:-1]) / hc
    hm, hp = hc[:-1], hc[1:]
    hs = hm + hp
    d1, d2 = (hm * t[1:] + hp * t[:-1]) / hs, 2.0 * (t[1:] - t[:-1]) / hs
    if closed:
        return d1, d2

    # rows 0 and 1 hold the start and the end: h0 is the end segment and h1
    # the next one inward; near and far are d2 at the next two samples, twice
    # the cubic's second divided differences, so c/2 is its third.  The end
    # runs backwards from its last sample, which flips the sign in d1.
    h0, h1, h2 = h[[0, -1]][:, None], h[[1, -2]][:, None], h[[2, -3]][:, None]
    near, far = d2[[0, -1]], d2[[1, -2]]
    c = (far - near) / (h0 + h1 + h2)
    sign = np.array([[1.0], [-1.0]])
    e1 = t[[0, -1]] - sign * (0.5 * h0) * (near - c * (h0 + h1))
    e2 = near - c * (h0 + h0 + h1)
    return (np.concatenate([e1[:1], d1, e1[1:]]),
            np.concatenate([e2[:1], d2, e2[1:]]))


def _solve_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray,
                       overwrite_bands: bool = False, overwrite_b: bool = False):
    """Solve the tridiagonal system with sub-, main and super-diagonal dl, d, du.

    This is LAPACK's ?gtsv with the arguments ``scipy.linalg.solve_banded``
    passes it for (1, 1) bands, so the bits match, without that function's
    per-call checks; ``info`` is checked as it checks it.
    """
    gtsv = _lapack("gtsv", b.dtype.kind)
    *_, x, info = gtsv(dl, d, du, b, overwrite_bands, overwrite_bands,
                       overwrite_bands, overwrite_b)
    return _checked(x, info, "gtsv")


def _tridiagonal_solver(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """Factor the bands once (?gttrf); return the solve (?gttrs) of one right-hand
    side, which it overwrites.  Both keep ?gtsv's pivoting and arithmetic, so a
    solve has the bits of ``_solve_tridiagonal`` on the same bands.
    """
    *factors, info = _lapack("gttrf", d.dtype.kind)(dl, d, du)
    _checked(factors, info, "gttrf")
    gttrs = _lapack("gttrs", d.dtype.kind)
    return lambda b: _checked(*gttrs(*factors, b, overwrite_b=True), "gttrs")


def _checked(x, info: int, routine: str):
    """``x``, computed by LAPACK's ``routine``, once its ``info`` passes."""
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")
    return x


@cache
def _lapack(name: str, kind: str):
    """LAPACK's ?``name`` for arrays of numpy dtype kind ``kind``, bound once."""
    from scipy.linalg import lapack
    return getattr(lapack, ("z" if kind == "c" else "d") + name)


def _signed_curvature(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Signed curvature of a planar curve from its first two derivatives."""
    cross = d1 * d2[:, ::-1]
    speed2 = _dot(d1.T, d1.T)
    # where the curve turns back on itself d1 is 0 or nearly so, and the inf
    # or NaN there is the answer the driver checks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (cross[:, 0] - cross[:, 1]) / (speed2 * np.sqrt(speed2))


def frenet(curve: SampledCurve) -> FrenetData:
    """Discrete Frenet data; see FrenetData for conventions."""
    h = segment_lengths(curve)
    # the torsion takes products of up to the fourth power of 1/h
    scale = _unit_scale(float(h.max()))
    if scale != 1.0:
        fr = frenet(curve.with_points(curve.points * scale))
        return FrenetData(fr.arclength / scale, fr.tangent, fr.normal, fr.curvature * scale,
                          fr.binormal, None if fr.torsion is None else fr.torsion * scale,
                          fr.torsion_defined)
    pts = curve.points
    d1, d2 = _lagrange_d1_d2(pts, h, curve.closed)
    s = cumulative_arclength(curve)
    speed = np.sqrt(_dot(d1.T, d1.T))
    tangent = d1 / speed[:, None]

    if curve.dimension == 2:
        kappa = _signed_curvature(d1, d2)
        normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
        return FrenetData(s, tangent, normal, kappa)

    # the einsum calls below need C-contiguous rows: they sum x0y0 + x2y2
    # first, and a transposed operand changes that order and the bits
    cross = np.empty_like(d1)
    _cross(d1.T, d2.T, cross.T)
    cross_norm = np.sqrt(_dot(cross.T, cross.T))
    kappa = cross_norm / speed**3
    floor = KAPPA_FLOOR_SCALE / float(np.mean(h))
    defined = kappa >= floor

    w = d2 - np.einsum("ij,ij->i", d2, tangent)[:, None] * tangent
    wn = np.sqrt(_dot(w.T, w.T))
    wn_safe = np.where(defined & (wn > 0), wn, 1.0)
    normal = np.where(defined[:, None], w / wn_safe[:, None], np.nan)
    binormal = np.empty_like(normal)
    _cross(tangent.T, normal.T, binormal.T)
    binormal = np.where(defined[:, None], binormal, np.nan)

    d3, _ = _lagrange_d1_d2(d2, h, curve.closed)
    cn2 = np.where(defined, cross_norm**2, 1.0)
    torsion = np.where(defined, np.einsum("ij,ij->i", cross, d3) / cn2, np.nan)
    return FrenetData(s, tangent, normal, kappa, binormal, torsion, defined)


def integrate_along(curve: SampledCurve, values: np.ndarray) -> float:
    """Trapezoid-weight integral of a per-sample field over arclength."""
    h = segment_lengths(curve)
    # each sample takes half of the segment before it and half of the one
    # after it; an open curve has no segment before its first sample or
    # after its last, so it is padded with zero lengths
    h = np.concatenate([h[-1:], h] if curve.closed else [[0.0], h, [0.0]])
    return float(np.sum(values * (0.5 * (h[:-1] + h[1:]))))


# ---------------------------------------------------------------------------
# area and shape measures (planar)


def enclosed_area(curve: SampledCurve) -> float:
    """Absolute shoelace area of a closed planar curve."""
    if curve.dimension != 2 or not curve.closed:
        raise ValueError("enclosed_area needs a closed planar curve")
    # products of coordinates past 2^512 overflow: an exact power of 4 keeps
    # them finite, and only an area past the largest double reads inf
    scale = _unit_scale(float(np.abs(curve.points).max()))
    x, y = curve.points[:, 0] * scale, curve.points[:, 1] * scale
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * abs(np.sum(x * yn - xn * y))) / scale / scale


def isoperimetric_ratio(curve: SampledCurve) -> float:
    """L^2 / (4 pi A); equals 1 exactly on circles."""
    area = enclosed_area(curve)
    if area <= 0.0:
        raise CurveFlowError("degenerate-curve", "enclosed area is zero")
    return total_length(curve) ** 2 / (4.0 * np.pi * area)


# ---------------------------------------------------------------------------
# distances


def _point_set(obj) -> np.ndarray:
    return obj.points if isinstance(obj, SampledCurve) else np.asarray(obj, dtype=float)


def directed_hausdorff(a, b) -> float:
    """max over a of the distance to the point set b; accepts curves or arrays.

    Each point of a is no farther from b than from the sample of b at its
    relative position, j = rint(i (m - 1)/(n - 1)), so the true distance L of
    the point with the largest such bound is a lower bound of the result.  Only
    points whose bound reaches L (less a rounding margin) can hold the maximum,
    and only they are queried; each query has the bits of querying all of a, so
    the result is exact.  Two samplings of nearly one curve in the same order
    leave few candidates; a = b gives L = 0 and queries every point.
    """
    from scipy.spatial import cKDTree
    a, b = _point_set(a), _point_set(b)
    tree = cKDTree(b)
    gap = (a - b[np.rint(np.linspace(0.0, len(b) - 1, len(a))).astype(int)]).T
    bound = np.sqrt(_dot(gap, gap))
    low = tree.query(a[bound.argmax()])[0]
    return float(tree.query(a[bound >= low * (1.0 - 1e-9)])[0].max())


def hausdorff_distance(a, b) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def curve_diameter(points) -> float:
    """Max pairwise distance of a point set.

    With c the centre of the bounding box, r = |p - c| and R = max r, let D be
    the distance from the point at R to the farthest point.  A pair at least D
    long has |p - q| <= r_p + R, so both its ends have r >= D - R; only those
    points (with a margin for rounding) go to ``_pdist``.  They hold the
    farthest pair, and each pair has the bits of the all-pairs table, so the
    result is exact.
    """
    points = _point_set(points)
    rel = (points - 0.5 * (points.min(axis=0) + points.max(axis=0))).T
    r = np.sqrt(_dot(rel, rel))
    far = (points - points[r.argmax()]).T
    D = np.sqrt(_dot(far, far).max())
    return float(_pdist(points[r >= D - r.max() - 1e-9 * D]).max())


def _pdist(points, metric: str = "euclidean") -> np.ndarray:
    """scipy's condensed pairwise distances of the rows of ``points``."""
    from scipy.spatial.distance import pdist
    return pdist(points, metric)
