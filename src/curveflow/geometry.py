"""Sampled curves and their discrete differential geometry.

A curve is a polyline with points listed in traversal order; for closed
curves the segment from the last point back to the first is implicit.
Scalar and vector fields along a curve are plain numpy arrays aligned
1:1 with the sample points.

All derivative stencils are three-point Lagrange formulas that accept
mildly non-uniform spacing and reduce to standard second-order central
differences on uniform grids.  Closed curves wrap periodically, open
curves use one-sided stencils at the ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveFlowError

# Torsion (and the 3-D normal) is flagged undefined at samples where the
# curvature falls below KAPPA_FLOOR_SCALE / (mean segment length).
KAPPA_FLOOR_SCALE = 1e-8

# Vertices turning by more than this angle are corners: the resampler
# keeps them as chord breakpoints instead of fitting an arc through them.
MAX_TURN_ANGLE = 1.0


@dataclass(frozen=True)
class SampledCurve:
    """An ordered polyline in R^2 or R^3."""

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
        if np.any(chord_lengths(pts, self.closed) == 0.0):
            raise ValueError("consecutive points must be distinct")
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


def chord_lengths(points: np.ndarray, closed: bool) -> np.ndarray:
    """Chord lengths of a point array, including the wrap segment if closed."""
    seg = np.diff(points, axis=0)
    if closed:
        seg = np.vstack([seg, points[0] - points[-1]])
    return np.linalg.norm(seg, axis=1)


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


def _cross_norm(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    if u.shape[-1] == 2:
        return np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return np.linalg.norm(np.cross(u, v), axis=-1)


def _vertex_circumcenters(pts: np.ndarray, closed: bool):
    """Circumcenter of (P_{i-1}, P_i, P_{i+1}) per vertex.

    Open curves copy the neighbouring interior circle onto the end
    vertices.  Returns (centers, valid) where invalid marks collinear
    triples that fall back to chords.
    """
    n = pts.shape[0]
    if closed:
        a = np.roll(pts, 1, axis=0)
        c = np.roll(pts, -1, axis=0)
        b = pts
    else:
        a, b, c = pts[:-2], pts[1:-1], pts[2:]
    u = a - b
    v = c - b
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    uv = np.einsum("ij,ij->i", u, v)
    det = uu * vv - uv * uv
    scale = uu * vv
    valid = det > 1e-24 * np.maximum(scale, 1e-300)
    # u points backwards, so the turn angle at b has cos = -u.v/(|u||v|)
    cos_turn = -uv / np.sqrt(np.maximum(scale, 1e-300))
    valid &= cos_turn > np.cos(MAX_TURN_ANGLE)
    det_safe = np.where(valid, det, 1.0)
    alpha = 0.5 * (uu * vv - vv * uv) / det_safe
    beta = 0.5 * (vv * uu - uu * uv) / det_safe
    centers = b + alpha[:, None] * u + beta[:, None] * v
    if not closed:
        centers = np.vstack([centers[:1], centers, centers[-1:]])
        valid = np.concatenate([valid[:1], valid, valid[-1:]])
    return centers, valid


def _arc_points(p0, p1, centers, valid, frac):
    """Point at arc fraction ``frac`` on the circle through each segment."""
    out = p0 + frac[:, None] * (p1 - p0)  # chord fallback
    if not np.any(valid):
        return out
    u = p0 - centers
    v = p1 - centers
    dot = np.einsum("ij,ij->i", u, v)
    cn = _cross_norm(u, v)
    ang = np.arctan2(cn, dot)
    ok = valid & (ang > 1e-12) & (ang < 3.0)
    if not np.any(ok):
        return out
    su = u[ok]
    sv = v[ok]
    sang = ang[ok]
    w = (sv - su * np.cos(sang)[:, None]) / np.sin(sang)[:, None]
    f = frac[ok] * sang
    arc = centers[ok] + su * np.cos(f)[:, None] + w * np.sin(f)[:, None]
    out[ok] = arc
    return out


def _segment_arc_lengths(pts, closed, centers, valid):
    n = pts.shape[0]
    if closed:
        p0 = pts
        p1 = np.roll(pts, -1, axis=0)
        idx0 = np.arange(n)
        idx1 = (idx0 + 1) % n
    else:
        p0 = pts[:-1]
        p1 = pts[1:]
        idx0 = np.arange(n - 1)
        idx1 = idx0 + 1
    chord = np.linalg.norm(p1 - p0, axis=1)

    def one_side(idx):
        cen = centers[idx]
        ok = valid[idx]
        r = np.linalg.norm(p0 - cen, axis=1)
        r = np.where(ok & (r > 0), r, 1.0)
        half = np.clip(chord / (2.0 * r), 0.0, 1.0)
        arc = 2.0 * r * np.arcsin(half)
        return np.where(ok, arc, chord)

    return 0.5 * (one_side(idx0) + one_side(idx1)), p0, p1, idx0, idx1


def _resample_pass(curve: SampledCurve, n: int) -> SampledCurve:
    pts = curve.points
    centers, valid = _vertex_circumcenters(pts, curve.closed)
    seg_len, p0, p1, idx0, idx1 = _segment_arc_lengths(
        pts, curve.closed, centers, valid
    )
    table = np.concatenate([[0.0], np.cumsum(seg_len)])
    length = table[-1]
    if length <= 0.0:
        raise CurveFlowError("degenerate-curve", "curve has zero length")
    if curve.closed:
        targets = np.arange(n) * (length / n)
    else:
        targets = np.linspace(0.0, length, n)
    j = np.clip(np.searchsorted(table, targets, side="right") - 1, 0, len(seg_len) - 1)
    frac = (targets - table[j]) / seg_len[j]
    frac = np.clip(frac, 0.0, 1.0)
    qa = _arc_points(p0[j], p1[j], centers[idx0[j]], valid[idx0[j]], frac)
    qb = _arc_points(p0[j], p1[j], centers[idx1[j]], valid[idx1[j]], frac)
    out = (1.0 - frac)[:, None] * qa + frac[:, None] * qb
    if not curve.closed:
        out[0] = pts[0]
        out[-1] = pts[-1]
    return curve.with_points(out)


def resample_arclength(curve: SampledCurve, n: int) -> SampledCurve:
    """Resample to ``n`` points at equal arclength spacing.

    Positions are looked up on local circular arcs blended between the
    circumcircles of neighbouring sample triples (chords where triples
    are collinear); a second lookup pass evens out the spacing.  The map
    is idempotent at fixed ``n`` and preserves open-curve endpoints.
    """
    if n < 4:
        raise ValueError("resampling needs n >= 4")
    return _resample_pass(_resample_pass(curve, n), n)


# ---------------------------------------------------------------------------
# derivatives and the Frenet frame


def _lagrange_d1_d2(values: np.ndarray, h: np.ndarray, closed: bool):
    """First and second derivative of samples w.r.t. arclength.

    ``h`` holds the segment lengths (with wrap entry for closed curves).
    """
    n = values.shape[0]
    if closed:
        vm = np.roll(values, 1, axis=0)
        vp = np.roll(values, -1, axis=0)
        hm = np.roll(h, 1)[:, None]
        hp = h[:, None]
        v0 = values
        d1 = (-hp / (hm * (hm + hp))) * vm \
            + ((hp - hm) / (hm * hp)) * v0 \
            + (hm / (hp * (hm + hp))) * vp
        d2 = 2.0 * (vm / (hm * (hm + hp)) - v0 / (hm * hp) + vp / (hp * (hm + hp)))
        return d1, d2

    d1 = np.empty_like(values)
    d2 = np.empty_like(values)
    hm = h[: n - 2][:, None]
    hp = h[1 : n - 1][:, None]
    vm, v0, vp = values[:-2], values[1:-1], values[2:]
    d1[1:-1] = (-hp / (hm * (hm + hp))) * vm \
        + ((hp - hm) / (hm * hp)) * v0 \
        + (hm / (hp * (hm + hp))) * vp
    d2[1:-1] = 2.0 * (vm / (hm * (hm + hp)) - v0 / (hm * hp) + vp / (hp * (hm + hp)))

    # 4-point one-sided stencils keep the ends second-order accurate
    start = np.array([0.0, h[0], h[0] + h[1], h[0] + h[1] + h[2]])
    w1, w2 = _one_sided_weights(start)
    d1[0] = w1 @ values[:4]
    d2[0] = w2 @ values[:4]
    end = np.array([0.0, -h[-1], -h[-1] - h[-2], -h[-1] - h[-2] - h[-3]])
    w1, w2 = _one_sided_weights(end)
    d1[-1] = w1 @ values[-1:-5:-1]
    d2[-1] = w2 @ values[-1:-5:-1]
    return d1, d2


def _one_sided_weights(offsets: np.ndarray):
    """Weights for f'(0) and f''(0) from samples at the given offsets."""
    vand = np.vander(offsets, len(offsets), increasing=True)
    inv = np.linalg.inv(vand)
    return inv[1], 2.0 * inv[2]


def arclength_derivatives(curve: SampledCurve):
    """(s, gamma_s, gamma_ss) by three-point stencils on the polyline."""
    h = segment_lengths(curve)
    d1, d2 = _lagrange_d1_d2(curve.points, h, curve.closed)
    return cumulative_arclength(curve), d1, d2


def frenet(curve: SampledCurve) -> FrenetData:
    """Discrete Frenet data; see FrenetData for conventions."""
    h = segment_lengths(curve)
    pts = curve.points
    d1, d2 = _lagrange_d1_d2(pts, h, curve.closed)
    s = cumulative_arclength(curve)
    speed = np.linalg.norm(d1, axis=1)
    tangent = d1 / speed[:, None]

    if curve.dimension == 2:
        kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
        normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
        return FrenetData(s, tangent, normal, kappa)

    cross = np.cross(d1, d2)
    cross_norm = np.linalg.norm(cross, axis=1)
    kappa = cross_norm / speed**3
    floor = KAPPA_FLOOR_SCALE / float(np.mean(h))
    defined = kappa >= floor

    w = d2 - np.einsum("ij,ij->i", d2, tangent)[:, None] * tangent
    wn = np.linalg.norm(w, axis=1)
    wn_safe = np.where(defined & (wn > 0), wn, 1.0)
    normal = np.where(defined[:, None], w / wn_safe[:, None], np.nan)
    binormal = np.where(defined[:, None], np.cross(tangent, normal), np.nan)

    d3, _ = _lagrange_d1_d2(d2, h, curve.closed)
    cn2 = np.where(defined, cross_norm**2, 1.0)
    torsion = np.where(defined, np.einsum("ij,ij->i", cross, d3) / cn2, np.nan)
    return FrenetData(s, tangent, normal, kappa, binormal, torsion, defined)


def integrate_along(curve: SampledCurve, values: np.ndarray) -> float:
    """Trapezoid-weight integral of a per-sample field over arclength."""
    h = segment_lengths(curve)
    n = curve.n
    if curve.closed:
        weights = 0.5 * (h + np.roll(h, 1))
    else:
        weights = np.zeros(n)
        weights[0] = 0.5 * h[0]
        weights[-1] = 0.5 * h[-1]
        weights[1:-1] = 0.5 * (h[:-1] + h[1:])
    return float(np.sum(values * weights))


# ---------------------------------------------------------------------------
# area and shape measures (planar)


def enclosed_area(curve: SampledCurve) -> float:
    """Absolute shoelace area of a closed planar curve."""
    if curve.dimension != 2 or not curve.closed:
        raise ValueError("enclosed_area needs a closed planar curve")
    x, y = curve.points[:, 0], curve.points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * abs(np.sum(x * yn - xn * y)))


def isoperimetric_ratio(curve: SampledCurve) -> float:
    """L^2 / (4 pi A); equals 1 exactly on circles."""
    area = enclosed_area(curve)
    if area <= 0.0:
        raise CurveFlowError("degenerate-curve", "enclosed area is zero")
    return total_length(curve) ** 2 / (4.0 * np.pi * area)


def possibly_self_intersecting(curve: SampledCurve) -> bool:
    """Segment-pair intersection test for planar curves (O(n^2))."""
    if curve.dimension != 2:
        raise ValueError("self-intersection test is planar only")
    pts = curve.points
    if curve.closed:
        a = pts
        b = np.vstack([pts[1:], pts[:1]])
    else:
        a = pts[:-1]
        b = pts[1:]
    m = a.shape[0]

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    for i in range(m - 2):
        # skip the two neighbours sharing an endpoint with segment i
        j0 = i + 2
        j1 = m - 1 if (curve.closed and i == 0) else m
        if j0 >= j1:
            continue
        p, q = a[i], b[i]
        r, s = a[j0:j1], b[j0:j1]
        d1 = orient(p[None, :], q[None, :], r)
        d2 = orient(p[None, :], q[None, :], s)
        d3 = orient(r, s, p[None, :])
        d4 = orient(r, s, q[None, :])
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if np.any(hit):
            return True
    return False


# ---------------------------------------------------------------------------
# distances


def _point_set(obj) -> np.ndarray:
    return obj.points if isinstance(obj, SampledCurve) else np.asarray(obj, dtype=float)


def directed_hausdorff(a, b) -> float:
    """max over a of the distance to the point set b; accepts curves or arrays."""
    a, b = _point_set(a), _point_set(b)
    best = np.full(a.shape[0], np.inf)
    chunk = max(1, int(4_000_000 // max(b.shape[0], 1)))
    for i in range(0, a.shape[0], chunk):
        d = np.linalg.norm(a[i : i + chunk, None, :] - b[None, :, :], axis=2)
        best[i : i + chunk] = d.min(axis=1)
    return float(best.max())


def hausdorff_distance(a, b) -> float:
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def curve_diameter(points) -> float:
    """Max pairwise distance of a point set."""
    points = _point_set(points)
    d = 0.0
    chunk = max(1, int(4_000_000 // max(points.shape[0], 1)))
    for i in range(0, points.shape[0], chunk):
        block = np.linalg.norm(
            points[i : i + chunk, None, :] - points[None, :, :], axis=2
        )
        d = max(d, float(block.max()))
    return d
