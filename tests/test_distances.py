"""Property tests: the distance helpers against brute-force all-pairs sums."""
from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curveflow.csf import distance_ratio
from curveflow.geometry import (
    SampledCurve,
    curve_diameter,
    directed_hausdorff,
    hausdorff_distance,
)

RTOL = 1e-14
BOUNDED = settings(max_examples=50, deadline=None)

# no magnitudes below 1e-6 but zero: squared chords must not underflow
coords = st.one_of(st.just(0.0), st.floats(1e-6, 100.0), st.floats(-100.0, -1e-6))


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


@st.composite
def point_sets(draw, dim=None):
    """4+ points in 2-D or 3-D; some are flat (collinear or coplanar)."""
    dim = draw(st.sampled_from((2, 3))) if dim is None else dim
    n = draw(st.integers(4, 40))
    pts = draw(arrays(float, (n, dim), elements=coords))
    flat = draw(st.sampled_from(("none", "axis", "diagonal")))
    if flat == "axis":            # one coordinate held constant
        pts[:, -1] = pts[0, -1]
    elif flat == "diagonal":      # the line y = x, or the plane z = y
        pts[:, -1] = pts[:, -2]
    return pts


def assert_close(got: float, want: float) -> None:
    assert abs(got - want) <= RTOL * abs(want)


@BOUNDED
@given(st.sampled_from((2, 3)).flatmap(lambda d: st.tuples(point_sets(d), point_sets(d))))
def test_hausdorff_matches_all_pairs(sets):
    a, b = sets
    d = pair_distances(a, b)
    assert_close(directed_hausdorff(a, b), d.min(axis=1).max())
    assert_close(hausdorff_distance(a, b),
                 max(d.min(axis=1).max(), d.min(axis=0).max()))


_t = np.linspace(0.0, 2.0, 80)
LINE = np.column_stack([_t, 2.0 * _t])
PLANAR_ARC = np.column_stack([np.cos(_t), np.sin(_t), np.zeros_like(_t)])


@BOUNDED
@given(point_sets())
@example(LINE)          # flat sets: qhull rejects them and all pairs are taken
@example(PLANAR_ARC)
def test_curve_diameter_matches_all_pairs(pts):
    assert_close(curve_diameter(pts), pair_distances(pts, pts).max())


@BOUNDED
@given(point_sets(dim=2))
def test_distance_ratio_matches_all_pairs(pts):
    # a closed curve needs distinct neighbours: collapse runs of repeats
    pts = pts[np.any(pts != np.roll(pts, 1, axis=0), axis=1)]
    assume(len(pts) >= 4)
    h = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(h[:-1])])
    L = h.sum()
    d = pair_distances(pts, pts)
    arc = np.abs(s[:, None] - s[None, :])
    arc = np.minimum(arc, L - arc)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (L / (np.pi * d)) * np.sin(np.pi * arc / L)
    ratio[~np.isfinite(ratio)] = 0.0
    assert_close(distance_ratio(SampledCurve(2, True, pts)), ratio.max())
