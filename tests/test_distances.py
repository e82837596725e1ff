"""Property tests: the distance helpers against brute-force all-pairs sums,
and against the bits of the unpruned scipy computations."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from conftest import helix3
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
@example(LINE)          # flat sets: collinear in 2-D, coplanar in 3-D
@example(PLANAR_ARC)
def test_curve_diameter_matches_all_pairs(pts):
    assert_close(curve_diameter(pts), pair_distances(pts, pts).max())


# the helpers measure only the points that can hold the answer, so each is
# held to the bits of the computation that measures every point
_u = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
POLYGON = np.column_stack([np.cos(_u), np.sin(_u)])   # every point on the circle
HELIX = helix3(n=1024).points


@BOUNDED
@given(point_sets())
@example(POLYGON)       # nothing is pruned
@example(HELIX)
@example(LINE)
@example(PLANAR_ARC)
def test_curve_diameter_has_the_bits_of_all_pairs(pts):
    assert curve_diameter(pts) == float(pdist(pts).max())


def full_query(a: np.ndarray, b: np.ndarray) -> float:
    return float(cKDTree(b).query(a)[0].max())


@BOUNDED
@given(st.sampled_from((2, 3)).flatmap(lambda d: st.tuples(point_sets(d), point_sets(d))))
def test_directed_hausdorff_has_the_bits_of_a_full_query(sets):
    a, b = sets
    assert directed_hausdorff(a, b) == full_query(a, b)
    assert directed_hausdorff(a, a) == 0.0


@pytest.mark.parametrize("a, b", [
    (POLYGON, POLYGON),                           # a = b: the lower bound is 0
    (POLYGON, POLYGON[::-1]),                     # loose bounds
    (POLYGON, np.roll(POLYGON, 512, axis=0)),
    (POLYGON, POLYGON[::3]),                      # unequal sizes
    (POLYGON[::7], POLYGON),
    (HELIX, HELIX + 1e-9),
    (LINE, LINE[::-1] + [0.0, 1e-3]),
    (PLANAR_ARC, PLANAR_ARC[::2]),
], ids=["same-set", "reversed", "rolled-by-half", "fewer-in-b", "fewer-in-a",
        "shifted-helix", "line", "planar-arc"])
def test_directed_hausdorff_keeps_the_bits_on_hard_pairs(a, b):
    assert directed_hausdorff(a, b) == full_query(a, b)
    assert directed_hausdorff(b, a) == full_query(b, a)


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
