"""The shared time-stepping driver, pinned by a golden table of short runs.

The table holds, for each run, the stop reason, the step count and one row
of scalars per recorded frame: time, the frame measures, the coordinate sums
and the sum of squared coordinates.  Any change to stepping, guards,
recording or resampling order moves these numbers.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import circle2, circle3, ellipse2, helix3
from curveflow import csf, flow, vfe
from curveflow.flow import StepOptions
from curveflow.geometry import SampledCurve, chord_lengths


def _parabola(n: int = 48) -> SampledCurve:
    xs = np.linspace(-1.0, 1.0, n)
    return SampledCurve(2, False, np.column_stack([xs, xs**2]))


def _wobbly_ring(n: int = 48) -> SampledCurve:
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = 1.0 + 0.2 * np.cos(3.0 * th)
    return SampledCurve(3, True, np.column_stack([r * np.cos(th), r * np.sin(th),
                                                  0.3 * np.sin(2.0 * th)]))


RUNS = {
    "csf-closed-cfl": (csf, lambda: ellipse2(2.0, 1.0, 64),
                       dict(stop_time=0.05, cfl=0.25)),
    "csf-closed-dt": (csf, lambda: ellipse2(2.0, 1.0, 64),
                      dict(stop_time=0.02, dt=5e-4)),
    "csf-open-cfl": (csf, _parabola, dict(stop_time=5e-3, cfl=0.25)),
    "csf-open-dt": (csf, _parabola, dict(stop_time=3e-3, dt=1e-4)),
    "csf-stop-length": (csf, lambda: circle2(32),
                        dict(stop_time=10.0, cfl=0.25, stop_length=5.5)),
    "csf-max-steps": (csf, lambda: ellipse2(2.0, 1.0, 64),
                      dict(stop_time=1.0, cfl=0.25, max_steps=17, record_every=5)),
    "csf-singular": (csf, lambda: circle2(16),
                     dict(stop_time=10.0, cfl=0.25, record_every=50)),
    "vfe-closed-cfl": (vfe, _wobbly_ring, dict(stop_time=0.06, cfl=0.1)),
    "vfe-open-dt": (vfe, lambda: helix3(1.0, 0.5, 1.0, 64),
                    dict(stop_time=0.04, dt=2e-3, record_every=5,
                         resample_every=10**9)),
}


def summarize(traj) -> dict:
    m = flow.frame_measures(traj)
    measured = np.column_stack([m[key] for key in ("time", "length", "max_curvature",
                                                   "bending", "max_torsion")])
    rows = []
    for t, frame, row in zip(traj.times, traj.frames, measured):
        pts = frame.points
        rows.append([t, *row.tolist(), *pts.sum(axis=0), float((pts**2).sum())])
    return {"stop_reason": traj.stop_reason, "steps_taken": traj.steps_taken,
            "frames": rows}


NAN = float("nan")

# recorded from the two per-engine loops that preceded the shared driver,
# except four rows.  vfe-open-dt was regenerated when the open-curve end
# stencils moved from Lagrange weights to the Newton form of the same cubic,
# a change at rounding level.  Its max_torsion reads the end samples, where
# the end stencil applied to d2 amplifies that rounding to up to 1.8e-11
# relative.  csf-closed-dt, csf-open-dt and vfe-closed-cfl were regenerated
# when the driver began to resample only on spacing drift: they skip
# resamples that the fixed cadence made.
GOLDEN = {
    "csf-closed-cfl": {
        "stop_reason": "stop-time", "steps_taken": 24,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365786, 6.687207444412131, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.012125134034088204, 0.012125134034088204, 9.604988793440526, 1.9131426346283398, 6.6053484413571955, NAN, 8.43769498715119e-15, -4.288236432614667e-15, 158.0572784463802],
            [0.04012609784419542, 0.04012609784419542, 9.42199582989065, 1.8060715618045124, 6.53639616911056, NAN, 1.3766765505351941e-14, 5.773159728050814e-15, 138.8197650069759],
            [0.05, 0.05, 9.358754205867672, 1.7789119272613307, 6.513605527811204, NAN, -8.881784197001252e-15, -2.067790383364354e-14, 136.19509588896858],
        ],
    },
    "csf-closed-dt": {
        "stop_reason": "stop-time", "steps_taken": 40,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365444, 6.6872074444122145, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.005000000000000001, 0.005000000000000001, 9.651630781782977, 1.9622471510879087, 6.650327556174021, NAN, -1.0436096431476471e-14, 1.8041124150158794e-15, 159.200456836789],
            [0.010000000000000005, 0.010000000000000005, 9.616558418179952, 1.9401861798923907, 6.68062105196441, NAN, 1.199040866595169e-14, -9.131584377541913e-15, 143.09760324235035],
            [0.01500000000000001, 0.01500000000000001, 9.584008113340378, 1.911616363824922, 6.652415835417052, NAN, 1.2212453270876722e-14, -1.1185496973098452e-14, 142.19048823420954],
            [0.02, 0.02, 9.551569776586572, 1.8870385463101276, 6.624927966663463, NAN, 1.0880185641326534e-14, -1.7513768213461844e-14, 141.5454914523367],
        ],
    },
    "csf-max-steps": {
        "stop_reason": "max-steps", "steps_taken": 17,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365786, 6.687207444412131, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.006062567017044102, 0.006062567017044102, 9.644663418115087, 1.9533848331172723, 6.642852584296985, NAN, -5.329070518200751e-15, -1.5543122344752192e-15, 159.03067735099486],
            [0.012125134034088204, 0.012125134034088204, 9.604988793440526, 1.9131426346283398, 6.6053484413571955, NAN, 8.43769498715119e-15, -4.288236432614667e-15, 158.0572784463802],
            [0.02612561593914181, 0.02612561593914181, 9.511962863910838, 1.8561201355463939, 6.593724079644879, NAN, 1.9095836023552692e-14, 9.076073226310655e-15, 140.64440274017028],
            [0.031725808701163254, 0.031725808701163254, 9.475904336161788, 1.834525929639143, 6.568983000891333, NAN, 1.7541523789077473e-14, -6.661338147750939e-16, 139.91720860573332],
        ],
    },
    "csf-open-cfl": {
        "stop_reason": "stop-time", "steps_taken": 16,
        "frames": [
            [0.0, 0.0, 2.9576157739833464, 1.9945864406281444, 2.626149644652026, NAN, -4.6629367034256575e-15, 16.680851063829785, 27.109214721208208],
            [0.002263467632412851, 0.002263467632412851, 2.95171657100007, 1.961732593539906, 2.603321127814731, NAN, -2.886579864025407e-15, 16.760834833926054, 27.09117681738507],
            [0.005, 0.005, 2.9444853887953117, 1.923025648361881, 2.583699328393867, NAN, -8.881784197001252e-16, 20.450017173822197, 33.704001928189626],
        ],
    },
    "csf-open-dt": {
        "stop_reason": "stop-time", "steps_taken": 30,
        "frames": [
            [0.0, 0.0, 2.9576157739833464, 1.9945864406281448, 2.626149644652032, NAN, -4.6629367034256575e-15, 16.680851063829785, 27.109214721208208],
            [0.0010000000000000002, 0.0010000000000000002, 2.955003794620728, 1.9795774532682602, 2.6155490195931446, NAN, -8.881784197001252e-16, 16.71617309956776, 27.101153246728636],
            [0.0020000000000000005, 0.0020000000000000005, 2.9522398682379616, 1.9605942830901726, 2.60998323620113, NAN, 5.440092820663267e-15, 20.348363533829655, 33.69923019071363],
            [0.0029999999999999988, 0.0029999999999999988, 2.9496471541450715, 1.9476461131074971, 2.6007266477465607, NAN, 8.104628079763643e-15, 20.376739645901438, 33.69103014210954],
        ],
    },
    "csf-singular": {
        "stop_reason": "approaching-singularity", "steps_taken": 196,
        "frames": [
            [0.0, 0.0, 6.242890304516104, 1.0395661298965815, 6.746677433345592, NAN, -5.551115123125783e-16, -1.1102230246251565e-16, 16.0],
            [0.45809911482378457, 0.45809911482378457, 1.9189267779587325, 3.3820453118791582, 21.949126782802473, NAN, -1.4432899320127035e-15, 1.1102230246251565e-15, 1.5116991939918594],
            [0.5013808687392536, 0.5013808687392536, 0.5898357650947863, 11.002888765471498, 71.40761823685338, NAN, -1.0269562977782698e-15, 1.5890067039947553e-15, 0.14282715331972706],
            [0.50547018077104, 0.50547018077104, 0.18130250397310047, 35.795960734208066, 232.31210939359067, NAN, -8.326672684688674e-16, 1.3426759704060487e-15, 0.01349448078459893],
            [0.5058468205712414, 0.5058468205712414, 0.062076377577157296, 104.54697207755318, 678.4991131929323, NAN, -8.344019919448442e-16, 1.3856103764364747e-15, 0.0015819811593680319],
        ],
    },
    "csf-stop-length": {
        "stop_reason": "stop-length", "steps_taken": 27,
        "frames": [
            [0.0, 0.0, 6.273096981091879, 1.0097005565352746, 6.395392348350602, NAN, -2.3314683517128287e-15, 2.248201624865942e-15, 32.0],
            [0.048036798991923535, 0.048036798991923535, 5.964945901758076, 1.061862021437848, 6.725780433568017, NAN, -5.551115123125783e-16, -6.106226635438361e-16, 28.933368172272875],
            [0.09147012371226074, 0.09147012371226074, 5.671932016697026, 1.1167181648796847, 7.0732364766069455, NAN, -3.885780586188048e-15, -4.3576253716537394e-15, 26.16061855600916],
            [0.1189598319171226, 0.1189598319171226, 5.478378333913167, 1.1561723427896102, 7.323137247565677, NAN, -2.7755575615628914e-15, -3.0531133177191805e-16, 24.405629674247756],
        ],
    },
    "vfe-closed-cfl": {
        "stop_reason": "stop-time", "steps_taken": 31,
        "frames": [
            [0.0, 0.0, 7.307151594560191, 2.1384872396557064, 14.867892647605018, 56.832390542706676, -8.43769498715119e-15, -3.0531133177191805e-15, -2.498001805406602e-16, 51.12],
            [0.012288949730374988, 0.012288949730374988, 7.307151593419394, 2.166903932107345, 14.866287675735858, 15.97466212985077, 0.0024775575778741565, -0.15243948419814515, 0.398332168693548, 51.134016035370635],
            [0.035357414842983326, 0.035357414842983326, 7.307471663798022, 2.186865106381578, 14.749292327767694, 9.560505032784077, 0.04709786387304127, -0.3597913727535549, 1.3081319714087227, 52.537655351307045],
            [0.0584258799555603, 0.0584258799555603, 7.307471653852932, 2.3287938121654155, 14.801454376843882, 18.33442946454022, 0.0625328197337296, -0.595022269777872, 2.1557786028873416, 52.63587383015973],
            [0.06, 0.06, 7.307471653752756, 2.350302303431681, 14.806465025905808, 19.39586716515308, 0.06376367870131183, -0.6111237618971517, 2.2133163774351234, 52.64398246825694],
        ],
    },
    "vfe-open-dt": {
        "stop_reason": "stop-time", "steps_taken": 20,
        "frames": [
            [0.0, 0.0, 7.022485995040002, 0.8072034668988513, 4.511841787921428, 0.40039784512734605, 1.000000000000003, 4.570663009482146e-15, 100.53096491487338, 276.22260468797435],
            [0.01, 0.01, 7.022485980703457, 0.942587106085769, 4.476419597629555, 7.425195983438612, 0.9942275049195187, 0.004242609541760372, 100.97261125003098, 277.6026912497788],
            [0.020000000000000004, 0.020000000000000004, 7.022485966246861, 1.0645716635173261, 4.4417612221449545, 5.279096791766976, 0.9810764909275399, 0.010829036892254068, 101.40955312411367, 278.96112957438834],
            [0.030000000000000013, 0.030000000000000013, 7.022485951717114, 1.1383631923176936, 4.441585487888622, 22.86142264149155, 0.9638901309425972, 0.019175950998272896, 101.8429308698232, 280.30801118272467],
            [0.04, 0.04, 7.022485937177666, 1.16615406100319, 4.441003458731281, 23.80739967071562, 0.9432798676950693, 0.029016439488212174, 102.27326923692567, 281.6461707863342],
        ],
    },
}



@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_runs(name):
    engine, build, kwargs = RUNS[name]
    got = summarize(engine.evolve(build(), StepOptions(**kwargs)))
    want = GOLDEN[name]
    assert got["stop_reason"] == want["stop_reason"]
    assert got["steps_taken"] == want["steps_taken"]
    assert len(got["frames"]) == len(want["frames"])
    for row, expect in zip(got["frames"], want["frames"]):
        assert row == pytest.approx(expect, rel=1e-12, abs=1e-12, nan_ok=True)


NaN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    dict(stop_time=NaN, cfl=0.25),
    dict(stop_time=INF, cfl=0.25),
    dict(stop_time=1.0, dt=NaN),
    dict(stop_time=1.0, dt=INF),
    dict(stop_time=1.0, cfl=NaN),
    dict(stop_time=1.0, cfl=0.25, stop_length=NaN),
    dict(stop_time=1.0, cfl=0.25, stop_length=-1.0),
    dict(stop_time=1.0, cfl=0.25, max_steps=-1),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_step_options_reject_non_finite_and_out_of_range(kwargs):
    with pytest.raises(ValueError):
        StepOptions(**kwargs)


@pytest.mark.parametrize("engine, curve", [(csf, circle2(16)), (vfe, circle3(16))],
                         ids=["csf", "vfe"])
def test_blow_up_records_the_last_finite_frame(engine, curve):
    # translate along x at unit speed; the velocity turns non-finite once
    # the curve has moved past 4.75 steps
    dt, start = 0.01, curve.points[0, 0]

    def velocity(pts, h, closed):
        vel = np.zeros_like(pts)
        vel[:, 0] = np.nan if pts[0, 0] - start > 4.75 * dt else 1.0
        return vel, np.zeros(len(pts))

    spec = dataclasses.replace(engine._spec(), velocity=velocity)
    traj = flow.evolve(curve, StepOptions(stop_time=1.0, dt=dt, record_every=3), spec)
    assert traj.stop_reason == "blow-up-detected"
    # the blow-up step is off the record cadence, so this frame exists only
    # because the driver records the last finite state before stopping
    assert traj.steps_taken % 3 != 0
    assert traj.final_time == pytest.approx(traj.steps_taken * dt, rel=1e-12)
    shift = np.zeros(curve.dimension)
    shift[0] = traj.final_time
    assert np.allclose(traj.final.points, curve.points + shift, rtol=0, atol=1e-12)


def _count_resamples(monkeypatch) -> list:
    calls = []
    original = flow.resample_points

    def counting(pts, closed, n):
        calls.append(n)
        return original(pts, closed, n)

    monkeypatch.setattr(flow, "resample_points", counting)
    return calls


def test_uniform_circle_is_never_resampled(monkeypatch):
    # CSF moves a uniformly sampled circle's points along their radii, so
    # the spacing stays uniform and no spacing check may resample it
    calls = _count_resamples(monkeypatch)
    traj = csf.evolve(circle2(64), StepOptions(stop_time=0.1, cfl=0.25))
    assert traj.stop_reason == "stop-time"
    assert traj.steps_taken >= 50          # five checks at resample_every = 10
    assert calls == []


def test_spacing_drift_is_resampled(monkeypatch):
    # radial motion keeps this angular clustering until a resample removes it
    u = np.linspace(0.0, 1.0, 64, endpoint=False)
    th = 2.0 * np.pi * u + 0.3 * np.sin(2.0 * np.pi * u)
    curve = SampledCurve(2, True, np.column_stack([np.cos(th), np.sin(th)]))
    calls = _count_resamples(monkeypatch)
    traj = csf.evolve(curve, StepOptions(stop_time=0.05, cfl=0.25))
    assert traj.stop_reason == "stop-time"
    assert len(calls) >= 1
    h = chord_lengths(traj.final.points, True)
    assert h.max() <= (1.0 + flow.SPACING_TOL) * h.min()
