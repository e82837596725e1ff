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
# resamples that the fixed cadence made.  All seven csf rows were regenerated
# when the curve shortening step became linearly implicit BDF2.
GOLDEN = {
    "csf-closed-cfl": {
        "stop_reason": "stop-time", "steps_taken": 24,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365444, 6.6872074444122145, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.012125134034088204, 0.012125134034088204, 9.605007317688216, 1.9156641263190781, 6.6064444585092685, NAN, -1.354472090042691e-14, 8.923417560424696e-15, 158.05639834640948],
            [0.04012591101845939, 0.04012591101845939, 9.422025740789493, 1.8114315856029646, 6.5399059152289585, NAN, -2.2648549702353193e-14, 1.4710455076283324e-14, 138.81454585048976],
            [0.05, 0.05, 9.358915948011727, 1.7849705127466393, 6.517906732765646, NAN, 1.1546319456101628e-14, 1.3711254354120683e-14, 136.19414856688113],
        ],
    },
    "csf-closed-dt": {
        "stop_reason": "stop-time", "steps_taken": 40,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365444, 6.6872074444122145, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.005000000000000001, 0.005000000000000001, 9.651635148646932, 1.9629334226847153, 6.650578090071287, NAN, -1.7319479184152442e-14, -1.249000902703301e-16, 159.20030065670315],
            [0.010000000000000005, 0.010000000000000005, 9.61656510480141, 1.9411002641419668, 6.681035026870521, NAN, 8.881784197001252e-15, 1.4210854715202004e-14, 143.09746015526787],
            [0.01500000000000001, 0.01500000000000001, 9.584016415022766, 1.9126696222690533, 6.652936158205781, NAN, -1.2434497875801753e-14, 1.0436096431476471e-14, 142.19036795631845],
            [0.02, 0.02, 9.551570011328646, 1.888095142460723, 6.625477203958157, NAN, -3.219646771412954e-14, 9.020562075079397e-15, 141.5451131112174],
        ],
    },
    "csf-max-steps": {
        "stop_reason": "max-steps", "steps_taken": 17,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365444, 6.6872074444122145, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.006062567017044102, 0.006062567017044102, 9.644704153092526, 1.9556841301123444, 6.643765771986328, NAN, -7.105427357601002e-15, -2.373101715136272e-15, 159.0306077333728],
            [0.012125134034088204, 0.012125134034088204, 9.605007317688216, 1.9156641263190781, 6.6064444585092685, NAN, -1.354472090042691e-14, 8.923417560424696e-15, 158.05639834640948],
            [0.026125522526273794, 0.026125522526273794, 9.512132453355354, 1.8620061172119295, 6.597210705735698, NAN, -1.3988810110276972e-14, 1.5792922525292852e-14, 140.64290627543033],
            [0.03172567792314803, 0.03172567792314803, 9.476019015220645, 1.8401735155672256, 6.572501041063562, NAN, -2.1094237467877974e-14, 9.381384558082573e-15, 139.91421436386665],
        ],
    },
    "csf-open-cfl": {
        "stop_reason": "stop-time", "steps_taken": 7,
        "frames": [
            [0.0, 0.0, 2.9576157739833464, 1.9945864406281448, 2.626149644652032, NAN, -4.6629367034256575e-15, 16.680851063829785, 27.109214721208208],
            [0.005, 0.005, 2.9446549917681444, 1.9280400347798825, 2.579845670909288, NAN, -3.1086244689504383e-15, 16.857671551520145, 27.070481970149654],
        ],
    },
    "csf-open-dt": {
        "stop_reason": "stop-time", "steps_taken": 30,
        "frames": [
            [0.0, 0.0, 2.9576157739833464, 1.9945864406281448, 2.626149644652032, NAN, -4.6629367034256575e-15, 16.680851063829785, 27.109214721208208],
            [0.0010000000000000002, 0.0010000000000000002, 2.9550040634681434, 1.979649168860841, 2.615578614818774, NAN, 3.6637359812630166e-15, 16.71617324953506, 27.101157041678597],
            [0.0020000000000000005, 0.0020000000000000005, 2.952240383993746, 1.9607273280351594, 2.610039963396999, NAN, -2.4424906541753444e-15, 20.348360375622576, 33.69923255902988],
            [0.0029999999999999988, 0.0029999999999999988, 2.9496476968032788, 1.947801848059932, 2.6007764024016327, NAN, 3.4416913763379853e-15, 20.37673823806004, 33.69103422567582],
        ],
    },
    "csf-singular": {
        "stop_reason": "approaching-singularity", "steps_taken": 193,
        "frames": [
            [0.0, 0.0, 6.242890304516104, 1.0395661298965806, 6.746677433345597, NAN, -5.551115123125783e-16, -1.1102230246251565e-16, 16.0],
            [0.45527257084143735, 0.45527257084143735, 1.889092438338544, 3.43545777936764, 22.295768212049097, NAN, -7.216449660063518e-16, -1.8318679906315083e-15, 1.4650585932739646],
            [0.4968985631167555, 0.4968985631167555, 0.570911746389612, 11.367601655205325, 73.77456744003892, NAN, -3.3306690738754696e-15, 2.0122792321330962e-16, 0.13380937189050263],
            [0.5007004232650469, 0.5007004232650469, 0.17253799525677715, 37.614308103998944, 244.11299710332327, NAN, -2.8033131371785203e-15, 5.169475958410885e-16, 0.012221318715807979],
            [0.5010326632813016, 0.5010326632813016, 0.06234819987962473, 104.09117385529554, 675.5410295349228, NAN, -2.688821387764051e-15, 7.016956460326185e-16, 0.001595865966012207],
        ],
    },
    "csf-stop-length": {
        "stop_reason": "stop-length", "steps_taken": 27,
        "frames": [
            [0.0, 0.0, 6.273096981091879, 1.0097005565352672, 6.395392348350594, NAN, -2.3314683517128287e-15, 2.248201624865942e-15, 32.0],
            [0.048036798991923535, 0.048036798991923535, 5.96449810509584, 1.0619417428596127, 6.726285385028478, NAN, -3.9968028886505635e-15, 2.525757381022231e-15, 28.929024200144415],
            [0.09146360275863635, 0.09146360275863635, 5.670756930200576, 1.116949569690741, 7.074702182997145, NAN, -5.551115123125783e-15, 2.3592239273284576e-15, 26.149779989848493],
            [0.11894192174422233, 0.11894192174422233, 5.476759860476904, 1.1565140109058512, 7.325301356164033, NAN, -5.773159728050814e-15, -5.273559366969494e-16, 24.39121152850919],
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


def _blow_up_run(engine, curve, dt, record_every):
    # translate along x at unit speed; the speed turns non-finite once the
    # curve has moved past 4.75 steps, so the sixth step blows up.  The NaN
    # enters through the step: the implicit curve shortening step reads no
    # velocity, and RK4's later stages compute theirs without FlowSpec.velocity
    start = curve.points[0, 0]

    def step(pts, h, vel, closed, dt, last):
        moved = pts.copy()
        moved[:, 0] += dt * (np.nan if pts[0, 0] - start > 4.75 * dt else 1.0)
        return moved

    spec = dataclasses.replace(engine._spec(), step=step)
    return flow.evolve(curve, StepOptions(stop_time=1.0, dt=dt,
                                          record_every=record_every), spec)


@pytest.mark.parametrize("engine, curve", [(csf, circle2(16)), (vfe, circle3(16))],
                         ids=["csf", "vfe"])
def test_blow_up_records_the_last_finite_frame(engine, curve):
    dt = 0.01
    traj = _blow_up_run(engine, curve, dt, 3)
    assert traj.stop_reason == "blow-up-detected"
    # the blow-up step is off the record cadence, so this frame exists only
    # because the driver records the last finite state before stopping
    assert traj.steps_taken % 3 != 0
    assert traj.final_time == pytest.approx(traj.steps_taken * dt, rel=1e-12)
    shift = np.zeros(curve.dimension)
    shift[0] = traj.final_time
    assert np.allclose(traj.final.points, curve.points + shift, rtol=0, atol=1e-12)


@pytest.mark.parametrize("engine, curve", [(csf, circle2(16)), (vfe, circle3(16))],
                         ids=["csf", "vfe"])
def test_blow_up_on_the_record_cadence_is_recorded_once(engine, curve):
    dt = 0.01
    traj = _blow_up_run(engine, curve, dt, 5)
    assert traj.stop_reason == "blow-up-detected"
    # the blow-up step is on the record cadence, so the top of the loop has
    # already recorded its start
    assert traj.steps_taken == 5
    assert traj.times == pytest.approx([0.0, 5 * dt], rel=1e-12)
    assert len(set(traj.times)) == len(traj.frames) == 2
    assert np.allclose(traj.final.points[:, 0], curve.points[:, 0] + 5 * dt,
                       rtol=0, atol=1e-12)


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
    opts = StepOptions(stop_time=0.3, cfl=0.25)
    traj = csf.evolve(circle2(64), opts)
    assert traj.stop_reason == "stop-time"
    assert traj.steps_taken // opts.resample_every >= 5    # five spacing checks
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
