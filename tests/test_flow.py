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
# resamples that the fixed cadence made.  All csf rows were regenerated
# when the curve shortening step became linearly implicit BDF2, and
# csf-closed-cfl, csf-max-steps and csf-singular again when its cfl step
# lost the spacing term h_min^2/2 and became 0.012 cfl/max kappa^2 alone.
# To regenerate rows after a change that moves them, run
# this file as a script (``PYTHONPATH=src python tests/test_flow.py``): it
# prints every run in this layout, and the rows that moved are pasted over,
# in a commit of their own.
GOLDEN = {
    "csf-closed-cfl": {
        "stop_reason": "stop-time", "steps_taken": 60,
        "frames": [
            [0.0, 0.0, 9.684557854680218, 2.0048268947365444, 6.6872074444122145, NAN, -4.6629367034256575e-15, -3.594347042223944e-15, 160.0],
            [0.007463928925398764, 0.007463928925398764, 9.635475071280048, 1.945245072277548, 6.634373865444117, NAN, 2.6645352591003757e-15, 5.689893001203927e-15, 158.8052843697189],
            [0.015303075918189555, 0.015303075918189555, 9.58202414503008, 1.91085939611985, 6.649841665084395, NAN, 5.773159728050814e-15, 1.8041124150158794e-14, 142.28299346073328],
            [0.0235278264966137, 0.0235278264966137, 9.528731438188757, 1.8720477668123998, 6.609971013017927, NAN, 5.773159728050814e-15, -2.248201624865942e-15, 140.81725491525376],
            [0.03209534247449973, 0.03209534247449973, 9.473482515512757, 1.8387693451334892, 6.5748038236999085, NAN, 1.7985612998927536e-14, -8.604228440844963e-15, 139.29969490380097],
            [0.0409744424968347, 0.0409744424968347, 9.416465439166828, 1.8096622826973179, 6.543829352459271, NAN, 4.8627768478581856e-14, -3.166911177743259e-14, 137.73715059964314],
            [0.05, 0.05, 9.358721127925309, 1.7842514301758379, 6.51705763713492, NAN, -4.218847493575595e-15, -4.3576253716537394e-15, 136.1529824608973],
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
            [0.0037319644626993814, 0.0037319644626993814, 9.659984258810901, 1.9729817397261038, 6.659491107723143, NAN, 7.771561172376096e-15, 1.3156142841808105e-14, 159.40357584566607],
            [0.007463928925398764, 0.007463928925398764, 9.635475071280048, 1.945245072277548, 6.634373865444117, NAN, 2.6645352591003757e-15, 5.689893001203927e-15, 158.8052843697189],
            [0.011383502421794159, 0.011383502421794159, 9.607529045821149, 1.932451141629156, 6.673261538284397, NAN, 7.327471962526033e-15, 1.2656542480726785e-14, 142.78808127505351],
            [0.012951331820352317, 0.012951331820352317, 9.59731897038192, 1.9235410882113084, 6.663656418062529, NAN, -2.220446049250313e-16, 1.0269562977782698e-14, 142.58627546359122],
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
        "stop_reason": "approaching-singularity", "steps_taken": 1613,
        "frames": [
            [0.0, 0.0, 6.242890304516104, 1.0395661298965806, 6.746677433345597, NAN, -5.551115123125783e-16, -1.1102230246251565e-16, 16.0],
            [0.12422286923472871, 0.12422286923472871, 5.412232473865688, 1.1991165096054046, 7.78214301394328, NAN, 7.771561172376096e-16, -9.936496070395151e-15, 12.025453418420947],
            [0.2175849879678414, 0.2175849879678414, 4.692013350963495, 1.3831796347941039, 8.976693795571112, NAN, 2.7755575615628914e-15, -1.5987211554602254e-14, 9.03789004288004],
            [0.28775253458089717, 0.28775253458089717, 4.0676355629445755, 1.5954962564386466, 10.354606867937036, NAN, -3.3306690738754696e-16, -1.7014167852380524e-14, 6.792546907384313],
            [0.34048789089569637, 0.34048789089569637, 3.526345267012913, 1.8404032565796524, 11.944028150144437, NAN, -1.4432899320127035e-15, -1.9623191960249642e-14, 5.105029301099352],
            [0.38012185189172415, 0.38012185189172415, 3.057085805686718, 2.122903224097435, 13.777423930326886, NAN, -2.0539125955565396e-15, -2.3148150063434514e-14, 3.836752917635521],
            [0.4099092843470507, 0.4099092843470507, 2.6502718581631717, 2.4487666400128703, 15.892244037757758, NAN, -4.6074255521944e-15, -2.6867397195928788e-14, 2.8835628715812955],
            [0.43229642683754327, 0.43229642683754327, 2.2975936459179245, 2.824649748124627, 18.331686811182713, NAN, -5.495603971894525e-15, -2.8227420401094605e-14, 2.1671801684551673],
            [0.4491217826194231, 0.4491217826194231, 1.991847193148362, 3.258230518665807, 21.145581488988064, NAN, -5.995204332975845e-15, -2.5743296383495817e-14, 1.6287731850180776],
            [0.4617671033568536, 0.4617671033568536, 1.7267871748783252, 3.7583654822384505, 24.391406045333092, NAN, -7.882583474838611e-15, -2.5882074261573962e-14, 1.2241262294888005],
            [0.4712708629578664, 0.4712708629578664, 1.4969993469284046, 4.33527063759312, 28.135461263060392, NAN, -9.520162436160717e-15, -2.5618396293225487e-14, 0.9200084084794422],
            [0.4784135403504995, 0.4784135403504995, 1.2977899519446974, 5.000730128561936, 32.454225025565336, NAN, -9.603429163007604e-15, -2.5757174171303632e-14, 0.6914446004692962],
            [0.48378171489163607, 0.48378171489163607, 1.1250898424401057, 5.768336952682286, 37.43591449104477, NAN, -9.520162436160717e-15, -2.6201263381153694e-14, 0.5196644194897352],
            [0.4878162381271138, 0.4878162381271138, 0.9753713624189382, 6.653770618341454, 43.182288058853345, NAN, -9.992007221626409e-15, -2.808864252301646e-14, 0.3905607314025121],
            [0.4908484379210802, 0.4908484379210802, 0.8455762897687145, 7.675117422001055, 49.81072393580399, NAN, -9.71445146547012e-15, -2.77416978278211e-14, 0.29353113123165653],
            [0.4931273281526897, 0.4931273281526897, 0.7330533675356409, 8.8532398876392, 57.456617760211074, NAN, -1.021405182655144e-14, -2.791517017541878e-14, 0.22060723998731907],
            [0.4948400585268757, 0.4948400585268757, 0.6355041480672603, 10.212202914760384, 66.27614825870984, NAN, -1.0560996521746802e-14, -2.89906987305244e-14, 0.16580031607078005],
            [0.49612728390261746, 0.49612728390261746, 0.5509360438086496, 11.779765339675071, 76.4494674284906, NAN, -1.1338152638984411e-14, -2.9601321394068236e-14, 0.12460944079056835],
            [0.49709471531676525, 0.49709471531676525, 0.47762162574492306, 13.587946950921317, 88.18438040915811, NAN, -1.0907941216942163e-14, -2.93723378952393e-14, 0.09365188862191047],
            [0.497821801310188, 0.497821801310188, 0.41406333810037305, 15.673682540958401, 101.72059021105807, NAN, -1.116468029138673e-14, -2.9455604622086184e-14, 0.07038532704108348],
            [0.49836825249432487, 0.49836825249432487, 0.35896290853963014, 18.07957635410759, 117.33459400494256, NAN, -1.128958038165706e-14, -2.986152991546476e-14, 0.052899032102607935],
            [0.49877894517627125, 0.49877894517627125, 0.31119482902877726, 20.854772341460247, 135.34533098696176, NAN, -1.1379786002407855e-14, -2.964295475749168e-14, 0.03975697371924361],
            [0.49908760674367264, 0.49908760674367264, 0.26978336566369343, 24.055957999000455, 156.12069718499708, NAN, -1.1532441668293814e-14, -2.996214387707141e-14, 0.029879884309541176],
            [0.4993195854649372, 0.4993195854649372, 0.23388262785722447, 27.74852229382625, 180.08506028093103, NAN, -1.1449174941446927e-14, -2.987714242674855e-14, 0.022456625915654577],
            [0.4994939321695589, 0.4994939321695589, 0.20275928976877816, 32.00789133082734, 207.72792795024122, NAN, -1.140407213107153e-14, -2.979907987032959e-14, 0.016877576977586187],
            [0.4996249647627497, 0.4996249647627497, 0.17577761103589123, 36.921069042801236, 239.61394678262405, NAN, -1.1629586182948515e-14, -2.987020353284464e-14, 0.012684568274158012],
            [0.4997234440572999, 0.4997234440572999, 0.15238645083399233, 42.588414374876514, 276.3944360264315, NAN, -1.16157083951407e-14, -2.983203961637315e-14, 0.009533256611150585],
            [0.49979745748570653, 0.49979745748570653, 0.1321080100072541, 49.12569126488579, 318.8206917507732, NAN, -1.181693631835401e-14, -2.9927449407551876e-14, 0.00716484626435415],
            [0.4998530832658214, 0.4998530832658214, 0.11452807131186019, 56.666433293570236, 367.7593331825291, NAN, -1.1879386363489175e-14, -2.993005149276584e-14, 0.005384835852607336],
            [0.49989488956340794, 0.49989488956340794, 0.09928753841416788, 65.36467130610926, 424.2100046899811, NAN, -1.1900203045200897e-14, -2.991530634322004e-14, 0.004047045266523815],
            [0.4999263096444266, 0.4999263096444266, 0.08607510081525335, 75.39807972068887, 489.325795002345, NAN, -1.1992143389427667e-14, -3.0015052943088705e-14, 0.003041610893554427],
            [0.49994992382573916, 0.49994992382573916, 0.07462087487203531, 86.97160579213354, 564.4367907580663, NAN, -1.1943571132100317e-14, -3.0052349497822206e-14, 0.002285963269132241],
            [0.4999676713789268, 0.4999676713789268, 0.06469089102340257, 100.32165596369768, 651.0772454980399, NAN, -1.1921019726912618e-14, -3.0139953033359035e-14, 0.0017180462099526095],
            [0.4999714967628872, 0.4999714967628872, 0.06234368638568704, 104.09870974079541, 675.5899366579729, NAN, -1.1929693344292502e-14, -3.011479954295737e-14, 0.0015956349193850215],
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


if __name__ == "__main__":
    def _number(v) -> str:
        return "NAN" if np.isnan(v) else repr(float(v))

    print("GOLDEN = {")
    for name in sorted(RUNS):
        engine, build, kwargs = RUNS[name]
        got = summarize(engine.evolve(build(), StepOptions(**kwargs)))
        print(f'    "{name}": {{')
        print(f'        "stop_reason": "{got["stop_reason"]}", '
              f'"steps_taken": {got["steps_taken"]},')
        print('        "frames": [')
        for row in got["frames"]:
            print(f'            [{", ".join(map(_number, row))}],')
        print("        ],")
        print("    },")
    print("}")
