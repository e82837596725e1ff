from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import circle2, helix3
from curveflow import storage
from curveflow.errors import ConfigError
from curveflow.flow import FlowTrajectory
from curveflow.geometry import SampledCurve, frenet
from curveflow.hasimoto import FilamentFunction


def test_curve_round_trip(tmp_path):
    curve = helix3(1.0, 0.5, 2.0, 64)
    path = storage.write_curve(tmp_path / "helix.curve", curve)
    back = storage.read_curve(path)
    assert back.dimension == 3
    assert back.closed == curve.closed
    np.testing.assert_array_equal(back.points, curve.points)


def test_curve_read_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        storage.read_curve(tmp_path / "missing.curve")
    assert err.value.token == "input-not-found"

    bad = tmp_path / "bad.curve"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        storage.read_curve(bad)
    assert err.value.token == "invalid-input"

    malformed = tmp_path / "short.curve"
    malformed.write_text(json.dumps({"dimension": 2, "closed": True}))
    with pytest.raises(ConfigError) as err:
        storage.read_curve(malformed)
    assert err.value.token == "invalid-input"

    not_an_object = tmp_path / "list.curve"
    not_an_object.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ConfigError) as err:
        storage.read_curve(not_an_object)
    assert err.value.token == "invalid-input"


def test_unlabeled_curve_round_trips_byte_for_byte(tmp_path):
    first = storage.write_curve(tmp_path / "a.curve",
                                SampledCurve(2, True, circle2(16).points))
    back = storage.read_curve(first)
    assert back.label is None
    second = storage.write_curve(tmp_path / "b.curve", back)
    assert second.read_bytes() == first.read_bytes()
    assert json.loads(first.read_text())["label"] is None


def test_filament_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    fil = FilamentFunction(-1.5, 0.125, vals, gauge_A=0.75, time=0.25)
    back = storage.read_filament(storage.write_filament(tmp_path / "f.json", fil))
    assert back.grid_start == fil.grid_start
    assert back.grid_step == fil.grid_step
    assert back.gauge_A == fil.gauge_A
    assert back.time == fil.time
    np.testing.assert_array_equal(back.values, vals)


def test_filament_rejects_wrong_shape(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"grid_start": 0.0, "grid_step": 0.1,
                                "gauge_A": 0.0, "time": 0.0,
                                "values": [1.0, 2.0, 3.0]}))
    with pytest.raises(ConfigError) as err:
        storage.read_filament(path)
    assert err.value.token == "invalid-input"


def test_frenet_dump_covers_both_dimensions(tmp_path):
    flat = json.loads(storage.write_frenet(
        tmp_path / "flat.json", frenet(circle2(32))).read_text())
    assert set(flat) == {"arclength", "tangent", "normal", "curvature"}

    spatial = json.loads(storage.write_frenet(
        tmp_path / "helix.json", frenet(helix3(n=32))).read_text())
    assert {"binormal", "torsion", "torsion_defined"} <= set(spatial)
    assert len(spatial["torsion"]) == 32


def test_table_csv_and_structured_text(tmp_path):
    columns = ("time", "length")
    rows = [[0.0, 6.25], [0.5, float("nan")]]
    csv_path = storage.write_table(tmp_path / "t.csv", columns, rows)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,length"
    assert lines[1] == "0.0,6.25"
    # NaN cells are written empty, not as the string "nan"
    assert lines[2] == "0.5,"

    txt_path = storage.write_table(tmp_path / "t.txt", columns, rows,
                                   output_format="structured-text")
    tlines = txt_path.read_text().splitlines()
    assert tlines[0].split() == ["time", "length"]
    assert tlines[1].split() == ["0.0", "6.25"]
    # columns align: every data cell starts at the same offset
    assert tlines[1].index("6.25") == tlines[0].index("length")

    with pytest.raises(ConfigError) as err:
        storage.write_table(tmp_path / "t.xml", columns, rows, output_format="xml")
    assert err.value.token == "invalid-format"


def test_trajectory_round_trip(tmp_path):
    traj = FlowTrajectory(stop_reason="reached-stop-time")
    for k, t in enumerate((0.0, 0.1, 0.2)):
        frame = circle2(32, radius=1.0 - t)
        traj.append(t, frame)
    files = storage.write_trajectory(tmp_path, traj)
    assert [p.name for p in files] == [
        "frame_00000.curve", "frame_00001.curve", "frame_00002.curve",
        "frame_index.json"]

    back = storage.read_trajectory(tmp_path)
    assert back.times == [0.0, 0.1, 0.2]
    assert back.stop_reason == "reached-stop-time"
    np.testing.assert_array_equal(back.frames[1].points, traj.frames[1].points)


@pytest.mark.parametrize("times", [[0.1 * k for k in range(11)], [0.0, None, 0.2],
                                   [0.0, "soon", 0.2]],
                         ids=["eleven-times-three-files", "null-time", "text-time"])
def test_trajectory_index_needs_one_number_per_file(tmp_path, times):
    traj = FlowTrajectory()
    for t in (0.0, 0.1, 0.2):
        traj.append(t, circle2(32))
    storage.write_trajectory(tmp_path, traj)
    path = tmp_path / "frame_index.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "times": times}))
    with pytest.raises(ConfigError) as err:
        storage.read_trajectory(tmp_path)
    assert err.value.token == "invalid-input"


def test_writes_are_deterministic(tmp_path):
    curve = circle2(64)
    a = storage.write_curve(tmp_path / "a.curve", curve)
    b = storage.write_curve(tmp_path / "b.curve", curve)
    assert storage.file_sha256(a) == storage.file_sha256(b)
    assert storage.file_sha256(a) == hashlib.sha256(a.read_bytes()).hexdigest()


def test_manifest_appends_sorted_artifact_records(tmp_path):
    paths = [storage.write_curve(tmp_path / name, circle2(16))
             for name in ("z.curve", "a.curve")]
    records = storage.artifact_records(tmp_path, paths)
    assert [r["file"] for r in records] == ["a.curve", "z.curve"]

    manifest = {"command": "csf-evolve", "parameters": {"n": 16},
                "artifacts": records, "wall_clock": 0.5, "version": "0"}
    storage.append_run_manifest(tmp_path, manifest)
    storage.append_run_manifest(tmp_path, manifest)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["command"] == "csf-evolve"


def test_prepare_out_dir(tmp_path):
    target = tmp_path / "run"
    assert storage.prepare_out_dir(target) == target
    # empty directories may be reused without force
    assert storage.prepare_out_dir(target) == target
    (target / "stale.txt").write_text("x")
    with pytest.raises(ConfigError) as err:
        storage.prepare_out_dir(target)
    assert err.value.token == "output-exists"
    assert storage.prepare_out_dir(target, force=True) == target
