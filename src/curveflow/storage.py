"""Reading and writing curve, filament, trajectory, and table files.

Curves and filament functions are JSON, tables are CSV (or fixed-width
text), trajectories are numbered curve files plus a JSON index of their
times.  Floats are written with full repr precision so a
write-then-read round trip stays below 1e-12.  Nothing here stamps
dates or hostnames: a rerun with the same configuration produces
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .flow import FlowTrajectory
from .geometry import FrenetData, SampledCurve
from .hasimoto import FilamentFunction


def dump_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def _load_json(path, kind: str):
    path = Path(path)
    if not path.is_file():
        raise ConfigError("input-not-found", f"no such file: {path}")
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("invalid-input",
                          f"cannot parse {kind} file {path}: {exc}") from exc


def write_curve(path, curve: SampledCurve) -> Path:
    return dump_json(path, {
        "dimension": curve.dimension,
        "closed": curve.closed,
        "label": curve.label,
        "points": curve.points.tolist(),
    })


def read_curve(path) -> SampledCurve:
    payload = _load_json(path, "curve")
    try:
        label = payload.get("label")
        return SampledCurve(int(payload["dimension"]), bool(payload["closed"]),
                            np.asarray(payload["points"], dtype=float),
                            label=None if label is None else str(label))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("invalid-input",
                          f"bad curve file {path}: {exc}") from exc


def write_filament(path, fil: FilamentFunction) -> Path:
    # the periodic flag is a property of a run, not of the samples
    return dump_json(path, {
        "grid_start": float(fil.grid_start),
        "grid_step": float(fil.grid_step),
        "gauge_A": float(fil.gauge_A),
        "time": float(fil.time),
        "values": np.column_stack([fil.values.real, fil.values.imag]).tolist(),
    })


def read_filament(path) -> FilamentFunction:
    payload = _load_json(path, "filament")
    try:
        pair = np.asarray(payload["values"], dtype=float)
        if pair.ndim != 2 or pair.shape[1] != 2:
            raise ValueError("values must be [re, im] pairs")
        return FilamentFunction(float(payload["grid_start"]),
                                float(payload["grid_step"]),
                                pair[:, 0] + 1j * pair[:, 1],
                                gauge_A=float(payload["gauge_A"]),
                                time=float(payload["time"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("invalid-input",
                          f"bad filament file {path}: {exc}") from exc


def write_frenet(path, fr: FrenetData) -> Path:
    payload = {
        "arclength": fr.arclength.tolist(),
        "tangent": fr.tangent.tolist(),
        "normal": fr.normal.tolist(),
        "curvature": fr.curvature.tolist(),
    }
    if fr.binormal is not None:
        payload["binormal"] = fr.binormal.tolist()
    if fr.torsion is not None:
        payload["torsion"] = fr.torsion.tolist()
        payload["torsion_defined"] = fr.torsion_defined.tolist()
    return dump_json(path, payload)


def _cell(value) -> str:
    v = float(value)
    return "" if math.isnan(v) else repr(v)


def write_table(path, columns, rows, output_format: str = "csv") -> Path:
    """Write a table of floats; NaN cells come out empty."""
    path = Path(path)
    cells = [[_cell(v) for v in row] for row in rows]
    if output_format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(cells)
    elif output_format == "structured-text":
        widths = [max([len(col)] + [len(row[j]) for row in cells])
                  for j, col in enumerate(columns)]
        with open(path, "w") as fh:
            fh.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
            for row in cells:
                fh.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    else:
        raise ConfigError("invalid-format", f"unknown output format {output_format!r}")
    return path


def write_trajectory(out_dir, traj: FlowTrajectory) -> list[Path]:
    """Write numbered curve files plus an index of times and file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for k, frame in enumerate(traj.frames):
        name = f"frame_{k:05d}.curve"
        write_curve(out / name, frame)
        files.append(name)
    index = dump_json(out / "frame_index.json", {
        "times": [float(t) for t in traj.times],
        "files": files,
        "stop_reason": traj.stop_reason,
    })
    return [out / name for name in files] + [index]


def read_trajectory(out_dir) -> FlowTrajectory:
    index = _load_json(Path(out_dir) / "frame_index.json", "trajectory index")
    try:
        times, files = [float(t) for t in index["times"]], index["files"]
        reason = str(index.get("stop_reason", ""))
        if len(times) != len(files):
            raise ConfigError("invalid-input", f"bad trajectory index: {len(times)} "
                              f"times for {len(files)} frame files")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("invalid-input", f"bad trajectory index: {exc}") from exc
    traj = FlowTrajectory(stop_reason=reason)
    for t, name in zip(times, files):
        traj.append(t, read_curve(Path(out_dir) / name))
    return traj


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_records(out_dir, paths) -> list[dict]:
    out = Path(out_dir)
    return [{"file": str(Path(p).relative_to(out)), "sha256": file_sha256(p)}
            for p in sorted(Path(p) for p in paths)]


def append_run_manifest(out_dir, manifest: dict) -> Path:
    """Append one CLI run's record to manifest.jsonl.

    The record holds command, parameters, artifacts, wall_clock and version.
    """
    path = Path(out_dir) / "manifest.jsonl"
    with open(path, "a") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    return path


def prepare_out_dir(out_dir, force: bool = False) -> Path:
    out = Path(out_dir)
    if out.exists() and not force and any(out.iterdir()):
        raise ConfigError("output-exists",
                          f"output directory {out} is not empty; pass --force")
    out.mkdir(parents=True, exist_ok=True)
    return out
