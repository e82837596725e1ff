"""Command-line entry points.

Every generator, evolver, and diagnostic is exposed as a subcommand
reading and writing the curve/filament/trajectory/CSV formats from the
storage module.  Each run appends a record (command, parameters,
artifact checksums, wall clock, version) to manifest.jsonl in the
output directory; rerunning into a non-empty directory requires
--force and appends rather than overwrites.  A failed run removes the
output directory if it created it and left it empty.

Exit codes: 0 success, 2 configuration error, 3 runtime error.  Every
error path prints a stable machine-readable token as the last line on
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, csf, csf_solitons, hasimoto, vfe, vfe_solitons
from .errors import ConfigError, CurveFlowError
from .flow import StepOptions, frame_measures
from .geometry import SampledCurve, frenet, resample_arclength, total_length
from .storage import (append_run_manifest, artifact_records, dump_json,
                      prepare_out_dir, read_curve, read_filament, read_trajectory,
                      write_curve, write_filament, write_frenet, write_table,
                      write_trajectory)

CSF_COLUMNS = ("time", "length", "bending", "huisken",
               "distance_ratio", "max_curvature")
VFE_COLUMNS = ("time", "length", "max_curvature", "max_torsion")

# the largest grid, sample or quadrature count a run may ask for, and the
# most samples a sweep holds over all its members, checked before anything
# of that size is allocated: a grid this long takes 32 MiB, and 2**22 is
# 1,024 times the largest count the tests and examples use (4,096)
MAX_COUNT = 2**22


def _check_count(what: str, count: int) -> None:
    if count > MAX_COUNT:
        raise ConfigError("invalid-parameter",
                          f"{what} is {count}, above the largest count {MAX_COUNT}")


def parse_range(text: str):
    """Grid syntax start:end:count -> numpy linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("invalid-range", f"expected start:end:count, got {text!r}")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError("invalid-range", f"bad range {text!r}: {exc}") from exc
    if not 1 <= count <= MAX_COUNT:
        raise ConfigError("invalid-range", f"count must lie in 1..{MAX_COUNT}, got {count}")
    # also catches a NaN or infinite bound
    if not math.isfinite(b - a):
        raise ConfigError("invalid-range", f"range {text!r} needs finite bounds")
    return np.linspace(a, b, count)


def parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("invalid-range", f"bad list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError("invalid-range", f"list {text!r} needs finite values")
    return values


def _table(out: Path, args, stem: str, columns, rows) -> Path:
    name = f"{stem}.csv" if args.format == "csv" else f"{stem}.txt"
    return write_table(out / name, columns, rows, args.format)


def _series_table(out: Path, args, stem: str, series, name: str = "residual") -> Path:
    return _table(out, args, stem, ("time", name),
                  np.column_stack([series.times, series.values]))


def _step_options(args) -> StepOptions:
    dt, cfl = args.dt, args.cfl
    if dt is None and cfl is None:
        cfl = 0.25
    return StepOptions(stop_time=args.stop_time, dt=dt, cfl=cfl,
                       record_every=args.record_every)


def _run_summary(traj) -> dict:
    return {"stop_reason": traj.stop_reason, "steps": traj.steps_taken,
            "final_time": traj.final_time}


def _write_run(out: Path, args, traj, columns, summary: dict, **series) -> list[Path]:
    # a column with no series reads NaN, which the table writes as an empty cell
    measured = {**frame_measures(traj), **series}
    missing = np.full(len(traj.times), np.nan)
    rows = np.column_stack([measured.get(col, missing) for col in columns])
    return [*write_trajectory(out, traj),
            _table(out, args, "diagnostics", columns, rows),
            dump_json(out / "summary.json", summary)]


def _load_input_curve(args) -> SampledCurve:
    _check_count("--n", args.n)
    curve = read_curve(args.input)
    if args.n and curve.n != args.n:
        # fewer samples lengthen the chords, which may pass their bounds
        try:
            curve = resample_arclength(curve, args.n)
        except ValueError as exc:
            raise ConfigError("invalid-parameter", f"--n {args.n}: {exc}") from exc
    return curve


# ---------------------------------------------------------------------------
# csf


def cmd_csf_evolve(args, out: Path) -> list[Path]:
    curve = _load_input_curve(args)
    if args.rescale:
        # checked before the run, so a bad request fails fast and writes nothing
        lambdas = parse_floats(args.lambdas)
        if not curve.closed:
            raise ConfigError("invalid-parameter", "--rescale needs a closed curve")
        if min(lambdas, default=1.0) <= 0.0:
            raise ConfigError("invalid-parameter", "--lambdas must be positive")
    traj = csf.evolve(curve, _step_options(args))
    summary = _run_summary(traj)
    series = {}
    if traj.final.closed:
        x0 = csf.estimate_shrink_point(traj)
        t_sing = csf.estimate_singular_time(traj)
        series["huisken"] = csf.huisken_series(traj, x0, t_sing).values
        series["distance_ratio"] = csf.distance_ratio_series(traj).values
        summary["shrink_point"] = [float(c) for c in x0]
        summary["singular_time_estimate"] = float(t_sing)
    paths = _write_run(out, args, traj, CSF_COLUMNS, summary, **series)
    if args.rescale:
        rows = []
        for rt in csf.parabolic_rescale(traj, x0, t_sing, lambdas):
            rows.append([rt.lam, rt.iso_at_half, rt.centroid_drift,
                         float(rt.drift_flagged), float(rt.skipped)])
            if rt.trajectory is not None:
                paths += write_trajectory(out / f"rescaled_{rt.lam:g}", rt.trajectory)
        paths.append(_table(out, args, "rescaled_report", ("lam", "iso_at_half",
                            "centroid_drift", "drift_flagged", "skipped"), rows))
    return paths


def _soliton_member(A, B, x0, y0, s_range, n):
    profile = csf_solitons.integrate_profile(
        csf_solitons.CsfSolitonSpec(A, B, x0, y0, s_range=s_range, n=n))
    curve = csf_solitons.reconstruct_curve(profile, A, B)
    closure = csf_solitons.detect_closure(A, B, x0, y0)
    record = {"A": A, "B": B, "x0": x0, "y0": y0,
              "class": csf_solitons.classify(A, B),
              "s_range": list(s_range), "escaped": bool(profile.escaped),
              "closed": bool(closure.closed), "p": closure.p, "q": closure.q,
              "profile_steps": list(profile.steps), "closure_steps": closure.steps}
    if np.isfinite(closure.delta_phi):
        record["delta_phi"] = float(closure.delta_phi)
    return record, curve


def cmd_csf_soliton(args, out: Path) -> list[Path]:
    if args.grim_reaper:
        curve = csf_solitons.grim_reaper(args.t, parse_range(args.x))
        return [write_curve(out / "grim_reaper.curve", curve)]

    if args.abresch_langer:
        if args.B is None or args.r_min is None:
            raise ConfigError("invalid-parameter",
                              "--abresch-langer needs --B and --r-min")
        partner = csf_solitons.abresch_langer_partner(args.B, args.r_min)
        return [dump_json(out / "abresch_langer.json",
                          {"B": args.B, "r_min": args.r_min, "r_max": partner})]

    if (args.A is None and not args.A_range) or (args.B is None and not args.B_range):
        raise ConfigError("invalid-parameter",
                          "--A and --B are required unless a range replaces them")
    s_grid = parse_range(args.s)
    s_range, n = (float(s_grid[0]), float(s_grid[-1])), s_grid.size

    if args.A_range or args.B_range or args.x0_range or args.y0_range:
        a_vals = parse_range(args.A_range) if args.A_range else [args.A]
        b_vals = parse_range(args.B_range) if args.B_range else [args.B]
        x_vals = parse_range(args.x0_range) if args.x0_range else [args.x0]
        y_vals = parse_range(args.y0_range) if args.y0_range else [args.y0]
        # every member's curve is held until the sweep writes them
        _check_count("the sweep's member count times its sample count",
                     math.prod(map(len, (a_vals, b_vals, x_vals, y_vals))) * n)
        # every member is computed before any file is written, so a member
        # that raises leaves no partial sweep behind; a member that fails at
        # run time is listed with its error token and no curve
        results = []
        for member in itertools.product(a_vals, b_vals, x_vals, y_vals):
            A, B, x0, y0 = map(float, member)
            try:
                results.append(_soliton_member(A, B, x0, y0, s_range, n))
            except CurveFlowError as exc:
                results.append(({"A": A, "B": B, "x0": x0, "y0": y0,
                                 "error": exc.token}, None))
        paths, atlas = [], []
        for k, (record, curve) in enumerate(results):
            if curve is not None:
                name = f"soliton_{k:04d}.curve"
                paths.append(write_curve(out / name, curve))
                record["file"] = name
            atlas.append(record)
        paths.append(dump_json(out / "atlas.json", atlas))
        return paths

    record, curve = _soliton_member(args.A, args.B, args.x0, args.y0, s_range, n)
    record["file"] = "soliton.curve"
    record["residual_max"] = float(
        csf_solitons.soliton_residual(curve, args.A, args.B).max())
    print(record["class"])
    return [write_curve(out / "soliton.curve", curve),
            dump_json(out / "soliton.json", record)]


# ---------------------------------------------------------------------------
# vfe


def cmd_vfe_evolve(args, out: Path) -> list[Path]:
    curve = _load_input_curve(args)
    traj = vfe.evolve(curve, _step_options(args))
    return _write_run(out, args, traj, VFE_COLUMNS, _run_summary(traj))


def _sign_schedule(x, component) -> list[dict]:
    signs = np.sign(np.diff(component))
    schedule: list[dict] = []
    for j, s in enumerate(signs):
        if s != 0 and (not schedule or schedule[-1]["sign"] != int(s)):
            schedule.append({"from_x": float(x[j]), "sign": int(s)})
    return schedule


def cmd_vfe_soliton(args, out: Path) -> list[Path]:
    grid = parse_range(args.x)
    x_range, n = (float(grid[0]), float(grid[-1])), grid.size
    # each case records the parameters it reads; the planar profile has lam 0
    record: dict = {"case": args.case, "C1": args.C1, "x_range": list(x_range), "n": n}
    if args.case == "transverse-axis":
        record["C2"] = args.C2
        curve = vfe_solitons.transverse_rotation_profile(args.C1, args.C2, x_range, n)
        omega = vfe_solitons.TRANSVERSE_OMEGA
        half_width = 2.0 / (1.0 + args.C1**2) - 2.0 * args.C2
        record["admissible_band"] = {"x_squared_below": half_width}
        record["sign_schedule"] = _sign_schedule(curve.points[:, 0], curve.points[:, 1])
    else:
        if args.z0 is None:
            raise ConfigError("invalid-parameter", "--z0 is required")
        lam = 0.0 if args.case == "planar" else args.lam
        lo, hi = vfe_solitons.z_bounds(lam, args.C1)
        spec = vfe_solitons.VfeRotatingSpec(
            case=args.case, C1=args.C1, lam=lam, sign=args.sign,
            z0=args.z0, x_range=x_range, n=n)
        curve = vfe_solitons.xaxis_rotation_profile(spec)
        omega = vfe_solitons.xaxis_rotation_law(spec)
        record.update(lam=lam, z0=args.z0)
        record["admissible_band"] = {"z_squared_low": lo, "z_squared_high": hi}
        # the planar profile is (x, f(x), 0), the x-axis one (x, y(x), z(x))
        profile = curve.points[:, 1 if args.case == "planar" else 2]
        record["sign_schedule"] = _sign_schedule(curve.points[:, 0], profile)
    record["omega"] = [float(c) for c in omega]
    # a profile stops short of x_range at a vertical tangent or where |q| = 1;
    # x is the first coordinate in every family
    record["x_end"] = float(curve.points[-1, 0])
    record["rotation_residual_max"] = float(
        vfe_solitons.rotation_residual(curve, omega).max())
    record["file"] = "profile.curve"
    return [write_curve(out / "profile.curve", curve),
            dump_json(out / "profile.json", record)]


def cmd_vfe_biot_savart(args, out: Path) -> list[Path]:
    _check_count("--quadrature-n", args.quadrature_n)
    curve = read_curve(args.input)
    eps_values = parse_floats(args.eps)
    if len(set(eps_values)) < 2:
        raise ConfigError("invalid-parameter",
                          "--eps needs at least 2 distinct values to fit the log law")
    outer = args.outer if args.outer is not None else total_length(curve) / 4.0
    speeds = []
    for eps in eps_values:
        opts = vfe.BiotSavartOptions(eps, outer, args.quadrature_n)
        speeds.append(float(np.linalg.norm(
            vfe.biot_savart_velocity(curve, args.index, opts))))
    logs = np.log(1.0 / np.asarray(eps_values))
    speeds_arr = np.asarray(speeds)
    slope, intercept = np.polyfit(logs, speeds_arr, 1)
    fitted = slope * logs + intercept
    ss_res = float(np.sum((speeds_arr - fitted) ** 2))
    ss_tot = float(np.sum((speeds_arr - speeds_arr.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    # equal speeds, as on a straight filament, leave r^2 undefined: null in JSON
    report = {"epsilon": eps_values, "speed": speeds, "outer": float(outer),
              "index": args.index, "slope": float(slope), "intercept": float(intercept),
              "r_squared": r_squared if ss_tot > 0 else None}
    print(f"slope {float(slope):.6g} r_squared {r_squared:.6g}")
    return [dump_json(out / "biot_savart.json", report)]


# ---------------------------------------------------------------------------
# hasimoto


def cmd_hasimoto_transform(args, out: Path) -> list[Path]:
    curve = read_curve(args.input)
    curve = resample_arclength(curve, curve.n)
    fil = hasimoto.hasimoto_transform(frenet(curve), gauge_A=args.gauge_A)
    return [write_filament(out / "filament.json", fil)]


def cmd_hasimoto_evolve(args, out: Path) -> list[Path]:
    fil = dataclasses.replace(read_filament(args.input), periodic=args.periodic)
    evolved = hasimoto.nlcse_evolve(fil, args.dt, args.steps)
    return [write_filament(out / "filament.json", evolved)]


def cmd_hasimoto_reconstruct(args, out: Path) -> list[Path]:
    fil = read_filament(args.input)
    curve, _ = hasimoto.reconstruct_frame(fil)
    return [write_curve(out / "reconstructed.curve", curve)]


def cmd_hasimoto_soliton(args, out: Path) -> list[Path]:
    spec = hasimoto.HasimotoSolitonSpec(args.nu, args.tau0)
    s_grid = parse_range(args.s)
    curve, fr = hasimoto.hasimoto_soliton(spec, args.t, s_grid)
    fil = hasimoto.hasimoto_soliton_filament(spec, args.t, s_grid)
    return [write_curve(out / "soliton.curve", curve),
            write_frenet(out / "soliton_frame.json", fr),
            write_filament(out / "soliton_filament.json", fil)]


def cmd_hasimoto_dilating(args, out: Path) -> list[Path]:
    grid = parse_range(args.x)
    fil = hasimoto.dilating_filament(args.a, args.t, grid)
    # the residual comes first, so a refused check writes nothing
    paths = []
    if args.check_residual:
        delta = 1e-4
        older = hasimoto.dilating_filament(args.a, args.t - delta, grid)
        newer = hasimoto.dilating_filament(args.a, args.t + delta, grid)
        value = float(np.nanmax(hasimoto.nlcse_residual(older, fil, newer)))
        print(f"nlcse_residual_max {value!r}")
        paths.append(dump_json(out / "residual.json",
                               {"a": args.a, "t": args.t, "n": grid.size,
                                "nlcse_residual_max": value}))
    return [write_filament(out / "filament.json", fil), *paths]


# ---------------------------------------------------------------------------
# diagnose


def _check_closed_planar(frames, source: str, why: str) -> None:
    # an open or space curve is the input's fault, not a parameter's
    for frame in frames:
        if not (frame.closed and frame.dimension == 2):
            shape = "a space curve" if frame.closed else "an open curve"
            raise ConfigError("invalid-input", f"{source} holds {shape}, but {why}")


def cmd_diagnose_huisken(args, out: Path) -> list[Path]:
    traj = read_trajectory(args.trajectory)
    if args.t0 is None:
        _check_closed_planar(traj.frames[-1:], f"trajectory {args.trajectory}",
                             "its singular time is estimated from the area a closed "
                             "planar curve encloses: give it with --t0")
    if args.x0 is None:
        x0 = csf.estimate_shrink_point(traj)
    else:
        x0 = np.asarray(parse_floats(args.x0))
        if x0.size != 2:
            raise ConfigError("invalid-parameter", "--x0 needs two values x,y")
    t0 = args.t0 if args.t0 is not None else csf.estimate_singular_time(traj)
    return [_series_table(out, args, "huisken", csf.huisken_series(traj, x0, t0),
                          "huisken")]


def cmd_diagnose_distance_ratio(args, out: Path) -> list[Path]:
    why = "the distance ratio needs a closed planar curve"
    if args.input:
        curve = read_curve(args.input)
        _check_closed_planar([curve], f"input curve {args.input}", why)
        value = csf.distance_ratio(curve)
        print(repr(value))
        return [dump_json(out / "distance_ratio.json", {"distance_ratio": value})]
    traj = read_trajectory(args.trajectory)
    _check_closed_planar(traj.frames, f"trajectory {args.trajectory}", why)
    series = csf.distance_ratio_series(traj)
    return [_series_table(out, args, "distance_ratio", series, "distance_ratio")]


def cmd_diagnose_residuals(args, out: Path) -> list[Path]:
    traj = read_trajectory(args.trajectory)
    # both series are formed before either is written, so a refusal writes nothing
    if args.flow == "csf":
        arclength = csf.arclength_rate_residual(traj)
        curvature = csf.curvature_evolution_residual(traj)
        return [_series_table(out, args, "arclength_residual", arclength),
                _series_table(out, args, "curvature_residual", curvature)]
    res = vfe.frenet_evolution_residuals(traj)
    commutator = vfe.commutator_residual(traj)
    return [_table(out, args, "frenet_residuals",
                   ("time", "res_kappa", "res_tau", "res_normal", "res_binormal"),
                   np.column_stack([res.times, res.res_kappa, res.res_tau,
                                    res.res_normal, res.res_binormal])),
            _series_table(out, args, "commutator_residual", commutator)]


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    # keep the machine-readable token as the last stderr line even for
    # argparse's own failures
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        print("invalid-arguments", file=sys.stderr)
        raise SystemExit(2)


def _add_global_flags(parser):
    # every level defaults to SUPPRESS, so a flag given before the subcommand
    # is not clobbered by the subparser's defaults; build_parser sets the
    # defaults once, on the top parser
    parser.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: out)")
    parser.add_argument("--force", action="store_true", default=argparse.SUPPRESS,
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--format", choices=("csv", "structured-text"),
                        default=argparse.SUPPRESS, help="diagnostics table format")


def _add_evolve_flags(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument("--stop-time", type=float, required=True)
    parser.add_argument("--n", type=int, default=0,
                        help="resample the input to this many points")
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--cfl", type=float, default=None)
    parser.add_argument("--record-every", type=int, default=10)


# every group with its help and its commands, in the order --help lists them
_GROUPS = {
    "csf": ("curve shortening flow", ("evolve", "soliton")),
    "vfe": ("binormal flow", ("evolve", "soliton", "biot-savart")),
    "hasimoto": ("filament transform and NLCSE",
                 ("transform", "evolve", "reconstruct", "soliton", "dilating")),
    "diagnose": ("post-hoc diagnostics", ("huisken", "distance-ratio", "residuals")),
}
_COMMANDS = {(group, name) for group, (_, names) in _GROUPS.items() for name in names}


def _named_command(argv) -> tuple[str, str] | None:
    """The (group, command) pair that opens argv after its global flags.

    Only the exact spellings --out X, --out=X, --format X, --format=X and
    --force are skipped.  Anything else (help, --version, --, an
    abbreviated flag, a flag between the group and the command, an
    unknown name) gives None, and argparse then reads argv against the
    full parser.
    """
    i = 0
    while i < len(argv):
        if argv[i] in ("--out", "--format"):
            i += 2
        elif argv[i] == "--force" or argv[i].startswith(("--out=", "--format=")):
            i += 1
        else:
            break
    pair = tuple(argv[i:i + 2])
    return pair if pair in _COMMANDS else None


def build_parser(only: tuple[str, str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a (group, command) pair, it registers
    that group and command alone, which parse an argv naming them as the
    full parser does."""
    parser = _Parser(prog="curveflow",
                     description="curve shortening and binormal flow laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    _add_global_flags(parser)
    parser.set_defaults(out="out", force=False, format="csv")
    common = _Parser(add_help=False)
    _add_global_flags(common)

    top = parser.add_subparsers(required=True, dest="group",
                                metavar="{%s}" % ",".join(_GROUPS))
    groups = {}

    def command(group, name, handler):
        # None for a command this parser leaves out
        if only not in (None, (group, name)):
            return None
        if group not in groups:
            help_text, names = _GROUPS[group]
            groups[group] = top.add_parser(group, help=help_text).add_subparsers(
                required=True, dest="command", metavar="{%s}" % ",".join(names))
        p = groups[group].add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    if p := command("csf", "evolve", cmd_csf_evolve):
        _add_evolve_flags(p)
        p.add_argument("--rescale", action="store_true")
        p.add_argument("--lambdas", default="2,4,8")
    if p := command("csf", "soliton", cmd_csf_soliton):
        p.add_argument("--A", type=float, default=None)
        p.add_argument("--B", type=float, default=None)
        p.add_argument("--x0", type=float, default=1.0)
        p.add_argument("--y0", type=float, default=0.0)
        p.add_argument("--s", default="-10:10:1024", help="arclength grid start:end:count")
        # any range turns the run into a sweep over the grid of all ranges
        p.add_argument("--A-range", dest="A_range", default=None)
        p.add_argument("--B-range", dest="B_range", default=None)
        p.add_argument("--x0-range", dest="x0_range", default=None)
        p.add_argument("--y0-range", dest="y0_range", default=None)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--grim-reaper", action="store_true")
        mode.add_argument("--abresch-langer", action="store_true")
        p.add_argument("--t", type=float, default=0.0)
        p.add_argument("--x", default="-1.5:1.5:512", help="spatial grid for the grim reaper")
        p.add_argument("--r-min", dest="r_min", type=float, default=None)

    if p := command("vfe", "evolve", cmd_vfe_evolve):
        _add_evolve_flags(p)
    if p := command("vfe", "soliton", cmd_vfe_soliton):
        p.add_argument("--case", required=True,
                       choices=("transverse-axis", "x-axis", "planar"))
        p.add_argument("--C1", type=float, required=True)
        p.add_argument("--C2", type=float, default=0.0)
        p.add_argument("--lam", type=float, default=0.0)
        p.add_argument("--z0", type=float, default=None)
        p.add_argument("--sign", type=int, choices=(-1, 1), default=1)
        p.add_argument("--x", default="0:5:1024", help="profile parameter grid")
    if p := command("vfe", "biot-savart", cmd_vfe_biot_savart):
        p.add_argument("--input", required=True)
        p.add_argument("--eps", default="1e-2,1e-3,1e-4")
        p.add_argument("--outer", type=float, default=None)
        p.add_argument("--index", type=int, default=0)
        p.add_argument("--quadrature-n", dest="quadrature_n", type=int, default=256)

    if p := command("hasimoto", "transform", cmd_hasimoto_transform):
        p.add_argument("--input", required=True)
        p.add_argument("--gauge-A", dest="gauge_A", type=float, default=0.0)
    if p := command("hasimoto", "evolve", cmd_hasimoto_evolve):
        p.add_argument("--input", required=True)
        p.add_argument("--dt", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("--periodic", action="store_true")
    if p := command("hasimoto", "reconstruct", cmd_hasimoto_reconstruct):
        p.add_argument("--input", required=True)
    if p := command("hasimoto", "soliton", cmd_hasimoto_soliton):
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--tau0", type=float, required=True)
        p.add_argument("--t", type=float, default=0.0)
        p.add_argument("--s", default="-20:20:1024")
    if p := command("hasimoto", "dilating", cmd_hasimoto_dilating):
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--x", default="-10:10:4096")
        p.add_argument("--check-residual", action="store_true")

    if p := command("diagnose", "huisken", cmd_diagnose_huisken):
        p.add_argument("--trajectory", required=True, help="trajectory output directory")
        p.add_argument("--x0", default=None, help="kernel center as x,y")
        p.add_argument("--t0", type=float, default=None)
    if p := command("diagnose", "distance-ratio", cmd_diagnose_distance_ratio):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", default=None)
        source.add_argument("--trajectory", default=None)
    if p := command("diagnose", "residuals", cmd_diagnose_residuals):
        p.add_argument("--trajectory", required=True)
        p.add_argument("--flow", choices=("csf", "vfe"), required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_named_command(argv)).parse_args(argv)
    start = time.perf_counter()
    out = Path(args.out)
    created = not out.exists()
    paths = None
    try:
        prepare_out_dir(out, args.force)
        paths = args.handler(args, out)
    except (CurveFlowError, ValueError) as exc:
        # a ValueError is a parameter the library refused
        print(f"error: {exc}", file=sys.stderr)
        print(getattr(exc, "token", "invalid-parameter"), file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, ValueError)) else 3
    finally:
        # a failed run takes back the directory it made, never a file in it
        if created and paths is None:
            with contextlib.suppress(OSError):
                out.rmdir()
    append_run_manifest(out, {
        "command": f"{args.group} {args.command}",
        "parameters": {k: v for k, v in vars(args).items() if k != "handler"},
        "artifacts": artifact_records(out, paths),
        "wall_clock": time.perf_counter() - start,
        "version": __version__})
    return 0


if __name__ == "__main__":
    sys.exit(main())
