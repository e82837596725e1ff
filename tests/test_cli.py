from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipeinc

from conftest import circle2, circle3, ellipse2
import curveflow
from curveflow import __version__, cli, csf, csf_solitons, hasimoto, vfe_solitons
from curveflow.errors import CurveFlowError
from curveflow.flow import FlowTrajectory, StepOptions, frame_measures
from curveflow.geometry import SampledCurve
from curveflow.storage import (file_sha256, read_curve, read_filament, read_trajectory,
                               write_curve, write_filament, write_trajectory)


def run(*argv):
    return cli.main([str(a) for a in argv])


def last_stderr_token(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return err[-1] if err else ""


def manifest_command(out):
    lines = (out / "manifest.jsonl").read_text().splitlines()
    return json.loads(lines[-1])["command"]


@pytest.fixture
def circle_file(tmp_path):
    from curveflow.storage import write_curve
    return write_curve(tmp_path / "circle.curve", circle2(256))


@pytest.fixture
def circle3_file(tmp_path):
    from curveflow.storage import write_curve
    return write_curve(tmp_path / "circle3.curve", circle3(256))


def _fresh_run(script) -> list[str]:
    """The stdout lines of a script run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(curveflow.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def _scipy_loaded_by(argv) -> list[str]:
    """The scipy subpackages loaded before and after a CLI run in a fresh
    interpreter; this process has scipy loaded already."""
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.linalg",
             "scipy.sparse", "scipy.special"]
    script = f"""if True:
        import sys
        import curveflow, curveflow.cli
        print([m for m in {heavy!r} if m in sys.modules])
        assert curveflow.cli.main({[str(a) for a in argv]!r}) == 0
        print([m for m in {heavy!r} if m in sys.modules])
    """
    return _fresh_run(script)


def test_a_run_loads_only_the_scipy_modules_its_command_calls(tmp_path):
    argv = ["hasimoto", "dilating", "--a", "0.5", "--t", "1", "--out", tmp_path / "o"]
    assert _scipy_loaded_by(argv) == ["[]", "[]"]


@pytest.mark.parametrize("argv, loaded", [
    (["--A=0.3", "--B=-0.6", "--x0=0.9", "--y0=0.1", "--s=-5:5:256"], "[]"),
    (["--A-range=0:0.4:2", "--B=-1", "--s=-5:5:64"], "[]"),
    (["--abresch-langer", "--B=-1", "--r-min=0.5"],
     "['scipy.optimize', 'scipy.spatial', 'scipy.linalg', 'scipy.sparse', 'scipy.special']"),
], ids=["one-member", "sweep", "abresch-langer"])
def test_a_planar_soliton_run_loads_no_ode_solver(tmp_path, argv, loaded):
    # the profiles and their closures are Taylor steps on Python floats;
    # only the Abresch-Langer partner radius takes a root from scipy.optimize,
    # which loads the other three itself.  A single member prints its class
    lines = _scipy_loaded_by(["csf", "soliton", *argv, "--out", tmp_path / "o"])
    assert (lines[0], lines[-1]) == ("[]", loaded)


@pytest.mark.parametrize("case", ["x-axis", "planar"])
def test_a_rotating_profile_run_loads_no_ode_solver(tmp_path, case):
    # the band profile is in closed form: elliptic integrals, no scipy.integrate
    argv = ["vfe", "soliton", "--case", case, "--C1", "0.25", "--z0", "0.35",
            "--x=0:4:64", "--out", tmp_path / "o"]
    assert _scipy_loaded_by(argv) == ["[]", "['scipy.special']"]


def test_the_filament_modules_and_a_periodic_nls_run_load_no_scipy():
    # only the clamped Crank-Nicolson step binds LAPACK, inside the call
    script = """if True:
        import sys
        import numpy as np
        import curveflow.hasimoto, curveflow.vfe
        print([m for m in sys.modules if m.split(".")[0] == "scipy"])
        psi = curveflow.hasimoto.FilamentFunction(0.0, 0.1, np.ones(64, complex),
                                                  periodic=True)
        curveflow.hasimoto.nlcse_evolve(psi, 1e-3, 3)
        print([m for m in sys.modules if m.split(".")[0] == "scipy"])
    """
    assert _fresh_run(script) == ["[]", "[]"]


def test_importing_a_module_loads_only_what_it_imports():
    # the package re-exports nothing, so the errors module loads no numpy
    script = """if True:
        import sys
        import curveflow.errors
        print(sorted(m for m in sys.modules if m.split(".")[0] == "curveflow"))
        print("numpy" in sys.modules)
    """
    assert _fresh_run(script) == ["['curveflow', 'curveflow.errors']", "False"]


def test_every_module_uses_the_names_it_imports():
    for path in Path(curveflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    assert last_stderr_token(capsys) == "invalid-arguments"


@pytest.mark.parametrize("argv", [(), ("csf",)], ids=["no-group", "no-command"])
def test_the_module_entry_point_refuses_a_missing_command(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(curveflow.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "curveflow.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines()[-1] == "invalid-arguments"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run("csf", "evolve", "--frobnicate")
    assert exc.value.code == 2
    assert last_stderr_token(capsys) == "invalid-arguments"


# ---------------------------------------------------------------------------
# a run builds only the command argv names; argparse reads every argv as the
# full parser does

COMMANDS = [("csf", "evolve"), ("csf", "soliton"),
            ("vfe", "evolve"), ("vfe", "soliton"), ("vfe", "biot-savart"),
            ("hasimoto", "transform"), ("hasimoto", "evolve"), ("hasimoto", "reconstruct"),
            ("hasimoto", "soliton"), ("hasimoto", "dilating"),
            ("diagnose", "huisken"), ("diagnose", "distance-ratio"), ("diagnose", "residuals")]


def _parse(argv, full: bool):
    """Exit code, stdout, stderr and namespace of parsing argv with the
    parser a run builds, or with the full parser."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    parser = cli.build_parser(None if full else cli._named_command(argv))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    if namespace is not None:
        # a NaN is unequal to itself, so each parse's NaN would differ
        namespace = {key: "<nan>" if isinstance(value, float) and np.isnan(value) else value
                     for key, value in vars(namespace).items()}
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("argv", [["--help"], *([group, "--help"] for group in
                                                 dict(COMMANDS)),
                                  *([*pair, "--help"] for pair in COMMANDS)], ids=" ".join)
def test_help_matches_the_full_parser(argv):
    got = _parse(argv, full=False)
    assert got == _parse(argv, full=True)
    assert got[0] == 0 and got[1].startswith("usage: curveflow")


def test_a_run_builds_only_the_command_it_names(tmp_path, circle_file, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or build(only))
    assert run("--out", tmp_path / "o", "--force", "csf", "evolve", "--input", circle_file,
               "--stop-time", "0.01") == 0
    # an abbreviated global flag leaves the reading to argparse
    with pytest.raises(SystemExit):
        run("--ou", tmp_path / "p", "csf", "evolve", "--help")
    assert built == [("csf", "evolve"), None]


# the global flags a run skips when it reads the command from argv, and the
# words that make it leave the reading to argparse: abbreviations, a flag
# missing its value, help, the version and the end of options
EXACT_GLOBALS = (["--out", "o"], ["--out=o"], ["--format", "csv"],
                 ["--format=structured-text"], ["--format", "tsv"], ["--force"])
OTHER_GLOBALS = (["--force=1"], ["--ou", "o"], ["--form", "csv"], ["--fo"], ["--out"],
                 ["--"], ["-h"], ["--version"])
# a complete argv tail for each command
COMPLETE_TAILS = {
    ("csf", "evolve"): ["--input", "c", "--stop-time", "1"],
    ("csf", "soliton"): ["--A", "0.5", "--B", "2"],
    ("vfe", "evolve"): ["--input", "c", "--stop-time", "1"],
    ("vfe", "soliton"): ["--case", "planar", "--C1", "0.25"],
    ("vfe", "biot-savart"): ["--input", "c"],
    ("hasimoto", "transform"): ["--input", "c"],
    ("hasimoto", "evolve"): ["--input", "f", "--dt", "0.1", "--steps", "2"],
    ("hasimoto", "reconstruct"): ["--input", "f"],
    ("hasimoto", "soliton"): ["--nu", "1", "--tau0", "0.5"],
    ("hasimoto", "dilating"): ["--a", "1", "--t", "1"],
    ("diagnose", "huisken"): ["--trajectory", "t"],
    ("diagnose", "distance-ratio"): ["--input", "c"],
    ("diagnose", "residuals"): ["--trajectory", "t", "--flow", "csf"],
}
# every command's flags, abbreviations and one no command has
COMMAND_FLAGS = sorted({flag for tail in COMPLETE_TAILS.values() for flag in tail
                        if flag.startswith("--")} | {
    "--n", "--dt", "--cfl", "--record-every", "--rescale", "--lambdas", "--x0", "--y0",
    "--s", "--A-range", "--B-range", "--x0-range", "--y0-range", "--grim-reaper",
    "--abresch-langer", "--t", "--x", "--r-min", "--C2", "--lam", "--z0", "--sign",
    "--eps", "--outer", "--index", "--quadrature-n", "--gauge-A", "--periodic",
    "--check-residual", "--t0", "--out", "--format", "--force", "--inp", "--stop",
    "--frobnicate", "-h", "--help"})
VALUES = ("1", "-1", "0.5", "nan", "1e999", "x", "0:1:16", "1,2", "csv", "vfe", "planar",
          "x-axis", "evolve", "--", "")


@st.composite
def cli_argv(draw):
    """Exactly spelled global flags, a group and its command; two thirds of
    them with one word that leaves the reading to argparse: another global flag,
    a wrong group or command name, or a flag between the group and the
    command.  Then the command's complete flags (two thirds) or none, and
    drawn flags with good and bad values."""
    words = draw(st.lists(st.sampled_from(EXACT_GLOBALS), max_size=2))
    pair = draw(st.sampled_from(COMMANDS))
    group, between, command = [pair[0]], [], [pair[1]]
    wrong = draw(st.sampled_from((None, None, "global", "group", "command", "between")))
    if wrong == "global":
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(OTHER_GLOBALS)))
    elif wrong == "group":
        group = [draw(st.sampled_from(("csv", "evolve", "CSF", "", "-h")))]
    elif wrong == "command":
        command = [draw(st.sampled_from(("evolv", "help", "csf", "", "-h")))]
    elif wrong == "between":
        between = draw(st.sampled_from((["--out", "o"], ["--force"], ["--help"])))
    argv = [word for flag in words for word in flag] + group + between + command
    if draw(st.sampled_from((True, True, False))):
        argv += COMPLETE_TAILS[pair]
    extra = st.lists(st.tuples(st.sampled_from(COMMAND_FLAGS), st.sampled_from(VALUES)),
                     max_size=2)
    for flag, value in draw(st.one_of(st.just([]), extra)):
        argv += draw(st.sampled_from(([flag, value], [f"{flag}={value}"], [flag])))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example(["csf", "evolve", "--input", "c", "--stop-time", "1", "--s", "nan"])
def test_a_run_parses_as_the_full_parser_does(argv):
    assert _parse(argv, full=False) == _parse(argv, full=True)


def test_csf_evolve_writes_the_full_artifact_set(tmp_path, circle_file):
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.05",
               "--n", "128", "--out", out) == 0
    index = json.loads((out / "frame_index.json").read_text())
    assert index["stop_reason"] == "stop-time"
    assert (out / index["files"][0]).is_file()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",") == ["time", "length", "bending", "huisken",
                                 "distance_ratio", "max_curvature"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_time"] == pytest.approx(0.05, abs=1e-3)
    assert "singular_time_estimate" in summary
    manifest = [json.loads(line)
                for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert manifest[0]["command"] == "csf evolve"
    assert manifest[0]["version"] == __version__
    names = {rec["file"] for rec in manifest[0]["artifacts"]}
    assert "summary.json" in names and "diagnostics.csv" in names


def test_reruns_are_deterministic(tmp_path, circle_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.02",
                   "--n", "128", "--out", out) == 0
        outs.append(out)
    first, second = (json.loads((o / "manifest.jsonl").read_text())["artifacts"]
                     for o in outs)
    assert first == second
    assert file_sha256(outs[0] / "diagnostics.csv") == file_sha256(outs[1] / "diagnostics.csv")


def test_output_dir_collision_needs_force(tmp_path, circle_file, capsys):
    out = tmp_path / "run"
    args = ("csf", "evolve", "--input", circle_file, "--stop-time", "0.01",
            "--n", "128", "--out", out)
    assert run(*args) == 0
    assert run(*args) == 2
    assert last_stderr_token(capsys) == "output-exists"
    assert run(*args, "--force") == 0
    # manifests append across reruns
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 2


def test_missing_input_exits_two(tmp_path, capsys):
    assert run("csf", "evolve", "--input", tmp_path / "nope.curve",
               "--stop-time", "0.1", "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "input-not-found"


def test_non_finite_stop_time_exits_two(tmp_path, circle_file, capsys):
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "nan",
               "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


def test_runtime_failure_exits_three(tmp_path, capsys):
    assert run("hasimoto", "dilating", "--a", "1.0", "--t", "0",
               "--out", tmp_path / "o") == 3
    assert last_stderr_token(capsys) == "at-singularity"


def test_step_above_the_stability_bound_exits_two(tmp_path, capsys):
    cases = [("csf", circle2(64), ("--dt", "1.0")),
             ("vfe", circle3(48), ("--cfl", "0.9"))]
    for flow, curve, step in cases:
        path = write_curve(tmp_path / f"{flow}.curve", curve)
        out = tmp_path / f"{flow}_out"
        assert run(flow, "evolve", "--input", path, "--stop-time", "3",
                   *step, "--out", out) == 2
        assert last_stderr_token(capsys) == "cfl-violation"
        assert not out.exists()


@pytest.mark.parametrize("flow, curve, scale", [("csf", circle2(32), 1e-160),
                                                ("vfe", circle3(16), 1e155),
                                                ("vfe", circle3(16), 1e-160)],
                         ids=["csf-1e-160", "vfe-1e155", "vfe-1e-160"])
def test_chord_squares_outside_the_normal_doubles_exit_two(tmp_path, capsys, flow, curve,
                                                           scale):
    # a square past the largest double overflowed (a traceback, or an inf length
    # after one step of dt = stop-time), and a subnormal one stopped the run at
    # t = 0 with an infinite curvature
    path = tmp_path / "in.curve"
    path.write_text(json.dumps({"dimension": curve.dimension, "closed": True,
                                "points": (scale * curve.points).tolist()}))
    out = tmp_path / "o"
    assert run(flow, "evolve", "--input", path, "--cfl", "0.5", "--stop-time", "1",
               "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-input"
    assert not out.exists()


def test_a_run_whose_chords_shrink_past_the_chord_bound_stops(tmp_path, capsys):
    # the ellipse's chords pass below 2^-511 before the singularity guard
    # fires; the frame record then refused them, blaming the input file
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    path = tmp_path / "in.curve"
    path.write_text(json.dumps({"dimension": 2, "closed": True, "points": (
        2.0**-500 * np.column_stack([2.0 * np.cos(t), np.sin(t)])).tolist()}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("csf", "evolve", "--input", path, "--stop-time", repr(2.0**-999),
                   "--out", out)
    assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "approaching-singularity"
    assert 0.99 < summary["final_time"] / summary["singular_time_estimate"] <= 1.0


def test_a_resampling_whose_chords_overflow_names_n(tmp_path, capsys):
    # the 64-gon is valid; its 32-sample resampling has chord squares past the
    # largest double, which the refusal blamed on the file
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    path = tmp_path / "in.curve"
    path.write_text(json.dumps({"dimension": 2, "closed": True, "points": (
        1e155 * np.column_stack([np.cos(t), np.sin(t)])).tolist()}))
    out = tmp_path / "o"
    assert run("csf", "evolve", "--input", path, "--n", "32", "--stop-time", "1e300",
               "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "invalid-parameter"
    assert "--n 32" in err[-2]
    assert not out.exists()


def test_an_area_past_the_largest_double_is_refused_naming_the_area(tmp_path, capsys):
    # the 64-gon of radius 1e154 runs; its area pi * 1e308 reads inf, so the
    # area law gives no singular time, which the refusal blamed on x0 and t0
    t = np.arange(64) * np.pi / 32
    polygon = SampledCurve(2, True, 1e154 * np.column_stack([np.cos(t), np.sin(t)]))
    path = write_curve(tmp_path / "in.curve", polygon)
    traj = tmp_path / "traj"
    write_trajectory(traj, csf.evolve(polygon, StepOptions(stop_time=1e300, cfl=0.25)))
    for argv in (("csf", "evolve", "--input", path, "--stop-time", "1e300"),
                 ("diagnose", "huisken", "--trajectory", traj)):
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "invalid-input"
        assert "enclosed area" in err[-2]
        assert not out.exists()


def test_frames_of_an_unlabeled_input_keep_a_null_label(tmp_path):
    path = write_curve(tmp_path / "in.curve", SampledCurve(2, True, circle2(64).points))
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", path, "--stop-time", "0.01",
               "--out", out) == 0
    index = json.loads((out / "frame_index.json").read_text())
    for name in (index["files"][0], index["files"][-1]):
        assert json.loads((out / name).read_text())["label"] is None


def test_bad_range_exits_two(tmp_path, capsys):
    assert run("csf", "soliton", "--grim-reaper", "--x", "0:1",
               "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-range"


@pytest.mark.parametrize("argv, token", [
    (("hasimoto", "soliton", "--nu", "1", "--tau0", "0.5", "--s=0:1:0"), "invalid-range"),
    (("csf", "evolve", "--input", "{circle}", "--stop-time", "0.01", "--rescale",
      "--lambdas", "4,x"), "invalid-range"),
    (("csf", "evolve", "--input", "{arc}", "--stop-time", "0.01", "--rescale"),
     "invalid-parameter"),
    (("vfe", "soliton", "--case", "x-axis", "--C1", "0.5"), "invalid-parameter"),
    # counts past the ceiling, refused before anything of their size is
    # allocated, and --n and --quadrature-n before the input is read
    (("hasimoto", "soliton", "--nu", "1", "--tau0", "0.5", "--s=0:1:1000000000000000"),
     "invalid-range"),
    (("hasimoto", "dilating", "--a", "1", "--t", "1", f"--x=0:1:{cli.MAX_COUNT + 1}"),
     "invalid-range"),
    (("csf", "soliton", "--A-range", "0:1:4096", "--B-range", "0:1:1025"),
     "invalid-parameter"),
    (("csf", "evolve", "--input", "{missing}", "--stop-time", "1",
      f"--n={cli.MAX_COUNT + 1}"), "invalid-parameter"),
    (("vfe", "biot-savart", "--input", "{missing}", f"--quadrature-n={cli.MAX_COUNT + 1}"),
     "invalid-parameter"),
    # measures of closed plane curves, asked of an open or a space curve
    (("diagnose", "huisken", "--trajectory", "{arc_run}"), "invalid-input"),
    (("diagnose", "distance-ratio", "--trajectory", "{arc_run}"), "invalid-input"),
    (("diagnose", "distance-ratio", "--input", "{arc}"), "invalid-input"),
    (("diagnose", "distance-ratio", "--input", "{ring3}"), "invalid-input"),
], ids=["zero-count", "bad-lambda", "rescale-open-curve", "x-axis-without-z0",
        "huge-count", "count-past-the-ceiling", "sweep-past-the-ceiling",
        "n-past-the-ceiling", "quadrature-n-past-the-ceiling",
        "huisken-of-an-open-trajectory", "distance-ratio-of-an-open-trajectory",
        "distance-ratio-of-an-open-curve", "distance-ratio-of-a-space-curve"])
def test_refusals_exit_two_and_write_nothing(tmp_path, capsys, argv, token):
    arc = SampledCurve(2, False, circle2(64).points[:40])
    files = {"circle": write_curve(tmp_path / "circle.curve", circle2(64)),
             "arc": write_curve(tmp_path / "arc.curve", arc),
             "ring3": write_curve(tmp_path / "ring3.curve", circle3(64)),
             "arc_run": tmp_path / "arc_run",
             "missing": tmp_path / "missing.curve"}
    write_trajectory(files["arc_run"], FlowTrajectory([0.0, 0.01], [arc, arc]))
    out = tmp_path / "o"
    assert run(*(a.format(**files) for a in argv), "--out", out) == 2
    assert last_stderr_token(capsys) == token
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("csf", "soliton", "--A", "0", "--B", "-1", "--s=nan:1:64"),
    ("csf", "soliton", "--grim-reaper", "--x=-inf:1:64"),
    ("csf", "soliton", "--grim-reaper", "--x=0:inf:3"),
    ("hasimoto", "soliton", "--nu", "1", "--tau0", "0.5", "--s=0:nan:33"),
    ("hasimoto", "soliton", "--nu", "1", "--tau0", "0.5", "--s=-1e308:1e308:33"),
], ids=["nan-start", "minus-inf-start", "inf-end", "nan-end", "overflowing-span"])
def test_non_finite_range_exits_two(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-range"


def test_non_finite_inputs_exit_two(tmp_path, circle_file, capsys):
    traj = tmp_path / "traj"
    evolve = ("csf", "evolve", "--input", circle_file, "--stop-time", "0.01", "--n", "64")
    assert run(*evolve, "--out", traj) == 0
    cases = [(("diagnose", "huisken", "--trajectory", traj, "--t0", "nan"),
              "invalid-parameter"),
             (("diagnose", "huisken", "--trajectory", traj, "--x0", "nan,0"),
              "invalid-range"),
             ((*evolve, "--rescale", "--lambdas", "nan"), "invalid-range")]
    for k, (argv, token) in enumerate(cases):
        assert run(*argv, "--out", tmp_path / f"o{k}") == 2
        assert last_stderr_token(capsys) == token
        assert not (tmp_path / f"o{k}").exists()


def test_csf_soliton_non_finite_parameter_exits_two(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrated a non-finite profile")

    monkeypatch.setattr(csf_solitons, "_taylor_steps", fail)
    for a in ("nan", "inf"):
        assert run("csf", "soliton", "--A", a, "--B=-1", "--out", tmp_path / a) == 2
        assert last_stderr_token(capsys) == "invalid-parameter"


def test_failed_run_leaves_no_empty_directory(tmp_path, capsys):
    bad = ("csf", "soliton", "--A", "0", "--B", "-1", "--s=nan:1:64")
    assert run(*bad, "--out", tmp_path / "new") == 2
    assert not (tmp_path / "new").exists()
    # a directory that was there before the run stays, and so do its files
    (tmp_path / "empty").mkdir()
    assert run(*bad, "--out", tmp_path / "empty") == 2
    assert (tmp_path / "empty").is_dir()
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "keep.txt").write_text("x")
    assert run(*bad, "--out", tmp_path / "full", "--force") == 2
    assert (tmp_path / "full" / "keep.txt").read_text() == "x"


def _csv_columns(path) -> dict:
    header, *rows = path.read_text().splitlines()
    cells = np.array([row.split(",") for row in rows])
    return {col: np.array([float(c) if c else np.nan for c in cells[:, j]])
            for j, col in enumerate(header.split(","))}


def test_diagnostics_table_matches_frame_measures(tmp_path, circle_file):
    out = tmp_path / "closed"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.02",
               "--n", "128", "--out", out) == 0
    table = _csv_columns(out / "diagnostics.csv")
    assert list(table) == list(cli.CSF_COLUMNS)
    traj = read_trajectory(out)
    summary = json.loads((out / "summary.json").read_text())
    want = {**frame_measures(traj),
            "huisken": csf.huisken_series(traj, np.array(summary["shrink_point"]),
                                          summary["singular_time_estimate"]).values,
            "distance_ratio": csf.distance_ratio_series(traj).values}
    for col in cli.CSF_COLUMNS:
        assert np.array_equal(table[col], want[col]), col

    # an open curve has no Huisken or distance-ratio series: empty cells
    xs = np.linspace(-1.0, 1.0, 48)
    parabola = write_curve(tmp_path / "parabola.curve",
                           SampledCurve(2, False, np.column_stack([xs, xs**2])))
    out = tmp_path / "open"
    assert run("csf", "evolve", "--input", parabola, "--stop-time", "0.005",
               "--out", out) == 0
    table = _csv_columns(out / "diagnostics.csv")
    assert np.isnan(table["huisken"]).all() and np.isnan(table["distance_ratio"]).all()
    measured = frame_measures(read_trajectory(out))
    assert np.array_equal(table["bending"], measured["bending"])


def test_residuals_reject_the_other_flows_trajectory(tmp_path, circle_file,
                                                     circle3_file, capsys):
    # ten steps recorded every second one: enough frames for every residual
    for flow_name, curve_file in (("csf", circle_file), ("vfe", circle3_file)):
        assert run(flow_name, "evolve", "--input", curve_file, "--stop-time", "1e-3",
                   "--dt", "1e-4", "--n", "64", "--record-every", "2",
                   "--out", tmp_path / flow_name) == 0
    capsys.readouterr()
    for flow_name, other, dimension in (("vfe", "csf", 3), ("csf", "vfe", 2)):
        out = tmp_path / f"{flow_name}-on-{other}"
        assert run("diagnose", "residuals", "--trajectory", tmp_path / other,
                   "--flow", flow_name, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"need frames in R^{dimension}" in err
        assert err.strip().splitlines()[-1] == "invalid-parameter"
        assert not out.exists()


RING = np.arange(64) * np.pi / 32


@pytest.mark.parametrize("flow, curve, record_every, stop_time", [
    ("csf", SampledCurve(2, True, 1e-150 * ellipse2(n=64).points), "20", "1e-301"),
    ("vfe", SampledCurve(3, True, 1e-150 * np.column_stack(
        [np.cos(RING), np.sin(RING), 0.2 * np.sin(3.0 * RING)])), "1", "1e-302"),
], ids=["csf", "vfe"])
def test_a_residual_past_the_largest_double_is_refused(tmp_path, capsys, flow, curve,
                                                       record_every, stop_time):
    # on a curve of scale 1e-150 kappa is about 1e150: kappa^3, kappa_t and
    # the curvature's arclength derivatives pass the largest double, which
    # wrote an empty cell in every row, after numpy warnings
    path = write_curve(tmp_path / "in.curve", curve)
    traj, out = tmp_path / "traj", tmp_path / "o"
    assert run(flow, "evolve", "--input", path, "--stop-time", stop_time,
               "--record-every", record_every, "--out", traj) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("diagnose", "residuals", "--trajectory", traj, "--flow", flow,
                   "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "invalid-input"
    assert "residual" in err[-2]
    assert not out.exists()


def test_residuals_reject_a_repeated_frame_time(tmp_path, circle_file, capsys):
    traj = tmp_path / "traj"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "1e-3",
               "--dt", "1e-4", "--n", "64", "--record-every", "2", "--out", traj) == 0
    index_path = traj / "frame_index.json"
    index = json.loads(index_path.read_text())
    index["times"][2] = index["times"][1]
    index_path.write_text(json.dumps(index))
    out = tmp_path / "r"
    assert run("diagnose", "residuals", "--trajectory", traj, "--flow", "csf",
               "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-input"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("csf", "soliton", "--abresch-langer", "--B=nan", "--r-min", "0.5"),
    ("csf", "soliton", "--abresch-langer", "--B=-1", "--r-min", "nan"),
    ("vfe", "soliton", "--case", "x-axis", "--C1", "nan", "--z0", "0.3"),
    ("vfe", "soliton", "--case", "x-axis", "--C1", "0.25", "--lam", "nan", "--z0", "0.3"),
    ("vfe", "soliton", "--case", "planar", "--C1", "0.25", "--z0", "nan"),
], ids=["al-B", "al-r-min", "x-axis-C1", "x-axis-lam", "planar-z0"])
def test_non_finite_soliton_parameters_exit_two(tmp_path, capsys, argv):
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


def test_csf_evolve_rescale_report(tmp_path):
    path = write_curve(tmp_path / "gon.curve", circle2(64))
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", path, "--stop-time", "1", "--rescale",
               "--lambdas", "0.5,4", "--out", out) == 0
    report = _csv_columns(out / "rescaled_report.csv")
    np.testing.assert_array_equal(report["lam"], [0.5, 4.0])
    # lam = 0.5 maps the run into rescaled times above -1/2 and is skipped
    np.testing.assert_array_equal(report["skipped"], [1.0, 0.0])
    assert np.isnan(report["iso_at_half"][0]) and report["iso_at_half"][1] < 1.05
    np.testing.assert_array_equal(report["drift_flagged"], [0.0, 0.0])
    assert not (out / "rescaled_0.5").exists()
    rescaled = read_trajectory(out / "rescaled_4")
    assert len(rescaled.frames) > 0
    assert -4.0 <= min(rescaled.times) and max(rescaled.times) < 0.0


@pytest.fixture
def ellipse_file(tmp_path):
    return write_curve(tmp_path / "ellipse.curve", ellipse2(1.0, 0.5, 256))


def test_csf_evolve_skips_a_rescaling_whose_square_overflows(tmp_path, ellipse_file):
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", ellipse_file, "--stop-time=0.01", "--rescale",
               "--lambdas=1e300,4", "--out", out) == 0
    report = _csv_columns(out / "rescaled_report.csv")
    np.testing.assert_array_equal(report["lam"], [1e300, 4.0])
    assert report["skipped"][0] == 1.0


def test_csf_evolve_refuses_a_rescaling_that_is_not_positive(tmp_path, capsys, ellipse_file):
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", ellipse_file, "--stop-time=0.01", "--rescale",
               "--lambdas=-4,0", "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not out.exists()


def test_distance_ratio_of_a_trajectory_matches_the_run(tmp_path, circle_file):
    traj = tmp_path / "traj"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.02",
               "--n", "128", "--record-every", "2", "--out", traj) == 0
    out = tmp_path / "d"
    assert run("diagnose", "distance-ratio", "--trajectory", traj, "--out", out) == 0
    series = _csv_columns(out / "distance_ratio.csv")
    diagnostics = _csv_columns(traj / "diagnostics.csv")
    assert len(series["time"]) > 2
    np.testing.assert_array_equal(series["time"], diagnostics["time"])
    np.testing.assert_array_equal(series["distance_ratio"], diagnostics["distance_ratio"])


def test_an_open_trajectory_is_named_in_the_refusal(tmp_path, capsys):
    arc = write_curve(tmp_path / "arc.curve", SampledCurve(2, False, circle2(64).points[:32]))
    traj = tmp_path / "traj"
    assert run("csf", "evolve", "--input", arc, "--stop-time", "0.01", "--record-every", "1",
               "--out", traj) == 0
    capsys.readouterr()
    for command, named in (("huisken", "--t0"), ("distance-ratio", "closed planar")):
        assert run("diagnose", command, "--trajectory", traj, "--out", tmp_path / "x") == 2
        *lines, token = capsys.readouterr().err.strip().splitlines()
        assert token == "invalid-input"
        assert f"trajectory {traj} holds an open curve" in lines[-1] and named in lines[-1]
    # with the singular time given, nothing needs an enclosed area
    out = tmp_path / "h"
    assert run("diagnose", "huisken", "--trajectory", traj, "--t0", "0.5", "--out", out) == 0
    values = _csv_columns(out / "huisken.csv")["huisken"]
    assert len(values) == len(read_trajectory(traj).frames) and np.isfinite(values).all()


def test_structured_text_format(tmp_path, circle_file):
    out = tmp_path / "run"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.01",
               "--n", "128", "--format", "structured-text", "--out", out) == 0
    lines = (out / "diagnostics.txt").read_text().splitlines()
    assert lines[0].split()[:2] == ["time", "length"]
    assert not (out / "diagnostics.csv").exists()


def test_csf_soliton_single_member(tmp_path, capsys):
    out = tmp_path / "sol"
    assert run("csf", "soliton", "--A", "0.0", "--B", "-1.0",
               "--x0", "1.0", "--y0", "0.0", "--s=-6:6:512", "--out", out) == 0
    assert capsys.readouterr().out.strip() == "shrinking"
    record = json.loads((out / "soliton.json").read_text())
    assert record["class"] == "shrinking"
    assert record["residual_max"] < 1e-3
    assert read_curve(out / "soliton.curve").n == 512


def test_csf_soliton_reports_the_unit_circle_closed(tmp_path):
    # the default start x0 = 1, y0 = 0 is the fixed point of A = 0, B = -1
    out = tmp_path / "sol"
    assert run("csf", "soliton", "--A=0", "--B=-1", "--out", out) == 0
    record = json.loads((out / "soliton.json").read_text())
    assert (record["closed"], record["p"], record["q"]) == (True, 1, 1)
    assert record["delta_phi"] == 2.0 * np.pi


def test_csf_soliton_single_member_keeps_the_library_message(tmp_path, capsys):
    assert run("csf", "soliton", "--A=0", "--B=0", "--s=-6:6:256",
               "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: (A, B) = (0, 0) has no reconstruction", "degenerate-family"]
    # a sweep lists the same member with its token and no curve
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--B=0", "--A-range", "0:1:2",
               "--s=-6:6:256", "--out", out) == 0
    atlas = json.loads((out / "atlas.json").read_text())
    assert atlas[0] == {"A": 0.0, "B": 0.0, "x0": 1.0, "y0": 0.0,
                        "error": "degenerate-family"}
    assert atlas[1]["file"] == "soliton_0001.curve"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("B", [5e-324, 1e-160], ids=["subnormal", "tiny"])
def test_csf_soliton_refuses_a_reconstruction_doubles_cannot_hold(tmp_path, capsys, B):
    # 1/(A - iB) overflows in numpy's complex division at a subnormal A - iB;
    # at 1e-160 the curve lies near |X| = 1e160 with samples 0.05 apart
    assert run("csf", "soliton", "--A=0", f"--B={B!r}", "--x0=1.5", "--y0=0.1",
               "--s=0:2:32", "--out", tmp_path / "o") == 3
    assert last_stderr_token(capsys) == "degenerate-family"
    # a sweep lists the member with its token and goes on to the next
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--A=0", f"--B-range={B!r}:1:2", "--x0=1.5", "--y0=0.1",
               "--s=0:2:32", "--out", out) == 0
    atlas = json.loads((out / "atlas.json").read_text())
    assert atlas[0] == {"A": 0.0, "B": B, "x0": 1.5, "y0": 0.1, "error": "degenerate-family"}
    assert atlas[1]["file"] == "soliton_0001.curve"


# the first Taylor coefficients pass the largest double at s = 0, or the
# start lies past the escape limit, so the solve fails before it starts; none
# warns, since the steps run on Python floats
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--A=1e308", "--B=3"], ["--A=0.5", "--B=1e308"],
                                   ["--A=0.5", "--B=0.5", "--x0=1e308"],
                                   ["--A=1e306", "--B=-0.5", "--x0=0.9", "--y0=0.1"]],
                         ids=["huge-A", "huge-B", "huge-x0", "nan-in-the-event-search"])
def test_csf_soliton_refuses_a_failed_profile_solve(tmp_path, capsys, flags):
    out = tmp_path / "o"
    assert run("csf", "soliton", *flags, "--s=-5:5:64", "--out", out) == 3
    assert last_stderr_token(capsys) == "profile-solve-failed"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sweep_lists_a_failed_profile_solve(tmp_path):
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--B=3", "--A-range", "1e308:1e308:1",
               "--s=-5:5:64", "--out", out) == 0
    atlas = json.loads((out / "atlas.json").read_text())
    assert atlas == [{"A": 1e308, "B": 3.0, "x0": 1.0, "y0": 0.0,
                      "error": "profile-solve-failed"}]


# a stiff expander over a long range, and a stiff oscillator (|B| = 1e9)
# over a short one: the Taylor steps would go on, keeping each step's
# coefficients, until the solve is refused at its step budget
RUNAWAYS = {"long-expander": ["--A=0.5", "--B=2", "--x0=0.9", "--y0=0.1", "--s=0:300:64"],
            "stiff-oscillator": ["--A=0.5", "--B=-1e9", "--x0=0.3", "--y0=0", "--s=-1:1:64"]}


@pytest.mark.parametrize("flags", RUNAWAYS.values(), ids=RUNAWAYS.keys())
def test_a_runaway_profile_solve_is_refused_at_its_budget(tmp_path, capsys, flags):
    out = tmp_path / "o"
    start = time.perf_counter()
    assert run("csf", "soliton", *flags, "--out", out) == 3
    # about 0.5 s on a 2-core host; unbounded, the oscillator ran for minutes
    assert time.perf_counter() - start < 15.0
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "profile-solve-failed"
    assert f"passed {csf_solitons.MAX_STEPS} steps" in err[-2]
    assert not out.exists()


def test_a_sweep_past_the_sample_ceiling_is_refused_before_solving(tmp_path, capsys,
                                                                  monkeypatch):
    # the sweep holds every member's curve until it writes them: 4 members
    # of 2**20 + 1 samples pass 2**22 samples, though each count is below it
    def fail(*args, **kwargs):
        raise AssertionError("solved a member of a sweep past the ceiling")

    monkeypatch.setattr(csf_solitons, "_taylor_steps", fail)
    out = tmp_path / "o"
    assert run("csf", "soliton", "--A-range=0:0.4:2", "--B-range=-1:-0.6:2",
               f"--s=-5:5:{2**20 + 1}", "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not out.exists()


def test_a_soliton_run_reports_its_steps_the_same_on_a_rerun(tmp_path):
    # the step counts are deterministic, so they sit in hashed files
    argv = [("csf", "soliton", "--A=0", "--B=-1", "--x0=0.31318043363295145",
             "--s=-6:6:256"),
            ("csf", "soliton", "--A-range=0:0.4:2", "--B=-1", "--x0=0.5", "--s=0:6:64")]
    for k, args in enumerate(argv):
        outs = [tmp_path / f"{k}{name}" for name in "ab"]
        for out in outs:
            assert run(*args, "--out", out) == 0
        name = "soliton.json" if k == 0 else "atlas.json"
        records = [json.loads((out / name).read_text()) for out in outs]
        assert records[0] == records[1]
        for record in records[0] if k else [records[0]]:
            forward, backward = record["profile_steps"]
            assert forward > 0 and (backward > 0) == (k == 0)
            assert record["closure_steps"] > 0
        first, second = (json.loads((o / "manifest.jsonl").read_text())["artifacts"]
                         for o in outs)
        assert first == second


def test_a_sweep_lists_a_runaway_profile_solve(tmp_path):
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--A=0.5", "--B-range=-1e9:-1:2", "--x0=0.3",
               "--s=-1:1:64", "--out", out) == 0
    atlas = json.loads((out / "atlas.json").read_text())
    assert atlas[0] == {"A": 0.5, "B": -1e9, "x0": 0.3, "y0": 0.0,
                        "error": "profile-solve-failed"}
    assert atlas[1]["file"] == "soliton_0001.curve"


def test_csf_soliton_sweep(tmp_path):
    # a range alone selects the sweep
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--A", "0", "--B", "-1",
               "--A-range", "0:0.4:2", "--B-range=-1:-0.6:2",
               "--s=-6:6:256", "--out", out) == 0
    atlas = json.loads((out / "atlas.json").read_text())
    assert isinstance(atlas, list) and len(atlas) == 4
    for entry in atlas:
        assert (out / entry["file"]).is_file()


def test_csf_soliton_range_replaces_its_scalar(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run("csf", "soliton", "--B", "1", "--A-range", "0.5:1:2",
               "--s=-6:6:256", "--out", out) == 0
    assert len(json.loads((out / "atlas.json").read_text())) == 2

    assert run("csf", "soliton", "--A-range", "0.5:1:2",
               "--s=-6:6:256", "--out", tmp_path / "no_b") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


def test_grim_reaper_and_abresch_langer(tmp_path, capsys):
    out = tmp_path / "reaper"
    assert run("csf", "soliton", "--grim-reaper", "--t", "0.25",
               "--x=-1.4:1.4:301", "--out", out) == 0
    reaper = read_curve(out / "grim_reaper.curve")
    x, y = reaper.points[150]
    assert y == pytest.approx(0.25 - np.log(np.cos(x)), abs=1e-12)

    out2 = tmp_path / "al"
    assert run("csf", "soliton", "--abresch-langer", "--B=-1.0",
               "--r-min", "0.5", "--out", out2) == 0
    record = json.loads((out2 / "abresch_langer.json").read_text())
    r_max = record["r_max"]
    assert r_max * np.exp(-r_max**2 / 2) == pytest.approx(
        0.5 * np.exp(-0.125), rel=1e-12)

    assert run("csf", "soliton", "--abresch-langer", "--B=-1.0",
               "--out", tmp_path / "al2") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


def test_csf_soliton_modes_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("csf", "soliton", "--grim-reaper", "--abresch-langer", "--B=-1.0",
            "--r-min", "0.5", "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert last_stderr_token(capsys) == "invalid-arguments"


def test_vfe_soliton_profile_report(tmp_path):
    out = tmp_path / "rot"
    assert run("vfe", "soliton", "--case", "x-axis", "--C1", "0.25",
               "--lam", "1.0", "--z0", str(0.5 * np.sqrt(0.5)),
               "--x", "0:4:1024", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert record["omega"] == [-1.0, 0.0, 0.0]
    assert record["rotation_residual_max"] < 1e-3
    assert record["admissible_band"]["z_squared_high"] == pytest.approx(0.5)
    assert record["sign_schedule"][0]["sign"] in (-1, 1)
    assert read_curve(out / "profile.curve").n == 1024
    assert manifest_command(out) == "vfe soliton"


def test_vfe_soliton_planar_profile(tmp_path, capsys):
    out = tmp_path / "planar"
    assert run("vfe", "soliton", "--case", "planar", "--C1", "0.5", "--z0", "0.5",
               "--x", "0:4:512", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert record["z0"] == 0.5
    assert record["omega"] == [-1.0, 0.0, 0.0]
    assert record["rotation_residual_max"] < 1e-3
    curve = read_curve(out / "profile.curve")
    assert curve.n == 512 and curve.points[0, 1] == 0.5
    assert np.all(curve.points[:, 2] == 0.0)
    # the schedule follows f(x), which rises from f0 and then turns down
    assert [step["sign"] for step in record["sign_schedule"]][:2] == [1, -1]
    # --z0 serves every case; the planar-only alias is gone
    with pytest.raises(SystemExit) as exc:
        run("vfe", "soliton", "--case", "planar", "--C1", "0.5", "--f0", "0.5",
            "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert last_stderr_token(capsys) == "invalid-arguments"


def test_vfe_soliton_transverse_profile(tmp_path):
    out = tmp_path / "transverse"
    C1, C2 = 0.3, 0.1
    assert run("vfe", "soliton", "--case", "transverse-axis", "--C1", C1, "--C2", C2,
               "--x=-1.1:1.1:512", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert record["admissible_band"]["x_squared_below"] == 2.0 / (1.0 + C1**2) - 2.0 * C2
    assert record["omega"] == [0.0, 1.0, 0.0]
    assert record["rotation_residual_max"] < 1e-3
    assert read_curve(out / "profile.curve").n == 512


def test_vfe_soliton_reports_where_a_cut_short_profile_ends(tmp_path):
    # this profile reaches a vertical tangent near x = 1.456, well inside x_range
    out = tmp_path / "short"
    assert run("vfe", "soliton", "--case", "x-axis", "--lam", "0", "--C1=-0.2",
               "--z0", "0.8", "--x=0:5:256", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    curve = read_curve(out / "profile.curve")
    assert record["x_range"] == [0.0, 5.0]
    assert record["x_end"] == curve.points[-1, 0]
    assert record["x_end"] == pytest.approx(1.456, abs=1e-3)
    assert curve.n == 256
    # the transverse profile stops where |q| reaches 1
    out = tmp_path / "transverse"
    assert run("vfe", "soliton", "--case", "transverse-axis", "--C1", "0.3",
               "--C2", "0.1", "--x=-1.1:3:512", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert record["x_end"] == read_curve(out / "profile.curve").points[-1, 0]
    assert record["x_end"] == pytest.approx(1.2786, abs=1e-3)


def test_vfe_soliton_records_the_parameters_each_case_reads(tmp_path):
    # the planar profile and its band use lam = 0 whatever --lam says
    out = tmp_path / "planar"
    assert run("vfe", "soliton", "--case", "planar", "--C1", "0.5", "--z0", "0.5",
               "--lam", "2", "--x=0:4:64", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert record["lam"] == 0.0
    assert record["admissible_band"]["z_squared_high"] == 1.0
    assert "C2" not in record
    out = tmp_path / "x-axis"
    assert run("vfe", "soliton", "--case", "x-axis", "--lam", "1", "--C1", "0.25",
               "--z0", "0.55", "--C2", "0.4", "--x=0:4:64", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert (record["lam"], "C2" in record) == (1.0, False)
    out = tmp_path / "transverse"
    assert run("vfe", "soliton", "--case", "transverse-axis", "--C1", "0.3",
               "--C2", "0.1", "--lam", "2", "--x=-1.1:1.1:64", "--out", out) == 0
    record = json.loads((out / "profile.json").read_text())
    assert (record["C2"], "lam" in record) == (0.1, False)


def test_vfe_soliton_outside_band_exits_three(tmp_path, capsys):
    assert run("vfe", "soliton", "--case", "x-axis", "--C1", "0.25",
               "--lam", "1.0", "--z0", "5.0", "--out", tmp_path / "o") == 3
    assert last_stderr_token(capsys) == "outside-admissible-band"


def test_vfe_soliton_vertical_at_the_start_exits_three(tmp_path, capsys):
    # z0^2 + 2*C1 is about 9.8e-7: the start sits next to the vertical-tangent
    # locus and, with sign -1, reaches it at x = 1.5e-13
    out = tmp_path / "o"
    assert run("vfe", "soliton", "--case", "x-axis", "--lam", "0", "--C1=-0.3",
               "--z0", "0.7745973", "--sign=-1", "--x=0:4:64", "--out", out) == 3
    assert last_stderr_token(capsys) == "outside-admissible-band"
    assert not out.exists()


def test_vfe_soliton_vertical_before_the_second_sample_exits_three(tmp_path, capsys):
    # z0^2 + 2*C1 = 0.0084, and the profile turns vertical at x = 1.13e-5
    out = tmp_path / "o"
    assert run("vfe", "soliton", "--case", "x-axis", "--lam", "0", "--C1=-0.3",
               "--z0", "0.78", "--sign=-1", "--x=0:4:64", "--out", out) == 3
    assert last_stderr_token(capsys) == "outside-admissible-band"
    assert not out.exists()


def _nan_elliptic(phi, m):
    return np.full(np.shape(phi), np.nan)


def _noisy_elliptic(phi, m, rng=np.random.default_rng(3)):
    # a fresh draw on every call, so no Newton step settles below 1e-9
    return ellipeinc(phi, m) + 1e-6 * rng.standard_normal(np.shape(phi))


def test_vfe_soliton_refuses_a_failed_profile_solve(tmp_path, capsys, monkeypatch):
    # no input makes the closed form fail, so stubs stand in for the elliptic
    # integral: one gives a non-finite table, one Newton steps that never settle
    import scipy.special
    for k, stub in enumerate([_nan_elliptic, _noisy_elliptic]):
        monkeypatch.setattr(scipy.special, "ellipeinc", stub)
        with pytest.raises(CurveFlowError) as exc:
            vfe_solitons._band_profile(1.0, 0.25, 0.35, 1, (0.0, 4.0), 64)
        assert exc.value.token == "profile-solve-failed"
        out = tmp_path / f"o{k}"
        assert run("vfe", "soliton", "--case", "x-axis", "--C1", "0.25", "--lam", "1.0",
                   "--z0", "0.35", "--x=0:4:64", "--out", out) == 3
        assert last_stderr_token(capsys) == "profile-solve-failed"
        assert not out.exists()


@pytest.mark.parametrize("grid", ["--x=0:4:1", "--x=4:0:64", "--x=0:4:8"],
                         ids=["one-sample", "decreasing", "eight-samples"])
def test_vfe_soliton_planar_grid_is_checked_as_x_axis(tmp_path, capsys, grid):
    out = tmp_path / "o"
    assert run("vfe", "soliton", "--case", "planar", "--C1", "0.5", "--z0", "0.5",
               grid, "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not out.exists()


def test_vfe_evolve_with_residual_table(tmp_path, circle3_file):
    out = tmp_path / "vrun"
    assert run("vfe", "evolve", "--input", circle3_file, "--stop-time", "0.005",
               "--dt", "1e-4", "--n", "128", "--out", out) == 0
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header.split(",") == ["time", "length", "max_curvature", "max_torsion"]
    r_out = tmp_path / "r"
    assert run("diagnose", "residuals", "--trajectory", out, "--flow", "vfe",
               "--out", r_out) == 0
    res_lines = (r_out / "frenet_residuals.csv").read_text().splitlines()
    assert res_lines[0].split(",")[0] == "time"
    assert len(res_lines) > 1
    assert (r_out / "commutator_residual.csv").is_file()
    assert manifest_command(r_out) == "diagnose residuals"


def test_biot_savart_reports_log_slope(tmp_path, circle3_file, capsys):
    out = tmp_path / "bs"
    assert run("vfe", "biot-savart", "--input", circle3_file,
               "--eps", "1e-2,1e-3,1e-4", "--outer", "1.0", "--out", out) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("slope ")
    report = json.loads((out / "biot_savart.json").read_text())
    assert report["slope"] == pytest.approx(1.0, rel=0.05)
    assert report["r_squared"] > 0.999


def test_biot_savart_on_a_straight_filament_writes_a_null_r_squared(tmp_path, capsys):
    # every speed is 0, so r^2 is undefined: null in the file, nan on stdout
    line = SampledCurve(3, False, np.column_stack([np.arange(64.0), np.zeros(64),
                                                   np.zeros(64)]))
    path = write_curve(tmp_path / "line.curve", line)
    out = tmp_path / "bs"
    assert run("vfe", "biot-savart", "--input", path, "--index", "32", "--outer", "2",
               "--out", out) == 0
    assert capsys.readouterr().out == "slope 0 r_squared nan\n"
    text = (out / "biot_savart.json").read_text()
    assert "NaN" not in text
    report = json.loads(text)
    assert report["speed"] == [0.0, 0.0, 0.0]
    assert report["r_squared"] is None


@pytest.mark.parametrize("flags", [
    ["--index", "500"],
    ["--index", "-5"],
    ["--eps", "1e-2"],
    ["--eps", "1e-2,1e-2"],
], ids=["index-past-end", "negative-index", "one-eps", "repeated-eps"])
def test_biot_savart_rejects_bad_parameters(tmp_path, capsys, flags):
    from curveflow.storage import write_curve
    path = write_curve(tmp_path / "c.curve", circle3(64))
    assert run("vfe", "biot-savart", "--input", path, "--outer", "1.0", *flags,
               "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


@pytest.mark.parametrize("flags", [
    ["--eps=1e-3,1e-2", "--outer=1e300"],
    ["--eps=1e-3,1e-2", "--outer=1e20"],
    ["--eps=1e-320,1e-2", "--outer=1"],
], ids=["outer-1e300", "outer-1e20", "eps-subnormal"])
def test_biot_savart_on_an_open_helix_refuses_what_it_cannot_compute(tmp_path, capfd, flags):
    # capfd, not capsys: LAPACK writes its complaints to the file descriptor
    t = np.linspace(0.0, 4.0 * np.pi, 200)
    helix = SampledCurve(3, False, np.column_stack([np.cos(t), np.sin(t), 0.3 * t]))
    path = write_curve(tmp_path / "helix.curve", helix)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run("vfe", "biot-savart", "--input", path, "--index=100", *flags,
                   "--out", out) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == "invalid-parameter"
    assert not out.exists()


def test_hasimoto_pipeline_round_trip(tmp_path, circle3_file):
    t_out = tmp_path / "t"
    assert run("hasimoto", "transform", "--input", circle3_file, "--out", t_out) == 0
    fil = read_filament(t_out / "filament.json")
    # the 256-gon's measured curvature carries an O(h^2) bias near 1.5e-4
    np.testing.assert_allclose(np.abs(fil.values), 1.0, atol=3e-4)

    e_out = tmp_path / "e"
    assert run("hasimoto", "evolve", "--input", t_out / "filament.json",
               "--dt", "1e-4", "--steps", "20", "--periodic", "--out", e_out) == 0
    evolved = read_filament(e_out / "filament.json")
    assert evolved.time == pytest.approx(2e-3)

    r_out = tmp_path / "r"
    assert run("hasimoto", "reconstruct", "--input", e_out / "filament.json",
               "--out", r_out) == 0
    rebuilt = read_curve(r_out / "reconstructed.curve")
    assert rebuilt.dimension == 3 and rebuilt.n == 256


@pytest.mark.parametrize("field, flags, token", [
    ("time", [], "invalid-input"),
    ("grid_start", [], "invalid-input"),
    ("grid_step", [], "invalid-input"),
    ("gauge_A", [], "invalid-input"),
    (None, ["--steps", "-5"], "invalid-parameter"),
], ids=["nan-time", "nan-grid-start", "nan-grid-step", "nan-gauge-A", "negative-steps"])
def test_hasimoto_evolve_rejects_bad_input(tmp_path, capsys, field, flags, token):
    th = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    payload = {"grid_start": 0.0, "grid_step": 0.1, "gauge_A": 0.0, "time": 0.0,
               "values": np.column_stack([np.cos(th), np.sin(th)]).tolist()}
    if field is not None:
        payload[field] = float("nan")
    path = tmp_path / "filament.json"
    path.write_text(json.dumps(payload))
    argv = ["--input", path, "--dt", "1e-3", "--steps", "3", *flags]
    assert run("hasimoto", "evolve", *argv, "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == token


# a step whose square overflows, and one whose square is 0; the clamped
# scheme divides by the square, the reconstruction multiplies by it
@pytest.mark.parametrize("grid_step", [1e300, 1e-200], ids=["huge", "tiny"])
@pytest.mark.parametrize("command", [("evolve", "--dt=1e-3", "--steps=3"),
                                     ("evolve", "--dt=1e-3", "--steps=3", "--periodic"),
                                     ("reconstruct",)],
                         ids=["evolve-clamped", "evolve-periodic", "reconstruct"])
def test_a_filament_grid_step_outside_the_chord_bounds_is_refused(tmp_path, capsys,
                                                                  grid_step, command):
    payload = {"grid_start": 0.0, "grid_step": grid_step, "gauge_A": 0.0, "time": 0.0,
               "values": [[1.0, 0.0]] * 16}
    path = tmp_path / "filament.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("hasimoto", *command, "--input", path, "--out", tmp_path / "o")
    assert code == 2
    assert last_stderr_token(capsys) == "invalid-input"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dt", ["0", "nan"])
def test_hasimoto_evolve_rejects_a_bad_step(tmp_path, capsys, dt):
    fil = hasimoto.FilamentFunction(0.0, 0.1, np.ones(16, dtype=complex), periodic=True)
    path = write_filament(tmp_path / "filament.json", fil)
    assert run("hasimoto", "evolve", "--input", path, f"--dt={dt}", "--steps", "3",
               "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not (tmp_path / "o").exists()


def test_a_clamped_step_whose_band_overflows_is_refused_by_name(tmp_path, capsys):
    # i dt/(2 ds^2) is infinite, and LAPACK's ?gttrf reported a singular matrix
    # after the accuracy-degraded warning
    fil = hasimoto.FilamentFunction(0.0, 2.0**-511, np.ones(64, dtype=complex))
    path = write_filament(tmp_path / "filament.json", fil)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("hasimoto", "evolve", "--input", path, "--dt=10", "--steps", "1",
                   "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1] == "invalid-parameter"
    assert "dt = 10.0" in err and "grid step" in err and "accuracy-degraded" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("nu, tau0", [("1e-308", "0"), ("0.25", "1e308"), ("nan", "0")],
                         ids=["nu-squared-underflows", "tau0-squared-overflows", "nan-nu"])
def test_hasimoto_soliton_rejects_numbers_it_cannot_use(tmp_path, capsys, nu, tau0):
    assert run("hasimoto", "soliton", f"--nu={nu}", f"--tau0={tau0}",
               "--out", tmp_path / "o") == 2
    assert last_stderr_token(capsys) == "invalid-parameter"


# each input would square a Python float past the largest double, which
# raises OverflowError; each is refused where it enters
@pytest.mark.parametrize("argv", [
    ["vfe", "soliton", "--case", "x-axis", "--C1", "0.2", "--z0", "1e308", "--x=0:4:64"],
    ["vfe", "soliton", "--case", "planar", "--C1", "0.2", "--z0", "1e308", "--x=0:4:64"],
    ["vfe", "soliton", "--case", "x-axis", "--C1", "0.2", "--lam", "1e308", "--z0", "0.1"],
    ["vfe", "soliton", "--case", "transverse-axis", "--C1", "1e308", "--x=0:4:64"],
    ["hasimoto", "dilating", "--a", "1e308", "--t", "100"],
    ["hasimoto", "dilating", "--a", "1e200", "--t", "1e-200"],
], ids=["x-axis-z0", "planar-z0", "x-axis-lam", "transverse-C1", "dilating-a",
        "dilating-a-over-t"])
def test_squares_past_the_largest_double_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(*argv, "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not out.exists()


def test_hasimoto_soliton_artifacts(tmp_path):
    out = tmp_path / "sol"
    assert run("hasimoto", "soliton", "--nu", "1.0", "--tau0", "0.5",
               "--s=-10:10:257", "--out", out) == 0
    fr = json.loads((out / "soliton_frame.json").read_text())
    assert max(fr["curvature"]) == pytest.approx(2.0, abs=1e-6)
    fil = read_filament(out / "soliton_filament.json")
    assert fil.values.size == 257
    assert read_curve(out / "soliton.curve").n == 257
    assert manifest_command(out) == "hasimoto soliton"


def test_dilating_residual_check(tmp_path, capsys):
    out = tmp_path / "dil"
    assert run("hasimoto", "dilating", "--a", "0.8", "--t", "1.0",
               "--x=-10:10:4096", "--check-residual", "--out", out) == 0
    assert capsys.readouterr().out.startswith("nlcse_residual_max")
    report = json.loads((out / "residual.json").read_text())
    assert report["nlcse_residual_max"] < 1e-3


# the 5-point stencil holds no sample of a 4-point grid, t +- 1e-4 rounds to
# t = 1e154, the step 2.5e-161 lies below the chord bound 2^-511, and the older
# snapshot lies past the singularity at t = 5e-5; none of them leaves a file
@pytest.mark.parametrize("flags, code, token", [
    (["--a=-1", "--t=2.3780588041886466", "--x=-1:1:4"], 2, "invalid-parameter"),
    (["--a=0", "--t=1e154", "--x=0:1:5"], 2, "invalid-parameter"),
    (["--a=0", "--t=1", "--x=0:1e-160:5"], 2, "invalid-parameter"),
    (["--a=1", "--t=5e-5", "--x=-1:1:16"], 3, "at-singularity"),
], ids=["four-samples", "time-offset-rounds-away", "subnormal-step-squared",
        "older-snapshot-past-the-singularity"])
def test_dilating_residual_refusals_write_nothing(tmp_path, capsys, flags, code, token):
    out = tmp_path / "o"
    assert run("hasimoto", "dilating", *flags, "--check-residual", "--out", out) == code
    assert last_stderr_token(capsys) == token
    assert not out.exists()


def test_hasimoto_soliton_with_a_tiny_nu_writes_a_finite_frame(tmp_path):
    # the skew tau0/nu = -1e160 squares past the largest double
    out = tmp_path / "sol"
    assert run("hasimoto", "soliton", "--nu=1e-160", "--tau0=-1", "--s=0:1:16",
               "--out", out) == 0
    text = (out / "soliton_frame.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    fr = json.loads(text)
    rows = np.stack([fr["tangent"], fr["normal"], fr["binormal"]], axis=1)
    assert np.abs(rows @ rows.transpose(0, 2, 1) - np.eye(3)).max() < 1e-15


def test_dilating_filament_rejects_a_short_grid(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("hasimoto", "dilating", "--a", "1", "--t", "1", "--x=0:1:1",
               "--out", out) == 2
    assert last_stderr_token(capsys) == "invalid-parameter"
    assert not out.exists()


def test_diagnose_subcommands(tmp_path, circle_file, capsys):
    traj = tmp_path / "traj"
    assert run("csf", "evolve", "--input", circle_file, "--stop-time", "0.05",
               "--n", "128", "--dt", "1e-4", "--out", traj) == 0

    h_out = tmp_path / "h"
    assert run("diagnose", "huisken", "--trajectory", traj, "--x0", "0,0",
               "--t0", "0.5", "--out", h_out) == 0
    for x0 in ("1", "0,0,0"):
        assert run("diagnose", "huisken", "--trajectory", traj, "--x0", x0,
                   "--t0", "0.5", "--out", tmp_path / f"h{x0}") == 2
        assert last_stderr_token(capsys) == "invalid-parameter"
    lines = (h_out / "huisken.csv").read_text().splitlines()
    assert lines[0] == "time,huisken"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a * (1 + 1e-6) for a, b in zip(values, values[1:]))

    d_out = tmp_path / "d"
    assert run("diagnose", "distance-ratio", "--input", circle_file,
               "--out", d_out) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-4)

    r_out = tmp_path / "r"
    assert run("diagnose", "residuals", "--trajectory", traj, "--flow", "csf",
               "--out", r_out) == 0
    assert (r_out / "arclength_residual.csv").is_file()
    assert (r_out / "curvature_residual.csv").is_file()
    assert manifest_command(r_out) == "diagnose residuals"

    # exactly one of --input and --trajectory
    for sources in ([], ["--input", circle_file, "--trajectory", traj]):
        with pytest.raises(SystemExit) as exc:
            run("diagnose", "distance-ratio", *sources, "--out", tmp_path / "x")
        assert exc.value.code == 2
        assert last_stderr_token(capsys) == "invalid-arguments"
