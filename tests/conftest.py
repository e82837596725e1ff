"""Shared curve builders and the acceptance report hook."""
from __future__ import annotations

import time

import numpy as np
import pytest

from curveflow.geometry import SampledCurve


def circle2(n: int = 256, radius: float = 1.0, center=(0.0, 0.0)) -> SampledCurve:
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([center[0] + radius * np.cos(th),
                           center[1] + radius * np.sin(th)])
    return SampledCurve(2, True, pts, label="circle")


def circle3(n: int = 256, radius: float = 1.0) -> SampledCurve:
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([radius * np.cos(th), radius * np.sin(th),
                           np.zeros(n)])
    return SampledCurve(3, True, pts, label="space circle")


def ellipse2(a: float = 2.0, b: float = 1.0, n: int = 256) -> SampledCurve:
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([a * np.cos(th), b * np.sin(th)])
    return SampledCurve(2, True, pts, label="ellipse")


def helix3(radius: float = 1.0, pitch: float = 0.5, turns: float = 2.0,
           n: int = 512) -> SampledCurve:
    """Unit-speed helix; kappa = r/(r^2+c^2), tau = c/(r^2+c^2)."""
    c0 = np.hypot(radius, pitch)
    s = np.linspace(0.0, turns * 2.0 * np.pi * c0, n)
    pts = np.column_stack([radius * np.cos(s / c0), radius * np.sin(s / c0),
                           pitch * s / c0])
    return SampledCurve(3, False, pts, label="helix")


# --------------------------------------------------------------------------
# acceptance reporting: tests append (criterion, ok, detail) here and the
# terminal-summary hook prints one line per criterion after the run

ACCEPTANCE_LOG: list[tuple[int, bool, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LOG.append((number, ok, detail))
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(ACCEPTANCE_LOG):
        terminalreporter.write_line(
            f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


# wall-clock spent inside shared fixtures, keyed by fixture name; the
# acceptance gates budget the circle and ellipse runs against this
RUN_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="session")
def circle_run():
    """Unit circle (n=256) run into the singularity guard near t = 1/2."""
    from curveflow.csf import evolve
    from curveflow.flow import StepOptions

    start = time.perf_counter()
    traj = evolve(circle2(256), StepOptions(stop_time=1.0, cfl=0.25, record_every=20))
    RUN_SECONDS["circle"] = time.perf_counter() - start
    return traj


@pytest.fixture(scope="session")
def deep_ellipse_run():
    """2:1 ellipse (enclosed area 2 pi) run into the singularity guard."""
    from curveflow.csf import evolve
    from curveflow.flow import StepOptions

    start = time.perf_counter()
    traj = evolve(ellipse2(2.0, 1.0, 256),
                  StepOptions(stop_time=2.0, cfl=0.25, record_every=50))
    RUN_SECONDS["deep_ellipse"] = time.perf_counter() - start
    return traj
