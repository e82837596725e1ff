"""The one time-stepping driver for both flow engines.

``evolve`` runs step-size-guarded stepping with a singularity guard and
arclength resampling when the spacing drifts.  An engine describes itself
with a ``FlowSpec``: its dimension, its velocity, its step-size rule and its
time step (the curve shortening engine solves a linearly implicit BDF2
step; the binormal engine takes explicit RK4 steps).  Everything else is
shared.

The driver works on the raw ``(n, d)`` point array, resamples it as such,
and builds a validated ``SampledCurve`` only for the frames it records.
Each step calls the engine's velocity once, which measures the chord
lengths on the way; the step receives both, and the binormal engine's
first RK4 stage reuses that velocity.

The driver refuses a curve whose curvature is not finite, where it turns
back on itself (``invalid-input``), and a step that a small ``cfl`` rounds
below the smallest normal double (``invalid-parameter``).

Stop reasons, checked in this order before every step:

* ``approaching-singularity``: max|kappa| times the longest segment exceeds
  1, or the length falls below ``SINGULAR_LENGTH_FRACTION`` of the initial
  length;
* ``stop-time``: the time reaches ``stop_time``;
* ``max-steps``: ``max_steps`` steps have been taken;
* ``blow-up-detected``: a step produced a non-finite point.  The last
  finite state is the last frame: the run records it before it stops,
  unless the record cadence already has.  A step whose chords leave the
  chord bounds of ``SampledCurve`` (``geometry.MIN_CHORD`` and the longest
  chord whose square is finite) stops the same way, as
  ``approaching-singularity``: chords shrink that far only near it.

The step is sized at the start and every ``resample_every`` steps.  At
each of these spacing checks after the start, the driver also resamples
the curve when its longest chord exceeds the shortest by more than
``SPACING_TOL``; a uniformly spaced curve that keeps its spacing is never
resampled.  A resample clears the step history, so a multistep scheme
starts again from one step.

Frames are recorded every ``record_every`` steps and at the stop.  A frame
due on a resampling step is recorded before the resampling pass, so stored
geometry is the raw evolved state, not the smoothed restart data.

A trajectory holds only its frames and their times: ``frame_measures``
reads the per-frame diagnostics from the frames, and ``interior_frames``
validates a trajectory for the evolution-law residuals of both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, CurveFlowError
from .geometry import (MIN_CHORD, SampledCurve, _unit_scale, frenet, integrate_along,
                       resample_points, total_length)

# relative chord-length spread, max h / min h - 1, above which a check
# resamples the curve
SPACING_TOL = 0.02

# fraction of the initial length below which the singularity guard stops a run
SINGULAR_LENGTH_FRACTION = 0.01

# the smallest normal double: no step, and no time left to step, is smaller
TINY = float(np.finfo(float).tiny)


@dataclass
class StepOptions:
    """Time-stepping controls shared by the flow engines.

    Exactly one of ``dt`` (fixed step) or ``cfl`` must be set.  ``cfl`` is
    the step-size number of both engines: at each spacing check the step is
    ``cfl`` times the engine's unit step (``FlowSpec.step_limits``).  Either
    way the step must stay within the engine's largest allowed step.  The
    spacing is checked every ``resample_every`` steps, and the
    curve is resampled only when its chord lengths spread by more than
    ``SPACING_TOL``; resampling keeps the input's sample count.  The run
    stops at ``stop_time``, or earlier when the singularity proxies fire or
    after ``max_steps``.
    """

    stop_time: float
    dt: float | None = None
    cfl: float | None = None
    resample_every: int = 10
    record_every: int = 10
    max_steps: int = 2_000_000

    def __post_init__(self):
        if (self.dt is None) == (self.cfl is None):
            raise ValueError("set exactly one of dt and cfl")
        # written as range checks so that NaN fails them too; a subnormal
        # step or stop time has no reciprocal
        if self.dt is not None and not TINY <= self.dt < np.inf:
            raise ValueError("dt must be positive, normal and finite")
        if self.cfl is not None and not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if not TINY <= self.stop_time < np.inf:
            raise ValueError("stop_time must be positive, normal and finite")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.resample_every < 1 or self.record_every < 1:
            raise ValueError("resample_every and record_every must be >= 1")


@dataclass
class FlowTrajectory:
    """Recorded history of one flow run: its frames and their times."""

    times: list[float] = field(default_factory=list)
    frames: list[SampledCurve] = field(default_factory=list)
    stop_reason: str = ""
    steps_taken: int = 0

    def append(self, time: float, frame: SampledCurve):
        self.times.append(time)
        self.frames.append(frame)

    @property
    def final(self) -> SampledCurve:
        return self.frames[-1]

    @property
    def final_time(self) -> float:
        return self.times[-1]


@dataclass
class ScalarSeries:
    """A scalar sampled at the recorded times."""

    times: np.ndarray
    values: np.ndarray


def frame_measures(traj: FlowTrajectory) -> dict[str, np.ndarray]:
    """Per-frame ``time``, ``length``, ``max_curvature``, ``bending`` and ``max_torsion``.

    Bending is the integral of kappa^2 ds.  Every value is measured on the
    frame's points with the engines' stencil, so a stored trajectory gives
    the numbers of the one ``evolve`` returned.  ``max_torsion`` is NaN for
    planar frames and where the torsion is defined nowhere.
    """
    rows = []
    for f in traj.frames:
        fr = frenet(f)
        tau = np.nan
        if fr.torsion is not None and fr.torsion_defined.any():
            tau = np.nanmax(np.abs(fr.torsion[fr.torsion_defined]))
        kappa = np.abs(fr.curvature).max()
        # the frame a guard stops on can have a kappa^2 past the largest double
        scale = _unit_scale(kappa)
        rows.append((total_length(f), kappa,
                     integrate_along(f, (fr.curvature * scale) ** 2) / scale / scale, tau))
    length, kappa, bending, torsion = np.array(rows, dtype=float).reshape(-1, 4).T
    return {"time": np.array(traj.times, dtype=float), "length": length,
            "max_curvature": kappa, "bending": bending, "max_torsion": torsion}


# fraction of an open curve's samples that the evolution-law checks skip at
# each pinned end, where the one-sided stencils are least accurate
END_TRIM = 0.1


def interior_frames(traj: FlowTrajectory, dimension: int) -> tuple[np.ndarray, slice]:
    """Recorded times and the sample slice the evolution-law checks read.

    The checks difference frames in time at fixed sample index, so they
    need at least 3 frames of one sample count at strictly increasing
    times, all in R^``dimension`` (the flow whose laws they check).  The
    slice keeps every sample of a closed curve and drops ``END_TRIM`` at
    each open end.
    """
    frames = traj.frames
    if len(frames) < 3:
        raise ValueError("need at least 3 frames")
    n = frames[0].n
    if any(f.n != n for f in frames):
        raise CurveFlowError("unaligned-trajectory", "frames have mixed sample counts")
    if any(f.dimension != dimension for f in frames):
        raise ValueError(f"these residuals need frames in R^{dimension}")
    times = np.array(traj.times)
    if not np.all(np.diff(times) > 0):
        raise ConfigError("invalid-input", "frame times must strictly increase")
    cut = 0 if frames[0].closed else int(n * END_TRIM)
    return times, slice(cut, n - cut)


@dataclass(frozen=True)
class FlowSpec:
    """What one flow engine supplies to the driver.

    ``velocity(pts, closed)`` returns ``(h, vel, kappa)`` at the state the
    driver holds: the chord lengths (with a closed curve's wrap segment last,
    as ``geometry.chord_lengths`` gives them), the velocity, which the step
    receives as ``vel``, and the curvature the singularity guard reads.  An
    engine may return arrays of any memory layout.
    ``step_limits(h, kappa)`` returns ``(unit, limit)`` for the current
    chord lengths and curvature: a ``cfl`` step is ``cfl * unit``, and no
    step, fixed or not, may exceed ``limit``.
    ``step(pts, h, vel, closed, dt, last)`` returns the points one step
    ``dt`` on from ``pts``, given the chord lengths ``h`` and the velocity
    ``vel`` at ``pts``; a step that needs the velocity elsewhere, as RK4's
    later stages do, computes it itself.  ``last`` is the history:
    ``(points, h, dt)`` of the state the previous step started from, or None
    at the start and after a resample.
    The arrays ``velocity`` and ``step`` return stay valid for as long as
    the caller holds them: an engine may keep buffers for a run, as the
    binormal engine's stage plan does, but it never returns one, so no
    later call overwrites a returned array.
    """

    dimension: int
    velocity: Callable
    step_limits: Callable
    step: Callable


def evolve(curve: SampledCurve, opts: StepOptions, spec: FlowSpec) -> FlowTrajectory:
    """Run the flow until ``opts.stop_time`` or an earlier stop (see module doc)."""
    if curve.dimension != spec.dimension:
        raise ValueError(f"this flow needs a curve in R^{spec.dimension}")
    closed, n, pts = curve.closed, curve.n, curve.points
    traj = FlowTrajectory()
    t = 0.0
    steps = 0
    # relative, so that a stop time far below 1 is still stepped to
    eps = max(1e-12 * opts.stop_time, TINY)
    h, vel, kappa = spec.velocity(pts, closed)
    # where a curve turns back on itself its tangent estimate vanishes
    if not np.isfinite(kappa).all():
        raise ConfigError("invalid-input", "the curvature is not finite: the curve "
                          "turns back on itself")
    length0 = float(h.sum())
    last = None
    while True:
        stop = ""
        if (float(np.abs(kappa).max()) * h.max() > 1.0
                or h.sum() < SINGULAR_LENGTH_FRACTION * length0):
            stop = "approaching-singularity"
        elif t >= opts.stop_time - eps:
            stop = "stop-time"
        elif steps >= opts.max_steps:
            stop = "max-steps"

        if stop or steps % opts.record_every == 0:
            traj.append(t, curve.with_points(pts))
        if stop:
            break

        if steps % opts.resample_every == 0:
            if steps > 0 and h.max() > (1.0 + SPACING_TOL) * h.min():
                pts = resample_points(pts, closed, n)
                h, vel, kappa = spec.velocity(pts, closed)
                last = None
            unit, limit = spec.step_limits(h, kappa)
            dt_base = opts.cfl * unit if opts.dt is None else opts.dt
            if dt_base > limit:
                raise ConfigError("cfl-violation", f"dt={dt_base:g} exceeds the "
                                  f"largest allowed step {limit:g}")
            if dt_base < TINY:
                raise ConfigError("invalid-parameter", f"the step cfl * {unit:g} is subnormal")

        dt = min(dt_base, opts.stop_time - t)
        new_pts = spec.step(pts, h, vel, closed, dt, last)
        # a step to a state that no SampledCurve holds ends the run on the
        # last state that one does
        if not np.isfinite(new_pts).all():
            stop = "blow-up-detected"
        else:
            new = spec.velocity(new_pts, closed)
            if not (MIN_CHORD <= new[0].min() and new[0].max() < np.inf):
                stop = "approaching-singularity"
        if stop:
            # a step on the record cadence has its frame from the top of the loop
            if steps % opts.record_every:
                traj.append(t, curve.with_points(pts))
            break
        last = (pts, h, dt)
        pts = new_pts
        t += dt
        steps += 1
        h, vel, kappa = new

    traj.stop_reason = stop
    traj.steps_taken = steps
    return traj
