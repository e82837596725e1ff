"""Binormal (vortex filament) flow for space curves.

The velocity is gamma_s x gamma_ss = kappa B, which preserves arclength
pointwise; samples therefore track material points and resampling is a
near-identity cleanup.  Time stepping is classical RK4 (``_step``) under
the dispersive bound dt <= cfl * ds^2 on the shared driver in ``flow``,
with cfl at most ``STABILITY_FACTOR``.  With t- and t+ the unit chords on
either side of a sample and h- and h+ their lengths, the chord-slope
stencil's d1 x d2 is exactly 2 (t- x t+)/(h- + h+), which ``_binormal``
evaluates without forming d1 or d2.  ``evolve`` allocates one stage plan
(``_StagePlan``) per run, for its sample count and closedness: the padded
state, the chord, unit-chord and cross-product buffers, RK4's k2 to k4 and
every slice view a stage reads.  A stage is then about 14 ufunc calls that
write into the plan and allocate nothing; the velocity, the step and
``binormal_velocity`` all run this one stage code, and the arrays they
return are new.  The state is coordinate-major: the velocity and the step
return the (n, 3) transpose of a (3, n) array, which the driver hands back
as it is.  The velocity also gives the driver the chord lengths and the
guard's curvature, in plain numpy once per step.  The first stage reuses
the driver's velocity; the others skip the guard.  A pinned end does not move.

Also here: residual checks for the curvature/torsion/frame evolution
laws, the tangent/time commutator, a rigid-motion fitter for detecting
screw motions, and a cutoff Biot-Savart integrator that exhibits the
log(1/eps) local-induction asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .errors import ConfigError, CurveFlowError
from .flow import FlowTrajectory, ScalarSeries, StepOptions, interior_frames
from .geometry import (
    SampledCurve,
    _lagrange_d1_d2,
    frenet,
    segment_lengths,
)

# RK4 covers the imaginary axis up to |z| = 2*sqrt(2); with the discrete
# dispersion |lambda| <= 4/ds^2 the hard bound is dt <= 0.707 ds^2.
STABILITY_FACTOR = 0.7

# The Frenet laws divide by kappa and kappa^2; below this fraction of a
# frame's maximum curvature the torsion estimate is roundoff, not signal.
KAPPA_REL_FLOOR = 1e-2


class _StagePlan:
    """The buffers and bound views of the binormal stages for one (n, closed).

    A stage reads its points, coordinate-major, from ``state``, padded with
    a closed curve's wrap as ``_lagrange_d1_d2`` pads it.  The unit chords'
    rows lie flat as (0, 1, 2, 0, 1), so each factor of a1 b2 - a2 b1 for all
    three cross components is one contiguous span.  RK4's k2 to k4 keep
    their pinned open ends at 0.  The once-per-step guard keeps no buffers.
    """

    def __init__(self, n: int, closed: bool):
        m = n + 1 if closed else n - 1
        self.moving = slice(None) if closed else slice(1, -1)
        pad = np.empty((3, n + 2 if closed else n))
        self.state = pad[:, 1:-1] if closed else pad
        # a closed curve's columns 0 and n + 1 take its last and first samples
        self.wrap_to = pad[:, ::n + 1] if closed else None
        self.wrap_from = pad[:, n:0:1 - n] if closed else None
        self.ahead, self.behind = pad[:, 1:], pad[:, :-1]
        self.seg, self.sq, self.h = np.empty((3, m)), np.empty((3, m)), np.empty(m)
        self.h_lo, self.h_hi = self.h[:-1], self.h[1:]
        # the chord lengths in geometry.chord_lengths' order
        self.chords = self.h_hi if closed else self.h
        rows = np.empty(5 * m)
        self.t = rows[:3 * m].reshape(3, m)
        self.t_lo, self.t_hi = self.t[:, :-1], self.t[:, 1:]
        self.t01, self.t01_again = rows[:2 * m], rows[3 * m:]
        self.a1, self.b2 = rows[m:4 * m - 1], rows[2 * m + 1:5 * m]
        self.a2, self.b1 = rows[2 * m:5 * m - 1], rows[m + 1:4 * m]
        # t[:, j] x t[:, j + 1] in column j; the flat buffer's last entry is junk
        cross = np.empty(3 * m)
        self.cross, self.cross_b = cross[:-1], np.empty(3 * m - 1)
        self.cross_cols = cross.reshape(3, m)[:, :-1]
        self.h_sum, self.weight = np.empty(m - 1), np.empty(m - 1)
        self.scratch = np.empty((3, n))
        self.k = [np.zeros((3, n)) for _ in range(3)]
        self.k_moving = [k[:, self.moving] for k in self.k]


def _binormal(p: _StagePlan, out: np.ndarray) -> np.ndarray:
    """Write 2 (t- x t+)/(h- + h+) at the plan's ``state`` into ``out``, the moving samples.

    Every operation writes into a buffer of the plan ``p``, so a stage
    allocates nothing; the plan keeps the chord lengths ``h`` (with the wrap
    in front on a closed curve, the bits of ``chord_lengths`` otherwise), the
    unit chords ``t`` and ``h_sum`` = h- + h+ until the next stage.
    """
    if p.wrap_to is not None:
        np.copyto(p.wrap_to, p.wrap_from)
    np.subtract(p.ahead, p.behind, out=p.seg)
    np.multiply(p.seg, p.seg, out=p.sq)
    # a reduction over the 3 coordinate rows sums them in order, as _dot does
    np.add.reduce(p.sq, axis=0, out=p.h)
    np.sqrt(p.h, out=p.h)
    np.divide(p.seg, p.h, out=p.t)
    np.copyto(p.t01_again, p.t01)
    np.multiply(p.a1, p.b2, out=p.cross)
    np.multiply(p.a2, p.b1, out=p.cross_b)
    np.subtract(p.cross, p.cross_b, out=p.cross)
    np.add(p.h_lo, p.h_hi, out=p.h_sum)
    np.divide(2.0, p.h_sum, out=p.weight)
    return np.multiply(p.cross_cols, p.weight, out=out)


def _velocity(pts: np.ndarray, closed: bool, plan: _StagePlan | None = None):
    """The chord lengths, the binormal velocity and the curvature |d1 x d2| / |d1|^3
    the guard reads, from one stage on ``plan`` (a fresh one if None).

    The stage writes into the plan and allocates nothing; the guard is plain
    numpy, whose d1 = (h- t+ + h+ t-)/(h- + h+) reuses the stage's unit chords
    and sums.  The three returned arrays are new, never the plan's.  The
    velocity and the curvature are 0 at a pinned open end.
    """
    p = plan if plan is not None else _StagePlan(len(pts), closed)
    np.copyto(p.state, pts.T)
    vel = np.zeros(pts.shape[::-1])
    _binormal(p, vel[:, p.moving])
    d1 = (p.h_lo * p.t_hi + p.h_hi * p.t_lo) / p.h_sum
    speed2 = np.add.reduce(d1 * d1, axis=0)
    kappa = np.sqrt(np.add.reduce(vel * vel, axis=0))
    # where the curve turns back on itself d1 is 0 or nearly so, and the inf
    # or NaN kappa there is the answer the driver checks
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa[p.moving] /= speed2 * np.sqrt(speed2)
    return p.chords.copy(), vel.T, kappa


def binormal_velocity(curve: SampledCurve) -> np.ndarray:
    """Discrete gamma_s x gamma_ss per sample (zero at pinned open ends)."""
    if curve.dimension != 3:
        raise ValueError("binormal flow needs a space curve")
    plan = _StagePlan(curve.n, curve.closed)
    np.copyto(plan.state, curve.points.T)
    vel = np.zeros(curve.points.shape)
    _binormal(plan, vel.T[:, plan.moving])
    return vel


def _step_limits(h: np.ndarray, kappa: np.ndarray):
    unit = h.min() ** 2
    return unit, STABILITY_FACTOR * unit


def _step(pts, h, k1, closed, dt, last, plan: _StagePlan | None = None):
    """One classical Runge-Kutta step from the velocity ``k1`` at ``pts``.

    The stages run on ``plan`` (a fresh one if None): each writes its input
    into the plan's state and its k into the plan's k buffers, in the
    coordinate-major layout, where per-sample scalars broadcast along the
    contiguous axis.  The returned points are a new array.
    """
    p = plan if plan is not None else _StagePlan(len(pts), closed)
    x, k1 = pts.T, k1.T
    k2, k3, k4 = p.k
    for k, c, out in ((k1, 0.5 * dt, p.k_moving[0]), (k2, 0.5 * dt, p.k_moving[1]),
                      (k3, dt, p.k_moving[2])):
        np.multiply(k, c, out=p.scratch)
        np.add(x, p.scratch, out=p.state)
        _binormal(p, out)
    # k1 + 2 k2 + 2 k3 + k4 in one buffer, summed left to right: the order fixes the bits
    acc = np.multiply(k2, 2.0)
    np.add(k1, acc, out=acc)
    np.add(acc, np.multiply(k3, 2.0, out=p.scratch), out=acc)
    np.add(acc, k4, out=acc)
    np.multiply(acc, dt / 6.0, out=acc)
    return np.add(x, acc, out=acc).T


def _spec(plan: _StagePlan | None = None) -> flow.FlowSpec:
    # built per run around the run's stage plan (None: a fresh plan per call);
    # the lambdas look _velocity and _step up at each call, so a rebinding of
    # either takes effect
    return flow.FlowSpec(
        dimension=3, velocity=lambda pts, closed: _velocity(pts, closed, plan),
        step_limits=_step_limits,
        step=lambda pts, h, vel, closed, dt, last: _step(pts, h, vel, closed, dt, last, plan))


def evolve(curve: SampledCurve, opts: StepOptions) -> FlowTrajectory:
    """Run the binormal flow; stop reasons as in ``flow.evolve``."""
    return flow.evolve(curve, opts, _spec(_StagePlan(curve.n, curve.closed)))


# ---------------------------------------------------------------------------
# evolution-law residuals


@dataclass
class FrenetResidualSeries:
    """Max per-frame defects of the four Frenet evolution laws.

    Rows are interior trajectory frames; a frame whose curvature dips
    below the torsion floor anywhere in the measured region is skipped
    (NaN residuals, skipped=True).
    """

    times: np.ndarray
    res_kappa: np.ndarray
    res_tau: np.ndarray
    res_normal: np.ndarray
    res_binormal: np.ndarray
    skipped: np.ndarray


def frenet_evolution_residuals(traj: FlowTrajectory) -> FrenetResidualSeries:
    """Check kappa_t, tau_t, N_t, B_t against the binormal-flow laws.

    Arclength is pointwise conserved under this flow, so fixed sample
    index is the material gauge and plain time central differences
    apply.  Of the samples ``flow.interior_frames`` keeps, those with
    curvature below ``KAPPA_REL_FLOOR`` times the frame maximum are
    excluded.  A defect that does not fit in a double is refused with
    ``invalid-input``.
    """
    times, keep = interior_frames(traj, 3)
    frames = traj.frames
    n = frames[0].n
    closed = frames[0].closed

    data = [frenet(f) for f in frames]
    m = len(frames) - 2
    out = {k: np.full(m, np.nan) for k in ("kappa", "tau", "normal", "binormal")}
    skipped = np.zeros(m, dtype=bool)

    # on a curve of scale 1e-150, kappa_ss and kappa_sss pass the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(frames) - 1):
            fr = data[k]
            kap = fr.curvature
            mask = np.zeros(n, dtype=bool)
            mask[keep] = kap[keep] >= KAPPA_REL_FLOOR * kap[keep].max()
            mask &= (fr.torsion_defined & data[k - 1].torsion_defined
                     & data[k + 1].torsion_defined)
            if not mask.any():
                skipped[k - 1] = True
                continue
            dt2 = times[k + 1] - times[k - 1]
            tau = fr.torsion
            h = segment_lengths(frames[k])
            # the stencil works column by column: kappa and tau share one call
            d1, d2 = _lagrange_d1_d2(np.column_stack([kap, tau]), h, closed)
            kap_s, tau_s, kap_ss = d1[:, 0], d1[:, 1], d2[:, 0]
            kap_sss = _lagrange_d1_d2(kap_ss[:, None], h, closed)[0][:, 0]

            kap_t = (data[k + 1].curvature - data[k - 1].curvature) / dt2
            tau_t = (data[k + 1].torsion - data[k - 1].torsion) / dt2
            n_t = (data[k + 1].normal - data[k - 1].normal) / dt2
            b_t = (data[k + 1].binormal - data[k - 1].binormal) / dt2

            big_f = tau**2 - kap_ss / kap
            r_kap = kap_t + (2.0 * kap_s * tau + tau_s * kap)
            r_tau = tau_t - (-kap * kap_s + 2.0 * tau * tau_s - kap_sss / kap
                             + kap_ss * kap_s / kap**2)
            r_n = n_t - (tau * kap)[:, None] * fr.tangent + big_f[:, None] * fr.binormal
            r_b = b_t + kap_s[:, None] * fr.tangent - big_f[:, None] * fr.normal

            out["kappa"][k - 1] = np.where(mask, np.abs(r_kap), 0.0).max()
            out["tau"][k - 1] = np.where(mask, np.abs(r_tau), 0.0).max()
            out["normal"][k - 1] = np.where(mask, np.linalg.norm(r_n, axis=1), 0.0).max()
            out["binormal"][k - 1] = np.where(mask, np.linalg.norm(r_b, axis=1), 0.0).max()
    if not np.all(np.isfinite(np.column_stack(list(out.values()))[~skipped])):
        raise ConfigError("invalid-input", "the Frenet residuals lie past the largest "
                          "double: the curvature's derivatives overflow at this scale")

    return FrenetResidualSeries(
        times[1:-1], out["kappa"], out["tau"], out["normal"], out["binormal"], skipped
    )


def commutator_residual(traj: FlowTrajectory) -> ScalarSeries:
    """Max norm of d/dt(gamma_s) - d/ds(gamma_t) per interior frame."""
    times, keep = interior_frames(traj, 3)
    frames = traj.frames
    closed = frames[0].closed
    hs = [segment_lengths(f) for f in frames]
    d1s = [_lagrange_d1_d2(f.points, h, closed)[0] for f, h in zip(frames, hs)]
    vals = np.empty(len(frames) - 2)
    for k in range(1, len(frames) - 1):
        dt2 = times[k + 1] - times[k - 1]
        lhs = (d1s[k + 1] - d1s[k - 1]) / dt2
        vel = binormal_velocity(frames[k])
        rhs = _lagrange_d1_d2(vel, hs[k], closed)[0]
        vals[k - 1] = np.linalg.norm((lhs - rhs)[keep], axis=1).max()
    return ScalarSeries(times[1:-1], vals)


# ---------------------------------------------------------------------------
# rigid-motion fitting


@dataclass
class RigidMotionFit:
    omega: np.ndarray
    v: np.ndarray
    rms_residual: float


def rigid_motion_fit(c0: SampledCurve, c1: SampledCurve, dt: float) -> RigidMotionFit:
    """Least-squares (omega, v) with (c1-c0)/dt ~ omega x p + v."""
    if c0.n != c1.n:
        raise CurveFlowError("unaligned-trajectory", "sample counts differ")
    p = c0.points
    d = (c1.points - p) / dt
    centroid = p.mean(axis=0)
    q = p - centroid
    n = c0.n
    a = np.zeros((3 * n, 6))
    # omega x q written as -[q]_x omega
    a[0::3, 1] = q[:, 2]
    a[0::3, 2] = -q[:, 1]
    a[1::3, 0] = -q[:, 2]
    a[1::3, 2] = q[:, 0]
    a[2::3, 0] = q[:, 1]
    a[2::3, 1] = -q[:, 0]
    a[0::3, 3] = 1.0
    a[1::3, 4] = 1.0
    a[2::3, 5] = 1.0
    sol, _, rank, _ = np.linalg.lstsq(a, d.reshape(-1), rcond=None)
    if rank < 6:
        raise CurveFlowError("rank-deficient", "points do not determine a rigid motion")
    omega = sol[:3]
    v = sol[3:] - np.cross(omega, centroid)
    fit = np.cross(np.broadcast_to(omega, p.shape), p) + v
    rms = float(np.sqrt(np.mean(np.sum((d - fit) ** 2, axis=1))))
    return RigidMotionFit(omega, v, rms)


# ---------------------------------------------------------------------------
# cutoff Biot-Savart


@dataclass
class BiotSavartOptions:
    epsilon: float
    outer: float
    quadrature_n: int = 256

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.outer:
            raise ValueError("need 0 < epsilon < outer")
        if self.quadrature_n < 8:
            raise ValueError("quadrature_n too small")


def biot_savart_velocity(curve: SampledCurve, i: int, opts: BiotSavartOptions) -> np.ndarray:
    """Induced velocity at sample i from the filament arc eps <= |zeta| <= outer.

    Circulation is normalized to k = 4 pi so the velocity magnitude is
    asymptotically kappa * log(1/eps) + O(1).  The integrand is evaluated
    at arc offsets via a cubic Taylor step from the nearest sample; the
    singular measure is flattened with the substitution zeta = +-e^u.
    Refuses an outer cutoff past half a closed curve's length or past the
    nearer end of an open one, and a velocity that is not finite.
    """
    if curve.dimension != 3:
        raise ValueError("needs a space curve")
    pts = curve.points
    n = curve.n
    if not 0 <= i < n:
        raise ValueError(f"sample index {i} outside [0, {n})")
    h = segment_lengths(curve)
    ds = float(h.mean())
    # past the ends of an open curve the Taylor step extrapolates a phantom arc
    reach = h.sum() / 2 if curve.closed else min(h[:i].sum(), h[i:].sum())
    if opts.outer > reach:
        raise ValueError("outer cutoff passes the nearer end (half the length if closed)")
    d1, d2 = _lagrange_d1_d2(pts, h, curve.closed)
    d3 = _lagrange_d1_d2(d2, h, curve.closed)[0]

    def eval_curve(zeta):
        # nearest-sample index along arc, then a local Taylor step
        k = np.rint(zeta / ds).astype(int)
        # an open curve's nearest sample stops at its ends
        if not curve.closed:
            k = np.clip(i + k, 0, n - 1) - i
        j = (i + k) % n
        delta = (zeta - k * ds)[:, None]
        pos = pts[j] + delta * d1[j] + 0.5 * delta**2 * d2[j] + delta**3 / 6.0 * d3[j]
        tan = d1[j] + delta * d2[j] + 0.5 * delta**2 * d3[j]
        return pos, tan

    u = np.linspace(np.log(opts.epsilon), np.log(opts.outer), opts.quadrature_n)
    total = np.zeros(3)
    for sign in (1.0, -1.0):
        zeta = sign * np.exp(u)
        pos, tan = eval_curve(zeta)
        rel = pts[i] - pos
        dist = np.linalg.norm(rel, axis=1)
        integrand = np.cross(tan, rel) / dist[:, None] ** 3
        # d zeta = zeta du on each branch; the branch orientation cancels the sign
        weights = np.exp(u)
        total += np.trapezoid(integrand * weights[:, None], u, axis=0)
    if not np.isfinite(total).all():
        raise ValueError("the cutoff integral is not finite")
    return total
