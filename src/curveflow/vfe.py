"""Binormal (vortex filament) flow for space curves.

The velocity is gamma_s x gamma_ss = kappa B, which preserves arclength
pointwise; samples therefore track material points and resampling is a
near-identity cleanup.  Time stepping is classical RK4 (``_step``) under
the dispersive bound dt <= cfl * ds^2 on the shared driver in ``flow``,
with cfl at most ``STABILITY_FACTOR``.  With t- and t+ the unit chords on
either side of a sample and h- and h+ their lengths, the chord-slope
stencil's d1 x d2 is exactly 2 (t- x t+)/(h- + h+), which ``_binormal``
evaluates without forming d1 or d2; each stage takes its cross products on
contiguous spans (``_cross_next``).  The state is coordinate-major: the
velocity and the step return the (n, 3) transpose of a (3, n) array, which
the driver hands back as it is.  The velocity also gives the driver the
chord lengths it measured.  The first stage reuses the driver's velocity; the
others skip the guard's curvature.  A pinned end does not move.

Also here: residual checks for the curvature/torsion/frame evolution
laws, the tangent/time commutator, a rigid-motion fitter for detecting
screw motions, and a cutoff Biot-Savart integrator that exhibits the
log(1/eps) local-induction asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .errors import CurveFlowError
from .flow import FlowTrajectory, ScalarSeries, StepOptions, interior_frames
from .geometry import (
    SampledCurve,
    _cross_next,
    _dot,
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


def _binormal(p: np.ndarray, closed: bool, vel: np.ndarray):
    """Write 2 (t- x t+)/(h- + h+) into the moving samples of ``vel``.

    ``p`` and ``vel`` are coordinate-major, (3, n); a closed curve is padded
    with its wrap as ``_lagrange_d1_d2`` pads it.  Returns ``vel``, the unit
    chords and their lengths, padded alike; the lengths have the bits of
    ``chord_lengths``, plus the wrap in front on a closed curve.
    """
    if closed:
        p = np.concatenate([p[:, -1:], p, p[:, :1]], axis=1)
    seg = p[:, 1:] - p[:, :-1]
    h = np.sqrt(_dot(seg, seg))
    t = seg / h
    np.multiply(_cross_next(t)[:, :-1], 2.0 / (h[:-1] + h[1:]),
                out=vel[:, slice(None) if closed else slice(1, -1)])
    return vel, t, h


def _velocity(pts: np.ndarray, closed: bool):
    """The chord lengths, the binormal velocity and the curvature |d1 x d2| / |d1|^3
    the guard reads, from one pass over the chords.

    The velocity and the curvature are 0 at a pinned open end.
    """
    vel, t, h = _binormal(np.ascontiguousarray(pts.T), closed, np.zeros(pts.shape[::-1]))
    d1 = (h[:-1] * t[:, 1:] + h[1:] * t[:, :-1]) / (h[:-1] + h[1:])
    speed2 = _dot(d1, d1)
    kappa = np.sqrt(_dot(vel, vel))
    kappa[slice(None) if closed else slice(1, -1)] /= speed2 * np.sqrt(speed2)
    return h[1:] if closed else h, vel.T, kappa


def binormal_velocity(curve: SampledCurve) -> np.ndarray:
    """Discrete gamma_s x gamma_ss per sample (zero at pinned open ends)."""
    if curve.dimension != 3:
        raise ValueError("binormal flow needs a space curve")
    return _binormal(np.ascontiguousarray(curve.points.T), curve.closed,
                     np.zeros(curve.points.shape).T)[0].T


def _step_limits(h: np.ndarray, kappa: np.ndarray):
    unit = h.min() ** 2
    return unit, STABILITY_FACTOR * unit


def _step(pts, h, k1, closed, dt, last):
    """One classical Runge-Kutta step from the velocity ``k1`` at ``pts``.

    The stages run on the (3, n) coordinate-major state, where per-sample
    scalars broadcast along the contiguous axis.
    """
    def f(p):
        return _binormal(p, closed, np.zeros(p.shape))[0]

    p, k1 = np.ascontiguousarray(pts.T), np.ascontiguousarray(k1.T)
    k2 = f(p + 0.5 * dt * k1)
    k3 = f(p + 0.5 * dt * k2)
    k4 = f(p + dt * k3)
    # k1 + 2 k2 + 2 k3 + k4 in one buffer, summed left to right: the order fixes the bits
    acc = k1 + 2.0 * k2
    acc += 2.0 * k3
    acc += k4
    return np.add(p, np.multiply(acc, dt / 6.0, out=acc), out=acc).T


def _spec() -> flow.FlowSpec:
    # built per call, so a rebinding of _velocity or _step takes effect
    return flow.FlowSpec(dimension=3, velocity=_velocity, step_limits=_step_limits,
                         step=_step)


def evolve(curve: SampledCurve, opts: StepOptions) -> FlowTrajectory:
    """Run the binormal flow; stop reasons as in ``flow.evolve``."""
    return flow.evolve(curve, opts, _spec())


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
    excluded.
    """
    times, keep = interior_frames(traj, 3)
    frames = traj.frames
    n = frames[0].n
    closed = frames[0].closed

    data = [frenet(f) for f in frames]
    m = len(frames) - 2
    out = {k: np.full(m, np.nan) for k in ("kappa", "tau", "normal", "binormal")}
    skipped = np.zeros(m, dtype=bool)

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
        vel = _velocity(frames[k].points, closed)[1]
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
