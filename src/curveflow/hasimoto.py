"""The filament-function correspondence and the cubic Schrodinger side.

A space curve with curvature kappa and torsion tau maps to the complex
filament function psi = kappa * exp(i int tau ds).  Under the binormal
flow psi solves the cubic NLS

    (1/i) psi_t = psi_ss + (|psi|^2 + A) psi / 2,

where A(t) is a free real gauge.  This module provides the forward
transform, a Strang-splitting NLS integrator (spectral when periodic,
Crank-Nicolson with clamped ends otherwise), the inverse construction by
frame transport with one exact Magnus rotation per segment (Iserles,
Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta Numerica 2000),
the closed-form traveling kink, and the self-similar dilating filament family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveFlowError
from .geometry import FrenetData, SampledCurve, _tridiagonal_solver


@dataclass
class FilamentFunction:
    """Complex filament samples on a uniform arclength grid."""

    grid_start: float
    grid_step: float
    values: np.ndarray
    gauge_A: float = 0.0
    time: float = 0.0
    periodic: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size < 4:
            raise ValueError("values must be a 1-D array of at least 4 samples")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("filament values must be finite")
        if not all(map(math.isfinite, (self.grid_start, self.grid_step,
                                       self.gauge_A, self.time))):
            raise ValueError("grid_start, grid_step, gauge_A and time must be finite")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(self.n)


def hasimoto_transform(fr: FrenetData, gauge_A: float = 0.0) -> FilamentFunction:
    """psi = kappa exp(i int_0^s tau), phase integrated from the first sample.

    Planar data (torsion absent) maps to the real signed curvature.
    3-D data must have torsion defined everywhere.  Periodicity is set per NLS run.
    """
    s = fr.arclength
    steps = np.diff(s)
    ds = float(steps.mean())
    # chord lengths of a smooth curve vary by O((kappa ds)^2), so the
    # near-uniformity gate has to sit well above that
    if np.abs(steps - ds).max() > 1e-3 * ds:
        raise ValueError("transform needs a near-uniform arclength grid")
    if fr.torsion is None:
        values = fr.curvature.astype(complex)
    else:
        if fr.torsion_defined is not None and not np.all(fr.torsion_defined):
            raise CurveFlowError("frenet-degenerate",
                                 "torsion undefined somewhere; use frames instead")
        phase = np.concatenate(
            [[0.0], np.cumsum(0.5 * (fr.torsion[:-1] + fr.torsion[1:]) * steps)]
        )
        values = fr.curvature * np.exp(1j * phase)
    return FilamentFunction(0.0, ds, values, gauge_A)


# ---------------------------------------------------------------------------
# NLS stepping


def _dispersion(n: int, ds: float, dt: float, periodic: bool):
    """The step of psi_t = i psi_ss over dt, as a function of the values.

    Periodic: exact, in Fourier space.  Clamped: Crank-Nicolson with the
    endpoints held fixed, its implicit half factored here once for every step.
    """
    if periodic:
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=ds)
        factor = np.exp(-1j * k**2 * dt)
        return lambda values: np.fft.ifft(factor * np.fft.fft(values))
    c = 1j * dt / (2.0 * ds**2)
    # the implicit half as its sub-, main and super-diagonal
    d = np.full(n, 1.0 + 2.0 * c)
    d[0] = d[-1] = 1.0
    dl, du = np.full(n - 1, -c), np.full(n - 1, -c)
    dl[-1] = du[0] = 0.0
    solve = _tridiagonal_solver(dl, d, du)

    def crank_nicolson(values):
        # the right-hand side overwrites values, which each step owns
        values[1:-1] += c * (values[2:] - 2.0 * values[1:-1] + values[:-2])
        return solve(values)

    return crank_nicolson


def nlcse_step(psi: FilamentFunction, dt: float) -> FilamentFunction:
    """One Strang split step: half nonlinear, full dispersion, half nonlinear."""
    return nlcse_evolve(psi, dt, 1)


def nlcse_evolve(psi: FilamentFunction, dt: float, n_steps: int) -> FilamentFunction:
    """``n_steps`` Strang split steps of ``dt``.

    The phase turns psi by an angle set by |psi|, which it keeps, so each
    closing half-step and the next opening half merge into one phase over
    ``dt``; one step (``nlcse_step``) stays unmerged.  A result that is not
    finite raises ``ValueError`` when the ``FilamentFunction`` is built.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if n_steps == 0:
        return psi
    if not psi.periodic and dt > 10.0 * psi.grid_step**2:
        warnings.warn("accuracy-degraded: dt above 10*ds^2 in clamped mode",
                      RuntimeWarning, stacklevel=2)
    dispersion = _dispersion(psi.n, psi.grid_step, dt, psi.periodic)
    gauge, time = psi.gauge_A, psi.time
    vals = psi.values * np.exp(0.25j * dt * (np.abs(psi.values) ** 2 + gauge))
    for k in range(n_steps):
        vals = dispersion(vals)
        phase = 0.25j * dt if k == n_steps - 1 else 0.5j * dt
        vals = vals * np.exp(phase * (np.abs(vals) ** 2 + gauge))
        time += dt
    return FilamentFunction(psi.grid_start, psi.grid_step, vals, gauge, time,
                            psi.periodic)


def nlcse_residual(prev: FilamentFunction, now: FilamentFunction,
                   nxt: FilamentFunction) -> np.ndarray:
    """|(1/i) psi_t - psi_ss - (|psi|^2 + A) psi / 2| at interior samples.

    Time derivative by central difference across the three snapshots.
    psi_ss uses the 5-point fourth-order stencil: measuring an exact
    solution against a second-order one would report stencil truncation
    instead of the solution's defect.  The outer two samples per end
    are NaN (no centered stencil there), so the grid needs at least 5.
    """
    if not prev.n == now.n == nxt.n >= 5:
        raise ValueError("snapshots must share a grid of at least 5 samples")
    # the time difference is 0/0 where t +- dt rounds to t
    if not prev.time < now.time < nxt.time:
        raise ValueError("snapshot times must strictly increase")
    dt2 = nxt.time - prev.time
    v = now.values
    ds = now.grid_step
    out = np.full(now.n, np.nan)
    # a quotient or product past the largest double, or over a step whose
    # square is 0, reads inf or NaN, which the check below refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi_t = (nxt.values - prev.values) / dt2
        psi_ss = (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2]
                  + 16.0 * v[1:-3] - v[:-4]) / (12.0 * ds**2)
        out[2:-2] = np.abs(
            -1j * psi_t[2:-2] - psi_ss - 0.5 * (np.abs(v[2:-2]) ** 2 + now.gauge_A) * v[2:-2]
        )
    if not np.isfinite(out[2:-2]).all():
        raise ValueError("the residual overflows: |psi|^2 psi or a difference "
                         "quotient lies past the largest double")
    return out


# ---------------------------------------------------------------------------
# inverse construction by frame transport


@dataclass
class FrameState:
    """T, N + iB and position: shape (3,) in a seed, (n, 3) from ``reconstruct_frame``."""

    T: np.ndarray
    N_complex: np.ndarray
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))


def standard_seed() -> FrameState:
    return FrameState(
        T=np.array([1.0, 0.0, 0.0]),
        N_complex=np.array([0.0, 1.0, 1j]),
        position=np.zeros(3),
    )


def _renormalize(t: np.ndarray, nc: np.ndarray):
    t = t / np.linalg.norm(t)
    e1 = nc.real - np.dot(nc.real, t) * t
    e1 /= np.linalg.norm(e1)
    e2 = nc.imag - np.dot(nc.imag, t) * t - np.dot(nc.imag, e1) * e1
    e2 /= np.linalg.norm(e2)
    return t, e1 + 1j * e2


def _gauss_values(values: np.ndarray) -> np.ndarray:
    """psi at both Gauss points of each segment, shape (n - 1, 2): the cubic
    through the four nearest samples, the quadratic on the end segments."""
    u = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
    # Lagrange weights at u, for nodes 0, 1, 2 and for nodes -1, 0, 1, 2
    quadratic = np.array([(u - 1) * (u - 2) / 2, -u * (u - 2), u * (u - 1) / 2])
    cubic = np.array([-u * (u - 1) * (u - 2) / 6, (u + 1) * (u - 1) * (u - 2) / 2,
                      -(u + 1) * u * (u - 2) / 2, (u + 1) * u * (u - 1) / 6])
    out = np.empty((values.size - 1, 2), dtype=complex)
    out[0] = values[:3] @ quadratic
    out[1:-1] = np.lib.stride_tricks.sliding_window_view(values, 4) @ cubic
    # the last segment is the first one read backwards, and the Gauss pair
    # is symmetric about the segment's midpoint
    out[-1] = values[:-4:-1] @ quadratic[:, ::-1]
    return out


def reconstruct_frame(psi: FilamentFunction, seed: FrameState | None = None):
    """Transport (T, N+iB) along s via T_s = Re(conj(psi) Nc), Nc_s = -psi T.

    Each segment applies one exact rotation, the fourth-order Magnus step
    through its two Gauss points, so every frame is orthonormal to
    rounding.  Returns (curve, frames): positions by the corrected trapezoid
    rule, which adds h^2/12 (T'_j - T'_{j+1}) to each segment and so is fourth
    order (Euler-Maclaurin), and one FrameState whose fields hold a row per sample.
    """
    if seed is None:
        seed = standard_seed()
    t, nc = np.asarray(seed.T, dtype=float), np.asarray(seed.N_complex, dtype=complex)
    if max(abs(np.dot(t, t) - 1.0), abs(np.dot(nc, nc)), abs(np.dot(nc, nc.conj()) - 2.0),
           abs(np.dot(nc, t))) > 1e-6:
        raise CurveFlowError("bad-seed-frame", "seed violates frame invariants")
    h = psi.grid_step
    n = psi.n
    # with psi = a + ib the rows (T, N, B) obey Y' = [w]x Y, w = (0, b, -a);
    # the Magnus commutator term (sqrt 3 / 12) h^2 (w2 x w1) then has only
    # an x component, a2 b1 - a1 b2 = Im(conj(psi2) psi1)
    p1, p2 = _gauss_values(psi.values).T
    mean = 0.5 * h * (p1 + p2)
    omega = np.column_stack([(math.sqrt(3.0) / 12.0) * h**2 * (np.conj(p2) * p1).imag,
                             mean.imag, -mean.real])
    from scipy.spatial.transform import Rotation
    rotations = Rotation.from_rotvec(omega).as_matrix()
    rows = np.empty((n, 3, 3))
    t, nc = _renormalize(t, nc)
    rows[0] = t, nc.real, nc.imag
    for j in range(n - 1):
        np.matmul(rotations[j], rows[j], out=rows[j + 1])
    tangents = rows[:, 0]
    # T' = Re(conj(psi) (N + iB)) = a N + b B, for the end correction
    bend = psi.values.real[:, None] * rows[:, 1] + psi.values.imag[:, None] * rows[:, 2]

    positions = np.empty((n, 3))
    positions[0] = seed.position
    positions[1:] = seed.position + np.cumsum(
        0.5 * h * (tangents[:-1] + tangents[1:]) + (h * h / 12.0) * (bend[:-1] - bend[1:]),
        axis=0)
    curve = SampledCurve(3, False, positions)
    return curve, FrameState(tangents, rows[:, 1] + 1j * rows[:, 2], positions)


# ---------------------------------------------------------------------------
# the traveling kink


@dataclass(frozen=True)
class HasimotoSolitonSpec:
    nu: float
    tau0: float

    def __post_init__(self):
        # nu * nu, not nu**2: a float power raises OverflowError
        nu2 = self.nu * self.nu
        if not (self.nu > 0 and nu2 > 0 and math.isfinite(nu2 + self.tau0 * self.tau0)):
            raise ValueError("nu must be positive and tau0 finite, with nu^2 > 0 "
                             "and nu^2 + tau0^2 finite")

    @property
    def speed(self) -> float:
        return 2.0 * self.tau0

    @property
    def gauge_A(self) -> float:
        return 2.0 * (self.tau0**2 - self.nu**2)


def hasimoto_soliton(spec: HasimotoSolitonSpec, t: float, s_grid):
    """Closed-form curve and frame of the traveling kink at time t.

    The returned curve is exactly unit-speed in s; curvature is
    2 nu sech(eta) and torsion the constant tau0.
    """
    s = np.asarray(s_grid, dtype=float)
    nu, tau0 = spec.nu, spec.tau0
    # with the skew S = tau0/nu, the frame needs only mu = nu^2/q, mu S and
    # mu (1 - S^2) for q = nu^2 + tau0^2, which stay bounded where S^2 need not
    q = nu**2 + tau0**2
    mu, mu_s = nu**2 / q, nu * tau0 / q
    # far from the core eta or cosh(eta) overflows, where sech = 0 and
    # tanh = +-1 are the kink's values
    with np.errstate(over="ignore", invalid="ignore"):
        eta = nu * (s - 2.0 * tau0 * t)
        theta = tau0 * s + (nu**2 - tau0**2) * t
        sech = 1.0 / np.cosh(eta)
    if not np.isfinite(theta).all():
        raise ValueError("the kink's phase tau0 s + (nu^2 - tau0^2) t must be finite")
    tanh = np.tanh(eta)
    ph = np.exp(1j * theta)

    r = (2.0 * mu / nu) * sech
    x = s - (2.0 * mu / nu) * tanh
    yz = r * ph
    pts = np.column_stack([x, yz.real, yz.imag])

    t_x = 1.0 - 2.0 * mu * sech**2
    t_yz = -2.0 * sech * (mu * tanh - 1j * mu_s) * ph
    tangent = np.column_stack([t_x, t_yz.real, t_yz.imag])

    n_x = 2.0 * mu * sech * tanh
    n_yz = -(1.0 - 2.0 * (mu * tanh - 1j * mu_s) * tanh) * ph
    normal = np.column_stack([n_x, n_yz.real, n_yz.imag])

    b_x = 2.0 * mu_s * sech
    b_yz = 1j * ((nu**2 - tau0**2) / q - 2.0j * mu_s * tanh) * ph
    binormal = np.column_stack([b_x, b_yz.real, b_yz.imag])

    fr = FrenetData(
        arclength=s - s[0],
        tangent=tangent,
        normal=normal,
        curvature=2.0 * nu * sech,
        binormal=binormal,
        torsion=np.full(s.size, tau0),
        torsion_defined=np.ones(s.size, dtype=bool),
    )
    return SampledCurve(3, False, pts), fr


def hasimoto_soliton_filament(spec: HasimotoSolitonSpec, t: float, s_grid) -> FilamentFunction:
    """psi of the kink under the gauge A = 2(tau0^2 - nu^2) (no extra phase)."""
    s, ds = _grid_and_step(s_grid)
    # sech = 0 where eta or cosh(eta) overflows; FilamentFunction refuses the
    # NaN of a phase tau0 s past the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        eta = spec.nu * (s - 2.0 * spec.tau0 * t)
        values = 2.0 * spec.nu / np.cosh(eta) * np.exp(1j * spec.tau0 * s)
    return FilamentFunction(float(s[0]), ds, values, spec.gauge_A, t)


def _grid_and_step(grid) -> tuple[np.ndarray, float]:
    """The grid as floats and its step; a filament needs at least 4 uniform samples."""
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("the grid must be 1-D with at least 4 samples")
    steps = np.diff(x)
    # each sample is rounded at its own magnitude, so a linspace grid far
    # from 0 has steps that differ by a few ulps of |x|, not of the step
    tol = 1e-9 * steps[0] + 4.0 * np.spacing(np.abs(x).max())
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= tol)):
        raise ValueError("the grid must increase in equal steps")
    return x, float(steps[0])


# ---------------------------------------------------------------------------
# the dilating family


def dilating_filament(a: float, t: float, x_grid) -> FilamentFunction:
    """psi_a = (a/sqrt t) e^{i x^2/(4t)} with gauge_A = -a^2/t, for t > 0."""
    if t <= 0:
        raise CurveFlowError("at-singularity",
                             "the dilating filament degenerates at t <= 0")
    # a * a, not a**2: a float power raises OverflowError
    if not math.isfinite(a * a / t):
        raise ValueError("a and t must be finite, with a^2/t finite")
    x, ds = _grid_and_step(x_grid)
    # numpy forms the phase as x^2 * (1/(4t)), largest at max |x|
    m = float(np.abs(x).max())
    if not math.isfinite(m * m * (1.0 / (4.0 * t))):
        raise ValueError("the phase x^2/(4t) must be finite on the grid")
    values = (a / np.sqrt(t)) * np.exp(1j * x**2 / (4.0 * t))
    return FilamentFunction(float(x[0]), ds, values, -a**2 / t, t)
