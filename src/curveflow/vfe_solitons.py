"""Rigidly rotating solutions of the binormal flow.

A curve satisfying omega x Gamma = Gamma_s x Gamma_ss evolves by the
rigid rotation Gamma(t) = e^{t M} Gamma_0 with M the skew matrix of
omega.  Three profile families are generated here, all normalized to
unit angular speed:

* transverse: rotation about the y-axis, graph components
  (x, z(x), C1*x) with slope -z'/sqrt(1+C1^2+z'^2) = q(x),
  q = (1+C1^2)(x^2+2*C2)/2, solvable only while |q| < 1;
* x-axis: components (x, lambda*z(x), z(x)) where z obeys
  z'^2 = (4 - (1+lambda^2)^2 (z^2+2*C1)^2) / ((1+lambda^2)^3 (z^2+2*C1)^2),
  oscillating inside an admissible band of z^2;
* planar: the lambda = 0 reduction, emitted as (x, f(x), 0).

The x-axis and planar families go through one ``VfeRotatingSpec``, whose
``case`` picks the layout, and rotate about (+-1, 0, 0); the sign is
-sign(z0^2 + 2*C1), fixed along a profile because z^2 + 2*C1 cannot
cross zero without a vertical tangent.  Their band profile is in closed
form: z is a cn or +-a dn of a Jacobi argument u, and x(u) is a sum of
incomplete elliptic integrals E and F (DLMF 22.16, 19.2), inverted onto
the x grid by Newton steps and cut exactly at a vertical tangent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveFlowError
from .geometry import SampledCurve, _cross, _dot, _lagrange_d1_d2, segment_lengths


@dataclass(frozen=True)
class VfeRotatingSpec:
    case: str                      # "x-axis" | "planar", not the transverse family
    C1: float
    lam: float = 0.0
    sign: int = 1
    z0: float = 0.0
    x_range: tuple[float, float] = (0.0, 5.0)
    n: int = 1024

    def __post_init__(self):
        if self.case not in ("x-axis", "planar"):
            raise ValueError("case must be x-axis or planar")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")
        a, b = self.x_range
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError("x_range must be a finite nonempty interval")
        if not isinstance(self.n, (int, np.integer)) or self.n < 16:
            raise ValueError("n must be an integer of at least 16")
        if self.case == "planar" and self.lam != 0.0:
            raise ValueError("the planar profile is the lam = 0 case")


def z_bounds(lam: float, C1: float) -> tuple[float, float]:
    """Admissible open interval for z^2 in the x-axis/planar families."""
    # lam * lam, not lam**2: a float power raises OverflowError
    if not (np.isfinite(lam * lam) and np.isfinite(C1)):
        raise ValueError("lambda and C1 must be finite, with lambda^2 finite")
    p = 1.0 + lam**2
    hi = 2.0 / p - 2.0 * C1
    if hi <= 0.0:
        raise CurveFlowError("no-admissible-band", "2/(1+lambda^2) - 2*C1 <= 0")
    lo = max(0.0, -2.0 / p - 2.0 * C1)
    return lo, hi


def slope_radicand(z, lam: float, C1: float):
    """z'^2 as a function of z for the x-axis family."""
    p = 1.0 + lam**2
    w = np.asarray(z) ** 2 + 2.0 * C1
    return (4.0 - p**2 * w**2) / (p**3 * w**2)


def _band_profile(lam: float, C1: float, z0: float, sign: int,
                  x_range: tuple[float, float], n: int):
    """The oscillatory band profile (x, z, z') in closed form.

    With p = 1 + lambda^2, a^2 = 2/p - 2*C1, b^2 = 2/p + 2*C1 and
    phi = am(u, m): z = a cn u = a cos(phi), m = a^2/(a^2 + b^2), if
    b^2 > 0, else z = +-a dn u = +-a D, D^2 = 1 - m sin^2 phi, m = 1 + b^2/a^2
    (DLMF 22.16, 19.2).  x - x0 = X(phi) - X(phi0) with X = alpha E(phi|m)
    + beta F(phi|m), whose slope (alpha D^2 + beta)/D has the sign of
    w = z^2 + 2*C1.  Where w = 0 the profile turns vertical and is cut;
    with no such zero, X gains the same amount every pi.  On the
    separatrix m = 1 the variable is u (am u = gd u), and the tail z -> 0
    has no end.  A table and Newton steps on X invert x onto the grid.
    Refuses a start on w = 0, a tangent before the grid's second sample
    and a failed inversion.
    """
    # z0 * z0, not z0**2: a float power raises OverflowError
    if not np.isfinite(z0 * z0):
        raise ValueError("z0 must be finite, with z0^2 finite")
    lo, hi = z_bounds(lam, C1)
    if not lo <= z0**2 <= hi:
        raise CurveFlowError("outside-admissible-band",
                             f"z0^2 must lie in [{lo:g}, {hi:g}]")
    w0 = z0**2 + 2.0 * C1
    if w0 == 0.0:
        raise CurveFlowError("outside-admissible-band",
                             "initial value sits on the vertical-tangent locus")
    from scipy.special import ellipeinc, ellipkinc
    p, amp, (a, b) = 1.0 + lam**2, np.sqrt(hi), x_range
    b2 = 2.0 / p + 2.0 * C1
    m = hi / (hi + b2) if b2 > 0.0 else 1.0 - lo / hi
    cn = b2 > 0.0 and m < 1.0
    if cn:           # vertical where sin^2 phi = 1/(2m)
        alpha, beta, s_z = 2.0, -1.0, 1.0
        rise, run = np.sqrt(hi - z0**2), z0    # sin and cos of phi0, times a
        phi_t = np.arcsin(np.sqrt(0.5 / m)) if m >= 0.5 else None
    elif z0**2 == 0.0:  # in the band only on the separatrix: its fixed point
        return np.linspace(a, b, n), np.zeros(n), np.zeros(n), False
    else:            # vertical where sin^2 phi = 1/2
        alpha, beta, s_z = np.sqrt(p) * amp, 2.0 * C1 * np.sqrt(p) / amp, np.sign(z0)
        rise, run = np.sqrt(hi - z0**2), np.sqrt(z0**2 - lo)
        phi_t = np.pi / 4
    # dz/dphi has the sign of -s_z sin(phi), and dX/dphi that of w
    turn = -sign * s_z * np.sign(w0)
    phi0 = turn * np.arctan2(rise, run)
    # the branch ends at the first zero k*pi + phi_t of the slope that phi
    # meets; with none, the table spans one period
    phi_end = (phi0 + np.pi if phi_t is None
               else np.round(phi0 / np.pi - (w0 < 0.0) / 2) * np.pi + phi_t)

    def big_x(v):
        if m < 1.0:
            return alpha * ellipeinc(v, m) + beta * ellipkinc(v, m)
        return alpha * np.tanh(v) + beta * v

    def amplitude(v):      # sin, cos and D of am, and dX/dv
        if m < 1.0:
            s, c = np.sin(v), np.cos(v)
            d = np.sqrt(1.0 - m * s * s)
            return s, c, d, (alpha * d * d + beta) / d
        e = np.exp(-np.abs(v))         # sech v without overflow
        s, c = np.tanh(v), 2.0 * e / (1.0 + e * e)
        return s, c, c, alpha * c * c + beta

    v0, v_end = phi0, phi_end
    if m == 1.0:     # u = asinh(tan phi); past -pi/2 the tail, as long as x_range needs
        v0 = turn * np.arcsinh(rise / run)
        v_end = (ellipkinc(phi_end, 1.0) if abs(phi_end) < np.pi / 2
                 else v0 - (b - a + 2.0 * alpha) / -beta)
    grid = np.linspace(v0, v_end, max(n // 4, 16))
    table = big_x(grid)
    span = table[-1] - table[0]
    if not np.isfinite(span):
        raise CurveFlowError("profile-solve-failed", "non-finite branch length")
    truncated = phi_t is not None and a + span < b
    x_end = a + span if truncated else b
    # such a profile would spread all n samples over a sliver of x_range
    if x_end < a + (b - a) / (n - 1):
        raise CurveFlowError("outside-admissible-band", "vertical before the second sample")
    x = np.linspace(a, x_end, n)
    turns = np.floor((x - a) / span) if phi_t is None else 0.0
    target = table[0] + (x - a) - turns * span
    v = np.interp(target, table, grid)
    # the start and a vertical end are exact; Newton polishes the rest,
    # and once no sample moves by 1e-9 the next step would be rounding
    inner = slice(1, n - 1 if truncated else n)
    for _ in range(12):
        step = (big_x(v[inner]) - target[inner]) / amplitude(v[inner])[3]
        v[inner] -= step
        if np.abs(step).max() <= 1e-9:
            break
    else:
        raise CurveFlowError("profile-solve-failed", "x(phi) did not converge")
    if truncated:
        v[-1] = v_end
    s, c, d, _ = amplitude(v + turns * np.pi)
    # z and dz/du from sn, cn, dn; dx/du = alpha dn^2 + beta
    z, dz = (amp * c, -amp * s * d) if cn else (s_z * amp * d, -s_z * amp * m * s * c)
    z[0] = z0                          # where a cos(phi0) may round
    with np.errstate(divide="ignore"):     # dz/dx is infinite at a vertical end
        return x, z, dz / (alpha * d * d + beta), truncated


def xaxis_rotation_profile(spec: VfeRotatingSpec) -> SampledCurve:
    """Profile curve (x, lambda*z, z), or (x, z, 0) for a planar spec, about the x-axis."""
    x, z, _, _ = _band_profile(spec.lam, spec.C1, spec.z0, spec.sign, spec.x_range, spec.n)
    y, z = (z, np.zeros_like(x)) if spec.case == "planar" else (spec.lam * z, z)
    pts = np.column_stack([x, y, z])
    return SampledCurve(3, False, pts, label=f"{spec.case} rotating profile")


def xaxis_rotation_law(spec: VfeRotatingSpec) -> np.ndarray:
    """Unit-speed angular velocity (-sign(z0^2 + 2*C1), 0, 0) of the x-axis or planar profile."""
    return np.array([-np.sign(spec.z0**2 + 2.0 * spec.C1), 0.0, 0.0])


def planar_rotation_profile(C1: float, f0: float, x_range: tuple[float, float], n: int):
    """Planar profile (x, f(x), 0) plus its rotation law omega.

    The lambda = 0 reduction of the x-axis family; the emitted curve
    rotates out of its initial plane about (+-1, 0, 0).  The profile's other
    branch is ``VfeRotatingSpec("planar", ..., sign=-1)``.
    """
    spec = VfeRotatingSpec("planar", C1, z0=f0, x_range=x_range, n=n)
    return xaxis_rotation_profile(spec), xaxis_rotation_law(spec)


def transverse_rotation_profile(C1: float, C2: float,
                                x_range: tuple[float, float], n: int) -> SampledCurve:
    """Profile curve (x, z(x), C1*x) rotating about the y-axis (omega = e_y).

    The slope relation -z'/sqrt(1+C1^2+z'^2) = q with
    q = (1+C1^2)(x^2+2C2)/2 is solvable only while |q| < 1; the range is
    truncated at the first violation, which is found in closed form.
    """
    # C1 * C1, not C1**2: a float power raises OverflowError
    if not np.isfinite(C1 * C1):
        raise ValueError("C1 must be finite, with C1^2 finite")
    p = 1.0 + C1**2
    a, b = x_range

    def q_of(x):
        return 0.5 * p * (np.asarray(x) ** 2 + 2.0 * C2)

    margin = 1.0 - 1e-9
    if abs(q_of(a)) >= margin:
        raise CurveFlowError("unsolvable-slope", "|q| >= 1 at the range start")
    # |q| < margin exactly where lo2 < x^2 < hi2, so going right from a the
    # profile ends at -sqrt(lo2) on the left branch and at sqrt(hi2) otherwise
    lo2, hi2 = -2.0 * margin / p - 2.0 * C2, 2.0 * margin / p - 2.0 * C2
    b = min(b, -np.sqrt(lo2) if a < 0.0 and lo2 > 0.0 else np.sqrt(hi2))
    x = np.linspace(a, b, n)

    nodes, weights = np.polynomial.legendre.leggauss(5)

    def slope(xx):
        q = q_of(xx)
        return -q * np.sqrt(p / (1.0 - q**2))

    half = 0.5 * np.diff(x)
    mids = 0.5 * (x[:-1] + x[1:])
    samples = slope(mids[:, None] + half[:, None] * nodes[None, :])
    dz = half * (samples @ weights)
    z = np.concatenate([[0.0], np.cumsum(dz)])
    pts = np.column_stack([x, z, C1 * x])
    return SampledCurve(3, False, pts, label="transverse rotating profile")


TRANSVERSE_OMEGA = np.array([0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# residual and the rigid motion


def rotation_residual(curve: SampledCurve, omega) -> np.ndarray:
    """Per-sample norm of omega x Gamma - Gamma_s x Gamma_ss."""
    if curve.dimension != 3:
        raise ValueError("needs a space curve")
    omega = np.asarray(omega, dtype=float)
    h = segment_lengths(curve)
    d1, d2 = (d.T for d in _lagrange_d1_d2(curve.points, h, curve.closed))
    kb = _cross(d1, d2) / np.sqrt(_dot(d1, d1)) ** 3
    diff = _cross(omega[:, None], curve.points.T) - kb
    return np.sqrt(_dot(diff, diff))


def apply_rotation(curve: SampledCurve, omega, t: float) -> SampledCurve:
    """Rotate the curve rigidly by the angle |omega| t about the axis omega."""
    omega = np.asarray(omega, dtype=float)
    if not omega.any():
        return curve
    from scipy.spatial.transform import Rotation
    # scipy's Rotation.apply rejects a read-only array, so pass a copy
    return curve.with_points(Rotation.from_rotvec(omega * t).apply(np.array(curve.points)))
