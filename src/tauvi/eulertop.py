"""Generalized Euler-top flow attached to the tau-function family.

The six real quantities (omega_1..3, omegabar_1..3) obey the coupled system

    omega1'    =  omega2 * omegabar3 / t      + (nu3-nu2) * omega1    / (t(t-1))
    omegabar1' =  omegabar2 * omega3 / t      - (nu3-nu2) * omegabar1 / (t(t-1))
    omega2'    =  omega1 * omega3 / (t(t-1))  - (nu3-nu1) * omega2    / t
    omegabar2' =  omegabar1 * omegabar3 / (t(t-1)) + (nu3-nu1) * omegabar2 / t
    omega3'    =  omegabar1 * omega2 / (1-t)
    omegabar3' =  omega1 * omegabar2 / (1-t)

on t in (0,1).  Along solutions seeded from the rotation coefficients of a
tau family, three quantities are conserved or pinned to closed form:

* sum_i omega_i * omegabar_i = -R2  (exactly);
* the 3x3 determinant identity det(V + diag(nu)) = mu1*mu2*mu3 where
  V = [[0, omega3, -omega2], [-omegabar3, 0, omega1],
  [omegabar2, -omegabar1, 0]] -- the *determinant itself* is monitored, which
  sidesteps any sign convention in its cubic expansion;
* omegabar1*omega2*omegabar3 + omega1*omegabar2*omega3 = t(t-1) f''(t) with f
  the logarithmic-derivative function of the family, and the three pair
  products omega_i*omegabar_i have closed forms in (f, f').

Integration uses an embedded Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic dense-output interpolant, so monitors can be
evaluated at arbitrary sample points without constraining the step sequence.
Each accepted step keeps its end points and stages, and builds the
interpolant's coefficients only when a sample first falls in it.
States, stages and interpolant coefficients are tuples of six Python floats.
One step (``_dp_step``) takes each stage sum in one pass over the components,
always in the same left-to-right order, and computes y_new once, as the
argument of the last stage; so a trajectory is reproducible bit for bit.
Builtin ``sum`` is not used for these sums, as Python 3.12 made it compensated
on floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .exactalg import RatFunc
from .painleve import f_from_tau0
from .taudet import TauFamily, det3, rotation_beta


Vec = Tuple[float, float, float, float, float, float]


class EulerTopError(Exception):
    pass


class PoleDetected(EulerTopError):
    """Step size collapsed: the trajectory is running into a movable pole."""

    def __init__(self, t_last: float):
        super().__init__(f"step size underflow near t = {t_last!r}")
        self.t_last = t_last


@dataclass
class EulerState:
    t: float
    omega: Tuple[float, float, float]
    omega_bar: Tuple[float, float, float]
    exact_omega: Optional[Tuple[Fraction, ...]] = None
    exact_omega_bar: Optional[Tuple[Fraction, ...]] = None

    def vector(self) -> Vec:
        return tuple(float(x) for x in (*self.omega, *self.omega_bar))


@dataclass(frozen=True)
class ConservedSet:
    """Targets for the three monitors, plus f for the closed-form products."""

    nu: Tuple[int, int, int]
    R2: int
    mu_product: Fraction
    f: RatFunc


def conserved_from_family(family: TauFamily) -> ConservedSet:
    p = family.params
    mu1, mu2, mu3 = p.mu
    return ConservedSet(
        nu=p.nu,
        R2=p.R2,
        mu_product=Fraction(mu1 * mu2 * mu3),
        f=f_from_tau0(family.tau0()),
    )


def rhs(t: float, y: Vec, nu: Sequence[int]) -> Vec:
    w1, w2, w3, b1, b2, b3 = y
    n1, n2, n3 = nu
    tt1 = t * (t - 1.0)
    return (
        w2 * b3 / t + (n3 - n2) * w1 / tt1,
        w1 * w3 / tt1 - (n3 - n1) * w2 / t,
        b1 * w2 / (1.0 - t),
        b2 * w3 / t - (n3 - n2) * b1 / tt1,
        b1 * b3 / tt1 + (n3 - n1) * b2 / t,
        w1 * b2 / (1.0 - t),
    )


def init_from_tau(family: TauFamily, t0: Fraction) -> EulerState:
    """Seed the flow from the rotation coefficients at rational t0, h = 1.

    At h = 1 the barred coefficients h^(nu_i - nu_j) * beta_ij of the flow
    equal beta_ij.

    Everything is computed in exact arithmetic first; the trace identity
    sum_i omega_i omegabar_i = -R2 is checked before rounding to floats.
    """
    t0 = Fraction(t0)
    if t0 in (0, 1):
        raise EulerTopError("t0 must avoid the fixed singularities 0 and 1")
    if family.det_T().is_zero:
        raise EulerTopError(f"tau0 vanishes for nu={family.params.nu}")

    def beta(i, j):
        return rotation_beta(family, i, j, t0=t0).constant_value()

    w3 = beta(1, 2)
    b3 = beta(2, 1)
    w2 = -beta(1, 3) / t0
    b2 = -beta(3, 1) / t0
    w1 = (1 - t0) * beta(2, 3) / t0
    b1 = (1 - t0) * beta(3, 2) / t0
    exact_w = (w1, w2, w3)
    exact_b = (b1, b2, b3)
    trace = sum(a * b for a, b in zip(exact_w, exact_b))
    if trace != -family.params.R2:
        raise EulerTopError(
            f"rotation-coefficient seed violates the trace identity: {trace}"
        )
    try:
        return EulerState(
            t=float(t0),
            omega=tuple(float(x) for x in exact_w),
            omega_bar=tuple(float(x) for x in exact_b),
            exact_omega=exact_w,
            exact_omega_bar=exact_b,
        )
    except OverflowError:
        raise EulerTopError("the exact seed does not fit in a float") from None


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


MAX_STEPS = 200000  # accepted plus rejected steps before integrate gives up


def _dp_step(stage_ts: Sequence[float], h: float, y: Vec, k1: Vec, nu: Sequence[int]):
    """One trial step of size h from y, where k1 = rhs(stage_ts[0], y): the
    stages (k1, ..., k7), y_new and the error estimate.

    Every component of a stage sum starts from 0 and adds its terms left to
    right, zero coefficients included, so signed zeros, inf and nan come out
    the same however the sums are written. y_new is the stage-7 argument.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _A[1:5]
    (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _A[5:]
    e1, e2, e3, e4, e5, e6, e7 = _E
    k2 = rhs(stage_ts[1], tuple(b + h * (0 + a21 * x1) for b, x1 in zip(y, k1)), nu)
    k3 = rhs(
        stage_ts[2],
        tuple(b + h * (0 + a31 * x1 + a32 * x2) for b, x1, x2 in zip(y, k1, k2)),
        nu,
    )
    k4 = rhs(
        stage_ts[3],
        tuple(
            b + h * (0 + a41 * x1 + a42 * x2 + a43 * x3)
            for b, x1, x2, x3 in zip(y, k1, k2, k3)
        ),
        nu,
    )
    k5 = rhs(
        stage_ts[4],
        tuple(
            b + h * (0 + a51 * x1 + a52 * x2 + a53 * x3 + a54 * x4)
            for b, x1, x2, x3, x4 in zip(y, k1, k2, k3, k4)
        ),
        nu,
    )
    k6 = rhs(
        stage_ts[5],
        tuple(
            b + h * (0 + a61 * x1 + a62 * x2 + a63 * x3 + a64 * x4 + a65 * x5)
            for b, x1, x2, x3, x4, x5 in zip(y, k1, k2, k3, k4, k5)
        ),
        nu,
    )
    y_new = tuple(
        b + h * (0 + a71 * x1 + a72 * x2 + a73 * x3 + a74 * x4 + a75 * x5 + a76 * x6)
        for b, x1, x2, x3, x4, x5, x6 in zip(y, k1, k2, k3, k4, k5, k6)
    )
    k7 = rhs(stage_ts[6], y_new, nu)
    err = tuple(
        h * (0 + e1 * x1 + e2 * x2 + e3 * x3 + e4 * x4 + e5 * x5 + e6 * x6 + e7 * x7)
        for x1, x2, x3, x4, x5, x6, x7 in zip(k1, k2, k3, k4, k5, k6, k7)
    )
    return (k1, k2, k3, k4, k5, k6, k7), y_new, err


def _dense(h: float, ks: Sequence[Vec]) -> Vec:
    """h * sum_j _D[j] * ks[j], in the order of the stage sums."""
    d1, d2, d3, d4, d5, d6, d7 = _D
    return tuple(
        h * (0 + d1 * x1 + d2 * x2 + d3 * x3 + d4 * x4 + d5 * x5 + d6 * x6 + d7 * x7)
        for x1, x2, x3, x4, x5, x6, x7 in zip(*ks)
    )


def _error_norm(err: Vec, y: Vec, y_new: Vec, tol: float) -> float:
    """RMS of err_i / (tol + tol * max(|y_i|, |y_new_i|)), squares summed left
    to right; a NaN wins the max, and a zero scale (tol = 0) admits no error."""
    acc = 0.0
    for e, a, b in zip(err, y, y_new):
        a, b = abs(a), abs(b)
        scale = tol + tol * (a if a >= b or a != a else b)
        if scale == 0.0:
            return math.inf
        q = e / scale
        acc += q * q
    return math.sqrt(acc / 6)


@dataclass
class _Segment:
    """One accepted step: its start, size, end points and stages.  The
    interpolant's coefficients are built on the first ``eval``, since
    ``monitor`` samples only a few of the segments."""

    t0: float
    h: float
    y: Vec
    y_new: Vec
    ks: Tuple[Vec, ...]

    @cached_property
    def rcont(self) -> Tuple[Vec, Vec, Vec, Vec, Vec]:
        y, h, ks = self.y, self.h, self.ks
        ydiff = tuple(b - a for a, b in zip(y, self.y_new))
        bspl = tuple(h * k - d for k, d in zip(ks[0], ydiff))
        r4 = tuple(d - h * k - b for d, k, b in zip(ydiff, ks[6], bspl))
        return (y, ydiff, bspl, r4, _dense(h, ks))

    def eval(self, t: float) -> Vec:
        theta = (t - self.t0) / self.h
        th1 = 1.0 - theta
        return tuple(
            r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))
            for r1, r2, r3, r4, r5 in zip(*self.rcont)
        )


@dataclass
class Trajectory:
    ts: List[float] = field(default_factory=list)
    ys: List[Vec] = field(default_factory=list)
    segments: List[_Segment] = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    def sample(self, t: float) -> Vec:
        lo, hi = sorted((self.ts[0], self.t_end))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise EulerTopError(f"sample point {t} outside [{lo}, {hi}]")
        if not self.segments:
            return self.ys[0]
        return self._segment_at(t).eval(t)

    def _segment_at(self, t: float) -> _Segment:
        """The first segment, along the direction of integration, whose span
        widened by 1e-12 at each end holds t; the last segment if none does.

        Segment i runs from ts[i] to ts[i + 1]. Along the direction, the test
        at a segment's far end fails and then holds, and the test at its near
        end holds and then fails; so the first segment that passes the far-end
        test, found by bisection over ts, is the answer if it passes the other.
        """
        ts = self.ts
        if ts[-1] >= ts[0]:
            j = bisect_left(ts, True, 1, key=lambda end: t <= end + 1e-12)
            hit = j < len(ts) and ts[j - 1] - 1e-12 <= t
        else:
            j = bisect_left(ts, True, 1, key=lambda end: end - 1e-12 <= t)
            hit = j < len(ts) and t <= ts[j - 1] + 1e-12
        return self.segments[j - 1] if hit else self.segments[-1]

    def final_state(self) -> Vec:
        return self.ys[-1]


def integrate(
    state: EulerState, nu: Sequence[int], t_end: float, tol: float = 1e-10
) -> Trajectory:
    """Adaptive DP5(4) integration from state.t to t_end.

    Raises ValueError for a t_end that is not finite and for a tol that is
    negative or not finite; tol = 0 admits no error, so no step is accepted.
    """
    tol = float(tol)
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    t = float(state.t)
    y = state.vector()
    direction = 1.0 if t_end >= t else -1.0
    traj = Trajectory(ts=[t], ys=[y])
    if t_end == t:
        return traj
    if t in (0.0, 1.0):  # where the vector field divides by zero
        raise PoleDetected(t)
    k1 = rhs(t, y, nu)
    h = direction * min(abs(t_end - t), 1e-3)
    facold = 1e-4
    expo1 = 0.2 - 0.04 * 0.75
    while (t_end - t) * direction > 0:
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise PoleDetected(t)
        if (t + h - t_end) * direction > 0:
            h = t_end - t
        stage_ts = [t + c * h for c in _C]
        if any(abs(s) < 1e-14 or abs(s - 1.0) < 1e-14 for s in stage_ts[1:]):
            h *= 0.5
            traj.n_rejected += 1
            continue
        ks, y_new, err = _dp_step(stage_ts, h, y, k1, nu)
        err = _error_norm(err, y, y_new, tol)
        if err <= 1.0:
            traj.segments.append(_Segment(t, h, y, y_new, ks))
            t += h
            y = y_new
            k1 = ks[6]  # first-same-as-last
            traj.ts.append(t)
            traj.ys.append(y)
            traj.n_steps += 1
            facold = max(err, 1e-4)
            fac = 0.9 * (1.0 / err if err > 0 else 1e10) ** expo1 * facold**0.04
            h *= min(5.0, max(0.2, fac))
        else:
            traj.n_rejected += 1
            fac = 0.9 * (1.0 / err) ** expo1
            h *= min(1.0, max(0.2, fac))
        if traj.n_steps + traj.n_rejected > MAX_STEPS:
            raise EulerTopError(f"step budget exhausted at t = {t}")
    return traj


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------


def monitor(
    traj: Trajectory, cons: ConservedSet, sample_ts: Sequence[float]
) -> dict:
    """Evaluate the three conservation monitors at the given sample points."""
    n1, n2, n3 = cons.nu
    f2 = cons.f.derivative("t").derivative("t")
    rows = []
    for t in sample_ts:
        w1, w2, w3, b1, b2, b3 = traj.sample(t)
        m1 = abs((w1 * b1 + w2 * b2 + w3 * b3) + cons.R2)
        mat = ((n1, w3, -w2), (-b3, n2, w1), (b2, -b1, n3))
        m2 = abs(det3(mat) - float(cons.mu_product))
        cubic = b1 * w2 * b3 + w1 * b2 * w3
        m3 = abs(cubic - t * (t - 1.0) * f2.eval_float({"t": t}))
        rows.append(
            {
                "t": t,
                "omega": (w1, w2, w3),
                "omega_bar": (b1, b2, b3),
                "monitors": (m1, m2, m3),
            }
        )
    maxima = tuple(
        max(r["monitors"][i] for r in rows) if rows else 0.0 for i in range(3)
    )
    return {"rows": rows, "max": maxima}


CSV_HEADER = (
    "t,omega1,omega2,omega3,omega_bar1,omega_bar2,omega_bar3,"
    "monitor1,monitor2,monitor3"
)


def monitor_csv(report: dict) -> str:
    lines = [CSV_HEADER]
    for r in report["rows"]:
        vals = (r["t"], *r["omega"], *r["omega_bar"], *r["monitors"])
        lines.append(",".join(format(v, ".17g") for v in vals))
    return "\n".join(lines) + "\n"
