"""Two-sublevel triplet population kinetics at zero field.

The photoexcited triplet decays from its T_x and T_z sublevels with
depopulation rates k_x and k_z while spin-lattice relaxation exchanges
population between them at rate w_xz.  The T_y sublevel is treated as a
spectator: its population enters only the normalization of the initial
state.  The populations obey

    d/dt [N_x]   [-(w + k_x)   w       ] [N_x]
         [N_z] = [ w          -(w + k_z)] [N_z]

and the zero-field EPR signal is proportional to N_x - N_z, which is a
biexponential in time.  Everything here is closed-form; a numerical
integrator is used only as a cross-check in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .trace import TimeTrace

# Relative eigenvalue gap below which the confluent (degenerate) branch
# is used to avoid catastrophic cancellation in sinh(r t)/r.
DEGENERATE_GAP = 1e-6


@dataclass(frozen=True)
class TripletRateModel:
    """Rates and initial populations of the x/z sublevel pair.

    Populations are dimensionless and must sum to one across all three
    sublevels.  Rates are in s^-1 and must be non-negative.
    """

    n_x0: float
    n_y0: float
    n_z0: float
    k_x: float
    k_z: float
    w_xz: float

    def __post_init__(self):
        total = self.n_x0 + self.n_y0 + self.n_z0
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(
                f"initial populations must sum to 1 within 1e-9, got {total!r}")
        if min(self.n_x0, self.n_y0, self.n_z0) < 0:
            raise InvalidInputError("initial populations must be >= 0")
        if min(self.k_x, self.k_z, self.w_xz) < 0:
            raise InvalidInputError("rates must be >= 0")

    def rate_matrix(self):
        """The 2x2 coefficient matrix acting on (N_x, N_z)."""
        w = self.w_xz
        return np.array([[-w - self.k_x, w],
                         [w, -w - self.k_z]])


# Default initial populations: x and z read off the measured inversion
# expression (0.6 - 0.19)/(0.6 + 0.19), y fixed by normalization.
DEFAULT_POPULATIONS = (0.6, 0.21, 0.19)


def _sinhc(x):
    """sinh(x)/x, series-expanded near zero. Vectorized."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-5
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 1.0 + xs * xs / 6.0 + xs ** 4 / 120.0
    xl = x[~small]
    out[~small] = np.sinh(xl) / xl
    return out


def _eigen_split(model):
    """(w, dk, s, r) of the rate matrix written as -s I + [[-dk, w], [w, dk]].

    s = w + (k_x + k_z)/2, dk = (k_x - k_z)/2 and r = hypot(w, dk), so
    the eigenvalues are -s -+ r.
    """
    w = model.w_xz
    dk = 0.5 * (model.k_x - model.k_z)
    return w, dk, w + 0.5 * (model.k_x + model.k_z), math.hypot(w, dk)


def eigenrates(model):
    """Both eigenvalues of the rate matrix, (alpha_minus, alpha_plus).

    alpha_pm = -(w + (k_x + k_z)/2) +- sqrt(w^2 + ((k_x - k_z)/2)^2),
    ordered alpha_minus <= alpha_plus.
    """
    _, _, s, r = _eigen_split(model)
    return -s - r, -s + r


def evolve_populations(model, t_grid):
    """Closed-form (N_x(t), N_z(t)) on an increasing time grid.

    Writing the rate matrix as -s*I + P with s = w + (k_x + k_z)/2 and
    P symmetric traceless (eigenvalues +-r), the propagator is

        exp(M t) = exp(-s t) [cosh(r t) I + t sinhc(r t) P]

    which remains exact in the degenerate limit r -> 0 because
    sinhc(0) = 1 (no special casing of the confluent t*exp(alpha t)
    term is needed beyond the series branch of sinhc).

    Returns
    -------
    n_x, n_z : ndarray
        Sublevel populations at each grid time.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise InvalidInputError("t_grid must be a non-empty 1-D array")
    if t[0] < 0:
        raise InvalidInputError("t_grid must start at t >= 0")
    if len(t) > 1 and not np.all(np.diff(t) > 0):
        raise InvalidInputError("t_grid must be strictly increasing")

    w, dk, s, r = _eigen_split(model)
    decay = np.exp(-s * t)
    ch = np.cosh(r * t)
    tsh = t * _sinhc(r * t)    # sinh(r t)/r, exact at r = 0

    # P = [[-dk, w], [w, dk]]
    n_x = decay * (ch * model.n_x0 + tsh * (-dk * model.n_x0 + w * model.n_z0))
    n_z = decay * (ch * model.n_z0 + tsh * (w * model.n_x0 + dk * model.n_z0))
    return n_x, n_z


def difference_coefficients(model):
    """Amplitudes (A, B) of N_x - N_z = A exp(alpha_minus t) + B exp(alpha_plus t).

    In the (u, v) = (N_x - N_z, N_x + N_z) basis the eigenvector
    projection is q = (w u0 + dk v0)/r, and A = (u0 + q)/2 pairs with
    the fast eigenvalue alpha_minus, B = (u0 - q)/2 with alpha_plus.

    Raises for the degenerate case r = 0, where the difference signal
    is not a sum of two distinct exponentials.
    """
    w, dk, s, r = _eigen_split(model)
    am, ap = -s - r, -s + r
    if r == 0.0 or (ap - am) < DEGENERATE_GAP * abs(am):
        raise InvalidInputError(
            "degenerate eigenvalues: difference signal is not biexponential")
    u0 = model.n_x0 - model.n_z0
    v0 = model.n_x0 + model.n_z0
    q = (w * u0 + dk * v0) / r
    return 0.5 * (u0 + q), 0.5 * (u0 - q)


def equivalent_model(model, w_new):
    """A distinct model producing the identical difference signal.

    The difference trace N_x - N_z determines only the eigenvalue pair
    and the eigenvector projection of the initial state, so the
    spin-lattice rate cannot be separated from the depopulation rates.
    Given any w_new in (0, r] this constructs the other member of the
    degenerate family: same (alpha_minus, alpha_plus), same (A, B).

    Raises InvalidInputError if w_new is outside the family or the
    implied populations fall outside [0, 1].
    """
    w, dk, s, r = _eigen_split(model)
    if not 0.0 < w_new <= r:
        raise InvalidInputError(f"w_new must lie in (0, {r!r}]")
    dk_new = math.sqrt(max(r * r - w_new * w_new, 0.0))
    k_avg_new = s - w_new
    k_x_new = k_avg_new + dk_new
    k_z_new = k_avg_new - dk_new
    if k_z_new < 0:
        raise InvalidInputError("family member has negative k_z")
    u0 = model.n_x0 - model.n_z0
    v0 = model.n_x0 + model.n_z0
    q = (w * u0 + dk * v0) / r
    if dk_new == 0.0:
        raise InvalidInputError("w_new = r gives dk = 0; v0 unconstrained")
    v0_new = (q * r - w_new * u0) / dk_new
    n_x0 = 0.5 * (v0_new + u0)
    n_z0 = 0.5 * (v0_new - u0)
    n_y0 = 1.0 - n_x0 - n_z0
    if min(n_x0, n_z0, n_y0) < 0:
        raise InvalidInputError("family member has unphysical populations")
    return TripletRateModel(n_x0=n_x0, n_y0=n_y0, n_z0=n_z0,
                            k_x=k_x_new, k_z=k_z_new, w_xz=w_new)


def combined_rate_from_eigen(alpha_minus, alpha_plus):
    """Combined depopulation rate -(alpha_minus + alpha_plus)/2.

    For the two-sublevel model this equals w_xz + (k_x + k_z)/2, the
    single number the decaying EPR envelope constrains.

    Returns
    -------
    rate : float
        Combined rate in s^-1.
    decay_time : float
        Its reciprocal in seconds.
    """
    if alpha_minus >= 0 or alpha_plus >= 0:
        raise InvalidInputError(
            f"eigen-rates must both be negative, got ({alpha_minus!r}, {alpha_plus!r})")
    rate = -0.5 * (alpha_minus + alpha_plus)
    return rate, 1.0 / rate


@dataclass(frozen=True)
class BiexpFit:
    """Result of a biexponential fit A e^(a- t) + B e^(a+ t).

    Rates are negative (both components decay) and ordered
    alpha_minus <= alpha_plus.  Uncertainties are one-sigma values from
    the linearized covariance; zero when not available.
    """

    A: float
    B: float
    alpha_minus: float
    alpha_plus: float
    A_err: float = 0.0
    B_err: float = 0.0
    alpha_minus_err: float = 0.0
    alpha_plus_err: float = 0.0

    def __post_init__(self):
        if not (self.alpha_minus <= self.alpha_plus < 0):
            raise InvalidInputError(
                "require alpha_minus <= alpha_plus < 0, got "
                f"({self.alpha_minus!r}, {self.alpha_plus!r})")


def predicted_trepr_signal(fit, t_grid):
    """Evaluate the biexponential model on a grid, as a dimensionless trace."""
    t = np.asarray(t_grid, dtype=float)
    y = fit.A * np.exp(fit.alpha_minus * t) + fit.B * np.exp(fit.alpha_plus * t)
    return TimeTrace(t, y, "dimensionless")


def zero_crossing_time(fit):
    """Time where the biexponential changes sign, or None if it never does.

    Solves A exp(a- t) = -B exp(a+ t) for t, which requires A and B to
    have opposite signs.
    """
    if fit.A == 0 or fit.B == 0 or math.copysign(1, fit.A) == math.copysign(1, fit.B):
        return None
    return math.log(-fit.B / fit.A) / (fit.alpha_minus - fit.alpha_plus)
