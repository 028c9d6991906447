"""Discrete joint prior on (Sigma, B) and its scalar-channel functionals.

The latent pair is Sigma ~ Bernoulli(rho) and B | Sigma drawn from a finite
atom list.  Everything downstream (denoisers, their derivatives, the scalar
mmse curves and the scalar-channel mutual information) is an exact sum over
the joint atoms combined with Gauss-Hermite quadrature over the Gaussian
observation noise.

Channel conventions
-------------------
A "sigma channel" observation is x = eta * Sigma + nu * Z and a "B channel"
observation is y = B + tau * Z'.  Degenerate parameters are interpreted as:

* nu == 0 and eta == 0: the sigma factor carries no information and is
  dropped from the posterior weights.
* nu == 0 and eta > 0:  exact conditioning; only atoms matching the
  observation within ``EXACT_TOL`` keep mass.
* tau == 0:             exact conditioning on B (same tolerance).
* tau == inf:           the B factor is uninformative and is dropped.

Posterior weights are always formed in the log domain (max-subtracted)
so high-SNR channels do not underflow.  The atom log-weights are
(log w - sigma-channel term) - B-channel term, each term formed by one
function (`_sigma_log_weights`, `_half_square`).  `_log_weights` joins them
for the denoisers; on the quadrature grid, the mmse pair and `scalar_mi`
share one construction (`_grid_log_weights`): a rank-2 matrix product of
the two sides' factors, each kept between calls, as a line search or a
state-evolution step moves one side.  The quadrature weight grid is cached
per prior and rule (`_weight_grid`).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannel, InconsistentObservation

EXACT_TOL = 1e-9

__all__ = [
    "PriorSpec",
    "ScalarChannelParams",
    "QuadratureRule",
    "joint_atoms",
    "denoise_sigma",
    "denoise_beta",
    "denoiser_partials",
    "mmse1",
    "mmse2",
    "mmse_pair",
    "scalar_mi",
    "spike_slab",
]


@dataclass(frozen=True)
class PriorSpec:
    """Joint law of (Sigma, B): Sigma ~ Bernoulli(rho), B | Sigma discrete.

    Parameters
    ----------
    rho : float
        P(Sigma = 1), must lie strictly inside (0, 1).
    atoms0, atoms1 : tuple of (value, prob)
        Conditional atoms of B given Sigma = 0 and Sigma = 1.  Probabilities
        within each list must sum to one.
    """

    rho: float
    atoms0: tuple[tuple[float, float], ...]
    atoms1: tuple[tuple[float, float], ...]
    s_max: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        object.__setattr__(self, "atoms0", tuple((float(v), float(p)) for v, p in self.atoms0))
        object.__setattr__(self, "atoms1", tuple((float(v), float(p)) for v, p in self.atoms1))
        for name, atoms in (("atoms0", self.atoms0), ("atoms1", self.atoms1)):
            if len(atoms) == 0:
                raise ValueError(f"{name} must be nonempty")
            probs = [p for _, p in atoms]
            if any(p < 0 for p in probs):
                raise ValueError(f"{name} has a negative probability")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError(f"{name} probabilities sum to {sum(probs)}, not 1")
        s_max = max(abs(v) for v, _ in self.atoms0 + self.atoms1)
        object.__setattr__(self, "s_max", s_max)

    def mean_b(self) -> float:
        return sum(w * b for _, b, w in joint_atoms(self))

    def second_moment_b(self) -> float:
        return sum(w * b * b for _, b, w in joint_atoms(self))


def spike_slab(rho: float, slab_values) -> PriorSpec:
    """Convenience constructor: P(.|0) = delta_0, P(.|1) uniform on slab_values."""
    vals = [float(v) for v in slab_values]
    return PriorSpec(rho=rho, atoms0=((0.0, 1.0),),
                     atoms1=tuple((v, 1.0 / len(vals)) for v in vals))


@dataclass(frozen=True)
class ScalarChannelParams:
    """Noise levels of the two scalar observation channels.

    eta, nu parameterize the sigma channel x = eta*Sigma + nu*Z;
    tau the B channel y = B + tau*Z'.  ``tau = inf`` marks an absent
    B observation.
    """

    eta: float
    nu: float
    tau: float

    def __post_init__(self):
        if self.eta < 0 or self.nu < 0:
            raise ValueError("eta and nu must be nonnegative")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative (inf allowed)")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights normalized to the standard normal measure.

    The nodes and weights are kept as read-only float copies, and a rule
    compares and hashes by its order and the bits of both arrays, so the
    kernels' caches can key on it: two rules share an entry exactly when
    they give the same values.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_key", (self.order, self.nodes.tobytes(),
                                          self.weights.tobytes()))

    def __eq__(self, other):
        return isinstance(other, QuadratureRule) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @classmethod
    def gauss_hermite(cls, order: int = 41) -> "QuadratureRule":
        nodes, weights = np.polynomial.hermite_e.hermegauss(order)
        weights = weights / weights.sum()
        return cls(nodes=nodes, weights=weights, order=order)


DEFAULT_QUAD = QuadratureRule.gauss_hermite(41)
# the lowest order the scalar-channel kernels (`mmse_pair`, `scalar_mi`) accept
MIN_QUAD_ORDER = 21


def joint_atoms(prior: PriorSpec) -> list[tuple[int, float, float]]:
    """Joint atom table [(sigma, b, weight)] of the (Sigma, B) law."""
    out = [(0, v, (1.0 - prior.rho) * p) for v, p in prior.atoms0]
    out += [(1, v, prior.rho * p) for v, p in prior.atoms1]
    return out


@functools.lru_cache(maxsize=64)
def _atom_arrays(prior: PriorSpec):
    """Read-only (sigma, b, weight) arrays of the joint atoms, cached per prior."""
    arrays = np.array(joint_atoms(prior), dtype=float).T.copy()
    arrays.flags.writeable = False
    return tuple(arrays)


class _Workspace(threading.local):
    """Per-thread memory of the kernels: one growing scratch array per role,
    and the quadrature grid's factors of the last channel of each side."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self.channels: dict = {}


_WORKSPACE = _Workspace()
WORKSPACE_MAX_BYTES = 4 << 20


def _scratch(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float array of `shape` for one temporary.

    Each thread keeps one flat array per role, grown to the largest size it
    has been asked for, and hands out its leading part.  The kernels below
    write their full-size temporaries into these with ``out=``, so repeated
    calls at one size allocate nothing: a fresh (K, K, Q, Q) temporary on
    every call made glibc trim the heap and fault the pages back in on the
    next call, which doubled the cost of a call.  Requests above
    WORKSPACE_MAX_BYTES get a fresh array, so a large call is not kept alive.
    The contents are valid until the next request for the same role in the
    same thread.
    """
    size = math.prod(shape)
    if 8 * size > WORKSPACE_MAX_BYTES:
        return np.empty(shape)
    buf = _WORKSPACE.arrays.get(role)
    if buf is None or buf.size < size:
        buf = _WORKSPACE.arrays[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _half_square(role: str, obs: np.ndarray, centre: np.ndarray, scale) -> np.ndarray:
    """0.5 * ((obs - centre) / scale) ** 2, (K,) + obs.shape, in the `role` scratch array."""
    out = _scratch(role, centre.shape[:1] + obs.shape)
    np.subtract(obs, centre, out=out)
    np.divide(out, scale, out=out)
    np.square(out, out=out)
    return np.multiply(0.5, out, out=out)


def _atom(v: np.ndarray, ndim: int) -> np.ndarray:
    """(K,) -> (K, 1, ..., 1): an atom vector against operands of `ndim` axes."""
    return v.reshape(v.shape + (1,) * ndim)


def _sigma_log_weights(x: np.ndarray, eta, nu, prior: PriorSpec) -> np.ndarray:
    """log w - sigma-channel term, the first half of the atom log-weights.

    Shape (K,) + x.shape in the "x_term" scratch array, or a (K, 1, ..., 1)
    broadcast of log w when the channel has no term (nu == 0).
    """
    sig, _, w = _atom_arrays(prior)
    logw = _atom(np.log(w), x.ndim)
    if nu == 0.0:
        return logw
    term = _half_square("x_term", x, _atom(eta * sig, x.ndim), nu)
    return np.subtract(logw, term, out=term)


def _exact_conditioning(logw, x, y, eta, nu, tau, prior: PriorSpec) -> np.ndarray:
    """logw with -inf at the atoms more than EXACT_TOL from an exact-conditioning
    channel's observation: x when nu == 0 < eta, y when tau == 0."""
    sig, b, _ = _atom_arrays(prior)
    if nu == 0.0 and eta != 0.0:
        logw = np.where(np.abs(x - _atom(eta * sig, x.ndim)) <= EXACT_TOL, logw, -np.inf)
    if tau == 0.0:
        logw = np.where(np.abs(y - _atom(b, y.ndim)) <= EXACT_TOL, logw, -np.inf)
    return logw


def _log_weights(x, y, eta, nu, tau, prior: PriorSpec) -> np.ndarray:
    """The denoisers' log posterior weights over joint atoms, (K,) + broadcast(x, y).

    For arrays x = eta*Sigma + nu*Z and y = B + tau*Z' of one ndim.
    The atom sits on the leading axis, where numpy reduces fastest; the order
    (log w - x term) - y term fixes the rounding that the naive references
    of tests/test_priors.py pin, and `_grid_log_weights` keeps it on the
    quadrature grid.  Constants common to all atoms are omitted.  The result
    lives in the workspace (see `_scratch`), or is a read-only broadcast of
    the log prior weights when no channel has a term.
    """
    _, b, w = _atom_arrays(prior)
    full = w.shape + np.broadcast(x, y).shape
    logw = _sigma_log_weights(x, eta, nu, prior)
    if tau != 0.0 and not math.isinf(tau):
        term = _half_square("y_term", y, _atom(b, x.ndim), tau)
        logw = np.subtract(logw, term, out=_scratch("logw", full))
    logw = _exact_conditioning(logw, x, y, eta, nu, tau, prior)
    # a broadcast view of a full-size array would make the callers' in-place
    # updates copy their input first
    return logw if logw.shape == full else np.broadcast_to(logw, full)


def _posterior(x, y, ch: ScalarChannelParams, prior: PriorSpec) -> np.ndarray:
    """Normalized posterior atom probabilities of `_log_weights`, shape broadcast(x, y) + (K,)."""
    return _normalized(_log_weights(x, y, ch.eta, ch.nu, ch.tau, prior))


def _normalized(logw: np.ndarray) -> np.ndarray:
    """Posterior atom probabilities of log-weights whose leading axis is the atom's.

    The weights are normalized over that axis and written straight into a
    contiguous (..., K) array, so the `post @ v` products of the callers see
    the same operand as a last-axis build.  Every full-size temporary, and
    the result, is a workspace array (see `_scratch`): the caller must be
    done with the result before its thread calls another kernel of this
    module.
    """
    mx = np.max(logw, axis=0, out=_scratch("grid", logw.shape[1:]))
    if np.any(np.isneginf(mx)):
        raise InconsistentObservation("inconsistent observation")
    w = np.subtract(logw, mx, out=_scratch("logw", logw.shape))
    np.exp(w, out=w)
    total = np.sum(w, axis=0, out=mx)
    post = _scratch("post", w.shape[1:] + w.shape[:1])
    np.divide(w, total, out=np.moveaxis(post, -1, 0))
    return post


def denoise_sigma(x, y, ch: ScalarChannelParams, prior: PriorSpec):
    """Posterior mean E[Sigma | sigma-channel obs x, B-channel obs y].

    Accepts scalars or arrays (broadcast together); the result lies in [0, 1].
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    post = _posterior(x, y, ch, prior)
    sig, _, _ = _atom_arrays(prior)
    out = np.clip(post @ sig, 0.0, 1.0)     # guard 1-ulp round-off excursions
    return float(out) if scalar else out


def denoise_beta(x, y, ch: ScalarChannelParams, prior: PriorSpec):
    """Posterior mean E[B | B-channel obs x, sigma-channel obs y].

    Note the positional convention: the B observation comes first.
    The result lies in [-s_max, s_max].
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    post = _posterior(y, x, ch, prior)  # engine takes (sigma-obs, B-obs)
    _, b, _ = _atom_arrays(prior)
    out = np.clip(post @ b, -prior.s_max, prior.s_max)
    return float(out) if scalar else out


def _posterior_moments(x_sig, y_b, ch: ScalarChannelParams, prior: PriorSpec):
    """Posterior mean/var/cov of (Sigma, B) given channel observations."""
    post = _posterior(x_sig, y_b, ch, prior)
    sig, b, _ = _atom_arrays(prior)
    ms = post @ sig
    mb = post @ b
    vs = post @ (sig * sig) - ms * ms
    vb = post @ (b * b) - mb * mb
    cov = post @ (sig * b) - ms * mb
    return ms, mb, vs, vb, cov


def denoiser_partials(x, y, ch: ScalarChannelParams, prior: PriorSpec):
    """Analytic partial derivatives of both posterior-mean denoisers.

    The observation pair is shared: x is the sigma-channel observation and
    y the B-channel observation, so the tuple refers to f evaluated at
    (x, y) and zeta evaluated at (y, x).  Returns
    ``(df_dx, df_dy, dz_dx, dz_dy)``:

    * df_dx = d f / d(sigma-obs) = (eta / nu^2) * Var(Sigma | obs)
    * df_dy = d f / d(B-obs)     = (1 / tau^2) * Cov(Sigma, B | obs)
    * dz_dx = d zeta / d(B-obs)  = (1 / tau^2) * Var(B | obs)
    * dz_dy = d zeta / d(sigma-obs) = (eta / nu^2) * Cov(B, Sigma | obs)

    The derivative of a posterior mean with respect to a Gaussian-channel
    observation is (signal strength / noise variance) times the posterior
    covariance of the estimand with that channel's signal.
    """
    if ch.nu == 0.0 or ch.tau == 0.0:
        raise DegenerateChannel("derivative undefined at exact conditioning")
    scalar = np.isscalar(x) and np.isscalar(y)
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    _, _, vs, vb, cov = _posterior_moments(x, y, ch, prior)
    sig_gain = ch.eta / ch.nu**2
    b_gain = 0.0 if math.isinf(ch.tau) else 1.0 / ch.tau**2
    out = (sig_gain * vs, b_gain * cov, b_gain * vb, sig_gain * cov)
    if scalar:
        return tuple(float(v) for v in out)
    return out


@functools.lru_cache(maxsize=64)
def _weight_grid(prior: PriorSpec, quad: QuadratureRule, informative_sig: bool,
                 informative_b: bool) -> np.ndarray:
    """Read-only w * w_b * w_sig on (atom, z_b, z_sig), cached per prior, rule
    and which channels are present; an absent channel has one node of weight one."""
    _, _, w = _atom_arrays(prior)
    w_sig = quad.weights if informative_sig else np.ones(1)
    w_b = quad.weights if informative_b else np.ones(1)
    wgrid = w[:, None, None] * w_b[None, :, None] * w_sig[None, None, :]
    wgrid.flags.writeable = False
    return wgrid


def _mmse_channels(prior: PriorSpec, eta, nu, tau, quad: QuadratureRule):
    """(mmse_sigma, mmse_b) for channels x = eta*Sigma + nu*Z, y = B + tau*Z'.

    Exact atom sums outside, tensor Gauss-Hermite inside (`_grid_log_weights`
    at one tau).  Degenerate parameters follow the module conventions;
    fully uninformative channels reduce to the prior variances.
    """
    sig, b, _ = _atom_arrays(prior)
    logw, wgrid, _, _ = _grid_log_weights(prior, quad, eta, nu, (tau,))
    post = _normalized(logw[:, 0])

    def mse(v):
        err = np.matmul(post, v, out=_scratch("grid", wgrid.shape))
        np.subtract(v[:, None, None], err, out=err)
        np.square(err, out=err)
        return float(np.sum(np.multiply(wgrid, err, out=err)))

    return mse(sig), mse(b)


def _mu_xi_channels(mu: float, xi: float, Delta: float, kappa: float):
    if mu < 0 or xi < 0:
        raise ValueError("mu and xi must be nonnegative")
    if Delta <= 0 or kappa <= 0:
        raise ValueError("Delta and kappa must be positive")
    return math.sqrt(mu), 1.0, math.sqrt(Delta * (1.0 + xi) / kappa)


def mmse_pair(mu: float, xi: float, prior: PriorSpec, Delta: float, kappa: float,
              quad: QuadratureRule = DEFAULT_QUAD) -> tuple[float, float]:
    """(mmse1, mmse2) at one point, from a single quadrature pass."""
    if quad.order < MIN_QUAD_ORDER:
        raise ValueError(f"quadrature order must be at least {MIN_QUAD_ORDER}")
    eta, nu, tau = _mu_xi_channels(mu, xi, Delta, kappa)
    return _mmse_channels(prior, eta, nu, tau, quad)


def mmse1(mu: float, xi: float, prior: PriorSpec, Delta: float, kappa: float,
          quad: QuadratureRule = DEFAULT_QUAD) -> float:
    """E[(Sigma - E[Sigma | sqrt(mu)*Sigma + Z, B + sqrt(Delta(1+xi)/kappa)*Z'])^2]."""
    return mmse_pair(mu, xi, prior, Delta, kappa, quad)[0]


def mmse2(mu: float, xi: float, prior: PriorSpec, Delta: float, kappa: float,
          quad: QuadratureRule = DEFAULT_QUAD) -> float:
    """E[(B - E[B | B + sqrt(Delta(1+xi)/kappa)*Z, sqrt(mu)*Sigma + Z'])^2]."""
    return mmse_pair(mu, xi, prior, Delta, kappa, quad)[1]


def _channel_terms(build, *key) -> dict:
    """``build(*key)``, one side's factors, rebuilt only when key changes.

    Each thread keeps the factors of the last channel of each side
    (`_sigma_terms`: eta, nu; `_b_terms`: the taus), keyed by everything they
    depend on: the prior, the rule (by its bits, see `QuadratureRule`) and
    the channel.  A line search, fixed-point step or state-evolution step
    that moves one channel then forms only the side that moved.
    """
    last = _WORKSPACE.channels.pop(build, None)
    terms = last[1] if last is not None and last[0] == key else build(*key)
    _WORKSPACE.channels[build] = (key, terms)
    return terms


# The quadrature grid's full-size arrays are outer differences a[..., z_sig] - b[..., z_b]
# over the two node axes.  numpy runs such a broadcast subtract one short row
# at a time, so they are formed as the rank-2 products [1, -b] @ [[a], [1]] of
# a "subtrahend" (..., Q, 2) and a "minuend" (..., 2, Q) factor, one matmul
# over the stack.  Each entry is 1*a + (-b)*1: for finite a and b both
# products are exact, so the one rounding of their sum gives a - b bit for
# bit, whatever order or fused multiply-add the matrix product uses.

def _minuend(role: str, a: np.ndarray) -> np.ndarray:
    """[[a], [1]], (..., 2, Q), of a (..., 1, Q) array, in the `role` scratch array."""
    f = _scratch(role, a.shape[:-2] + (2, a.shape[-1]))
    f[..., :1, :] = a
    f[..., 1, :] = 1.0
    return f


def _subtrahend(role: str, b: np.ndarray) -> np.ndarray:
    """[1, -b], (..., Q, 2), of a (..., Q, 1) array, in the `role` scratch array."""
    f = _scratch(role, b.shape[:-1] + (2,))
    f[..., :1] = 1.0
    np.negative(b, out=f[..., 1:])
    return f


def _sigma_terms(prior: PriorSpec, quad: QuadratureRule, eta, nu) -> dict:
    """The sigma channel's factors, as minuends on (.., z_sig), one node if nu == 0.

    "lw" holds log w - the x term of every mixture atom m for the true atom
    k, on (m, 1, k, ., z_sig), and "num_a" (nu > 0) the x term of the true
    atom, on (k, ., z_sig).
    """
    sig, _, _ = _atom_arrays(prior)
    X = eta * sig[:, None, None] + nu * quad.nodes[None, None, :]
    terms = {"lw": _minuend("lw", _sigma_log_weights(X[None], eta, nu, prior))}
    if nu > 0:
        terms["num_a"] = _minuend("num_a", -0.5 * ((X - eta * sig[:, None, None]) / nu) ** 2)
    return terms


def _b_terms(prior: PriorSpec, quad: QuadratureRule, taus: tuple) -> dict:
    """The B channels' factors, as subtrahends on (.., z_b, .).

    "term" holds the y term of every mixture atom m for the true atom k, on
    (m, batch, k, z_b, .), and "num_y" the y term of the true atom, on
    (batch, k, z_b, .).  The taus are finite and positive, or one tau with
    no y term: 0 (exact conditioning) or inf (absent, with one node).
    """
    _, b, _ = _atom_arrays(prior)
    if taus in ((0.0,), (math.inf,)):
        nodes = 1 if math.isinf(taus[0]) else len(quad.nodes)
        return {"term": _subtrahend("term", np.zeros((len(b), 1, len(b), nodes, 1)))}
    tau = np.array(taus)[:, None, None, None]
    Y = b[:, None, None] + tau * quad.nodes[None, :, None]
    return {"term": _subtrahend("term", _half_square("y_term", Y, _atom(b, Y.ndim), tau)),
            "num_y": _subtrahend("num_y", 0.5 * ((Y - b[:, None, None]) / tau) ** 2)}


def _grid_log_weights(prior: PriorSpec, quad: QuadratureRule, eta, nu, taus: tuple):
    """Log-weights of every mixture atom m on the quadrature grid of each true
    atom k, (m, batch, k, z_b, z_sig), with the weight grid (k, z_b, z_sig)
    and both sides' factors.

    The one quadrature-grid kernel, of the mmse pair and `scalar_mi`: one
    matrix product joins the factors of `_channel_terms`' slots, and exact
    conditioning then masks the product, as the factors must stay finite.
    """
    sig_terms = _channel_terms(_sigma_terms, prior, quad, eta, nu)
    b_terms = _channel_terms(_b_terms, prior, quad, taus)
    s, a = b_terms["term"], sig_terms["lw"]
    logw = np.matmul(s, a, out=_scratch("logw", s.shape[:-1] + a.shape[-1:]))
    if nu == 0.0 or taus == (0.0,):
        # exact conditioning observes atom k itself; only one tau can be 0 (`_b_terms`)
        sig, b, _ = _atom_arrays(prior)
        logw = _exact_conditioning(logw, _atom(eta * sig, 2)[None], _atom(b, 2)[None],
                                   eta, nu, taus[0], prior)
    # an absent channel's one node has weight one
    return logw, _weight_grid(prior, quad, a.shape[-1] > 1, s.shape[-2] > 1), sig_terms, b_terms


def scalar_mi(mu: float, xi, prior: PriorSpec, Delta: float, kappa: float,
              quad: QuadratureRule = DEFAULT_QUAD):
    """Mutual information between (Sigma, B) and the pair of scalar observations.

    The observations are a = sqrt(mu)*Sigma + Z and
    y = B + sqrt(Delta(1+xi)/kappa)*eps with independent standard normals.
    Computed as the expectation of log [P(a,y|Sigma,B) / P(a,y)]: exact sums
    over atoms outside, quadrature over (Z, eps), and the mixture P(a,y) from
    the log-weights of every atom (`_grid_log_weights`, as for the mmse pair).

    ``xi`` is a float, which gives a float, or a 1-D array of values at the
    same mu, which gives an array.  A batch is a tau batch on a leading axis
    of Y and rounds each entry exactly as a call at that xi alone; the
    sigma-channel factors are formed once.  The (K, batch, K, Q, Q) mixture
    array lives in the workspace (see `_scratch`); keep batches small
    (`rs_potential` uses 10 at order 21, about 1.3 MB for six atoms).
    """
    if quad.order < MIN_QUAD_ORDER:
        raise ValueError(f"quadrature order must be at least {MIN_QUAD_ORDER}")
    xis = np.asarray(xi, dtype=float)
    if xis.ndim > 1:
        raise ValueError("xi must be a float or a 1-D array")
    taus = tuple(_mu_xi_channels(mu, x, Delta, kappa)[2] for x in xis.reshape(-1))
    eta, nu, _ = _mu_xi_channels(mu, 0.0, Delta, kappa)
    logw, wgrid, sig_terms, b_terms = _grid_log_weights(prior, quad, eta, nu, taus)

    # log of the mixture density over atoms m, on the leading axis of
    # (m, batch, k, z_b, z_sig), by max-subtracted log-sum-exp
    mx = np.maximum.reduce(logw, axis=0, out=_scratch("grid", logw.shape[1:]))
    np.subtract(logw, mx, out=logw)
    log_den = np.add.reduce(np.exp(logw, out=logw), axis=0, out=_scratch("grid2", mx.shape))
    np.add(mx, np.log(log_den, out=log_den), out=log_den)

    # conditional log-likelihood (constants cancel against the mixture),
    # written over the spent maximum
    terms = np.matmul(b_terms["num_y"], sig_terms["num_a"], out=mx)
    np.subtract(terms, log_den, out=terms)
    vals = np.multiply(wgrid, terms, out=terms).reshape(len(taus), -1).sum(axis=1)
    return float(vals[0]) if xis.ndim == 0 else vals
