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
function (`_sigma_log_weights`, `_half_square`).  `_log_weights` puts them
together for the denoisers and the mmse pair.  `scalar_mi` joins them as an
outer difference over the two node axes by one rank-2 matrix product, keeps
each side's factor between calls, as a line search in mu or xi repeats one
side, and takes a batch of B-channel scales tau on a leading axis.  The
quadrature weight grid is cached per prior and rule (`_weight_grid`).
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
    and the terms of `scalar_mi`'s last channel of each side."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self.channels: dict[str, tuple] = {}


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


def _sigma_log_weights(x: np.ndarray, eta, nu, prior: PriorSpec, role: str) -> np.ndarray:
    """log w - sigma-channel term, the first half of `_log_weights`.

    Shape (K,) + x.shape in the `role` scratch array, or a (K, 1, ..., 1)
    broadcast of log w when the channel is dropped (eta == nu == 0).
    """
    sig, _, w = _atom_arrays(prior)
    logw = _atom(np.log(w), x.ndim)
    if nu == 0.0:
        if eta != 0.0:
            match = np.abs(x - _atom(eta * sig, x.ndim)) <= EXACT_TOL
            logw = np.where(match, logw, -np.inf)
        # eta == nu == 0: factor dropped
    else:
        term = _half_square(role, x, _atom(eta * sig, x.ndim), nu)
        logw = np.subtract(logw, term, out=term)
    return logw


def _log_weights(x, y, eta, nu, tau, prior: PriorSpec) -> np.ndarray:
    """Log posterior weights over joint atoms, shape (K,) + broadcast(x, y).

    The module's one log-weight kernel, for x = eta*Sigma + nu*Z and
    y = B + tau*Z' with x and y of one ndim.  The atom sits on the leading
    axis, where numpy reduces fastest; each channel term is formed on its
    own operand's shape, and the order (log w - x term) - y term fixes the
    rounding that the naive references of tests/test_priors.py pin.
    `scalar_mi` forms the same two halves (`_sigma_log_weights`, then the
    y term by `_half_square`) and joins them by `_minuend`'s product.  Constants
    common to all atoms are omitted.  The result lives in the workspace (see
    `_scratch`), or is a read-only broadcast of the log prior weights when
    both channels are dropped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _, b, w = _atom_arrays(prior)
    full = w.shape + np.broadcast(x, y).shape
    logw = _sigma_log_weights(x, eta, nu, prior, "x_term")
    if tau == 0.0:
        match = np.abs(y - _atom(b, x.ndim)) <= EXACT_TOL
        logw = np.where(match, logw, -np.inf)
    elif not math.isinf(tau):
        term = _half_square("y_term", y, _atom(b, x.ndim), tau)
        out = _scratch("logw", full)
        if logw.shape != full:
            # a subtract of two operands that broadcast against each other
            # runs one short inner loop per row; the same a - b as a copy and
            # an in-place subtract runs in nearly flat passes
            np.copyto(out, logw)
            logw = out
        logw = np.subtract(logw, term, out=out)
    # tau == inf: factor dropped

    # a broadcast view of a full-size array would make the callers' in-place
    # updates copy their input first
    return logw if logw.shape == full else np.broadcast_to(logw, full)


def _posterior(x, y, ch: ScalarChannelParams, prior: PriorSpec) -> np.ndarray:
    """Normalized posterior atom probabilities, shape broadcast(x, y) + (K,).

    The weights are normalized over the leading atom axis of `_log_weights`
    and written straight into a contiguous (..., K) array, so the `post @ v`
    products of the callers see the same operand as a last-axis build.
    Every full-size temporary, and the result, is a workspace array (see
    `_scratch`): the caller must be done with the result before its thread
    calls another kernel of this module.
    """
    logw = _log_weights(x, y, ch.eta, ch.nu, ch.tau, prior)
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


def _grid(prior: PriorSpec, eta, nu, tau, quad: QuadratureRule):
    """The quadrature grid of `_mmse_channels`: (X, Y, wgrid) given the true atom.

    X = eta*sig + nu*z on (atom, 1, z_sig), Y = b + tau*z on (atom, z_b, 1)
    and the cached `_weight_grid` on (atom, z_b, z_sig).  An absent channel
    (nu == 0, or tau == inf) collapses to one node.
    """
    sig, b, _ = _atom_arrays(prior)
    informative_sig, informative_b = bool(nu > 0), not math.isinf(tau)
    z_sig = quad.nodes if informative_sig else np.zeros(1)
    z_b = quad.nodes if informative_b else np.zeros(1)
    X = eta * sig[:, None, None] + nu * z_sig[None, None, :]
    Y = b[:, None, None] + (tau if informative_b else 0.0) * z_b[None, :, None]
    return X, Y, _weight_grid(prior, quad, informative_sig, informative_b)


def _mmse_channels(prior: PriorSpec, eta, nu, tau, quad: QuadratureRule):
    """(mmse_sigma, mmse_b) for channels x = eta*Sigma + nu*Z, y = B + tau*Z'.

    Exact atom sums outside, tensor Gauss-Hermite inside (`_grid`).
    Degenerate parameters follow the module conventions; fully uninformative
    channels reduce to the prior variances.
    """
    sig, b, _ = _atom_arrays(prior)
    X, Y, wgrid = _grid(prior, eta, nu, tau, quad)
    post = _posterior(X, Y, ScalarChannelParams(eta=eta, nu=nu, tau=tau), prior)

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
    if quad.order < 21:
        raise ValueError("quadrature order must be at least 21")
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


def _channel_terms(side: str, key: tuple, build) -> dict:
    """`scalar_mi`'s terms of one side's channel, rebuilt only when key changes.

    Each thread keeps the terms of the last channel of each side ("sigma":
    eta, nu; "b": the taus), keyed by everything they depend on: the prior,
    the rule (by its bits, see `QuadratureRule`) and the channel.  A line
    search that moves only xi or only mu then forms only the side that moved.
    ``build()`` makes the terms on a miss.
    """
    last = _WORKSPACE.channels.pop(side, None)
    terms = last[1] if last is not None and last[0] == key else build()
    _WORKSPACE.channels[side] = (key, terms)
    return terms


# `scalar_mi`'s full-size arrays are outer differences a[..., z_sig] - b[..., z_b]
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


def _mi_sigma_terms(prior: PriorSpec, quad: QuadratureRule, eta: float, nu: float) -> dict:
    """The sigma channel's share of `scalar_mi`, as minuends on (.., z_sig).

    "lw" holds log w - the x term of every mixture atom m for the true atom
    k, on (m, 1, k, ., z_sig), and "num_a" the x term of the true atom, on
    (k, ., z_sig).  The weight grid rides along, as it depends only on the
    prior and the rule.
    """
    sig, _, _ = _atom_arrays(prior)
    X = eta * sig[:, None, None] + nu * quad.nodes[None, None, :]
    return {"lw": _minuend("mi_lw", _sigma_log_weights(X[None], eta, nu, prior, "x_term")),
            "num_a": _minuend("mi_num_a", -0.5 * ((X - eta * sig[:, None, None]) / nu) ** 2),
            "wgrid": _weight_grid(prior, quad, True, True)}


def _mi_b_terms(prior: PriorSpec, quad: QuadratureRule, taus: tuple) -> dict:
    """The B channels' share of `scalar_mi`, as subtrahends on (.., z_b, .).

    "term" holds the y term of every mixture atom m for the true atom k, on
    (m, batch, k, z_b, .), and "num_y" the y term of the true atom, on
    (batch, k, z_b, .).
    """
    _, b, _ = _atom_arrays(prior)
    tau = np.array(taus)[:, None, None, None]
    Y = b[:, None, None] + tau * quad.nodes[None, :, None]
    return {"term": _subtrahend("mi_term", _half_square("y_term", Y, _atom(b, Y.ndim), tau)),
            "num_y": _subtrahend("mi_num_y", 0.5 * ((Y - b[:, None, None]) / tau) ** 2)}


def scalar_mi(mu: float, xi, prior: PriorSpec, Delta: float, kappa: float,
              quad: QuadratureRule = DEFAULT_QUAD):
    """Mutual information between (Sigma, B) and the pair of scalar observations.

    The observations are a = sqrt(mu)*Sigma + Z and
    y = B + sqrt(Delta(1+xi)/kappa)*eps with independent standard normals.
    Computed as the expectation of log [P(a,y|Sigma,B) / P(a,y)]: exact sums
    over atoms outside, quadrature over (Z, eps), and the mixture P(a,y) from
    the log-weights of every atom, formed as `_log_weights` forms them.

    ``xi`` is a float, which gives a float, or a 1-D array of values at the
    same mu, which gives an array.  A batch is a tau batch on a leading axis
    of Y and rounds each entry exactly as a call at that xi alone; the
    sigma-channel terms are formed once.  The terms of each side's last
    channel are kept between calls (`_channel_terms`), as the factors whose
    product is the full-size (log w - x term) - y term (see `_minuend`).
    The (K, batch, K, Q, Q) mixture array lives in the workspace (see
    `_scratch`); keep batches small (`rs_potential` uses 10 at order 21,
    about 1.3 MB for six atoms).
    """
    if quad.order < 21:
        raise ValueError("quadrature order must be at least 21")
    xis = np.asarray(xi, dtype=float)
    if xis.ndim > 1:
        raise ValueError("xi must be a float or a 1-D array")
    taus = tuple(_mu_xi_channels(mu, x, Delta, kappa)[2] for x in xis.reshape(-1))
    eta, nu, _ = _mu_xi_channels(mu, 0.0, Delta, kappa)
    sig_terms = _channel_terms("sigma", (prior, quad, eta, nu),
                               lambda: _mi_sigma_terms(prior, quad, eta, nu))
    b_terms = _channel_terms("b", (prior, quad, taus), lambda: _mi_b_terms(prior, quad, taus))
    K, Q = sig_terms["lw"].shape[0], quad.order

    # log of the mixture density over atoms m, on the leading axis of
    # (m, batch, k, z_b, z_sig), by max-subtracted log-sum-exp
    logw = np.matmul(b_terms["term"], sig_terms["lw"],
                     out=_scratch("logw", (K, len(taus), K, Q, Q)))
    mx = np.maximum.reduce(logw, axis=0, out=_scratch("grid", logw.shape[1:]))
    np.subtract(logw, mx, out=logw)
    log_den = np.add.reduce(np.exp(logw, out=logw), axis=0, out=_scratch("grid2", mx.shape))
    np.add(mx, np.log(log_den, out=log_den), out=log_den)

    # conditional log-likelihood (constants cancel against the mixture),
    # written over the spent maximum
    terms = np.matmul(b_terms["num_y"], sig_terms["num_a"], out=mx)
    np.subtract(terms, log_den, out=terms)
    vals = np.multiply(sig_terms["wgrid"], terms, out=terms).reshape(len(taus), -1).sum(axis=1)
    return float(vals[0]) if xis.ndim == 0 else vals
