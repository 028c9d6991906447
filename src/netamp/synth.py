"""Generative model: latents, Gaussian design, responses, SBM side graph.

One draw of the model produces

* sigma0 ~ iid Bernoulli(rho), beta0 | sigma0 from the prior atoms,
* Phi with iid N(0, 1/p) entries (columns of Phi/sqrt(kappa) have unit
  norm, which the message-passing normalization relies on),
* y = Phi beta0 + eps, eps ~ N(0, Delta),
* a symmetric simple graph with edge probability a_p/p inside the
  sigma0 = 1 community and b_p/p otherwise.

Randomness is split into named child streams (latents / design / noise /
graph / surrogate) of a single ``SeedSequence`` so replicates can run in
parallel without stream collisions and every artifact is reproducible
bit-for-bit from (params, seed).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .priors import PriorSpec

__all__ = [
    "ModelParams",
    "Dataset",
    "snr_to_ap",
    "ap_to_snr",
    "generate",
    "with_delta",
    "centered_adjacency_apply",
    "centered_product",
    "centered_adjacency_dense",
    "gaussian_surrogate",
    "save_dataset",
    "load_dataset",
]

# named RNG streams spawned from the dataset seed
_STREAM_LATENTS, _STREAM_DESIGN, _STREAM_NOISE, _STREAM_GRAPH, _STREAM_SURROGATE = range(5)

MAX_SURROGATE_P = 5000

# rows of the upper triangle whose uniforms the graph sampler draws in one call;
# 64 rows raised the figure2_sweep peak RSS by 0.8 MB, 16 rows ran as fast
_GRAPH_ROW_BLOCK = 16


def snr_to_ap(lam: float, b_p: float, p: int) -> float:
    """Within-community rate numerator a_p achieving graph SNR lam.

    Inverts the SNR calibration (a_p - b_p)/p = sqrt(lam*d(1-d)/p) with
    d = b_p/p, i.e. a_p = b_p + sqrt(lam * b_p * (1 - b_p/p)).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not 0 < b_p < p:
        raise ValueError("need 0 < b_p < p")
    a_p = b_p + math.sqrt(lam * b_p * (1.0 - b_p / p))
    if a_p > p:
        raise ValueError("supercritical SNR for given sparsity")
    return a_p


def ap_to_snr(a_p: float, b_p: float, p: int) -> float:
    """Graph SNR lam implied by the pair of edge-rate numerators."""
    if not 0 < b_p < p:
        raise ValueError("need 0 < b_p < p")
    d = b_p / p
    return (a_p - b_p) ** 2 / (p * d * (1.0 - d))


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one model instance."""

    n: int
    p: int
    Delta: float
    b_p: float
    a_p: float
    lam: float
    prior: PriorSpec
    design_dist: str = "gaussian"

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if self.Delta <= 0:
            raise ValueError("Delta must be positive")
        if not 0 < self.b_p < self.a_p or self.a_p > self.p:
            if not (self.lam == 0 and self.a_p == self.b_p):
                raise ValueError("need 0 < b_p < a_p <= p (or a_p == b_p at lam = 0)")
        if abs(ap_to_snr(self.a_p, self.b_p, self.p) - self.lam) > 1e-10:
            raise ValueError("lambda inconsistent with (a_p, b_p, p)")
        if self.design_dist not in ("gaussian", "bernoulli"):
            raise ValueError(f"unknown design_dist {self.design_dist!r}")

    @property
    def kappa(self) -> float:
        return self.n / self.p

    @classmethod
    def from_snr(cls, n: int, p: int, Delta: float, b_p: float, lam: float,
                 prior: PriorSpec, design_dist: str = "gaussian") -> "ModelParams":
        """Build params with a_p calibrated from the SNR."""
        a_p = snr_to_ap(lam, b_p, p) if lam > 0 else b_p
        return cls(n=n, p=p, Delta=Delta, b_p=b_p, a_p=a_p, lam=lam,
                   prior=prior, design_dist=design_dist)


@dataclass(frozen=True)
class Dataset:
    """One realization of the model; immutable after creation."""

    params: ModelParams
    seed: int
    sigma0: np.ndarray
    beta0: np.ndarray
    Phi: np.ndarray
    y: np.ndarray
    adjacency: sp.csr_array = field(repr=False)

    @property
    def d_bar(self) -> float:
        return self.params.b_p / self.params.p

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of i < j edges."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        return np.column_stack([coo.row[order], coo.col[order]])


def _sample_beta(rng: np.random.Generator, sigma0: np.ndarray, prior: PriorSpec) -> np.ndarray:
    beta = np.empty(sigma0.shape[0])
    for s, atoms in ((0, prior.atoms0), (1, prior.atoms1)):
        mask = sigma0 == s
        vals = np.array([v for v, _ in atoms])
        probs = np.array([p for _, p in atoms])
        beta[mask] = rng.choice(vals, size=int(mask.sum()), p=probs)
    return beta


def _sample_design(rng: np.random.Generator, n: int, p: int, dist: str) -> np.ndarray:
    scale = 1.0 / math.sqrt(p)
    if dist == "gaussian":
        return rng.standard_normal((n, p)) * scale
    # centered, variance-normalized iid Bernoulli(0.3)
    q = 0.3
    raw = (rng.random((n, p)) < q).astype(float)
    return (raw - q) / math.sqrt(q * (1 - q)) * scale


def _sample_graph(rng: np.random.Generator, sigma0: np.ndarray,
                  a_p: float, b_p: float) -> sp.csr_array:
    """Bernoulli edges over the upper triangle, built into the symmetric CSR."""
    return _symmetric_csr(sigma0.shape[0], _upper_rows(rng, sigma0, a_p, b_p))


def _upper_rows(rng: np.random.Generator, sigma0: np.ndarray, a_p: float, b_p: float):
    """Yield (edges per row, their columns) for each block of upper-triangle rows.

    Row i consumes p - 1 - i uniforms, one per pair (i, j > i) in order of
    j; the uniforms of a block of rows come from one ``rng.random`` call,
    which is the same stream as one call per row.  The block is compared
    with b_p/p at once, and each row with sigma0_i = 1 again with its own
    rates.  The columns are int32 when p fits.
    """
    p = sigma0.shape[0]
    pb = b_p / p
    row_prob = np.where(sigma0 == 1.0, a_p / p, pb)   # row i's rates when sigma0_i = 1
    col_dtype = sp.get_index_dtype(maxval=p)
    for start in range(0, p - 1, _GRAPH_ROW_BLOCK):
        stop = min(start + _GRAPH_ROW_BLOCK, p - 1)
        offsets = np.zeros(stop - start + 1, dtype=np.int64)   # row starts within the block
        np.cumsum(np.arange(p - 1 - start, p - 1 - stop, -1), out=offsets[1:])
        u = rng.random(int(offsets[-1]))
        hit = u < pb
        for k in np.flatnonzero(sigma0[start:stop] == 1.0):
            row = slice(offsets[k], offsets[k + 1])
            np.less(u[row], row_prob[start + k + 1:], out=hit[row])
        pos = np.flatnonzero(hit)
        n_row = np.diff(np.searchsorted(pos, offsets))
        # the hit at block offset o of row i is column i + 1 + o - offsets[i - start]
        shift = np.arange(start + 1, stop + 1) - offsets[:-1]
        yield n_row, (pos + np.repeat(shift, n_row)).astype(col_dtype)


def _symmetric_csr(p: int, blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> sp.csr_array:
    """A + A^T for the p x p 0/1 upper triangle A given by its rows.

    ``blocks`` yields (edges per row, their columns) for consecutive blocks
    of rows from row 0, the columns row after row and ascending within a
    row; rows past the last block have no edges.  Row i of A + A^T is its
    lower part, the rows k < i whose edges hit column i, followed by A's row
    i.  The lower parts are filled by scattering the rows in ascending
    order, so each comes out ascending and the arrays equal those of
    ``(A + A.T).tocsr()``, index dtype included.  Only the columns and the
    final arrays are ever held: the columns are dropped before the data
    array is made.
    """
    counts = np.zeros(p, dtype=np.int64)
    chunks = [np.empty(0, dtype=sp.get_index_dtype(maxval=p))]
    row = 0
    for n_row, block_cols in blocks:
        counts[row:row + n_row.size] = n_row
        row += n_row.size
        chunks.append(block_cols)
    cols = np.concatenate(chunks)
    del chunks
    nnz = 2 * cols.size
    idx_dtype = sp.get_index_dtype(maxval=max(p, nnz))
    indptr = np.zeros(p + 1, dtype=idx_dtype)
    np.cumsum(counts + np.bincount(cols, minlength=p), out=indptr[1:])
    indices = np.empty(nnz, dtype=idx_dtype)
    free = indptr[:-1].astype(np.intp)                 # next free lower slot of each row
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts).tolist():
        begin, end, row_end = int(ends[i] - counts[i]), int(ends[i]), int(indptr[i + 1])
        indices[row_end - (end - begin):row_end] = cols[begin:end]
        hits = cols[begin:end].astype(np.intp)         # one conversion for three fancy ops
        slots = free[hits]
        indices[slots] = i
        slots += 1
        free[hits] = slots
    del cols
    return sp.csr_array((np.ones(nnz), indices, indptr), shape=(p, p))


def _responses(Phi: np.ndarray, beta0: np.ndarray, seed: int, Delta: float) -> np.ndarray:
    """y = Phi beta0 + eps with eps ~ N(0, Delta) from the seed's noise stream."""
    rng_noise = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[_STREAM_NOISE])
    eps = rng_noise.standard_normal(Phi.shape[0]) * math.sqrt(Delta)
    return Phi @ beta0 + eps


def generate(params: ModelParams, seed: int) -> Dataset:
    """Draw one dataset; deterministic given (params, seed)."""
    streams = np.random.SeedSequence(seed).spawn(5)
    rng_lat = np.random.default_rng(streams[_STREAM_LATENTS])
    rng_des = np.random.default_rng(streams[_STREAM_DESIGN])
    rng_graph = np.random.default_rng(streams[_STREAM_GRAPH])

    p, n = params.p, params.n
    sigma0 = (rng_lat.random(p) < params.prior.rho).astype(float)
    beta0 = _sample_beta(rng_lat, sigma0, params.prior)
    Phi = _sample_design(rng_des, n, p, params.design_dist)
    y = _responses(Phi, beta0, seed, params.Delta)
    adj = _sample_graph(rng_graph, sigma0, params.a_p, params.b_p)
    return Dataset(params=params, seed=seed, sigma0=sigma0, beta0=beta0,
                   Phi=Phi, y=y, adjacency=adj)


def with_delta(dataset: Dataset, Delta: float) -> Dataset:
    """The same draw at noise level Delta: equal to generate(params at Delta, seed).

    Only the noise stream is redrawn; Phi, the graph, sigma0 and beta0 are
    the base draw's own arrays, shared rather than copied.
    """
    params = dataclasses.replace(dataset.params, Delta=Delta)
    y = _responses(dataset.Phi, dataset.beta0, dataset.seed, Delta)
    return dataclasses.replace(dataset, params=params, y=y)


def centered_product(dataset: Dataset, av: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The centered, scaled adjacency times v, from the sparse product av = A @ v.

    The centered matrix is (A - d) / sqrt(d (1 - d)) with d = b_p/p applied
    entrywise (diagonal included), so its product with v is A @ v minus the
    rank-one correction d * sum(v), scaled.  Every centered product, in
    `centered_adjacency_apply` and in the message-passing loop, is made here.
    """
    d = dataset.d_bar
    if d <= 0.0 or d >= 1.0:
        raise ZeroDivisionError("centered adjacency undefined for b_p in {0, p}")
    return (av - d * v.sum()) / math.sqrt(d * (1.0 - d))


def centered_adjacency_apply(dataset: Dataset, v: np.ndarray) -> np.ndarray:
    """Product of the centered, scaled adjacency with v, without densifying."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != dataset.params.p:
        raise DimensionMismatch("vector length does not match p")
    return centered_product(dataset, dataset.adjacency @ v, v)


def centered_adjacency_dense(dataset: Dataset) -> np.ndarray:
    """Dense centered adjacency, for small-p cross-checks only."""
    d = dataset.d_bar
    A = dataset.adjacency.toarray()
    return (A - d) / math.sqrt(d * (1.0 - d))


def gaussian_surrogate(sigma0: np.ndarray, lam: float, seed: int) -> np.ndarray:
    """Spiked GOE-type surrogate sqrt(lam/p) sigma0 sigma0^T + Z.

    Z is symmetric with off-diagonal N(0,1) and diagonal N(0,2) entries.
    """
    p = sigma0.shape[0]
    if p > MAX_SURROGATE_P:
        raise ValueError(f"p = {p} exceeds surrogate limit {MAX_SURROGATE_P}")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[_STREAM_SURROGATE])
    Z = rng.standard_normal((p, p))
    Z = (Z + Z.T) / math.sqrt(2.0)  # off-diag var 1, diag var 2
    return math.sqrt(lam / p) * np.outer(sigma0, sigma0) + Z


# ---------------------------------------------------------------------------
# disk round trip: text header + npy payloads + edge-list csv


def save_dataset(dataset: Dataset, out_dir) -> None:
    import os

    os.makedirs(out_dir, exist_ok=True)
    pr = dataset.params.prior
    lines = [
        "format = netamp-dataset-v1",
        f"seed = {dataset.seed}",
        f"n = {dataset.params.n}",
        f"p = {dataset.params.p}",
        f"Delta = {dataset.params.Delta!r}",
        f"b_p = {dataset.params.b_p!r}",
        f"a_p = {dataset.params.a_p!r}",
        f"lambda = {dataset.params.lam!r}",
        f"design_dist = {dataset.params.design_dist}",
        f"rho = {pr.rho!r}",
        f"atoms0 = {';'.join(f'{v!r}:{q!r}' for v, q in pr.atoms0)}",
        f"atoms1 = {';'.join(f'{v!r}:{q!r}' for v, q in pr.atoms1)}",
    ]
    with open(os.path.join(out_dir, "header.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    np.save(os.path.join(out_dir, "sigma0.npy"), dataset.sigma0)
    np.save(os.path.join(out_dir, "beta0.npy"), dataset.beta0)
    np.save(os.path.join(out_dir, "phi.npy"), dataset.Phi)
    np.save(os.path.join(out_dir, "y.npy"), dataset.y)
    np.savetxt(os.path.join(out_dir, "edges.csv"), dataset.edge_list(), fmt="%d",
               delimiter=",", header="i,j", comments="")


def load_dataset(in_dir) -> Dataset:
    """Read a directory written by `save_dataset`.

    A header that lacks a key, a payload whose shape does not follow from the
    header's n and p or that holds NaN or Inf, and an edge row that is not
    0 <= i < j < p or repeats a pair each raise a ValueError naming the file.
    """
    import os

    header = os.path.join(in_dir, "header.txt")
    kv = {}
    with open(header) as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
    if kv.get("format") != "netamp-dataset-v1":
        raise ValueError(f"unknown dataset format {kv.get('format')!r}")

    def value(key):
        if key not in kv:
            raise ValueError(f"{header} has no {key!r} line")
        return kv[key]

    def parse_atoms(s):
        return tuple(tuple(float(t) for t in pair.split(":")) for pair in s.split(";"))

    prior = PriorSpec(rho=float(value("rho")), atoms0=parse_atoms(value("atoms0")),
                      atoms1=parse_atoms(value("atoms1")))
    params = ModelParams(n=int(value("n")), p=int(value("p")), Delta=float(value("Delta")),
                         b_p=float(value("b_p")), a_p=float(value("a_p")),
                         lam=float(value("lambda")), prior=prior,
                         design_dist=value("design_dist"))
    seed = int(value("seed"))

    n, p = params.n, params.p

    def load_finite(name, shape):
        path = os.path.join(in_dir, name)
        arr = np.load(path)
        if arr.shape != shape:
            raise ValueError(f"{path} has shape {arr.shape}, not {shape} "
                             f"(header n = {n}, p = {p})")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path} holds NaN or Inf")
        return arr

    sigma0 = load_finite("sigma0.npy", (p,))
    beta0 = load_finite("beta0.npy", (p,))
    Phi = load_finite("phi.npy", (n, p))
    y = load_finite("y.npy", (n,))
    edges_path = os.path.join(in_dir, "edges.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # an edgeless graph's file has no rows
        edges = np.loadtxt(edges_path, dtype=np.int64, delimiter=",", skiprows=1,
                           ndmin=2).reshape(-1, 2)
    bad = np.flatnonzero((edges[:, 0] < 0) | (edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= p))
    if bad.size:
        i, j = edges[bad[0]]
        raise ValueError(f"{edges_path}: edge ({i}, {j}) is not 0 <= i < j < p = {p}")
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    repeated = np.flatnonzero(np.all(edges[1:] == edges[:-1], axis=1))
    if repeated.size:
        i, j = edges[repeated[0]]
        raise ValueError(f"{edges_path}: edge ({i}, {j}) is repeated")
    adj = _symmetric_csr(p, [(np.bincount(edges[:, 0], minlength=p), edges[:, 1])])
    return Dataset(params=params, seed=seed, sigma0=sigma0,
                   beta0=beta0, Phi=Phi, y=y, adjacency=adj)
