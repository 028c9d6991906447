"""One product driver for generators that share their operators.

A solver written as a generator yields each matrix product it needs as a
request ``(A, transpose, v)`` for ``A.T @ v`` or ``A @ v``, and receives the
product back.  A residual request ``(A, RESIDUAL, (v, y, w))`` receives the
pair ``(r, A.T @ r)`` with ``r = (y - A @ v) + w``, from one pass over A;
AMP makes one per iteration.  The Laplacian fits keep to plain requests:
FISTA picks the point of its transposed product only once it knows the
candidate's whole objective.

`lockstep` runs many such generators side by side: each round serves the
pending request of every unfinished one in a single `products` call, where
the requests on one operator share each pass over it.  A dense operator (a
design) is read in cache-sized slabs, and a sparse one (a graph) takes all
its vectors in one block product.  Each request gets the bits of its own
products, ``A @ v`` and ``A.T @ r`` computed apart, so a generator returns
the same result in lockstep as alone.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["RESIDUAL", "SLAB", "lockstep", "products", "slab_bounds"]

# Rows per slab of a dense product: a 64 x 2000 float64 slab (1 MB) stays in
# L2 while every pending request of the round reads it.  A multiple of 4, so
# that residual requests keep the bits of A.T @ r (see `_residuals`).
SLAB = 64

# The `transpose` field of a residual request.
RESIDUAL = "residual"


def slab_bounds(size: int) -> list[tuple[int, int]]:
    """[i0, i1) ranges of SLAB rows covering range(size).

    A 1-wide tail joins the slab before it: numpy computes a one-row
    matrix-vector product as a dot product, whose bits can differ from the
    full product's.
    """
    edges = [*range(0, size, SLAB), size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _residuals(A: np.ndarray, args: list[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(r, A.T @ r) with r = (y - A @ v) + w for each (v, y, w), in one pass
    over the row slabs of a C-ordered A.

    Each slab gives its rows of ``A @ v`` and of r, then adds
    ``slab.T @ r_slab`` into the running ``A.T @ r`` by BLAS dgemv.  numpy's
    ``A.T @ r`` is OpenBLAS's dgemv_n on the same memory, which adds the
    rows of A into its output four at a time, in order: slabs whose heights
    are multiples of 4 (every one but the last) repeat its additions.  Its
    last ``p % 4`` outputs are each summed over all rows in a separate loop,
    so they are recomputed from the finished r by one product over the last
    columns, at least 2 of them (a one-column product is a dot product).
    """
    # imported here, not at module level, where it would add about 0.1 s and
    # 7 MB to every process that imports netamp
    from scipy.linalg.blas import dgemv

    n, p = A.shape
    rs = [np.empty(n) for _ in args]
    accs = [np.zeros(p) for _ in args]
    for i0, i1 in slab_bounds(n):
        slab = A[i0:i1]
        for j, ((v, y, w), r) in enumerate(zip(args, rs)):
            r_slab = r[i0:i1]
            np.matmul(slab, v, out=r_slab)
            np.subtract(y[i0:i1], r_slab, out=r_slab)
            np.add(r_slab, w[i0:i1], out=r_slab)
            accs[j] = dgemv(1.0, slab.T, r_slab, beta=1.0, y=accs[j], overwrite_y=1)
    tail = p % 4
    if tail:
        k = min(max(tail, 2), p)
        for r, acc in zip(rs, accs):
            acc[p - tail:] = (A[:, p - k:].T @ r)[k - tail:]
    return list(zip(rs, accs))


def products(requests: list[tuple]) -> list:
    """Serve one round of requests: A.T @ v, A @ v or a residual pair.

    Requests on the same operator object and kind are served together.  On
    a dense operator they share each slab (row slabs for A @ v and residual
    requests, column slabs for A.T @ r) while it is in cache; a slab product
    has the bits of the same rows of the full product.  On a sparse one they
    form one ``A @ np.stack(vs, axis=1)`` block product, which scipy sums
    column by column in the order of a single CSR matvec.  An operator
    requested once for a plain product gets the full product, which is
    faster for a single vector; residual requests always take the one-pass
    slabs of `_residuals`, which read A once where two products read it
    twice.
    """
    out: list = [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    for k, (A, kind, _) in enumerate(requests):
        groups.setdefault((id(A), kind), []).append(k)
    for idx in groups.values():
        A, kind, _ = requests[idx[0]]
        vs = [requests[k][2] for k in idx]
        if kind is RESIDUAL:
            for k, pair in zip(idx, _residuals(A, vs)):
                out[k] = pair
            continue
        M = A.T if kind else A
        if len(idx) == 1:
            out[idx[0]] = M @ vs[0]
        elif sp.issparse(M):
            block = M @ np.stack(vs, axis=1)
            for j, k in enumerate(idx):
                out[k] = block[:, j]
        else:
            for k in idx:
                out[k] = np.empty(M.shape[0])
            for i0, i1 in slab_bounds(M.shape[0]):
                slab = M[i0:i1]
                for k, v in zip(idx, vs):
                    np.matmul(slab, v, out=out[k][i0:i1])
    return out


def lockstep(gens: list) -> list:
    """Run generators that yield `products` requests; their return values.

    Each round serves the pending request of every unfinished generator in
    one `products` call and sends each generator its product.  An exception
    a generator raises propagates; wrap the generator to contain it.
    """
    results: list = [None] * len(gens)
    pending: dict[int, tuple] = {}

    def advance(k, product):
        try:
            pending[k] = gens[k].send(product)
        except StopIteration as stop:
            pending.pop(k, None)
            results[k] = stop.value

    for k in range(len(gens)):
        advance(k, None)
    while pending:
        keys = list(pending)
        for k, product in zip(keys, products([pending[k] for k in keys])):
            advance(k, product)
    return results
