"""One product driver for generators that share their operators.

A solver written as a generator yields each matrix product it needs as a
request ``(A, transpose, v)`` for ``A.T @ v`` or ``A @ v``, and receives the
product back.  `lockstep` runs many such generators side by side: each round
serves the pending request of every unfinished one in a single `products`
call, where the requests on one operator share each pass over it.  A dense
operator (a design) is read in cache-sized slabs, and a sparse one (a graph)
takes all its vectors in one block product.  Both give each request the bits
of a product of its own, so a generator returns the same result in lockstep
as alone.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SLAB", "lockstep", "products", "slab_bounds"]

# Rows per slab of a dense product: a 64 x 2000 float64 slab (1 MB) stays in
# L2 while every pending request of the round reads it.
SLAB = 64


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


def products(requests: list[tuple]) -> list[np.ndarray]:
    """Serve one round of (A, transpose, v) requests: A.T @ v or A @ v.

    Requests on the same operator object and side are served together.  On
    a dense operator they share each slab (row slabs for A @ v, column
    slabs for A.T @ r) while it is in cache; a slab product has the bits of
    the same rows of the full product.  On a sparse one they form one
    ``A @ np.stack(vs, axis=1)`` block product, which scipy sums column by
    column in the order of a single CSR matvec.  An operator requested once
    gets the full product, which is faster for a single vector.
    """
    out: list = [None] * len(requests)
    groups: dict[tuple[int, bool], list[int]] = {}
    for k, (A, transpose, _) in enumerate(requests):
        groups.setdefault((id(A), transpose), []).append(k)
    for idx in groups.values():
        A, transpose, _ = requests[idx[0]]
        M = A.T if transpose else A
        vs = [requests[k][2] for k in idx]
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
    """Run generators that yield (A, transpose, v) requests; their return values.

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
