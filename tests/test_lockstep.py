import numpy as np
import pytest

import netamp.lockstep
from netamp.lockstep import RESIDUAL, SLAB, lockstep, products, slab_bounds
from netamp.priors import spike_slab
from netamp.synth import ModelParams, generate


@pytest.fixture(scope="module")
def draw():
    """A 57 x 73 design and a 73-vertex graph: with 8-row slabs both sides of
    the design have a 1-wide tail, and every product stays below OpenBLAS's
    single-thread cutoff, so the bits do not depend on the BLAS thread count."""
    params = ModelParams.from_snr(n=57, p=73, Delta=0.5, b_p=20.0, lam=2.0,
                                  prior=spike_slab(0.5, [-1.0, 1.0]))
    return generate(params, 3)


class TestSlabs:
    def test_slab_bounds_cover_without_one_wide_slabs(self, monkeypatch):
        monkeypatch.setattr(netamp.lockstep, "SLAB", 8)
        for size in range(1, 40):
            bounds = slab_bounds(size)
            assert bounds[0][0] == 0 and bounds[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            widths = [i1 - i0 for i0, i1 in bounds]
            assert max(widths) <= 9
            assert size == 1 or min(widths) > 1

    def test_slab_height_is_a_multiple_of_4(self):
        """Residual requests keep the bits of A.T @ r only with slab heights
        that are multiples of 4 (see `lockstep._residuals`)."""
        assert SLAB % 4 == 0


class TestProducts:
    def test_design_slabs_equal_full_products(self, draw, rng, monkeypatch):
        monkeypatch.setattr(netamp.lockstep, "SLAB", 8)
        Phi = draw.Phi
        vs = [rng.normal(size=73) for _ in range(3)]
        rs = [rng.normal(size=57) for _ in range(3)]
        got = products([(Phi, False, v) for v in vs] + [(Phi, True, r) for r in rs])
        for g, v in zip(got[:3], vs):
            assert np.array_equal(g, Phi @ v)
        for g, r in zip(got[3:], rs):
            assert np.array_equal(g, Phi.T @ r)

    @pytest.mark.parametrize("slab", [8, 64])
    def test_residual_requests_equal_two_products(self, rng, monkeypatch, slab):
        """A residual request gets (r, A.T @ r), r = (y - A @ v) + w, with the
        bits of the two products computed apart: at every row count mod 8
        (n < 8 and a 1-wide tail included), at widths of every residue mod 4
        (the last p % 4 entries of A.T @ r are summed apart), and with one to
        three residual requests beside two plain ones of each side on the same
        operator.  The largest n * p, 121 * 75, stays below OpenBLAS's
        single-thread cutoff, so the reference products have the same bits at
        any BLAS thread count."""
        monkeypatch.setattr(netamp.lockstep, "SLAB", slab)
        for n in [*range(1, 18), 65, 70, 121]:
            for p in (1, 2, 3, 72, 73, 74, 75):
                A = rng.normal(size=(n, p))
                for count in (1, 2, 3):
                    args = [(rng.normal(size=p), rng.normal(size=n), rng.normal(size=n))
                            for _ in range(count)]
                    vs = [rng.normal(size=p) for _ in range(2)]
                    us = [rng.normal(size=n) for _ in range(2)]
                    got = products([(A, RESIDUAL, a) for a in args]
                                   + [(A, False, v) for v in vs] + [(A, True, u) for u in us])
                    for (r, st_r), (v, y, w) in zip(got, args):
                        want = (y - A @ v) + w
                        assert np.array_equal(r, want), (n, p, count)
                        assert np.array_equal(st_r, A.T @ want), (n, p, count)
                    for g, want in zip(got[count:], [A @ v for v in vs] + [A.T @ u for u in us]):
                        assert np.array_equal(g, want), (n, p, count)

    def test_graph_block_columns_equal_matvecs(self, draw, rng):
        A = draw.adjacency
        vs = [rng.normal(size=73) for _ in range(4)]
        got = products([(A, False, v) for v in vs])
        for g, v in zip(got, vs):
            assert np.array_equal(g, A @ v)

    def test_single_request_gets_full_product(self, draw, rng, monkeypatch):
        """One request per operator and side never goes through slabs."""
        def no_slabs(size):
            raise AssertionError("a single request was served in slabs")

        monkeypatch.setattr(netamp.lockstep, "slab_bounds", no_slabs)
        v, r, w = rng.normal(size=73), rng.normal(size=57), rng.normal(size=73)
        S = draw.Phi / 2.0
        got = products([(draw.Phi, False, v), (draw.Phi, True, r),
                        (draw.adjacency, False, w), (S, False, v)])
        assert np.array_equal(got[0], draw.Phi @ v)
        assert np.array_equal(got[1], draw.Phi.T @ r)
        assert np.array_equal(got[2], draw.adjacency @ w)
        assert np.array_equal(got[3], S @ v)


class TestLockstep:
    def test_results_in_generator_order(self, draw, rng):
        """Generators of different lengths each get their own products."""
        def chain(v, rounds):
            for _ in range(rounds):
                v = yield draw.adjacency, False, v
                v = v / np.linalg.norm(v)
            return v

        def alone(v, rounds):
            for _ in range(rounds):
                v = draw.adjacency @ v
                v = v / np.linalg.norm(v)
            return v

        starts = [rng.normal(size=73) for _ in range(3)]
        got = lockstep([chain(v, k) for k, v in zip((1, 4, 2), starts)])
        for g, v, k in zip(got, starts, (1, 4, 2)):
            assert np.array_equal(g, alone(v, k))
