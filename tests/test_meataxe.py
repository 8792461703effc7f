import numpy as np
import pytest

from rank3 import linalg, meataxe
from rank3.fields import GF3
from rank3.meataxe import (GModule, composition_factors, invariant_bilinear_form,
                           modules_isomorphic, permutation_module, spin,
                           tensor_module)


def cycle(n):
    return tuple(range(1, n)) + (0,)


def transposition(n):
    return (1, 0) + tuple(range(2, n))


def test_permutation_module():
    M = permutation_module(4, [cycle(4), transposition(4)])
    assert M.dim == 4 and len(M.gens) == 2
    for g in M.gens:
        assert linalg.det(GF3, g) != 0


def test_singular_generator_rejected():
    with pytest.raises(ValueError, match="generator is singular"):
        GModule(GF3, 2, (((1, 1), (1, 1)),))


def test_spin_is_invariant():
    M = permutation_module(5, [cycle(5), transposition(5)])
    basis = spin(GF3, M.gens, [(1, 2, 0, 0, 0)])
    # the spun subspace is G-invariant
    for g in M.gens:
        for v in basis:
            img = linalg.vec_mat(GF3, v, g)
            assert linalg.coords_in_basis(GF3, basis, img) is not None


def test_all_ones_submodule():
    M = permutation_module(5, [cycle(5), transposition(5)])
    basis = spin(GF3, M.gens, [(1, 1, 1, 1, 1)])
    assert len(basis) == 1


def test_s5_factors():
    M = permutation_module(5, [cycle(5), transposition(5)])
    dims = sorted(f.dim for f, mult in composition_factors(M) for _ in range(mult))
    assert dims == [1, 4]


def test_s6_factors():
    # 3 | 6: the sum-zero space contains the all-ones line
    M = permutation_module(6, [cycle(6), transposition(6)])
    dims = sorted(f.dim for f, mult in composition_factors(M) for _ in range(mult))
    assert dims == [1, 1, 4]


def test_tensor_factors_s8():
    M = permutation_module(8, [cycle(8), transposition(8)])
    T = tensor_module(M, M)
    assert T.dim == 64
    factors = composition_factors(T)
    dims = sorted(f.dim for f, mult in factors for _ in range(mult))
    assert dims == [1, 1, 7, 7, 7, 7, 13, 21]


def test_seed_independence():
    M = permutation_module(7, [cycle(7), transposition(7)])
    base = None
    for seed in range(4):
        dims = sorted(f.dim for f, mult in composition_factors(M, seed=seed)
                      for _ in range(mult))
        base = base or dims
        assert dims == base == [1, 6]


def test_isomorphism_detects_equivalence():
    M = permutation_module(5, [cycle(5), transposition(5)])
    factors = composition_factors(M)
    four = next(f for f, _ in factors if f.dim == 4)
    # conjugate copy is isomorphic
    P = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2), (0, 0, 0, 1))
    Pinv = linalg.mat_inv(GF3, P)
    conj = GModule(GF3, 4, tuple(
        linalg.mat_mul(GF3, Pinv, linalg.mat_mul(GF3, g, P)) for g in four.gens))
    assert modules_isomorphic(four, conj)
    # trivial module is not
    triv = GModule(GF3, 4, tuple(linalg.identity(4) for _ in four.gens))
    assert not modules_isomorphic(four, triv)


def test_invariant_form_on_dim13():
    M = permutation_module(8, [cycle(8), transposition(8)])
    T = tensor_module(M, M)
    f13 = next(f for f, _ in composition_factors(T) if f.dim == 13)
    kind, B = invariant_bilinear_form(f13)
    assert kind == "symmetric"
    assert linalg.det(GF3, B) != 0
    for g in f13.gens:
        assert linalg.mat_mul(GF3, g, linalg.mat_mul(
            GF3, B, linalg.transpose(g))) == B


def test_s8_pipeline_end_to_end():
    res = meataxe.s8_pipeline()
    assert 13 in res["factor_dims"]
    small = res["small"]
    found = {xi: set(small[xi]) for xi in ("+", "-")}
    all_pairs = found["+"] | found["-"]
    assert (230, 84) in all_pairs and (212, 102) in all_pairs
    # the two published pairs land in distinct point types
    assert not ({(230, 84), (212, 102)} <= found["+"])
    assert not ({(230, 84), (212, 102)} <= found["-"])
