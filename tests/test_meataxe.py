import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from rank3 import geometry, groups, linalg, meataxe
from rank3.constructions import orbit_partition
from rank3.fields import GF3, field_create
from rank3.meataxe import (GModule, Undecided, composition_factors,
                           invariant_bilinear_form, modules_isomorphic,
                           permutation_module, spin, tensor_module)


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


def test_sub_and_quotient_modules_skip_the_det_check(monkeypatch):
    M = permutation_module(6, [cycle(6), transposition(6)])
    ones = spin(M, [(1,) * 6]).rows
    calls = []
    det = linalg.det
    monkeypatch.setattr(linalg, "det",
                        lambda F, g: calls.append(g) or det(F, g))
    S = meataxe.submodule_action(M, ones)
    Q = meataxe.quotient_action(M, ones)
    assert (S.dim, Q.dim, calls) == (1, 5, [])
    # the same modules pass the checked constructor, which runs the check
    assert S == GModule(GF3, S.dim, S.gens)
    assert Q == GModule(GF3, Q.dim, Q.gens)
    assert len(calls) == len(S.gens) + len(Q.gens)
    assert all(det(GF3, g) != 0 for g in S.gens + Q.gens)


def _reference_submodule(M, basis):
    """The loop submodule_action ran before linalg.subquotient; kept as its
    oracle, with the quotient's below.  Returns (dim, gens)."""
    F = M.field
    E = linalg.Echelon(F, M.dim)
    coords, _free = E.solve([E.pack(b) for b in basis])
    gens = []
    for g in M.gens:
        rows = []
        for b in basis:
            c = coords(E.pack(linalg.vec_mat(F, b, g)))
            if c is None:
                raise ValueError("basis does not span a submodule")
            rows.append(c)
        gens.append(tuple(rows))
    return len(basis), tuple(gens)


def _reference_quotient(M, basis):
    F = M.field
    span = linalg.Echelon(F, M.dim)
    for b in basis:
        span.add_packed(span.pack(b))
    comp = [e for e in linalg.identity(M.dim)
            if span.add_packed(span.pack(e)) is not None]
    coords, _free = span.solve([span.pack(r) for r in comp + list(basis)])
    gens = tuple(tuple(coords(span.pack(linalg.vec_mat(F, b, g)))[:len(comp)]
                       for b in comp) for g in M.gens)
    return len(comp), gens


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sub_and_quotient_actions_match_the_old_loops(n):
    # every split of a seeded composition series of the permutation module
    # and its tensor square
    rng = random.Random(n)
    U = permutation_module(n, [cycle(n), transposition(n)])
    todo, splits = [U, tensor_module(U, U)], 0
    while todo:
        M = todo.pop()
        W = meataxe.find_submodule(M, rng)
        if W is None:
            continue
        # the spun rows, and another basis of W, not in echelon form: P
        # starts as zero so that an invertible P other than 1 is drawn
        P = ((0,) * len(W),) * len(W)
        while linalg.det(GF3, P) == 0 or P == linalg.identity(len(W)):
            P = tuple(tuple(rng.randrange(3) for _ in W) for _ in W)
        other = list(linalg.mat_mul(GF3, P, W))
        assert other != list(W)
        for basis in (W, other):
            S = meataxe.submodule_action(M, basis)
            Q = meataxe.quotient_action(M, basis)
            assert (S.dim, S.gens) == _reference_submodule(M, basis)
            assert (Q.dim, Q.gens) == _reference_quotient(M, basis)
        todo += [S, Q]
        splits += 1
    assert splits >= 3
    # a subspace that is not a submodule is refused by both
    line = [(1,) + (0,) * (n - 1)]
    with pytest.raises(ValueError):
        _reference_submodule(U, line)
    with pytest.raises(ValueError):
        meataxe.submodule_action(U, line)


def test_spin_is_invariant():
    M = permutation_module(5, [cycle(5), transposition(5)])
    span = spin(M, [(1, 2, 0, 0, 0)])
    # the spun subspace is G-invariant
    for g in M.gens:
        for v in span.rows:
            img = linalg.vec_mat(GF3, v, g)
            assert span.add_packed(span.pack(img)) is None


def test_all_ones_submodule():
    M = permutation_module(5, [cycle(5), transposition(5)])
    basis = spin(M, [(1, 1, 1, 1, 1)]).rows
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


def test_composition_factors_assert_their_dims_add_up(monkeypatch):
    # a quotient action that drops the last basis vector of every quotient
    # of dim >= 2 loses dimensions the factors can no longer account for
    quotient = meataxe.quotient_action
    drops = []

    def drop_one(M, basis):
        Q = quotient(M, basis)
        if Q.dim < 2:
            return Q
        drops.append(Q.dim)
        gens = tuple(tuple(row[:-1] for row in g[:-1]) for g in Q.gens)
        return GModule.unchecked(Q.field, Q.dim - 1, gens)

    monkeypatch.setattr(meataxe, "quotient_action", drop_one)
    M = permutation_module(6, [cycle(6), transposition(6)])
    with pytest.raises(AssertionError,
                       match=r"factor dims add up to \d+, not 6$"):
        composition_factors(M)
    assert drops


def test_tensor_factors_s8():
    M = permutation_module(8, [cycle(8), transposition(8)])
    T = tensor_module(M, M)
    assert T.dim == 64
    factors = composition_factors(T)
    dims = sorted(f.dim for f, mult in factors for _ in range(mult))
    assert dims == [1, 1, 7, 7, 7, 7, 13, 21]


@pytest.mark.parametrize("p, n, dims", [
    (5, 4, {1: 1, 3: 1}), (5, 5, {1: 2, 3: 1}), (5, 6, {1: 1, 5: 1}),
    (2, 4, {1: 2, 2: 1}), (7, 4, {1: 1, 3: 1}), (7, 5, {1: 1, 4: 1})])
def test_factors_over_other_prime_fields(p, n, dims):
    # over GF(p), p != 3, the MeatAxe works one field entry at a time
    F = field_create(p, 1)
    M = permutation_module(n, [transposition(n), cycle(n)], F)
    found = Counter()
    for f, mult in composition_factors(M):
        assert f.field is F
        found[f.dim] += mult
    assert found == dims


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


def _is_invariant(M, B):
    return all(linalg.mat_mul(GF3, g, linalg.mat_mul(
        GF3, B, linalg.transpose(g))) == B for g in M.gens)


def _reference_eval_word(F, gens, recipe, dim):
    """meataxe._eval_word as it ran before generator rows were packed, one
    field entry at a time; kept as its oracle."""
    total = [[0] * dim for _ in range(dim)]
    for coeff, idxs in recipe:
        m = gens[idxs[0]]
        for i in idxs[1:]:
            m = linalg.mat_mul(F, m, gens[i])
        for r in range(dim):
            row = m[r]
            trow = total[r]
            for c in range(dim):
                trow[c] = F.add(trow[c], F.mul(coeff, row[c]))
    return tuple(tuple(r) for r in total)


def test_eval_word_matches_the_per_entry_one(tensor_factors):
    rng = random.Random(19)
    squares = [tensor_module(U, U) for U in (
        permutation_module(n, [cycle(n), transposition(n)]) for n in (8, 9))]
    # the dim-13 factor in a random basis, so both generators are dense
    f13 = next(f for n, f in tensor_factors if n == 8 and f.dim == 13)
    P = ((0,) * 13,) * 13
    while linalg.det(GF3, P) == 0:
        P = tuple(tuple(rng.randrange(3) for _ in range(13)) for _ in range(13))
    Pinv = linalg.mat_inv(GF3, P)
    dense = GModule(GF3, 13, tuple(linalg.mat_mul(
        GF3, Pinv, linalg.mat_mul(GF3, g, P)) for g in f13.gens))
    assert all(sum(map(bool, sum(g, ()))) > 169 // 2 for g in dense.gens)
    # and the per-entry path, over GF(5)
    F5 = field_create(5, 1)
    U5 = permutation_module(5, [transposition(5), cycle(5)], F5)
    for M, count in ((squares[0], 20), (squares[1], 20), (dense, 20),
                     (tensor_module(U5, U5), 5)):
        E = linalg.Echelon(M.field, M.dim)
        for _ in range(count):
            recipe = meataxe._random_word(rng, len(M.gens), M.field.p)
            theta = meataxe._eval_word(E, M.packed_gens, recipe)
            assert tuple(map(E.unpack, theta)) == \
                _reference_eval_word(M.field, M.gens, recipe, M.dim), recipe


def test_splitting_caches_only_the_packed_rows():
    # a module packs its generator rows once, into packed_gens, which
    # stays outside == and hash; nothing else is stored on it
    U = permutation_module(7, [cycle(7), transposition(7)])
    M = tensor_module(U, U)
    factors = composition_factors(M)
    f13 = next(f for f, _mult in factors if f.dim == 13)
    invariant_bilinear_form(f13)
    for mod in [M] + [f for f, _mult in factors]:
        fresh = GModule.unchecked(mod.field, mod.dim, mod.gens)
        cached = dict(vars(mod))
        assert cached.pop("packed_gens") == fresh.packed_gens
        assert cached == vars(GModule.unchecked(mod.field, mod.dim, mod.gens))
        assert mod == fresh and hash(mod) == hash(fresh)


def test_invariant_form_on_dim13(tensor_factors):
    f13 = next(f for n, f in tensor_factors if n == 8 and f.dim == 13)
    kind, B = invariant_bilinear_form(f13)
    assert kind == "symmetric"
    assert linalg.det(GF3, B) != 0
    assert _is_invariant(f13, B)


def _span_vectors(F, rows):
    """Every combination of rows with coefficients not all zero, in
    itertools.product order of the coefficient tuples: linalg.span_vectors
    as it was, kept as an oracle."""
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        if any(coeffs):
            yield linalg.vec_mat(F, coeffs, rows)


def _reference_kernel_lines(F, ker):
    """meataxe._kernel_lines as it ran before it took the leading-1
    combinations alone: every vector of the span, made canonical, with the
    repeats dropped; kept as its oracle."""
    return list(dict.fromkeys(geometry.canonical_point(F, v)
                              for v in _span_vectors(F, ker)))


@pytest.mark.parametrize("F", [GF3, field_create(5, 1), field_create(3, 2)],
                         ids=repr)
def test_kernel_lines_match_the_enumerated_span(F):
    combos = [c for c in itertools.product(F.elements(), repeat=3) if any(c)]
    assert list(_span_vectors(F, linalg.identity(3))) == combos
    rng = random.Random(F.q)
    for trial in range(60):
        nullity, n = 1 + trial % 3, rng.randrange(3, 8)
        M = tuple(tuple(rng.randrange(F.q) for _ in range(n))
                  for _ in range(n + nullity))
        ker = linalg.nullspace_rows(F, M)
        assert len(ker) >= nullity
        ker = ker[:nullity]
        E = linalg.Echelon(F, len(M))
        lines = meataxe._kernel_lines(E, ker)
        assert [geometry.canonical_point(F, v) for v in lines] == \
            _reference_kernel_lines(F, ker)
        assert len(lines) == (F.q ** nullity - 1) // (F.q - 1)


def _reference_form(M):
    """The invariant form as a d^2-unknown linear system: the Kronecker
    solve of g B g^T = B, then a search of its solution space for a
    symmetric member.  Kept as the oracle for invariant_bilinear_form."""
    F, d = M.field, M.dim
    ident = linalg.identity(d * d)
    cols = []
    for g in M.gens:
        gt = linalg.transpose(g)
        kg = linalg.kron(F, gt, gt)  # row convention: g B g^t = B
        block = tuple(tuple(F.sub(kg[i][j], ident[i][j]) for j in range(d * d))
                      for i in range(d * d))
        cols.append(block)
    stacked = tuple(tuple(x for block in cols for x in block[i])
                    for i in range(d * d))
    sols = linalg.nullspace_rows(F, stacked)
    if not sols:
        return ("none", None)
    if len(sols) > 4:
        raise ValueError("solution space too large; module not irreducible?")
    best_alt = None
    for v in _span_vectors(F, sols):
        B = tuple(tuple(v[a * d + b] for b in range(d)) for a in range(d))
        Bt = linalg.transpose(B)
        if B == Bt:
            return ("symmetric", B)
        if all(F.add(B[a][b], Bt[a][b]) == 0 for a in range(d)
               for b in range(d)) and all(B[a][a] == 0 for a in range(d)):
            best_alt = B
    if best_alt is not None:
        return ("alternating", best_alt)
    return ("none", None)


@pytest.fixture(scope="module")
def tensor_splits():
    """n -> composition_factors of the S_n tensor square at seed 0, for n
    from 5 to 9."""
    out = {}
    for n in range(5, 10):
        M = permutation_module(n, [cycle(n), transposition(n)])
        out[n] = composition_factors(tensor_module(M, M), seed=0)
    return out


@pytest.fixture(scope="module")
def tensor_factors(tensor_splits):
    """(n, factor) for every composition factor of the S5 .. S9 tensor
    squares; 20 factors of dims 1 to 27."""
    return [(n, f) for n, split in tensor_splits.items() for f, _ in split]


# sha256 of repr([(dim, multiplicity, gens)]) of the factors at seed 0, as
# the per-entry linear algebra gave them before GF(3) rows were packed
TENSOR_SPLITS = {
    5: ([(4, 4), (1, 1), (6, 1), (1, 2)],
        "1b8477ad36d01733f96202cc510b0f1be708808f4655fdf86858c19040ae0e82"),
    6: ([(9, 1), (1, 5), (4, 4), (6, 1)],
        "5ded63f3606e22de1e449b36e5824ea11c42d444b2e1941e51a505a896a692cf"),
    7: ([(1, 3), (13, 1), (6, 3), (15, 1)],
        "a0149e4ef373c243fbf1ed946035be4b05dcc8a2fd3da0f5daa602cbd7c8a2b3"),
    8: ([(7, 4), (13, 1), (21, 1), (1, 2)],
        "ad39e42c26b3757db83ec6cead2ca0f9274387ff89e02919f26d058c5f1400bd"),
    9: ([(27, 1), (1, 5), (7, 4), (21, 1)],
        "15bfaba8703a5a0cb3b8d12e71d2b588ec285d28482ef1cdb95b2b1b46bce011"),
}


def test_tensor_square_factors_are_pinned(tensor_splits):
    for n, (dims, digest) in TENSOR_SPLITS.items():
        split = [(f.dim, mult, f.gens) for f, mult in tensor_splits[n]]
        assert [(d, mult) for d, mult, _ in split] == dims, n
        assert hashlib.sha256(repr(split).encode()).hexdigest() == digest, n


# sha256 of repr([(xi, base point, size, c, d)]) of both orbit partitions
# of the S8 dim-13 factor under its invariant form, as orbit_partition gave
# them when it still searched the remaining codes for every orbit
S8_PARTITION_SHA256 = \
    "905228e0a394dd545cd20c45d9869925069ccd94226e607928c4680863100db0"


def test_s8_dim13_partition_is_pinned(tensor_factors):
    f13 = next(f for n, f in tensor_factors if n == 8 and f.dim == 13)
    kind, B = invariant_bilinear_form(f13)
    assert kind == "symmetric"
    space = geometry.QuadraticSpace(GF3, B)
    group = groups.MatrixGroup.unchecked(GF3, 13, f13.gens, "s8-dim13", B)
    reports = [(xi, r.base_point, r.size, r.c, r.d) for xi in ("+", "-")
               for r in orbit_partition(space, group, xi)]
    assert len(reports) == 65
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == \
        S8_PARTITION_SHA256


def test_dual_module_skips_the_det_check(monkeypatch, tensor_factors):
    f13 = next(f for n, f in tensor_factors if n == 8 and f.dim == 13)
    calls = []
    det = linalg.det
    monkeypatch.setattr(linalg, "det",
                        lambda F, g: calls.append(g) or det(F, g))
    kind, B = invariant_bilinear_form(f13)
    assert kind == "symmetric" and _is_invariant(f13, B)
    assert calls == []


def test_form_matches_reference(tensor_factors):
    # exact equality, scalar included: scaling by the nonsquare 2 would swap
    # the + and - point types of the S8 dim-13 form
    small = [(n, f) for n, f in tensor_factors if f.dim <= 15]
    assert {(8, 13), (7, 15)} <= {(n, f.dim) for n, f in small}
    for n, f in small:
        assert invariant_bilinear_form(f) == _reference_form(f), (n, f.dim)


def test_large_forms_are_invariant(tensor_factors):
    large = [(n, f) for n, f in tensor_factors if f.dim > 15]
    assert sorted((n, f.dim) for n, f in large) == [(8, 21), (9, 21), (9, 27)]
    for n, f in large:
        kind, B = invariant_bilinear_form(f)
        assert kind == "symmetric", (n, f.dim)
        assert B == linalg.transpose(B) and linalg.det(GF3, B) != 0
        assert _is_invariant(f, B)


def _reference_intertwiner(A, B, seed=0):
    """meataxe._intertwiner as it ran before one spin in the direct sum:
    lockstep standard bases from the two kernel vectors, then S from the
    inverse of A's basis, checked on every generator; kept as its oracle."""
    F, dim = A.field, A.dim
    if dim == 1:
        return linalg.identity(1) if A.gens == B.gens else None
    rng = random.Random(seed)
    E = linalg.Echelon(F, dim)
    packed_a, packed_b = A.packed_gens, B.packed_gens
    for _ in range(meataxe._ISO_TRIES):
        recipe = meataxe._random_word(rng, len(A.gens), F.p)
        ka = linalg.nullspace_rows(F, tuple(map(
            E.unpack, meataxe._eval_word(E, packed_a, recipe))))
        kb = linalg.nullspace_rows(F, tuple(map(
            E.unpack, meataxe._eval_word(E, packed_b, recipe))))
        if len(ka) != len(kb):
            return None
        if len(ka) != 1:
            continue
        basis_a, basis_b = [E.pack(ka[0])], [E.pack(kb[0])]
        span_a, span_b = linalg.Echelon(F, dim), linalg.Echelon(F, dim)
        span_a.add_packed(basis_a[0])
        span_b.add_packed(basis_b[0])
        i = 0
        while i < len(basis_a) and len(basis_a) < dim:
            for ga, gb in zip(packed_a, packed_b):
                wa, wb = E.image(basis_a[i], ga), E.image(basis_b[i], gb)
                inda = span_a.add_packed(wa) is not None
                if inda != (span_b.add_packed(wb) is not None):
                    return None
                if inda:
                    basis_a.append(wa)
                    basis_b.append(wb)
            i += 1
        if len(basis_a) < dim:
            continue
        s = linalg.mat_mul(F, linalg.mat_inv(F, tuple(map(E.unpack, basis_a))),
                           tuple(map(E.unpack, basis_b)))
        for ga, gb in zip(A.gens, B.gens):
            if linalg.mat_mul(F, ga, s) != linalg.mat_mul(F, s, gb):
                return None
        return s
    raise Undecided("no nullity-1 word found")


def _dual(M):
    return GModule(M.field, M.dim, tuple(
        linalg.transpose(linalg.mat_inv(M.field, g)) for g in M.gens))


def _outcome(intertwiner, A, B, seed):
    try:
        return intertwiner(A, B, seed)
    except Undecided:
        return Undecided


def test_intertwiner_matches_the_lockstep_one(tensor_factors):
    # every ordered pair of S5 .. S9 factors of equal dim, and each factor
    # against a seeded conjugate and against its dual, at seeds 0 to 2
    factors = [f for _n, f in tensor_factors]
    pairs = [(f, g) for f in factors for g in factors if f.dim == g.dim]
    duals = [(f, _dual(f)) for f in factors]
    outcomes = Counter()
    for seed in range(3):
        rng = random.Random(seed)
        conjugates = []
        for f in factors:
            P = ((0,) * f.dim,) * f.dim
            while linalg.det(GF3, P) == 0:
                P = tuple(tuple(rng.randrange(3) for _ in range(f.dim))
                          for _ in range(f.dim))
            Pinv = linalg.mat_inv(GF3, P)
            conjugates.append((f, GModule(GF3, f.dim, tuple(linalg.mat_mul(
                GF3, Pinv, linalg.mat_mul(GF3, g, P)) for g in f.gens))))
        for A, B in pairs + conjugates + duals:
            got = _outcome(meataxe._intertwiner, A, B, seed)
            assert got == _outcome(_reference_intertwiner, A, B, seed), \
                (A.dim, seed)
            outcomes[got if got in (None, Undecided) else "S"] += 1
    # no case ends Undecided at these seeds; the tests below cover that
    assert outcomes == {"S": 240, None: 72}


def test_intertwiner_inverts_and_multiplies_no_matrix(monkeypatch,
                                                      tensor_factors):
    f13 = next(f for n, f in tensor_factors if n == 8 and f.dim == 13)
    dual = _dual(f13)
    expected = _reference_intertwiner(f13, dual)

    def refuse(*args):
        raise AssertionError("called")
    monkeypatch.setattr(linalg, "mat_inv", refuse)
    monkeypatch.setattr(linalg, "mat_mul", refuse)
    S = meataxe._intertwiner(f13, dual)
    assert S is not None and S == expected


def test_form_is_checked_for_invariance(monkeypatch):
    # an intertwiner that is no intertwiner: the identity is symmetric but
    # not invariant under the SL_2(3) generators
    M = GModule(GF3, 2, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    assert not _is_invariant(M, linalg.identity(2))
    monkeypatch.setattr(meataxe, "_intertwiner",
                        lambda A, B, seed=0: linalg.identity(2))
    with pytest.raises(AssertionError):
        invariant_bilinear_form(M)


def test_alternating_form_of_sl2():
    M = GModule(GF3, 2, (((1, 1), (0, 1)), ((1, 0), (1, 1))))
    kind, B = invariant_bilinear_form(M)
    assert kind == "alternating" and _is_invariant(M, B)
    ref_kind, ref = _reference_form(M)
    assert ref_kind == "alternating"
    assert any(B == tuple(linalg.vec_scale(GF3, c, r) for r in ref)
               for c in (1, 2))


def test_no_form_on_sl3_natural_module():
    M = GModule(GF3, 3, (((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                         ((0, 1, 0), (0, 0, 1), (1, 0, 0))))
    assert invariant_bilinear_form(M) == _reference_form(M) == ("none", None)


def test_not_absolutely_irreducible_is_undecided():
    # C4 on GF(3)^2: x^2 + 1 is irreducible, so no word has nullity 1
    M = GModule(GF3, 2, (((0, 1), (2, 0)),))
    with pytest.raises(Undecided):
        invariant_bilinear_form(M)
    with pytest.raises(Undecided):
        modules_isomorphic(M, M)


def test_reducible_module_form_is_undecided():
    M = permutation_module(5, [cycle(5), transposition(5)])
    with pytest.raises(Undecided):
        invariant_bilinear_form(M)


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


@pytest.fixture(scope="module")
def s8_dim13():
    """The dim-13 factor of the S8 tensor square as s8_pipeline builds it,
    on s = (0 1) and c = (0 1 ... 7), with its quadratic space and group."""
    U = permutation_module(8, [transposition(8), cycle(8)])
    f13 = next(f for f, _ in composition_factors(tensor_module(U, U))
               if f.dim == 13)
    kind, B = invariant_bilinear_form(f13)
    assert kind == "symmetric"
    return (f13, geometry.QuadraticSpace(GF3, B),
            groups.MatrixGroup.unchecked(GF3, 13, f13.gens, "s8-dim13", B))


def test_s8_sylow_words_generate_a_group_of_order_128():
    U = permutation_module(8, [transposition(8), cycle(8)])
    gens = [meataxe._word_matrix(U, word) for word, _ in meataxe._S8_SYLOW2]
    assert gens == [linalg.perm_matrix(p) for _, p in meataxe._S8_SYLOW2]
    # groups.group_closure keys 8 x 8 matrices over GF(3) past int64, so
    # the closure is a set of matrices here
    seen, frontier = {linalg.identity(8)}, [linalg.identity(8)]
    while frontier:
        new = {linalg.mat_mul(GF3, a, g) for a in frontier for g in gens}
        frontier = list(new - seen)
        seen |= new
    assert len(seen) == 128  # 2^7, the 2-part of 8! = 40320 = 128 * 315


def test_s8_pipeline_pairs_are_the_315_point_orbits(s8_dim13):
    _f13, space, group = s8_dim13
    oracle = {xi: [(r.c, r.d) for r in orbit_partition(space, group, xi)
                   if r.size == 315] for xi in ("+", "-")}
    assert oracle == {"+": [(212, 102)], "-": [(194, 120), (230, 84)]}
    assert meataxe.s8_pipeline()["small"] == oracle


def test_the_trivial_sign_choice_alone_misses_194_120(s8_dim13):
    # the lines P fixes pointwise, with no sign: (194, 120) needs the
    # eigenspace of a non-trivial character of P
    f13, space, group = s8_dim13
    mats = [meataxe._word_matrix(f13, word) for word, _ in meataxe._S8_SYLOW2]
    fixed = meataxe._eigenspace(GF3, mats, (1, 1, 1))
    lines = meataxe._kernel_lines(linalg.Echelon(GF3, 13), fixed)
    reports = [groups.cd_parameters(space, group, v) for v in lines
               if space.q_value(v)]
    assert {(r.c, r.d) for r in reports if r.size == 315} == \
        {(212, 102), (230, 84)}


def test_s8_pipeline_asserts_one_fixed_line_per_orbit(monkeypatch):
    lines = meataxe._kernel_lines
    monkeypatch.setattr(meataxe, "_kernel_lines",
                        lambda E, ker: 2 * lines(E, ker))
    with pytest.raises(AssertionError, match="two P-fixed lines"):
        meataxe.s8_pipeline()


def test_s8_pipeline_checks_the_sylow_words_on_the_permutation_module(
        monkeypatch):
    # c^3 in place of c^4 = (0 4)(1 5)(2 6)(3 7)
    s, w, (c4, c4_perm) = meataxe._S8_SYLOW2
    monkeypatch.setattr(meataxe, "_S8_SYLOW2", (s, w, (c4[1:], c4_perm)))
    with pytest.raises(AssertionError, match=r"\(1, 1, 1\)"):
        meataxe.s8_pipeline()
