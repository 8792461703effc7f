"""Minimal module-splitting engine over prime fields: permutation and
tensor module builders, randomized composition-factor splitting with an
irreducibility certificate (spin the kernel of a singular algebra
element, then the dual), module isomorphism by one spin in the direct
sum, and invariant bilinear forms as the isomorphism from an absolutely
irreducible module to its dual, found by that same spin.
A module packs its generator rows once, into its packed_gens (see
linalg.Echelon), and the MeatAxe maps packed rows on them; an algebra
element stays packed into Echelon.solve, and spin returns its Echelon.
"""

import itertools
import random

from . import fields, geometry, groups, linalg

GF3 = fields.GF3
# random algebra elements tried before a search gives up with Undecided
_SPLIT_TRIES = 200
_ISO_TRIES = 60


class Undecided(RuntimeError):
    """The randomized search exhausted its iteration budget."""


# A module is given by its generating matrices, so one type serves the
# MeatAxe and the matrix groups.
GModule = groups.MatrixGroup


def permutation_module(n, perms, field=GF3):
    gens = []
    for perm in perms:
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of 0..%d: %r" % (n - 1, perm))
        gens.append(linalg.perm_matrix(perm))
    return GModule(field, n, tuple(gens))


def tensor_module(m1, m2):
    if m1.field is not m2.field:
        raise ValueError("fields differ")
    if len(m1.gens) != len(m2.gens):
        raise ValueError("generator counts differ")
    gens = tuple(linalg.kron(m1.field, a, b)
                 for a, b in zip(m1.gens, m2.gens))
    return GModule(m1.field, m1.dim * m2.dim, gens)


# ---------------------------------------------------------------------------
# algebra elements and spinning

def _random_word(rng, k, p):
    """A recipe: list of (coefficient 1..p-1, generator index list)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 4)
        terms.append((rng.randint(1, p - 1),
                      [rng.randrange(k) for _ in range(length)]))
    return terms


def _eval_word(E, gens, recipe):
    """The algebra element of recipe on generators packed by E, as rows
    packed by E: a word's product is one E.image per row, and row r of the
    sum is the coefficient vector's image on the products' rows r."""
    products = []
    for _coeff, idxs in recipe:
        m = gens[idxs[0]]
        for i in idxs[1:]:
            m = [E.image(row, gens[i]) for row in m]
        products.append(m)
    C = linalg.Echelon(E.F, len(recipe))
    coeffs = C.pack([coeff for coeff, _idxs in recipe])
    return [C.image(coeffs, rows) for rows in zip(*products)]


def spin(M, seeds):
    """The smallest subspace containing the seeds and closed under the
    right action of the module M, as the Echelon of its reduced basis
    rows.  The rows are spun packed, on M.packed_gens, and each seed and
    each new image is spun on reduced, which zeroes its earlier pivots."""
    span = linalg.Echelon(M.field, M.dim)
    frontier = [w for w in map(span.pack, seeds)
                if span.add_packed(w) is not None]
    while frontier:
        new = []
        for v in frontier:
            for g in M.packed_gens:
                w = span.add_packed(span.image(v, g))
                if w is not None:
                    new.append(w)
        frontier = new
    return span


def submodule_action(M, basis):
    """M restricted to the submodule W spanned by the rows basis.  Like the
    quotient's, its generators are invertible by construction, since
    det g = det(g|W) det(g|V/W), so neither runs MatrixGroup's checks."""
    sub, gens, _coords = linalg.subquotient(M, basis, ())
    return GModule.unchecked(M.field, len(sub), gens)


def quotient_action(M, basis):
    """The action of M on V/W, W spanned by the rows basis."""
    comp, gens, _coords = linalg.subquotient(M, linalg.identity(M.dim), basis)
    return GModule.unchecked(M.field, len(comp), gens)


# ---------------------------------------------------------------------------
# splitting

def _kernel_lines(E, ker):
    """A vector on each line of the span of the rows ker, in the order the
    lines first come in itertools.product order of the coefficients: the
    combinations whose first nonzero coefficient is 1."""
    C, m = linalg.Echelon(E.F, len(ker)), len(ker)
    rows = [E.pack(k) for k in ker]
    return [E.unpack(C.image(C.pack((0,) * k + (1,) + tail), rows))
            for k in reversed(range(m))
            for tail in itertools.product(range(E.F.q), repeat=m - 1 - k)]


def find_submodule(M, rng):
    """A proper non-zero submodule basis, or None with an irreducibility
    certificate: every kernel line of some singular element spins to the
    whole space and a dual kernel vector spins the dual."""
    F, dim = M.field, M.dim
    if not M.gens:  # every line is a submodule
        return linalg.identity(dim)[:1] if dim > 1 else None
    E = linalg.Echelon(F, dim)
    for _ in range(_SPLIT_TRIES):
        theta = _eval_word(E, M.packed_gens,
                           _random_word(rng, len(M.gens), F.p))
        ker = list(E.solve(theta)[1].values())
        nullity = len(ker)
        if nullity == 0:
            continue
        vectors = ker if nullity > 3 else _kernel_lines(E, ker)
        for v in vectors:
            w = spin(M, [v])
            if len(w.pivots) < dim:
                return w.rows
        if nullity > 3:
            continue
        ker_t = linalg.nullspace_rows(F, tuple(zip(*map(E.unpack, theta))))
        Mt = GModule.unchecked(F, dim, tuple(map(linalg.transpose, M.gens)))
        wt = spin(Mt, [ker_t[0]])
        if len(wt.pivots) < dim:
            sub = linalg.nullspace_rows(F, linalg.transpose(
                linalg.mat_from_rows(wt.rows)))
            assert 0 < len(sub) < dim
            return spin(M, sub).rows
        return None
    raise Undecided("no singular algebra element found in %d tries"
                    % _SPLIT_TRIES)


def composition_factors(M, seed=0):
    """[(irreducible factor, multiplicity)] in first-seen order."""
    rng = random.Random(seed)
    leaves = []

    def rec(mod):
        sub = find_submodule(mod, rng)
        if sub is None:
            leaves.append(mod)
            return
        rec(submodule_action(mod, sub))
        rec(quotient_action(mod, sub))

    rec(M)
    out = []
    for leaf in leaves:
        for i, (rep, mult) in enumerate(out):
            if modules_isomorphic(rep, leaf):
                out[i] = (rep, mult + 1)
                break
        else:
            out.append((leaf, 1))
    found = sum(rep.dim * mult for rep, mult in out)
    assert found == M.dim, "factor dims add up to %d, not %d" % (found, M.dim)
    return out


def _intertwiner(A, B, seed=0):
    """The S with g_A S = S g_B for every generator pair, or None when
    A and B are not isomorphic; A must be irreducible.  An isomorphism
    takes the kernel ka of a nullity-1 word on A to a multiple of its
    kernel kb on B, so (ka, kb) spins in A + B, under diag(g_A, g_B), to
    rows [I | S] (one spin in the direct sum).  Raises Undecided when no
    nullity-1 word turns up."""
    F, dim = A.field, A.dim
    if dim == 1:
        return linalg.identity(1) if A.gens == B.gens else None
    rng = random.Random(seed)
    zero = (0,) * dim
    E = linalg.Echelon(F, dim)
    AB = GModule.unchecked(F, 2 * dim, tuple(
        tuple(r + zero for r in ga) + tuple(zero + r for r in gb)
        for ga, gb in zip(A.gens, B.gens)))
    for _ in range(_ISO_TRIES):
        recipe = _random_word(rng, len(A.gens), F.p)
        ka = list(E.solve(_eval_word(E, A.packed_gens, recipe))[1].values())
        kb = list(E.solve(_eval_word(E, B.packed_gens, recipe))[1].values())
        if len(ka) != len(kb):
            return None
        if len(ka) != 1:
            continue
        span = spin(AB, [ka[0] + kb[0]])
        if sum(p < dim for p in span.pivots) < dim:  # pivots in A's half
            continue  # A was not irreducible over this vector; resample
        if len(span.pivots) > dim:
            return None
        return tuple(r[dim:] for r in span.rows)
    raise Undecided("no nullity-1 word found in %d tries" % _ISO_TRIES)


def modules_isomorphic(A, B, seed=0):
    """Isomorphism test for irreducible modules (one spin in the direct sum).
    Raises Undecided when no nullity-1 word turns up in _ISO_TRIES words."""
    if A.field is not B.field or A.dim != B.dim or len(A.gens) != len(B.gens):
        return False
    return _intertwiner(A, B, seed) is not None


# ---------------------------------------------------------------------------
# invariant bilinear forms

def invariant_bilinear_form(M):
    """(kind, B) with kind in {'symmetric', 'alternating', 'none'}.

    B solves g B g^T = B for every generator g (row convention): it is the
    intertwiner from M to its dual, the module on the g^-T.  M must be
    absolutely irreducible.  'none' means M has no non-degenerate
    invariant form.  The scalar is pinned by making the last nonzero entry
    of B, in row-major order, 1.  Raises Undecided when no nullity-1 word
    turns up, as for a reducible or not absolutely irreducible M.
    """
    F, d = M.field, M.dim
    # mat_inv has shown each g^-T invertible, so the dual skips the checks
    dual = GModule.unchecked(F, d, tuple(linalg.transpose(linalg.mat_inv(F, g))
                                         for g in M.gens))
    B = _intertwiner(M, dual)
    if B is None:
        return ("none", None)
    last = next(x for row in reversed(B) for x in reversed(row) if x)
    B = tuple(linalg.vec_scale(F, F.inv(last), row) for row in B)
    assert all(groups.preserves_form(F, g, B) for g in M.gens)
    Bt = linalg.transpose(B)
    if B == Bt:
        return ("symmetric", B)
    # M is absolutely irreducible, so every intertwiner M -> M* is a
    # multiple of B; B^T is one, hence B^T = -B.
    assert B == tuple(linalg.vec_scale(F, F.neg(1), row) for row in Bt)
    return ("alternating", B)


# ---------------------------------------------------------------------------
# the S_8 pipeline: permutation module, tensor square, dim-13 factor,
# invariant form, and its 315-point orbits.  Each has a stabiliser of order
# 40320/315 = 128, a Sylow 2-subgroup, so by Sylow's theorem it holds a line
# fixed by P below, and only one, as P is self-normalising in S8.

# P's generators (0 1), (0 2)(1 3) and (0 4)(1 5)(2 6)(3 7), as words in
# the pipeline's generators s = (0 1) and c = (0 1 ... 7), with their
# permutations
_S8_SYLOW2 = (
    ((0,), (1, 0, 2, 3, 4, 5, 6, 7)),
    ((1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1),
     (2, 3, 0, 1, 4, 5, 6, 7)),
    ((1, 1, 1, 1), (4, 5, 6, 7, 0, 1, 2, 3)),
)


def _word_matrix(M, word):
    """The product of M's generators along word (generator indices)."""
    E = linalg.Echelon(M.field, M.dim)
    return tuple(map(E.unpack, _eval_word(E, M.packed_gens, [(1, word)])))


def _eigenspace(F, mats, signs):
    """Basis rows of the v with v g = e v for every g, e of mats, signs:
    the left nullspace of [g1 - e1 I | g2 - e2 I | ...]."""
    ident = linalg.identity(len(mats[0]))
    return linalg.nullspace_rows(F, tuple(
        sum((linalg.vec_sub(F, g[r], linalg.vec_scale(F, e, ident[r]))
             for g, e in zip(mats, signs)), ())
        for r in range(len(ident))))


def s8_pipeline():
    """The factor dims of the S8 tensor square and, per point type of its
    dim-13 factor, the (c, d) of the 315-point orbits in orbit_partition's
    order (by least code).  A 315-point orbit's stabiliser is a Sylow
    2-subgroup, so the orbit holds exactly one line fixed by P (which is
    self-normalising): only the lines P fixes up to sign are scanned."""
    F = GF3
    n = 8
    perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    U = permutation_module(n, perms, F)
    T = tensor_module(U, U)
    factors = composition_factors(T)
    dim13 = next(mod for mod, _ in factors if mod.dim == 13)
    kind, B = invariant_bilinear_form(dim13)
    if kind != "symmetric":
        raise RuntimeError("dim-13 factor carries no symmetric form")
    space = geometry.QuadraticSpace(F, B)
    # invariant_bilinear_form asserted g B g^T = B
    group = groups.MatrixGroup.unchecked(F, 13, dim13.gens, "s8-dim13", B)
    dims = sorted(mod.dim for mod, mult in factors for _ in range(mult))
    for word, perm in _S8_SYLOW2:
        assert _word_matrix(U, word) == linalg.perm_matrix(perm), word
    mats = [_word_matrix(dim13, word) for word, _perm in _S8_SYLOW2]
    E = linalg.Echelon(F, 13)
    hits = {}  # an orbit's least code -> (type, (c, d))
    for signs in itertools.product((1, F.neg(1)), repeat=len(mats)):
        for v in _kernel_lines(E, _eigenspace(F, mats, signs)):
            ptype = geometry.point_type(space, v)
            if ptype == geometry.ZERO:
                continue
            size, d, codes = groups.orbit_codes(space, group, v)
            if size == 315:
                least = int(codes.min())
                assert least not in hits, \
                    "two P-fixed lines in one 315-point orbit"
                hits[least] = ("+" if ptype == geometry.PLUS
                               else "-", (size - 1 - d, d))
    small = {"+": [], "-": []}
    for _code, (xi, cd) in sorted(hits.items()):
        small[xi].append(cd)
    return {"factor_dims": dims, "small": small}
