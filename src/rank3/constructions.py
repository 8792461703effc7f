"""Explicit matrix-group constructions on quadratic spaces over GF(3).

Each builder returns a ConstructedCase: a space, a group preserving its
form, and pinned base points.  Covered families: frame (wreath)
stabilizers, parabolic subgroups, restriction of scalars from GF(27),
fully deleted permutation modules of S_n, wedge and symmetric squares of
the natural orthogonal/symplectic modules, tensor-product subgroups, and
a few imprimitive / subspace stabilizers used as negative examples.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import fields, geometry, groups, higman, linalg

GF3 = fields.GF3
PLUS, MINUS = geometry.PLUS, geometry.MINUS


@dataclass(frozen=True)
class ConstructedCase:
    label: str
    space: geometry.QuadraticSpace
    group: groups.MatrixGroup
    base_points: tuple  # ((vector, expected type or None), ...)
    citation: str

    def __post_init__(self):
        for v, t in self.base_points:
            if self.space.q_value(v) == 0:
                raise ValueError("base point %r is singular" % (v,))
            if t is not None and geometry.point_type(self.space, v) != t:
                raise ValueError("base point %r is not of type %s" % (v, t))


def _embed_block(g, n, offset):
    big = [list(r) for r in linalg.identity(n)]
    d = len(g)
    for i in range(d):
        for j in range(d):
            big[offset + i][offset + j] = g[i][j]
    return tuple(tuple(r) for r in big)


def orbit_partition(space, group, xi):
    """All group orbits on the projective points of type xi.

    Returns a list of OrbitReports, one per orbit, ordered by the
    smallest packed code they contain (deterministic).
    """
    if space.field.q != 3:
        raise ValueError("orbit_partition scans GF(3) only, got %r"
                         % space.field)
    # the unvisited points of type xi, a mask over the point codes
    todo = np.zeros(2 * 3 ** (space.n - 1), dtype=bool)
    todo[geometry.nonsingular_codes(space, xi)] = True
    reports, i = [], 0
    while True:
        # the next start is the first unvisited code from the last start on
        i += int(todo[i:].argmax())
        if not todo[i]:
            break
        start = tuple(geometry.decode_codes(np.r_[i], space.n)[0].tolist())
        t0 = time.perf_counter()
        size, d, orbit = groups.orbit_codes(space, group, start)
        reports.append(groups.make_report(space, start, size, d,
                                          time.perf_counter() - t0))
        if not todo[orbit].all():
            raise AssertionError("orbit of %r leaves the unvisited points"
                                 % (start,))
        todo[orbit] = False
        if todo[i]:
            raise AssertionError("start %r is still unvisited" % (start,))
    if space.n >= 5:
        total = higman.odd_orthogonal_params((space.n - 1) // 2, xi).total
        found = sum(r.size for r in reports)
        if found != total:
            raise AssertionError("orbit sizes of type %s add up to %d, not "
                                 "|E_%s| = %d" % (xi, found, xi, total))
    return reports


# ---------------------------------------------------------------------------
# frame (wreath) stabilizer on an orthonormal basis

def wreath_o1_subgroup(n):
    """Stabilizer of the orthonormal frame {<x_1>,...,<x_n>} inside Omega_n(3):
    sign changes on pairs of coordinates together with even permutations."""
    if n % 2 == 0 or not 5 <= n <= 13:
        raise ValueError("n must be odd with 5 <= n <= 13")
    F = GF3
    space = geometry.standard_space(n, F)
    signs = _embed_block(((2, 0), (0, 2)), n, 0)
    three_cycle = linalg.perm_matrix((1, 2, 0) + tuple(range(3, n)))
    n_cycle = linalg.perm_matrix(tuple(range(1, n)) + (0,))  # even since n is odd
    gens = (signs, three_cycle, n_cycle)
    group = groups.MatrixGroup(F, n, gens, label="frame-stab-%d" % n,
                               gram=space.gram)
    x1 = (1,) + (0,) * (n - 1)
    x12 = (1, 1) + (0,) * (n - 2)
    return ConstructedCase("wreath-n%d" % n, space, group,
                           ((x1, None), (x12, None)),
                           "frame stabilizer, orthonormal basis")


def wreath_pinned_cd(n):
    """Closed-form (c, d) for the two pinned frame-stabilizer base points."""
    return {"x1": (0, n - 1), "x1+x2": (4 * n - 8, n * n - 5 * n + 7)}


# ---------------------------------------------------------------------------
# parabolic subgroup: stabilizer of a totally singular alpha-subspace

def _parabolic_gram(alpha, s):
    n = 2 * alpha + s
    g = [[0] * n for _ in range(n)]
    for i in range(alpha):
        g[i][alpha + s + i] = 1
        g[alpha + s + i][i] = 1
    for i in range(s):
        g[alpha + i][alpha + i] = 1
    return tuple(tuple(r) for r in g)


def parabolic_subgroup(n, alpha):
    """Stabilizer (inside Omega_n(3)) of the totally singular subspace
    <e_1,...,e_alpha>, written on the basis (e, x, f) with Gram
    [[0,0,I],[0,I,0],[I,0,0]].  alpha = m is rejected: x is then a line,
    too small for Omega(x) and the spinor-norm compensator used here."""
    m = (n - 1) // 2
    if n % 2 == 0 or alpha < 1 or alpha >= m:
        raise ValueError("need odd n and 1 <= alpha <= m - 1 = %d "
                         "(P_m is not built)" % (m - 1))
    F = GF3
    s = n - 2 * alpha
    gram = _parabolic_gram(alpha, s)
    space = geometry.QuadraticSpace(F, gram)

    basis = linalg.identity(n)
    e, x, f = basis[:alpha], basis[alpha:alpha + s], basis[alpha + s:]

    # the unipotent radical, E(e_j, x_i) and then E(e_k, e_j) for j < k, and
    # the Levi transvections are Eichler transformations (Taylor, ch. 11)
    gens = [groups.eichler(space, e[j], x[i])
            for i in range(s) for j in range(alpha)]
    gens += [groups.eichler(space, e[k], e[j])
             for j, k in itertools.combinations(range(alpha), 2)]
    # Levi GL_alpha: the transvections e_1 -> e_1 + e_2, e_2 -> e_2 + e_1
    if alpha >= 2:
        gens += [groups.eichler(space, e[1], f[0]),
                 groups.eichler(space, e[0], f[1])]

    # the torus element -1 on <e_1, f_1> has det 1 but non-square spinor
    # norm; a product of two reflections inside X pushes it into Omega
    comp = linalg.mat_mul(F, groups.reflection(space, x[0]),
                          groups.reflection(space,
                                            linalg.vec_add(F, x[0], x[1])))
    assert groups.spinor_norm(space, comp) == fields.NONSQUARE
    torus = [list(r) for r in basis]
    torus[0][0] = torus[alpha + s][alpha + s] = 2
    torus = linalg.mat_from_rows(torus)
    assert groups.spinor_norm(space, torus) == fields.NONSQUARE
    torus = linalg.mat_mul(F, torus, comp)
    assert groups.spinor_norm(space, torus) == fields.SQUARE
    gens.append(torus)

    sub = geometry.standard_space(s, F)
    gens.extend(_embed_block(g, n, alpha)
                for g in groups.omega_generators(sub).gens)

    group = groups.MatrixGroup(F, n, tuple(gens),
                               label="parabolic-n%d-a%d" % (n, alpha),
                               gram=gram)
    base = []
    for t in (PLUS, MINUS):
        # the x block of the gram is sub's, so xv has Q = eta, as has
        # eta*e_1 + f_1
        eta = next(g for g in F.nonzero()
                   if geometry.type_of_qvalue(space, g) == t)
        xv = (0,) * alpha + groups.find_vector_with_q(sub, eta) + (0,) * alpha
        z = (eta,) + (0,) * (alpha + s - 1) + (1,) + (0,) * (alpha - 1)
        assert space.q_value(xv) == space.q_value(z) == eta
        base.append((xv, t))
        base.append((z, t))
    return ConstructedCase("parabolic-n%d-a%d" % (n, alpha), space, group,
                           tuple(base), "singular-subspace stabilizer")


# ---------------------------------------------------------------------------
# restriction of scalars: Omega_3(27) blown down to GF(3)^9

def _normal_basis(F27):
    """Power-basis coordinate rows of z, z^3, z^9 for the first z (in code
    order) whose Frobenius orbit is a GF(3)-basis of GF(27)."""
    for code in range(1, 27):
        rows = []
        z = code
        for _ in range(3):
            rows.append(tuple(fields._decode(z, 3, 3)))
            z = F27.frobenius(z)
        if linalg.det(GF3, rows) != 0:
            return rows
    raise RuntimeError("no normal element found")


def field_extension_subgroup():
    """Omega_3(27) acting on GF(27)^3 = GF(3)^9, with Q = trace of the
    GF(27)-form, plus the Frobenius map; written on a normal basis."""
    F27 = fields.field_create(3, 3)
    F = GF3
    basis27 = _normal_basis(F27)  # power-basis rows of zeta^(3^j)
    zs = [fields._encode(r, 3) for r in basis27]
    to_normal = linalg.mat_inv(F, basis27)

    def to_normal_coords(u):
        return linalg.vec_mat(F, fields._decode(u, 3, 3), to_normal)

    def embed(v27):
        return sum((to_normal_coords(u) for u in v27), ())

    space27 = geometry.standard_space(3, F27)
    om27 = groups.omega_generators(space27)

    # basis of GF(3)^9: block i holds zeta^(3^j) * w_i for j = 0,1,2, so
    # block (i, k) of the image of g27 is multiplication by g27[i][k]
    def blow_down(g27):
        return tuple(embed(F27.mul(a, z) for a in row)
                     for row in g27 for z in zs)

    tr_gram = tuple(tuple(F27.trace(F27.mul(za, zb)) for zb in zs)
                    for za in zs)
    space = geometry.QuadraticSpace(
        F, linalg.kron(F, linalg.identity(3), tr_gram))

    # Frobenius permutes the normal basis inside each block
    frob = linalg.perm_matrix(tuple(3 * (k // 3) + (k + 1) % 3
                                    for k in range(9)))
    gens = [blow_down(g) for g in om27.gens] + [frob]
    group = groups.MatrixGroup(F, 9, tuple(gens), label="fieldext-n9",
                               gram=space.gram)

    w = 3  # a primitive element omega
    base = (
        (embed((F27.pow(w, 1), 0, 0)), None),
        (embed((F27.pow(w, 2), 0, 0)), None),
        (embed((F27.pow(w, 4), F27.pow(w, 4), 0)), None),
    )
    return ConstructedCase("fieldext-n9", space, group, base,
                           "scalar restriction from GF(27)")


def trace_form_disc_class(space):
    """Square class of the discriminant of the trace form on GF(27), read
    off the first 3x3 block of the field_extension_subgroup space."""
    block = [row[:3] for row in space.gram[:3]]
    return GF3.square_class(linalg.det(GF3, block))


# ---------------------------------------------------------------------------
# fully deleted permutation module of S_n

def deleted_permutation_module(n):
    """S_n on sum-zero vectors of GF(3)^n modulo the all-ones line,
    with the form induced by the standard dot product."""
    if not 8 <= n <= 16:
        raise ValueError("supported range is 8 <= n <= 16")
    F = GF3
    E = [tuple(1 if k == i else 2 if k == i + 1 else 0 for k in range(n))
         for i in range(n - 1)]
    # the all-ones line lies in span(E), and in its radical, when 3 | n
    rad = [(1,) * n] if n % 3 == 0 else []
    perms = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    space, gens, _coords = _subquotient(
        F, linalg.identity(n), [linalg.perm_matrix(p) for p in perms], E, rad)
    dim = space.n
    group = groups.MatrixGroup(F, dim, gens, label="deleted-n%d" % n,
                               gram=space.gram)
    v = (1,) + (0,) * (dim - 1)                      # image of eps1 - eps2
    w = (1, 2, 1) + (0,) * (dim - 3)                 # image of eps1+eps2-eps3-eps4
    assert space.q_value(v) == 1 and space.q_value(w) == 2
    return ConstructedCase("deleted-n%d" % n, space, group,
                           ((v, None), (w, None)),
                           "fully deleted permutation module")


def deleted_module_closed_forms(n, which):
    """(orbit size, c, d) closed forms for the two pinned base points."""
    if n < 10:
        raise ValueError("closed forms hold for n >= 10")
    if which == "v":
        return (n * (n - 1) // 2, 2 * n - 4, (n - 2) * (n - 3) // 2)
    if which == "w":
        orbit = n * (n - 1) * (n - 2) * (n - 3) // 8
        c = 2 * n ** 3 - 25 * n ** 2 + 111 * n - 172
        d = 2 + 4 * (n - 4) ** 2 + (n - 4) * (n - 5) * (n - 6) * (n - 7) // 8
        return (orbit, c, d)
    raise ValueError("which must be 'v' or 'w'")


# ---------------------------------------------------------------------------
# wedge and symmetric squares

def _pairs(n, strict):
    return [(i, j) for i in range(n) for j in range(i + 1 if strict else i, n)]


def _square_vector(n, strict, entries):
    """The vector with the entries {(i, j): x} on the _pairs basis."""
    return tuple(entries.get(pair, 0) for pair in _pairs(n, strict))


def square_matrix(F, g, sign):
    """The action of g on the wedge square (sign -1, basis e_i^e_j, i < j)
    or the symmetric square (sign 1, basis e_i.e_j, i <= j): entry (ij, kl)
    is g_ik g_jl + sign g_il g_jk, halved on the rows e_i.e_i."""
    idx = _pairs(len(g), sign < 0)
    pm, half = F.sub if sign < 0 else F.add, F.inv(F.from_int(2))
    return tuple(tuple(
        F.mul(half if i == j else 1,
              pm(F.mul(g[i][k], g[j][l]), F.mul(g[i][l], g[j][k])))
        for k, l in idx) for i, j in idx)


def sym_gram(F, gram):
    """The Gram matrix of the symmetric square: square_matrix of the Gram
    matrix, with each e_k.e_l column (k != l) doubled."""
    idx = _pairs(len(gram), False)
    return tuple(tuple(x if k == l else F.mul(2, x)
                       for x, (k, l) in zip(row, idx))
                 for row in square_matrix(F, gram, 1))


def _subquotient(F, gram, gens, sub_rows, rad_rows):
    """linalg.subquotient with the form restricted too: (QuadraticSpace,
    new gens, coords).  The radical rows must lie in the subspace and in
    the radical of the restricted form."""
    ambient = groups.MatrixGroup.unchecked(F, len(gram), tuple(gens))
    basis, new_gens, coords = linalg.subquotient(ambient, sub_rows, rad_rows)
    new_gram = linalg.mat_mul(F, basis, linalg.mat_mul(F, gram,
                                                       linalg.transpose(basis)))
    return geometry.QuadraticSpace(F, new_gram), new_gens, coords


def _omega7_pair():
    """The dim-7 space on the basis (e1,e2,e3,x,f1,f2,f3) with f(ei,fi)=1
    and f(x,x)=1, so the inverse-Gram tensor is sum(ei.fi + fi.ei) + x.x,
    and two words in its Eichler generators that generate Omega_7(3): the
    action on the 364 singular points is faithful, so a certified order
    of |Omega_7(3)| there proves it."""
    nat = geometry.QuadraticSpace(GF3, _parabolic_gram(3, 1))
    pair = groups.certified_words(groups.omega_generators(nat).gens,
                                  geometry.singular_codes(nat),
                                  groups.omega_order(7, 3))
    return nat, pair


def wedge_square_rep():
    """Omega_7(3) acting on the wedge square of its natural module (dim 21)."""
    F = GF3
    nat, pair = _omega7_pair()
    gram = square_matrix(F, nat.gram, -1)
    space = geometry.QuadraticSpace(F, gram)
    gens = tuple(square_matrix(F, g, -1) for g in pair)
    group = groups.MatrixGroup(F, 21, gens, label="wedge-n7", gram=gram)
    base = tuple((_square_vector(7, True, {(0, 3): 1, (3, 4): xi}), None)
                 for xi in (1, 2))  # v = (e1 - xi*f1) ^ x
    return ConstructedCase("wedge-n7", space, group, base,
                           "wedge square of the natural module")


def sym_square_o7_rep():
    """Omega_7(3) on the 27-dim complement of the invariant vector inside
    the symmetric square of its natural module."""
    F = GF3
    nat, pair = _omega7_pair()
    big_gram = sym_gram(F, nat.gram)
    big_gens = [square_matrix(F, g, 1) for g in pair]
    w = _square_vector(7, False, {(0, 4): 1, (1, 5): 1, (2, 6): 1, (3, 3): 1})
    amb = geometry.QuadraticSpace(F, big_gram)
    assert amb.form(w, w) != 0  # w spans a non-degenerate line: dim w-perp = 27
    sub = amb.perp_basis([w])
    space, gens, coords = _subquotient(F, big_gram, big_gens, sub, [])
    group = groups.MatrixGroup(F, 27, gens, label="sym-n7-d27",
                               gram=space.gram)
    base = tuple((coords(_square_vector(7, False, {(0, 3): 1, (3, 4): xi})),
                  None) for xi in (1, 2))  # image of (e1 + xi*f1).x
    return ConstructedCase("sym-n7-d27", space, group, base,
                           "symmetric square, invariant line removed")


# ---------------------------------------------------------------------------
# Sp_6(3) and its small defining-characteristic modules

def _sp6_data():
    F = GF3
    n = 6
    e = linalg.identity(n)  # e_1, e_2, e_3, f_1, f_2, f_3
    # f(e_i, f_i) = 1 and f(f_i, e_i) = 2 = -1
    gram = e[3:] + tuple(linalg.vec_scale(F, 2, x) for x in e[:3])
    seeds = [x for i in range(3) for x in (e[i], e[3 + i])]
    seeds += [linalg.vec_add(F, e[i], e[3 + j])
              for i in range(3) for j in range(3) if i != j]
    # the transvections t(v): x -> x + f(x, v) v; t(v)^-1 = t(v)^2 is the
    # one with 2 in place of 1, so it adds nothing to the group
    gens = []
    for v in seeds:
        fv = linalg.vec_mat(F, v, linalg.transpose(gram))  # f(e_r, v) by r
        t = tuple(linalg.vec_add(F, x, linalg.vec_scale(F, c, v))
                  for x, c in zip(e, fv))
        assert groups.preserves_form(F, t, gram)
        gens.append(t)
    # Two words in the transvections, certified by |PSp_6(3)| = |Omega_7(3)|
    # on the 364 points of PG(5,3), where Sp_6(3) acts with kernel {+-1}:
    # the words and -1 generate Sp_6(3), and as Sp_6(3) is perfect, a
    # subgroup of index 2 would be normal with an abelian quotient, so the
    # words alone generate it.
    points = np.concatenate([3 ** t + np.arange(3 ** t) for t in range(n)])
    return gram, groups.certified_words(gens, points,
                                        groups.omega_order(7, 3))


def symplectic_lambda2_module():
    """Sp_6(3) on the 13-dim section w-perp / <w> of the wedge square of
    its natural symplectic module."""
    F = GF3
    gram6, sp_gens = _sp6_data()
    big_gram = square_matrix(F, gram6, -1)
    big_gens = [square_matrix(F, g, -1) for g in sp_gens]
    w = _square_vector(6, True, {(i, 3 + i): 1 for i in range(3)})
    amb = geometry.QuadraticSpace(F, big_gram)
    assert amb.form(w, w) == 0  # w is in the radical of w-perp
    sub = amb.perp_basis([w])
    space, gens, coords = _subquotient(F, big_gram, big_gens, sub, [w])
    assert space.n == 13
    group = groups.MatrixGroup(F, 13, gens, label="sp6-lambda2",
                               gram=space.gram)
    base = []
    for t in (PLUS, MINUS):
        x = geometry.first_nonsingular_point(space, t)
        base.append((x, t))
    return ConstructedCase("sp6-lambda2", space, group, tuple(base),
                           "symplectic wedge-square section")


def symplectic_sym2_module():
    """Sp_6(3) on the symmetric square of its natural module (dim 21)."""
    F = GF3
    gram6, sp_gens = _sp6_data()
    gram = sym_gram(F, gram6)
    gens = tuple(square_matrix(F, g, 1) for g in sp_gens)
    space = geometry.QuadraticSpace(F, gram)
    group = groups.MatrixGroup(F, 21, gens, label="sp6-sym2", gram=gram)
    base = [(_square_vector(6, False, {(0, 0): 1, (3, 3): xi}), None)
            for xi in (1, 2)]  # e1.e1 + xi * f1.f1
    # -(e1.e1 + f1.f1 + f2.f2) + f3.f3: its orbit is the large one of
    # 10,614,240 points (stabilizer of order 864 in Sp_6(3)).
    base.append((_square_vector(6, False, {(0, 0): 2, (3, 3): 2, (4, 4): 2,
                                           (5, 5): 1}), None))
    return ConstructedCase("sp6-sym2", space, group, tuple(base),
                           "symplectic symmetric square (heavy orbit)")


# ---------------------------------------------------------------------------
# tensor products and imprimitive negative examples

def _tensor_case(label, n1, n2, extra, citation):
    """Omega_{n1}(3) x Omega_{n2}(3) on the tensor product of the standard
    spaces, plus the extra generators; base point v1 (x) v2 with v1, v2
    the first basis vectors."""
    F = GF3
    s1 = geometry.standard_space(n1, F)
    s2 = geometry.standard_space(n2, F)
    i1, i2 = linalg.identity(n1), linalg.identity(n2)
    gens = tuple(linalg.kron(F, g, i2)
                 for g in groups.omega_generators(s1).gens) + \
        tuple(linalg.kron(F, i1, g)
              for g in groups.omega_generators(s2).gens) + extra
    gram = linalg.kron(F, s1.gram, s2.gram)
    n = n1 * n2
    space = geometry.QuadraticSpace(F, gram)
    group = groups.MatrixGroup(F, n, gens, label=label, gram=gram)
    v = (1,) + (0,) * (n - 1)
    return ConstructedCase(label, space, group, ((v, None),), citation)


def tensor_product_subgroup():
    """Omega_3(3) x Omega_5(3) acting on the tensor product."""
    return _tensor_case("tensor-3x5", 3, 5, (), "tensor product subgroup")


def c7_wreath_subgroup():
    """(Omega_5(3) x Omega_5(3)) . 2 on GF(3)^5 (x) GF(3)^5, with the
    factor-swap; base point v (x) v."""
    swap = linalg.perm_matrix(tuple(5 * (k % 5) + k // 5 for k in range(25)))
    return _tensor_case("c7wreath-d25", 5, 5, (swap,),
                        "tensor-wreath subgroup on 5x5")


def imprimitive_o3_wr_s3():
    """Block stabilizer of the decomposition GF(3)^9 = V1 + V2 + V3 into
    orthogonal 3-dim blocks: per-block Omega_3(3) plus the block 3-cycle."""
    F = GF3
    space = geometry.standard_space(9, F)
    s3 = geometry.standard_space(3, F)
    om3 = groups.omega_generators(s3)
    gens = []
    for b in range(3):
        for g in om3.gens:
            gens.append(_embed_block(g, 9, 3 * b))
    cycle = linalg.perm_matrix(tuple((i + 3) % 9 for i in range(9)))
    gens.append(cycle)
    group = groups.MatrixGroup(F, 9, tuple(gens), label="imprim-o3s3",
                               gram=space.gram)
    base = []
    for t in (PLUS, MINUS):
        x = geometry.first_nonsingular_point(s3, t)
        base.append((tuple(x) + (0,) * 6, None))
    return ConstructedCase("imprim-o3s3", space, group, tuple(base),
                           "orthogonal block-decomposition stabilizer")


def subspace_stabilizer_n7_w3():
    """Omega(W1) x Omega(W2) for the splitting GF(3)^7 = W1 + W2 with
    dim W1 = 3; base point a plus-type point of W1."""
    F = GF3
    space = geometry.standard_space(7, F)
    s3 = geometry.standard_space(3, F)
    s4 = geometry.standard_space(4, F)
    gens = [_embed_block(g, 7, 0) for g in groups.omega_generators(s3).gens]
    gens += [_embed_block(g, 7, 3) for g in groups.omega_generators(s4).gens]
    group = groups.MatrixGroup(F, 7, tuple(gens), label="substab-n7-w3",
                               gram=space.gram)
    x = geometry.first_nonsingular_point(s3, PLUS)
    base = ((tuple(x) + (0,) * 4, None),)
    return ConstructedCase("substab-n7-w3", space, group, base,
                           "orthogonal-sum stabilizer")


# ---------------------------------------------------------------------------
# registry

CASE_BUILDERS = {
    "wreath-n5": lambda: wreath_o1_subgroup(5),
    "wreath-n7": lambda: wreath_o1_subgroup(7),
    "wreath-n9": lambda: wreath_o1_subgroup(9),
    "wreath-n11": lambda: wreath_o1_subgroup(11),
    "wreath-n13": lambda: wreath_o1_subgroup(13),
    "parabolic-n7-a1": lambda: parabolic_subgroup(7, 1),
    "parabolic-n7-a2": lambda: parabolic_subgroup(7, 2),
    "fieldext-n9": field_extension_subgroup,
    "deleted-n10": lambda: deleted_permutation_module(10),
    "deleted-n11": lambda: deleted_permutation_module(11),
    "deleted-n12": lambda: deleted_permutation_module(12),
    "deleted-n13": lambda: deleted_permutation_module(13),
    "deleted-n14": lambda: deleted_permutation_module(14),
    "deleted-n15": lambda: deleted_permutation_module(15),
    "deleted-n16": lambda: deleted_permutation_module(16),
    "wedge-n7": wedge_square_rep,
    "sym-n7-d27": sym_square_o7_rep,
    "sp6-lambda2": symplectic_lambda2_module,
    "sp6-sym2": symplectic_sym2_module,
    "tensor-3x5": tensor_product_subgroup,
    "c7wreath-d25": c7_wreath_subgroup,
    "imprim-o3s3": imprimitive_o3_wr_s3,
    "substab-n7-w3": subspace_stabilizer_n7_w3,
}


def build_case(label):
    try:
        builder = CASE_BUILDERS[label]
    except KeyError:
        raise ValueError("unknown construction label %r" % label) from None
    return builder()
