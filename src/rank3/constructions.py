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

from . import fields, geometry, groups, linalg

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


def perm_matrix(F, perm):
    """Row-vector convention: basis vector i maps to basis vector perm[i]."""
    n = len(perm)
    g = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        g[i][j] = 1
    return tuple(tuple(r) for r in g)


def _embed_block(F, g, n, offset):
    big = [list(r) for r in linalg.identity(n)]
    d = len(g)
    for i in range(d):
        for j in range(d):
            big[offset + i][offset + j] = g[i][j]
    return tuple(tuple(r) for r in big)


def orbit_partition(space, group, xi, cap=groups.ORBIT_CAP):
    """All group orbits on the projective points of type xi.

    Returns a list of OrbitReports, one per orbit, ordered by the
    smallest packed code they contain (deterministic).
    """
    remaining = geometry.nonsingular_codes(space, xi)
    reports = []
    while remaining.size:
        start = tuple(int(x) for x in
                      geometry.decode_codes(remaining[:1], space.n)[0])
        t0 = time.time()
        size, d, codes = groups.orbit_codes(space, group, start, cap)
        reports.append(groups.make_report(space, start, size, d,
                                          time.time() - t0))
        pos = np.searchsorted(remaining, codes)
        if not (remaining.take(pos, mode="clip") == codes).all():
            raise AssertionError("orbit of %r leaves the unvisited points"
                                 % (start,))
        keep = np.ones(remaining.size, dtype=bool)
        keep[pos] = False
        remaining = remaining[keep]
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
    signs = [list(r) for r in linalg.identity(n)]
    signs[0][0] = signs[1][1] = 2
    three_cycle = perm_matrix(F, (1, 2, 0) + tuple(range(3, n)))
    n_cycle = perm_matrix(F, tuple(range(1, n)) + (0,))  # even since n is odd
    gens = (tuple(tuple(r) for r in signs), three_cycle, n_cycle)
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

    def unipotent(B, A):
        # rows are images: e_j fixed; x_i -> x_i + B[i].e; f_j -> f_j + A[j].e + C[j].x
        C = [[F.neg(B[i][j]) for i in range(s)] for j in range(alpha)]
        u = [list(r) for r in linalg.identity(n)]
        for i in range(s):
            for j in range(alpha):
                u[alpha + i][j] = B[i][j]
        for j in range(alpha):
            for k in range(alpha):
                u[alpha + s + j][k] = A[j][k]
            for i in range(s):
                u[alpha + s + j][alpha + i] = C[j][i]
        u = tuple(tuple(r) for r in u)
        assert groups.preserves_form(F, u, gram)
        return u

    gens = []
    for i in range(s):
        for j in range(alpha):
            B = [[0] * alpha for _ in range(s)]
            B[i][j] = 1
            # A must satisfy A + A^t + B^t B = 0; over GF(3) take A = B^t B
            A = [[(B[i][j1] * B[i][j2]) % 3 for j2 in range(alpha)]
                 for j1 in range(alpha)]
            gens.append(unipotent(B, A))
    for j, k in itertools.combinations(range(alpha), 2):
        A = [[0] * alpha for _ in range(alpha)]
        A[j][k], A[k][j] = 1, 2
        gens.append(unipotent([[0] * alpha for _ in range(s)], A))

    def levi(D):
        Dinv_t = linalg.transpose(linalg.mat_inv(F, D))
        g = [list(r) for r in linalg.identity(n)]
        for i in range(alpha):
            for j in range(alpha):
                g[i][j] = D[i][j]
                g[alpha + s + i][alpha + s + j] = Dinv_t[i][j]
        g = tuple(tuple(r) for r in g)
        assert groups.preserves_form(F, g, gram)
        return g

    levis = []
    if alpha >= 2:
        for a, b in ((0, 1), (1, 0)):
            D = [list(r) for r in linalg.identity(alpha)]
            D[a][b] = 1
            levis.append(levi(tuple(tuple(r) for r in D)))
    D = [list(r) for r in linalg.identity(alpha)]
    D[0][0] = 2
    levis.append(levi(tuple(tuple(r) for r in D)))

    sub = geometry.standard_space(s, F)
    omega_x = [_embed_block(F, g, n, alpha)
               for g in groups.omega_generators(sub).gens]

    # a spinor-norm compensator acting inside X, used to push the
    # non-Omega part of a Levi generator back into the kernel
    a = (0,) * alpha + (1,) + (0,) * (s - 1) + (0,) * alpha
    b = (0,) * alpha + (1, 1) + (0,) * (s - 2) + (0,) * alpha
    comp = linalg.mat_mul(F, groups.reflection(space, a),
                          groups.reflection(space, b))
    assert groups.spinor_norm(space, comp) == fields.NONSQUARE

    for g in levis:
        if linalg.det(F, g) != 1:
            continue
        if groups.spinor_norm(space, g) != fields.SQUARE:
            g = linalg.mat_mul(F, g, comp)
        assert groups.spinor_norm(space, g) == fields.SQUARE
        gens.append(g)
    gens.extend(omega_x)

    group = groups.MatrixGroup(F, n, tuple(gens),
                               label="parabolic-n%d-a%d" % (n, alpha),
                               gram=gram)
    base = []
    for t in (PLUS, MINUS):
        xv = next(v for v in
                  ((0,) * alpha + tuple(x) + (0,) * alpha
                   for x in groups._small_support_vectors(F, s))
                  if space.q_value(v) != 0
                  and geometry.point_type(space, v) == t)
        eta = space.q_value(xv)
        # eta*e_1 + f_1 has Q = eta, so it matches the type of xv
        z = (eta,) + (0,) * (alpha + s - 1) + (1,) + (0,) * (alpha - 1)
        assert space.q_value(z) == eta
        base.append((xv, t))
        base.append((z, t))
    return ConstructedCase("parabolic-n%d-a%d" % (n, alpha), space, group,
                           tuple(base), "singular-subspace stabilizer")


# ---------------------------------------------------------------------------
# restriction of scalars: Omega_3(27) blown down to GF(3)^9

def _normal_element(F27):
    """First z (in code order) whose Frobenius orbit {z, z^3, z^9} is a
    GF(3)-basis of GF(27)."""
    for code in range(1, 27):
        rows = []
        z = code
        for _ in range(3):
            rows.append(tuple(fields._decode(z, 3, 3)))
            z = F27.frobenius(z)
        if linalg.rank(GF3, rows) == 3:
            return code
    raise RuntimeError("no normal element found")


def field_extension_subgroup():
    """Omega_3(27) acting on GF(27)^3 = GF(3)^9, with Q = trace of the
    GF(27)-form, plus the Frobenius map; written on a normal basis."""
    F27 = fields.field_create(3, 3)
    F = GF3
    zeta = _normal_element(F27)
    basis27 = []  # power-basis coordinate rows of zeta^(3^j)
    z = zeta
    for _ in range(3):
        basis27.append(tuple(fields._decode(z, 3, 3)))
        z = F27.frobenius(z)

    normal_coords = linalg.Echelon(F, basis27).coordinates(basis27)

    def to_normal_coords(u):
        row = normal_coords(tuple(fields._decode(u, 3, 3)))
        assert row is not None
        return row

    space27 = geometry.standard_space(3, F27)
    om27 = groups.omega_generators(space27)

    # basis of GF(3)^9: block i holds zeta^(3^j) * w_i for j = 0,1,2
    def blow_down(g27):
        big = [[0] * 9 for _ in range(9)]
        zs = [fields._encode(r, 3) for r in basis27]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    coeff = F27.mul(g27[i][k], zs[j])
                    row = to_normal_coords(coeff)
                    for l in range(3):
                        big[3 * i + j][3 * k + l] = row[l]
        return tuple(tuple(r) for r in big)

    tr_gram = tuple(tuple(F27.trace(F27.mul(fields._encode(basis27[a], 3),
                                            fields._encode(basis27[b], 3)))
                          for b in range(3)) for a in range(3))
    gram = [[0] * 9 for _ in range(9)]
    for i in range(3):
        for a in range(3):
            for b in range(3):
                gram[3 * i + a][3 * i + b] = tr_gram[a][b]
    space = geometry.QuadraticSpace(F, tuple(tuple(r) for r in gram))

    frob = [[0] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            frob[3 * i + j][3 * i + (j + 1) % 3] = 1
    gens = [blow_down(g) for g in om27.gens] + [tuple(tuple(r) for r in frob)]
    group = groups.MatrixGroup(F, 9, tuple(gens), label="fieldext-n9",
                               gram=space.gram)

    def embed(v27):
        out = []
        for u in v27:
            out.extend(to_normal_coords(u))
        return tuple(out)

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
    E = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, 2
        E.append(tuple(row))
    drop = 1 if n % 3 == 0 else 0
    basis = E[:n - 1 - drop]
    solve_rows = list(basis)
    if drop:
        solve_rows.append((1,) * n)  # quotient by the all-ones line
    solve = linalg.Echelon(F, solve_rows).coordinates(solve_rows)
    dim = len(basis)

    def coords(vec):
        row = solve(vec)
        assert row is not None
        return row[:dim]

    gram = tuple(tuple(sum(a * b for a, b in zip(u, v)) % 3 for v in basis)
                 for u in basis)
    space = geometry.QuadraticSpace(F, gram)

    def action(perm):
        P = perm_matrix(F, perm)
        return tuple(coords(linalg.vec_mat(F, e, P)) for e in basis)

    gens = (action((1, 0) + tuple(range(2, n))),
            action(tuple(range(1, n)) + (0,)))
    group = groups.MatrixGroup(F, dim, gens, label="deleted-n%d" % n,
                               gram=gram)
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


def wedge_matrix(F, g):
    n = len(g)
    idx = _pairs(n, True)
    out = []
    for (i, j) in idx:
        row = []
        for (k, l) in idx:
            row.append(F.sub(F.mul(g[i][k], g[j][l]), F.mul(g[i][l], g[j][k])))
        out.append(tuple(row))
    return tuple(out)


def sym_matrix(F, g):
    """Action on the basis {e_i.e_j (i<j), e_i.e_i} of the symmetric square."""
    n = len(g)
    idx = _pairs(n, False)
    out = []
    for (i, j) in idx:
        row = []
        for (k, l) in idx:
            if i == j:
                row.append(F.mul(g[i][k], g[i][l]) if k != l
                           else F.mul(g[i][k], g[i][k]))
            else:
                if k == l:
                    row.append(F.mul(2, F.mul(g[i][k], g[j][k])))
                else:
                    row.append(F.add(F.mul(g[i][k], g[j][l]),
                                     F.mul(g[i][l], g[j][k])))
        out.append(tuple(row))
    return tuple(out)


def sym_gram(F, gram):
    n = len(gram)
    idx = _pairs(n, False)

    def entry(p, q):
        (i, j), (k, l) = p, q
        if i == j and k == l:
            return F.mul(gram[i][k], gram[i][k])
        if i == j:
            return F.mul(2, F.mul(gram[i][k], gram[i][l]))
        if k == l:
            return F.mul(2, F.mul(gram[i][k], gram[j][k]))
        return F.mul(2, F.add(F.mul(gram[i][k], gram[j][l]),
                              F.mul(gram[i][l], gram[j][k])))

    return tuple(tuple(entry(p, q) for q in idx) for p in idx)


def _subquotient(F, gram, gens, sub_rows, rad_rows):
    """Restrict a form and an action to span(sub_rows)/span(rad_rows).

    Returns (QuadraticSpace, new gens, coords function).  The radical
    rows must lie in the subspace and in the radical of the restricted
    form; pivot-first ordering picks the complement basis.
    """
    span = linalg.Echelon(F)
    rad = [r for r in rad_rows if span.add(r)]
    basis = [s for s in sub_rows if span.add(s)]
    dim = len(basis)
    full_coords = span.coordinates(basis + rad)

    def coords(vec):
        row = full_coords(vec)
        if row is None:
            raise ValueError("vector is outside the subspace")
        return row[:dim]

    new_gram = tuple(tuple(
        sum(a * gram[i][j] * b for i, a in enumerate(u) if a
            for j, b in enumerate(v) if gram[i][j] and b) % F.p
        for v in basis) for u in basis) if F.a == 1 else tuple(
        tuple(_form_val(F, gram, u, v) for v in basis) for u in basis)
    new_gens = tuple(tuple(coords(linalg.vec_mat(F, b, g)) for b in basis)
                     for g in gens)
    return geometry.QuadraticSpace(F, new_gram), new_gens, coords


def _form_val(F, gram, u, v):
    return linalg.vec_dot(F, linalg.vec_mat(F, u, gram), v)


def _hyperbolic_o7_space():
    """Dim-7 space on the basis (e1,e2,e3,x,f1,f2,f3) with f(ei,fi)=1 and
    f(x,x)=1, so the inverse-Gram tensor is sum(ei.fi + fi.ei) + x.x."""
    g = [[0] * 7 for _ in range(7)]
    for i in range(3):
        g[i][4 + i] = g[4 + i][i] = 1
    g[3][3] = 1
    return geometry.QuadraticSpace(GF3, tuple(tuple(r) for r in g))


def wedge_square_rep():
    """Omega_7(3) acting on the wedge square of its natural module (dim 21)."""
    F = GF3
    nat = _hyperbolic_o7_space()
    om = groups.omega_generators(nat)
    idx = _pairs(7, True)
    gram = wedge_matrix(F, nat.gram)
    space = geometry.QuadraticSpace(F, gram)
    gens = tuple(wedge_matrix(F, g) for g in om.gens)
    group = groups.MatrixGroup(F, 21, gens, label="wedge-n7", gram=gram)
    base = []
    for xi in (1, 2):  # v = (e1 - xi*f1) ^ x
        v = [0] * 21
        v[idx.index((0, 3))] = 1
        v[idx.index((3, 4))] = xi
        base.append((tuple(v), None))
    return ConstructedCase("wedge-n7", space, group, tuple(base),
                           "wedge square of the natural module")


def sym_square_o7_rep():
    """Omega_7(3) on the 27-dim complement of the invariant vector inside
    the symmetric square of its natural module."""
    F = GF3
    nat = _hyperbolic_o7_space()
    om = groups.omega_generators(nat)
    idx = _pairs(7, False)
    big_gram = sym_gram(F, nat.gram)
    big_gens = [sym_matrix(F, g) for g in om.gens]
    w = [0] * len(idx)
    for i in range(3):
        w[idx.index((i, 4 + i))] = 1
    w[idx.index((3, 3))] = 1
    w = tuple(w)
    wq = _form_val(F, big_gram, w, w)
    assert wq != 0  # w spans a non-degenerate line; its perp has dim 27
    amb = geometry.QuadraticSpace(F, big_gram)
    sub = amb.perp_basis([w])
    space, gens, coords = _subquotient(F, big_gram, big_gens, sub, [])
    group = groups.MatrixGroup(F, 27, gens, label="sym-n7-d27",
                               gram=space.gram)
    base = []
    for xi in (1, 2):  # image of (e1 + xi*f1).x
        v = [0] * len(idx)
        v[idx.index((0, 3))] = 1
        v[idx.index((3, 4))] = xi
        base.append((coords(tuple(v)), None))
    return ConstructedCase("sym-n7-d27", space, group, tuple(base),
                           "symmetric square, invariant line removed")


# ---------------------------------------------------------------------------
# Sp_6(3) and its small defining-characteristic modules

def _sp6_data():
    F = GF3
    n = 6
    gram = [[0] * n for _ in range(n)]
    for i in range(3):
        gram[i][3 + i] = 1
        gram[3 + i][i] = 2  # -1
    gram = tuple(tuple(r) for r in gram)

    def f(u, v):
        return _form_val(F, gram, u, v)

    seeds = []
    for i in range(3):
        e = tuple(1 if k == i else 0 for k in range(n))
        fv = tuple(1 if k == 3 + i else 0 for k in range(n))
        seeds.extend([e, fv])
    for i in range(3):
        for j in range(3):
            if i != j:
                seeds.append(tuple((1 if k == i else 0) + (1 if k == 3 + j else 0)
                                   for k in range(n)))
    # the transvections t(v): x -> x + f(x, v) v; t(v)^-1 = t(v)^2 is the
    # one with 2 in place of 1, so it adds nothing to the group
    gens = []
    for v in seeds:
        t = tuple(tuple(F.add(1 if r == c else 0,
                              F.mul(f(tuple(1 if k == r else 0
                                            for k in range(n)), v), v[c]))
                        for c in range(n)) for r in range(n))
        assert groups.preserves_form(F, t, gram)
        gens.append(t)
    return gram, tuple(gens)


def symplectic_lambda2_module():
    """Sp_6(3) on the 13-dim section w-perp / <w> of the wedge square of
    its natural symplectic module."""
    F = GF3
    gram6, sp_gens = _sp6_data()
    idx = _pairs(6, True)
    big_gram = wedge_matrix(F, gram6)
    big_gens = [wedge_matrix(F, g) for g in sp_gens]
    w = [0] * len(idx)
    for i in range(3):
        w[idx.index((i, 3 + i))] = 1
    w = tuple(w)
    assert _form_val(F, big_gram, w, w) == 0  # w is in the radical of w-perp
    amb = geometry.QuadraticSpace(F, big_gram)
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
    idx = _pairs(6, False)
    gram = sym_gram(F, gram6)
    gens = tuple(sym_matrix(F, g) for g in sp_gens)
    space = geometry.QuadraticSpace(F, gram)
    group = groups.MatrixGroup(F, 21, gens, label="sp6-sym2", gram=gram)
    base = []
    for xi in (1, 2):  # e1.e1 + xi * f1.f1
        v = [0] * len(idx)
        v[idx.index((0, 0))] = 1
        v[idx.index((3, 3))] = xi
        base.append((tuple(v), None))
    # -(e1.e1 + f1.f1 + f2.f2) + f3.f3: its orbit is the large one of
    # 10,614,240 points (stabilizer of order 864 in Sp_6(3)).
    v = [0] * len(idx)
    for (pos, val) in (((0, 0), 2), ((3, 3), 2), ((4, 4), 2), ((5, 5), 1)):
        v[idx.index(pos)] = val
    base.append((tuple(v), None))
    return ConstructedCase("sp6-sym2", space, group, tuple(base),
                           "symplectic symmetric square (heavy orbit)")


# ---------------------------------------------------------------------------
# tensor products and imprimitive negative examples

def tensor_product_subgroup(n1=3, n2=5):
    """Omega_{n1}(3) x Omega_{n2}(3) acting on the tensor product."""
    if not (n1 < n2 and n1 % 2 == 1 and n2 % 2 == 1):
        raise ValueError("need odd n1 < n2")
    F = GF3
    s1 = geometry.standard_space(n1, F)
    s2 = geometry.standard_space(n2, F)
    g1 = groups.omega_generators(s1)
    g2 = groups.omega_generators(s2)
    n = n1 * n2
    i1, i2 = linalg.identity(n1), linalg.identity(n2)
    gens = tuple(linalg.kron(F, g, i2) for g in g1.gens) + \
        tuple(linalg.kron(F, i1, g) for g in g2.gens)
    gram = linalg.kron(F, s1.gram, s2.gram)
    space = geometry.QuadraticSpace(F, gram)
    group = groups.MatrixGroup(F, n, gens, label="tensor-%dx%d" % (n1, n2),
                               gram=gram)
    v = (1,) + (0,) * (n - 1)  # v1 (x) v2 with v1, v2 the first basis vectors
    return ConstructedCase("tensor-%dx%d" % (n1, n2), space, group,
                           ((v, None),), "tensor product subgroup")


def c7_wreath_subgroup():
    """(Omega_5(3) x Omega_5(3)) . 2 on GF(3)^5 (x) GF(3)^5, with the
    factor-swap; base point v (x) v."""
    F = GF3
    s = geometry.standard_space(5, F)
    om = groups.omega_generators(s)
    i5 = linalg.identity(5)
    swap = [[0] * 25 for _ in range(25)]
    for i in range(5):
        for j in range(5):
            swap[5 * i + j][5 * j + i] = 1
    gens = tuple(linalg.kron(F, g, i5) for g in om.gens) + \
        tuple(linalg.kron(F, i5, g) for g in om.gens) + \
        (tuple(tuple(r) for r in swap),)
    gram = linalg.kron(F, s.gram, s.gram)
    space = geometry.QuadraticSpace(F, gram)
    group = groups.MatrixGroup(F, 25, gens, label="c7wreath-d25", gram=gram)
    v = (1,) + (0,) * 24
    return ConstructedCase("c7wreath-d25", space, group, ((v, None),),
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
            gens.append(_embed_block(F, g, 9, 3 * b))
    cycle = perm_matrix(F, tuple((i + 3) % 9 for i in range(9)))
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
    gens = [_embed_block(F, g, 7, 0) for g in groups.omega_generators(s3).gens]
    gens += [_embed_block(F, g, 7, 3) for g in groups.omega_generators(s4).gens]
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
