"""Matrix groups over finite fields: reflections, Eichler transformations,
spinor norm, verified Omega generator sets, generation certificates by
random Schreier-Sims on the action on points, and the orbit engine.

Matrices act on row vectors on the right (v -> v @ g).  The orbit engine has
a packed numpy fast path for GF(3) and a generic pure-Python path for
extension fields (only ever needed at tiny sizes).  The GF(3) path holds
points as packed base-3 codes (point_codes); it and the certificates map
them by table lookups (_images): per chunk of at most 7 digits of a code,
a table of every generator's image of every digit pattern, as the
bitsliced masks of its 1s and 2s.  The chunk images are summed by a six-op
bitsliced add, and the masks become codes through 14-bit mask->code
tables, all built on a group's first use.  A CodeSet is a scan's
seen-set and nothing else: a byte map up to dim 13, sorted codes above.
A BFS level enters it the same way on both: admit per chunk of images,
then join of the level's parts.  A byte map takes each generator's images
in turn and keeps its levels as found, so dense scans need no sort.
Sorted codes live in a buffer with spare room at its end: admit finds a
chunk's new codes and where they go, one binary search per distinct image,
and join merges the level into the buffer in place, back to front (Knuth,
TAOCP vol. 3, 5.2.4), with no new array for the set.  The BFS finds the
orbit alone, in no order; cd_parameters and orbit_codes count d in one pass.
"""

import functools
import itertools
import random
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import fields, geometry, higman, linalg
from .fields import SQUARE, gf3_add
from .geometry import PLUS, MINUS

# the orbit scans raise OrbitCapExceeded past this many points
ORBIT_CAP = 30_000_000
# orbit() raises OrbitCapExceeded rather than list more points as tuples
ORBIT_TUPLES_CAP = 2_000_000
# group_closure raises once a group has more elements than this
CLOSURE_CAP = 200_000


class OrbitCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class MatrixGroup:
    field: object
    dim: int
    gens: tuple
    label: str = ""
    gram: tuple | None = None  # set when tagged form-preserving

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.dim or any(len(r) != self.dim for r in g):
                raise ValueError("generator has wrong shape")
            if linalg.det(self.field, g) == 0:
                raise ValueError("generator is singular")
        if self.gram is not None:
            for g in self.gens:
                if not preserves_form(self.field, g, self.gram):
                    raise ValueError("generator does not preserve the form")

    @classmethod
    def unchecked(cls, field, dim, gens, label="", gram=None):
        """The group without __post_init__'s checks, for generators known
        to be dim x dim, invertible and to preserve gram: checked already,
        or so by construction."""
        G = object.__new__(cls)
        vars(G).update(field=field, dim=dim, gens=gens, label=label, gram=gram)
        return G

    @functools.cached_property
    def _gf3_tables(self):
        """_images' digit chunks, image tables and mask->code pieces."""
        chunks, n = _digit_chunks(self.dim), self.dim
        G = np.array(self.gens, dtype=np.int64).reshape(-1, n, n) % 3
        return chunks, _image_tables(G, chunks), _piece_tables(n)

    @functools.cached_property
    def packed_gens(self):
        """The generators' rows, packed by linalg.Echelon for the MeatAxe."""
        E = linalg.Echelon(self.field, self.dim)
        return tuple(tuple(map(E.pack, g)) for g in self.gens)


def preserves_form(F, g, gram):
    lhs = linalg.mat_mul(F, g, linalg.mat_mul(F, gram, linalg.transpose(g)))
    return lhs == linalg.mat_from_rows(gram)


# ---------------------------------------------------------------------------
# reflections and Eichler transformations

def reflection(space, u):
    """v -> v - (f(v,u)/Q(u)) u."""
    F = space.field
    qu = space.q_value(u)
    if qu == 0:
        raise ValueError("reflection needs a non-singular vector")
    qinv = F.inv(qu)
    rows = []
    for e in linalg.identity(space.n):
        c = F.mul(space.form(e, u), qinv)
        rows.append(linalg.vec_sub(F, e, linalg.vec_scale(F, c, u)))
    return linalg.mat_from_rows(rows)


def eichler(space, u, v):
    """x -> x + f(x,v)u - f(x,u)v - Q(v)f(x,u)u  (u singular, f(u,v)=0)."""
    F = space.field
    if space.q_value(u) != 0 or not any(u):
        raise ValueError("u must be singular and nonzero")
    if space.form(u, v) != 0:
        raise ValueError("u and v must be perpendicular")
    if linalg.solve_row(F, (u,), v) is not None:
        raise ValueError("v must not be a multiple of u")
    qv = space.q_value(v)
    rows = []
    for e in linalg.identity(space.n):
        fxv = space.form(e, v)
        fxu = space.form(e, u)
        x = linalg.vec_add(F, e, linalg.vec_scale(F, fxv, u))
        x = linalg.vec_sub(F, x, linalg.vec_scale(F, fxu, v))
        x = linalg.vec_sub(F, x, linalg.vec_scale(F, F.mul(qv, fxu), u))
        rows.append(x)
    return linalg.mat_from_rows(rows)


# ---------------------------------------------------------------------------
# spinor norm from the Wall form

def spinor_norm(space, g):
    """Square class of the discriminant of the Wall form of g, which is the
    spinor norm (Zassenhaus 1962; Taylor, Geometry of the Classical Groups,
    ch. 11).  Omega is exactly its kernel (SQUARE) inside SO.

    The Wall form lives on the image of 1 - g: for y = w(1 - g) and
    y' = w'(1 - g) it is chi(y, y') = f(y, w').  The rows y_i = e_i - g[i]
    that are independent of the earlier ones form a basis, with w_i = e_i.
    A reflection r_u gives chi(u, u) = Q(u); on SO the image has even dim,
    so the sign and the factor 2 in f = 2Q do not change the class.
    """
    F = space.field
    if not preserves_form(F, g, space.gram):
        raise ValueError("not an isometry")
    if linalg.det(F, g) != 1:
        raise ValueError("spinor norm defined here for det-1 isometries")
    basis = linalg.Echelon(F, space.n)
    ys, ws = [], []
    for i, e in enumerate(linalg.identity(space.n)):
        y = linalg.vec_sub(F, e, g[i])
        if basis.add_packed(basis.pack(y)) is not None:
            ys.append(y)
            ws.append(e)
    chi = [[space.form(y, w) for w in ws] for y in ys]
    return F.square_class(linalg.det(F, chi))


# ---------------------------------------------------------------------------
# Omega generator sets

def _small_support_vectors(F, n):
    """The vectors of support 1, then 2, then 3: supports in lexicographic
    order, and the nonzero entries in lexicographic order on each."""
    for k in (1, 2, 3):
        for support in itertools.combinations(range(n), k):
            for entries in itertools.product(F.nonzero(), repeat=k):
                v = [0] * n
                for i, a in zip(support, entries):
                    v[i] = a
                yield tuple(v)


def find_vector_with_q(space, gamma):
    """The first v with Q(v) = gamma in _small_support_vectors order.  A
    support size is scored at once: Q(v) is sum over a <= b of v_a v_b
    U[S_a, S_b], U the gram but U_ii = Q(e_i).  Support <= 3 finds every
    gamma there is: at n <= 2 it is the whole space, and at n >= 3 an
    invertible principal 2x2 or 3x3 block of the gram represents every
    gamma != 0, and a ternary form of rank >= 2 holding it is isotropic."""
    F, n = space.field, space.n
    add, mul = fields.tables(F)
    U = np.array(space.gram)
    U[np.diag_indices(n)] = [space.q_value(e) for e in linalg.identity(n)]
    for k in range(1, min(n, 3) + 1):
        S = np.array(list(itertools.combinations(range(n), k)))
        X = [x + 1 for x in np.indices((F.q - 1,) * k, sparse=True)]
        Q = 0  # indexed by (support, v_S_1 - 1, ..., v_S_k - 1)
        for b in range(k):
            for a in range(b + 1):
                u = U[S[:, a], S[:, b]].reshape((-1,) + (1,) * k)
                Q = add.take(Q * F.q + mul[mul[X[a], X[b]][None], u])
        hit = np.unravel_index(np.argmax(Q == gamma), Q.shape)
        if Q[hit] == gamma:
            v = np.zeros(n, dtype=np.int64)
            v[S[hit[0]]] = np.add(hit[1:], 1)
            return tuple(v.tolist())
    raise ValueError("no vector with Q = %r found" % (gamma,))


def hyperbolic_pair(space):
    """(e, f) with Q(e) = Q(f) = 0 and f(e,f) = 1."""
    F = space.field
    e = find_vector_with_q(space, 0)
    w = next(b for b in linalg.identity(space.n) if space.form(e, b) != 0)
    w = linalg.vec_scale(F, F.inv(space.form(e, w)), w)
    f = linalg.vec_sub(F, w, linalg.vec_scale(F, space.q_value(w), e))
    assert space.q_value(f) == 0 and space.form(e, f) == 1
    return e, f


def _row_tables(F, gens):
    """R[g, code(v)] = code(v gens[g]) for every v in GF(q)^n, codes base q
    (code_powers), by T -> [c g_i + T for c in F] from the last row g_i up."""
    add, mul = fields.tables(F)
    n = len(gens[0])
    R = np.empty((len(gens), F.q ** n), np.min_scalar_type(-F.q ** n))
    for i, g in enumerate(np.array(gens)):  # one at a time: a low peak
        T = np.zeros((1, n), dtype=add.dtype)
        for row in g[::-1]:
            T = add[mul[:, row][:, None], T].reshape(-1, n)
        R[i] = T @ geometry.code_powers(n, F.q).astype(R.dtype)
    return R


def group_closure(F, gens):
    """The sorted int64 keys of the elements of the group that the n x n
    matrices gens generate; their number is the order.  A key is the n^2
    entries, row-major, base q: the row codes base q^n.  Each BFS level
    maps its frontier's rows by all generators in one _row_tables gather.
    RuntimeError past CLOSURE_CAP, ValueError if q^(n^2) passes 2^63."""
    q, n = F.q, len(gens[0])
    if q ** (n * n) > 1 << 63:
        raise ValueError("%d^%d keys pass the int64 limit 2^63" % (q, n * n))
    R, W = _row_tables(F, gens), geometry.code_powers(n, q ** n)
    rows = geometry.code_powers(n, q)[None, :]  # the identity
    seen = rows @ W
    while rows.size:
        images = R[:, rows].reshape(-1, n)
        keys, first = np.unique(images @ W, return_index=True)
        new = seen.take(np.searchsorted(seen, keys), mode="clip") != keys
        seen = np.sort(np.concatenate([seen, keys[new]]))
        if seen.size > CLOSURE_CAP:
            raise RuntimeError("group closure cap exceeded")
        rows = images[first[new]]
    return seen


# ---------------------------------------------------------------------------
# generation certificates: random Schreier-Sims on the action on points

# Seed of the certificates' random elements and of the first word draw
_CERT_SEED = 0
# product-replacement elements sifted per certificate before it gives up
_CERT_SIFTS = 60
_CERT_IDLE = 20  # ... or sooner, after this many identity sifts in a row
# seeded pairs of words drawn by certified_words before it raises
_WORD_DRAWS = 8
_WORD_LENGTH = 8
# product-replacement slots (Celler et al., Comm. Algebra 23, 1995)
_PR_SLOTS = 10


def point_perms(gens, codes):
    """The permutations of the sorted packed codes of a set of projective
    GF(3) points that the matrices gens induce, as a (k, N) index array:
    point i goes to point perms[g, i], read off _images.  Raises ValueError
    unless every generator maps the set onto itself."""
    group = MatrixGroup.unchecked(fields.GF3, len(gens[0]), tuple(gens))
    canon = _images(group, codes).T
    perms = np.searchsorted(codes, canon)
    if not (codes.take(perms, mode="clip") == canon).all():
        raise ValueError("the matrices do not preserve the point set")
    return perms.astype(np.min_scalar_type(len(codes)))


class _Level:
    """One level of a stabiliser chain on N points: the base point, the
    strong generators with their inverses, the basic orbit as a mask and
    its Schreier vector (the strong generator via[x] maps parent[x] to x),
    and a memo of coset inverses."""

    def __init__(self, base, ident):
        self.base = base
        self.strong, self.inverses = [], []
        self.found = np.zeros(ident.size, dtype=bool)
        self.found[base] = True
        self.parent = np.empty(ident.size, dtype=np.intp)
        self.via = np.empty(ident.size, dtype=np.intp)
        self.memo = {base: ident}

    def extend(self, g, ginv):
        """Add the permutation g, with its inverse, to the strong generators
        and extend the basic orbit.  The first round maps the old orbit by
        g alone, as the old generators map it onto itself."""
        self.strong.append(g)
        self.inverses.append(ginv)
        S, offset = g[None, :], len(self.strong) - 1
        frontier = np.flatnonzero(self.found)
        while True:
            img = S[:, frontier].ravel()
            hit = np.flatnonzero(~self.found[img])
            if not hit.size:
                return
            new, first = np.unique(img[hit], return_index=True)
            gen, src = np.divmod(hit[first], frontier.size)
            self.found[new] = True
            self.parent[new] = frontier[src]
            self.via[new] = gen + offset
            frontier = new
            S, offset = np.array(self.strong), 0

    def coset_inverse(self, x):
        """The inverse of the transversal element that maps the base point
        to x, read off the Schreier vector and memoised, with those of the
        points on its path."""
        path = []
        while x not in self.memo:
            path.append(x)
            x = int(self.parent[x])
        u = self.memo[x]
        for y in reversed(path):
            u = u[self.inverses[self.via[y]]]
            self.memo[y] = u
        return u


def schreier_sims_order(perms, order, rng):
    """A lower bound on the order of the group the permutations perms (a
    (k, N) index array) generate, by random Schreier-Sims (Seress,
    Permutation Group Algorithms, 2003, ch. 4).

    Product replacement draws random elements of the group, and each is
    sifted through the stabiliser chain built so far; a nontrivial residue
    joins the strong generators of every level whose base point it and
    the earlier base points fix, or opens a new level.  Each basic orbit
    is an orbit of a subgroup of the stabiliser of the earlier base
    points, so the product of the basic orbit lengths never exceeds the
    order of the group the sifted elements generate, which lies inside
    <perms>.  The sifting stops once that product reaches order, after
    _CERT_IDLE identity sifts in a row (the chain has stopped growing), or
    after _CERT_SIFTS elements; the product is returned.
    """
    k, N = perms.shape
    ident = np.arange(N, dtype=perms.dtype)
    slots = [perms[i % k] for i in range(max(k, _PR_SLOTS))]
    acc = ident
    levels = []
    bound, idle = 1, 0
    for _ in range(_CERT_SIFTS):
        i = rng.randrange(len(slots))
        j = rng.randrange(len(slots) - 1)
        s = slots[j + (j >= i)]
        if rng.random() < 0.5:
            s = np.argsort(s).astype(s.dtype)
        slots[i] = s[slots[i]]
        acc = slots[i][acc]
        g = acc
        depth = 0
        for level in levels:
            x = int(g[level.base])
            if not level.found[x]:
                break
            g = level.coset_inverse(x)[g]
            depth += 1
        idle = idle + 1 if (g == ident).all() else 0
        if idle == _CERT_IDLE:
            break
        if idle:
            continue
        if depth == len(levels):
            levels.append(_Level(int(np.flatnonzero(g != ident)[0]), ident))
        assert all(g[level.base] == level.base for level in levels[:depth])
        ginv = np.argsort(g).astype(g.dtype)
        for level in levels[:depth + 1]:
            level.extend(g, ginv)
        bound = 1
        for level in levels:
            bound *= int(np.count_nonzero(level.found))
        if bound >= order:
            break
    return bound


def certified_words(gens, codes, order):
    """The first certified pair of seeded random words in the matrices gens.

    Draw t = _CERT_SEED, _CERT_SEED + 1, ... seeds random.Random(t), which
    picks two words of _WORD_LENGTH letters from gens and then drives
    schreier_sims_order on the words' action on the GF(3) points with the
    sorted packed codes.  The first pair whose certified order reaches
    order is returned, as two matrices; when order is the order of a group
    that holds gens and acts faithfully on the points, the pair generates
    that group.  A pair that misses is drawn again; after _WORD_DRAWS
    draws RuntimeError is raised.  The pair is kept in _OMEGA_CACHE.
    """
    key = ("words", tuple(gens), codes.tobytes(), order)
    if key in _OMEGA_CACHE:
        return _OMEGA_CACHE[key]
    G = np.array(gens, dtype=np.int64) % 3
    for draw in range(_CERT_SEED, _CERT_SEED + _WORD_DRAWS):
        rng = random.Random(draw)
        words = []
        for _ in range(2):
            m = np.eye(G.shape[1], dtype=np.int64)
            for _ in range(_WORD_LENGTH):
                m = m @ G[rng.randrange(len(G))] % 3
            words.append(m)
        if schreier_sims_order(point_perms(words, codes), order, rng) >= order:
            pair = tuple(tuple(map(tuple, m.tolist())) for m in words)
            _OMEGA_CACHE[key] = pair
            return pair
    raise RuntimeError("no certified pair of words in %d draws"
                       % _WORD_DRAWS)


def omega_order(n, q):
    """|Omega_n(q)|, n odd (and the dim-3 special case q(q^2-1)/2)."""
    if n % 2 == 0:
        raise ValueError("odd dimension only")
    m = (n - 1) // 2
    if m == 0:
        return 1
    order = q ** (m * m)
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    return order // 2


_OMEGA_CACHE = {}


def omega_generators(space):
    """Verified generator set for Omega(V), dim >= 3.

    The generators are the Eichler transformations E(e, cv) and E(f, cv)
    for a hyperbolic pair (e, f), v in a basis of <e, f>-perp and c in
    {1} (q = 3) or {1, a primitive element}.  spinor_norm checks that every
    generator preserves the form, has det 1 and has square spinor norm.
    The set is then verified to generate all of Omega:

    - dim 3: by full enumeration against |Omega_3(q)|, in group_closure's
      per-generator image tables of the row vectors;
    - dim 5 and 7 over GF(3): certified, by schreier_sims_order on the
      action on the 40 or 364 singular points, against |Omega_n(3)|.  The
      action is faithful (-1 has det -1 in odd dim), so an order of
      |Omega_n(3)| proves generation, and a proper subgroup such as G2(3)
      in dim 7, transitive on both point types, cannot pass;
    - odd dim >= 9 over GF(3): by the sizes of the orbits on plus and
      minus points, 3^m (3^m +- 1) / 2, which a transitive proper
      subgroup would also pass;
    - any other space: by the per-generator checks only.

    A failed verification raises RuntimeError.
    """
    key = (space.field, space.gram)
    if key in _OMEGA_CACHE:
        return _OMEGA_CACHE[key]
    F = space.field
    n = space.n
    if n < 3:
        raise ValueError("dim >= 3 required")
    e, f = hyperbolic_pair(space)
    perp = space.perp_basis([e, f])
    scalars = [1] if F.q == 3 else [1, F.primitive]
    gens = []
    for v in perp:
        for c in scalars:
            cv = linalg.vec_scale(F, c, v)
            gens.append(eichler(space, e, cv))
            gens.append(eichler(space, f, cv))
    for g in gens:
        assert spinor_norm(space, g) == SQUARE
    group = MatrixGroup(F, n, tuple(gens), label="Omega_%d(%d)" % (n, F.q),
                        gram=space.gram)
    if n == 3:
        size, want = len(group_closure(F, group.gens)), omega_order(3, F.q)
        if size != want:
            raise RuntimeError("Omega_3 order: got %d, want %d" % (size, want))
    elif F.q == 3 and n in (5, 7):
        order = omega_order(n, 3)
        perms = point_perms(group.gens, geometry.singular_codes(space))
        bound = schreier_sims_order(perms, order, random.Random(_CERT_SEED))
        if bound < order:
            raise RuntimeError("Omega_%d(3) certificate: order >= %d proved, "
                               "want %d" % (n, bound, order))
    elif F.q == 3 and n % 2 == 1:
        m = (n - 1) // 2
        for ptype, sgn in ((PLUS, 1), (MINUS, -1)):
            gam = next(g for g in F.nonzero()
                       if geometry.type_of_qvalue(space, g) == ptype)
            x = find_vector_with_q(space, gam)
            size, _codes = _scan(group, x)
            expected = 3 ** m * (3 ** m + sgn) // 2
            if size != expected:
                raise RuntimeError(
                    "Omega self-check failed: orbit %d, expected %d"
                    % (size, expected))
    _OMEGA_CACHE[key] = group
    return group


# ---------------------------------------------------------------------------
# orbit engine

@dataclass
class OrbitReport:
    base_point: tuple
    xi: str
    size: int
    c: int
    d: int
    eq1: dict = dc_field(default_factory=dict)
    eq2: bool | None = None
    eq3: bool | None = None
    eq4: bool | None = None
    m: int | None = None
    seconds: float = 0.0

    def to_json(self):
        return dict(asdict(self), base_point=list(self.base_point),
                    seconds=round(self.seconds, 3))


# Packed codes are int64 base-3 numbers (geometry.code_powers); 3^40 - 1
# no longer fits.
MAX_CODE_DIM = 39
# CodeSets are byte maps up to this dim (1.1 MB at dim 13), sorted above
_DENSE_MAX_DIM = 13
# Image entries per chunk (rows x generators x dim), which bounds the
# buffers of one BFS level.
_CHUNK_ENTRIES = 1 << 17
# Base-3 digits per image-table chunk of a code (a table holds 3^7 rows of
# 2k masks), and bits per mask->code table piece of a mask (two pieces up
# to dim 28).
_TABLE_DIGITS = 7
_PIECE_BITS = 14
_PIECE = (1 << _PIECE_BITS) - 1
# Codes a sorted CodeSet moves per step of its in-place merge
_MERGE_BLOCK = 1 << 18


def _masks(V):
    """The masks of the 1s and of the 2s of the rows of V (entries 0..2),
    bit j for coordinate j, in the smallest unsigned dtype holding them."""
    n = V.shape[-1]
    bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
    return (V == 1) @ bits, (V == 2) @ bits


def _digit_chunks(n):
    """Balanced runs [a, b) of at most _TABLE_DIGITS coordinates."""
    c = -(-n // _TABLE_DIGITS)
    bounds = list(itertools.accumulate(
        (n // c + (i < n % c) for i in range(c)), initial=0))
    return list(zip(bounds, bounds[1:]))


def _chunk_digits(codes, chunks):
    """Per chunk [a, b), the base-3 number v_a..v_(b-1) of each code, from
    the last (least significant) chunk up: a floor division and a
    multiply-subtract per chunk, about twice as fast as np.divmod."""
    digits = []
    for a, b in reversed(chunks[1:]):
        high = codes // 3 ** (b - a)
        digits.append(codes - high * 3 ** (b - a))
        codes = high
    return [codes] + digits[::-1]


def _image_tables(G, chunks):
    """Per chunk [a, b): the images under the k generators of every digit
    pattern of v_a..v_(b-1), as (3^(b-a), k) masks of the 1s and of the
    2s, indexed by _chunk_digits.

    All chunks are built at once by tripling from their last coordinate
    down, T -> [T, T + row_i, T + 2 row_i], where 2 row_i swaps the two
    masks.  A chunk shorter than the longest goes on tripling by its first
    row; its first 3^(b-a) entries, the ones kept, stay as they are.
    """
    steps = max(b - a for a, b in chunks)
    i = [[max(b - 1 - t, a) for a, b in chunks] for t in range(steps)]
    # rows per step, chunk and generator; the tables are built as (chunk,
    # generator, pattern), so that every op runs along the long axis
    R1, R2 = (R[:, i].transpose(1, 2, 0)[..., None] for R in _masks(G))
    T1 = T2 = np.zeros((len(chunks), len(G), 1), dtype=R1.dtype)
    for r1, r2 in zip(R1, R2):
        U1, U2 = gf3_add(T1, T2, r1, r2)
        W1, W2 = gf3_add(T1, T2, r2, r1)
        T1 = np.concatenate([T1, U1, W1], axis=2)
        T2 = np.concatenate([T2, U2, W2], axis=2)
    return [tuple(T[c, :, :3 ** (b - a)].T.copy() for T in (T1, T2))
            for c, (a, b) in enumerate(chunks)]


def _f_tables(gx, chunks):
    """Per chunk [a, b): f(v, start) = v . gx of every digit pattern of
    v_a..v_(b-1), as integers 0..2, tripled as in _image_tables."""
    steps = max(b - a for a, b in chunks)
    i = [[max(b - 1 - t, a) for a, b in chunks] for t in range(steps)]
    T = np.zeros((len(chunks), 1), dtype=np.uint8)
    for r in gx.astype(np.uint8)[i][..., None]:
        T = np.concatenate([T, T + r, T + 2 * r], axis=1)
    return [T[c, :3 ** (b - a)] % 3 for c, (a, b) in enumerate(chunks)]


def _piece_tables(n):
    """Per _PIECE_BITS-bit piece of a mask: the sum of 3^(n-1-j) over its
    set bits j, by doubling T -> [T, T + 3^(n-1-j)]."""
    w = geometry.code_powers(n)
    tables = []
    for lo in range(0, n, _PIECE_BITS):
        t = np.zeros(1, dtype=np.int64)
        for j in range(lo, min(lo + _PIECE_BITS, n)):
            t = np.concatenate([t, t + w[j]])
        tables.append(t)
    return tables


def _mask_codes(M, pieces):
    """The code of the 0/1 vector of each mask in M."""
    last = len(pieces) - 1
    code = pieces[0][M & _PIECE if last else M]
    for j in range(1, last + 1):
        b = M >> (j * _PIECE_BITS)
        code += pieces[j][b & _PIECE if j < last else b]
    return code


def _canonical_codes(M1, M2, pieces):
    """Codes of the projective points of bitsliced vectors: with P and Q
    the codes of the 1s and of the 2s, v has code P + 2Q and -v has
    2P + Q; the smaller is P + Q + min(P, Q)."""
    P, Q = _mask_codes(M1, pieces), _mask_codes(M2, pieces)
    return P + Q + np.minimum(P, Q)


def point_codes(group, vectors):
    """The codes of the projective GF(3) points spanned by the rows of
    vectors, with group's mask->code tables.  ValueError past
    MAX_CODE_DIM, and for a row of the wrong length, an entry outside
    range(3) or a zero row."""
    n, V = group.dim, np.asarray(vectors)
    if n > MAX_CODE_DIM:
        raise ValueError("GF(3) orbit scans need dim <= %d (packed int64 "
                         "codes), got dim %d" % (MAX_CODE_DIM, n))
    if V.ndim != 2 or V.shape[1] != n:
        raise ValueError("a point of dim %d needs %d entries, got %r"
                         % (n, n, vectors))
    if ((V < 0) | (V > 2)).any():
        raise ValueError("GF(3) entries are 0, 1 or 2: %r" % (vectors,))
    if not V.any(axis=1).all():
        raise ValueError("zero vector has no projective point")
    return _canonical_codes(*_masks(V), group._gf3_tables[2])


def _distinct(codes, points=None):
    """Sorted distinct codes; np.unique's hash table is several times slower
    on millions of int64 codes.  Given the codes' insertion points, it sorts
    both arrays in place, as a point does not fall as its code grows, and
    returns the distinct codes with their points."""
    if points is None:
        codes = np.sort(codes)
    else:
        codes.sort()
        points.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    # compress, as boolean indexing is several times slower
    if points is None:
        return codes.compress(keep)
    return codes.compress(keep), points.compress(keep)


class CodeSet:
    """The seen-set of an orbit scan: packed codes of GF(3) points of dim n
    (below 2 * 3^(n-1), as the first nonzero entry is 1), from distinct
    codes.  Up to _DENSE_MAX_DIM it is a byte map over those codes with the
    levels joined to it, in the order they were found; above, a buffer
    whose first size entries are its codes, sorted, with spare room at its
    end, from sorted codes.  A BFS level goes in the same way on both:
    admit per chunk, then join.  The set never writes into an array given
    to it, and codes() returns no array that a later join writes into."""

    def __init__(self, n, codes):
        self._map = None
        if n <= _DENSE_MAX_DIM:
            self._map = np.zeros(2 * 3 ** (n - 1), dtype=bool)
            self._map[codes] = True
            self._runs = [codes]
        else:
            # not the set's own: the first merge copies it into a buffer
            self._buf, self._size, self._own = codes, codes.size, False

    def admit(self, images):
        """A chunk's part of a level, from k generators' images of distinct
        points as a (rows, k) array.  A byte map marks their new codes a
        generator column at a time (a column's codes are distinct, and once
        marked not new in a later one) and returns them, unsorted.  A sorted
        set returns the distinct codes not in it, sorted, with their
        insertion points, which hold for join until the set changes."""
        if self._map is not None:
            new = []
            for col in images.T:
                new.append(col.compress(~self._map[col]))
                self._map[new[-1]] = True
            return np.concatenate(new)
        codes = _distinct(images.ravel())  # sorted keys keep the search in cache
        seen = self._buf[:self._size]
        if not seen.size:
            return codes, np.zeros(codes.size, dtype=np.intp)
        points = np.searchsorted(seen, codes)
        new = seen.take(points, mode="clip") != codes
        return codes.compress(new), points.compress(new)

    def join(self, parts):
        """The new codes of a level, from the parts admit returned for its
        chunks, which a byte map keeps as a level and a sorted set merges in.
        parts is emptied, so that they are freed before the merge."""
        if self._map is not None:
            new = np.concatenate(parts)
            parts.clear()
            self._runs.append(new)
            return new
        new, points = (np.concatenate(x) for x in zip(*parts))
        several = len(parts) > 1
        parts.clear()
        if several:  # the parts overlap
            new, points = _distinct(new, points)
        self._merge(new, points)
        return new

    def _merge(self, new, points):
        """Merge sorted, distinct codes not in the set into its buffer, in
        place, at their insertion points."""
        size, m = self._size, new.size
        if not m:
            return
        if not self._own:  # given, or handed out by codes()
            self._buf, self._own = self._buf.astype(np.int64), True
        if size + m > self._buf.size:  # refcheck counts a trace hook's refs
            assert sys.getrefcount(self._buf) == 2, "a view of the buffer is alive"
            self._buf.resize(max(size + m, self._buf.size * 3 // 2), refcheck=False)
        # the codes from the first insertion point on move back to front, a
        # block at a time: block [a, b) and the new codes that land among
        # it, new[i:j], fill the window [a + i, b + j), which overlaps the
        # block, so the block is copied first; new[t] lands at points[t] + t
        buf, j, first = self._buf, m, int(points[0])
        for a in reversed(range(first, max(size, first + 1), _MERGE_BLOCK)):
            b, i = min(a + _MERGE_BLOCK, size), int(np.searchsorted(points, a))
            block, window = buf[a:b].copy(), buf[a + i:b + j]
            at = points[i:j] + np.arange(-a, j - i - a)
            keep = np.ones(window.size, dtype=bool)
            keep[at] = False
            window[at] = new[i:j]
            window[np.flatnonzero(keep)] = block  # faster than by the mask
            j = i
        self._size = size + m

    def codes(self):
        """The codes: a byte map's levels as found, a sorted set's sorted."""
        if self._map is not None:
            codes = np.concatenate(self._runs)
            assert np.count_nonzero(self._map) == codes.size, \
                "byte map levels list a code twice"
            return codes
        if self._own:  # trimmed, and a later merge copies it first
            assert sys.getrefcount(self._buf) == 2, "a view of the buffer is alive"
            self._buf.resize(self._size, refcheck=False)
            self._own = False
        assert (self._buf[1:] > self._buf[:-1]).all(), \
            "sorted CodeSet codes are not strictly increasing"
        return self._buf


def _images(group, codes):
    """The canonical codes of the images of codes under group's k
    generators, as a (rows, k) array.  The codes split into base-3 digit
    chunks of at most _TABLE_DIGITS; every generator's image of each chunk
    is looked up in the group's _image_tables, the chunks are summed with
    gf3_add, and the image masks become codes through the tables of
    _piece_tables."""
    chunks, tables, pieces = group._gf3_tables
    digits = _chunk_digits(codes, chunks)
    M1, M2 = (T.take(digits[0], axis=0) for T in tables[0])
    for (T1, T2), digit in zip(tables[1:], digits[1:]):
        M1, M2 = gf3_add(M1, M2, T1.take(digit, axis=0),
                         T2.take(digit, axis=0))
    return _canonical_codes(M1, M2, pieces)


def _scan(group, start):
    """BFS orbit of a projective point over GF(3): (size, codes in no order).

    Each level maps the frontier a chunk of rows at a time by _images, the
    seen-set (a CodeSet) admits each chunk's images, and joins the level's
    parts, which gives the level's new codes, the next frontier.
    """
    n, codes = group.dim, point_codes(group, [start])
    if not group.gens:
        return 1, codes
    rows = max(1, _CHUNK_ENTRIES // (len(group.gens) * n))
    seen = CodeSet(n, codes)
    size, frontier = 1, codes
    while True:
        if n > _DENSE_MAX_DIM:  # dense chunks keep binary searches in cache
            rows = max(rows, size // 16)
        parts = [seen.admit(_images(group, frontier[lo:lo + rows]))
                 for lo in range(0, len(frontier), rows)]
        del frontier  # freed before join merges the level
        frontier = seen.join(parts)
        if not frontier.size:
            break
        size += frontier.size
        if size > ORBIT_CAP:
            raise OrbitCapExceeded("orbit exceeds the cap of %d points"
                                   % ORBIT_CAP)
    codes = seen.codes()
    assert codes.size == size, "scan has %d codes, not %d" % (codes.size, size)
    return size, codes


def _count_d(group, start, gram, codes):
    """d: the orbit points w != start with f(w, start) = 0, read off the
    codes by _f_tables, max(_CHUNK_ENTRIES // n, size // 16) a block."""
    n, chunks = len(start), group._gf3_tables[0]
    x = np.array(start, dtype=np.int64) % 3
    gx = (np.array(gram, dtype=np.int64) @ x) % 3
    rows = max(_CHUNK_ENTRIES // n, codes.size // 16)
    d, f_tables = -int(x @ gx % 3 == 0), _f_tables(gx, chunks)
    for lo in range(0, codes.size, rows):
        digits = _chunk_digits(codes[lo:lo + rows], chunks)
        f = sum(map(np.take, f_tables, digits))
        d += int(np.count_nonzero(f % 3 == 0))
    return d


def _orbit_generic(space, gens, start):
    F = space.field
    start = geometry.canonical_point(F, start)
    gxcol = linalg.vec_mat(F, start, space.gram)
    seen = {start}
    frontier = [start]
    d = 0
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = geometry.canonical_point(F, linalg.vec_mat(F, v, g))
                if w not in seen:
                    seen.add(w)
                    if len(seen) > ORBIT_CAP:
                        raise OrbitCapExceeded(
                            "orbit exceeds the cap of %d points" % ORBIT_CAP)
                    if linalg.vec_dot(F, w, gxcol) == 0:
                        d += 1
                    nxt.append(w)
        frontier = nxt
    return seen, d


def orbit(group, start, space=None):
    """The orbit of a projective point, as a sorted list of canonical tuples:
    over GF(3) a _scan, with no form; elsewhere the generic BFS."""
    F = group.field
    if F.p == 3 and F.a == 1:
        size, codes = _scan(group, start)
        if size > ORBIT_TUPLES_CAP:
            raise OrbitCapExceeded("orbit too large to materialize as tuples")
        # zip one list per coordinate: a list per point raises the peak
        return list(zip(*geometry.decode_codes(
            np.sort(codes), group.dim).T.tolist()))
    linalg.Echelon(F, group.dim).pack(start)  # the length and the entries
    sp = space or geometry.QuadraticSpace(
        F, group.gram or linalg.identity(group.dim))
    seen, _d = _orbit_generic(sp, group.gens, start)
    return sorted(seen)


def _check_start(space, group, start):
    if space.q_value(start) == 0:
        raise ValueError("base point must be non-singular")
    if group.gram != space.gram:
        for g in group.gens:
            if not preserves_form(space.field, g, space.gram):
                raise ValueError("group does not preserve the form")


def make_report(space, start, size, d, seconds):
    """OrbitReport of an orbit with the given size and d, with (c, d) and
    the equation verdicts."""
    c = size - 1 - d
    ptype = geometry.point_type(space, start)
    rep = OrbitReport(tuple(start), ptype, size, c, d, seconds=seconds)
    if space.n % 2 == 1:
        rep.m = m = (space.n - 1) // 2
        if m >= 2 and ptype in (PLUS, MINUS):
            xi = "+" if ptype == PLUS else "-"
            for key, verdict in higman.equation_verdicts(m, xi, c, d).items():
                setattr(rep, key, verdict)
    return rep


def cd_parameters(space, group, start):
    """OrbitReport with (c, d) and the equation verdicts."""
    F = space.field
    _check_start(space, group, start)
    t0 = time.perf_counter()
    if F.p == 3 and F.a == 1:
        size, codes = _scan(group, start)
        d = _count_d(group, start, space.gram, codes)
    else:
        seen, d = _orbit_generic(space, group.gens, start)
        size = len(seen)
    return make_report(space, start, size, d, time.perf_counter() - t0)


def orbit_codes(space, group, start):
    """(size, d, packed codes in no order) for GF(3) spaces."""
    F = space.field
    if not (F.p == 3 and F.a == 1):
        raise ValueError("orbit_codes scans GF(3) only, got %r" % F)
    _check_start(space, group, start)
    size, codes = _scan(group, start)
    return size, _count_d(group, start, space.gram, codes), codes
