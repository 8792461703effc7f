"""Matrix groups over finite fields: reflections, Eichler transformations,
spinor norm, verified Omega generator sets, and the orbit engine.

Matrices act on row vectors on the right (v -> v @ g).  The orbit engine has
a packed numpy fast path for GF(3) and a generic pure-Python path for
extension fields (only ever needed at tiny sizes).
"""

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import geometry, higman, linalg
from .fields import SQUARE
from .geometry import PLUS, MINUS

ORBIT_CAP = 30_000_000
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
            if linalg.det(self.field, g) == 0:
                raise ValueError("generator is singular")
        if self.gram is not None:
            for g in self.gens:
                if not preserves_form(self.field, g, self.gram):
                    raise ValueError("generator does not preserve the form")

    def __len__(self):
        return len(self.gens)


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
    for i in range(space.n):
        e = tuple(1 if j == i else 0 for j in range(space.n))
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
    if linalg.coords_in_basis(F, (u,), v) is not None:
        raise ValueError("v must not be a multiple of u")
    qv = space.q_value(v)
    rows = []
    for i in range(space.n):
        e = tuple(1 if j == i else 0 for j in range(space.n))
        fxv = space.form(e, v)
        fxu = space.form(e, u)
        x = linalg.vec_add(F, e, linalg.vec_scale(F, fxv, u))
        x = linalg.vec_sub(F, x, linalg.vec_scale(F, fxu, v))
        x = linalg.vec_sub(F, x, linalg.vec_scale(F, F.mul(qv, fxu), u))
        rows.append(x)
    return linalg.mat_from_rows(rows)


# ---------------------------------------------------------------------------
# spinor norm via greedy reflection decomposition

def _span_candidates(F, rows):
    """Vectors in the span of rows, small support first."""
    k = len(rows)
    for r in rows:
        yield r
    units = list(F.nonzero())
    for i, j in itertools.combinations(range(k), 2):
        for c in units:
            yield linalg.vec_add(F, rows[i], linalg.vec_scale(F, c, rows[j]))
    if F.q ** k <= 200_000:
        yield from linalg.span_vectors(F, rows)


def reflection_decompose(space, g):
    """Vectors u_1..u_k with g equal to the product of the r_{u_i}."""
    F = space.field
    n = space.n
    if not preserves_form(F, g, space.gram):
        raise ValueError("not an isometry")
    ident = linalg.identity(n)
    h = linalg.mat_from_rows(g)
    pinned = []
    us = []
    while h != ident:
        perp = space.perp_basis(pinned) if pinned else ident
        x = None
        for cand in _span_candidates(F, perp):
            if space.q_value(cand) != 0 and linalg.vec_mat(F, cand, h) != cand:
                x = cand
                break
        if x is None:
            raise AssertionError("no moved non-singular vector found")
        y = linalg.vec_mat(F, x, h)
        u = linalg.vec_sub(F, y, x)
        if space.q_value(u) != 0:
            h = linalg.mat_mul(F, h, reflection(space, u))
            us.append(u)
        else:
            w = linalg.vec_add(F, y, x)  # Q(w) = 4Q(x) != 0
            h = linalg.mat_mul(F, h, reflection(space, w))
            h = linalg.mat_mul(F, h, reflection(space, x))
            us.extend([w, x])
        assert linalg.vec_mat(F, x, h) == x
        pinned.append(x)
    return us


def spinor_norm(space, g):
    """Square class of the product of Q(u_i) over a reflection decomposition.
    Omega is exactly the kernel (SQUARE) inside SO."""
    F = space.field
    if linalg.det(F, g) != 1:
        raise ValueError("spinor norm defined here for det-1 isometries")
    prod = 1
    for u in reflection_decompose(space, g):
        prod = F.mul(prod, space.q_value(u))
    return F.square_class(prod) if prod else SQUARE


# ---------------------------------------------------------------------------
# Omega generator sets

def _small_support_vectors(F, n):
    units = list(F.nonzero())
    for i in range(n):
        for a in units:
            v = [0] * n
            v[i] = a
            yield tuple(v)
    for i, j in itertools.combinations(range(n), 2):
        for a in units:
            for b in units:
                v = [0] * n
                v[i], v[j] = a, b
                yield tuple(v)
    for i, j, k in itertools.combinations(range(n), 3):
        for a in units:
            for b in units:
                for c in units:
                    v = [0] * n
                    v[i], v[j], v[k] = a, b, c
                    yield tuple(v)


def find_vector_with_q(space, gamma):
    """Deterministic search for v with Q(v) = gamma."""
    F = space.field
    for v in _small_support_vectors(F, space.n):
        if space.q_value(v) == gamma:
            return v
    if F.q ** space.n <= 3 ** 12:
        for v in itertools.product(F.elements(), repeat=space.n):
            if any(v) and space.q_value(v) == gamma:
                return tuple(v)
    raise ValueError("no vector with Q = %r found" % (gamma,))


def hyperbolic_pair(space):
    """(e, f) with Q(e) = Q(f) = 0 and f(e,f) = 1."""
    F = space.field
    e = find_vector_with_q(space, 0)
    w = None
    for i in range(space.n):
        b = tuple(1 if j == i else 0 for j in range(space.n))
        if space.form(e, b) != 0:
            w = b
            break
    assert w is not None, "degenerate form"
    w = linalg.vec_scale(F, F.inv(space.form(e, w)), w)
    f = linalg.vec_sub(F, w, linalg.vec_scale(F, space.q_value(w), e))
    assert space.q_value(f) == 0 and space.form(e, f) == 1
    return e, f


def group_closure(F, gens):
    """Full enumeration of the generated matrix group (small groups only)."""
    n = len(gens[0])
    ident = linalg.identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                m = linalg.mat_mul(F, h, g)
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
                    if len(seen) > CLOSURE_CAP:
                        raise RuntimeError("group closure cap exceeded")
        frontier = nxt
    return seen


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
    {1} (q = 3) or {1, a primitive element}.  Every generator is checked
    to preserve the form and to have det 1, and up to dim 9 to have square
    spinor norm.  The set is then verified to generate all of Omega:

    - dim 3: by full enumeration against |Omega_3(q)|;
    - odd dim >= 5 over GF(3): by the sizes of the orbits on plus and
      minus points, 3^m (3^m +- 1) / 2;
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
        assert preserves_form(F, g, space.gram)
        assert linalg.det(F, g) == 1
        if n <= 9:
            assert spinor_norm(space, g) == SQUARE
    group = MatrixGroup(F, n, tuple(gens), label="Omega_%d(%d)" % (n, F.q),
                        gram=space.gram)
    if n == 3:
        size = len(group_closure(F, group.gens))
        if size != omega_order(3, F.q):
            raise RuntimeError("Omega_3 enumeration: got %d, want %d"
                               % (size, omega_order(3, F.q)))
    elif F.q == 3 and n % 2 == 1:
        m = (n - 1) // 2
        for ptype, sgn in ((PLUS, 1), (MINUS, -1)):
            gam = next(g for g in F.nonzero()
                       if geometry.type_of_qvalue(space, g) == ptype)
            x = find_vector_with_q(space, gam)
            size, _d, _c = _scan(group.gens, x, space.gram, ORBIT_CAP)
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
        return {
            "base_point": list(self.base_point), "xi": self.xi,
            "size": self.size, "c": self.c, "d": self.d,
            "eq1": self.eq1, "eq2": self.eq2, "eq3": self.eq3,
            "eq4": self.eq4, "m": self.m, "seconds": round(self.seconds, 3),
        }


# Packed codes are int64 base-3 numbers (geometry.code_powers); 3^40 - 1
# no longer fits.
MAX_CODE_DIM = 39
# Up to this dim the seen-set is a bitmap of 3^n bits (1.8 MB at dim 15);
# above it, the sorted array of the codes found so far.
_DENSE_MAX_DIM = 15
# Image entries per chunk (rows x generators x dim), which bounds the
# buffers of one BFS level.
_CHUNK_ENTRIES = 1 << 17
_BIT = (1 << np.arange(8)).astype(np.uint8)


def _canonical_codes(V, powers):
    """Codes of the projective points of the rows of V (entries 0..2): the
    smaller of the codes of v and -v, whose sum is 3 * code(v != 0)."""
    codes = V @ powers
    return np.minimum(codes, 3 * ((V != 0) @ powers) - codes)


def _mark(bits, codes):
    """Set the bits of sorted, unique codes."""
    byte = codes >> 3
    first = np.flatnonzero(np.diff(byte, prepend=-1))
    bits[byte[first]] |= np.bitwise_or.reduceat(_BIT[codes & 7], first)


def _distinct(codes):
    """Sorted distinct codes; np.unique's hash table is several times slower
    on millions of int64 codes."""
    codes = np.sort(codes)
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _drop_seen(seen, codes):
    """The distinct codes not in the seen-set (a bitmap or sorted codes),
    sorted."""
    if seen.dtype == np.uint8:
        return _distinct(codes[(seen[codes >> 3] & _BIT[codes & 7]) == 0])
    codes = _distinct(codes)  # sorted keys keep the binary search in cache
    pos = np.minimum(np.searchsorted(seen, codes), len(seen) - 1)
    return codes[seen[pos] != codes]


def _scan(gens, start, gram, cap):
    """BFS orbit of a projective point over GF(3): (size, d, sorted codes).

    d counts the orbit points w != start with f(w, start) = 0.  Each level
    maps the frontier by all generators at once, reduces mod 3 on
    integers, drops images already seen chunk by chunk, and merges what is
    left into the seen-set once.
    """
    n = len(start)
    if n > MAX_CODE_DIM:
        raise ValueError("GF(3) orbit scans need dim <= %d (packed int64 "
                         "codes), got dim %d" % (MAX_CODE_DIM, n))
    powers = geometry.code_powers(n)
    x = np.array(start, dtype=np.int64) % 3
    gx = (np.array(gram, dtype=np.int64) @ x) % 3
    codes = _canonical_codes(x[None, :], powers)
    if not gens:
        return 1, 0, codes
    G = np.concatenate([np.array(g, dtype=np.float32) % 3 for g in gens],
                       axis=1)
    rows = max(1, _CHUNK_ENTRIES // G.shape[1])
    dense = n <= _DENSE_MAX_DIM
    if dense:
        seen = np.zeros((3 ** n + 7) // 8, dtype=np.uint8)
        _mark(seen, codes)
        levels = [codes]
    else:
        seen = codes
    # every orbit point is counted once, as part of a frontier; the start
    # point is taken back out of d
    size, d = 1, -int(x @ gx % 3 == 0)
    frontier = codes
    while True:
        parts = []
        for lo in range(0, len(frontier), rows):
            V = decode_codes(frontier[lo:lo + rows], n)
            d += int(((V @ gx) % 3 == 0).sum())
            # entries of v @ g are at most 4n <= 156, exact in float32
            # and in uint8, where mod 3 is far cheaper than on floats
            img = (V.astype(np.float32) @ G).astype(np.uint8)
            img %= 3
            c = _canonical_codes(img.reshape(-1, n), powers)
            parts.append(_drop_seen(seen, c))
        new = _distinct(np.concatenate(parts))
        if not new.size:
            break
        size += new.size
        if size > cap:
            raise OrbitCapExceeded("orbit exceeds the cap of %d points" % cap)
        if dense:
            _mark(seen, new)
            levels.append(new)
        else:
            seen = np.insert(seen, np.searchsorted(seen, new), new)
        frontier = new
    if dense:
        return size, d, np.sort(np.concatenate(levels))
    return size, d, seen


def _orbit_generic(space, gens, start, cap):
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
                    if len(seen) > cap:
                        raise OrbitCapExceeded(
                            "orbit exceeds the cap of %d points" % cap)
                    if linalg.vec_dot(F, w, gxcol) == 0:
                        d += 1
                    nxt.append(w)
        frontier = nxt
    return seen, d


def decode_codes(codes, n):
    """Rows of the points with the given packed codes."""
    return (codes[:, None] // geometry.code_powers(n)[None, :]) % 3


def orbit(group, start, cap=ORBIT_CAP, space=None):
    """The orbit of a projective point, as a sorted list of canonical tuples."""
    F = group.field
    gram = group.gram if group.gram is not None else (space.gram if space else None)
    if gram is None:
        gram = linalg.identity(group.dim)  # d-count unused here
    if F.p == 3 and F.a == 1:
        size, _d, codes = _scan(group.gens, start, gram, cap)
        if size > 2_000_000:
            raise OrbitCapExceeded("orbit too large to materialize as tuples")
        return [tuple(int(x) for x in row) for row in decode_codes(codes, group.dim)]
    sp = space or geometry.QuadraticSpace(F, gram)
    seen, _d = _orbit_generic(sp, group.gens, start, cap)
    return sorted(seen)


def _check_start(space, group, start):
    if space.q_value(start) == 0:
        raise ValueError("base point must be non-singular")
    if group.gram is None:
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
        m = (space.n - 1) // 2
        rep.m = m
        if m >= 2 and ptype in (PLUS, MINUS):
            xi = "+" if ptype == PLUS else "-"
            params = higman.odd_orthogonal_params(m, xi)
            cd = higman.CdPair(c, d, xi)
            rep.eq1 = {"s": higman.check_eq1(params, params.s, cd),
                       "t": higman.check_eq1(params, params.t, cd)}
            rep.eq2 = higman.eq2_holds(m, xi, cd)
            rep.eq3 = higman.eq3_holds(m, xi, cd)
            rep.eq4 = higman.eq4_holds(m, cd)
    return rep


def cd_parameters(space, group, start, cap=ORBIT_CAP):
    """OrbitReport with (c, d) and the equation verdicts."""
    F = space.field
    _check_start(space, group, start)
    t0 = time.time()
    if F.p == 3 and F.a == 1:
        size, d, _ = _scan(group.gens, start, space.gram, cap)
    else:
        seen, d = _orbit_generic(space, group.gens, start, cap)
        size = len(seen)
    return make_report(space, start, size, d, time.time() - t0)


def orbit_codes(space, group, start, cap=ORBIT_CAP):
    """(size, d, sorted packed codes) for GF(3) spaces."""
    _check_start(space, group, start)
    return _scan(group.gens, start, space.gram, cap)
