"""Quadratic spaces over odd-characteristic finite fields.

A space carries a symmetric invertible Gram matrix for the bilinear form f;
the quadratic form is Q(v) = 2^-1 * f(v,v).  Vector values are encoded field
integers; vectors are tuples.  Exhaustive counting (any field) and the point
enumerators (prime fields) read one table: Q of every vector, indexed by its
packed code and built as an outer sum over a split of the coordinates.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import SQUARE, NONSQUARE, gf3_add

PLUS = "plus"
MINUS = "minus"
ZERO = "zero"

# exhaustive engines turn off above this many vectors
_EXHAUSTIVE_LIMIT = 3 ** 14
_Q_BLOCK = 2 ** 18  # entries of the outer sum per block of _q_table
_FIRST_BLOCK = 2 ** 10  # tails per look of first_nonsingular_point


class QuadraticSpace:
    def __init__(self, field, gram):
        if field.p == 2:
            raise ValueError("odd characteristic required")
        gram = linalg.mat_from_rows(gram)
        n = len(gram)
        if n == 0:
            raise ValueError("gram matrix is empty: dim must be at least 1")
        if any(len(r) != n for r in gram):
            raise ValueError("gram matrix not square")
        if gram != linalg.transpose(gram):
            raise ValueError("gram matrix not symmetric")
        self.field = field
        self.n = n
        self.gram = gram
        self._det = linalg.det(field, gram)
        if self._det == 0:
            raise ValueError("gram matrix is degenerate")
        self._half = field.inv(field.from_int(2))
        self._gram_np = np.array(gram, dtype=np.int64)
        self._pack = linalg.Echelon(field, n).pack
        self._qcounts = None
        self._qtable = None

    def form(self, u, v):
        self._pack(u), self._pack(v)  # ValueError unless n entries in range(q)
        F = self.field
        gv = linalg.vec_mat(F, v, self.gram)
        return linalg.vec_dot(F, u, gv)

    def q_value(self, v):
        return self.field.mul(self._half, self.form(v, v))

    def disc_class(self):
        return self.field.square_class(self._det)

    def perp_basis(self, vectors):
        """Basis (rows) of the common perp of the given vectors."""
        F = self.field
        cols = linalg.transpose(tuple(linalg.vec_mat(F, v, self.gram) for v in vectors))
        return linalg.nullspace_rows(F, cols)

    def __repr__(self):
        return "QuadraticSpace(%r, dim=%d)" % (self.field, self.n)


def standard_space(n, field, disc=SQUARE):
    """Diagonal space with prescribed discriminant square class."""
    diag = [1] * n
    if disc == NONSQUARE:
        nu = next(x for x in field.nonzero() if field.square_class(x) == NONSQUARE)
        if n % 2 == 1:
            diag = [nu] * n  # det = nu^n ~ nu
        else:
            diag[-1] = nu
    gram = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
    space = QuadraticSpace(field, gram)
    assert space.disc_class() == disc
    return space


def canonical_point(field, v):
    """Scale so the first nonzero coordinate is 1."""
    for x in v:
        if x:
            if x == 1:
                return tuple(v)
            c = field.inv(x)
            return tuple(field.mul(c, y) for y in v)
    raise ValueError("zero vector has no projective point")


# ---------------------------------------------------------------------------
# signs and types

def _q_counts(space):
    """#{v : Q(v) = gamma} over all q^n vectors, over any field, as the
    array indexed by gamma: a bincount of the table of Q (cached)."""
    if space._qcounts is None:
        space._qcounts = np.bincount(_q_table(space), minlength=space.field.q)
    return space._qcounts


def q_value_counts(space):
    """dict gamma -> #{v : Q(v) = gamma}, built on each call: a dict holds
    an int object per field element, so counts read _q_counts' array."""
    return dict(enumerate(_q_counts(space).tolist()))


def sign_of_space(space):
    """Sign of an even-dimensional space: + iff disc ~ (-1)^k for dim 2k
    (valid for every odd q), with exhaustive cross-check."""
    if space.n % 2 != 0:
        raise ValueError("sign is defined for even dimensions")
    F, q, k = space.field, space.field.q, space.n // 2
    eps = 1 if space.disc_class() == F.square_class(F.pow(F.neg(1), k)) else -1
    sign = "+" if eps == 1 else "-"
    if q ** space.n <= _EXHAUSTIVE_LIMIT:
        singular = int(_q_counts(space)[0])  # includes the zero vector
        if singular != q ** (2 * k - 1) + eps * (q ** k - q ** (k - 1)):
            raise AssertionError(
                "sign mismatch: disc rule %s but singular count %d" % (sign, singular))
    return sign


def point_type(space, v):
    """rho: ZERO if singular; else the sign of v-perp (odd dim) or Q (even)."""
    if not any(v):
        raise ValueError("type of the zero vector is undefined")
    gamma = space.q_value(v)
    if gamma == 0:
        return ZERO
    if space.n % 2 == 0:
        return gamma
    return type_of_qvalue(space, gamma)


def type_of_qvalue(space, gamma):
    """Type of any nonsingular vector with Q = gamma (odd dim): the sign
    of the even-dimensional perp, read off disc(V) = class(2*gamma) *
    disc(v-perp)."""
    if gamma == 0:
        return ZERO
    F = space.field
    k = (space.n - 1) // 2
    disc_perp_sq = (space.disc_class() == F.square_class(F.mul(F.from_int(2), gamma)))
    target_sq = (F.square_class(F.pow(F.neg(1), k)) == SQUARE)
    return PLUS if disc_perp_sq == target_sq else MINUS


# ---------------------------------------------------------------------------
# counting

@dataclass
class CountResult:
    closed_form: int
    exhaustive: int | None
    mode: str  # "both" or "closed-form-only"

    def __post_init__(self):
        if self.exhaustive is not None and self.exhaustive != self.closed_form:
            raise AssertionError(
                "count mismatch: closed form %d, exhaustive %d"
                % (self.closed_form, self.exhaustive))


def _closed_count(space, gamma):
    q = space.field.q
    n = space.n
    if n % 2 == 0:
        k = n // 2
        eps = 1 if sign_of_space(space) == "+" else -1
        if gamma == 0:
            return q ** (2 * k - 1) + eps * (q ** k - q ** (k - 1))
        return q ** (2 * k - 1) - eps * q ** (k - 1)
    k = (n - 1) // 2
    if gamma == 0:
        return q ** (2 * k)
    rho = 1 if type_of_qvalue(space, gamma) == PLUS else -1
    return q ** (2 * k) + rho * q ** k


def count_norm_vectors(space, gamma):
    """#{v : Q(v) = gamma}; closed form plus exhaustive oracle when feasible.

    For gamma = 0 the count includes the zero vector.
    """
    closed = _closed_count(space, gamma)
    q = space.field.q
    if q ** space.n <= _EXHAUSTIVE_LIMIT:
        return CountResult(closed, int(_q_counts(space)[gamma]), "both")
    return CountResult(closed, None, "closed-form-only")


# ---------------------------------------------------------------------------
# point sets

def code_powers(n, p=3):
    """Place values of packed point codes: base p, first coordinate most
    significant, so that sorted codes list points lexicographically."""
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64)


def decode_codes(codes, n, p=3):
    """Rows of the vectors with the given packed codes."""
    return (codes[:, None] // code_powers(n, p)[None, :]) % p


def _q_table(space):
    """Q of every vector, indexed by its packed code base q (cached).  Over
    GF(p), v is w, its a*n coordinates: the base-p digits of each entry,
    digit a-1 first, so w's code base p is v's code base q.  Digit k of
    Q(v) is w D_k w^T / 2 mod p, D_k being digit k of G_jl b_r b_c, where
    coordinate r is digit i of entry j and b_r the element with code p^i.
    Its table is the outer sum Q(x) + Q(y) + x D_xy y^T over w = x || y, the
    cross term added one x-coordinate at a time, in the smallest dtype.
    The outer sum is built _Q_BLOCK entries (all x, some y) at a time, so
    that over a large prime field no array spans the whole table."""
    if space._qtable is None:
        if space.field.q ** space.n > _EXHAUSTIVE_LIMIT:
            raise ValueError("space too large to tabulate Q")
        F = space.field
        p, N = F.p, F.a * space.n
        s, top = N // 2, (N // 2 + 2) * (p - 1)  # Q(x), Q(y), s cross terms
        b = [p ** i for i in reversed(range(F.a))]
        bb = [[F.mul(x, y) for y in b] for x in b]
        D = np.array([[F.mul(g, x) for g in row for x in bb[i]]
                      for row in space.gram for i in range(F.a)])
        X, dt = decode_codes(np.arange(p ** s), s, p), np.min_scalar_type(top)
        Q = np.zeros(p ** N, np.min_scalar_type(F.q - 1))
        Qxy = Q.reshape(p ** s, p ** (N - s))
        B = max(1, _Q_BLOCK // p ** s)  # values of y per block
        for lo in range(0, p ** (N - s), B):
            Y = decode_codes(np.arange(lo, min(lo + B, p ** (N - s))),
                             N - s, p)
            for k in reversed(range(F.a)):
                Dk = D // p ** k % p
                H = Dk * space._half % p
                T = ((X @ H[:s, :s] % p * X).sum(1) % p).astype(dt)[:, None] \
                    + ((Y @ H[s:, s:] % p * Y).sum(1) % p).astype(dt)
                M = Dk[:s, s:] @ Y.T % p
                for c in range(s):
                    V = T.reshape(p ** c, p, -1, len(Y))
                    V += (np.arange(p)[:, None] * M[c] % p).astype(dt)[:, None]
                # unsigned, x mod p = min(x, x - m) for x < 2m and m = 2^j p
                for j in reversed(range((top // p).bit_length())):
                    np.minimum(T, T - (p << j), out=T)
                Qxy[:, lo:lo + B] *= p
                Qxy[:, lo:lo + B] += T
        space._qtable = Q
    return space._qtable


def _prime_q_table(space):
    """_q_table for the enumerators, which read codes base p."""
    if space.field.a > 1:
        raise ValueError("point enumeration needs a prime field, got %r"
                         % space.field)
    return _q_table(space)


def _type_masks(space, xi):
    """For t = 0..n-1, which vectors with their leading 1 at place value p^t
    (the codes in [p^t, 2p^t)) are points of type xi: a bool array indexed
    by code - p^t, the big-endian index of the tail behind the 1."""
    if space.n % 2 == 0:
        raise ValueError("point types need odd dimension")
    want = PLUS if xi in ("+", PLUS, 1) else MINUS
    p, m = space.field.p, (space.n - 1) // 2
    Q = _prime_q_table(space)
    values = [g for g in range(1, p) if type_of_qvalue(space, g) == want]
    of_type = np.zeros(p, dtype=bool)
    of_type[values] = True
    # over GF(3) a type has one Q value, and comparing a block with it is
    # ten times faster than indexing of_type by the uint8 Q values (a cast)
    masks = [block == values[0] if len(values) == 1 else of_type[block]
             for block in (Q[p ** t:2 * p ** t] for t in range(space.n))]
    found = sum(np.count_nonzero(mask) for mask in masks)
    expected = p ** m * (p ** m + (1 if want == PLUS else -1)) // 2
    assert found == expected, (found, expected)
    return masks


def nonsingular_codes(space, xi):
    """The points of nonsingular_points as sorted packed codes (prime
    fields; see code_powers)."""
    p = space.field.p
    return np.concatenate([p ** t + np.flatnonzero(mask)
                           for t, mask in enumerate(_type_masks(space, xi))])


def singular_codes(space):
    """The singular projective points as sorted packed codes (prime
    fields; see code_powers)."""
    p, Q = space.field.p, _prime_q_table(space)
    return np.concatenate([p ** t + np.flatnonzero(Q[p ** t:2 * p ** t] == 0)
                           for t in range(space.n)])


def nonsingular_points(space, xi):
    """All non-singular projective points of type xi (odd dim, prime field),
    as tuples with first nonzero coordinate 1.  The leading 1 moves right,
    and behind it the first coordinate varies fastest: the decoded codes
    sorted by the place of the leading 1, then by the little-endian code."""
    p, n = space.field.p, space.n
    P = decode_codes(nonsingular_codes(space, xi), n, p)
    order = np.lexsort((P @ p ** np.arange(n), (P != 0).argmax(axis=1)))
    return [tuple(v) for v in P[order].tolist()]


def first_nonsingular_point(space, xi):
    """nonsingular_points(space, xi)[0], without enumerating the rest: each
    mask is read in blocks of little-endian tail indices, up to a hit, and
    the code of the hit decoded."""
    p = space.field.p
    for t, mask in reversed(list(enumerate(_type_masks(space, xi)))):
        for lo in range(0, mask.size, _FIRST_BLOCK):
            idx = np.arange(lo, min(lo + _FIRST_BLOCK, mask.size))
            big = decode_codes(idx, t, p)[:, ::-1] @ code_powers(t, p)
            hit = big[mask[big]]
            if hit.size:
                return tuple(decode_codes(p ** t + hit[:1], space.n,
                                          p)[0].tolist())
    raise ValueError("no point of type %s" % xi)


def _common_neighbours(A):
    """A^2 of a symmetric 0/1 matrix, exactly, in np.min_scalar_type(N):
    popcounts of row i AND row j, over the rows packed into 64-bit words."""
    R = np.packbits(A, axis=1)
    A2 = np.zeros(A.shape, dtype=np.min_scalar_type(len(A)))
    for w in np.pad(R, ((0, 0), (0, -R.shape[1] % 8))).view(np.uint64).T:
        A2 += np.bitwise_count(w[:, None] & w[None, :])
    return A2


def _delta_graph(space, xi):
    """The perpendicularity graph on E_xi: bool A and A^2.  Over GF(3),
    gf3_add adds W[i, t] times bitsliced column t of P to row i, W = P G."""
    P = np.array(nonsingular_points(space, xi), dtype=np.int64)
    W = P @ space._gram_np % space.field.p
    if space.field.p != 3:
        A = W @ P.T % space.field.p == 0
    else:  # C[v, t]: where P[:, t] == v, none for v = 0; C[-w] swaps 1s, 2s
        C, R1, R2 = np.packbits([P.T == v for v in (3, 1, 2)], 2), 0, 0
        for t, w in enumerate(W.T):
            R1, R2 = gf3_add(R1, R2, C[w, t], C[-w, t])
        A = np.unpackbits(~(R1 | R2), 1, len(P)).view(bool)
    np.fill_diagonal(A, False)
    return A, _common_neighbours(A)


def measured_rank3_parameters(space, xi):
    """(|E|, k, l, lambda, mu) measured on the explicit point set.  Raises
    AssertionError unless 0 < k < N - 1 and A^2 = kI + lam A + mu (J-I-A)."""
    A, A2 = _delta_graph(space, xi)
    N, ks = len(A), np.count_nonzero(A, axis=1)
    if ks.min() != ks.max():
        raise AssertionError("Delta-graph is not regular")
    k = int(ks[0])  # lambda, mu: at point 0's first edge, last non-edge
    lam, mu = A2[0, A[0].argmax()], A2[0, -1 - A[0, ::-1].argmin()]
    S = A * (lam ^ mu) ^ mu  # lambda on edges, mu off them, unsigned
    np.fill_diagonal(S, k)
    if not 0 < k < N - 1 or not np.array_equal(A2, S):
        raise AssertionError("intersection numbers are not constant")
    return N, k, N - 1 - k, int(lam), int(mu)
