"""Small exact linear algebra over FiniteField values.

Vectors are tuples of encoded field values; matrices are tuples of row
tuples.  Everything here is pure Python and meant for small dimensions;
the MeatAxe runs on it too, while the hot GF(3) orbit paths are numpy
code in groups and geometry.  Every elimination, det included, goes
through one incremental reduced echelon basis, Echelon, whose one pass
over the rows (A | I), solve, gives the left nullspace, coordinates,
mat_inv and subquotient, the one restriction of an action to a
subquotient.  Inside, Echelon holds a GF(3) row as the Python-int masks
of its 1s and 2s and adds rows by the bitsliced fields.gf3_add, so its
work is whole-row integer ops, and packing is bytes.translate and int
parsing.  Echelon.image maps a packed row by a matrix of packed rows, and
solve's coordinates take a packed row, with one add per nonzero (pivot)
entry: the MeatAxe's algebra words, spin and subquotient work on packed
rows, and read a group's generators as the rows it packed once, its
MatrixGroup.packed_gens.  Over other fields Echelon works one entry at a
time, as vec_mat, mat_mul and the other functions do.
"""

import bisect

from .fields import gf3_add


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def perm_matrix(perm):
    """Row-vector convention: basis vector i maps to basis vector perm[i]."""
    n = len(perm)
    return tuple(tuple(1 if j == perm[i] else 0 for j in range(n))
                 for i in range(n))


def mat_from_rows(rows):
    return tuple(tuple(r) for r in rows)


def transpose(A):
    return tuple(zip(*A))


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_sub(F, u, v):
    return tuple(F.sub(a, b) for a, b in zip(u, v))


def vec_scale(F, c, v):
    return tuple(F.mul(c, x) for x in v)


def vec_dot(F, u, v):
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s = F.add(s, F.mul(a, b))
    return s


def vec_mat(F, v, A):
    """Row vector times matrix."""
    n = len(A[0])
    out = [0] * n
    for i, vi in enumerate(v):
        if vi:
            row = A[i]
            for j in range(n):
                if row[j]:
                    out[j] = F.add(out[j], F.mul(vi, row[j]))
    return tuple(out)


def mat_mul(F, A, B):
    return tuple(vec_mat(F, row, B) for row in A)


def kron(F, A, B):
    m, n = len(A), len(A[0])
    p, q = len(B), len(B[0])
    out = []
    for i in range(m):
        for k in range(p):
            row = []
            for j in range(n):
                a = A[i][j]
                row.extend(F.mul(a, B[k][l]) for l in range(q))
            out.append(tuple(row))
    return tuple(out)


# bytes.translate tables from entries to the binary digits of the masks of
# the 1s and of the 2s; any byte but 0, 1, 2 becomes "x", which int(_, 2)
# refuses.  _ENTRIES takes the hex digits 0, 1, 2 back to entries.
_ONES, _TWOS = (bytes(b"01"[i == k] if i < 3 else 120 for i in range(256))
                for k in (1, 2))
_ENTRIES = bytes.maketrans(b"012", b"\0\1\2")


def _gf3_sum(a1, a2, plus, minus, rows):
    """The packed GF(3) vector (a1, a2) plus rows[j] for every set bit j
    of plus, minus rows[j] for every set bit j of minus."""
    while plus:
        low = plus & -plus
        r1, r2 = rows[low.bit_length() - 1]
        a1, a2 = gf3_add(a1, a2, r1, r2)
        plus ^= low
    while minus:
        low = minus & -minus
        r1, r2 = rows[low.bit_length() - 1]
        a1, a2 = gf3_add(a1, a2, r2, r1)
        minus ^= low
    return a1, a2


def _unpack(r, n):
    """The tuple of the first n entries of the packed GF(3) row r."""
    # bit j of a mask becomes hex digit j, so the last n hex digits,
    # reversed, are the entries
    x = int(format(r[0], "b"), 16) + 2 * int(format(r[1], "b"), 16)
    digits = format(x, "0%dx" % n)[:-n - 1:-1]
    return tuple(digits.encode().translate(_ENTRIES))


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    rows are kept sorted by pivot column; each pivot entry is 1 and is the
    only nonzero entry of its column, so the rows are the reduced echelon
    form of the span and do not depend on the order vectors were added in.

    Rows are held packed.  Over GF(3) a packed row is the pair of Python-int
    masks of its 1s and of its 2s, bit j for column j: the pivot is the
    lowest set bit, scaling by 2 swaps the masks and rows add by the
    bitsliced fields.gf3_add.  The masks have no width limit, so no dim
    guard is needed.  Over any other field a packed row is its tuple.  On
    every field pack refuses, with ValueError, a row whose length is not
    the n given at construction and an entry outside range(F.q).
    """

    def __init__(self, F, n):
        self.F = F
        self.gf3 = F.q == 3
        self.n = n
        self._rows = {}     # pivot column -> packed row
        self._mask = 0      # over GF(3), the pivot columns' bits
        self.pivots = []

    @property
    def rows(self):
        """The reduced rows as tuples, in pivot order."""
        return [self.unpack(self._rows[p]) for p in self.pivots]

    def pack(self, v):
        """The packed form of the vector v; ValueError when its length is
        not n or an entry lies outside range(F.q)."""
        if len(v) != self.n:
            raise ValueError("a row of length %d among rows of length %d"
                             % (len(v), self.n))
        if not self.gf3:
            if self.n and not (0 <= min(v) and max(v) < self.F.q):
                raise ValueError("GF(%d) entries are 0 to %d: %r"
                                 % (self.F.q, self.F.q - 1, v))
            return tuple(v)
        try:
            b = bytes(v)[::-1] or b"\0"
            return int(b.translate(_ONES), 2), int(b.translate(_TWOS), 2)
        except ValueError:
            raise ValueError("GF(3) entries are 0, 1 or 2: %r" % (v,)) from None

    def unpack(self, r):
        """The tuple of the packed row r."""
        return _unpack(r, self.n) if self.gf3 else r

    def _axpy(self, v, c, row):
        """v - c * row, as a list, over a field other than GF(3)."""
        F = self.F
        if F.a == 1:
            p = F.p
            return [(x - c * y) % p for x, y in zip(v, row)]
        return [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]

    def _reduce(self, v):
        """The packed v minus its component in the span.  Every pivot
        column is zero in the other rows, so one pass suffices, and v's
        entries at the pivots are the coefficients: over GF(3) the rows
        at its 1s are subtracted and the rows at its 2s added."""
        if not self.gf3:
            for p in self.pivots:
                if v[p]:
                    v = self._axpy(v, v[p], self._rows[p])
            return v
        o, t = v
        return _gf3_sum(o, t, t & self._mask, o & self._mask, self._rows)

    def add_packed(self, w):
        """Add the packed w to the span: w reduced, or None when it was
        already in it."""
        w = self._reduce(w)
        return None if self._join(w) is None else w

    def _join(self, w):
        """Join a reduced packed row w to the rows.  None when w is zero,
        else w's leading entry, negated when its column lands left of an
        odd number of the earlier pivots."""
        F = self.F
        if self.gf3:
            o, t = w
            low = (o | t) & -(o | t)
            if not low:
                return None
            col = low.bit_length() - 1
            lead = 1 if o & low else 2
            if lead == 2:
                o, t = t, o
            w = o, t
            self._mask |= low
            for p, (r1, r2) in self._rows.items():
                if r1 & low:
                    self._rows[p] = gf3_add(r1, r2, t, o)
                elif r2 & low:
                    self._rows[p] = gf3_add(r1, r2, o, t)
        else:
            col = next((j for j, x in enumerate(w) if x), None)
            if col is None:
                return None
            lead = w[col]
            w = vec_scale(F, F.inv(lead), w)
            for p, row in self._rows.items():
                if row[col]:
                    self._rows[p] = tuple(self._axpy(row, row[col], w))
        at = bisect.bisect(self.pivots, col)
        self._rows[col] = w
        self.pivots.insert(at, col)
        return F.neg(lead) if (len(self.pivots) - 1 - at) % 2 else lead

    def image(self, v, g):
        """The packed v times the matrix whose packed rows are g: one add
        per nonzero entry of v over GF(3)."""
        if not self.gf3:
            return vec_mat(self.F, v, g)
        return _gf3_sum(0, 0, *v, g)

    def solve(self, rows):
        """One echelon pass over the rows (r_i | e_i), each r_i a packed
        row of length n: (coords, free).  Only rows whose r part does not
        reduce to zero join, as (r_p | t_p) with t_p . rows = r_p.  free
        maps each other row's index, in order, to its reduced e part: the
        left nullspace basis of rref(A^T) and back substitution.  coords
        takes a packed v in the span to the x with x . rows = v and zeros
        at the free rows, else to None: (v | 0) reduces to (0 | -x).  A row,
        or a v of coords, packed at another length raises ValueError: over
        GF(3) its masks would spill into the e_i bits."""
        F, n, m = self.F, self.n, len(rows)
        aug, free = Echelon(F, n + m), {}
        if self.gf3:    # e_i is bit n + i of the 1s; low masks the rest
            low = ~(((1 << m) - 1) << n)
            for i, (o, t) in enumerate(rows):
                if (o | t) >> n:
                    raise ValueError("row %d is wider than %d columns"
                                     % (i, n))
                w = aug._reduce((o | 1 << n + i, t))
                if (w[0] | w[1]) & low:
                    aug._join(w)
                else:
                    free[i] = _unpack((w[0] >> n, w[1] >> n), m)

            def coords(v):
                if (v[0] | v[1]) >> n:
                    raise ValueError("vector is wider than %d columns" % n)
                o, t = aug._reduce(v)
                return None if (o | t) & low else _unpack((t >> n, o >> n), m)
        else:
            zero = (0,) * m
            for i, r in enumerate(rows):
                if len(r) != n:
                    raise ValueError("row %d has length %d, not %d"
                                     % (i, len(r), n))
                w = aug._reduce(r + zero[:i] + (1,) + zero[i + 1:])
                if any(w[:n]):
                    aug._join(w)
                else:
                    free[i] = tuple(w[n:])

            def coords(v):
                if len(v) != n:
                    raise ValueError("vector has length %d, not %d"
                                     % (len(v), n))
                w = aug._reduce(v + zero)
                return None if any(w[:n]) else tuple(map(F.neg, w[n:]))
        return coords, free


def subquotient(M, sub_rows, rad_rows):
    """The action of the groups.MatrixGroup M on span(sub_rows)/span(rad_rows):
    (basis, new gens, coords).  One Echelon.solve over the rad_rows, then
    the sub_rows: the basis is the sub_rows that join, and coords maps the
    subspace to coordinates in it mod the radical, read off at their
    indices, and raises ValueError off it.  Each image b . g, taken on
    M.packed_gens, stays packed up to its coordinates."""
    E = Echelon(M.field, M.dim)
    rad = [E.pack(r) for r in rad_rows]
    rows = rad + [E.pack(s) for s in sub_rows]
    full_coords, free = E.solve(rows)
    joined = [i for i in range(len(rad), len(rows)) if i not in free]

    def packed_coords(w):
        x = full_coords(w)
        if x is None:
            raise ValueError("vector is outside the subspace")
        return tuple([x[i] for i in joined])

    new_gens = tuple(tuple(packed_coords(E.image(rows[i], g)) for i in joined)
                     for g in M.packed_gens)
    basis = [sub_rows[i - len(rad)] for i in joined]
    return basis, new_gens, lambda vec: packed_coords(E.pack(vec))


def rref(F, A):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    E = Echelon(F, len(A[0]) if A else 0)
    for row in A:
        E.add_packed(E.pack(row))
    return tuple(E.rows), E.pivots


def det(F, A):
    """Determinant of a square A, else ValueError: its rows, each reduced
    by the ones before it, are triangular at their pivot columns, so det A
    is the product of their leading entries with the sign of the pivot
    order (see _join)."""
    E = Echelon(F, len(A))
    d = 1
    for w in [E.pack(row) for row in A]:  # each row length is checked
        lead = E._join(E._reduce(w))
        if lead is None:
            return 0
        d = F.mul(d, lead)
    return d


def mat_inv(F, A):
    """The inverse of the square A, by Echelon.solve: row j is the x with
    x . A = e_j.  ValueError when A is not square or is singular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    E = Echelon(F, n)
    coords, free = E.solve([E.pack(row) for row in A])
    if free:
        raise ValueError("matrix is singular")
    return tuple(coords(E.pack(e)) for e in identity(n))


def nullspace_rows(F, A):
    """Basis of {v : v · A = 0} (left nullspace), as rows: the free rows of
    Echelon.solve over A."""
    E = Echelon(F, len(A[0]) if A else 0)
    return tuple(E.solve([E.pack(row) for row in A])[1].values())


def solve_row(F, A, b):
    """One solution x of x · A = b, or None; ValueError when b and a row
    of A differ in length."""
    if any(len(row) != len(b) for row in A):
        raise ValueError("b has length %d, a row of A another" % len(b))
    aug = [[row[j] for row in A] + [b[j]] for j in range(len(b))]
    R, pivots = rref(F, aug)
    x = [0] * len(A)
    for rowi, pc in enumerate(pivots):
        if pc == len(A):
            return None  # a pivot in b: the system is inconsistent
        x[pc] = R[rowi][-1]
    return tuple(x)
