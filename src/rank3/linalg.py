"""Small exact linear algebra over FiniteField values.

Vectors are tuples of encoded field values; matrices are tuples of row
tuples.  Everything here is pure Python and meant for small dimensions;
the MeatAxe runs on it too, while the hot GF(3) orbit paths are numpy
code in groups and geometry.  Every elimination, det, the left nullspace
and coordinates (one pass over the rows (A | I)) included, goes through
one incremental reduced echelon basis, Echelon, and so does the one
restriction of an action to a subquotient, subquotient.  Inside, Echelon
holds a GF(3) row as the Python-int masks of its 1s and 2s and adds rows
by the bitsliced fields.gf3_add, so its work is whole-row integer ops,
and packing is bytes.translate and int parsing.  Echelon.image maps a
packed row by a matrix of packed rows with one add per nonzero entry, and
coordinates take a packed row with one add per nonzero pivot entry: the
MeatAxe's algebra words, spin and subquotient work on packed rows,
packing each matrix once per call.  Over other fields Echelon works one
entry at a time, as vec_mat, mat_mul and the other functions outside it do.
"""

import bisect
import itertools

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


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    rows are kept sorted by pivot column; each pivot entry is 1 and is the
    only nonzero entry of its column, so the rows are the reduced echelon
    form of the span and do not depend on the order vectors were added in.

    Rows are held packed.  Over GF(3) a packed row is the pair of Python-int
    masks of its 1s and of its 2s, bit j for column j: the pivot is the
    lowest set bit, scaling by 2 swaps the masks and rows add by the
    bitsliced fields.gf3_add.  The masks have no width limit, so no dim
    guard is needed; pack refuses an entry outside 0, 1, 2 with ValueError.
    Over any other field a packed row is its tuple.
    """

    def __init__(self, F, rows=(), n=None):
        self.F = F
        self.gf3 = F.q == 3
        self.n = n          # the row length, else fixed by the first pack
        self._rows = {}     # pivot column -> packed row
        self._mask = 0      # over GF(3), the pivot columns' bits
        self.pivots = []
        for r in rows:
            self.add(r)

    @property
    def rows(self):
        """The reduced rows as tuples, in pivot order."""
        return [self.unpack(self._rows[p]) for p in self.pivots]

    def pack(self, v):
        """The packed form of the vector v; ValueError when its length is
        not that of the first vector packed."""
        if self.n is None:
            self.n = len(v)
        elif len(v) != self.n:
            raise ValueError("a row of length %d among rows of length %d"
                             % (len(v), self.n))
        if not self.gf3:
            return tuple(v)
        try:
            b = bytes(v)[::-1] or b"\0"
            return int(b.translate(_ONES), 2), int(b.translate(_TWOS), 2)
        except ValueError:
            raise ValueError("GF(3) entries are 0, 1 or 2: %r" % (v,)) from None

    def unpack(self, r):
        """The tuple of the packed row r."""
        if not self.gf3:
            return r
        if self.n is None:
            raise ValueError("the row length is unknown before a pack")
        # bit j of a mask becomes hex digit j, so the last n hex digits,
        # reversed, are the entries
        x = int(format(r[0], "b"), 16) + 2 * int(format(r[1], "b"), 16)
        digits = format(x, "0%dx" % self.n)[:-self.n - 1:-1]
        return tuple(digits.encode().translate(_ENTRIES))

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

    def reduce(self, v):
        """v minus its component in the span, as a list."""
        return list(self.unpack(self._reduce(self.pack(v))))

    def add(self, v):
        """Add v to the span; False when it was already in it."""
        return self.add_packed(self.pack(v)) is not None

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

    def _augment(self, w, i, m):
        """The packed row w followed by e_i in F^m, packed at length n + m."""
        if self.gf3:    # e_i is bit n + i of the 1s
            return w[0] | 1 << self.n + i, w[1]
        return w + (0,) * i + (1,) + (0,) * (m - 1 - i)

    def _split(self, w):
        """The packed first n entries of a longer packed row w, and the rest."""
        n = self.n
        if self.gf3:
            low = (1 << n) - 1
            return (w[0] & low, w[1] & low), (w[0] >> n, w[1] >> n)
        return tuple(w[:n]), tuple(w[n:])

    def image(self, v, g):
        """The packed v times the matrix whose packed rows are g: one add
        per nonzero entry of v over GF(3)."""
        if not self.gf3:
            return vec_mat(self.F, v, g)
        return _gf3_sum(0, 0, *v, g)

    def coordinates(self, basis, packed=False):
        """A function taking v in the span to the x with x . basis = v, and
        any other v to None; basis must be a basis of the span, and the
        span must not grow after the call.  With packed, v comes packed.

        One echelon pass over the rows (b_i | e_i) gives the reduced rows
        as (r_p | t_p) with t_p . basis = r_p, and shows that the basis
        spans the r_p.  The coordinates of v in the r_p are its entries at
        the pivots p, so a table of the packed t_p by pivot column takes v
        to x: over GF(3), one add per nonzero pivot entry.
        """
        F, k = self.F, len(basis)
        aug = Echelon(F)
        for i, b in enumerate(basis):
            aug.add_packed(self._augment(self.pack(b), i, k))
        halves = {p: self._split(row) for p, row in aug._rows.items()}
        if {p: r for p, (r, _t) in halves.items()} != self._rows:
            raise ValueError("rows are not a basis of the span")
        table = {p: t for p, (_r, t) in halves.items()}
        X, mask = Echelon(F, n=k), self._mask

        def coords(w):
            if len(table) < self.n and any(self._reduce(w)):
                return None
            if self.gf3:
                return X.unpack(_gf3_sum(0, 0, w[0] & mask, w[1] & mask, table))
            x = [w[p] for p in table]
            return vec_mat(F, x, list(table.values())) if x else ()

        return coords if packed else lambda v: coords(self.pack(v))


def subquotient(F, gens, sub_rows, rad_rows):
    """The action of the matrices gens on span(sub_rows)/span(rad_rows):
    (basis, new gens, coords).  The basis is the sub_rows independent of
    the radical and the rows before them; coords maps the subspace to
    coordinates in it mod the radical, and raises ValueError off it.
    Each image b . g stays packed up to its coordinates."""
    span = Echelon(F)
    rad = [r for r in rad_rows if span.add(r)]
    basis = [s for s in sub_rows if span.add(s)]
    full_coords = span.coordinates(basis + rad, packed=True)

    def packed_coords(w):
        x = full_coords(w)
        if x is None:
            raise ValueError("vector is outside the subspace")
        return x[:len(basis)]

    packed = [span.pack(b) for b in basis]
    new_gens = []
    for g in gens:
        g = [span.pack(row) for row in g]
        new_gens.append(tuple(packed_coords(span.image(b, g)) for b in packed))
    return basis, tuple(new_gens), lambda vec: packed_coords(span.pack(vec))


def rref(F, A):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    E = Echelon(F, A)
    return tuple(E.rows), E.pivots


def rank(F, A):
    return len(Echelon(F, A).rows)


def span_vectors(F, rows):
    """Every combination of rows with coefficients not all zero, in
    itertools.product order of the coefficient tuples."""
    n = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        if not any(coeffs):
            continue
        v = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    v[j] = F.add(v[j], F.mul(c, x))
        yield tuple(v)


def det(F, A):
    """Determinant of a square A: its rows, each reduced by the ones before
    it, are triangular at their pivot columns, so det A is the product of
    their leading entries with the sign of the pivot order (see _join)."""
    E = Echelon(F)
    d = 1
    for row in A:
        lead = E._join(E._reduce(E.pack(row)))
        if lead is None:
            return 0
        d = F.mul(d, lead)
    return d


def mat_inv(F, A):
    n = len(A)
    aug = [list(A[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    R, pivots = rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in R[:n])


def nullspace_rows(F, A, packer=None):
    """Basis of {v : v · A = 0} (left nullspace), as rows; A's rows may
    come packed by the Echelon packer.  One echelon pass over the rows
    (A_i | e_i): where the A_i part reduces to zero, the e_i part is the
    basis vector of the free row i, and only the other rows join, so the
    basis is that of rref(A^T) and back substitution, in the same order."""
    m = len(A)
    if packer is None:
        packer = Echelon(F, n=len(A[0]) if A else 0)
        A = [packer.pack(r) for r in A]
    E, out = Echelon(F), Echelon(F, n=m)
    basis = []
    for i, r in enumerate(A):
        w = E._reduce(packer._augment(r, i, m))
        front, back = packer._split(w)
        if any(front):
            E._join(w)
        else:
            basis.append(out.unpack(back))
    return tuple(basis)


def solve_row(F, A, b):
    """One solution x of x · A = b, or None."""
    At = transpose(A)
    m = len(A)
    aug = [list(At[i]) + [b[i]] for i in range(len(At))]
    R, pivots = rref(F, aug)
    x = [0] * m
    for rowi, pc in enumerate(pivots):
        if pc == m:
            return None  # a pivot in b: the system is inconsistent
        x[pc] = R[rowi][-1]
    return tuple(x)
