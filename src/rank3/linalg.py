"""Small exact linear algebra over FiniteField values.

Vectors are tuples of encoded field values; matrices are tuples of row
tuples.  Everything here is pure Python and meant for small dimensions;
the MeatAxe runs on it too, while the hot GF(3) orbit paths are numpy
code in groups and geometry.  Every elimination, det included, goes
through one incremental reduced echelon basis, Echelon, and so does the
one restriction of an action to a subquotient, subquotient.
"""

import bisect
import itertools


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


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of F^n.

    rows are kept sorted by pivot column; each pivot entry is 1 and is the
    only nonzero entry of its column, so the rows are the reduced echelon
    form of the span and do not depend on the order vectors were added in.
    """

    def __init__(self, F, rows=()):
        self.F = F
        self.rows = []
        self.pivots = []
        for r in rows:
            self.add(r)

    def _axpy(self, v, c, row):
        """v - c * row, as a list."""
        F = self.F
        if F.a == 1:
            p = F.p
            return [(x - c * y) % p for x, y in zip(v, row)]
        return [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]

    def reduce(self, v):
        """v minus its component in the span, as a list.  Every pivot
        column is zero in the other rows, so one pass suffices."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v = self._axpy(v, v[p], row)
        return v

    def add(self, v):
        """Add v to the span; False when it was already in it."""
        return self._join(self.reduce(v)) is not None

    def _join(self, w):
        """Join a reduced vector w to the rows.  None when w is zero, else
        w's leading entry, negated when its column lands left of an odd
        number of the earlier pivots."""
        F = self.F
        col = next((j for j, x in enumerate(w) if x), None)
        if col is None:
            return None
        lead = w[col]
        w = vec_scale(F, F.inv(lead), w)
        for i, row in enumerate(self.rows):
            if row[col]:
                self.rows[i] = tuple(self._axpy(row, row[col], w))
        at = bisect.bisect(self.pivots, col)
        self.rows.insert(at, w)
        self.pivots.insert(at, col)
        return F.neg(lead) if (len(self.pivots) - 1 - at) % 2 else lead

    def coordinates(self, basis):
        """A function taking v in the span to the x with x . basis = v, and
        any other v to None; basis must be a basis of the span.

        The coordinates of v in the reduced rows are v[pivots]; one inverse
        of the basis's pivot block takes them to the basis.  The function
        reads the rows as they are when it is called.
        """
        F = self.F
        if len(basis) != len(self.rows) or any(any(self.reduce(b)) for b in basis):
            raise ValueError("rows are not a basis of the span")
        inv = mat_inv(F, tuple(tuple(b[p] for p in self.pivots) for b in basis))

        def coords(v):
            if len(self.pivots) < len(v) and any(self.reduce(v)):
                return None
            x = tuple(v[p] for p in self.pivots)
            return vec_mat(F, x, inv) if x else ()

        return coords


def subquotient(F, gens, sub_rows, rad_rows):
    """The action of the matrices gens on span(sub_rows)/span(rad_rows):
    (basis, new gens, coords).  The basis is the sub_rows independent of
    the radical and the rows before them; coords maps the subspace to
    coordinates in it mod the radical, and raises ValueError off it."""
    span = Echelon(F)
    rad = [r for r in rad_rows if span.add(r)]
    basis = [s for s in sub_rows if span.add(s)]
    full_coords = span.coordinates(basis + rad)

    def coords(vec):
        row = full_coords(vec)
        if row is None:
            raise ValueError("vector is outside the subspace")
        return row[:len(basis)]

    new_gens = tuple(tuple(coords(vec_mat(F, b, g)) for b in basis)
                     for g in gens)
    return basis, new_gens, coords


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
        lead = E._join(E.reduce(row))
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


def nullspace_rows(F, A):
    """Basis of {v : v · A = 0} (left nullspace), as rows."""
    At = transpose(A)
    R, pivots = rref(F, At)
    m = len(A)  # number of unknowns
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * m
        v[f] = 1
        for rowi, pc in enumerate(pivots):
            v[pc] = F.neg(R[rowi][f])
        basis.append(tuple(v))
    return tuple(basis)


def solve_row(F, A, b):
    """One solution x of x · A = b, or None."""
    At = transpose(A)
    m = len(A)
    aug = [list(At[i]) + [b[i]] for i in range(len(At))]
    R, pivots = rref(F, aug)
    for row in R:
        if not any(row[:m]) and row[-1]:
            return None  # inconsistent system
    x = [0] * m
    for rowi, pc in enumerate(pivots):
        if pc < m:
            x[pc] = R[rowi][-1]
        elif R[rowi][-1]:
            return None
    return tuple(x)
