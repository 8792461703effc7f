"""Small exact linear algebra over FiniteField values.

Vectors are tuples of encoded field values; matrices are tuples of row
tuples.  Everything here is pure Python and meant for small dimensions;
the MeatAxe runs on it too, while the hot GF(3) orbit paths are numpy
code in groups and geometry.  All elimination except det goes through
one incremental reduced echelon basis, Echelon.
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
        w = self.reduce(v)
        col = next((j for j, x in enumerate(w) if x), None)
        if col is None:
            return False
        w = vec_scale(self.F, self.F.inv(w[col]), w)
        for i, row in enumerate(self.rows):
            if row[col]:
                self.rows[i] = tuple(self._axpy(row, row[col], w))
        at = bisect.bisect(self.pivots, col)
        self.rows.insert(at, w)
        self.pivots.insert(at, col)
        return True

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
    rows = [list(r) for r in A]
    n = len(rows)
    d = 1
    for col in range(n):
        sel = None
        for i in range(col, n):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            return 0
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            d = F.neg(d)
        d = F.mul(d, rows[col][col])
        inv = F.inv(rows[col][col])
        for i in range(col + 1, n):
            if rows[i][col]:
                c = F.mul(inv, rows[i][col])
                rows[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[i], rows[col])]
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
