"""Exact arithmetic in GF(p^a) for small odd p (and p=2 for toy tests).

Elements are integers in [0, p^a) encoding polynomial coefficients base p,
constant term first: value = sum(c_i * p^i).  Multiplication in extension
fields goes through log/antilog tables built once at field creation.
"""

from functools import lru_cache

import numpy as np

SQUARE = "square"
NONSQUARE = "nonsquare"

# extension fields build log tables with q entries at creation
MAX_EXTENSION_ORDER = 1 << 16


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polys are tuples, constant term first

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        a = list(_poly_trim(a))
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _poly_trim(a)


def _all_monic(deg, p):
    for low in range(p ** deg):
        coeffs = []
        v = low
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def is_irreducible(modulus, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = _poly_trim(modulus)
    deg = len(m) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for cand in _all_monic(d, p):
            if not _poly_mod(m, cand, p):
                return False
    return True


def _encode(coeffs, p):
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _decode(value, p, a):
    out = []
    for _ in range(a):
        out.append(value % p)
        value //= p
    return tuple(out)


def _prime_factors(n):
    """The distinct prime factors of n, by trial division up to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """GF(p^a) with integer-encoded elements."""

    def __init__(self, p, a, modulus=None):
        if _prime_factors(p) != [p]:
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if a < 1:
            raise ValueError("degree must be >= 1")
        if a > 1 and p ** a > MAX_EXTENSION_ORDER:
            raise ValueError("GF(%d^%d) is larger than the extension-field "
                             "limit 2^16" % (p, a))
        self.p = p
        self.a = a
        self.q = p ** a
        if a == 1:
            self.modulus = (0, 1)  # the polynomial x; unused
        else:
            if modulus is None:
                modulus = self._first_irreducible(p, a)
            modulus = _poly_trim(modulus)
            if len(modulus) - 1 != a:
                raise ValueError("modulus degree %d, expected %d" % (len(modulus) - 1, a))
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus %r is reducible over GF(%d)" % (modulus, p))
            self.modulus = tuple(c % p for c in modulus)
        self.primitive = self._find_primitive()
        if self.a > 1:
            self._build_logs()

    @staticmethod
    def _first_irreducible(p, a):
        for cand in _all_monic(a, p):
            if is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")

    # -- construction internals ------------------------------------------

    def _mul_slow(self, x, y):
        p, a = self.p, self.a
        prod = _poly_mul(_decode(x, p, a), _decode(y, p, a), p)
        return _encode(_poly_mod(prod, self.modulus, p), p)

    def _find_primitive(self):
        order = self.q - 1
        factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self._pow_slow(g, order // f) != 1 for f in factors):
                return g
        if self.q == 2:
            return 1
        raise AssertionError("no primitive element found")

    def _pow_slow(self, x, e):
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, x) if self.a > 1 else (r * x) % self.p
            x = self._mul_slow(x, x) if self.a > 1 else (x * x) % self.p
            e >>= 1
        return r

    def _build_logs(self):
        q = self.q
        self._antilog = [1] * (q - 1)
        self._log = [0] * q
        v = 1
        for i in range(q - 1):
            self._antilog[i] = v
            self._log[v] = i
            v = self._mul_slow(v, self.primitive)
        assert v == 1, "primitive element order check failed"

    # -- arithmetic on encoded values ------------------------------------

    def add(self, x, y):
        p = self.p
        if self.a == 1:
            return (x + y) % p
        out, mult = 0, 1
        while x or y:
            out += ((x % p + y % p) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x):
        p = self.p
        if self.a == 1:
            return (-x) % p
        out, mult = 0, 1
        while x:
            out += ((p - x % p) % p) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.a == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._antilog[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.q)
        if self.a == 1:
            return pow(x, self.p - 2, self.p)
        return self._antilog[(-self._log[x]) % (self.q - 1)]

    def pow(self, x, e):
        if x == 0:
            if e < 0:
                raise ZeroDivisionError
            return 0 if e else 1
        if self.a == 1:
            return pow(x, e % (self.p - 1) if e else 0, self.p) if e else 1
        return self._antilog[(self._log[x] * e) % (self.q - 1)]

    def frobenius(self, x):
        return self.pow(x, self.p)

    def trace(self, x):
        """T(x) = sum of x^(p^i), landing in the prime subfield."""
        t, y = 0, x
        for _ in range(self.a):
            t = self.add(t, y)
            y = self.frobenius(y)
        assert t < self.p, "trace escaped the prime subfield"
        return t

    def square_class(self, x):
        if x == 0:
            raise ValueError("square class of zero is undefined")
        if self.p == 2:
            return SQUARE  # every element is a square in char 2
        if self.a == 1:
            return SQUARE if pow(x, (self.p - 1) // 2, self.p) == 1 else NONSQUARE
        return SQUARE if self._log[x] % 2 == 0 else NONSQUARE

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def from_int(self, n):
        """Embed an ordinary integer via the prime subfield."""
        return n % self.p

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.a, self.modulus) == (other.p, other.a, other.modulus))

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        if self.a == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.a)


@lru_cache(maxsize=None)
def _cached_field(p, a, modulus):
    return FiniteField(p, a, modulus)


def field_create(p, a, modulus=None):
    """Create (or fetch a cached) GF(p^a) with an optional explicit modulus."""
    return _cached_field(p, a, None if modulus is None else tuple(modulus))


GF3 = field_create(3, 1)


def tables(F):
    """The (q, q) add and mul tables of F, in the smallest signed dtype that
    holds q^2, so flat indices xq + y fit.  xy is linear in y's digits."""
    basis = F.p ** np.arange(F.a)
    digits = np.arange(F.q)[:, None] // basis % F.p
    xt = np.array([[F.mul(v, b) for b in basis.tolist()] for v in range(F.q)])
    add = (digits[:, None] + digits) % F.p @ basis
    mul = digits @ (xt[..., None] // basis % F.p) % F.p @ basis
    dt = np.min_scalar_type(-F.q ** 2)
    return add.astype(dt), mul.astype(dt)


def gf3_add(a1, a2, b1, b2):
    """a + b for GF(3) vectors bitsliced as the masks of their 1s and 2s
    (Boothby and Bradshaw, arXiv:0901.1413): six bitwise ops, on Python
    ints or numpy arrays alike.  -b is b with its masks swapped."""
    s = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ s, (a1 | b1) ^ s
