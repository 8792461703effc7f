"""Rank-3 parameter calculus and the orbit containment checks.

Everything is exact integer arithmetic; equation (1) is evaluated with
cleared denominators, so no rationals appear anywhere.
"""

import math
from dataclasses import dataclass

from . import geometry


@dataclass(frozen=True)
class RankThreeParams:
    total: int      # |E| = k + l + 1
    k: int
    l: int
    lam: int
    mu: int
    lam1: int
    mu1: int
    sqrtD: int
    s: int
    t: int
    f_s: int
    f_t: int


@dataclass(frozen=True)
class CdPair:
    c: int
    d: int
    xi: str | None = None

    @property
    def size(self):
        return 1 + self.c + self.d


class NotRankThree(ValueError):
    pass


def generic_params(k, l, lam, mu):
    """Parameters derived from (k, l, lambda, mu), with feasibility checks."""
    if min(k, l, lam, mu) < 0:
        raise NotRankThree("negative input")
    if mu * l != k * (k - 1 - lam):
        raise NotRankThree("mu*l != k(k-1-lambda)")
    D = (lam - mu) ** 2 + 4 * (k - mu)
    sqrtD = math.isqrt(D)
    if sqrtD * sqrtD != D:
        raise NotRankThree("D = %d is not a perfect square" % D)
    s = (lam - mu + sqrtD) // 2
    t = (lam - mu - sqrtD) // 2
    if (lam - mu + sqrtD) % 2 != 0:
        raise NotRankThree("eigenvalues are not integers")
    if s == t:
        raise NotRankThree("repeated eigenvalue")
    num_s = k + t * (k + l)
    num_t = k + s * (k + l)
    if num_s % (t - s) or num_t % (s - t):
        raise NotRankThree("non-integral multiplicities")
    f_s = num_s // (t - s)
    f_t = num_t // (s - t)
    if f_s <= 0 or f_t <= 0:
        raise NotRankThree("non-positive multiplicities")
    total = k + l + 1
    if 1 + f_s + f_t != total:
        raise NotRankThree("multiplicities do not sum to |E|-1")
    return RankThreeParams(total, k, l, lam, mu,
                           l - k + mu - 1, l - k + lam + 1,
                           sqrtD, s, t, f_s, f_t)


def _xi_sign(xi):
    if xi in ("+", "plus", 1):
        return 1
    if xi in ("-", "minus", -1):
        return -1
    raise ValueError("bad type %r" % (xi,))


def odd_orthogonal_params(m, xi):
    """Closed-form parameters for the non-singular point action, dim 2m+1, q=3."""
    if m < 2:
        raise ValueError("m >= 2 required")
    e = _xi_sign(xi)
    q = 3
    total = q ** m * (q ** m + e) // 2
    k = q ** (m - 1) * (q ** m - e) // 2
    l = (q ** m - e) * (q ** (m - 1) + e)
    lam = mu = q ** (m - 1) * (q ** (m - 1) - e) // 2
    params = generic_params(k, l, lam, mu)
    assert params.total == total
    assert params.sqrtD == 2 * q ** (m - 1)
    assert params.s == q ** (m - 1) and params.t == -q ** (m - 1)
    return params


def check_eq1(params, r, cd):
    """1 + d*r/k = (r+1)*c/l with cleared denominators."""
    if r not in (params.s, params.t):
        raise ValueError("r must be an eigenvalue of the Delta graph")
    return params.l * params.k + cd.d * r * params.l == (r + 1) * cd.c * params.k


def eq2_holds(m, xi, cd):
    """c - 2d = xi*3^m - 1."""
    return cd.c - 2 * cd.d == _xi_sign(xi) * 3 ** m - 1


def eq3_holds(m, xi, cd):
    """(xi*3^(m-1) + 1)(xi*3^m - 1 + c - 2d) = 2c."""
    e = _xi_sign(xi)
    return (e * 3 ** (m - 1) + 1) * (e * 3 ** m - 1 + cd.c - 2 * cd.d) == 2 * cd.c


def eq4_holds(m, cd):
    """Lower bound 1 + c + d >= (3^m + 1)/2."""
    return 2 * cd.size >= 3 ** m + 1


def equation_verdicts(m, xi, c, d):
    """Equation (1) at r = s and r = t, and equations (2)-(4), for the
    (c, d) of a type-xi point in dim 2m+1."""
    params = odd_orthogonal_params(m, xi)
    cd = CdPair(c, d, xi)
    return {"eq1": {"s": check_eq1(params, params.s, cd),
                    "t": check_eq1(params, params.t, cd)},
            "eq2": eq2_holds(m, xi, cd),
            "eq3": eq3_holds(m, xi, cd),
            "eq4": eq4_holds(m, cd)}


# ---------------------------------------------------------------------------
# strongly-regular-graph oracle

@dataclass
class SrgReport:
    size: int
    k: int
    l: int
    lam: int
    mu: int
    s: int
    t: int
    f_s: int
    f_t: int
    ok: bool
    failure: str | None = None


def srg_verify(space, xi):
    """Measure (N, k, l, lambda, mu) on the perpendicularity graph of E_xi,
    which checks the identity A^2 = kI + lambda A + mu (J - I - A), and
    derive the spectrum from them with generic_params."""
    try:
        N, k, l, lam, mu = geometry.measured_rank3_parameters(space, xi)
    except AssertionError as e:
        return SrgReport(-1, -1, -1, -1, -1, 0, 0, 0, 0, False, str(e))
    try:
        p = generic_params(k, l, lam, mu)
    except NotRankThree as e:
        return SrgReport(N, k, l, lam, mu, 0, 0, 0, 0, False, str(e))
    return SrgReport(N, k, l, lam, mu, p.s, p.t, p.f_s, p.f_t, True)
