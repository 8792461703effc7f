import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank3 import expected, geometry
from rank3.fields import GF3
from rank3.geometry import standard_space
from rank3.higman import (CdPair, NotRankThree, check_eq1, eq2_holds, eq3_holds, eq4_holds, generic_params,
                          odd_orthogonal_params, srg_verify)


def test_pentagon_rejected():
    # srg(5,2,0,1) is a conference graph: D = 5 is not a perfect square
    with pytest.raises(NotRankThree):
        generic_params(2, 2, 0, 1)


def test_petersen():
    p = generic_params(3, 6, 0, 1)
    assert p.total == 10
    assert (p.s, p.t) == (1, -2)
    assert (p.f_s, p.f_t) == (5, 4)
    assert 1 + p.f_s + p.f_t == p.total


def test_infeasible_inputs():
    with pytest.raises(NotRankThree):
        generic_params(2, 2, 1, 1)   # mu*l != k(k-1-lambda)
    with pytest.raises(NotRankThree):
        generic_params(-1, 2, 0, 1)  # negative entry


@pytest.mark.parametrize("m,xi,tup", [
    (2, "+", (45, 12, 32, 3, 3, 3, -3, 20, 24)),
    (2, "-", (36, 15, 20, 6, 6, 3, -3, 15, 20)),
    (3, "+", (378, 117, 260, 36, 36, 9, -9, 182, 195)),
    (3, "-", (351, 126, 224, 45, 45, 9, -9, 168, 182)),
])
def test_odd_orthogonal_params(m, xi, tup):
    p = odd_orthogonal_params(m, xi)
    assert (p.total, p.k, p.l, p.lam, p.mu,
            p.s, p.t, p.f_s, p.f_t) == tup
    assert p.s == 3 ** (m - 1) and p.t == -3 ** (m - 1)


def test_m_too_small():
    with pytest.raises(ValueError):
        odd_orthogonal_params(1, "+")
    with pytest.raises(ValueError):
        odd_orthogonal_params(2, "x")


def test_eq1_worked_example():
    # m=2, xi=+, (c,d)=(0,4): holds at r=t, fails at r=s
    p = odd_orthogonal_params(2, "+")
    cd = CdPair(0, 4, "+")
    assert check_eq1(p, p.t, cd)
    assert not check_eq1(p, p.s, cd)
    with pytest.raises(ValueError):
        check_eq1(p, 7, cd)


def test_eq_specializations_agree():
    @settings(max_examples=300)
    @given(st.integers(2, 4), st.sampled_from(["+", "-"]),
           st.sampled_from(["s", "t"]), st.integers(0, 400), st.integers(0, 400))
    def check(m, xi, r_case, c, d):
        p = odd_orthogonal_params(m, xi)
        cd = CdPair(c, d, xi)
        r = p.s if r_case == "s" else p.t
        # eq (2) specializes eq (1) at (+, s) and (-, t); eq (3) at the others
        eq = eq2_holds if (xi, r_case) in (("+", "s"), ("-", "t")) else eq3_holds
        assert eq(m, xi, cd) == check_eq1(p, r, cd)
    check()


def test_eq234_closed_forms():
    cd = CdPair(0, 4, "+")
    assert not eq2_holds(2, "+", cd)        # 0-8 != 8
    assert eq3_holds(2, "+", cd)            # 4*(9-1-8) = 0 = 2c
    assert eq4_holds(2, cd)                 # 2*5 = 10 >= 10
    assert not eq4_holds(3, cd)             # 10 < 28
    assert eq2_holds(2, "-", CdPair(8, 9))  # 8-18 = -10 = -9-1


def test_srg_verify_small():
    for m in (2,):
        sp = standard_space(2 * m + 1, GF3)
        for xi in ("+", "-"):
            rep = srg_verify(sp, xi)
            p = odd_orthogonal_params(m, xi)
            assert rep.ok, rep.failure
            assert (rep.size, rep.k, rep.lam, rep.mu) == (p.total, p.k, p.lam, p.mu)
            assert (rep.f_s, rep.f_t) == (p.f_s, p.f_t)


def _cycle(n):
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1
    return A


# graphs that pass the measurement but have no integral spectrum
_MEASURED = {"D = 5 is not a perfect square": (5, 2, 2, 0, 1)}


@pytest.mark.parametrize("A,reason", [
    (np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]), "not regular"),
    # the hexagon is regular, but opposite vertices share no neighbour
    (_cycle(6), "intersection numbers are not constant"),
    # the pentagon has constant lambda = 0 and mu = 1, but D = 5
    (_cycle(5), "D = 5 is not a perfect square"),
    # K3 has no non-edges, so no mu; the edgeless graph has no lambda
    (np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64),
     "intersection numbers are not constant"),
    (np.zeros((3, 3), dtype=np.int64), "intersection numbers are not constant"),
])
def test_non_srg_graph_is_refused(A, reason, monkeypatch):
    monkeypatch.setattr(geometry, "_delta_graph", lambda space, xi: (A, A @ A))
    sp = standard_space(5, GF3)
    if reason in _MEASURED:
        assert geometry.measured_rank3_parameters(sp, "+") == _MEASURED[reason]
    else:
        with pytest.raises(AssertionError, match=reason):
            geometry.measured_rank3_parameters(sp, "+")
    rep = srg_verify(sp, "+")
    assert not rep.ok
    assert reason in rep.failure


def test_ledger_case_shows_the_srg_failure(monkeypatch):
    # the pentagon passes the measurement but has no integral spectrum;
    # the case's "ok" then reads the report's failure in place of False
    case = next(c for c in expected.CASES if c[0] == "srg-spectrum")
    assert all(v["ok"] is True for v in expected.run_case(*case).computed.values())
    A = _cycle(5)
    monkeypatch.setattr(geometry, "_delta_graph", lambda space, xi: (A, A @ A))
    result = expected.run_case(*case)
    assert result.error is None and not result.match
    for v in result.computed.values():
        assert "D = 5 is not a perfect square" in v["ok"]["failure"]


def test_multiplicity_trace_identity():
    # k + s*f_s + t*f_t = 0 (trace of the adjacency matrix)
    for m in (2, 3, 4):
        for xi in ("+", "-"):
            p = odd_orthogonal_params(m, xi)
            assert p.k + p.s * p.f_s + p.t * p.f_t == 0
            assert p.k ** 2 + p.s ** 2 * p.f_s + p.t ** 2 * p.f_t == p.total * p.k
