import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank3 import fields
from rank3.fields import GF3, NONSQUARE, SQUARE, field_create

GF9 = field_create(3, 2)
GF27 = field_create(3, 3)
FIELDS = [GF3, GF9, GF27, field_create(5, 1), field_create(2, 3)]


def elems(F):
    return st.integers(min_value=0, max_value=F.q - 1)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_laws(F):
    @settings(max_examples=200)
    @given(elems(F), elems(F), elems(F))
    def laws(x, y, z):
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(x, F.neg(x)) == 0
        assert F.sub(x, y) == F.add(x, F.neg(y))
        if y != 0:
            assert F.mul(y, F.inv(y)) == 1
            assert F.mul(F.mul(x, y), F.inv(y)) == x
    laws()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tables_agree_with_add_and_mul(F):
    add, mul = fields.tables(F)
    assert add.shape == mul.shape == (F.q, F.q)
    assert add.tolist() == [[F.add(x, y) for y in F.elements()]
                            for x in F.elements()]
    assert mul.tolist() == [[F.mul(x, y) for y in F.elements()]
                            for x in F.elements()]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_frobenius_and_pow(F):
    for x in F.elements():
        assert F.frobenius(x) == F.pow(x, F.p)
        assert F.pow(x, F.q) == x  # x^q = x
        if x != 0:
            assert F.pow(x, F.q - 1) == 1


def test_gf3_square_classes():
    assert GF3.square_class(1) == SQUARE
    assert GF3.square_class(2) == NONSQUARE
    with pytest.raises(ValueError):
        GF3.square_class(0)


@pytest.mark.parametrize("F", [GF3, GF9, GF27, field_create(5, 1)], ids=repr)
def test_square_class_counts(F):
    squares = {F.mul(x, x) for x in F.nonzero()}
    assert len(squares) == (F.q - 1) // 2
    for x in F.nonzero():
        assert (F.square_class(x) == SQUARE) == (x in squares)
        # class map is multiplicative
        for y in F.nonzero():
            same = F.square_class(x) == F.square_class(y)
            assert (F.square_class(F.mul(x, y)) == SQUARE) == same


def test_trace_surjective():
    for F in (GF9, GF27):
        assert {F.trace(x) for x in F.elements()} == set(range(F.p))
        for x in F.elements():
            assert F.trace(F.frobenius(x)) == F.trace(x)


def test_primitive_element_order():
    for F in FIELDS:
        seen = set()
        v = 1
        for _ in range(F.q - 1):
            seen.add(v)
            v = F.mul(v, F.primitive)
        assert v == 1 and len(seen) == F.q - 1


def test_default_moduli():
    # the first monic irreducible in _all_monic order; the GF(27) normal
    # basis and the construct digests rest on these two
    assert GF9.modulus == (1, 0, 1)       # x^2 + 1
    assert GF27.modulus == (1, 2, 0, 1)   # x^3 - x + 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        field_create(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)
    with pytest.raises(ValueError):
        field_create(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        field_create(3, 2, modulus=(1, 0, 0, 1))  # wrong degree
    with pytest.raises(ValueError):
        field_create(4, 1)  # composite characteristic


def test_irreducibility_predicate():
    assert fields.is_irreducible((1, 0, 1), 3)
    assert not fields.is_irreducible((2, 0, 1), 3)
    assert fields.is_irreducible((1, 2, 0, 1), 3)   # x^3 - x + 1
    assert not fields.is_irreducible((1, 1, 0, 1), 3)  # root at x = 1


def test_subfield_embedding():
    # the prime subfield of GF(27) behaves like GF(3)
    for x in range(3):
        for y in range(3):
            assert GF27.add(x, y) == GF3.add(x, y)
            assert GF27.mul(x, y) == GF3.mul(x, y)


def test_field_cache_identity():
    assert field_create(3, 2) is field_create(3, 2)
    assert field_create(3, 1) is GF3


def test_gf3_add_on_all_pairs():
    # one coordinate per pair (a, b), as numpy masks and as Python-int masks
    pairs = list(itertools.product(range(3), repeat=2))
    a, b = (np.array([p[k] for p in pairs]) for k in (0, 1))
    r1, r2 = fields.gf3_add(a == 1, a == 2, b == 1, b == 2)
    assert not (r1 & r2).any()
    assert (r1 + 2 * r2).tolist() == [(x + y) % 3 for x, y in pairs]

    def mask(v, k):
        return sum(1 << j for j, x in enumerate(v) if x == k)

    total = (a + b) % 3
    assert (fields.gf3_add(mask(a, 1), mask(a, 2), mask(b, 1), mask(b, 2))
            == (mask(total, 1), mask(total, 2)))
