import random

import pytest
from hypothesis import given, settings, strategies as st

from rank3 import expected, partitions
from rank3.partitions import (P, _signature, check_partition, image_symbol,
                              is_mullineux_fixed, is_p_regular, mullineux_map,
                              mullineux_symbol, p_regular_partitions,
                              parse_partition, partitions_of)

TABLE = [
    ((4, 2), (2, 2, 1, 1)),
    ((5, 2), (3, 2, 1, 1)),
    ((5, 1, 1), (3, 2, 2)),
    ((7, 1), (4, 3, 1)),
    ((6, 2), (3, 3, 1, 1)),
    ((6, 1, 1), (3, 3, 2)),
    ((7, 1, 1), (4, 3, 2)),
    ((8, 1), (4, 4, 1)),
]


def test_partition_validation():
    assert check_partition((4, 2, 1)) == (4, 2, 1)
    assert check_partition(["3", 2.0, 1]) == (3, 2, 1)
    for bad in [(2, 3), (1, 0), (-1,), ()]:
        with pytest.raises(ValueError):
            check_partition(bad)


@pytest.mark.parametrize("lam,message", [
    ((), "partition must be non-empty"),
    # positivity is checked before the order
    ((0, 1), "parts must be positive"),
    ((1, 0), "parts must be positive"),
    ((-1, 2), "parts must be positive"),
    ((2, 3), "parts must be weakly decreasing"),
    ((3, 1, 2), "parts must be weakly decreasing"),
    # the order before regularity
    ((1, 1, 1, 2), "parts must be weakly decreasing"),
    ((2, 2, 2), "partition is not 3-regular"),
    ((5, 4, 1, 1, 1), "partition is not 3-regular"),
])
def test_partition_messages_and_their_order(lam, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        partitions._check_regular(lam)
    if "regular" not in message:
        with pytest.raises(ValueError, match="^%s$" % message):
            check_partition(lam)


def test_p_regularity():
    assert is_p_regular((4, 2))
    assert is_p_regular((2, 2))
    assert not is_p_regular((2, 2, 2))
    assert not is_p_regular((1, 1, 1))
    assert is_p_regular((5, 5, 4, 4))
    # a run of P equal parts anywhere, and runs of P - 1 side by side
    assert not is_p_regular((5, 1, 1, 1))
    assert not is_p_regular((4, 2, 2, 2, 1))
    assert not is_p_regular((3, 3, 3, 3))
    assert is_p_regular((4, 4, 3, 3, 1, 1))


def test_partition_generators():
    assert len(list(partitions_of(6))) == 11
    # 3-regular partition numbers of n = 1..8: 1,2,2,4,5,7,9,13
    assert [len(list(p_regular_partitions(n))) for n in range(1, 9)] == \
        [1, 2, 2, 4, 5, 7, 9, 13]


def _reference_partitions_of(n):
    # reference: every partition by its first part, then (below) the
    # 3-regular ones by filtering all of them
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return list(gen(n, n))


def _reference_p_regular_partitions(n):
    return [lam for lam in _reference_partitions_of(n) if is_p_regular(lam)]


def test_partition_generators_match_the_filtering_ones_in_order():
    assert partitions_of(0) == [()]
    for n in range(1, 31):
        assert partitions_of(n) == _reference_partitions_of(n)
        assert p_regular_partitions(n) == _reference_p_regular_partitions(n)


def test_published_pairs():
    for lam, mu in TABLE:
        assert mullineux_map(lam) == mu
        assert mullineux_map(mu) == lam


def test_non_regular_input_is_refused():
    for fn in (mullineux_map, mullineux_symbol, is_mullineux_fixed):
        with pytest.raises(ValueError):
            fn((1, 1, 1))


def test_m4_image():
    # the single row (4) maps to (2,2)
    assert mullineux_map((4,)) == (2, 2)
    assert not is_mullineux_fixed((4,))


def test_involution_and_weight_exhaustive():
    for n in range(1, 18):
        for lam in p_regular_partitions(n):
            mu = mullineux_map(lam)
            assert is_p_regular(mu)
            assert sum(mu) == n
            assert mullineux_map(mu) == lam


def test_good_node_map_agrees_with_rim_symbol():
    # Mullineux's rule: the symbol of M(lam) is image_symbol of lam's symbol
    for n in range(1, 21):
        for lam in p_regular_partitions(n):
            assert mullineux_symbol(mullineux_map(lam)) == \
                image_symbol(mullineux_symbol(lam))


def _add_node(lam, r):
    lam = list(lam)
    if r == len(lam):
        lam.append(1)
    else:
        lam[r] += 1
    return tuple(lam)


def test_every_good_node_gives_the_same_image():
    # Kleshchev: for every i with a good i-node A, M(lam) is M(lam - A)
    # plus its cogood (-i)-node, whichever i the walk would have taken
    checks = 0
    for n in range(1, 17):
        for lam in p_regular_partitions(n):
            for i in range(P):
                removable = _signature(lam, i)[0]
                if not removable:
                    continue
                r = removable[-1]
                rest = tuple(x for x in lam[:r] + (lam[r] - 1,) + lam[r + 1:]
                             if x)
                m = mullineux_map(rest) if rest else ()
                assert _add_node(m, _signature(m, -i % P)[1][0]) == \
                    mullineux_map(lam)
                checks += 1
    assert checks == 580


def _all_regular_shuffled(top, seed):
    lams = [lam for n in range(1, top + 1) for lam in p_regular_partitions(n)]
    random.Random(seed).shuffle(lams)
    return lams


def test_shared_images_give_the_walk_from_scratch():
    # in any order, a partition whose walk down meets a stored one gets
    # the same image, and every stored entry is the image of its key
    images = {}
    for lam in _all_regular_shuffled(22, 27):
        assert mullineux_map(lam, images) == mullineux_map(lam)
    assert len(images) == sum(len(p_regular_partitions(n))
                              for n in range(1, 23))
    for lam, m in images.items():
        assert m == mullineux_map(lam)


def test_shared_symbols_give_the_strips_from_scratch():
    symbols = {}
    for lam in _all_regular_shuffled(22, 28):
        assert mullineux_symbol(lam, symbols) == mullineux_symbol(lam)
    assert len(symbols) == sum(len(p_regular_partitions(n))
                               for n in range(1, 23))
    for lam, s in symbols.items():
        assert s == mullineux_symbol(lam)
    # a symbol handed out is a copy of the stored one
    mullineux_symbol((8, 1), symbols)[0].append(0)
    assert symbols[(8, 1)] == mullineux_symbol((8, 1))


def test_ledger_case_fails_when_the_symbol_rule_is_mutated(monkeypatch):
    case = next(c for c in expected.CASES if c[0] == "mullineux-suite")
    assert expected.run_case(*case).match

    def eps_always_one(symbol):
        hs, rs = symbol
        return [list(hs), [h - r + 1 for h, r in zip(hs, rs)]]

    monkeypatch.setattr(partitions, "image_symbol", eps_always_one)
    result = expected.run_case(*case)
    assert not result.match
    # the first partition whose image breaks the rule: M((3,)) = (2, 1)
    assert result.computed["involution_n20"] == {"partition": [3],
                                                 "failed": "symbol rule"}


def test_ledger_case_fails_when_the_involution_is_mutated(monkeypatch):
    # M((7,)) = (4, 3); the mutant sends (7,) to a partition that is not
    # 3-regular, so the image has no image of its own
    case = next(c for c in expected.CASES if c[0] == "mullineux-suite")
    good = partitions.mullineux_map
    monkeypatch.setattr(partitions, "mullineux_map",
                        lambda lam, *a: (1,) * 7 if lam == (7,)
                        else good(lam, *a))
    result = expected.run_case(*case)
    assert result.error is None
    assert not result.match
    assert result.computed["involution_n20"] == {"partition": [7],
                                                 "failed": "involution"}


def test_fixed_points_are_involution_fixed():
    for n in range(1, 15):
        for lam in p_regular_partitions(n):
            assert is_mullineux_fixed(lam) == (mullineux_map(lam) == lam)


def test_hook_fixed_window():
    # (n-2, 1, 1) is a fixed point exactly for n in {5, 6}
    hits = [n for n in range(5, 61) if is_mullineux_fixed((n - 2, 1, 1))]
    assert hits == [5, 6]


def test_parse_partition():
    assert parse_partition("8,1") == (8, 1)
    assert parse_partition("4") == (4,)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")


@settings(max_examples=30)
@given(st.integers(1, 30))
def test_symbol_row_sums(n):
    # the h-row of the symbol sums to n (rim strips exhaust the diagram)
    for lam in list(p_regular_partitions(n))[:5]:
        hs, rs = mullineux_symbol(lam)
        assert sum(hs) == n
        assert all(r >= 1 for r in rs)
