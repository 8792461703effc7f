"""Partition combinatorics at p = 3: p-regularity, the Mullineux map by
Kleshchev's good nodes, Mullineux's rim symbol and its image rule, and the
fixed-point predicate.

Cells are (row, column) from 0, and the residue of a cell is
column - row mod P.
"""

P = 3


def check_partition(lam):
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("partition must be non-empty")
    if any(x <= 0 for x in lam):
        raise ValueError("parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("parts must be weakly decreasing")
    return lam


def is_p_regular(lam):
    """No part repeated P or more times."""
    return _is_regular(check_partition(lam))


def _is_regular(lam):
    return all(lam.count(x) < P for x in set(lam))


def _check_regular(lam):
    lam = check_partition(lam)
    if not _is_regular(lam):
        raise ValueError("partition is not %d-regular" % P)
    return lam


def partitions_of(n):
    """All partitions of n, lexicographically descending."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return list(gen(n, n))


def p_regular_partitions(n):
    return [lam for lam in partitions_of(n) if _is_regular(lam)]


# ---------------------------------------------------------------------------
# Kleshchev's good nodes

def _signature(lam, i):
    """The uncancelled removable and addable i-nodes of lam, by row.

    The i-signature lists the addable and removable i-nodes from the top
    row down; each addable node followed by a removable one cancels
    against it, leaving the removable rows above the addable rows."""
    removable, addable = [], []
    for r in range(len(lam) + 1):
        part = lam[r] if r < len(lam) else 0
        if (part - r) % P == i and (r == 0 or lam[r - 1] > part):
            addable.append(r)
        if part and (part - 1 - r) % P == i and (r + 1 == len(lam)
                                                 or lam[r + 1] < part):
            if addable:
                addable.pop()
            else:
                removable.append(r)
    return removable, addable


def mullineux_map(lam):
    """The Mullineux image of a 3-regular partition (Kleshchev 1996;
    Ford and Kleshchev 1997).

    Walk down: remove the good node of the least residue i that has one,
    until nothing is left.  Walk back: for each recorded i, last first,
    add the cogood (-i)-node.  The good node is the lowest uncancelled
    removable node, the cogood node the highest uncancelled addable one.
    """
    lam = list(_check_regular(lam))
    residues = []
    while lam:
        for i in range(P):
            removable = _signature(lam, i)[0]
            if removable:
                break
        r = removable[-1]
        lam[r] -= 1
        if not lam[r]:
            lam.pop()
        residues.append(i)
    for i in reversed(residues):
        r = _signature(lam, -i % P)[1][0]
        if r == len(lam):
            lam.append(1)
        else:
            lam[r] += 1
    return tuple(lam)


# ---------------------------------------------------------------------------
# Mullineux's rim symbol

def _strip(lam):
    """Remove one P-rim: walk the rim from top right to bottom left,
    taking P consecutive cells, then skipping the rest of that row;
    the last segment may be short.

    Returns (remaining partition, cells removed)."""
    k = len(lam)
    removed = [0] * k
    cnt = 0
    for i in range(k):
        lo = max(lam[i + 1] if i + 1 < k else 0, 1)
        ncells = lam[i] - lo + 1  # rim cells in row i
        take = min(ncells, P - cnt)
        removed[i] = take
        cnt += take
        if cnt == P:
            cnt = 0  # group complete: remaining rim cells of the row are skipped
    new = tuple(x for x in (lam[i] - removed[i] for i in range(k)) if x > 0)
    if any(new[i] < new[i + 1] for i in range(len(new) - 1)):
        raise AssertionError("rim strip left a non-partition: %r" % (new,))
    return new, sum(removed)


def mullineux_symbol(lam):
    """Iterated P-rim stripping: column i records (cells removed, rows
    present) at step i.  Returned as [top row, bottom row]."""
    lam = _check_regular(lam)
    hs, rs = [], []
    while lam:
        rs.append(len(lam))
        lam, h = _strip(lam)
        hs.append(h)
    return [hs, rs]


def image_symbol(symbol):
    """Mullineux's rule for the symbol of the image: keep the top row and
    replace each r_i by h_i - r_i + eps_i, with eps_i = 0 iff P divides
    h_i."""
    hs, rs = symbol
    return [list(hs), [h - r + (0 if h % P == 0 else 1)
                       for h, r in zip(hs, rs)]]


def is_mullineux_fixed(lam):
    s = mullineux_symbol(lam)
    return image_symbol(s) == s


def parse_partition(text):
    """Comma-separated parts, e.g. '8,1'."""
    try:
        parts = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError("could not parse partition %r" % text) from None
    return check_partition(parts)
