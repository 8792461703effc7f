"""Partition combinatorics at p = 3: p-regularity, the Mullineux map by
Kleshchev's good nodes, Mullineux's rim symbol and its image rule, and the
fixed-point predicate.  The map and the symbol each take an optional
dict, which a caller shares across many partitions so that each partition
is walked once; without one, each call walks from scratch.

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


def _partitions(n, cap):
    """Partitions of n with no part repeated more than cap times,
    lexicographically descending."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for k in range(min(cap, rest // first), 0, -1):
                for tail in gen(rest - k * first, first - 1):
                    yield (first,) * k + tail
    return list(gen(n, n))


def partitions_of(n):
    """All partitions of n, lexicographically descending."""
    return _partitions(n, n)


def p_regular_partitions(n):
    return _partitions(n, P - 1)


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


def mullineux_map(lam, images=None):
    """The Mullineux image of a 3-regular partition (Kleshchev 1996;
    Ford and Kleshchev 1997).

    Walk down: remove the good node of the least residue i that has one,
    until nothing is left.  Walk back: for each recorded i, last first,
    add the cogood (-i)-node.  The good node is the lowest uncancelled
    removable node, the cogood node the highest uncancelled addable one.
    The walk is deterministic, so with a dict `images` (partition ->
    image) the walk down stops at the first partition found in it, and
    the walk back stores each partition it passes with its image.
    """
    lam = _check_regular(lam)
    images = {} if images is None else images
    path = []
    while lam and lam not in images:
        for i in range(P):
            removable = _signature(lam, i)[0]
            if removable:
                break
        path.append((lam, i))
        r = removable[-1]
        lam = lam[:r] + ((lam[r] - 1,) if lam[r] > 1 else ()) + lam[r + 1:]
    m = images.get(lam, ())
    for mu, i in reversed(path):
        r = _signature(m, -i % P)[1][0]
        m = images[mu] = m[:r] + (m[r] + 1 if r < len(m) else 1,) + m[r + 1:]
    return m


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


def mullineux_symbol(lam, symbols=None):
    """Iterated P-rim stripping: column i records (cells removed, rows
    present) at step i.  Returned as [top row, bottom row].  A dict
    `symbols` (partition -> symbol) is read and filled as `images` is by
    mullineux_map: the symbol of lam is its first column in front of the
    symbol of what the first strip leaves."""
    lam = _check_regular(lam)
    symbols = {} if symbols is None else symbols
    path = []
    while lam and lam not in symbols:
        rest, h = _strip(lam)
        path.append((lam, h))
        lam = rest
    hs, rs = symbols.get(lam, ([], []))
    for mu, h in reversed(path):
        hs, rs = symbols[mu] = [[h] + hs, [len(mu)] + rs]
    return [list(hs), list(rs)]  # copies: a caller's edits leave symbols be


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
