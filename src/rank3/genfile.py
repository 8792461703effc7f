"""Line-oriented generator-file format ("rank3gen v1"): a diff-able,
hand-writable exchange format for matrix groups over small fields.

    rank3gen v1
    dim <n> field <q> gens <k>
    modulus <c0 c1 ... ca>        (only when q is not prime)
    form                          (optional; n rows of the Gram matrix)
    gen 1
    <n rows of n integers in [0, q)>
    ...
    gen k
    <n rows>

Lines starting with '#' are comments and are ignored.
"""

from . import fields, groups, linalg


class ParseError(ValueError):
    def __init__(self, msg, line_no):
        super().__init__("line %d: %s" % (line_no, msg))
        self.line_no = line_no


# field sizes are factored by trial division, so they are bounded first
MAX_FIELD_ORDER = 1 << 31


def _factor_prime_power(q):
    if q > MAX_FIELD_ORDER:
        raise ValueError("field size %d is larger than the limit 2^31" % q)
    primes = fields._prime_factors(q)
    if not primes:
        raise ValueError("bad field size %d" % q)
    if len(primes) > 1:
        raise ValueError("%d is not a prime power" % q)
    p, a = primes[0], 0
    while q > 1:
        q //= p
        a += 1
    return p, a


def _read_matrix(lines, pos, n, q):
    rows = []
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError("unexpected end of file inside a matrix",
                             len(lines))
        no, text = lines[pos]
        try:
            row = tuple(int(x) for x in text.split())
        except ValueError:
            raise ParseError("non-integer matrix entry", no) from None
        if len(row) != n:
            raise ParseError("expected %d entries, got %d" % (n, len(row)), no)
        if any(x < 0 or x >= q for x in row):
            raise ParseError("entry out of range [0, %d)" % q, no)
        rows.append(row)
        pos += 1
    return tuple(rows), pos


def parse_generator_lines(raw_lines):
    """(MatrixGroup, form-or-None) from the text of a generator file."""
    lines = [(i + 1, l.strip()) for i, l in enumerate(raw_lines)]
    lines = [(no, l) for no, l in lines if l and not l.startswith("#")]
    if not lines or lines[0][1] != "rank3gen v1":
        raise ParseError("expected header 'rank3gen v1'",
                         lines[0][0] if lines else 1)
    if len(lines) < 2:
        raise ParseError("missing 'dim ... field ... gens ...' line", 1)
    no, hdr = lines[1]
    parts = hdr.split()
    if (len(parts) != 6 or parts[0] != "dim" or parts[2] != "field"
            or parts[4] != "gens"):
        raise ParseError("expected 'dim <n> field <q> gens <k>'", no)
    try:
        n, q, k = int(parts[1]), int(parts[3]), int(parts[5])
    except ValueError:
        raise ParseError("non-integer header value", no) from None
    if n < 1 or k < 0:
        raise ParseError("dim must be positive and gens at least 0", no)
    try:
        p, a = _factor_prime_power(q)
    except ValueError as e:
        raise ParseError(str(e), no) from None
    pos = 2
    modulus = None
    if pos < len(lines) and lines[pos][1].startswith("modulus"):
        no, text = lines[pos]
        try:
            modulus = tuple(int(x) for x in text.split()[1:])
        except ValueError:
            raise ParseError("non-integer modulus coefficient", no) from None
        if len(modulus) != a + 1:
            raise ParseError("modulus needs %d coefficients" % (a + 1), no)
        pos += 1
    if a > 1 and modulus is None:
        raise ParseError("field of size %d requires a modulus line" % q,
                         lines[1][0])
    try:
        F = fields.field_create(p, a, modulus)
    except Exception as e:
        raise ParseError("bad field: %s" % e, lines[1][0]) from None
    form = None
    if pos < len(lines) and lines[pos][1] == "form":
        pos += 1
        form, pos = _read_matrix(lines, pos, n, q)
        if linalg.det(F, form) == 0:
            raise ParseError("form matrix is degenerate", lines[pos - 1][0])
    gens = []
    for i in range(k):
        if pos >= len(lines):
            raise ParseError("expected 'gen %d'" % (i + 1), len(lines))
        no, text = lines[pos]
        if text.split() != ["gen", str(i + 1)]:
            raise ParseError("expected 'gen %d', got %r" % (i + 1, text), no)
        start = no
        pos += 1
        g, pos = _read_matrix(lines, pos, n, q)
        if linalg.det(F, g) == 0:
            raise ParseError("generator %d is singular" % (i + 1), start)
        if form is not None and not groups.preserves_form(F, g, form):
            raise ParseError("generator %d does not preserve the form"
                             % (i + 1), start)
        gens.append(g)
    if pos != len(lines):
        raise ParseError("trailing content", lines[pos][0])
    # checked above, with line numbers
    group = groups.MatrixGroup.unchecked(F, n, tuple(gens), "ingested", form)
    return group, form


def parse_generator_file(path):
    with open(path, "r", encoding="utf-8") as f:
        group, _form = parse_generator_lines(f.readlines())
    return group


def format_generator_file(group, form=None, comments=()):
    F = group.field
    out = []
    for c in comments:
        out.append("# %s" % c)
    out.append("rank3gen v1")
    out.append("dim %d field %d gens %d" % (group.dim, F.q, len(group.gens)))
    if F.a > 1:
        out.append("modulus %s" % " ".join(str(c) for c in F.modulus))
    if form is None:
        form = group.gram
    if form is not None:
        out.append("form")
        out.extend(" ".join(str(x) for x in row) for row in form)
    for i, g in enumerate(group.gens):
        out.append("gen %d" % (i + 1))
        out.extend(" ".join(str(x) for x in row) for row in g)
    return "\n".join(out) + "\n"


def write_generator_file(path, group, form=None, comments=()):
    text = format_generator_file(group, form, comments)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return text
