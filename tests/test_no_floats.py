"""The library computes in exact integers: no module of src/rank3 names a
numpy float dtype, so no array can silently round."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rank3"
FLOAT_DTYPE = re.compile(
    r"float(16|32|64)|np\.float|astype\(\s*float\s*\)|dtype\s*=\s*float")


@pytest.mark.parametrize("line,named", [
    ("A.astype(np.float64) @ A", True),
    ("np.zeros(3, dtype=float)", True),
    ("x.astype(float)", True),
    ("np.float32(1)", True),
    ("seconds: float = 0.0", False),
    ("A2 = np.zeros(A.shape, dtype=np.int64)", False),
])
def test_the_pattern_tells_dtypes_from_annotations(line, named):
    assert bool(FLOAT_DTYPE.search(line)) == named


def test_no_module_names_a_float_dtype():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hits = ["%s:%d: %s" % (path.name, i, line.strip())
            for path in modules
            for i, line in enumerate(path.read_text(encoding="utf-8")
                                     .splitlines(), 1)
            if FLOAT_DTYPE.search(line)]
    assert hits == []
