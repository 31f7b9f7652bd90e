"""The BM25 formula has one site in the package (``scoring.bm25_contrib``)
plus the independent oracle: any other copy can drift in float order and
break WAND's bit-identity with TAAT or the block-max bound invariant."""

import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "pyfuseray"
ALLOWED = {PKG / "scoring.py", PKG / "oracle.py"}
# the BM25 numerator's (k1 + 1) factor, however it is spaced or spelled
NUMERATOR = re.compile(r"k1\s*\+\s*1\b|k1_plus_?1")


def test_bm25_numerator_only_in_scoring_and_oracle():
    hits = [
        f"{path.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for path in sorted(PKG.rglob("*.py"))
        if path not in ALLOWED
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NUMERATOR.search(line)
    ]
    assert not hits, "BM25 written outside scoring.bm25_contrib:\n" + "\n".join(hits)
