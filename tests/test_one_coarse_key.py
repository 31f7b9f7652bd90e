"""Every hash-keyed shuffle keys through ``pyfuseray.coarse``: one group-count
constant and one key hash. A module-local ``COARSE_*`` constant, a private
Fibonacci mix or a per-row crc32 loop is a second copy of that decision,
free to drift (and to put ids on a stride of the group count in one group)."""

import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "pyfuseray"
PRIMITIVE = PKG / "coarse.py"
COARSE_CONST = re.compile(r"\b\w*COARSE\w*\s*(:[^=]*)?=(?!=)")
FIB = "11400714819323198485"
CRC32 = "zlib.crc32("
# crc32 sites that are not shuffle keys, with their expected counts:
# persisted partition hashes the searcher recomputes (index layout) and
# content hashes (shingles, fingerprints, text stats)
CRC32_ALLOWED = {
    "postings.py": 2,  # term_bucket + its batch form
    "positional.py": 2,  # _term_bucket + the query-side bucket pruning
    "extras/dedup.py": 2,  # minhash shingles, rolling fingerprint
    "extras/textstats.py": 1,  # text-stat term hash
}


def _lines():
    for path in sorted(PKG.rglob("*.py")):
        if path == PRIMITIVE:
            continue
        rel = path.relative_to(PKG).as_posix()
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield rel, i, line


def test_no_coarse_constant_outside_primitive():
    hits = [f"pyfuseray/{rel}:{i}: {line.strip()}" for rel, i, line in _lines()
            if COARSE_CONST.search(line.split("#")[0])]
    assert not hits, "COARSE constant outside pyfuseray/coarse.py:\n" + "\n".join(hits)


def test_no_fibonacci_mix_outside_primitive():
    hits = [f"pyfuseray/{rel}:{i}: {line.strip()}" for rel, i, line in _lines()
            if FIB in line]
    assert not hits, "coarse key mix outside pyfuseray/coarse.py:\n" + "\n".join(hits)


def test_crc32_only_at_layout_and_content_hash_sites():
    by_file: dict[str, list[str]] = {}
    for rel, i, line in _lines():
        if CRC32 in line:
            by_file.setdefault(rel, []).append(f"pyfuseray/{rel}:{i}: {line.strip()}")
    hits = [
        hit
        for rel, found in sorted(by_file.items())
        if len(found) != CRC32_ALLOWED.get(rel, 0)
        for hit in found
    ]
    assert not hits, (
        "zlib.crc32 outside the persisted-partition and content-hash sites "
        "(shuffle keys go through coarse.coarse_bucket):\n" + "\n".join(hits)
    )
