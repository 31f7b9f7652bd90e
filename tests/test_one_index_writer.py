"""Every segment and stats write of an index goes through ``build_index``:
the segment build, the segment and docstats parquet layouts and the df
and docstats datasets are used only in ``build.py`` (plus the module
that defines each). A second writer is a copy of the build stages that
can drift from them in layout, float order or crash handling."""

import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "pyfuseray"
BUILD = PKG / "build.py"
# each name -> the module that defines it
WRITERS = {
    r"\bbuild_bucket_segment\(": PKG / "segments.py",
    r"\bSEGMENT_WRITE\b": BUILD,
    r"\bDOCSTATS_WRITE\b": BUILD,
    r"\bdf_dataset\(": PKG / "stats.py",
    r"\bdocstats_dataset\(": PKG / "stats.py",
}


def test_segment_and_stats_writers_only_in_build():
    hits = [
        f"{path.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for path in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for pattern, home in WRITERS.items()
        if path not in (BUILD, home) and re.search(pattern, line)
    ]
    assert not hits, "index writer used outside build_index:\n" + "\n".join(hits)
