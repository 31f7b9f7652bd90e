"""The query tiers never start Ray: a process that has not initialized
Ray can open an index and run BM25 (TAAT and WAND), TF-IDF, boolean and
SQL queries, and Ray is still uninitialized afterwards. Benchmarks time
queries after ``ray.shutdown()``; a Ray call there would start a
cluster that nothing stops."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from pyfuseray.pages import synth_pages
from pyfuseray.pipeline import build_from_pages

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import ray
from pyfuseray import sqlfront
from pyfuseray.query import IndexSearcher

ix, corpus = sys.argv[1], json.loads(sys.argv[2])
s = IndexSearcher(ix)
hits = [
    s.search_bm25("quick foxes", 5, algorithm="taat"),
    s.search_bm25("quick foxes", 5, algorithm="wand"),
    s.search_tfidf("quick foxes", 5),
    s.search_boolean("quick foxes").tolist(),
    sqlfront.execute_sql(
        "SELECT url, text FROM pages LIKE quick foxes LIMIT 5", ix, corpus,
        searcher=s,
    ),
]
print(json.dumps({"ray": ray.is_initialized(),
                  "nonempty": [len(h) > 0 for h in hits]}))
"""


def test_query_tiers_do_not_start_ray(ray_session, tmp_path):
    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(synth_pages(60, seed=31), str(pages / "part-0.parquet"))
    ix, cdir = str(tmp_path / "ix"), str(tmp_path / "c")
    build_from_pages(str(pages), ix, corpus_dir=cdir, num_buckets=4)
    corpus = sorted(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(cdir) for f in fs if f.endswith(".parquet")
    )
    env = {**os.environ, "PYTHONPATH": REPO}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, ix, json.dumps(corpus)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["ray"] is False
    assert all(got["nonempty"]), got
