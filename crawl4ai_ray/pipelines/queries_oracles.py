"""SQL-oracle registry, part 1 of 2: the DuckDB mirrors of the core
queries — helper generators + the main ORACLES dict (split out of
queries.py in r4: no registry source file > 2,500 LoC). Extended by
queries_oracles2 (goldens + late additions); assembled by queries.py.
"""

from __future__ import annotations

import math  # noqa: F401
import os  # noqa: F401

import numpy as np  # noqa: F401
import pyarrow as pa  # noqa: F401

import ray  # noqa: F401

from . import queries_part1 as _p1
from . import queries_part2 as _p2

# namespace merge (the parts' _private helpers and SQL fragments are
# what the oracle expressions interpolate)
for _m in (_p1, _p2):
    globals().update(
        {k: v for k, v in vars(_m).items() if not k.startswith("__")}
    )
del _m


_STOP_RE = r"\b(the|a|and|of|to|in|is|it|that|for)\b"


def _nonsense_sql_cond(path: str, ul: str) -> str:
    """The is_nonsense_url active rules as a SQL boolean over a lowered
    path expression and a lowered-url expression (shared by the
    url_nonsense and url_seeder oracles — the seeder filters nonsense
    urls by default, SeedingConfig :1676)."""
    return rf"""( regexp_matches({path}, '/(robots\.txt|sitemap\.xml|sitemap_index\.xml)$')
    OR (position('/sitemap' IN {path}) > 0
        AND regexp_matches({path}, '(\.xml|\.xml\.gz|\.txt)$'))
    OR regexp_matches({path},
        '/(ads\.txt|humans\.txt|security\.txt|crossdomain\.xml|browserconfig\.xml|manifest\.json|apple-app-site-association|favicon\.ico|apple-touch-icon\.png|android-chrome-192x192\.png)$')
    OR regexp_matches({path}, '(^|/)\.')
    OR position('/wp-admin' IN {path}) > 0 OR position('/wp-includes' IN {path}) > 0
    OR position('/wp-content/uploads' IN {path}) > 0
    OR position('/admin' IN {path}) > 0 OR position('/login' IN {path}) > 0
    OR position('/signin' IN {path}) > 0 OR position('/signup' IN {path}) > 0
    OR position('/register' IN {path}) > 0 OR position('/checkout' IN {path}) > 0
    OR position('/cart' IN {path}) > 0 OR position('/account' IN {path}) > 0
    OR position('/profile' IN {path}) > 0 OR position('/search' IN {path}) > 0
    OR position('/404' IN {path}) > 0 OR position('/error' IN {path}) > 0
    OR position('/.git' IN {path}) > 0 OR position('/.svn' IN {path}) > 0
    OR position('/.hg' IN {path}) > 0 OR position('/cgi-bin' IN {path}) > 0
    OR position('/scripts' IN {path}) > 0 OR position('/includes' IN {path}) > 0
    OR position('?print=' IN {ul}) > 0 OR position('&print=' IN {ul}) > 0
    OR position('/print/' IN {ul}) > 0 OR position('_print.' IN {ul}) > 0
    OR (length(trim({path}, '/')) < 3
        AND {path} NOT IN ('/', '/en', '/de', '/fr', '/es', '/it')) )"""


def _logreg_sql(
    iters: int = 12,
    lr: str = "2.0",
    pos_weight: str = "6.0",
    final: str = "scores",
) -> str:
    """Unrolled-iteration logistic-GD oracle (stages/logreg.py). Gradient
    sums are fixed-point BIGINTs (order-free, bit-exact); the per-doc
    sigmoid and the per-iteration weight update are the IDENTICAL float
    expression trees the Ray side evaluates (libm exp both sides)."""
    J = range(5)
    z = "(" + " + ".join(f"w.w{j} * x{j}" for j in J) + ")"
    head = f"""f AS (
  SELECT doc_id,
    CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok,
    CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct,
    CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit,
    CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS BIGINT) AS n_stop
  FROM documents
),
x AS (
  SELECT doc_id,
    CAST(1.0 AS DOUBLE) AS x0,
    CAST(n_tok AS DOUBLE) / CAST(50.0 AS DOUBLE) AS x1,
    CAST(n_punct AS DOUBLE) / CAST(10.0 AS DOUBLE) AS x2,
    CAST(n_digit AS DOUBLE) / CAST(10.0 AS DOUBLE) AS x3,
    CAST(n_stop AS DOUBLE) / CAST(10.0 AS DOUBLE) AS x4,
    CASE WHEN 10 * n_stop >= n_tok THEN CAST(1.0 AS DOUBLE)
         ELSE CAST(0.0 AS DOUBLE) END AS y
  FROM x0src
),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM x),
w0 AS (SELECT {", ".join(f"CAST(0.0 AS DOUBLE) AS w{j}" for j in J)})"""
    head = head.replace("FROM x0src", "FROM f")
    parts = [head]
    for k in range(1, iters + 1):
        sums = ",\n    ".join(
            f"CAST(SUM(CAST(floor(((p - y) * wt) * x{j} * 1e9 + CAST(0.5 AS DOUBLE)) "
            f"AS BIGINT)) AS BIGINT) AS g{j}"
            for j in J
        )
        ups = ",\n    ".join(
            f"w.w{j} - CAST({lr} AS DOUBLE) * (CAST(g.g{j} AS DOUBLE) / nn.n) "
            f"* 1e-9 AS w{j}"
            for j in J
        )
        # MATERIALIZED: without it DuckDB inlines each wk into both its
        # consumers and the weight expression tree doubles per iteration
        parts.append(
            f""",
g{k} AS MATERIALIZED (
  SELECT
    {sums}
  FROM (
    SELECT x.*,
           CAST(1.0 AS DOUBLE)
           / (CAST(1.0 AS DOUBLE) + exp(-{z})) AS p,
           CASE WHEN y = CAST(1.0 AS DOUBLE) THEN CAST({pos_weight} AS DOUBLE)
                ELSE CAST(1.0 AS DOUBLE) END AS wt
    FROM x, w{k - 1} w
  )
),
w{k} AS MATERIALIZED (
  SELECT
    {ups}
  FROM w{k - 1} w, g{k} g, nn
)"""
        )
    scored = f"""(
  SELECT x.doc_id, x.y,
         ROUND(CAST(1.0 AS DOUBLE)
               / (CAST(1.0 AS DOUBLE) + exp(-{z})), 8) AS pr
  FROM x, w{iters} w
)"""
    if final == "scores":
        parts.append(
            f"""
SELECT doc_id, pr AS p, (pr >= CAST(0.5 AS DOUBLE)) AS pred
FROM {scored}"""
        )
    elif final == "auc":
        # tie-aware Mann-Whitney rank sum over the round-8 score grid
        # (stages/logreg.py logreg_auc): a tie group of size g after a
        # lower rows contributes np*(2a+g+1) of doubled average rank —
        # the numerator stays an exact BIGINT, ONE division at the end
        parts.append(
            f""",
grp AS (
  SELECT pr, CAST(COUNT(*) AS BIGINT) AS g,
         CAST(SUM(CASE WHEN y = CAST(1.0 AS DOUBLE) THEN 1 ELSE 0 END)
              AS BIGINT) AS np
  FROM {scored} GROUP BY pr
),
ordg AS (
  SELECT g, np,
         CAST(COALESCE(SUM(g) OVER (ORDER BY pr
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS a
  FROM grp
),
tot AS (
  SELECT CAST(SUM(np) AS BIGINT) AS npos, CAST(SUM(g) AS BIGINT) AS ntot
  FROM grp
),
s2 AS (SELECT CAST(SUM(np * (2 * a + g + 1)) AS BIGINT) AS auc2 FROM ordg)
SELECT tot.npos AS n_pos, tot.ntot - tot.npos AS n_neg,
       CASE WHEN tot.npos = 0 OR tot.ntot = tot.npos THEN NULL
            ELSE CAST(s2.auc2 - tot.npos * (tot.npos + 1) AS DOUBLE)
                 / CAST(2 * tot.npos * (tot.ntot - tot.npos) AS DOUBLE)
       END AS auc
FROM s2, tot"""
        )
    else:  # calibration reliability table (stages/logreg.py
        # logreg_calibration): identical doubles → identical bins, exact
        # integer aggregates
        parts.append(
            f"""
SELECT bin,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN y = CAST(1.0 AS DOUBLE) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_pos,
       CAST(SUM(CAST(round(pr * 1e8) AS BIGINT)) AS BIGINT) AS sum_p_fp
FROM (
  SELECT y, pr,
         LEAST(CAST(floor(pr * 10) AS BIGINT), 9) AS bin
  FROM {scored}
)
GROUP BY bin"""
        )
    return "WITH " + "".join(parts)


def _pagerank_sql(n_iters: int = 5) -> str:
    """Unrolled-iteration PageRank oracle. Floating-point discipline:
    every constant is CAST AS DOUBLE and the per-edge contribution is
    written rank * (1.0/outdeg) — the exact expression the Ray side
    evaluates — so the only divergence is summation order (~1e-19),
    absorbed by the final ROUND to 8 decimals on both sides."""
    head = """nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT src_id AS src, dst_id AS dst FROM child),
deg AS (SELECT src, COUNT(*) AS outdeg FROM e GROUP BY src),
r0 AS (
  SELECT doc_id AS node, CAST(1.0 AS DOUBLE) / (SELECT c FROM nn) AS rank
  FROM documents
)"""
    parts = [head]
    prev = "r0"
    for k in range(1, n_iters + 1):
        parts.append(
            f""",
r{k} AS (
  SELECT d2.doc_id AS node,
         (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / (SELECT c FROM nn)
         + CAST(0.85 AS DOUBLE)
           * COALESCE(SUM(p.rank * (CAST(1.0 AS DOUBLE) / deg.outdeg)), 0) AS rank
  FROM documents d2
  LEFT JOIN e ON e.dst = d2.doc_id
  LEFT JOIN deg ON deg.src = e.src
  LEFT JOIN {prev} p ON p.node = e.src
  GROUP BY d2.doc_id
)"""
        )
        prev = f"r{k}"
    return (
        "WITH "
        + "".join(parts)
        + f"\nSELECT node, ROUND(rank, 8) AS rank FROM {prev}"
    )

def _hits_sql(n_iters: int = 4) -> str:
    """Unrolled-iteration HITS oracle. Same float discipline as pagerank
    (CAST every constant AS DOUBLE, mirror the raw-sum-then-divide
    expression, absorb summation-order drift with the final ROUND) plus
    the logreg lesson: every iterative CTE is AS MATERIALIZED, otherwise
    DuckDB inlines each score CTE into both consumers of the next sweep
    and the plan blows up exponentially."""
    head = """WITH nn AS MATERIALIZED (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS MATERIALIZED (SELECT DISTINCT src_id AS src, dst_id AS dst FROM child),
h0 AS MATERIALIZED (
  SELECT doc_id AS node, CAST(1.0 AS DOUBLE) / (SELECT c FROM nn) AS s
  FROM documents
)"""
    parts = [head]
    prev_h = "h0"
    for k in range(1, n_iters + 1):
        parts.append(
            f""",
a{k}r AS MATERIALIZED (
  SELECT d.doc_id AS node, COALESCE(SUM(h.s), CAST(0.0 AS DOUBLE)) AS s
  FROM documents d
  LEFT JOIN e ON e.dst = d.doc_id
  LEFT JOIN {prev_h} h ON h.node = e.src
  GROUP BY d.doc_id
),
a{k} AS MATERIALIZED (
  SELECT node, s / (SELECT SUM(s) FROM a{k}r) AS s FROM a{k}r
),
h{k}r AS MATERIALIZED (
  SELECT d.doc_id AS node, COALESCE(SUM(a.s), CAST(0.0 AS DOUBLE)) AS s
  FROM documents d
  LEFT JOIN e ON e.src = d.doc_id
  LEFT JOIN a{k} a ON a.node = e.dst
  GROUP BY d.doc_id
),
h{k} AS MATERIALIZED (
  SELECT node, s / (SELECT SUM(s) FROM h{k}r) AS s FROM h{k}r
)"""
        )
        prev_h = f"h{k}"
    return (
        "".join(parts)
        + f"""
SELECT h.node, ROUND(h.s, 8) AS hub, ROUND(a.s, 8) AS auth
FROM h{n_iters} h JOIN a{n_iters} a USING (node)"""
    )


def _ppr_sql(n_iters: int = 5, seeds: tuple = (0, 1, 2)) -> str:
    """Unrolled personalized-PageRank oracle: identical chain to
    _pagerank_sql except teleport mass (init AND per-iteration base) goes
    only to the seed set, 1/|S| each."""
    seed_list = ", ".join(str(s) for s in seeds)
    ns = len(seeds)
    head = f"""nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT src_id AS src, dst_id AS dst FROM child),
deg AS (SELECT src, COUNT(*) AS outdeg FROM e GROUP BY src),
r0 AS (
  SELECT doc_id AS node,
         CASE WHEN doc_id IN ({seed_list})
              THEN CAST(1.0 AS DOUBLE) / {ns} ELSE CAST(0.0 AS DOUBLE) END AS rank
  FROM documents
)"""
    parts = [head]
    prev = "r0"
    for k in range(1, n_iters + 1):
        parts.append(
            f""",
r{k} AS (
  SELECT d2.doc_id AS node,
         CASE WHEN d2.doc_id IN ({seed_list})
              THEN (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / {ns}
              ELSE CAST(0.0 AS DOUBLE) END
         + CAST(0.85 AS DOUBLE)
           * COALESCE(SUM(p.rank * (CAST(1.0 AS DOUBLE) / deg.outdeg)), 0) AS rank
  FROM documents d2
  LEFT JOIN e ON e.dst = d2.doc_id
  LEFT JOIN deg ON deg.src = e.src
  LEFT JOIN {prev} p ON p.node = e.src
  GROUP BY d2.doc_id
)"""
        )
        prev = f"r{k}"
    return (
        "WITH "
        + "".join(parts)
        + f"\nSELECT node, ROUND(rank, 8) AS rank FROM {prev}"
    )


def _host_pagerank_sql(n_iters: int = 4) -> str:
    """Unrolled weighted host-level PageRank oracle: distinct page edges
    → host contraction (self-loops dropped) → row-stochastic weights via
    a window sum (float(cnt)/float(tot): integer-exact doubles, identical
    to the Ray division) → pagerank iterations, ROUND(8)."""
    head = """WITH nn AS MATERIALIZED (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
pe AS (SELECT DISTINCT src_id, dst_id FROM child),
he AS MATERIALIZED (
  SELECT CASE WHEN src_id % 7 = 0 THEN 0 ELSE src_id % 50 END AS src,
         CASE WHEN dst_id % 7 = 0 THEN 0 ELSE dst_id % 50 END AS dst,
         COUNT(*) AS cnt
  FROM pe
  WHERE (CASE WHEN src_id % 7 = 0 THEN 0 ELSE src_id % 50 END)
     <> (CASE WHEN dst_id % 7 = 0 THEN 0 ELSE dst_id % 50 END)
  GROUP BY 1, 2
),
hw AS MATERIALIZED (
  SELECT src, dst,
         CAST(cnt AS DOUBLE) / CAST(SUM(cnt) OVER (PARTITION BY src) AS DOUBLE) AS w
  FROM he
),
hn AS MATERIALIZED (
  SELECT DISTINCT CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS node
  FROM documents
),
hc AS MATERIALIZED (SELECT COUNT(*) AS c FROM hn),
r0 AS MATERIALIZED (
  SELECT node, CAST(1.0 AS DOUBLE) / (SELECT c FROM hc) AS rank FROM hn
)"""
    parts = [head]
    prev = "r0"
    for k in range(1, n_iters + 1):
        parts.append(
            f""",
r{k} AS MATERIALIZED (
  SELECT h.node,
         (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / (SELECT c FROM hc)
         + CAST(0.85 AS DOUBLE)
           * COALESCE(SUM(p.rank * hw.w), CAST(0.0 AS DOUBLE)) AS rank
  FROM hn h
  LEFT JOIN hw ON hw.dst = h.node
  LEFT JOIN {prev} p ON p.node = hw.src
  GROUP BY h.node
)"""
        )
        prev = f"r{k}"
    return (
        "".join(parts)
        + f"\nSELECT node, ROUND(rank, 8) AS rank FROM {prev}"
    )


ORACLES = {
    "pages_per_host": f"""
WITH {SQL_PAGES}
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_pages FROM purl GROUP BY host
""",
    "top_hosts": f"""
WITH {SQL_PAGES}
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_pages FROM purl
GROUP BY host ORDER BY n_pages DESC, host LIMIT 5
""",
    "heavy_hitter_hosts": f"""
WITH {SQL_PAGES}
SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl
GROUP BY host
HAVING COUNT(*) > CAST(0.05 AS DOUBLE) * (SELECT COUNT(*) FROM purl)
""",
    "link_graph_edges": f"""
WITH {SQL_PAGES}, {SQL_EDGES}
SELECT src, dst FROM edges
""",
    "link_graph_edges_excluded": f"""
WITH {SQL_PAGES}, {SQL_EDGES}
SELECT src, dst FROM edges
""",
    "bfs_depth": f"""
WITH RECURSIVE {SQL_PAGES}, {SQL_EDGES},
seeds AS (SELECT url FROM purl WHERE doc_id IN (0, 1, 2)),
walk(url, depth) AS (
  SELECT url, 0 FROM seeds
  UNION ALL
  SELECT e.dst, w.depth + 1 FROM walk w JOIN edges e ON e.src = w.url
  WHERE w.depth < 3
)
SELECT url, CAST(MIN(depth) AS BIGINT) AS depth FROM walk GROUP BY url
""",
    "robots_filter": f"""
WITH {SQL_PAGES}
SELECT url,
       CASE WHEN host_id = 0 THEN FALSE
            WHEN host_id = 1 AND CAST(doc_id AS VARCHAR) LIKE '1%' THEN FALSE
            ELSE TRUE END AS allowed
FROM purl
""",
    "head_filters": f"""
WITH {SQL_PAGES}
SELECT url,
       (doc_id % 3 = 0) AS relevant,
       -- the \\d{{4}} url-path penalty drops 4-digit doc_ids below the
       -- threshold (0.493 < 0.5 < 0.523 — verified score gaps)
       (host_id = 0 AND doc_id < 1000) AS seo_ok
FROM purl
""",
    "url_seeder": f"""
WITH {SQL_PAGES},
cand AS (
  SELECT url, doc_id, host, lang FROM purl JOIN documents USING (doc_id)
  WHERE doc_id % 3 = 0
),
pn AS (
  SELECT *,
    lower(regexp_replace(regexp_replace(url, '^[a-z]+://[^/]*', ''), '\\?.*$', '')) AS path,
    lower(url) AS ul
  FROM cand
)
SELECT url,
       'Page ' || doc_id || ' — ' || host AS title,
       'Synthetic page ' || doc_id || ' in lang ' || lang AS description
FROM pn
WHERE NOT {_nonsense_sql_cond("path", "ul")}
""",
    "url_normalize": """
SELECT doc_id,
  CASE doc_id % 3
    WHEN 0 THEN 'https://site' || (doc_id % 50) || '.example.com/Page/' || doc_id || '?a=1&b=2'
    WHEN 1 THEN 'https://site' || (doc_id % 50) || '.example.com/dir/other/page-' || doc_id || '.html'
    ELSE 'https://site' || (doc_id % 50) || '.example.com/a/b//c/' || doc_id
  END AS url_norm
FROM documents
""",
    "url_filter_pattern": f"""
WITH {SQL_PAGES}
SELECT url FROM purl WHERE url LIKE '%.example.com/page/1%'
""",
    "url_scores": """
SELECT doc_id,
  'https://site' || (doc_id % 50) || '.example.com/blog/' || (2015 + doc_id % 10)
    || (CASE WHEN doc_id % 4 = 0 THEN '/extra' ELSE '' END)
    || '/item' || doc_id AS url,
  (CASE WHEN doc_id % 4 = 0 THEN 0.5::DOUBLE ELSE 1.0::DOUBLE END)
  + 0.5::DOUBLE * (CASE 2024 - (2015 + doc_id % 10)
      WHEN 0 THEN 1.0::DOUBLE WHEN 1 THEN 0.9::DOUBLE WHEN 2 THEN 0.8::DOUBLE
      WHEN 3 THEN 0.7::DOUBLE WHEN 4 THEN 0.6::DOUBLE WHEN 5 THEN 0.5::DOUBLE
      WHEN 6 THEN 0.4::DOUBLE
      ELSE greatest(0.1::DOUBLE,
                    1.0::DOUBLE - (2024 - (2015 + doc_id % 10))::DOUBLE * 0.1::DOUBLE)
      END) AS score
FROM documents
""",
    "url_nonsense": rf"""
WITH u AS (
  SELECT doc_id,
    CASE doc_id % 8
      WHEN 0 THEN base
      WHEN 1 THEN base || '/robots.txt'
      WHEN 2 THEN base || '/sitemap-news.xml'
      WHEN 3 THEN base || '?print=1'
      WHEN 4 THEN base || '/.well-known/security.txt'
      WHEN 5 THEN base || '/wp-admin/options.html'
      WHEN 6 THEN 'https://site' || (doc_id % 50) || '.example.com/a'
      ELSE base || '/humans.txt'
    END AS url
  FROM (SELECT doc_id,
               'https://site' || (doc_id % 50) || '.example.com/page/' || doc_id AS base
        FROM documents)
),
p AS (
  SELECT doc_id, url,
    lower(regexp_replace(regexp_replace(url, '^[a-z]+://[^/]*', ''), '\?.*$', '')) AS path,
    lower(url) AS ul
  FROM u
)
SELECT doc_id, url,
  {_nonsense_sql_cond("path", "ul")} AS nonsense
FROM p
""",
    "shuffle_export": """
WITH k AS (
  SELECT doc_id,
    (CAST(doc_id AS HUGEINT) * 6364136223846793005
     + 1442695040888963407 + 7) % CAST('18446744073709551616' AS HUGEINT) AS key
  FROM documents
)
SELECT doc_id,
  CAST(key % 16 AS BIGINT) AS shard,
  CAST(ROW_NUMBER() OVER (PARTITION BY key % 16 ORDER BY key, doc_id) - 1 AS BIGINT) AS pos
FROM k
""",
    "crawl_delta": """
WITH prev AS (
  SELECT doc_id, md5(text) AS h FROM documents WHERE doc_id % 7 <> 3
),
curr AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN md5(text || 'v2') ELSE md5(text) END AS h
  FROM documents WHERE doc_id % 10 <> 6
)
SELECT COALESCE(p.doc_id, c.doc_id) AS doc_id,
  CASE WHEN c.doc_id IS NULL THEN 'gone'
       WHEN p.doc_id IS NULL THEN 'new'
       WHEN p.h = c.h THEN 'unchanged'
       ELSE 'changed' END AS status
FROM prev p FULL OUTER JOIN curr c ON p.doc_id = c.doc_id
""",
    "exact_dedup": """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
dup AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + nn.c, text FROM documents, nn
)
SELECT md5(text) AS content_hash, CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id
FROM dup GROUP BY md5(text)
""",
    "token_stats": r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT) AS n_chars
FROM documents
""",
    "quality_counts": rf"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[A-Z]')) AS BIGINT) AS n_upper,
       CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit,
       CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct,
       CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS BIGINT) AS n_stop,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
FROM documents
""",
    "quality_deciles": rf"""
WITH s AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS BIGINT)
           * 1000
           // GREATEST(CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT),
                       1) AS score
  FROM documents
)
SELECT doc_id, score,
       CAST(NTILE(10) OVER (ORDER BY score, doc_id) AS BIGINT) AS decile
FROM s
""",
    "quality_filter": rf"""
WITH c AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(length(regexp_extract_all(text, '\S+')) AS DOUBLE) AS n_tok,
         CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) AS n_punct,
         CAST(length(regexp_extract_all(text, '[0-9]')) AS DOUBLE) AS n_digit,
         CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS DOUBLE) AS n_stop
  FROM documents
),
s AS (
  SELECT doc_id,
    (LEAST(GREATEST(n_tok / CAST(100.0 AS DOUBLE), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(1.0 AS DOUBLE) - CAST(5.0 AS DOUBLE) * (n_punct + n_digit) / GREATEST(n_chars, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(5.0 AS DOUBLE) * n_stop / GREATEST(n_tok, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
    ) / CAST(3.0 AS DOUBLE) AS quality
  FROM c
)
SELECT doc_id, quality, (quality >= CAST(0.5 AS DOUBLE)) AS keep FROM s
""",
    "repetition_stats": r"""
WITH d AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS lst FROM documents),
tok AS (SELECT doc_id, unnest(lst) AS tok FROM d),
tc AS (SELECT doc_id, tok, COUNT(*) AS c FROM tok GROUP BY doc_id, tok),
a1 AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_tokens,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         CAST(MAX(c) AS BIGINT) AS max_token_count
  FROM tc GROUP BY doc_id
),
bg AS (
  SELECT d.doc_id, lst[i] || ' ' || lst[i + 1] AS big
  FROM d, UNNEST(range(1, len(lst))) AS t(i)
  WHERE len(lst) >= 2
),
bc AS (SELECT doc_id, big, COUNT(*) AS c FROM bg GROUP BY doc_id, big),
a2 AS (SELECT doc_id, CAST(MAX(c) AS BIGINT) AS max_bigram_count FROM bc GROUP BY doc_id)
SELECT a1.doc_id, a1.n_tokens, a1.n_distinct, a1.max_token_count,
       CAST(COALESCE(a2.max_bigram_count, 0) AS BIGINT) AS max_bigram_count
FROM a1 LEFT JOIN a2 USING (doc_id)
""",
    "decontaminate": r"""
WITH d AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS lst FROM documents),
tg AS (
  SELECT d.doc_id, lst[i] || ' ' || lst[i + 1] || ' ' || lst[i + 2] AS tg
  FROM d, UNNEST(range(1, len(lst) - 1)) AS t(i)
  WHERE len(lst) >= 3
),
bench AS (SELECT DISTINCT tg FROM tg WHERE doc_id % 97 = 0),
hits AS (
  SELECT t.doc_id, COUNT(DISTINCT t.tg) AS n
  FROM tg t JOIN bench b USING (tg) GROUP BY t.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(h.n, 0) AS BIGINT) AS n_contaminated,
       CAST(CASE WHEN COALESCE(h.n, 0) > 0 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM d LEFT JOIN hits h USING (doc_id)
""",
    "pagerank": _pagerank_sql(5),
    "hits_scores": _hits_sql(4),
    "host_pagerank": _host_pagerank_sql(4),
    "personalized_pagerank": _ppr_sql(5, (0, 1, 2)),
    "corpus_rollup": r"""
SELECT lang, source,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
FROM documents GROUP BY lang, source
UNION ALL
SELECT lang, 'ALL',
       CAST(COUNT(*) AS BIGINT), CAST(SUM(n_chars) AS BIGINT)
FROM documents GROUP BY lang
UNION ALL
SELECT 'ALL', 'ALL',
       CAST(COUNT(*) AS BIGINT), CAST(SUM(n_chars) AS BIGINT)
FROM documents
""",
    # normalize_url semantics for these variant families are pinned by the
    # url_normalize oracle: lowercase scheme+host, strip trailing slash,
    # drop tracking params and fragments — so the oracle can write the
    # normalized form directly.
    "url_canonical_groups": r"""
WITH v AS (
  SELECT doc_id,
         'HTTPS://SITE' || (doc_id % 50) || '.EXAMPLE.COM/page/' || doc_id || '/'
         AS raw
  FROM documents
  UNION ALL
  SELECT doc_id,
         'https://site' || (doc_id % 50) || '.example.com/page/' || doc_id
           || '?utm_campaign=c&gclid=g'
  FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id,
         'https://site' || (doc_id % 50) || '.example.com/page/' || doc_id || '#sec'
  FROM documents WHERE doc_id % 3 <> 1
),
n AS (
  SELECT 'https://site' || (doc_id % 50) || '.example.com/page/' || doc_id
           AS url_norm,
         raw
  FROM v
)
SELECT url_norm,
       CAST(COUNT(*) AS BIGINT) AS n_variants,
       MIN(raw) AS canonical_raw
FROM n GROUP BY url_norm
""",
    "warc_roundtrip": f"""
WITH {SQL_PAGES}
SELECT url,
       TIMESTAMP '2024-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS warc_ts,
       TRUE AS digest_ok
FROM purl
""",
    "jsonl_roundtrip": """
SELECT doc_id, lang, md5(text) AS text_md5, TRUE AS digest_ok
FROM documents
""",
    "seed_distances": _seed_distances_sql(),
    "connected_components": """
WITH p AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id
  FROM documents
)
SELECT doc_id AS node,
       CAST(MIN(doc_id) OVER (PARTITION BY host_id) AS BIGINT) AS component
FROM p
""",
    "text_normalize": r"""
WITH messy AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 3 = 0 THEN ' mid' || chr(7) || 'dle' ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN chr(10) || chr(10) || chr(10) || chr(10) || 'z'
                 ELSE '' END
         || ' Cafe' || chr(769) || chr(9) || ' tail  ' AS m
  FROM documents
),
norm AS (
  SELECT doc_id,
         trim(regexp_replace(regexp_replace(regexp_replace(
           nfc_normalize(m),
           '[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]', '', 'g'),
           '[ \t]+', ' ', 'g'),
           '\n{3,}', chr(10) || chr(10), 'g'), ' ' || chr(10)) AS text_norm
  FROM messy
)
SELECT doc_id, text_norm, CAST(length(text_norm) AS BIGINT) AS n_chars
FROM norm
""",
    "event_transitions": """
WITH nxt AS (
  SELECT event_type AS src_type,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS dst_type
  FROM events
)
SELECT src_type, dst_type, CAST(COUNT(*) AS BIGINT) AS n
FROM nxt WHERE dst_type IS NOT NULL
GROUP BY src_type, dst_type
""",
    "retention": """
WITH ud AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
),
first AS (SELECT user_id, MIN(day) AS cohort_day FROM ud GROUP BY user_id)
SELECT f.cohort_day,
       CAST(date_diff('day', f.cohort_day, ud.day) AS BIGINT) AS day_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM ud JOIN first f USING (user_id)
WHERE date_diff('day', f.cohort_day, ud.day) <= 7
GROUP BY f.cohort_day, day_offset
""",
    "funnel": """
WITH t1 AS (
  SELECT user_id, MIN(ts) AS ts FROM events
  WHERE event_type = 'view' GROUP BY user_id
),
t2 AS (
  SELECT e.user_id, MIN(e.ts) AS ts FROM events e
  JOIN t1 ON t1.user_id = e.user_id AND e.ts > t1.ts
  WHERE e.event_type = 'click' GROUP BY e.user_id
),
t3 AS (
  SELECT e.user_id, MIN(e.ts) AS ts FROM events e
  JOIN t2 ON t2.user_id = e.user_id AND e.ts > t2.ts
  WHERE e.event_type = 'purchase' GROUP BY e.user_id
)
SELECT CAST(1 AS BIGINT) AS stage, CAST((SELECT COUNT(*) FROM t1) AS BIGINT) AS n_users
UNION ALL
SELECT CAST(2 AS BIGINT), CAST((SELECT COUNT(*) FROM t2) AS BIGINT)
UNION ALL
SELECT CAST(3 AS BIGINT), CAST((SELECT COUNT(*) FROM t3) AS BIGINT)
""",
    "distinct_users": """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
FROM events GROUP BY event_type
""",
    "token_percentiles": r"""
WITH t AS (
  SELECT CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS v FROM documents
)
SELECT CAST(0.5 AS DOUBLE) AS pct, CAST(quantile_disc(v, 0.5) AS BIGINT) AS value FROM t
UNION ALL
SELECT CAST(0.9 AS DOUBLE), CAST(quantile_disc(v, 0.9) AS BIGINT) FROM t
UNION ALL
SELECT CAST(0.95 AS DOUBLE), CAST(quantile_disc(v, 0.95) AS BIGINT) FROM t
UNION ALL
SELECT CAST(0.99 AS DOUBLE), CAST(quantile_disc(v, 0.99) AS BIGINT) FROM t
""",
    "tfidf_top_terms": r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok FROM documents
),
tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM toks GROUP BY doc_id, tok),
df AS (SELECT tok, COUNT(*) AS df FROM tf GROUP BY tok),
nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM documents),
scored AS (
  SELECT tf.doc_id, tf.tok,
         CAST(tf.tf AS DOUBLE) * ln((SELECT c FROM nn) / df.df) AS score
  FROM tf JOIN df USING (tok)
),
ranked AS (
  SELECT doc_id, tok, score,
         ROW_NUMBER() OVER (
           PARTITION BY doc_id ORDER BY score DESC, tok
         ) AS rnk
  FROM scored
)
SELECT doc_id, tok AS term, CAST(rnk AS BIGINT) AS rank, ROUND(score, 8) AS score
FROM ranked WHERE rnk <= 3
""",
    "logreg_quality": _logreg_sql(12),
    "logreg_calibration": _logreg_sql(12, final="calibration"),
    "logreg_auc": _logreg_sql(12, final="auc"),
    "dsir_weights": r"""
WITH d AS (
  SELECT doc_id, (lang = 'en') AS is_target,
         regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents
),
tok AS (SELECT doc_id, is_target, unnest(toks) AS tok FROM d),
b AS (
  SELECT doc_id, is_target,
         CAST(md5_number_lower(tok) % 1024 AS BIGINT) AS bucket
  FROM tok
),
cnt AS (
  SELECT bucket,
    CAST(COUNT(*) AS BIGINT) AS n_all,
    CAST(SUM(CASE WHEN is_target THEN 1 ELSE 0 END) AS BIGINT) AS n_t
  FROM b GROUP BY bucket
),
tot AS (
  SELECT CAST(SUM(n_all) AS BIGINT) AS a_tot, CAST(SUM(n_t) AS BIGINT) AS t_tot
  FROM cnt
),
r AS (
  SELECT bucket,
    CAST(floor(
      ln(((CAST(n_t AS DOUBLE) + CAST(1.0 AS DOUBLE)) / CAST(t_tot + 1024 AS DOUBLE))
       / ((CAST(n_all AS DOUBLE) + CAST(1.0 AS DOUBLE)) / CAST(a_tot + 1024 AS DOUBLE)))
      * CAST(1000000000.0 AS DOUBLE) + CAST(0.5 AS DOUBLE)) AS BIGINT) AS rfp
  FROM cnt, tot
),
dc AS (
  SELECT doc_id, bucket, CAST(COUNT(*) AS BIGINT) AS c
  FROM b GROUP BY doc_id, bucket
),
w AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_feat,
         CAST(SUM(c * rfp) AS BIGINT) AS logw_fp
  FROM dc JOIN r USING (bucket) GROUP BY doc_id
)
SELECT d2.doc_id,
  COALESCE(w.n_feat, 0) AS n_feat,
  COALESCE(w.logw_fp, 0) AS logw_fp,
  d2.is_target
FROM (SELECT doc_id, (lang = 'en') AS is_target FROM documents) d2
LEFT JOIN w USING (doc_id)
""",
    "token_budget_select": rf"""
WITH c AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(length(regexp_extract_all(text, '\S+')) AS DOUBLE) AS n_tok,
         CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) AS n_punct,
         CAST(length(regexp_extract_all(text, '[0-9]')) AS DOUBLE) AS n_digit,
         CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS DOUBLE) AS n_stop
  FROM documents
),
s AS (
  SELECT doc_id,
    (LEAST(GREATEST(n_tok / CAST(100.0 AS DOUBLE), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(1.0 AS DOUBLE) - CAST(5.0 AS DOUBLE) * (n_punct + n_digit) / GREATEST(n_chars, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(5.0 AS DOUBLE) * n_stop / GREATEST(n_tok, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
    ) / CAST(3.0 AS DOUBLE) AS quality,
    CAST(n_tok AS BIGINT) AS n_tok
  FROM c
),
w AS (
  SELECT doc_id, quality, n_tok,
    CAST(SUM(n_tok) OVER (ORDER BY quality DESC, doc_id
                          ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tok
  FROM s
)
SELECT doc_id, quality, n_tok, cum_tok FROM w WHERE cum_tok <= 12000
""",
    "c4_rules": r"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS arr,
         3 + doc_id % 5 AS k
  FROM documents
),
ln AS (
  SELECT doc_id, gs AS li,
    array_to_string(arr[((gs-1)*k + 1):(gs*k)], ' ')
    || CASE WHEN (doc_id + gs) % 13 = 0 THEN ' javascript' ELSE '' END
    || CASE (doc_id + gs) % 4 WHEN 0 THEN '.' WHEN 1 THEN '!' WHEN 2 THEN '?' ELSE '' END AS line
  FROM t, UNNEST(generate_series(1, (len(arr) + k - 1) // k)) s(gs)
),
doc AS (
  SELECT d.doc_id,
    string_agg(ln.line, chr(10) ORDER BY ln.li)
    || CASE WHEN d.doc_id % 41 = 0 THEN ' lorem ipsum' ELSE '' END
    || CASE WHEN d.doc_id % 43 = 0 THEN ' {' ELSE '' END
    || CASE WHEN d.doc_id % 37 = 0 THEN ' badword' ELSE '' END AS s
  FROM (SELECT DISTINCT doc_id FROM t) d JOIN ln ON ln.doc_id = d.doc_id
  GROUP BY d.doc_id
),
r AS (
  SELECT doc_id, s, string_split(s, chr(10)) AS ls,
    list_filter(string_split(s, chr(10)),
      l -> regexp_matches(rtrim(l), '[.!?"]$')
           AND len(regexp_extract_all(l, '\S+')) >= 5
           AND NOT contains(lower(l), 'javascript')) AS kept
  FROM doc
),
f AS (
  SELECT doc_id, s, len(ls) AS n_lines, len(kept) AS n_kept,
    COALESCE(array_to_string(kept, chr(10)), '') AS retained
  FROM r
)
SELECT doc_id,
  CAST(n_lines AS BIGINT) AS n_lines,
  CAST(n_kept AS BIGINT) AS n_kept_lines,
  CAST(len(regexp_extract_all(retained, '[.!?]')) AS BIGINT) AS n_sentences,
  list_has_any(regexp_extract_all(lower(s), '[a-z]+'), ['badword']) AS has_bad_word,
  contains(lower(s), 'lorem ipsum') AS has_lorem,
  contains(s, '{') AS has_brace,
  (n_kept >= 1 AND len(regexp_extract_all(retained, '[.!?]')) >= 3
   AND NOT list_has_any(regexp_extract_all(lower(s), '[a-z]+'), ['badword'])
   AND NOT contains(lower(s), 'lorem ipsum')
   AND NOT contains(s, '{')) AS keep,
  CAST(length(retained) AS BIGINT) AS clean_chars
FROM f
""",
    "gopher_rules": r"""
WITH base AS (
  SELECT doc_id, text, regexp_extract_all(text, '\S+') AS arr FROM documents
),
m AS (
  SELECT doc_id,
    len(arr) AS n,
    length(regexp_replace(text, '\s+', '', 'g')) AS chars,
    (length(text) - length(replace(text, '#', '')))
      + (length(text) - length(replace(text, '...', ''))) // 3 AS syms,
    len(list_filter(arr, w -> regexp_matches(w, '\p{L}'))) AS alpha,
    (CASE WHEN list_contains(arr, 'the') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'be') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'to') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'of') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'and') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'that') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'have') THEN 1 ELSE 0 END
     + CASE WHEN list_contains(arr, 'with') THEN 1 ELSE 0 END) AS stops
  FROM base
)
SELECT doc_id,
  CAST(n AS BIGINT) AS n_words,
  (n BETWEEN 50 AND 100000) AS ok_word_count,
  (n > 0 AND 3 * n <= chars AND chars <= 10 * n) AS ok_mean_len,
  (10 * syms <= n) AS ok_symbol,
  (5 * alpha >= 4 * n) AS ok_alpha,
  (stops >= 1) AS ok_stop,
  ((n BETWEEN 50 AND 100000) AND (n > 0 AND 3 * n <= chars AND chars <= 10 * n)
   AND (10 * syms <= n) AND (5 * alpha >= 4 * n) AND (stops >= 1)) AS keep
FROM m
""",
    "pmi_pairs": r"""
WITH t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS arr FROM documents),
pos AS (
  SELECT doc_id, gs AS i, arr[gs] AS tok
  FROM t, UNNEST(generate_series(1, len(arr))) AS s(gs)
),
pairs AS (
  SELECT p1.tok AS x, p2.tok AS y, COUNT(*) AS n_xy
  FROM pos p1
  JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i > p1.i AND p2.i <= p1.i + 3
  GROUP BY p1.tok, p2.tok
),
l AS (SELECT x, SUM(n_xy) AS lx FROM pairs GROUP BY x),
r AS (SELECT y, SUM(n_xy) AS ry FROM pairs GROUP BY y),
tot AS (SELECT SUM(n_xy) AS p FROM pairs)
SELECT x, y, CAST(n_xy AS BIGINT) AS n_xy,
  ROUND(ln((CAST(n_xy AS DOUBLE) * CAST((SELECT p FROM tot) AS DOUBLE))
           / (CAST(lx AS DOUBLE) * CAST(ry AS DOUBLE))), 8) AS pmi
FROM pairs JOIN l USING (x) JOIN r USING (y)
WHERE n_xy >= 5
""",
    "lang_dist": """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang
""",
    "content_hash": """
SELECT doc_id, md5(text) AS content_hash FROM documents
""",
    "ann_topk": """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 5
),
scored AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                    e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM scored WHERE rank <= 10
""",
    "embedding_neardup_brute": """
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a CROSS JOIN embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.3
""",
    "embedding_neardup": """
WITH nn AS (SELECT COUNT(*) AS c FROM embeddings),
dup AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + nn.c, embedding FROM embeddings, nn
)
SELECT a.vec_id AS a, b.vec_id AS b
FROM dup a CROSS JOIN dup b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.9
""",
    "minhash_pairs": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
grams AS (
  SELECT doc_id,
         list_distinct(
           list_transform(range(1, len(t) - 1),
                          i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
         ) AS g
  FROM toks
)
SELECT a.doc_id AS a, b.doc_id AS b
FROM grams a JOIN grams b ON a.doc_id < b.doc_id
WHERE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
      / CAST(len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS DOUBLE)
      >= 0.9
""",
    # cross-side exact 3-gram Jaccard at 0.9 between the corpus and the
    # derived "new batch" (every 31st doc minus its first token, id + 1e6);
    # the LSH index prunes candidates, verify_pairs makes the result exact,
    # so the oracle recomputes the metric directly (miss prob ≤ 3e-8/pair
    # at J = 0.9 with 16 bands × 4 rows, vanishing above it).
    "minhash_index_dedup": r"""
WITH ctoks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
ntoks AS (
  SELECT doc_id + 1000000 AS doc_id, t[2:len(t)] AS t
  FROM ctoks WHERE doc_id % 31 = 0
),
cgrams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM ctoks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
ngrams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM ntoks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
csz AS (SELECT doc_id, COUNT(*) AS sz FROM cgrams GROUP BY doc_id),
nsz AS (SELECT doc_id, COUNT(*) AS sz FROM ngrams GROUP BY doc_id),
inter AS (
  SELECT cg.doc_id AS a, ng.doc_id AS b, COUNT(*) AS i
  FROM cgrams cg JOIN ngrams ng ON cg.g = ng.g
  GROUP BY 1, 2
)
SELECT i.a, i.b
FROM inter i
JOIN csz ON csz.doc_id = i.a
JOIN nsz ON nsz.doc_id = i.b
WHERE CAST(i.i AS DOUBLE) / (csz.sz + nsz.sz - i.i) >= CAST(0.9 AS DOUBLE)
""",
    "neardup_resolve": r"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
grams AS (
  SELECT doc_id,
         list_distinct(
           list_transform(range(1, len(t) - 1),
                          i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
         ) AS g
  FROM toks
),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
        / CAST(len(a.g) + len(b.g) - len(list_intersect(a.g, b.g)) AS DOUBLE)
        >= 0.9
),
und AS (SELECT a AS s, b AS t FROM pairs UNION SELECT b, a FROM pairs),
reach(s, t) AS (
  SELECT s, t FROM und
  UNION
  SELECT r.s, u.t FROM reach r JOIN und u ON r.t = u.s
),
comp AS (
  SELECT d.doc_id,
         LEAST(d.doc_id, COALESCE(MIN(r.t), d.doc_id)) AS cluster
  FROM documents d LEFT JOIN reach r ON r.s = d.doc_id
  GROUP BY d.doc_id
)
SELECT doc_id, cluster, (doc_id = cluster) AS keep FROM comp
""",
    "redact": r"""
SELECT doc_id,
       regexp_replace(text, '\b(spark|dup)\b', '[KW]', 'g') AS text_redacted,
       CAST(len(regexp_extract_all(text, '\b(spark|dup)\b')) AS BIGINT)
         AS n_redacted
FROM documents
""",
    # knuth-hash bucket arithmetic is int64-exact on both engines
    "stratified_sample": """
SELECT doc_id, lang FROM documents
WHERE (doc_id * 2654435761 + 12345) % 1000000007 % 10000 <
      CASE lang WHEN 'en' THEN 5000 WHEN 'de' THEN 2500
                WHEN 'fr' THEN 2500 ELSE 1000 END
""",
    "dataset_split_counts": """
WITH b AS (
  SELECT lang,
         (doc_id * 2654435761 + 12345) % 1000000007 % 10000 AS bucket
  FROM documents
)
SELECT CASE WHEN bucket < 1000 THEN 'val'
            WHEN bucket < 2000 THEN 'test'
            ELSE 'train' END AS split,
       lang, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM b GROUP BY 1, 2
""",
    # postings-based formulation (mirrors the Ray plan: explode distinct
    # grams, count shared grams per pair, Jaccard from sizes) — same metric
    # as the minhash oracle's pairwise form, independently expressed
    "ngram_jaccard_pairs": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM toks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
sizes AS (SELECT doc_id, COUNT(*) AS sz FROM grams GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS a, gb.doc_id AS b, COUNT(*) AS i
  FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
  GROUP BY 1, 2
)
SELECT i.a, i.b
FROM inter i
JOIN sizes sa ON sa.doc_id = i.a
JOIN sizes sb ON sb.doc_id = i.b
WHERE i.i >= 0.9 * (sa.sz + sb.sz - i.i)
""",
    "duplicate_spans": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
wins AS (
  SELECT doc_id, i AS pos, array_to_string(t[i:i+4], ' ') AS g
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 4)) AS s(i)
  WHERE len(t) >= 5
),
dupg AS (
  SELECT g FROM (SELECT DISTINCT doc_id, g FROM wins)
  GROUP BY g HAVING COUNT(*) >= 2
),
dupw AS (SELECT w.doc_id, w.pos FROM wins w JOIN dupg USING (g)),
brks AS (
  SELECT doc_id, pos,
         CASE WHEN pos > LAG(pos) OVER (PARTITION BY doc_id ORDER BY pos) + 5
                OR LAG(pos) OVER (PARTITION BY doc_id ORDER BY pos) IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM dupw
),
isl AS (
  SELECT doc_id, pos,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM brks
)
SELECT doc_id, MIN(pos) AS start_tok, MAX(pos) + 5 AS end_tok
FROM isl GROUP BY doc_id, island
""",
    "term_index_lookup": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
tf AS (
  SELECT doc_id,
         CAST(len(list_filter(t, x -> x = 'merge')) AS BIGINT) AS tf
  FROM toks
)
SELECT doc_id, tf FROM tf WHERE tf > 0
""",
    "grouped_sample": r"""
WITH b AS (
  SELECT doc_id, lang,
         ((doc_id * 2654435761 + 12345) % 1000000007) % 10000 AS bkt
  FROM documents
),
r AS (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY bkt, doc_id) AS rk
  FROM b
)
SELECT lang, doc_id, CAST(rk AS BIGINT) AS sample_rank
FROM r WHERE rk <= 5
""",
    "rebalance_mix": r"""
WITH cnt AS (SELECT lang, COUNT(*) AS c FROM documents GROUP BY lang),
cuts AS (
  SELECT lang,
         LEAST(10000,
           (CASE lang WHEN 'en' THEN 5000 WHEN 'de' THEN 2000
                      WHEN 'fr' THEN 2000 WHEN 'es' THEN 1000
                      ELSE 0 END * 250) // c) AS cut
  FROM cnt
)
SELECT d.doc_id, d.lang
FROM documents d JOIN cuts USING (lang)
WHERE ((d.doc_id * 2654435761 + 12345) % 1000000007) % 10000 < cuts.cut
""",
    "pack_sequences": r"""
WITH toks AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n
  FROM documents
),
nz AS (SELECT doc_id, n FROM toks WHERE n > 0),
cum AS (
  SELECT doc_id, n,
         CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS BIGINT) AS tok_start
  FROM nz
)
SELECT doc_id, n AS n_tok, tok_start,
       CAST(tok_start // 128 AS BIGINT) AS seq_start,
       CAST((tok_start + n - 1) // 128 AS BIGINT) AS seq_end,
       CAST(tok_start % 128 AS BIGINT) AS seq_offset,
       CAST(128 AS BIGINT) AS seq_len
FROM cum
""",
    "pack_manifest": r"""
WITH toks AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')) AS n
  FROM documents
),
nz AS (SELECT doc_id, n FROM toks WHERE n > 0),
cum AS (
  SELECT doc_id, n,
         CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS BIGINT) AS tok_start
  FROM nz
),
spans AS (
  SELECT doc_id, n, tok_start,
         CAST(tok_start // 128 AS BIGINT) AS seq_start,
         CAST((tok_start + n - 1) // 128 AS BIGINT) AS seq_end
  FROM cum
),
touch AS (
  SELECT s.doc_id, q.seq_id,
         LEAST(s.tok_start + s.n, (q.seq_id + 1) * 128)
         - GREATEST(s.tok_start, q.seq_id * 128) AS fill
  FROM spans s,
       LATERAL UNNEST(generate_series(s.seq_start, s.seq_end)) AS q(seq_id)
)
SELECT seq_id, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(fill) AS BIGINT) AS n_filled
FROM touch GROUP BY seq_id
""",
    "ngram_df_histogram": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM toks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
df AS (SELECT g, COUNT(*) AS c FROM grams GROUP BY g)
SELECT c AS doc_freq, CAST(COUNT(*) AS BIGINT) AS n_grams
FROM df GROUP BY c
""",
    "leakage_safe_split": """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
dup AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + nn.c, text FROM documents, nn
),
comp AS (
  SELECT doc_id,
         MIN(doc_id) OVER (PARTITION BY md5(text)) AS component
  FROM dup
)
SELECT doc_id, CAST(component AS BIGINT) AS component,
       CASE WHEN component % 10 < 8 THEN 'train' ELSE 'eval' END AS split
FROM comp
""",
    "regex_search_trigram": r"""
WITH m AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(text), 'batch [a-z]+ window'))
              AS BIGINT) AS n_matches
  FROM documents
)
SELECT doc_id, n_matches FROM m WHERE n_matches > 0
""",
    "phrase_search": r"""
WITH d AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS lst FROM documents
),
m AS (
  SELECT d.doc_id, i
  FROM d, UNNEST(range(1, len(lst))) AS t(i)
  WHERE lst[i] = 'order' AND lst[i + 1] = 'line'
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_matches,
       CAST(MIN(i) - 1 AS BIGINT) AS first_pos
FROM m GROUP BY doc_id
""",
    "audio_fp_dups": """
WITH base AS (
  SELECT doc_id,
         CASE WHEN doc_id % 50 = 2 THEN doc_id - 1 ELSE doc_id END AS b
  FROM documents
),
s AS MATERIALIZED (
  SELECT doc_id, t,
         CASE WHEN doc_id % 50 = 2 AND t = 7
              THEN ((m + 1) % 4096) - 2048
              ELSE m - 2048 END AS v
  FROM (
    SELECT base.doc_id, t.t AS t,
           (((base.b * 2654435761 + t.t * 97003) % 1000003)
            * ((base.b * 2654435761 + t.t * 97003) % 1000003))
             % 1000003 % 4096 AS m
    FROM base, range(1024) t(t)
  )
),
e AS MATERIALIZED (
  SELECT doc_id, t // 512 AS n, (t % 512) // 15 AS m,
         CAST(SUM(v * v) AS BIGINT) AS en
  FROM s WHERE t % 512 < 495
  GROUP BY 1, 2, 3
),
bits AS MATERIALIZED (
  SELECT a.doc_id, CAST(a.n * 32 + a.m AS INTEGER) AS k,
         CASE WHEN a.en > b.en THEN 1 ELSE 0 END AS bit
  FROM e a JOIN e b ON b.doc_id = a.doc_id AND b.n = a.n AND b.m = a.m + 1
  WHERE a.m < 32
),
h AS MATERIALIZED (
  SELECT doc_id,
         bit_or(CASE WHEN k < 32 THEN CAST(bit AS BIGINT) << k
                     ELSE CAST(0 AS BIGINT) END) AS lo,
         bit_or(CASE WHEN k >= 32 THEN CAST(bit AS BIGINT) << (k - 32)
                     ELSE CAST(0 AS BIGINT) END) AS hi
  FROM bits GROUP BY doc_id
)
SELECT a.doc_id AS a, b.doc_id AS b
FROM h a JOIN h b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) <= 4
""",
    "image_dhash_dups": """
WITH g AS MATERIALIZED (
  SELECT doc_id, r, c,
         CASE WHEN doc_id % 50 = 1 AND r = 0 AND c = 0
              THEN (((x * x) % 1000003) % 251 + 1) % 251
              ELSE ((x * x) % 1000003) % 251 END AS v
  FROM (
    SELECT d.doc_id, t_r.r, t_c.c,
           (CASE WHEN d.doc_id % 50 = 1 THEN d.doc_id - 1 ELSE d.doc_id END
              * 2654435761 + t_r.r * 40503 + t_c.c * 69427) % 1000003 AS x
    FROM documents d, range(8) t_r(r), range(9) t_c(c)
  )
),
bits AS MATERIALIZED (
  SELECT a.doc_id, CAST(a.r * 8 + a.c AS INTEGER) AS k,
         CASE WHEN a.v < b.v THEN 1 ELSE 0 END AS bit
  FROM g a JOIN g b ON b.doc_id = a.doc_id AND b.r = a.r AND b.c = a.c + 1
  WHERE a.c < 8
),
h AS MATERIALIZED (
  SELECT doc_id,
         bit_or(CASE WHEN k < 32 THEN CAST(bit AS BIGINT) << k
                     ELSE CAST(0 AS BIGINT) END) AS lo,
         bit_or(CASE WHEN k >= 32 THEN CAST(bit AS BIGINT) << (k - 32)
                     ELSE CAST(0 AS BIGINT) END) AS hi
  FROM bits GROUP BY doc_id
)
SELECT a.doc_id AS a, b.doc_id AS b
FROM h a JOIN h b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) <= 2
""",
    "simhash_pairs": """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
dup AS (
  SELECT doc_id AS id, md5(text) AS h FROM documents
  UNION ALL
  SELECT doc_id + nn.c, md5(text) FROM documents, nn
)
SELECT a.id AS a, b.id AS b
FROM dup a JOIN dup b ON a.h = b.h AND a.id < b.id
""",
    "fingerprint_dups": """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
dup AS (
  SELECT doc_id AS id, md5(text) AS h FROM documents
  UNION ALL
  SELECT doc_id + nn.c, md5(text) FROM documents, nn
)
SELECT a.id AS a, b.id AS b
FROM dup a JOIN dup b ON a.h = b.h AND a.id < b.id
""",
    "extract_docs": f"""
WITH {SQL_PAGES}
SELECT url, TRUE AS success,
       CAST(6 + CASE WHEN doc_id % 37 = 0 THEN 1 ELSE 0 END AS INT) AS n_links,
       CAST(1 + CASE WHEN doc_id % 9 = 0 THEN 3 ELSE 0 END AS INT) AS n_images
FROM purl
""",
    "ann_topk_ivf_scan": """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 5
),
scored AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                    e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM scored WHERE rank <= 10
""",
    "ann_topk_ivf": """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 5
),
scored AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                    e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank
FROM scored WHERE rank <= 10
""",
    "lang_id": r"""
WITH c AS (
  SELECT doc_id,
    len(regexp_extract_all(lower(text), '\b(the|and|of|to|in|is|that|it|for|with)\b')) AS c_en,
    len(regexp_extract_all(lower(text), '\b(le|la|les|de|des|et|est|que|une|pour)\b')) AS c_fr,
    len(regexp_extract_all(lower(text), '\b(el|la|los|de|que|y|es|en|una|por)\b')) AS c_es,
    len(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|von|den|mit|für|ein)\b')) AS c_de,
    len(regexp_extract_all(lower(text), '\b(il|la|di|che|e|per|una|sono|con|del)\b')) AS c_it
  FROM documents
)
SELECT doc_id,
  CASE WHEN greatest(c_en, c_fr, c_es, c_de, c_it) = 0 THEN 'unknown'
       WHEN c_en >= c_fr AND c_en >= c_es AND c_en >= c_de AND c_en >= c_it THEN 'en'
       WHEN c_fr >= c_es AND c_fr >= c_de AND c_fr >= c_it THEN 'fr'
       WHEN c_es >= c_de AND c_es >= c_it THEN 'es'
       WHEN c_de >= c_it THEN 'de'
       ELSE 'it' END AS lang_pred
FROM c
""",
    # best_first_order / politeness_budget: full wave-loop simulations as
    # recursive CTEs carrying (visited, pending, output) as list-typed state
    # — one row per wave. The corpus link graph is pure doc_id arithmetic
    # (sources/pages.py), so fetch, discovery, scoring (keyword-substring),
    # and the positional per-host politeness cap are all scalar SQL.
    # (DuckDB 1.0 quirk: a cross join breaks lambda binding, so N rides in
    # the recursion state instead of a joined CTE.)
    "dfs_order": r"""
WITH RECURSIVE
sim(wave, crawled, n, visited, pending, outp) AS (
  SELECT 0, 0, (SELECT COUNT(*) FROM documents),
         ['https://site0.example.com/page/0'],
         [{'nd': 0, 'u': 'https://site0.example.com/page/0', 'd': 0}],
         CAST([] AS STRUCT(u VARCHAR, w INTEGER)[])
  UNION ALL
  SELECT s.wave + 1,
         s.crawled + len(s.fetched),
         s.n,
         s.visited || s.newu,
         list_slice(s.sp, s.budget + 1, len(s.sp))
           || list_transform(s.newu, u -> {
                'nd': -list_aggregate(list_transform(list_filter(s.cands, c -> c.u = u), c -> c.d), 'min'),
                'u': u,
                'd': list_aggregate(list_transform(list_filter(s.cands, c -> c.u = u), c -> c.d), 'min')}),
         s.outp || list_transform(list_slice(s.sp, 1, s.budget), x -> {'u': x.u, 'w': s.wave})
  FROM (
    SELECT wave, crawled, n, visited, outp, sp, budget, fetched, cands,
           list_distinct(list_transform(cands, c -> c.u)) AS newu
    FROM (
      SELECT wave, crawled, n, visited, outp, sp, budget, fetched,
             list_filter(
               flatten(list_transform(list_filter(fetched, x -> x.d < 2), x ->
                 list_concat(
                   [{'u': 'https://site' || regexp_extract(x.u, 'site(\d+)', 1) || '.example.com',
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 7 = 0 THEN 0
                                ELSE ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 50 END)
                          || '.example.com/page/' || ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n),
                     'd': x.d + 1}],
                   CASE WHEN CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT) % 37 = 0
                        THEN [{'u': x.u || '?page=2', 'd': x.d + 1}]
                        ELSE CAST([] AS STRUCT(u VARCHAR, d INTEGER)[]) END))),
               c -> NOT list_contains(visited, c.u)) AS cands
      FROM (
        SELECT wave, crawled, n, visited, outp, sp,
               least(30 - crawled, len(sp)) AS budget,
               list_filter(list_slice(sp, 1, least(30 - crawled, len(sp))),
                           x -> regexp_matches(x.u, '^https://site\d+\.example\.com/page/\d+$')) AS fetched
        FROM (
          SELECT wave, crawled, n, visited, outp, list_sort(pending) AS sp
          FROM sim
          WHERE len(pending) > 0 AND crawled < 30
        )
      )
    )
  ) s
),
last AS (SELECT outp FROM sim ORDER BY wave DESC LIMIT 1),
flat AS (SELECT unnest(outp) AS r FROM last)
SELECT r.u AS url, CAST(r.w AS BIGINT) AS wave FROM flat
""",
    "best_first_order": r"""
WITH RECURSIVE
sim(wave, crawled, n, visited, pending, outp) AS (
  SELECT 0, 0, (SELECT COUNT(*) FROM documents),
         ['https://site0.example.com/page/0'],
         [{'ns': -0.0, 'd': 0, 'u': 'https://site0.example.com/page/0'}],
         CAST([] AS STRUCT(u VARCHAR, w INTEGER)[])
  UNION ALL
  SELECT s.wave + 1,
         s.crawled + len(s.fetched),
         s.n,
         s.visited || s.newu,
         list_slice(s.sp, s.budget + 1, len(s.sp))
           || list_transform(s.newu, u -> {
                'ns': -((CASE WHEN contains(lower(u), 'page/1') THEN 0.5 ELSE 0.0 END)
                       + (CASE WHEN contains(lower(u), 'page/2') THEN 0.5 ELSE 0.0 END)),
                'd': list_aggregate(list_transform(list_filter(s.cands, c -> c.u = u), c -> c.d), 'min'),
                'u': u}),
         s.outp || list_transform(list_slice(s.sp, 1, s.budget), x -> {'u': x.u, 'w': s.wave})
  FROM (
    SELECT wave, crawled, n, visited, outp, sp, budget, fetched, cands,
           list_distinct(list_transform(cands, c -> c.u)) AS newu
    FROM (
      SELECT wave, crawled, n, visited, outp, sp, budget, fetched,
             list_filter(
               flatten(list_transform(list_filter(fetched, x -> x.d < 2), x ->
                 list_concat(
                   [{'u': 'https://site' || regexp_extract(x.u, 'site(\d+)', 1) || '.example.com',
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 7 = 0 THEN 0
                                ELSE ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 50 END)
                          || '.example.com/page/' || ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n),
                     'd': x.d + 1}],
                   CASE WHEN CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT) % 37 = 0
                        THEN [{'u': x.u || '?page=2', 'd': x.d + 1}]
                        ELSE CAST([] AS STRUCT(u VARCHAR, d INTEGER)[]) END))),
               c -> NOT list_contains(visited, c.u)) AS cands
      FROM (
        SELECT wave, crawled, n, visited, outp, sp,
               least(10, 40 - crawled, len(sp)) AS budget,
               list_filter(list_slice(sp, 1, least(10, 40 - crawled, len(sp))),
                           x -> regexp_matches(x.u, '^https://site\d+\.example\.com/page/\d+$')) AS fetched
        FROM (
          SELECT wave, crawled, n, visited, outp, list_sort(pending) AS sp
          FROM sim
          WHERE len(pending) > 0 AND crawled < 40
        )
      )
    )
  ) s
),
last AS (SELECT outp FROM sim ORDER BY wave DESC LIMIT 1),
flat AS (SELECT unnest(outp) AS r FROM last)
SELECT r.u AS url, CAST(r.w AS BIGINT) AS wave FROM flat
""",
    "politeness_budget": r"""
WITH RECURSIVE
sim(wave, n, visited, pending, outp) AS (
  SELECT 0, (SELECT COUNT(*) FROM documents),
         ['https://site0.example.com/page/0', 'https://site1.example.com/page/1', 'https://site2.example.com/page/2'],
         [{'d': 0, 'u': 'https://site0.example.com/page/0'},
          {'d': 0, 'u': 'https://site1.example.com/page/1'},
          {'d': 0, 'u': 'https://site2.example.com/page/2'}],
         CAST([] AS STRUCT(u VARCHAR, w INTEGER)[])
  UNION ALL
  SELECT s.wave + 1, s.n,
         s.visited || s.newu,
         s.rejected || list_transform(s.newu, u -> {
             'd': list_aggregate(list_transform(list_filter(s.cands, c -> c.u = u), c -> c.d), 'min'),
             'u': u}),
         s.outp || list_transform(s.admitted, x -> {'u': x.u, 'w': s.wave})
  FROM (
    SELECT wave, n, visited, outp, admitted, rejected, cands,
           list_distinct(list_transform(cands, c -> c.u)) AS newu
    FROM (
      SELECT wave, n, visited, outp, admitted, rejected,
             list_filter(
               flatten(list_transform(
                 list_filter(admitted, x -> x.d < 2
                             AND regexp_matches(x.u, '^https://site\d+\.example\.com/page/\d+$')), x ->
                 list_concat(
                   [{'u': 'https://site' || regexp_extract(x.u, 'site(\d+)', 1) || '.example.com',
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+1) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 7 = 0 THEN 0
                                ELSE ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n) % 50 END)
                          || '.example.com/page/' || ((2*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+2) % n),
                     'd': x.d + 1},
                    {'u': 'https://site' ||
                          (CASE WHEN ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 7 = 0 THEN 0
                                ELSE ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n) % 50 END)
                          || '.example.com/page/' || ((7*CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT)+3) % n),
                     'd': x.d + 1}],
                   CASE WHEN CAST(regexp_extract(x.u,'page/(\d+)',1) AS BIGINT) % 37 = 0
                        THEN [{'u': x.u || '?page=2', 'd': x.d + 1}]
                        ELSE CAST([] AS STRUCT(u VARCHAR, d INTEGER)[]) END))),
               c -> NOT list_contains(visited, c.u)) AS cands
      FROM (
        SELECT wave, n, visited, outp,
               list_transform(
                 list_filter(range(1, len(sp) + 1),
                   i -> len(list_filter(list_slice(sp, 1, i - 1),
                            y -> regexp_extract(y.u, '^https://([^/]+)', 1)
                                 = regexp_extract(sp[i].u, '^https://([^/]+)', 1))) < 2),
                 i -> sp[i]) AS admitted,
               list_transform(
                 list_filter(range(1, len(sp) + 1),
                   i -> len(list_filter(list_slice(sp, 1, i - 1),
                            y -> regexp_extract(y.u, '^https://([^/]+)', 1)
                                 = regexp_extract(sp[i].u, '^https://([^/]+)', 1))) >= 2),
                 i -> sp[i]) AS rejected
        FROM (
          SELECT wave, n, visited, outp, list_sort(pending) AS sp
          FROM sim
          WHERE len(pending) > 0
        )
      )
      WHERE len(admitted) > 0
    )
  ) s
),
last AS (SELECT outp FROM sim ORDER BY wave DESC LIMIT 1),
flat AS (SELECT unnest(outp) AS r FROM last)
SELECT r.u AS url, CAST(r.w AS BIGINT) AS wave FROM flat
""",
    "triangles": r"""
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS s, (2*doc_id+1) % nn.c AS d FROM documents, nn
  UNION ALL SELECT doc_id, (2*doc_id+2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7*doc_id+3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT LEAST(s,d) AS a, GREATEST(s,d) AS b FROM child WHERE s <> d)
SELECT e1.a AS a, e1.b AS b, e2.b AS c
FROM e e1
JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
""",
    "clustering_coeff": r"""
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS s, (2*doc_id+1) % nn.c AS d FROM documents, nn
  UNION ALL SELECT doc_id, (2*doc_id+2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7*doc_id+3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT LEAST(s,d) AS a, GREATEST(s,d) AS b FROM child WHERE s <> d),
tri AS (
  SELECT e1.a AS a, e1.b AS b, e2.b AS c
  FROM e e1
  JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
),
corners AS (
  SELECT a AS node FROM tri UNION ALL SELECT b FROM tri UNION ALL SELECT c FROM tri
),
ntri AS (SELECT node, COUNT(*) AS t FROM corners GROUP BY node),
deg AS (
  SELECT node, COUNT(*) AS d
  FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
  GROUP BY node
)
SELECT deg.node,
       CAST(deg.d AS BIGINT) AS deg,
       CAST(COALESCE(ntri.t, 0) AS BIGINT) AS n_tri,
       CAST(2.0 AS DOUBLE) * CAST(COALESCE(ntri.t, 0) AS DOUBLE)
         / CAST(deg.d * (deg.d - 1) AS DOUBLE) AS coeff
FROM deg LEFT JOIN ntri USING (node)
WHERE deg.d >= 2
""",
    "bm25_topk": r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
tf AS (
  SELECT doc_id, len(t) AS dl,
         len(list_filter(t, x -> x = 'table')) AS tf0,
         len(list_filter(t, x -> x = 'scan'))  AS tf1,
         len(list_filter(t, x -> x = 'merge')) AS tf2
  FROM toks
),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(dl) AS BIGINT) AS sum_dl,
         CAST(COUNT(*) FILTER (tf0 > 0) AS BIGINT) AS df0,
         CAST(COUNT(*) FILTER (tf1 > 0) AS BIGINT) AS df1,
         CAST(COUNT(*) FILTER (tf2 > 0) AS BIGINT) AS df2
  FROM tf
),
scored AS (
  SELECT tf.doc_id,
    ROUND(
      ln((st.n_docs - st.df0 + CAST(0.5 AS DOUBLE)) / (st.df0 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf0 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf0 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df1 + CAST(0.5 AS DOUBLE)) / (st.df1 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf1 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf1 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df2 + CAST(0.5 AS DOUBLE)) / (st.df2 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf2 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf2 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    , 8) AS score
  FROM tf, st
)
SELECT doc_id, score FROM scored ORDER BY score DESC, doc_id LIMIT 10
""",
    "top_k_relevant": r"""
WITH s AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
scored AS (
  SELECT doc_id,
         len(list_filter(t, x -> x = 'table')) AS c1,
         len(list_filter(t, x -> x = 'scan')) AS c2,
         len(list_filter(t, x -> x = 'merge')) AS c3,
         greatest(len(t), 1) AS n
  FROM s
)
SELECT doc_id FROM scored
ORDER BY (CAST(c1 AS DOUBLE) / n + CAST(c2 AS DOUBLE) / n + CAST(c3 AS DOUBLE) / n) DESC,
         doc_id
LIMIT 10
""",
    "link_preview": f"""
WITH {SQL_PAGES}, {SQL_EDGES}
SELECT e.src, e.dst, 'Page ' || u2.doc_id || ' — ' || u2.host AS dst_title
FROM edges e JOIN purl u2 ON u2.url = e.dst
""",
    "link_preview_filtered": f"""
WITH {SQL_PAGES}, {SQL_EDGES},
f AS (SELECT src, dst FROM edges WHERE dst NOT LIKE '%/page/1%'),
r AS (
  SELECT src, dst, ROW_NUMBER() OVER (PARTITION BY src ORDER BY dst) AS rn
  FROM f
)
SELECT r.src, r.dst, 'Page ' || u2.doc_id || ' — ' || u2.host AS dst_title
FROM r JOIN purl u2 ON u2.url = r.dst
WHERE r.rn <= 5
""",
    "schema_extract": f"""
WITH {SQL_PAGES}
SELECT url, 'Page ' || doc_id AS h1 FROM purl
""",
    "regex_extract": f"""
WITH {SQL_PAGES}
SELECT url, 'sample_' || doc_id AS value FROM purl WHERE doc_id % 7 = 0
""",
    "sessionize": """
SELECT event_id, user_id,
       CAST(SUM(new_sess) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS session_idx
FROM (
  SELECT event_id, user_id, ts,
         CASE WHEN LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   IS NULL THEN 1
              WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > INTERVAL 30 MINUTE THEN 1
              ELSE 0 END AS new_sess
  FROM events
)
""",
    "events_hopping": r"""
WITH starts AS (
  SELECT time_bucket(INTERVAL 30 MINUTE, ts) AS window_start, event_type FROM events
  UNION ALL
  SELECT time_bucket(INTERVAL 30 MINUTE, ts) - INTERVAL 30 MINUTE, event_type FROM events
)
SELECT window_start, event_type, CAST(COUNT(*) AS BIGINT) AS n_events
FROM starts GROUP BY 1, 2
""",
    "chunk_counts": r"""
WITH toks AS (
  SELECT doc_id,
         len(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS n
  FROM documents
)
SELECT doc_id,
       CAST(CASE WHEN n = 0 THEN 0
                 WHEN n <= 100 THEN 1
                 ELSE (n - 100) // 50 + 1 END AS BIGINT) AS n_chunks
FROM toks
""",
    "events_window": """
SELECT date_trunc('hour', ts) AS window_start, event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY 1, 2
""",
    "asof_orders": """
WITH r AS (
  SELECT o_custkey, o_orderdate, max(o_totalprice) AS best_price
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id, r.best_price
FROM events e ASOF LEFT JOIN r
  ON e.user_id = r.o_custkey AND r.o_orderdate <= e.ts
""",
    "range_events": """
SELECT l.event_id,
       CAST(COUNT(*) AS BIGINT) AS n_window,
       ROUND(SUM(r.value), 6) AS sum_value
FROM events l
JOIN events r
  ON l.user_id = r.user_id
 AND l.ts >= r.ts
 AND l.ts <  r.ts + INTERVAL 1 HOUR
GROUP BY l.event_id
""",
    "top_orders_per_cust": """
SELECT o_custkey, o_orderkey, o_totalprice, rank FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         ROW_NUMBER() OVER (
           PARTITION BY o_custkey
           ORDER BY o_totalprice DESC, o_orderkey
         ) AS rank
  FROM orders
) WHERE rank <= 3
""",
    "orders_per_nation": """
SELECT n_name, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n_name
""",
    "qty_by_flag": """
SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
       CAST(COUNT(*) AS BIGINT) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
""",
}

