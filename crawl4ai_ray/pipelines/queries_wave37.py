"""Thirty-seventh-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. trustrank_delta nests BOTH the
pagerank and personalized_pagerank oracle texts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# trustrank_delta — spam signal: global PageRank vs seed-trust rank
# ---------------------------------------------------------------------------

_TD_TOP = 20


def q_trustrank_delta(sf_dir: str):
    """The TrustRank spam screen (Gyöngyi, Garcia-Molina & Pedersen
    2004): run global PageRank AND seed-personalized PageRank (restart
    mass on the trusted seeds {0,1,2}) on the same graph, and flag the
    nodes with the largest (pagerank − trustrank) gap — pages that are
    popular by raw link mass yet unreachable from trust, the classic
    link-farm fingerprint. Output: top-20 by quantized delta.

    Exactness: both rank vectors are compared at the proven ROUND(8)
    ×1e8 integer quantization; the delta and its ordering are pure
    integers. Distributed shape: two power iterations (the existing
    pagerank stage), one bucketed attach to co-locate the vectors, one
    sort+limit.
    """
    from ..stages.graph import attach_node_value, pagerank

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (2 * ids + 2) % n
        d3 = (7 * ids + 3) % n
        dup3 = (d3 == d1) | (d3 == d2)
        outdeg = 3.0 - dup3.astype(np.float64)
        w = 1.0 / outdeg
        keep3 = ~dup3
        return pa.table(
            {
                "src": pa.array(np.concatenate([ids, ids, ids[keep3]]), pa.int64()),
                "dst": pa.array(np.concatenate([d1, d2, d3[keep3]]), pa.int64()),
                "w": pa.array(np.concatenate([w, w, w[keep3]]), pa.float64()),
            }
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")

    def q8(ds):
        def f(batch: pa.Table) -> pa.Table:
            r = batch.column("rank").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": batch.column("node").cast(pa.int64()),
                    "q8": pa.array(
                        np.floor(np.round(r, 8) * 1e8 + 0.5).astype(np.int64),
                        pa.int64(),
                    ),
                }
            )

        return ds.map_batches(f, batch_format="pyarrow")

    pr = q8(pagerank(nodes, edges, n_iters=5, damping=0.85)).materialize()
    tr = q8(
        pagerank(nodes, edges, n_iters=5, damping=0.85, seeds=[0, 1, 2])
    ).materialize()

    joined = attach_node_value(
        pr, tr, key_col="node", out_col="tr_q8", schema_cols=["node", "q8"]
    )

    def delta(batch: pa.Table) -> pa.Table:
        p = batch.column("q8").to_numpy(zero_copy_only=False)
        t = batch.column("tr_q8").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": batch.column("node").cast(pa.int64()),
                "pr_q8": pa.array(p, pa.int64()),
                "tr_q8": pa.array(t, pa.int64()),
                "delta_q8": pa.array(p - t, pa.int64()),
                "neg": pa.array(t - p, pa.int64()),
            }
        )

    return (
        joined.map_batches(delta, batch_format="pyarrow")
        .sort(["neg", "node"])
        .limit(_TD_TOP)
        .select_columns(["node", "pr_q8", "tr_q8", "delta_q8"])
    )


def _sql_trustrank_delta(oracles: dict) -> str:
    return f"""
WITH pr AS MATERIALIZED ({oracles["pagerank"].strip()}),
tr AS MATERIALIZED ({oracles["personalized_pagerank"].strip()}),
q AS (
  SELECT pr.node,
         CAST(floor(pr.rank * 1e8 + 5e-1) AS BIGINT) AS pr_q8,
         CAST(floor(tr.rank * 1e8 + 5e-1) AS BIGINT) AS tr_q8
  FROM pr JOIN tr ON tr.node = pr.node
)
SELECT node, pr_q8, tr_q8, pr_q8 - tr_q8 AS delta_q8
FROM q ORDER BY delta_q8 DESC, node LIMIT {_TD_TOP}
"""


# ---------------------------------------------------------------------------
# markov_next_eval — next-event prediction accuracy of the Markov model
# ---------------------------------------------------------------------------


def q_markov_next_eval(sf_dir: str):
    """Held-out evaluation of the first-order Markov next-event
    predictor: the transition matrix is trained on EVEN user_ids'
    consecutive event pairs (per-user arrival order), the predictor is
    argmax over the trained row (ties → type ASC), and accuracy is
    measured on ODD users — per previous-type rows (prev, n_eval,
    n_correct, accuracy). The train/test split makes this the honest
    eval of event_transitions' matrix, not an in-sample readback.

    Distributed shape: consecutive pairs come from the sessionize plan
    (hash(user)-bucket groupby, vectorized per-bucket lag — never one
    unit per user); the trained matrix (|types|² rows) broadcasts for
    the eval map; ONE groupby(prev) closes it.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(uid % 32, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    tagged = ev.map_batches(tag, batch_format="pyarrow")

    def pairs(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")]
        )
        uarr = g.column("user_id").to_numpy(zero_copy_only=False)
        earr = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        same = uarr[1:] == uarr[:-1]
        prev = earr[:-1][same]
        nxt = earr[1:][same]
        users = uarr[1:][same]
        return pa.table(
            {
                "train": pa.array(
                    (users % 2 == 0).astype(np.int64), pa.int64()
                ),
                "prev": pa.array(list(prev), pa.string()),
                "nxt": pa.array(list(nxt), pa.string()),
            }
        )

    pr = (
        tagged.groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
        .materialize()
    )

    trans = (
        pr.groupby(["train", "prev", "nxt"])
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: (train × state × state) transition cells
    )
    # trained argmax row per prev (ties -> smaller type)
    best: dict[str, tuple] = {}
    for r in trans:
        if int(r["train"]) != 1:
            continue
        k = r["prev"]
        cand = (-int(r["c"]), r["nxt"])
        if k not in best or cand < best[k]:
            best[k] = cand
    pred = {k: v[1] for k, v in best.items()}

    out = {}
    for r in trans:
        if int(r["train"]) != 0:
            continue
        p = r["prev"]
        if p not in pred:
            continue  # unseen context in training: skipped (mirrored)
        n, c = out.get(p, (0, 0))
        hit = int(r["c"]) if r["nxt"] == pred[p] else 0
        out[p] = (n + int(r["c"]), c + hit)
    ks = sorted(out)
    return pa.table(
        {
            "prev": pa.array(ks, pa.string()),
            "predicted": pa.array([pred[k] for k in ks], pa.string()),
            "n_eval": pa.array([out[k][0] for k in ks], pa.int64()),
            "n_correct": pa.array([out[k][1] for k in ks], pa.int64()),
            "accuracy": pa.array(
                [float(out[k][1]) / float(out[k][0]) for k in ks],
                pa.float64(),
            ),
        }
    )


SQL_MARKOV_NEXT_EVAL = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
prs AS (
  SELECT user_id % 2 = 0 AS train, prev, event_type AS nxt
  FROM seq WHERE prev IS NOT NULL
),
tr AS (
  SELECT prev, nxt, CAST(COUNT(*) AS BIGINT) AS c
  FROM prs WHERE train GROUP BY prev, nxt
),
pred AS (
  SELECT prev, nxt AS predicted FROM (
    SELECT prev, nxt,
           row_number() OVER (PARTITION BY prev ORDER BY c DESC, nxt) AS rn
    FROM tr
  ) WHERE rn = 1
),
ev AS (
  SELECT p.prev, pred.predicted,
         CAST(COUNT(*) AS BIGINT) AS n_eval,
         CAST(SUM(CASE WHEN p.nxt = pred.predicted THEN 1 ELSE 0 END)
              AS BIGINT) AS n_correct
  FROM prs p JOIN pred ON pred.prev = p.prev
  WHERE NOT p.train
  GROUP BY p.prev, pred.predicted
)
SELECT prev, predicted, n_eval, n_correct,
       CAST(n_correct AS DOUBLE) / CAST(n_eval AS DOUBLE) AS accuracy
FROM ev
"""


# ---------------------------------------------------------------------------
# deleted_interpolation — Jelinek-Mercer lambda via 3 EM iterations
# ---------------------------------------------------------------------------

_DI_ITERS = 3


def q_deleted_interpolation(sf_dir: str, small_threshold: int = 200_000):
    """Jelinek–Mercer deleted interpolation: tune the bigram/unigram
    mixture weight λ of P(w2|w1) = λ·P_bigram + (1−λ)·P_unigram by EM
    on held-out data (train = even doc_ids, held-out = odd), 3
    iterations from λ=0.5 — the classic smoothing-weight estimator
    (Jelinek & Mercer 1980) behind every interpolated n-gram LM.
    Output: per iteration (iter, n_used, sum_respq, lambda_out).

    Exactness: per-token EM responsibilities are computed with
    identical doubles (both P's are single divisions of exact counts;
    λ enters as the same double on both engines), quantized ×1e12, and
    integer-summed — λ_{t+1} = Σrespq / (n·1e12) is the one mirrored
    division per iteration.

    Distributed shape (r5 — closes the r4 VERDICT deleted-interpolation
    driver fold): train counts = groupbys that STAY distributed; the
    held-out probes pick up c_bigram / c_w1 / c_unigram via THREE
    broadcast-free LEFT ``bucketed_lookup_join``s (union+bucketed-
    groupby, no vocabulary table ever materializes on the driver); the
    per-pair (pb, pu) probability table is computed once, materialized
    in the object store, and each EM pass is one map over it + a
    ≤ num_blocks scalar fold. Driver state: scalars only.

    Dual-path (the pagerank/graph small_threshold doctrine, r5): when
    the distinct (half, w1, w2) bigram table is ≤ ``small_threshold``
    rows, the EM folds locally on the driver — a BOUNDED collect (the
    guard is the bound), bit-identical to the distributed path
    (parity test-locked). At scale the guard fails and the
    broadcast-free join plan runs; at toy scale this avoids paying 3
    bucketed all-to-alls of fixed Ray cost (~7 s at sf0.01) for a
    table the driver folds in milliseconds.
    """
    import pyarrow.compute as pc

    from ..stages.agg import bucketed_lookup_join
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def bigram_partial(batch: pa.Table) -> pa.Table:
        cnt: dict[tuple, int] = {}
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (t or "").split()
            half = did % 2
            for i in range(len(toks) - 1):
                k = (half, toks[i], toks[i + 1])
                cnt[k] = cnt.get(k, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "half": pa.array([k[0] for k in ks], pa.int64()),
                "w1": pa.array([k[1] for k in ks], pa.string()),
                "w2": pa.array([k[2] for k in ks], pa.string()),
                "c": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    big = (
        docs.map_batches(bigram_partial, batch_format="pyarrow")
        .groupby(["half", "w1", "w2"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .materialize()
    )

    import math

    if small_threshold and big.count() <= small_threshold:
        # bounded: ≤ small_threshold rows by the guard above — the
        # driver-local EM fold, bit-identical to the distributed path
        rows = big.take_all()
        c_bi: dict[tuple, int] = {}
        c_w1: dict[str, int] = {}
        c_u: dict[str, int] = {}
        n_tr = 0
        held: dict[tuple, int] = {}
        for r in rows:
            k = (r["w1"], r["w2"])
            c = int(r["c"])
            if int(r["half"]) == 0:
                c_bi[k] = c_bi.get(k, 0) + c
                c_w1[r["w1"]] = c_w1.get(r["w1"], 0) + c
                c_u[r["w2"]] = c_u.get(r["w2"], 0) + c
                n_tr += c
            else:
                held[k] = held.get(k, 0) + c
        lam = 0.5
        out = {"iter": [], "n_used": [], "sum_respq": [], "lambda_out": []}
        for it in range(1, _DI_ITERS + 1):
            s_q = 0
            n_used = 0
            for (w1, w2), c in sorted(held.items()):
                cw1 = c_w1.get(w1, 0)
                pb = float(c_bi.get((w1, w2), 0)) / float(cw1) if cw1 else 0.0
                pu = float(c_u.get(w2, 0)) / float(n_tr) if n_tr else 0.0
                den = lam * pb + (1.0 - lam) * pu
                if den == 0.0:
                    continue
                resp = lam * pb / den
                s_q += math.floor(resp * 1e12 + 0.5) * c
                n_used += c
            lam = float(s_q) / (float(n_used) * 1e12)
            out["iter"].append(it)
            out["n_used"].append(n_used)
            out["sum_respq"].append(s_q)
            out["lambda_out"].append(lam)
        return pa.table(
            {
                "iter": pa.array(out["iter"], pa.int64()),
                "n_used": pa.array(out["n_used"], pa.int64()),
                "sum_respq": pa.array(out["sum_respq"], pa.int64()),
                "lambda_out": pa.array(out["lambda_out"], pa.float64()),
            }
        )

    def _half(h: int):
        def take(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b.column("half"), h))
            bk = pc.binary_join_element_wise(
                b.column("w1"), b.column("w2"), "\x00"
            )
            return pa.table(
                {
                    "bk": bk,
                    "w1": b.column("w1"),
                    "w2": b.column("w2"),
                    "c": b.column("c"),
                }
            )

        return take

    trb = big.map_batches(_half(0), batch_format="pyarrow").materialize()
    ho = big.map_batches(_half(1), batch_format="pyarrow")
    n_tr = int(trb.sum("c") or 0)
    trw1 = trb.groupby("w1").aggregate(
        ray.data.aggregate.Sum("c", alias_name="c_w1")
    )
    tru = trb.groupby("w2").aggregate(
        ray.data.aggregate.Sum("c", alias_name="c_u")
    )
    # three broadcast-free LEFT lookups: held probes may lack train rows
    j = bucketed_lookup_join(ho, trb, "bk", "c", out_col="c_bi", left=True)
    j = bucketed_lookup_join(j, trw1, "w1", "c_w1", left=True)
    j = bucketed_lookup_join(j, tru, "w2", "c_u", left=True)

    def to_probs(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        cbi = b.column("c_bi").fill_null(0).to_numpy(zero_copy_only=False)
        cw1 = b.column("c_w1").fill_null(0).to_numpy(zero_copy_only=False)
        cu = b.column("c_u").fill_null(0).to_numpy(zero_copy_only=False)
        # identical doubles to the scalar fold: one division each
        pb = np.where(
            cw1 > 0, cbi.astype(np.float64) / np.where(cw1 > 0, cw1, 1), 0.0
        )
        pu = (
            cu.astype(np.float64) / float(n_tr)
            if n_tr
            else np.zeros(len(cu))
        )
        return pa.table(
            {
                "c": pa.array(c, pa.int64()),
                "pb": pa.array(pb, pa.float64()),
                "pu": pa.array(pu, pa.float64()),
            }
        )

    probs = j.map_batches(to_probs, batch_format="pyarrow").materialize()

    import math

    lam = 0.5
    out = {"iter": [], "n_used": [], "sum_respq": [], "lambda_out": []}
    for it in range(1, _DI_ITERS + 1):
        lam_now = lam

        def em_partial(b: pa.Table) -> pa.Table:
            c = b.column("c").to_numpy(zero_copy_only=False)
            pb = b.column("pb").to_numpy(zero_copy_only=False)
            pu = b.column("pu").to_numpy(zero_copy_only=False)
            den = lam_now * pb + (1.0 - lam_now) * pu
            mask = den != 0.0
            resp = np.where(mask, (lam_now * pb) / np.where(mask, den, 1.0), 0.0)
            respq = np.floor(resp * 1e12 + 0.5).astype(np.int64) * c
            return pa.table(
                {
                    "sq": pa.array([int(respq[mask].sum())], pa.int64()),
                    "nu": pa.array([int(c[mask].sum())], pa.int64()),
                }
            )

        parts = probs.map_batches(
            em_partial, batch_format="pyarrow"
        ).take_all()  # bounded: one scalar row per block
        s_q = sum(int(r["sq"]) for r in parts)
        n_used = sum(int(r["nu"]) for r in parts)
        lam = float(s_q) / (float(n_used) * 1e12)
        out["iter"].append(it)
        out["n_used"].append(n_used)
        out["sum_respq"].append(s_q)
        out["lambda_out"].append(lam)
    return pa.table(
        {
            "iter": pa.array(out["iter"], pa.int64()),
            "n_used": pa.array(out["n_used"], pa.int64()),
            "sum_respq": pa.array(out["sum_respq"], pa.int64()),
            "lambda_out": pa.array(out["lambda_out"], pa.float64()),
        }
    )


def _sql_deleted_interpolation() -> str:
    head = r"""WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
bg AS MATERIALIZED (
  SELECT doc_id % 2 AS half, t[i] AS w1, t[i + 1] AS w2,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 1)) AS s(i)
  GROUP BY doc_id % 2, t[i], t[i + 1]
),
trb AS MATERIALIZED (SELECT w1, w2, SUM(c) AS c FROM bg WHERE half = 0 GROUP BY w1, w2),
trw1 AS MATERIALIZED (SELECT w1, SUM(c) AS c FROM trb GROUP BY w1),
tru AS MATERIALIZED (SELECT w2, SUM(c) AS c FROM trb GROUP BY w2),
ntr AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM trb),
ho AS MATERIALIZED (
  SELECT bg.w1, bg.w2, SUM(bg.c) AS c FROM bg WHERE half = 1 GROUP BY bg.w1, bg.w2
),
pp AS MATERIALIZED (
  SELECT ho.w1, ho.w2, ho.c,
         CASE WHEN trw1.c IS NULL THEN 0e0
              ELSE CAST(COALESCE(trb.c, 0) AS DOUBLE) / CAST(trw1.c AS DOUBLE)
         END AS pb,
         CAST(COALESCE(tru.c, 0) AS DOUBLE) / CAST(ntr.n AS DOUBLE) AS pu
  FROM ho
  LEFT JOIN trb ON trb.w1 = ho.w1 AND trb.w2 = ho.w2
  LEFT JOIN trw1 ON trw1.w1 = ho.w1
  LEFT JOIN tru ON tru.w2 = ho.w2
  CROSS JOIN ntr
)"""
    parts = [head]
    lam_expr = "CAST(0.5 AS DOUBLE)"
    for it in range(1, _DI_ITERS + 1):
        parts.append(
            f""",
em{it} AS MATERIALIZED (
  SELECT CAST(SUM(CAST(floor({lam_expr} * pb
                             / ({lam_expr} * pb
                                + (CAST(1.0 AS DOUBLE) - {lam_expr}) * pu)
                             * 1e12 + 5e-1) AS BIGINT) * c) AS BIGINT)
           AS sum_respq,
         CAST(SUM(c) AS BIGINT) AS n_used
  FROM pp
  WHERE {lam_expr} * pb + (CAST(1.0 AS DOUBLE) - {lam_expr}) * pu <> 0e0
)"""
        )
        lam_expr = (
            f"(SELECT CAST(sum_respq AS DOUBLE) / (CAST(n_used AS DOUBLE) * 1e12) FROM em{it})"
        )
    sels = "\nUNION ALL\n".join(
        f"""SELECT CAST({it} AS BIGINT) AS iter, n_used, sum_respq,
       CAST(sum_respq AS DOUBLE) / (CAST(n_used AS DOUBLE) * 1e12)
         AS lambda_out
FROM em{it}"""
        for it in range(1, _DI_ITERS + 1)
    )
    return "".join(parts) + "\n" + sels
