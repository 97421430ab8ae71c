/* Native bucket-queue peeling kernels (the compiled tier's C backend).
 *
 * Compiled at runtime by repro.kernels._cext with the system C
 * toolchain and loaded through ctypes; repro.kernels.native falls back
 * to the numpy kernels when no compiler is available.  One intrusive
 * doubly-linked bucket list per degree structure, frontier computed
 * from pass-start degrees, sequential cascade decrements in ascending
 * node order (the python engine's kill order) — so node sets, pass
 * counts, and integer trace fields are identical to the python/numpy
 * tiers and float fields agree to reassociation noise (exactly, for
 * dyadic weights).
 *
 * The same library holds the stable O(m) sorts behind the MapReduce
 * shuffle/group-by and the shard CSR fill (stable_argsort_i64,
 * csr_fill, csr_sort_rows; see their section at the end).
 *
 * Every function returns 0 on success; the peels return 1 when the
 * caller-provided trace buffer is too small (the caller doubles it and
 * reruns), the sorts and fills the status codes documented there.
 * Scratch arrays (bucket links, frontier, sort buffers) are allocated
 * by the caller so the kernels perform no allocation at all.  The
 * frontier array must hold 2n int32 entries: the first n are the pass
 * frontier, the upper n hold the pending-relink list (neighbors whose
 * bucket move is deferred to the end of the pass so each costs one
 * relink per pass instead of one per lost edge).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define TRACE_OVERFLOW 1

/* bucket_of doubles as the liveness word so the kill loops touch two
 * arrays per neighbor (deg, bucket_of) instead of three:
 *   >= 0       alive, linked in that bucket
 *   -2 - b     alive, pending relink out of bucket b (flushed at pass end)
 *   QUEUED     alive, unlinked into this pass's frontier, not yet killed
 *   -1         dead
 * A node is alive iff bucket_of != -1; the alive/in_s/in_t byte
 * arrays are still written (they feed the best-snapshot memcpys and
 * the caller's result decode) but never read on the hot path. */
#define QUEUED INT32_MIN

/* ------------------------------------------------------------------ */
/* Bucket list primitives: head[b] / nxt[i] / prv[i] intrusive lists. */
/* ------------------------------------------------------------------ */

/* Bucket placement multiplies by a precomputed 1/width instead of
 * dividing.  The map stays monotone in `value` (IEEE multiply plus
 * truncation), which is the only property correctness needs: every
 * node with deg <= cutoff sits in a bucket <= bucket(cutoff), because
 * both sides go through the same function.  Which bucket a node lands
 * in never affects results — frontier collection re-checks deg
 * against the cutoff. */
static inline int64_t bucket_index(double value, double inv_width, int64_t nb) {
    int64_t b = (int64_t)(value * inv_width); /* truncation, like the numpy tier */
    if (b < 0)
        b = 0;
    else if (b > nb - 1)
        b = nb - 1;
    return b;
}

static inline void list_unlink(int32_t i, int32_t b, int32_t *head, int32_t *nxt,
                               int32_t *prv) {
    int32_t p = prv[i], x = nxt[i];
    if (p >= 0)
        nxt[p] = x;
    else
        head[b] = x;
    if (x >= 0)
        prv[x] = p;
}

static inline void list_push(int32_t i, int64_t b, int32_t *head, int32_t *nxt,
                             int32_t *prv, int32_t *bucket_of) {
    prv[i] = -1;
    nxt[i] = head[b];
    if (head[b] >= 0)
        prv[head[b]] = i;
    head[b] = (int32_t)i;
    bucket_of[i] = (int32_t)b;
}

/* Returns 1/width for use with bucket_index. */
static double build_buckets(const double *deg, const uint8_t *member, int64_t n,
                            int64_t nb, int32_t *head, int32_t *nxt, int32_t *prv,
                            int32_t *bucket_of) {
    double vmax = 0.0;
    for (int64_t i = 0; i < n; i++)
        if ((member == 0 || member[i]) && deg[i] > vmax)
            vmax = deg[i];
    double width = vmax > 0.0 ? vmax / (double)nb : 1.0;
    double inv_width = 1.0 / width;
    for (int64_t b = 0; b < nb; b++)
        head[b] = -1;
    /* Push in descending node order so each list reads in ascending
     * order — keeps frontier collection nearly sorted. */
    for (int64_t i = n - 1; i >= 0; i--) {
        if (member != 0 && !member[i]) {
            bucket_of[i] = -1;
            continue;
        }
        list_push((int32_t)i, bucket_index(deg[i], inv_width, nb), head, nxt,
                  prv, bucket_of);
    }
    return inv_width;
}

/* Deferred relink: the kill loops mark a decremented neighbor once by
 * encoding its current bucket as (-2 - b) in bucket_of and appending
 * it to `pending`; this flushes the marks, moving each node to its
 * final bucket for the pass.  Degrees only decrease, so the target
 * bucket is never above the recorded one. */
static void flush_pending(const double *deg, const int32_t *pending,
                          int64_t count, double inv_width, int64_t nb,
                          int32_t *head, int32_t *nxt, int32_t *prv,
                          int32_t *bucket_of) {
    for (int64_t t = 0; t < count; t++) {
        int32_t j = pending[t];
        int32_t b_old = (int32_t)(-2 - bucket_of[j]);
        int64_t tb = bucket_index(deg[j], inv_width, nb);
        if (tb < b_old) {
            list_unlink(j, b_old, head, nxt, prv);
            list_push(j, tb, head, nxt, prv, bucket_of);
        } else {
            bucket_of[j] = b_old;
        }
    }
}

/* (key[id], id) strict-weak-order comparison; key == NULL compares
 * ids alone.  Node ids are distinct, so this is a strict total order. */
static inline int id_less(int32_t a, int32_t b, const double *key) {
    if (key) {
        double ka = key[a], kb = key[b];
        if (ka < kb)
            return 1;
        if (ka > kb)
            return 0;
    }
    return a < b;
}

static void insertion_sort_ids(int32_t *ids, int64_t lo, int64_t hi,
                               const double *key) {
    for (int64_t a = lo + 1; a <= hi; a++) {
        int32_t v = ids[a];
        int64_t b = a - 1;
        while (b >= lo && id_less(v, ids[b], key)) {
            ids[b + 1] = ids[b];
            b--;
        }
        ids[b + 1] = v;
    }
}

/* Insertion + explicit-stack quicksort of ids by (key[id], id); with
 * key == NULL sorts by id alone.  No libc qsort: the comparator would
 * need global state, and these calls run with the GIL released.  The
 * smaller partition is pushed and the larger looped, bounding the
 * stack depth by log2(len) < 64.
 *
 * Only positions [0, limit) end up sorted: partitions entirely to the
 * right of `limit` can never move an element into the prefix once the
 * pivot split proves every element there is >= everything before it,
 * so they are skipped.  Since (key, id) is a strict total order the
 * prefix is exactly the `limit` smallest elements in order — callers
 * that consume only the first `limit` entries (the at-least-k batch)
 * see results identical to a full sort.  limit >= len is a full
 * sort. */
static void sort_ids_prefix(int32_t *ids, int64_t len, const double *key,
                            int64_t limit) {
    int64_t stack[128][2];
    int64_t top = 0;
    if (len < 2 || limit <= 0)
        return;
    stack[top][0] = 0;
    stack[top][1] = len - 1;
    top++;
    while (top > 0) {
        top--;
        int64_t lo = stack[top][0], hi = stack[top][1];
        while (lo < hi) {
            if (lo >= limit)
                break;
            if (hi - lo < 24) {
                insertion_sort_ids(ids, lo, hi, key);
                break;
            }
            /* median-of-three pivot (an element actually in range, so
             * both partition scans terminate at it) */
            int64_t mid = lo + (hi - lo) / 2;
            int32_t a = ids[lo], b = ids[mid], c = ids[hi];
            int32_t pv;
            if (id_less(a, b, key))
                pv = id_less(b, c, key) ? b : (id_less(a, c, key) ? c : a);
            else
                pv = id_less(a, c, key) ? a : (id_less(b, c, key) ? c : b);
            int64_t i = lo, j = hi;
            while (i <= j) {
                while (id_less(ids[i], pv, key))
                    i++;
                while (id_less(pv, ids[j], key))
                    j--;
                if (i <= j) {
                    int32_t t = ids[i];
                    ids[i] = ids[j];
                    ids[j] = t;
                    i++;
                    j--;
                }
            }
            if (j - lo < hi - i) { /* left smaller: push it, loop right */
                if (lo < j) {
                    if (top < 128) {
                        stack[top][0] = lo;
                        stack[top][1] = j;
                        top++;
                    } else {
                        insertion_sort_ids(ids, lo, j, key);
                    }
                }
                lo = i;
            } else { /* right smaller: push it, loop left */
                if (i < hi && i < limit) {
                    if (top < 128) {
                        stack[top][0] = i;
                        stack[top][1] = hi;
                        top++;
                    } else {
                        insertion_sort_ids(ids, i, hi, key);
                    }
                }
                hi = j;
            }
        }
    }
}

static void sort_ids(int32_t *ids, int64_t len, const double *key) {
    sort_ids_prefix(ids, len, key, len);
}

/* Frontier ordering for the threshold peels: quicksort when the
 * frontier is small, otherwise rebuild it in ascending id order with
 * one sequential scan for the QUEUED marker (set by this pass's
 * collection; cleared to dead when the node is killed).  Both produce
 * the identical ascending sequence — ids are distinct — so the kill
 * order never depends on which path ran. */
static void order_frontier(int32_t *frontier, int64_t r, int64_t n,
                           const int32_t *bucket_of) {
    if (r >= 64 && r >= (n >> 5)) {
        int64_t r2 = 0;
        for (int64_t i = 0; i < n; i++)
            if (bucket_of[i] == QUEUED)
                frontier[r2++] = i;
    } else {
        sort_ids(frontier, r, 0);
    }
}

/* ------------------------------------------------------------------ */
/* Algorithm 1: undirected peel.                                      */
/* ------------------------------------------------------------------ */

int repro_peel_undirected(
    const int32_t *indptr, const int32_t *indices, const double *weights,
    int64_t n, double total_weight, double factor, double eps_slack,
    int64_t max_passes, int64_t nb, double *deg, uint8_t *alive,
    uint8_t *best_alive, int32_t *bucket_of, int32_t *nxt, int32_t *prv,
    int32_t *head, int32_t *frontier, double *trace, int64_t trace_cap,
    double *out_best_density, int64_t *out_best_pass, int64_t *out_passes) {
    double inv_width = build_buckets(deg, 0, n, nb, head, nxt, prv, bucket_of);
    int32_t *pending = frontier + n;
    int64_t remaining = n;
    double W = total_weight;
    int64_t E = (int64_t)indptr[n] / 2; /* edges induced by S, exact */
    double best_density = n > 0 ? W / (double)n : 0.0;
    int64_t best_pass = 0;
    int64_t passes = 0;

    while (remaining > 0) {
        if (max_passes >= 0 && passes >= max_passes)
            break;
        if (passes >= trace_cap) {
            *out_passes = passes;
            return TRACE_OVERFLOW;
        }
        passes++;
        double density = W / (double)remaining;
        double threshold = factor * density;
        /* Every member of an edgeless S clears the cutoff (python:
         * _tolerances.peel_cutoff), so float residue left in deg/W by
         * non-dyadic weights cannot stall the loop. */
        double cutoff = E > 0 ? threshold + eps_slack : INFINITY;
        int64_t bstar = E > 0 ? bucket_index(cutoff, inv_width, nb) : nb - 1;
        int64_t nodes_before = remaining;
        double weight_before = W;

        /* Phase A: frontier from pass-start degrees (intra-pass
         * decrements must not trigger same-pass removals). */
        int64_t r = 0;
        for (int64_t b = 0; b <= bstar; b++) {
            int32_t i = head[b];
            while (i >= 0) {
                int32_t next = nxt[i];
                if (deg[i] <= cutoff) {
                    list_unlink(i, (int32_t)b, head, nxt, prv);
                    bucket_of[i] = QUEUED;
                    frontier[r++] = i;
                }
                i = next;
            }
        }
        /* ascending: the python kill order */
        order_frontier(frontier, r, n, bucket_of);

        /* Phase B: sequential kills; each edge internal to the
         * frontier is subtracted exactly once (when its first
         * endpoint dies, the second is still alive: bucket_of != -1).
         * Bucket moves are deferred to flush_pending — frontier
         * membership is fixed at pass start, so mid-pass bucket
         * staleness is unobservable. */
        int64_t pcount = 0;
        for (int64_t t = 0; t < r; t++) {
            int32_t i = frontier[t];
            alive[i] = 0;
            bucket_of[i] = -1;
            /* per-node accumulator: keeps the global W update off the
             * per-edge FP dependency chain (dyadic-exact regrouping) */
            double lost = 0.0;
            int64_t lost_edges = 0;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
                int32_t j = indices[p];
                int32_t bj = bucket_of[j];
                /* branchless alive-test: a dead neighbour (bj == -1)
                 * contributes exactly 0.0, so the subtraction runs
                 * unconditionally and the poorly-predicted branch
                 * leaves the edge-visit path */
                int64_t live = bj != -1;
                double w = weights[p] * (double)live;
                lost += w;
                lost_edges += live;
                deg[j] -= w;
                if (bj >= 0) {
                    bucket_of[j] = -2 - bj;
                    pending[pcount++] = j;
                }
            }
            W -= lost;
            E -= lost_edges;
        }
        flush_pending(deg, pending, pcount, inv_width, nb, head, nxt, prv,
                      bucket_of);
        if (E == 0)
            W = 0.0;
        remaining -= r;
        double density_after = remaining > 0 ? W / (double)remaining : 0.0;
        double *row = trace + (passes - 1) * 8;
        row[0] = (double)nodes_before;
        row[1] = weight_before;
        row[2] = density;
        row[3] = threshold;
        row[4] = (double)r;
        row[5] = (double)remaining;
        row[6] = W;
        row[7] = density_after;
        if (density_after > best_density) {
            best_density = density_after;
            best_pass = passes;
            memcpy(best_alive, alive, (size_t)n);
        }
    }
    *out_best_density = best_density;
    *out_best_pass = best_pass;
    *out_passes = passes;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Algorithm 2: at-least-k peel (lowest-degree batch per pass).       */
/* ------------------------------------------------------------------ */

int repro_peel_atleast_k(
    const int32_t *indptr, const int32_t *indices, const double *weights,
    int64_t n, double total_weight, double factor, double batch_fraction,
    double eps_slack, int64_t k, int32_t stop_below_k, int64_t nb, double *deg,
    uint8_t *alive, uint8_t *best_alive, int32_t *bucket_of, int32_t *nxt,
    int32_t *prv, int32_t *head, int32_t *frontier, double *trace,
    int64_t trace_cap, double *out_best_density, int64_t *out_best_pass,
    int64_t *out_passes) {
    double inv_width = build_buckets(deg, 0, n, nb, head, nxt, prv, bucket_of);
    int32_t *pending = frontier + n;
    int64_t remaining = n;
    double W = total_weight;
    int64_t E = (int64_t)indptr[n] / 2; /* edges induced by S, exact */
    double best_density = n > 0 ? W / (double)n : 0.0;
    int64_t best_pass = 0;
    int64_t passes = 0;

    while (remaining > 0) {
        if (stop_below_k && remaining < k)
            break;
        if (passes >= trace_cap) {
            *out_passes = passes;
            return TRACE_OVERFLOW;
        }
        passes++;
        double density = W / (double)remaining;
        double threshold = factor * density;
        /* Every member of an edgeless S clears the cutoff (python:
         * _tolerances.peel_cutoff), so float residue left in deg/W by
         * non-dyadic weights cannot stall the loop. */
        double cutoff = E > 0 ? threshold + eps_slack : INFINITY;
        int64_t bstar = E > 0 ? bucket_index(cutoff, inv_width, nb) : nb - 1;
        int64_t nodes_before = remaining;
        double weight_before = W;

        /* Collect candidates (no unlink: most stay queued). */
        int64_t c = 0;
        for (int64_t b = 0; b <= bstar; b++) {
            int32_t i = head[b];
            while (i >= 0) {
                if (deg[i] <= cutoff)
                    frontier[c++] = i;
                i = nxt[i];
            }
        }
        int64_t batch = (int64_t)floor(batch_fraction * (double)remaining);
        if (batch < 1)
            batch = 1;
        if (batch > c)
            batch = c;
        /* Stable (degree, index) order = the reference's ascending-
         * index enumeration followed by a stable sort on degree; only
         * the first `batch` entries are consumed.  Candidates were
         * appended in ascending-bucket order and buckets partition the
         * degree axis into strictly increasing ranges, so the global
         * (degree, id) order is the per-bucket orders concatenated:
         * sort segment by segment and stop once the batch prefix is
         * covered — tail segments are never consumed. */
        int64_t seg = 0;
        /* The pending half of `frontier` is idle until the kill loop;
         * borrow it as an id bitmap for the equal-key fast path. */
        uint32_t *bm = (uint32_t *)(frontier + n);
        memset(bm, 0, (size_t)((n + 31) / 32) * sizeof(uint32_t));
        while (seg < batch) {
            int32_t b = bucket_of[frontier[seg]];
            int64_t seg_end = seg + 1;
            while (seg_end < c && bucket_of[frontier[seg_end]] == b)
                seg_end++;
            /* unweighted graphs collapse each bucket to one degree
             * value; (degree, id) order within such a segment is id
             * order, and distinct ids sort in O(len + span) by setting
             * one bit per id and draining the touched words in order
             * (read-clear keeps the bitmap zero for the next segment,
             * and no data-dependent branches feed the predictor). */
            double dmin = deg[frontier[seg]], dmax = dmin;
            for (int64_t q = seg + 1; q < seg_end; q++) {
                double d = deg[frontier[q]];
                if (d < dmin)
                    dmin = d;
                if (d > dmax)
                    dmax = d;
            }
            if (dmin == dmax) {
                int64_t wlo = n, whi = -1;
                for (int64_t q = seg; q < seg_end; q++) {
                    int32_t id = frontier[q];
                    int64_t w = id >> 5;
                    bm[w] |= (uint32_t)1 << (id & 31);
                    if (w < wlo)
                        wlo = w;
                    if (w > whi)
                        whi = w;
                }
                int64_t out = seg;
                for (int64_t w = wlo; w <= whi; w++) {
                    uint32_t word = bm[w];
                    bm[w] = 0;
                    while (word) {
                        frontier[out++] =
                            (int32_t)((w << 5) | __builtin_ctz(word));
                        word &= word - 1;
                    }
                }
            } else {
                sort_ids_prefix(frontier + seg, seg_end - seg, deg,
                                batch - seg);
            }
            seg = seg_end;
        }

        for (int64_t t = 0; t < batch; t++) {
            int32_t i = frontier[t];
            list_unlink(i, bucket_of[i], head, nxt, prv);
            bucket_of[i] = QUEUED;
        }
        int64_t pcount = 0;
        for (int64_t t = 0; t < batch; t++) {
            int32_t i = frontier[t];
            alive[i] = 0;
            bucket_of[i] = -1;
            double lost = 0.0;
            int64_t lost_edges = 0;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
                int32_t j = indices[p];
                int32_t bj = bucket_of[j];
                /* branchless alive-test: a dead neighbour (bj == -1)
                 * contributes exactly 0.0, so the subtraction runs
                 * unconditionally and the poorly-predicted branch
                 * leaves the edge-visit path */
                int64_t live = bj != -1;
                double w = weights[p] * (double)live;
                lost += w;
                lost_edges += live;
                deg[j] -= w;
                if (bj >= 0) {
                    bucket_of[j] = -2 - bj;
                    pending[pcount++] = j;
                }
            }
            W -= lost;
            E -= lost_edges;
        }
        flush_pending(deg, pending, pcount, inv_width, nb, head, nxt, prv,
                      bucket_of);
        if (E == 0)
            W = 0.0;
        remaining -= batch;
        double density_after = remaining > 0 ? W / (double)remaining : 0.0;
        double *row = trace + (passes - 1) * 8;
        row[0] = (double)nodes_before;
        row[1] = weight_before;
        row[2] = density;
        row[3] = threshold;
        row[4] = (double)batch;
        row[5] = (double)remaining;
        row[6] = W;
        row[7] = density_after;
        if (remaining >= k && density_after > best_density) {
            best_density = density_after;
            best_pass = passes;
            memcpy(best_alive, alive, (size_t)n);
        }
    }
    *out_best_density = best_density;
    *out_best_pass = best_pass;
    *out_passes = passes;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Algorithm 3: directed peel at a fixed ratio c.                     */
/* ------------------------------------------------------------------ */

int repro_peel_directed(
    const int32_t *out_indptr, const int32_t *out_indices,
    const double *out_weights, const int32_t *in_indptr,
    const int32_t *in_indices, const double *in_weights, int64_t n,
    double total_weight, double ratio, double one_plus_eps, double eps_slack,
    int32_t use_max_degree_rule, int64_t nb, double *out_to_t,
    double *in_from_s, uint8_t *in_s, uint8_t *in_t, uint8_t *best_s,
    uint8_t *best_t, int32_t *s_bucket_of, int32_t *s_nxt, int32_t *s_prv,
    int32_t *s_head, int32_t *t_bucket_of, int32_t *t_nxt, int32_t *t_prv,
    int32_t *t_head, int32_t *frontier, double *trace, int64_t trace_cap,
    double *out_best_density, int64_t *out_best_pass, int64_t *out_passes) {
    double s_inv_width =
        build_buckets(out_to_t, 0, n, nb, s_head, s_nxt, s_prv, s_bucket_of);
    double t_inv_width =
        build_buckets(in_from_s, 0, n, nb, t_head, t_nxt, t_prv, t_bucket_of);
    int32_t *pending = frontier + n;
    int64_t s_size = n, t_size = n;
    double W = total_weight;
    double best_density = n > 0 ? W / sqrt((double)n * (double)n) : 0.0;
    int64_t best_pass = 0;
    int64_t passes = 0;

    while (s_size > 0 && t_size > 0) {
        if (passes >= trace_cap) {
            *out_passes = passes;
            return TRACE_OVERFLOW;
        }
        passes++;
        double density = W / sqrt((double)s_size * (double)t_size);
        int peel_s;
        if (use_max_degree_rule) {
            double max_out = 0.0, max_in = 0.0;
            for (int64_t i = 0; i < n; i++) {
                if (in_s[i] && out_to_t[i] > max_out)
                    max_out = out_to_t[i];
                if (in_t[i] && in_from_s[i] > max_in)
                    max_in = in_from_s[i];
            }
            peel_s = (max_out <= 0.0) ? 1 : (max_in / max_out >= ratio);
        } else {
            peel_s = ((double)s_size / (double)t_size) >= ratio;
        }

        int64_t s_before = s_size, t_before = t_size;
        double weight_before = W;
        double threshold;
        int64_t r = 0;
        if (peel_s) {
            threshold = one_plus_eps * W / (double)s_size;
            double cutoff = threshold + eps_slack;
            int64_t bstar = bucket_index(cutoff, s_inv_width, nb);
            for (int64_t b = 0; b <= bstar; b++) {
                int32_t i = s_head[b];
                while (i >= 0) {
                    int32_t next = s_nxt[i];
                    if (out_to_t[i] <= cutoff) {
                        list_unlink(i, (int32_t)b, s_head, s_nxt, s_prv);
                        s_bucket_of[i] = QUEUED;
                        frontier[r++] = i;
                    }
                    i = next;
                }
            }
            order_frontier(frontier, r, n, s_bucket_of);
            int64_t pcount = 0;
            for (int64_t t = 0; t < r; t++) {
                int32_t i = frontier[t];
                in_s[i] = 0;
                s_bucket_of[i] = -1;
                double lost = 0.0;
                for (int64_t p = out_indptr[i]; p < out_indptr[i + 1]; p++) {
                    int32_t j = out_indices[p];
                    /* only T passes queue T nodes, so during an S pass
                     * t_bucket_of[j] == -1 exactly when j left T */
                    int32_t bj = t_bucket_of[j];
                    double w = out_weights[p] * (double)(bj != -1);
                    lost += w;
                    in_from_s[j] -= w;
                    if (bj >= 0) {
                        t_bucket_of[j] = -2 - bj;
                        pending[pcount++] = j;
                    }
                }
                W -= lost;
            }
            flush_pending(in_from_s, pending, pcount, t_inv_width, nb, t_head,
                          t_nxt, t_prv, t_bucket_of);
            s_size -= r;
        } else {
            threshold = one_plus_eps * W / (double)t_size;
            double cutoff = threshold + eps_slack;
            int64_t bstar = bucket_index(cutoff, t_inv_width, nb);
            for (int64_t b = 0; b <= bstar; b++) {
                int32_t j = t_head[b];
                while (j >= 0) {
                    int32_t next = t_nxt[j];
                    if (in_from_s[j] <= cutoff) {
                        list_unlink(j, (int32_t)b, t_head, t_nxt, t_prv);
                        t_bucket_of[j] = QUEUED;
                        frontier[r++] = j;
                    }
                    j = next;
                }
            }
            order_frontier(frontier, r, n, t_bucket_of);
            int64_t pcount = 0;
            for (int64_t t = 0; t < r; t++) {
                int32_t j = frontier[t];
                in_t[j] = 0;
                t_bucket_of[j] = -1;
                double lost = 0.0;
                for (int64_t p = in_indptr[j]; p < in_indptr[j + 1]; p++) {
                    int32_t i = in_indices[p];
                    /* mirror of the S branch: s_bucket_of[i] == -1
                     * exactly when i left S */
                    int32_t bi = s_bucket_of[i];
                    double w = in_weights[p] * (double)(bi != -1);
                    lost += w;
                    out_to_t[i] -= w;
                    if (bi >= 0) {
                        s_bucket_of[i] = -2 - bi;
                        pending[pcount++] = i;
                    }
                }
                W -= lost;
            }
            flush_pending(out_to_t, pending, pcount, s_inv_width, nb, s_head,
                          s_nxt, s_prv, s_bucket_of);
            t_size -= r;
        }

        double density_after =
            (s_size > 0 && t_size > 0)
                ? W / sqrt((double)s_size * (double)t_size)
                : 0.0;
        double *row = trace + (passes - 1) * 11;
        row[0] = peel_s ? 0.0 : 1.0;
        row[1] = (double)s_before;
        row[2] = (double)t_before;
        row[3] = weight_before;
        row[4] = density;
        row[5] = threshold;
        row[6] = (double)r;
        row[7] = (double)s_size;
        row[8] = (double)t_size;
        row[9] = W;
        row[10] = density_after;
        if (density_after > best_density) {
            best_density = density_after;
            best_pass = passes;
            memcpy(best_s, in_s, (size_t)n);
            memcpy(best_t, in_t, (size_t)n);
        }
    }
    *out_best_density = best_density;
    *out_best_pass = best_pass;
    *out_passes = passes;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Stable O(m) sorts for the shuffle group-by and the shard CSR fill.  */
/* ------------------------------------------------------------------ */

#define SORT_BAD_SCRATCH 2
#define FILL_BAD_ID 2
#define FILL_ROW_OVERFLOW 3

#define RADIX_BITS 11
#define RADIX_SIZE (1 << RADIX_BITS)
#define RADIX_MAX_PASSES 6 /* ceil(64 / 11) */

/* Keys whose span is at most 2 * len + COUNT_SLACK take the counting
 * sort (one count per key value); wider spans take the LSD radix. */
#define COUNT_SLACK 4096

/* Stable argsort of int64 keys: out[] receives the permutation
 * np.argsort(keys, kind="stable") returns.  Both branches scatter
 * records in ascending input order into per-key (per-digit) slots, so
 * equal keys keep their input order.
 *
 * scratch must hold at least 3 * len + RADIX_MAX_PASSES * RADIX_SIZE
 * int64 cells (checked; status SORT_BAD_SCRATCH otherwise): the
 * counting branch uses span <= 2 * len + COUNT_SLACK of them as
 * counts, the radix branch two uint64 key buffers, one index buffer
 * and the per-pass digit histograms. */
int repro_stable_argsort_i64(const int64_t *keys, int64_t len, int64_t *out,
                             int64_t *scratch, int64_t scratch_len) {
    if (scratch_len < 3 * len + RADIX_MAX_PASSES * RADIX_SIZE)
        return SORT_BAD_SCRATCH;
    if (len == 0)
        return 0;
    int64_t kmin = keys[0], kmax = keys[0];
    for (int64_t i = 1; i < len; i++) {
        if (keys[i] < kmin)
            kmin = keys[i];
        if (keys[i] > kmax)
            kmax = keys[i];
    }
    /* offsets as uint64 keep the full int64 range exact */
    uint64_t base = (uint64_t)kmin;
    uint64_t span_m1 = (uint64_t)kmax - base;

    if (span_m1 < (uint64_t)(2 * len + COUNT_SLACK)) {
        int64_t *counts = scratch;
        int64_t span = (int64_t)span_m1 + 1;
        memset(counts, 0, (size_t)span * sizeof(int64_t));
        for (int64_t i = 0; i < len; i++)
            counts[(uint64_t)keys[i] - base]++;
        int64_t acc = 0;
        for (int64_t k = 0; k < span; k++) {
            int64_t c = counts[k];
            counts[k] = acc;
            acc += c;
        }
        for (int64_t i = 0; i < len; i++)
            out[counts[(uint64_t)keys[i] - base]++] = i;
        return 0;
    }

    /* LSD radix over (key - min): digit passes up to the top set bit.
     * Group-bys over the few surviving node ids of a late peeling
     * round (span ~n, len << n) land here. */
    uint64_t *key_buf[2] = {(uint64_t *)scratch, (uint64_t *)scratch + len};
    int64_t *idx_tmp = scratch + 2 * len;
    int64_t *hist = scratch + 3 * len;
    int top_bits = 64 - __builtin_clzll(span_m1);
    int num_digits = (top_bits + RADIX_BITS - 1) / RADIX_BITS;
    memset(hist, 0, (size_t)num_digits * RADIX_SIZE * sizeof(int64_t));
    for (int64_t i = 0; i < len; i++) {
        uint64_t d = (uint64_t)keys[i] - base;
        for (int p = 0; p < num_digits; p++)
            hist[p * RADIX_SIZE + ((d >> (p * RADIX_BITS)) & (RADIX_SIZE - 1))]++;
    }
    for (int p = 0; p < num_digits; p++) {
        int64_t *h = hist + p * RADIX_SIZE;
        int64_t acc = 0;
        for (int b = 0; b < RADIX_SIZE; b++) {
            int64_t c = h[b];
            h[b] = acc;
            acc += c;
        }
    }
    const uint64_t *src_key = 0;
    const int64_t *src_idx = 0;
    for (int p = 0; p < num_digits; p++) {
        int shift = p * RADIX_BITS;
        int64_t *off = hist + p * RADIX_SIZE;
        int last = p == num_digits - 1;
        /* the final pass lands in out */
        int64_t *dst_idx = ((num_digits - 1 - p) % 2 == 0) ? out : idx_tmp;
        uint64_t *dst_key = key_buf[p & 1];
        if (p == 0) {
            for (int64_t i = 0; i < len; i++) {
                uint64_t d = (uint64_t)keys[i] - base;
                int64_t pos = off[(d >> shift) & (RADIX_SIZE - 1)]++;
                dst_idx[pos] = i;
                if (!last)
                    dst_key[pos] = d;
            }
        } else {
            for (int64_t i = 0; i < len; i++) {
                uint64_t d = src_key[i];
                int64_t pos = off[(d >> shift) & (RADIX_SIZE - 1)]++;
                dst_idx[pos] = src_idx[i];
                if (!last)
                    dst_key[pos] = d;
            }
        }
        src_key = dst_key;
        src_idx = dst_idx;
    }
    return 0;
}

/* One shard's entries scattered into preallocated CSR arrays: entry i
 * goes to slot cursor[rows[i]]++ of row rows[i], so rows fill in
 * input order.  rows/cols/weights are read through byte strides (the
 * fields of a shard's structured records).  Every row and column id
 * is checked against [0, n) and every slot against its row end
 * indptr[row + 1] and the array capacity (the length of indices and
 * data) before it is written, so a bad record returns
 * FILL_BAD_ID / FILL_ROW_OVERFLOW instead of writing out of bounds
 * (earlier entries stay written; the caller discards the arrays). */
int repro_csr_fill(const char *rows, int64_t row_stride, const char *cols,
                   int64_t col_stride, const char *weights,
                   int64_t weight_stride, int64_t len, int64_t n,
                   const int32_t *indptr, int64_t *cursor, int32_t *indices,
                   double *data, int64_t capacity) {
    for (int64_t i = 0; i < len; i++) {
        int64_t r = *(const int64_t *)(rows + i * row_stride);
        int64_t c = *(const int64_t *)(cols + i * col_stride);
        if (r < 0 || r >= n || c < 0 || c >= n)
            return FILL_BAD_ID;
        int64_t p = cursor[r];
        if (p < 0 || p >= capacity || p >= (int64_t)indptr[r + 1])
            return FILL_ROW_OVERFLOW;
        indices[p] = (int32_t)c;
        data[p] = *(const double *)(weights + i * weight_stride);
        cursor[r] = p + 1;
    }
    return 0;
}

#define ROW_INSERTION_MAX 32

static void insertion_sort_entries(int32_t *idx, double *val, int64_t len) {
    for (int64_t a = 1; a < len; a++) {
        int32_t c = idx[a];
        double w = val[a];
        int64_t b = a - 1;
        /* strict > keeps equal columns in input order */
        while (b >= 0 && idx[b] > c) {
            idx[b + 1] = idx[b];
            val[b + 1] = val[b];
            b--;
        }
        idx[b + 1] = c;
        val[b + 1] = w;
    }
}

/* Stable bottom-up merge sort of one row by column: insertion-sorted
 * blocks, then merges ping-ponging between the row and tmp. */
static void merge_sort_entries(int32_t *idx, double *val, int64_t len,
                               int32_t *tmp_idx, double *tmp_val) {
    for (int64_t lo = 0; lo < len; lo += ROW_INSERTION_MAX) {
        int64_t hi = lo + ROW_INSERTION_MAX < len ? lo + ROW_INSERTION_MAX : len;
        insertion_sort_entries(idx + lo, val + lo, hi - lo);
    }
    int32_t *si = idx, *di = tmp_idx;
    double *sv = val, *dv = tmp_val;
    for (int64_t width = ROW_INSERTION_MAX; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = lo + 2 * width < len ? lo + 2 * width : len;
            int64_t a = lo, b = mid, o = lo;
            while (a < mid && b < hi) {
                /* <= takes the left run on ties: stable */
                if (si[a] <= si[b]) {
                    di[o] = si[a];
                    dv[o++] = sv[a++];
                } else {
                    di[o] = si[b];
                    dv[o++] = sv[b++];
                }
            }
            while (a < mid) {
                di[o] = si[a];
                dv[o++] = sv[a++];
            }
            while (b < hi) {
                di[o] = si[b];
                dv[o++] = sv[b++];
            }
        }
        int32_t *ti = si;
        si = di;
        di = ti;
        double *tv = sv;
        sv = dv;
        dv = tv;
    }
    if (si != idx) {
        memcpy(idx, si, (size_t)len * sizeof(int32_t));
        memcpy(val, sv, (size_t)len * sizeof(double));
    }
}

/* Stable in-place sort of every CSR row segment of (indices, data) by
 * column.  tmp_idx / tmp_val must hold the longest row. */
int repro_csr_sort_rows(const int32_t *indptr, int64_t n, int32_t *indices,
                        double *data, int32_t *tmp_idx, double *tmp_val) {
    for (int64_t r = 0; r < n; r++) {
        int64_t lo = indptr[r], len = (int64_t)indptr[r + 1] - lo;
        int32_t *idx = indices + lo;
        double *val = data + lo;
        if (len <= ROW_INSERTION_MAX) {
            insertion_sort_entries(idx, val, len);
            continue;
        }
        merge_sort_entries(idx, val, len, tmp_idx, tmp_val);
    }
    return 0;
}
