#ifndef ANYSEQ_C_H
#define ANYSEQ_C_H

/**
 * \file anyseq_c.h
 * \brief C entry points mirroring the paper's interface functions
 *        (§III-C: "AnySeq provides C wrapper functions as entry points to
 *        the different algorithmic parameterization scenarios").
 *
 * Sequences are plain NUL-terminated DNA strings over `ACGTN`; lower-case
 * letters are folded to upper case and any other character is treated as
 * `N`.  Gapped output strings are written to caller-provided buffers of
 * capacity `>= strlen(query) + strlen(subject) + 1` (the worst-case gapped
 * length plus the terminator).
 *
 * All functions return the optimal alignment score.  On invalid input
 * (NULL pointers, positive gap penalties, non-positive local match score,
 * a score argument past ::ANYSEQ_MAX_ABS_SCORE in magnitude, a pair so
 * long that its worst-case score could leave the int32 range, ...) they
 * return ::ANYSEQ_C_ERROR and write no output.  No other error
 * channel exists: the C API never throws and never aborts on bad
 * parameters.  See docs/C_API.md for a worked error-handling example.
 *
 * Thread safety: all functions are stateless and may be called
 * concurrently from any number of threads.
 */

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Alignment score type of the C API (matches the C++ `anyseq::score_t`). */
typedef int32_t anyseq_score_t;

/**
 * \brief Error sentinel returned by every function on invalid input.
 *
 * `INT32_MIN` is far below any reachable alignment score (scores are
 * bounded by `max(|match|, |mismatch|, |gap|) * (strlen(q) + strlen(s))`),
 * so a valid score never collides with it.
 */
#define ANYSEQ_C_ERROR INT32_MIN

/**
 * \brief Largest magnitude accepted for any score argument (match,
 *        mismatch, gap open, gap extend): 2^20.
 *
 * A larger value (INT32_MIN included) is invalid input and the call
 * returns ::ANYSEQ_C_ERROR.  Mirrors the C++ `anyseq::max_abs_score`.
 */
#define ANYSEQ_MAX_ABS_SCORE 1048576

/* ------------------------------------------------------------------ */
/* Score-only computations (linear space).                            */
/* ------------------------------------------------------------------ */

/**
 * \brief Global (Needleman–Wunsch) alignment score with linear gaps.
 *
 * \param query    NUL-terminated DNA string (must not be NULL).
 * \param subject  NUL-terminated DNA string (must not be NULL).
 * \param match    Score added per matching column (e.g. `2`).
 * \param mismatch Score added per mismatching column (e.g. `-1`).
 * \param gap      Score added per gap symbol; must be `<= 0` (e.g. `-1`).
 * \return The optimal global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_global_score(const char* query, const char* subject,
                                   anyseq_score_t match,
                                   anyseq_score_t mismatch,
                                   anyseq_score_t gap);

/**
 * \brief Local (Smith–Waterman) alignment score with affine gaps.
 *
 * A gap of length `k` scores `gap_open + k * gap_extend`; pass
 * `gap_open = 0` for a linear scheme.
 *
 * \param query      NUL-terminated DNA string (must not be NULL).
 * \param subject    NUL-terminated DNA string (must not be NULL).
 * \param match      Score per matching column; must be `> 0` for local
 *                   alignment to be meaningful.
 * \param mismatch   Score per mismatching column (typically negative).
 * \param gap_open   Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend Cost per gap symbol; must be `<= 0`.
 * \return The optimal local alignment score (never negative: the empty
 *         alignment scores 0), or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_local_score(const char* query, const char* subject,
                                  anyseq_score_t match,
                                  anyseq_score_t mismatch,
                                  anyseq_score_t gap_open,
                                  anyseq_score_t gap_extend);

/**
 * \brief Semi-global alignment score (free leading/trailing gaps) with
 *        linear gaps.
 *
 * \param query    NUL-terminated DNA string (must not be NULL).
 * \param subject  NUL-terminated DNA string (must not be NULL).
 * \param match    Score per matching column.
 * \param mismatch Score per mismatching column.
 * \param gap      Score per interior gap symbol; must be `<= 0`.
 * \return The optimal semi-global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_semiglobal_score(const char* query,
                                       const char* subject,
                                       anyseq_score_t match,
                                       anyseq_score_t mismatch,
                                       anyseq_score_t gap);

/* ------------------------------------------------------------------ */
/* Full alignment construction.                                       */
/* ------------------------------------------------------------------ */

/**
 * \brief Global alignment with traceback — the paper's
 *        `construct_global_alignment(query, subj, qAlign, sAlign)`.
 *
 * Uses the paper's stock parameterization: match `+2`, mismatch `-1`,
 * linear gap `-1`.  The gapped strings use `-` for gap positions and are
 * NUL-terminated.
 *
 * \param query     NUL-terminated DNA string (must not be NULL).
 * \param subject   NUL-terminated DNA string (must not be NULL).
 * \param q_aligned Output buffer for the gapped query, capacity
 *                  `>= strlen(query) + strlen(subject) + 1`; may be NULL
 *                  to skip this output.
 * \param s_aligned Output buffer for the gapped subject (same capacity
 *                  rule); may be NULL.
 * \return The optimal global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_construct_global_alignment(const char* query,
                                                 const char* subject,
                                                 char* q_aligned,
                                                 char* s_aligned);

/**
 * \brief Global alignment with traceback under an affine gap scheme.
 *
 * A gap of length `k` scores `gap_open + k * gap_extend`; pass
 * `gap_open = 0` for a linear scheme.
 *
 * \param query      NUL-terminated DNA string (must not be NULL).
 * \param subject    NUL-terminated DNA string (must not be NULL).
 * \param match      Score per matching column.
 * \param mismatch   Score per mismatching column.
 * \param gap_open   Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend Cost per gap symbol; must be `<= 0`.
 * \param q_aligned  Output buffer for the gapped query (see
 *                   anyseq_construct_global_alignment()); may be NULL.
 * \param s_aligned  Output buffer for the gapped subject; may be NULL.
 * \return The optimal global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_construct_global_alignment_affine(
    const char* query, const char* subject, anyseq_score_t match,
    anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned);

/**
 * \brief Local alignment with traceback.
 *
 * The gapped strings cover only the locally aligned region;
 * `*q_begin` / `*s_begin` receive the region's start offsets into the
 * input strings.
 *
 * \param query      NUL-terminated DNA string (must not be NULL).
 * \param subject    NUL-terminated DNA string (must not be NULL).
 * \param match      Score per matching column; must be `> 0`.
 * \param mismatch   Score per mismatching column.
 * \param gap_open   Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend Cost per gap symbol; must be `<= 0`.
 * \param q_aligned  Output buffer for the gapped query region (capacity
 *                   rule as above); may be NULL.
 * \param s_aligned  Output buffer for the gapped subject region; may be
 *                   NULL.
 * \param q_begin    Receives the query start offset of the aligned
 *                   region; may be NULL.
 * \param s_begin    Receives the subject start offset; may be NULL.
 * \return The optimal local alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_construct_local_alignment(
    const char* query, const char* subject, anyseq_score_t match,
    anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned,
    int64_t* q_begin, int64_t* s_begin);

/* ------------------------------------------------------------------ */
/* Reusable aligner handles (plan/execute split).                      */
/* ------------------------------------------------------------------ */

/**
 * \brief Handle to a reusable aligner with a caller-owned workspace.
 *
 * The stateless functions above re-derive their execution route and
 * allocate their DP buffers on every call.  An aligner handle separates
 * *plan* from *execute*: the handle owns a workspace arena that is
 * carved — not allocated — by each alignment, so repeated calls of a
 * similar shape perform zero heap allocations after warm-up.  Use one
 * handle per thread; handles are NOT thread-safe (the stateless
 * functions remain safe from any number of threads).
 *
 * Create with anyseq_aligner_create(), destroy with
 * anyseq_aligner_destroy().
 */
typedef struct anyseq_aligner anyseq_aligner;

/**
 * \brief Create a reusable aligner handle.
 * \return A new handle, or NULL on resource exhaustion.
 */
anyseq_aligner* anyseq_aligner_create(void);

/**
 * \brief Destroy an aligner handle and release its workspace.
 *        NULL is ignored.
 */
void anyseq_aligner_destroy(anyseq_aligner* a);

/**
 * \brief Global (Needleman–Wunsch) alignment score with linear gaps,
 *        reusing the handle's workspace.
 *
 * Semantics and parameter rules are identical to anyseq_global_score();
 * only the memory behaviour differs (zero steady-state allocations once
 * the handle is warm).
 *
 * \param a        Aligner handle (must not be NULL).
 * \param query    NUL-terminated DNA string (must not be NULL).
 * \param subject  NUL-terminated DNA string (must not be NULL).
 * \param match    Score added per matching column (e.g. `2`).
 * \param mismatch Score added per mismatching column (e.g. `-1`).
 * \param gap      Score added per gap symbol; must be `<= 0`.
 * \return The optimal global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_aligner_global_score(anyseq_aligner* a,
                                           const char* query,
                                           const char* subject,
                                           anyseq_score_t match,
                                           anyseq_score_t mismatch,
                                           anyseq_score_t gap);

/**
 * \brief Local (Smith–Waterman) alignment score with affine gaps,
 *        reusing the handle's workspace.
 *
 * Parameter rules as anyseq_local_score().
 *
 * \param a          Aligner handle (must not be NULL).
 * \param query      NUL-terminated DNA string (must not be NULL).
 * \param subject    NUL-terminated DNA string (must not be NULL).
 * \param match      Score per matching column; must be `> 0`.
 * \param mismatch   Score per mismatching column.
 * \param gap_open   Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend Cost per gap symbol; must be `<= 0`.
 * \return The optimal local alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_aligner_local_score(anyseq_aligner* a,
                                          const char* query,
                                          const char* subject,
                                          anyseq_score_t match,
                                          anyseq_score_t mismatch,
                                          anyseq_score_t gap_open,
                                          anyseq_score_t gap_extend);

/**
 * \brief Semi-global alignment score with linear gaps, reusing the
 *        handle's workspace.
 *
 * Parameter rules as anyseq_semiglobal_score().
 *
 * \param a        Aligner handle (must not be NULL).
 * \param query    NUL-terminated DNA string (must not be NULL).
 * \param subject  NUL-terminated DNA string (must not be NULL).
 * \param match    Score per matching column.
 * \param mismatch Score per mismatching column.
 * \param gap      Score per interior gap symbol; must be `<= 0`.
 * \return The optimal semi-global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_aligner_semiglobal_score(anyseq_aligner* a,
                                               const char* query,
                                               const char* subject,
                                               anyseq_score_t match,
                                               anyseq_score_t mismatch,
                                               anyseq_score_t gap);

/**
 * \brief Global alignment with traceback under an affine gap scheme,
 *        reusing the handle's workspace AND its traceback buffers.
 *
 * Semantics as anyseq_construct_global_alignment_affine(): pass
 * `gap_open = 0` for a linear scheme; output buffers need capacity
 * `>= strlen(query) + strlen(subject) + 1` and may be NULL to skip.
 *
 * \param a          Aligner handle (must not be NULL).
 * \param query      NUL-terminated DNA string (must not be NULL).
 * \param subject    NUL-terminated DNA string (must not be NULL).
 * \param match      Score per matching column.
 * \param mismatch   Score per mismatching column.
 * \param gap_open   Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend Cost per gap symbol; must be `<= 0`.
 * \param q_aligned  Output buffer for the gapped query; may be NULL.
 * \param s_aligned  Output buffer for the gapped subject; may be NULL.
 * \return The optimal global alignment score, or ::ANYSEQ_C_ERROR.
 */
anyseq_score_t anyseq_aligner_construct_global_alignment_affine(
    anyseq_aligner* a, const char* query, const char* subject,
    anyseq_score_t match, anyseq_score_t mismatch, anyseq_score_t gap_open,
    anyseq_score_t gap_extend, char* q_aligned, char* s_aligned);

/**
 * \brief Pre-size the handle's workspace for global score-only problems
 *        of up to `query_len` x `subject_len` characters, so even the
 *        first call of that shape allocates nothing.
 *
 * Traceback calls additionally warm their string buffers on the first
 * call.  Negative lengths are ignored; NULL is ignored.
 *
 * \param a           Aligner handle.
 * \param query_len   Expected query length in characters.
 * \param subject_len Expected subject length in characters.
 */
void anyseq_aligner_reserve(anyseq_aligner* a, int64_t query_len,
                            int64_t subject_len);

/**
 * \brief Bytes currently held by the handle's workspace arena(s) and
 *        string buffers (0 for NULL).
 */
size_t anyseq_aligner_workspace_bytes(const anyseq_aligner* a);

/**
 * \brief Release the handle's workspace memory without destroying the
 *        handle (footprint control between bursts); the next call
 *        re-warms.  NULL is ignored.
 */
void anyseq_aligner_shrink(anyseq_aligner* a);

/**
 * \brief What the library decided for a problem shape, before running it
 *        (see anyseq_aligner_plan()).
 *
 * All strings point to static storage — never NULL, do not free.
 */
typedef struct anyseq_plan {
  const char* variant;   /**< engine variant: "scalar" / "avx2" / "avx512" */
  const char* route;     /**< execution route, e.g. "bitpar_score",
                              "striped_score", "small_score",
                              "tiled_score" */
  const char* precision; /**< score accumulator the route commits to:
                              "int16", "int32", or "bitpar" */
  size_t workspace_bytes; /**< exact arena bytes one pass of this shape
                               carves from the handle's workspace */
} anyseq_plan;

/**
 * \brief Report how a global score call of shape
 *        `query_len x subject_len` with the given linear-gap scoring
 *        would execute, without running it.
 *
 * The route and precision depend on both the shape and the scoring:
 * a unit-cost parameterization (`match = 0`, `mismatch == gap < 0`)
 * selects the Myers bit-parallel route, short sequences with small
 * scores select the striped int16 accumulator on a vector variant,
 * everything else runs the 32-bit engines.  The reported
 * `workspace_bytes` is exactly what anyseq_aligner_reserve() would
 * pre-size for this shape.
 *
 * \param a           Aligner handle (must not be NULL).
 * \param query_len   Query length in characters; must be `> 0`.
 * \param subject_len Subject length in characters; must be `> 0`.
 * \param match       Score per matching column.
 * \param mismatch    Score per mismatching column.
 * \param gap         Score per gap symbol; must be `<= 0`.
 * \param out         Receives the plan (must not be NULL).
 * \return 0 on success, -1 on NULL pointers or invalid shape/scoring
 *         (\p out is left untouched on failure).
 */
int anyseq_aligner_plan(anyseq_aligner* a, int64_t query_len,
                        int64_t subject_len, anyseq_score_t match,
                        anyseq_score_t mismatch, anyseq_score_t gap,
                        anyseq_plan* out);

/* ------------------------------------------------------------------ */
/* Asynchronous request-batching service.                              */
/* ------------------------------------------------------------------ */

/**
 * \brief Handle to an asynchronous alignment service.
 *
 * A service accepts individual requests (anyseq_service_submit()) and
 * coalesces compatible ones into batches behind the scenes, so a server
 * handling many independent alignments gets `align_batch`-class
 * throughput without assembling batches by hand.  Results are always
 * byte-identical to the corresponding synchronous call.  Create with
 * anyseq_service_create(), destroy with anyseq_service_destroy().
 */
typedef struct anyseq_service anyseq_service;

/**
 * \brief Handle to one in-flight request; redeemed (and freed) by
 *        anyseq_service_wait(), or freed unredeemed by
 *        anyseq_ticket_discard().
 */
typedef struct anyseq_ticket anyseq_ticket;

/** Alignment kind selector for anyseq_service_submit(). */
typedef enum anyseq_align_kind {
  ANYSEQ_ALIGN_GLOBAL = 0,    /**< Needleman–Wunsch */
  ANYSEQ_ALIGN_LOCAL = 1,     /**< Smith–Waterman */
  ANYSEQ_ALIGN_SEMIGLOBAL = 2 /**< free leading/trailing gaps */
} anyseq_align_kind;

/** Backpressure policy applied when a service capacity bound is hit. */
typedef enum anyseq_backpressure {
  ANYSEQ_BACKPRESSURE_BLOCK = 0,      /**< submit blocks until room frees */
  ANYSEQ_BACKPRESSURE_REJECT = 1,     /**< submit returns NULL */
  ANYSEQ_BACKPRESSURE_SHED_OLDEST = 2 /**< oldest queued request is
                                           dropped; its wait() returns
                                           ::ANYSEQ_C_ERROR */
} anyseq_backpressure;

/** Priority class for anyseq_service_submit_ex(). */
typedef enum anyseq_request_class {
  ANYSEQ_CLASS_INTERACTIVE = 0, /**< latency-sensitive; strict priority */
  ANYSEQ_CLASS_BULK = 1         /**< throughput traffic; yields to
                                     interactive */
} anyseq_request_class;

/**
 * \brief Telemetry snapshot of a service (see
 *        anyseq_service_get_stats()).
 *
 * Counters are cumulative over the service lifetime and, for a sharded
 * service, summed across shards.  `failed` includes shed and
 * shutdown-failed requests; `shed` counts that subset separately.
 * Latency percentiles are nearest-rank over every completion's
 * submit-to-completion time, reported as the upper edge of the
 * log-linear histogram bucket holding the rank (relative error
 * <= 1/32); for a sharded service they rank the bucket-wise sum of
 * every shard's histograms (never a sum of per-shard percentiles).
 * The `interactive_*` / `bulk_*` fields resolve
 * admission failures and tail latency per priority class.
 */
typedef struct anyseq_service_stats {
  uint64_t accepted;   /**< requests admitted (including cache hits) */
  uint64_t rejected;   /**< submissions refused by backpressure */
  uint64_t shed;       /**< queued requests dropped by shed_oldest */
  uint64_t quota_rejected; /**< refused by a tenant token bucket */
  uint64_t completed;  /**< requests finished with a result */
  uint64_t failed;     /**< requests finished with an error */
  uint64_t batches;    /**< engine invocations (coalesced groups) */
  double mean_batch_occupancy; /**< requests per batch, on average */
  uint64_t p50_latency_ns;     /**< median submit-to-completion time */
  uint64_t p99_latency_ns;     /**< tail submit-to-completion time */

  uint64_t cache_hits;      /**< requests served from the response cache */
  uint64_t cache_misses;    /**< cache probes that had to execute */
  uint64_t cache_evictions; /**< cache entries displaced by the clock */
  uint64_t effective_linger_us; /**< linger currently applied (max across
                                     shards; == configured max_linger
                                     unless adaptive) */

  uint64_t interactive_rejected;       /**< per-class slices of the */
  uint64_t interactive_shed;           /**< aggregate counters above */
  uint64_t interactive_quota_rejected;
  uint64_t interactive_p99_latency_ns;
  uint64_t bulk_rejected;
  uint64_t bulk_shed;
  uint64_t bulk_quota_rejected;
  uint64_t bulk_p99_latency_ns;

  uint64_t deadline_expired;   /**< requests shed because their deadline
                                    passed before execution started
                                    (subset of `failed`) */
  uint64_t quarantined;        /**< submissions refused as repeat
                                    offenders (not part of `accepted`) */
  uint64_t watchdog_restarts;  /**< retired, always 0: kept for layout
                                    compatibility (the batcher contains
                                    its own faults and is never
                                    restarted) */
  uint64_t brownout;           /**< retired, always 0: kept for layout
                                    compatibility (the service never
                                    degrades to a brownout mode) */

  /* Appended fields (keep at the end for layout compatibility; the
     size and the offsets of the retired and first appended fields are
     static_asserts in anyseq_c.cpp). */
  uint64_t p90_latency_ns;     /**< 90th-percentile latency, pooled */
  uint64_t p999_latency_ns;    /**< 99.9th-percentile latency, pooled */
  uint64_t interactive_p90_latency_ns;
  uint64_t interactive_p999_latency_ns;
  uint64_t bulk_p90_latency_ns;
  uint64_t bulk_p999_latency_ns;
} anyseq_service_stats;

/**
 * \brief Create an asynchronous alignment service.
 *
 * \param max_batch      Flush a forming batch at this many requests;
 *                       `0` picks the default (64).
 * \param max_linger_us  Flush a forming batch this many microseconds
 *                       after its first request even if not full; `0`
 *                       picks the default (200).
 * \param queue_capacity Bound on requests waiting for execution; `0`
 *                       picks the default (1024).
 * \param policy         What submit does when a bound is hit (one of
 *                       ::anyseq_backpressure).
 * \return A new service, or NULL on invalid parameters (negative
 *         values, unknown policy) or resource exhaustion.
 */
anyseq_service* anyseq_service_create(int64_t max_batch,
                                      int64_t max_linger_us,
                                      int64_t queue_capacity, int policy);

/**
 * \brief Create a serving-tier service: N shards behind a shared
 *        response cache, with optional adaptive linger.
 *
 * The first four parameters are as anyseq_service_create() and apply to
 * every shard.  Requests route to shards by query-hash affinity and
 * spill to the least-loaded shard under imbalance; all shards front one
 * response cache, so a result computed anywhere serves hits everywhere.
 *
 * \param shards          Number of service shards; `0` picks 1.
 * \param cache_capacity  Shared response-cache entries; `0` disables
 *                        caching, `< 0` picks the default (4096).
 * \param adaptive_linger Nonzero lets each shard's batcher steer its
 *                        linger between 1/10 of `max_linger_us` and
 *                        `max_linger_us`, shrinking while the
 *                        interactive p99 exceeds 10x `max_linger_us`
 *                        and growing while batches run under-full.
 * \return A new service, or NULL on invalid parameters or resource
 *         exhaustion.
 */
anyseq_service* anyseq_service_create_ex(int64_t max_batch,
                                         int64_t max_linger_us,
                                         int64_t queue_capacity, int policy,
                                         int64_t shards,
                                         int64_t cache_capacity,
                                         int adaptive_linger);

/**
 * \brief Submit one alignment request; the service batches it with
 *        compatible traffic automatically.
 *
 * The sequence strings are copied internally — the caller may free
 * them as soon as this function returns.  A gap of length `k` scores
 * `gap_open + k * gap_extend`; pass `gap_open = 0` for a linear scheme.
 *
 * \param svc            Service handle (must not be NULL).
 * \param query          NUL-terminated DNA string (must not be NULL).
 * \param subject        NUL-terminated DNA string (must not be NULL).
 * \param kind           Alignment kind (::anyseq_align_kind).
 * \param match          Score per matching column; must be `> 0` for
 *                       ANYSEQ_ALIGN_LOCAL.
 * \param mismatch       Score per mismatching column.
 * \param gap_open       Extra cost of opening a gap; must be `<= 0`.
 * \param gap_extend     Cost per gap symbol; must be `<= 0`.
 * \param want_alignment Nonzero to construct the gapped strings
 *                       (retrieved by anyseq_service_wait()).
 * \return A ticket to redeem with anyseq_service_wait(), or NULL on
 *         invalid parameters, a full queue under the reject policy, or
 *         a shut-down service.
 */
anyseq_ticket* anyseq_service_submit(anyseq_service* svc, const char* query,
                                     const char* subject,
                                     anyseq_align_kind kind,
                                     anyseq_score_t match,
                                     anyseq_score_t mismatch,
                                     anyseq_score_t gap_open,
                                     anyseq_score_t gap_extend,
                                     int want_alignment);

/**
 * \brief As anyseq_service_submit(), with an explicit priority class
 *        and tenant id.
 *
 * Interactive requests are served with strict priority over bulk; an
 * interactive arrival cuts a forming bulk batch's linger short.  The
 * tenant id selects a token bucket when the service was configured with
 * quotas (C++ API only for now); services created through this C API
 * have quotas disabled, so `tenant` is recorded but never rejects.
 *
 * \param cls    One of ::anyseq_request_class.
 * \param tenant Tenant id for quota accounting (>= 0).
 * \return A ticket, or NULL on invalid parameters, backpressure
 *         rejection, quota exhaustion, or a shut-down service.
 */
anyseq_ticket* anyseq_service_submit_ex(
    anyseq_service* svc, const char* query, const char* subject,
    anyseq_align_kind kind, anyseq_score_t match, anyseq_score_t mismatch,
    anyseq_score_t gap_open, anyseq_score_t gap_extend, int want_alignment,
    anyseq_request_class cls, int64_t tenant);

/**
 * \brief Block until a submitted request completes; returns its score
 *        and (optionally) the gapped strings.
 *
 * Always consumes and frees the ticket, on success and failure alike.
 *
 * \param ticket    Ticket from anyseq_service_submit() (NULL returns
 *                  ::ANYSEQ_C_ERROR).
 * \param q_aligned Output buffer for the gapped query, capacity
 *                  `>= strlen(query) + strlen(subject) + 1`; may be
 *                  NULL to skip.  Written only when the request was
 *                  submitted with `want_alignment` nonzero.
 * \param s_aligned Output buffer for the gapped subject (same capacity
 *                  rule); may be NULL.
 * \return The optimal alignment score, or ::ANYSEQ_C_ERROR if the
 *         request failed (shed, shut down, or invalid parameters).
 */
anyseq_score_t anyseq_service_wait(anyseq_ticket* ticket, char* q_aligned,
                                   char* s_aligned);

/** anyseq_ticket_wait_for(): the result (or error) is ready —
 *  anyseq_service_wait() will not block. */
#define ANYSEQ_WAIT_READY 0
/** anyseq_ticket_wait_for(): the timeout elapsed first. */
#define ANYSEQ_WAIT_TIMEOUT 1

/**
 * \brief Wait for a request to complete, for at most \p timeout_us
 *        microseconds.
 *
 * Unlike anyseq_service_wait() this does NOT consume the ticket: call
 * it any number of times (e.g. to poll with a deadline budget), then
 * redeem the ticket with anyseq_service_wait() or release it with
 * anyseq_ticket_discard().
 *
 * \param ticket     Ticket from anyseq_service_submit() (NULL returns
 *                   -1).
 * \param timeout_us Microseconds to wait; `0` is an instant readiness
 *                   probe, negative values return -1.
 * \return ::ANYSEQ_WAIT_READY when the result (or error) is available,
 *         ::ANYSEQ_WAIT_TIMEOUT when the timeout elapsed first, or -1
 *         on invalid arguments.
 */
int anyseq_ticket_wait_for(const anyseq_ticket* ticket, int64_t timeout_us);

/**
 * \brief Free a ticket without waiting for its result.
 *
 * The request itself still executes (or is drained at shutdown); only
 * the handle is released.  NULL is ignored.
 */
void anyseq_ticket_discard(anyseq_ticket* ticket);

/**
 * \brief Fill \p out with a telemetry snapshot of \p svc.
 * \return 0 on success, -1 when either pointer is NULL.
 */
int anyseq_service_get_stats(const anyseq_service* svc,
                             anyseq_service_stats* out);

/**
 * \brief Render the service's metrics as Prometheus text exposition
 *        into a caller-owned buffer.
 *
 * Snprintf contract: writes at most `cap - 1` bytes plus a NUL
 * terminator (when `cap > 0`) and returns the byte count the complete
 * exposition needs, excluding the NUL — call once with `(NULL, 0)` to
 * size a buffer, then again to render.  For a sharded service the
 * merged series follow the statistically correct rules (histogram
 * buckets sum, quantiles rank the merged histograms) and a
 * trailing `anyseq_shard_*{shard="i"}` section preserves the per-shard
 * breakdown.  Metric names are documented in docs/OBSERVABILITY.md.
 *
 * \param svc Service handle.
 * \param buf Output buffer (may be NULL when \p cap is 0).
 * \param cap Capacity of \p buf in bytes.
 * \return Bytes required excluding the NUL, or -1 when \p svc is NULL.
 */
int64_t anyseq_service_dump_metrics(const anyseq_service* svc, char* buf,
                                    size_t cap);

/**
 * \brief Start request-lifecycle tracing for the whole process.
 *
 * Allocates a trace collector (fixed per-thread ring buffers; recording
 * is allocation-free and lock-free) and arms it so every service in the
 * process emits span events — submit, cache probe, ring wait, batch
 * collect, workspace wait, kernel execute, complete — plus instants for
 * linger adaptation, deadline shedding, load shedding, and quarantine.
 * Stop with anyseq_tracing_stop(); dump with
 * anyseq_service_dump_trace().  In a library built with
 * `-DANYSEQ_TRACING=0` the emission sites are compiled out: tracing
 * still starts and dumps, but the trace stays empty.
 *
 * \param events_per_thread Ring capacity per recording thread; `<= 0`
 *                          picks the default (8192).  Rings wrap — the
 *                          newest events survive.
 * \return 0 on success, -1 when tracing is already started or the
 *         collector could not be allocated.
 */
int anyseq_tracing_start(int64_t events_per_thread);

/**
 * \brief Disarm and free the process-wide trace collector.
 *
 * Call only when no traffic is in flight (drain or destroy services
 * first, or tolerate losing the last events): emission sites must not
 * race the teardown.  The captured events are freed — dump before
 * stopping.
 *
 * \return 0 on success, -1 when tracing was never started.
 */
int anyseq_tracing_stop(void);

/**
 * \brief Render the captured trace as Chrome trace-event JSON into a
 *        caller-owned buffer.
 *
 * The document loads directly in Perfetto (ui.perfetto.dev) or
 * chrome://tracing.  Same snprintf contract as
 * anyseq_service_dump_metrics().  A dump taken while traffic is still
 * flowing is a best-effort snapshot; dump after draining for an exact
 * capture.  \p svc is accepted for symmetry and future per-service
 * filtering — the trace itself is process-wide.
 *
 * \param svc Service handle.
 * \param buf Output buffer (may be NULL when \p cap is 0).
 * \param cap Capacity of \p buf in bytes.
 * \return Bytes required excluding the NUL, or -1 when \p svc is NULL
 *         or anyseq_tracing_start() was never called.
 */
int64_t anyseq_service_dump_trace(const anyseq_service* svc, char* buf,
                                  size_t cap);

/**
 * \brief Drain and destroy a service.
 *
 * Blocks until every queued request has executed.  Outstanding tickets
 * must have been redeemed or discarded before this call.  NULL is
 * ignored.
 */
void anyseq_service_destroy(anyseq_service* svc);

/**
 * \brief Library version string (static storage; never NULL, do not
 *        free).
 */
const char* anyseq_version(void);

/**
 * \brief Name of the SIMD engine variant the library dispatches to on
 *        this machine.
 *
 * The library ships every alignment engine three times, compiled into
 * the per-variant namespaces `anyseq::v_scalar` / `v_avx2` / `v_avx512`
 * with the matching instruction-set flags.  At each call the dispatcher
 * probes the CPU and selects the widest variant both the binary and the
 * processor support; this function reports that selection — it is
 * exactly the `ops.name` of the dispatched variant table, i.e. what
 * every C API alignment call in this process will execute.
 *
 * \return `"scalar"`, `"avx2"`, or `"avx512"` (static storage; never
 *         NULL, do not free).  The value is stable for the lifetime of
 *         the process.
 */
const char* anyseq_backend_name(void);

#ifdef __cplusplus
}
#endif

#endif /* ANYSEQ_C_H */
