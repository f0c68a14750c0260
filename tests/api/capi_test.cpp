#include "capi/anyseq_c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "anyseq/anyseq.hpp"

namespace {

TEST(CApi, GlobalScore) {
  EXPECT_EQ(anyseq_global_score("ACGT", "ACGT", 2, -1, -1), 8);
  EXPECT_EQ(anyseq_global_score("ACGT", "AGGT", 2, -1, -1), 5);
}

TEST(CApi, LocalScore) {
  EXPECT_EQ(anyseq_local_score("TTACGTTT", "GGACGGG", 2, -2, -3, -1), 6);
}

TEST(CApi, SemiglobalScore) {
  EXPECT_EQ(anyseq_semiglobal_score("ACGT", "TTTTACGTTTTT", 2, -1, -1), 8);
}

TEST(CApi, ConstructGlobalAlignment) {
  char qa[32], sa[32];
  const auto score =
      anyseq_construct_global_alignment("ACGTACGT", "ACGTCGT", qa, sa);
  EXPECT_EQ(score, 13);
  EXPECT_EQ(std::strlen(qa), std::strlen(sa));
  EXPECT_EQ(std::strlen(qa), 8u);
  // Stripping gaps reproduces the inputs.
  std::string qp, sp;
  for (const char* p = qa; *p; ++p)
    if (*p != '-') qp.push_back(*p);
  for (const char* p = sa; *p; ++p)
    if (*p != '-') sp.push_back(*p);
  EXPECT_EQ(qp, "ACGTACGT");
  EXPECT_EQ(sp, "ACGTCGT");
}

TEST(CApi, ConstructGlobalAffine) {
  char qa[32], sa[32];
  const auto score = anyseq_construct_global_alignment_affine(
      "ACGT", "ACGGT", 2, -1, -2, -1, qa, sa);
  EXPECT_EQ(score, 5);  // 4 matches - (2+1)
}

TEST(CApi, ConstructLocalAlignment) {
  char qa[64], sa[64];
  int64_t qb = -1, sb = -1;
  const auto score = anyseq_construct_local_alignment(
      "TTTTACGTACGTTTTT", "GGGGACGTACGGGGGG", 2, -2, 0, -2, qa, sa, &qb,
      &sb);
  EXPECT_EQ(score, 14);
  EXPECT_STREQ(qa, "ACGTACG");
  EXPECT_EQ(qb, 4);
  EXPECT_EQ(sb, 4);
}

TEST(CApi, NullInputsReturnError) {
  EXPECT_EQ(anyseq_global_score(nullptr, "ACGT", 2, -1, -1), ANYSEQ_C_ERROR);
  EXPECT_EQ(anyseq_global_score("ACGT", nullptr, 2, -1, -1), ANYSEQ_C_ERROR);
}

TEST(CApi, InvalidParamsReturnError) {
  // Positive gap penalty is invalid.
  EXPECT_EQ(anyseq_global_score("ACGT", "ACGT", 2, -1, +1), ANYSEQ_C_ERROR);
}

TEST(CApi, ScoreMagnitudesAreBounded) {
  // Past ANYSEQ_MAX_ABS_SCORE (INT32_MIN included) every score argument
  // is an error; at the limit the call aligns exactly like C++.
  static_assert(ANYSEQ_MAX_ABS_SCORE == anyseq::max_abs_score);
  const anyseq_score_t lim = ANYSEQ_MAX_ABS_SCORE;
  const char* q = "ACGTACGGT";
  const char* s = "ACTTACGT";
  char qa[32], sa[32];
  const auto call = [&](int field, anyseq_score_t v) {
    anyseq_score_t p[4] = {2, -1, -2, -1};  // match, mismatch, open, extend
    p[field] = v;
    return anyseq_construct_global_alignment_affine(q, s, p[0], p[1], p[2],
                                                    p[3], qa, sa);
  };
  for (int field = 0; field < 4; ++field) {
    for (const anyseq_score_t bad : {lim + 1, -lim - 1, INT32_MIN})
      EXPECT_EQ(call(field, bad), ANYSEQ_C_ERROR)
          << "field " << field << " = " << bad;
    // Gap arguments must be <= 0, so their accepted edge is -lim.
    for (const anyseq_score_t edge : {lim, -lim}) {
      if (edge > 0 && field >= 2) continue;
      anyseq::align_options opt;
      opt.want_alignment = true;
      opt.gap_open = -2;
      anyseq::score_t* fields[4] = {&opt.match, &opt.mismatch, &opt.gap_open,
                            &opt.gap_extend};
      *fields[field] = edge;
      EXPECT_EQ(call(field, edge), anyseq::align_strings(q, s, opt).score)
          << "field " << field << " = " << edge;
    }
  }
}

TEST(CApi, ShapesPastTheInt32BoundReturnError) {
  // A^2100 against C^2100 at +-2^20 could reach |score| > 2^31: rejected
  // like every other invalid input, synchronously and by the service.
  const anyseq_score_t lim = ANYSEQ_MAX_ABS_SCORE;
  const std::string q(2100, 'A'), s(2100, 'C');
  EXPECT_EQ(anyseq_global_score(q.c_str(), s.c_str(), lim, -lim, -lim),
            ANYSEQ_C_ERROR);
  anyseq_service* svc = anyseq_service_create(0, 0, 0, 0);
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(anyseq_service_submit(svc, q.c_str(), s.c_str(),
                                  ANYSEQ_ALIGN_GLOBAL, lim, -lim, 0, -lim, 0),
            nullptr);
  anyseq_service_destroy(svc);
}

TEST(CApi, Version) {
  EXPECT_STREQ(anyseq_version(), "1.0.0");
}

TEST(CApiService, CreateSubmitWaitDestroy) {
  anyseq_service* svc = anyseq_service_create(0, 0, 0, 0);
  ASSERT_NE(svc, nullptr);
  anyseq_ticket* t = anyseq_service_submit(
      svc, "ACGT", "ACGT", ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(anyseq_service_wait(t, nullptr, nullptr), 8);
  anyseq_service_destroy(svc);
}

TEST(CApiService, WantAlignmentFillsBuffers) {
  anyseq_service* svc = anyseq_service_create(16, 100, 64,
                                              ANYSEQ_BACKPRESSURE_BLOCK);
  ASSERT_NE(svc, nullptr);
  char qa[32], sa[32];
  anyseq_ticket* t = anyseq_service_submit(
      svc, "ACGTACGT", "ACGTCGT", ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 1);
  ASSERT_NE(t, nullptr);
  // Identical to the synchronous C entry point.
  char qa_sync[32], sa_sync[32];
  const auto want = anyseq_construct_global_alignment("ACGTACGT", "ACGTCGT",
                                                      qa_sync, sa_sync);
  EXPECT_EQ(anyseq_service_wait(t, qa, sa), want);
  EXPECT_STREQ(qa, qa_sync);
  EXPECT_STREQ(sa, sa_sync);
  anyseq_service_destroy(svc);
}

TEST(CApiService, ManyRequestsMatchSynchronousScores) {
  anyseq_service* svc = anyseq_service_create(32, 500, 256,
                                              ANYSEQ_BACKPRESSURE_BLOCK);
  ASSERT_NE(svc, nullptr);
  const char* seqs[] = {"ACGTACGTAC", "ACGTTCGTAC", "TTTTACGTTT",
                        "GGACGGGTTA", "ACGT", "A"};
  std::vector<anyseq_ticket*> tickets;
  for (int i = 0; i < 48; ++i)
    tickets.push_back(anyseq_service_submit(
        svc, seqs[i % 6], seqs[(i + 1) % 6], ANYSEQ_ALIGN_GLOBAL, 2, -1, -2,
        -1, 0));
  for (int i = 0; i < 48; ++i) {
    ASSERT_NE(tickets[i], nullptr) << i;
    const auto want = anyseq::align_strings(
        seqs[i % 6], seqs[(i + 1) % 6], [] {
          anyseq::align_options o;
          o.gap_open = -2;
          return o;
        }());
    EXPECT_EQ(anyseq_service_wait(tickets[i], nullptr, nullptr), want.score)
        << i;
  }
  anyseq_service_stats stats;
  ASSERT_EQ(anyseq_service_get_stats(svc, &stats), 0);
  EXPECT_EQ(stats.accepted, 48u);
  EXPECT_EQ(stats.completed, 48u);
  EXPECT_GE(stats.mean_batch_occupancy, 1.0);
  // Robustness counters: a healthy service reports all-clear.
  EXPECT_EQ(stats.deadline_expired, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.watchdog_restarts, 0u);
  EXPECT_EQ(stats.brownout, 0u);
  anyseq_service_destroy(svc);
}

TEST(CApiService, TicketWaitForProbesWithoutConsuming) {
  anyseq_service* svc =
      anyseq_service_create(1, 0, 8, ANYSEQ_BACKPRESSURE_BLOCK);
  ASSERT_NE(svc, nullptr);
  // A large pair keeps the ticket pending long enough that the instant
  // and 1ms probes below reliably observe TIMEOUT.
  const std::string big_q(8000, 'A');
  std::string big_s;
  for (int i = 0; i < 8000; ++i) big_s.push_back("ACGT"[i % 4]);
  anyseq_ticket* slow =
      anyseq_service_submit(svc, big_q.c_str(), big_s.c_str(),
                            ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(anyseq_ticket_wait_for(slow, 0), ANYSEQ_WAIT_TIMEOUT);
  EXPECT_EQ(anyseq_ticket_wait_for(slow, 1000), ANYSEQ_WAIT_TIMEOUT);
  EXPECT_EQ(anyseq_ticket_wait_for(slow, -1), -1);  // negative timeout
  EXPECT_EQ(anyseq_ticket_wait_for(nullptr, 0), -1);
  // Bounded wait to completion; none of the probes consumed the ticket,
  // so redeeming it still returns the score.
  EXPECT_EQ(anyseq_ticket_wait_for(slow, 60000000), ANYSEQ_WAIT_READY);
  EXPECT_EQ(anyseq_ticket_wait_for(slow, 0), ANYSEQ_WAIT_READY);
  const auto want = anyseq::align_strings(big_q, big_s).score;
  EXPECT_EQ(anyseq_service_wait(slow, nullptr, nullptr), want);
  anyseq_service_destroy(svc);
}

TEST(CApiService, InvalidArgumentsReturnNullOrError) {
  EXPECT_EQ(anyseq_service_create(-1, 0, 0, 0), nullptr);
  EXPECT_EQ(anyseq_service_create(0, 0, 0, 99), nullptr);

  anyseq_service* svc = anyseq_service_create(0, 0, 0, 0);
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(anyseq_service_submit(nullptr, "A", "A", ANYSEQ_ALIGN_GLOBAL, 2,
                                  -1, 0, -1, 0),
            nullptr);
  EXPECT_EQ(anyseq_service_submit(svc, nullptr, "A", ANYSEQ_ALIGN_GLOBAL, 2,
                                  -1, 0, -1, 0),
            nullptr);
  EXPECT_EQ(anyseq_service_submit(svc, "A", nullptr, ANYSEQ_ALIGN_GLOBAL, 2,
                                  -1, 0, -1, 0),
            nullptr);
  // Positive gap penalty: rejected synchronously, no ticket.
  EXPECT_EQ(anyseq_service_submit(svc, "A", "A", ANYSEQ_ALIGN_GLOBAL, 2, -1,
                                  0, +1, 0),
            nullptr);
  EXPECT_EQ(anyseq_service_wait(nullptr, nullptr, nullptr), ANYSEQ_C_ERROR);
  anyseq_ticket_discard(nullptr);  // must be a safe no-op
  anyseq_service_destroy(nullptr); // must be a safe no-op
  anyseq_service_destroy(svc);
}

TEST(CApiService, DiscardedTicketStillExecutesAndDrains) {
  anyseq_service* svc = anyseq_service_create(0, 0, 0, 0);
  ASSERT_NE(svc, nullptr);
  anyseq_ticket* t = anyseq_service_submit(
      svc, "ACGTACGT", "ACGTACGT", ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
  ASSERT_NE(t, nullptr);
  anyseq_ticket_discard(t);
  anyseq_service_destroy(svc);  // drains without leaking the slot
}

TEST(CApiService, ShardedServiceServesAResubmittedPairFromTheCache) {
  anyseq_service* svc = anyseq_service_create_ex(
      0, 0, 0, ANYSEQ_BACKPRESSURE_BLOCK, /*shards=*/2,
      /*cache_capacity=*/64, /*adaptive_linger=*/0);
  ASSERT_NE(svc, nullptr);
  const auto want = anyseq::align_strings("ACGTACGTTGCA", "ACGTCGTTACGCA");
  for (int k = 0; k < 2; ++k) {
    anyseq_ticket* t =
        anyseq_service_submit(svc, "ACGTACGTTGCA", "ACGTCGTTACGCA",
                              ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
    ASSERT_NE(t, nullptr) << k;
    EXPECT_EQ(anyseq_service_wait(t, nullptr, nullptr), want.score) << k;
  }
  anyseq_service_stats stats;
  ASSERT_EQ(anyseq_service_get_stats(svc, &stats), 0);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);  // the resubmission
  EXPECT_EQ(stats.cache_misses, 1u);
  anyseq_service_destroy(svc);
}

TEST(CApiService, CreateExRejectsNegativeShardsAndUnknownPolicy) {
  EXPECT_EQ(anyseq_service_create_ex(0, 0, 0, ANYSEQ_BACKPRESSURE_BLOCK, -1,
                                     0, 0),
            nullptr);
  EXPECT_EQ(anyseq_service_create_ex(0, 0, 0, 99, 2, 0, 0), nullptr);
  EXPECT_EQ(anyseq_service_create_ex(0, 0, 0, -1, 2, 0, 0), nullptr);
}

TEST(CApiService, BulkSubmitLandsInTheBulkSlice) {
  anyseq_service* svc = anyseq_service_create_ex(
      0, 0, 0, ANYSEQ_BACKPRESSURE_BLOCK, 1, 0, 0);
  ASSERT_NE(svc, nullptr);
  anyseq_ticket* t = anyseq_service_submit_ex(
      svc, "ACGTACGT", "ACGTTCGT", ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0,
      ANYSEQ_CLASS_BULK, /*tenant=*/7);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(anyseq_service_wait(t, nullptr, nullptr),
            anyseq::align_strings("ACGTACGT", "ACGTTCGT").score);
  anyseq_service_stats stats;
  ASSERT_EQ(anyseq_service_get_stats(svc, &stats), 0);
  EXPECT_EQ(stats.completed, 1u);
  // Only the bulk histogram holds a sample.
  EXPECT_GT(stats.bulk_p99_latency_ns, 0u);
  EXPECT_EQ(stats.interactive_p99_latency_ns, 0u);
  anyseq_service_destroy(svc);
}

TEST(CApiService, SubmitExRejectsUnknownClassAndNegativeTenant) {
  anyseq_service* svc = anyseq_service_create_ex(
      0, 0, 0, ANYSEQ_BACKPRESSURE_BLOCK, 1, 0, 0);
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(anyseq_service_submit_ex(svc, "ACGT", "ACGT",
                                     ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0,
                                     static_cast<anyseq_request_class>(2), 0),
            nullptr);
  EXPECT_EQ(anyseq_service_submit_ex(svc, "ACGT", "ACGT",
                                     ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0,
                                     ANYSEQ_CLASS_INTERACTIVE, -1),
            nullptr);
  anyseq_service_stats stats;
  ASSERT_EQ(anyseq_service_get_stats(svc, &stats), 0);
  EXPECT_EQ(stats.accepted, 0u);
  anyseq_service_destroy(svc);
}

TEST(CApiAligner, HandleMatchesStatelessResults) {
  anyseq_aligner* a = anyseq_aligner_create();
  ASSERT_NE(a, nullptr);
  const char* q = "ACGTACGTTGCA";
  const char* s = "ACGTCGTTACGCA";

  EXPECT_EQ(anyseq_aligner_global_score(a, q, s, 2, -1, -1),
            anyseq_global_score(q, s, 2, -1, -1));
  EXPECT_EQ(anyseq_aligner_local_score(a, q, s, 2, -1, -2, -1),
            anyseq_local_score(q, s, 2, -1, -2, -1));
  EXPECT_EQ(anyseq_aligner_semiglobal_score(a, q, s, 2, -1, -1),
            anyseq_semiglobal_score(q, s, 2, -1, -1));

  // Traceback through the handle equals the stateless construction.
  char qa1[64], sa1[64], qa2[64], sa2[64];
  const auto sc1 = anyseq_aligner_construct_global_alignment_affine(
      a, q, s, 2, -1, -2, -1, qa1, sa1);
  const auto sc2 = anyseq_construct_global_alignment_affine(
      q, s, 2, -1, -2, -1, qa2, sa2);
  EXPECT_EQ(sc1, sc2);
  EXPECT_STREQ(qa1, qa2);
  EXPECT_STREQ(sa1, sa2);

  // The handle keeps (and reports) its warm workspace.
  EXPECT_GT(anyseq_aligner_workspace_bytes(a), 0u);
  anyseq_aligner_shrink(a);
  // Usable after shrink (re-warms transparently).
  EXPECT_EQ(anyseq_aligner_global_score(a, q, s, 2, -1, -1),
            anyseq_global_score(q, s, 2, -1, -1));
  anyseq_aligner_destroy(a);
}

TEST(CApiAligner, PlanReportsRouteAndPrecision) {
  anyseq_aligner* a = anyseq_aligner_create();
  ASSERT_NE(a, nullptr);

  anyseq_plan p{};
  // Default scoring on a mid-size problem: the 32-bit engines.
  ASSERT_EQ(anyseq_aligner_plan(a, 500, 500, 2, -1, -1, &p), 0);
  EXPECT_STREQ(p.precision, "int32");
  EXPECT_STREQ(p.variant, anyseq_backend_name());
  EXPECT_GT(p.workspace_bytes, 0u);

  // Unit-cost scoring admits the Myers bit-parallel route.
  ASSERT_EQ(anyseq_aligner_plan(a, 150, 150, 0, -1, -1, &p), 0);
  EXPECT_STREQ(p.route, "bitpar_score");
  EXPECT_STREQ(p.precision, "bitpar");
  EXPECT_GT(p.workspace_bytes, 0u);

  // Invalid shape / scoring / pointers report failure, touch nothing.
  EXPECT_EQ(anyseq_aligner_plan(a, 0, 10, 2, -1, -1, &p), -1);
  EXPECT_EQ(anyseq_aligner_plan(a, 10, 10, 2, -1, +1, &p), -1);
  EXPECT_EQ(anyseq_aligner_plan(a, 10, 10, 2, -1, -1, nullptr), -1);
  EXPECT_EQ(anyseq_aligner_plan(nullptr, 10, 10, 2, -1, -1, &p), -1);
  anyseq_aligner_destroy(a);
}

TEST(CApiAligner, RejectsInvalidInput) {
  anyseq_aligner* a = anyseq_aligner_create();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(anyseq_aligner_global_score(nullptr, "A", "A", 2, -1, -1),
            ANYSEQ_C_ERROR);
  EXPECT_EQ(anyseq_aligner_global_score(a, nullptr, "A", 2, -1, -1),
            ANYSEQ_C_ERROR);
  EXPECT_EQ(anyseq_aligner_global_score(a, "A", "A", 2, -1, +1),
            ANYSEQ_C_ERROR);  // positive gap penalty
  EXPECT_EQ(anyseq_aligner_local_score(a, "A", "A", 0, -1, 0, -1),
            ANYSEQ_C_ERROR);  // non-positive local match
  // Lifecycle no-ops on NULL.
  anyseq_aligner_reserve(nullptr, 10, 10);
  anyseq_aligner_shrink(nullptr);
  anyseq_aligner_destroy(nullptr);
  EXPECT_EQ(anyseq_aligner_workspace_bytes(nullptr), 0u);
  anyseq_aligner_destroy(a);
}

TEST(CApi, BackendNameRoundTripsToCppDispatch) {
  const char* name = anyseq_backend_name();
  ASSERT_NE(name, nullptr);
  // Must be one of the shipped CPU engine variants...
  const bool known = std::strcmp(name, "scalar") == 0 ||
                     std::strcmp(name, "avx2") == 0 ||
                     std::strcmp(name, "avx512") == 0;
  EXPECT_TRUE(known) << name;
  // ...and exactly the variant the C++ dispatcher resolves and stamps.
  EXPECT_STREQ(name, anyseq::backend_name());
  const auto r = anyseq::align_strings("ACGTACGTTGCA", "ACGTCGTTACGCA", {});
  EXPECT_STREQ(name, r.variant);
  // Stable across calls (static storage contract).
  EXPECT_EQ(name, anyseq_backend_name());
}

}  // namespace
