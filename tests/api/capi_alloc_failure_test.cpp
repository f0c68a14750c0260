/// \file capi_alloc_failure_test.cpp
/// The C API under memory exhaustion: an entry point whose allocation
/// fails returns its documented error value (ANYSEQ_C_ERROR, -1 or NULL)
/// instead of letting std::bad_alloc cross `extern "C"`, where it would
/// end the process in std::terminate.
///
/// The global operator new is replaced by a forwarder with an armable,
/// per-thread fault: armed with k, the calling thread's first k
/// allocations succeed and every later one throws std::bad_alloc until
/// the fault is disarmed.  Each test sweeps k upward from 0 until a call
/// runs to completion, so every allocation an entry point makes fails
/// once, and after each faulted call the same handle must still return
/// the right answer.  Only the calling thread is faulted: the service's
/// batcher and the pool allocate normally.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "capi/anyseq_c.h"

namespace {

/// Allocations this thread may still make before the fault fires; -1
/// when disarmed.  Constant-initialized, so reading it from operator new
/// never allocates.
thread_local long t_allocs_left = -1;
thread_local bool t_fired = false;

void check_fault() {
  if (t_allocs_left < 0) return;
  if (t_allocs_left == 0) {
    t_fired = true;
    throw std::bad_alloc();
  }
  --t_allocs_left;
}

void* hooked_alloc(std::size_t n) {
  check_fault();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* hooked_aligned_alloc(std::size_t n, std::align_val_t al) {
  check_fault();
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return hooked_alloc(n); }
void* operator new[](std::size_t n) { return hooked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return hooked_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return hooked_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return hooked_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

/// Runs `call()` with this thread's allocations failing from the
/// (k+1)-th on, for k = 0, 1, ..., until a run completes without the
/// fault firing.  `check(result, faulted)` judges every run, outside the
/// fault.  Returns the number of faulted runs.
template <class Call, class Check>
int sweep(Call&& call, Check&& check) {
  for (long k = 0; k < 100000; ++k) {
    t_fired = false;
    t_allocs_left = k;
    const auto r = call();
    t_allocs_left = -1;
    const bool faulted = t_fired;
    check(r, faulted);
    if (!faulted) return static_cast<int>(k);
  }
  ADD_FAILURE() << "the call still allocated after 100000 allocations";
  return -1;
}

const std::string kQuery =
    "ACGTACGTTAGCCATGACGTAGCTAGCTAGGCTAACGTTAGCATCGATCGATGCTAGCTAGCATCG";
const std::string kSubject =
    "ACGTACGATAGCCTGACGTAGCTAGTAGGCTAACGTTTAGCATCGATGATGCTAGCTAGCATCG";

TEST(CApiAllocFailure, OneShotEntryPointsReturnTheErrorValue) {
  const char* q = kQuery.c_str();
  const char* s = kSubject.c_str();
  std::string qa(kQuery.size() + kSubject.size() + 1, '\0');
  std::string sa = qa;
  int64_t qb = 0, sb = 0;
  using entry = anyseq_score_t (*)(const char*, const char*, char*, char*,
                                   int64_t*, int64_t*);
  const entry entries[] = {
      [](const char* x, const char* y, char*, char*, int64_t*, int64_t*) {
        return anyseq_global_score(x, y, 2, -1, -1);
      },
      [](const char* x, const char* y, char*, char*, int64_t*, int64_t*) {
        return anyseq_local_score(x, y, 2, -1, -2, -1);
      },
      [](const char* x, const char* y, char*, char*, int64_t*, int64_t*) {
        return anyseq_semiglobal_score(x, y, 2, -1, -1);
      },
      [](const char* x, const char* y, char* a, char* b, int64_t*,
         int64_t*) { return anyseq_construct_global_alignment(x, y, a, b); },
      [](const char* x, const char* y, char* a, char* b, int64_t*,
         int64_t*) {
        return anyseq_construct_global_alignment_affine(x, y, 2, -1, -2, -1,
                                                        a, b);
      },
      [](const char* x, const char* y, char* a, char* b, int64_t* qb_,
         int64_t* sb_) {
        return anyseq_construct_local_alignment(x, y, 2, -1, -2, -1, a, b,
                                                qb_, sb_);
      },
  };
  for (std::size_t e = 0; e < std::size(entries); ++e) {
    SCOPED_TRACE(::testing::Message() << "entry point " << e);
    const auto run = [&] {
      return entries[e](q, s, qa.data(), sa.data(), &qb, &sb);
    };
    const anyseq_score_t want = run();
    ASSERT_NE(want, ANYSEQ_C_ERROR);
    const int faulted = sweep(run, [&](anyseq_score_t r, bool fault) {
      EXPECT_TRUE(r == want || (fault && r == ANYSEQ_C_ERROR)) << r;
      if (fault) {
        EXPECT_EQ(run(), want) << "no recovery after a fault";
      }
    });
    EXPECT_GT(faulted, 0);
  }
}

TEST(CApiAllocFailure, AlignerHandleCallsReturnTheErrorValue) {
  std::string qa(kQuery.size() + kSubject.size() + 1, '\0');
  std::string sa = qa;
  using entry = anyseq_score_t (*)(anyseq_aligner*, const std::string&,
                                   const std::string&, char*, char*);
  const entry entries[] = {
      [](anyseq_aligner* a, const std::string& x, const std::string& y,
         char*, char*) {
        return anyseq_aligner_global_score(a, x.c_str(), y.c_str(), 2, -1,
                                           -1);
      },
      [](anyseq_aligner* a, const std::string& x, const std::string& y,
         char*, char*) {
        return anyseq_aligner_local_score(a, x.c_str(), y.c_str(), 2, -1, -2,
                                          -1);
      },
      [](anyseq_aligner* a, const std::string& x, const std::string& y,
         char*, char*) {
        return anyseq_aligner_semiglobal_score(a, x.c_str(), y.c_str(), 2,
                                               -1, -1);
      },
      [](anyseq_aligner* a, const std::string& x, const std::string& y,
         char* qa_, char* sa_) {
        return anyseq_aligner_construct_global_alignment_affine(
            a, x.c_str(), y.c_str(), 2, -1, -2, -1, qa_, sa_);
      },
  };
  for (std::size_t e = 0; e < std::size(entries); ++e) {
    SCOPED_TRACE(::testing::Message() << "entry point " << e);
    anyseq_aligner* warm = anyseq_aligner_create();
    ASSERT_NE(warm, nullptr);
    const anyseq_score_t want =
        entries[e](warm, kQuery, kSubject, qa.data(), sa.data());
    anyseq_aligner_destroy(warm);
    ASSERT_NE(want, ANYSEQ_C_ERROR);
    // A cold handle per run, so the sweep reaches the arena's first
    // carve and the encode buffers' first growth.
    anyseq_aligner* a = nullptr;
    const int faulted = sweep(
        [&] {
          a = anyseq_aligner_create();
          return a == nullptr
                     ? ANYSEQ_C_ERROR
                     : entries[e](a, kQuery, kSubject, qa.data(), sa.data());
        },
        [&](anyseq_score_t r, bool fault) {
          EXPECT_TRUE(r == want || (fault && r == ANYSEQ_C_ERROR)) << r;
          if (a != nullptr) {
            EXPECT_EQ(entries[e](a, kQuery, kSubject, qa.data(), sa.data()),
                      want)
                << "no recovery after a fault";
          }
          anyseq_aligner_destroy(a);
        });
    EXPECT_GT(faulted, 0);
  }
}

TEST(CApiAllocFailure, ServiceEntryPointsReturnTheErrorValue) {
  anyseq_service* svc = anyseq_service_create_ex(
      8, 100, 64, ANYSEQ_BACKPRESSURE_BLOCK, /*shards=*/2,
      /*cache_capacity=*/16, /*adaptive_linger=*/0);
  ASSERT_NE(svc, nullptr);
  const anyseq_score_t want =
      anyseq_global_score(kQuery.c_str(), kSubject.c_str(), 2, -1, -1);
  int faulted = sweep(
      [&] {
        return anyseq_service_submit(svc, kQuery.c_str(), kSubject.c_str(),
                                     ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
      },
      [&](anyseq_ticket* t, bool fault) {
        EXPECT_TRUE(fault || t != nullptr);
        if (t != nullptr) {
          EXPECT_EQ(anyseq_service_wait(t, nullptr, nullptr), want);
        }
      });
  EXPECT_GT(faulted, 0);

  faulted = sweep([&] { return anyseq_service_dump_metrics(svc, nullptr, 0); },
                  [&](int64_t r, bool fault) {
                    if (fault) {
                      EXPECT_EQ(r, -1);
                    } else {
                      EXPECT_GT(r, 0);
                    }
                  });
  EXPECT_GT(faulted, 0);

  anyseq_service_destroy(svc);
}

}  // namespace
