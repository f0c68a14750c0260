#pragma once
/// \file service_waits.hpp
/// Event waits shared by the service tests: a test that needs the
/// service in some state polls for that state instead of sleeping and
/// hoping the service got there.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "testutil.hpp"

namespace anyseq::service {

/// Poll the service until `pred(stats())` holds or ~2s elapse.
template <class Pred>
bool stats_become(const aligner& svc, Pred&& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(svc.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Submit one request and return once the batcher has pulled it: the
/// batcher holds the service lock from the pop until its linger wait, so
/// an empty queue seen under that lock means the lead is lingering.
inline ticket submit_lingering_lead(aligner& svc,
                                    const std::vector<char_t>& q,
                                    const align_options& opt = {},
                                    const submit_options& so = {}) {
  auto t = svc.submit(test::view(q), test::view(q), opt, so);
  EXPECT_TRUE(stats_become(
      svc, [](const service_stats& s) { return s.queue_depth == 0; }));
  return t;
}

}  // namespace anyseq::service
