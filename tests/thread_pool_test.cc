#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/run_context.h"

namespace famtree {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

class ThreadPoolParallelForTest : public testing::TestWithParam<int> {};

TEST_P(ThreadPoolParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  EXPECT_EQ(pool.num_threads(), GetParam());
  std::vector<std::atomic<int>> hits(777);
  for (auto& h : hits) h.store(0);
  Status st = pool.ParallelFor(777, [&hits](int64_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ThreadPoolParallelForTest, ReportsLowestFailingIndex) {
  ThreadPool pool(GetParam());
  // Indices 5 and above all fail; the reported message must always be the
  // one from index 5 regardless of scheduling.
  for (int round = 0; round < 20; ++round) {
    Status st = pool.ParallelFor(200, [](int64_t i) {
      if (i >= 5) {
        return Status::Invalid("fail at " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "fail at 5");
  }
}

TEST_P(ThreadPoolParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(GetParam());
  EXPECT_TRUE(pool.ParallelFor(0, [](int64_t) {
                    return Status::Invalid("never runs");
                  }).ok());
}

TEST_P(ThreadPoolParallelForTest, NestedCallsComplete) {
  // Every outer iteration makes an ordinary ParallelFor on the same pool;
  // a pool that counted the outer call's own helpers as outstanding work
  // would hang here.
  ThreadPool pool(GetParam());
  constexpr int kOuter = 16;
  constexpr int kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  Status st = pool.ParallelFor(kOuter, [&pool, &hits](int64_t i) {
    return pool.ParallelFor(kInner, [&hits, i](int64_t j) {
      hits[i * kInner + j].fetch_add(1);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t c = 0; c < hits.size(); ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "cell " << c;
  }
}

TEST_P(ThreadPoolParallelForTest, StopReturnsStatusAndPoolServesLaterCalls) {
  ThreadPool pool(GetParam());
  constexpr int64_t kN = 2000;
  std::atomic<int64_t> ran{0};
  Status st = pool.ParallelFor(kN, [&ran](int64_t i) {
    ran.fetch_add(1);
    if (i == 3) return Status::Cancelled("stop at 3");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(RunContext::IsStop(st));
  EXPECT_EQ(st.message(), "stop at 3");
  EXPECT_LT(ran.load(), kN);

  std::atomic<int64_t> sum{0};
  st = pool.ParallelFor(64, [&sum](int64_t i) {
    sum.fetch_add(i);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParallelForTest,
                         testing::Values(1, 2, 8));

TEST(ThreadPoolTest, FreeFunctionFallsBackToSerialWithoutPool) {
  std::vector<int> hits(50, 0);
  Status st = ParallelFor(nullptr, 50, [&hits](int64_t i) {
    hits[i] += 1;  // no synchronization needed: serial fallback
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, FreeFunctionStopsAtFirstSerialError) {
  int ran_up_to = -1;
  Status st = ParallelFor(nullptr, 10, [&ran_up_to](int64_t i) {
    ran_up_to = static_cast<int>(i);
    if (i == 3) return Status::Internal("boom");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(ran_up_to, 3);
}

TEST(ThreadPoolTest, ManySmallParallelForsReuseWorkers) {
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    Status st = pool.ParallelFor(64, [&sum](int64_t i) {
      sum.fetch_add(i);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPoolTest, ShortCallDoesNotWaitForAnotherCall) {
  // One call's two iterations are held on a latch; a second call on the
  // same pool must finish on its own. A pool-wide join would block it until
  // the latch opens.
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::thread long_call([&] {
    Status st = pool.ParallelFor(2, [&](int64_t) {
      entered.fetch_add(1);
      opened.wait();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  auto held_by = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (entered.load() < 2 && std::chrono::steady_clock::now() < held_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(entered.load(), 2);

  std::atomic<int64_t> sum{0};
  auto short_call = std::async(std::launch::async, [&pool, &sum] {
    return pool.ParallelFor(64, [&sum](int64_t i) {
      sum.fetch_add(i);
      return Status::OK();
    });
  });
  bool returned = short_call.wait_for(std::chrono::seconds(5)) ==
                  std::future_status::ready;
  latch.set_value();
  long_call.join();
  EXPECT_TRUE(returned) << "the short call waited for the held one";
  Status st = short_call.get();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

}  // namespace
}  // namespace famtree
