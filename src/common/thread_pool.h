#ifndef FAMTREE_COMMON_THREAD_POOL_H_
#define FAMTREE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace famtree {

/// The discovery engine's thread pool. It runs one kind of work: a
/// ParallelFor call posts its index range on the pool's job list, idle
/// workers join it as helpers and claim indices from the call's cursor next
/// to the calling thread, and the call returns once its range is drained
/// and the helpers that joined it have left. A call never waits for
/// another call's work, so concurrent callers (the service's requests) do
/// not convoy behind each other, and a ParallelFor made from inside an
/// iteration is an ordinary call that completes. Idle workers block
/// without a timeout until a call is posted. The pool never throws across
/// its API — failures come back as the Status of the lowest failing index.
///
/// Determinism contract: the pool schedules work in an arbitrary order, so
/// callers that need reproducible output must write results into
/// pre-allocated, index-addressed slots and merge them in index order
/// afterwards. Every parallel algorithm in famtree follows that pattern,
/// which is what the differential tests in tests/engine_determinism_test.cc
/// lock down.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(int num_threads = 0);
  /// Joins the workers. No ParallelFor call may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for every i in [0, n), spreading iterations over the
  /// workers (the calling thread participates). Returns the Status of the
  /// lowest failing index, or OK. Remaining iterations are skipped after
  /// the first failure is observed, but the reported Status is
  /// deterministic: it is always the failure with the smallest index among
  /// those that ran. Run-control failures (RunContext::IsStop) short-circuit
  /// harder: every worker drops out at its next claim regardless of index,
  /// so a cancelled run drains within one in-flight iteration per worker.
  /// fn may itself call ParallelFor on this pool.
  Status ParallelFor(int64_t n, const std::function<Status(int64_t)>& fn);

 private:
  struct Job;

  void WorkerLoop();
  /// The claim loop the caller and every helper of `job` run.
  void Drain(Job& job);

  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards jobs_, shutdown_, job bookkeeping
  std::condition_variable wake_;   // signalled on a posted job and shutdown
  std::vector<Job*> jobs_;         // posted calls, oldest first
  bool shutdown_ = false;
};

/// Convenience wrapper used by the discovery algorithms: serial fallback
/// when `pool` is null (or the range is trivial), pooled otherwise.
Status ParallelFor(ThreadPool* pool, int64_t n,
                   const std::function<Status(int64_t)>& fn);

}  // namespace famtree

#endif  // FAMTREE_COMMON_THREAD_POOL_H_
