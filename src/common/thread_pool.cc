#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/run_context.h"

namespace famtree {

/// One ParallelFor call. It lives on the caller's stack and stays on the
/// pool's job list until the caller's own claim loop returns.
struct ThreadPool::Job {
  Job(const std::function<Status(int64_t)>& fn, int64_t n, int helpers)
      : fn(fn), n(n), helpers_left(helpers) {}

  /// Whether an idle worker should join: indices are left to claim, no
  /// run-control stop was hit, and a helper slot is free. Under mu_.
  bool Open() const {
    return helpers_left > 0 && !hard_stop.load(std::memory_order_acquire) &&
           next.load(std::memory_order_relaxed) < n;
  }

  const std::function<Status(int64_t)>& fn;
  const int64_t n;
  // Shared iteration cursor: the caller and the helpers claim indices until
  // the range is exhausted or a failure is seen. The failure with the
  // smallest index wins so the reported Status does not depend on timing.
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> first_error_index{-1};
  /// Set on the first run-control failure (kCancelled, kDeadlineExceeded,
  /// kResourceExhausted): every runner drops out at its next claim, even
  /// at indices below the failure. Callers discard the whole batch on a
  /// stop, so losing the lowest-index guarantee there costs nothing,
  /// while the prompt halt is what bounds cancellation latency.
  std::atomic<bool> hard_stop{false};
  // Guarded by the pool's mu_.
  Status status;       // the failure at first_error_index
  int helpers_left;    // helper slots still free
  int active = 0;      // helpers inside Drain
  std::condition_variable left;  // signalled when `active` drops to zero
};

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    wake_.wait(lock, [this, &job] {
      for (Job* j : jobs_) {
        if (j->Open()) {
          job = j;
          return true;
        }
      }
      return shutdown_;
    });
    if (job == nullptr) return;  // shutdown
    --job->helpers_left;
    ++job->active;
    lock.unlock();
    Drain(*job);
    lock.lock();
    if (--job->active == 0) job->left.notify_one();
  }
}

void ThreadPool::Drain(Job& job) {
  for (;;) {
    if (job.hard_stop.load(std::memory_order_acquire)) return;
    int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    int64_t err = job.first_error_index.load(std::memory_order_acquire);
    if (err >= 0 && err < i) return;  // already failed earlier in the range
    Status st = job.fn(i);
    if (st.ok()) continue;
    bool stop = RunContext::IsStop(st);
    {
      std::lock_guard<std::mutex> lock(mu_);
      int64_t cur = job.first_error_index.load();
      if (cur < 0 || i < cur) {
        job.first_error_index.store(i, std::memory_order_release);
        job.status = std::move(st);
      }
    }
    if (stop) job.hard_stop.store(true, std::memory_order_release);
  }
}

Status ThreadPool::ParallelFor(int64_t n,
                               const std::function<Status(int64_t)>& fn) {
  if (n <= 0) return Status::OK();
  Job job(fn, n, static_cast<int>(std::min<int64_t>(num_threads(), n - 1)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  wake_.notify_all();
  Drain(job);  // the caller participates instead of blocking idle
  // Delist first so no new helper joins, then wait only for the helpers
  // that joined this call.
  std::unique_lock<std::mutex> lock(mu_);
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  job.left.wait(lock, [&job] { return job.active == 0; });
  return std::move(job.status);
}

Status ParallelFor(ThreadPool* pool, int64_t n,
                   const std::function<Status(int64_t)>& fn) {
  if (pool != nullptr && n > 1 && pool->num_threads() > 1) {
    return pool->ParallelFor(n, fn);
  }
  for (int64_t i = 0; i < n; ++i) FAMTREE_RETURN_NOT_OK(fn(i));
  return Status::OK();
}

}  // namespace famtree
