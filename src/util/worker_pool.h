// A fixed-size thread pool with one operation: run fn(0..count-1) across the
// workers and block until every call returns.  Built for the sweep engine
// (tasks are coarse — one simulator run each) and reused by the NUM solver's
// parallel execution policy.
//
// Tasks must not throw: each sweep run catches its own exceptions and folds
// them into its status row.  A throw escaping fn terminates the process
// (std::terminate via the worker thread), which is the loud failure we want
// for engine bugs as opposed to scenario errors.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace numfabric::util {

class WorkerPool {
 public:
  /// jobs < 1 is clamped to 1; jobs == 0 via resolve_jobs means "auto".
  explicit WorkerPool(int jobs);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(i) for every i in [0, count), spread over the pool; returns
  /// once all calls completed.  Serial (no worker threads touched) when the
  /// pool was built with jobs == 1.  Not reentrant.
  void parallel_for(int count, const std::function<void(int)>& fn);

  int jobs() const { return jobs_; }

  /// Maps the --jobs flag to a worker count: 0 -> hardware concurrency
  /// (min 1), otherwise the value itself (min 1).
  static int resolve_jobs(int requested);

 private:
  void worker_loop();

  int jobs_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  // Current batch: fn_ valid while remaining_ > 0; next_ is the claim cursor.
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  int next_ = 0;
  int remaining_ = 0;
  bool stopping_ = false;
};

}  // namespace numfabric::util
