#include "exec/worker_pool.h"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

namespace explainit::exec {

namespace {

std::atomic<size_t> g_constructions{0};

/// Number of CPUs this process may actually run on (cgroup/taskset masks
/// count); hardware_concurrency as the portable fallback.
size_t SchedulableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

WorkerPool::WorkerPool(size_t num_threads) {
  g_constructions.fetch_add(1, std::memory_order_relaxed);
  const size_t n = num_threads > 0 ? num_threads : SchedulableCpus();
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::map<std::string, uint64_t> WorkerPool::TagCounts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tag_counts_;
}

WorkerPool& WorkerPool::Global() {
  // Leaked on purpose: the global pool must outlive every static whose
  // destructor might still fan work out (store impls, engines held in
  // function-local statics).
  static WorkerPool* pool = new WorkerPool();
  return *pool;
}

size_t WorkerPool::constructions() {
  return g_constructions.load(std::memory_order_relaxed);
}

bool WorkerPool::RunnableLocked(const Entry& e) const {
  return e.group->max_concurrency_ == 0 ||
         e.group->active_ < e.group->max_concurrency_;
}

bool WorkerPool::PopRunnableLocked(TaskGroup* only_group, Entry* out) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (only_group != nullptr && it->group != only_group) continue;
    if (!RunnableLocked(*it)) continue;
    *out = std::move(*it);
    queue_.erase(it);
    return true;
  }
  return false;
}

void WorkerPool::Execute(Entry entry, std::unique_lock<std::mutex>& lock) {
  TaskGroup* group = entry.group;
  ++group->active_;
  lock.unlock();
  std::exception_ptr error;
  try {
    entry.fn();
  } catch (...) {
    error = std::current_exception();
  }
  entry.fn = nullptr;  // destroy the closure outside the lock
  lock.lock();
  --group->active_;
  --group->pending_;
  if (error && !group->first_error_) group->first_error_ = std::move(error);
  if (entry.tag != nullptr) ++tag_counts_[entry.tag];
  // Wake waiters of this group (it may be done, or — for bounded groups —
  // capacity just freed so a queued task became runnable) and, when a
  // bounded group freed capacity, workers parked with an unrunnable queue.
  group->done_.notify_all();
  if (group->max_concurrency_ != 0) wake_.notify_all();
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Entry entry;
    if (PopRunnableLocked(nullptr, &entry)) {
      Execute(std::move(entry), lock);
      continue;
    }
    if (stopping_) return;
    wake_.wait(lock);
  }
}

TaskGroup::TaskGroup(WorkerPool* pool, size_t max_concurrency)
    : pool_(pool), max_concurrency_(max_concurrency) {}

TaskGroup::~TaskGroup() { WaitImpl(/*rethrow=*/false); }

void TaskGroup::Submit(std::function<void()> fn, const char* tag) {
  {
    std::lock_guard<std::mutex> lock(pool_->mutex_);
    pool_->queue_.push_back(WorkerPool::Entry{this, std::move(fn), tag});
    ++pending_;
  }
  pool_->wake_.notify_one();
  // A thread already help-waiting on this group can run the new task.
  done_.notify_all();
}

size_t TaskGroup::pending() const {
  std::lock_guard<std::mutex> lock(pool_->mutex_);
  return pending_;
}

void TaskGroup::Wait() { WaitImpl(/*rethrow=*/true); }

void TaskGroup::WaitImpl(bool rethrow) {
  std::unique_lock<std::mutex> lock(pool_->mutex_);
  while (pending_ > 0) {
    WorkerPool::Entry entry;
    if (pool_->PopRunnableLocked(this, &entry)) {
      pool_->Execute(std::move(entry), lock);
      continue;
    }
    // Only running tasks remain (or queued ones gated by
    // max_concurrency behind them): block until one finishes.
    done_.wait(lock);
  }
  if (!rethrow) {
    first_error_ = nullptr;
    return;
  }
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelFor(WorkerPool& pool, size_t n,
                 const std::function<void(size_t)>& fn, size_t max_workers) {
  if (n == 0) return;
  size_t workers = pool.num_threads();
  if (max_workers != 0) workers = std::min(workers, max_workers);
  if (n == 1 || workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Declared before `group` so they outlive the destructor's drain when
  // the caller's inline run() throws.
  std::atomic<size_t> next{0};
  const auto run = [&next, n, &fn] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  TaskGroup group(&pool);
  const size_t copies = std::min(workers, n) - 1;  // caller is one worker
  for (size_t i = 0; i < copies; ++i) group.Submit(run, "parallel_for");
  run();
  group.Wait();
}

void ParallelForChunks(WorkerPool& pool, size_t n, size_t min_grain,
                       const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  min_grain = std::max<size_t>(1, min_grain);
  if (n <= min_grain || pool.num_threads() <= 1) {
    fn(0, n);
    return;
  }
  const size_t chunks = std::min(pool.num_threads(), n / min_grain);
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  std::atomic<size_t> next{0};
  const auto run = [&next, chunks, base, extra, &fn] {
    for (size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = c * base + std::min(c, extra);
      const size_t end = begin + base + (c < extra ? 1 : 0);
      fn(begin, end);
    }
  };
  TaskGroup group(&pool);
  for (size_t i = 0; i + 1 < chunks; ++i) group.Submit(run, "parallel_chunks");
  run();
  group.Wait();
}

}  // namespace explainit::exec
