#include "exec/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace explainit::exec {
namespace {

TEST(WorkerPoolTest, RunsAllTasksInAGroup) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Submit([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPoolTest, WaitIsReusable) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  group.Submit([&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 1);
  group.Submit([&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(WorkerPoolTest, WaitOnEmptyGroupReturnsImmediately) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  group.Wait();  // must not hang
  EXPECT_EQ(group.pending(), 0u);
}

TEST(WorkerPoolTest, DefaultSizeIsAtLeastOneWorker) {
  WorkerPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(WorkerPoolTest, WaitIsGroupLocal) {
  // Group A's Wait must not block on group B's slow task.
  WorkerPool pool(2);
  std::atomic<bool> b_release{false};
  TaskGroup slow(&pool);
  slow.Submit([&b_release] {
    while (!b_release.load()) std::this_thread::yield();
  });
  TaskGroup fast(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) fast.Submit([&done] { done.fetch_add(1); });
  fast.Wait();  // must return while `slow` still runs
  EXPECT_EQ(done.load(), 10);
  b_release.store(true);
  slow.Wait();
}

TEST(WorkerPoolTest, ErrorsAreGroupLocalAndFirstOnly) {
  // Wait() helps run queued tasks beside the worker, so only a serial
  // group fixes which of the two errors is first.
  WorkerPool pool(1);
  TaskGroup failing(&pool, /*max_concurrency=*/1);
  TaskGroup clean(&pool);
  failing.Submit([] { throw std::runtime_error("first"); });
  failing.Submit([] { throw std::runtime_error("second"); });
  std::atomic<int> ok{0};
  clean.Submit([&ok] { ok.fetch_add(1); });
  EXPECT_THROW(
      {
        try {
          failing.Wait();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "first");
          throw;
        }
      },
      std::runtime_error);
  clean.Wait();  // the sibling group never sees the error
  EXPECT_EQ(ok.load(), 1);
  // The failing group stays usable after a rethrow.
  failing.Submit([&ok] { ok.fetch_add(1); });
  failing.Wait();
  EXPECT_EQ(ok.load(), 2);
}

TEST(WorkerPoolTest, ThrowingTaskDoesNotHangWait) {
  // A throwing task must neither kill its worker nor strand the group's
  // other tasks: Wait() runs everything, then rethrows.
  WorkerPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 100; ++i) {
    group.Submit([&ran] { ran.fetch_add(1); });
  }
  try {
    group.Wait();
    FAIL() << "Wait() should rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, SerialGroupPreservesSubmissionOrder) {
  WorkerPool pool(4);
  TaskGroup serial(&pool, /*max_concurrency=*/1);
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 50; ++i) {
    serial.Submit([&order, &m, i] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(i);
    });
  }
  serial.Wait();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPoolTest, WaitHelpsOnASaturatedPool) {
  // Every worker is parked on a latch; Wait() must still finish the
  // group by running its queued tasks inline.
  WorkerPool pool(2);
  std::atomic<bool> release{false};
  TaskGroup blockers(&pool);
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    blockers.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  TaskGroup work(&pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) work.Submit([&done] { done.fetch_add(1); });
  work.Wait();  // helps inline; would deadlock on a non-helping pool
  EXPECT_EQ(done.load(), 8);
  release.store(true);
  blockers.Wait();
}

TEST(WorkerPoolTest, NestedParallelForDoesNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> leaf{0};
  ParallelFor(pool, 4, [&pool, &leaf](size_t) {
    ParallelFor(pool, 4, [&leaf](size_t) { leaf.fetch_add(1); });
  });
  EXPECT_EQ(leaf.load(), 16);
}

TEST(WorkerPoolTest, ParallelForCoversRangeExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ParallelForUsesMultipleThreads) {
  WorkerPool pool(4);
  std::mutex m;
  std::set<std::thread::id> ids;
  ParallelFor(pool, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
}

TEST(WorkerPoolTest, ParallelForChunksMatchesSeedBoundaries) {
  // Chunk boundaries must depend only on (n, min_grain, num_threads) —
  // the executor's sharded operators rely on this for determinism.
  WorkerPool pool(4);
  std::mutex m;
  std::set<std::pair<size_t, size_t>> chunks;
  ParallelForChunks(pool, 103, 16, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(m);
    chunks.insert({begin, end});
  });
  // chunks = min(threads=4, 103/16=6) = 4; base 25, extra 3 -> the first
  // three chunks get 26.
  const std::set<std::pair<size_t, size_t>> expected = {
      {0, 26}, {26, 52}, {52, 78}, {78, 103}};
  EXPECT_EQ(chunks, expected);
}

TEST(WorkerPoolTest, ParallelForChunksSmallInputRunsInline) {
  WorkerPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<size_t> covered{0};
  ParallelForChunks(pool, 10, /*min_grain=*/64,
                    [&](size_t begin, size_t end) {
                      calls.fetch_add(1);
                      covered.fetch_add(end - begin);
                    });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(covered.load(), 10u);
  ParallelForChunks(pool, 0, 64, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);  // empty range: no call at all
}

TEST(WorkerPoolTest, ParallelForPropagatesException) {
  WorkerPool pool(4);
  EXPECT_THROW(ParallelFor(pool, 64,
                           [](size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(WorkerPoolTest, ConstructionCounterCountsPools) {
  const size_t before = WorkerPool::constructions();
  { WorkerPool pool(2); }
  { WorkerPool pool(3); }
  EXPECT_EQ(WorkerPool::constructions(), before + 2);
}

TEST(WorkerPoolTest, GlobalIsCreatedOnceAndShared) {
  WorkerPool& a = WorkerPool::Global();
  const size_t after_first = WorkerPool::constructions();
  WorkerPool& b = WorkerPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(WorkerPool::constructions(), after_first);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(WorkerPoolTest, TagCountsAccumulate) {
  WorkerPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) group.Submit([] {}, "alpha");
  for (int i = 0; i < 3; ++i) group.Submit([] {}, "beta");
  group.Wait();
  const auto counts = pool.TagCounts();
  EXPECT_EQ(counts.at("alpha"), 5u);
  EXPECT_EQ(counts.at("beta"), 3u);
}

TEST(WorkerPoolStressTest, ManyGroupsFromManyThreads) {
  WorkerPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        TaskGroup group(&pool);
        for (int i = 0; i < 10; ++i) {
          group.Submit([&total] { total.fetch_add(1); });
        }
        group.Wait();
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 8 * 20 * 10);
}

TEST(WorkerPoolStressTest, ErrorsStayInTheirGroupUnderContention) {
  // Clients share one pool; each client's Wait() rethrows exactly for
  // the rounds in which one of its own tasks threw, and every other task
  // still runs.
  WorkerPool pool(3);
  constexpr int kClients = 5;
  constexpr int kRounds = 30;
  std::atomic<int> ran{0};
  std::vector<int> rethrown(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TaskGroup group(&pool);
      for (int round = 0; round < kRounds; ++round) {
        const bool throws = (round + c) % 4 == 0;
        for (int t = 0; t < 8; ++t) {
          group.Submit([&ran, fail = throws && t == 3] {
            if (fail) throw std::runtime_error("stress");
            ran.fetch_add(1);
          });
        }
        try {
          group.Wait();
        } catch (const std::runtime_error&) {
          ++rethrown[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  int throwing_rounds = 0;
  for (int c = 0; c < kClients; ++c) {
    int expected = 0;
    for (int round = 0; round < kRounds; ++round) {
      expected += (round + c) % 4 == 0;
    }
    EXPECT_EQ(rethrown[c], expected) << "client " << c;
    throwing_rounds += expected;
  }
  EXPECT_EQ(ran.load(), kClients * kRounds * 8 - throwing_rounds);
  std::atomic<int> after{0};
  ParallelFor(pool, 64, [&after](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(WorkerPoolStressTest, ConcurrentParallelForChunksClients) {
  WorkerPool pool(4);
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<size_t> sums(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 10; ++round) {
        std::atomic<size_t> local{0};
        ParallelForChunks(pool, 5000, 64, [&local](size_t begin, size_t end) {
          size_t s = 0;
          for (size_t i = begin; i < end; ++i) s += i;
          local.fetch_add(s);
        });
        sums[c] = local.load();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(sums[c], 5000u * 4999u / 2);
}

}  // namespace
}  // namespace explainit::exec
