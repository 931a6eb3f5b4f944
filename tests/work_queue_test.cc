// Tests for the bounded MPMC work queue (ring of pooled UpdateBatch
// pointers), its in-flight lifecycle accounting and its caller-runs
// hook.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "buffer/update_batch.h"
#include "buffer/work_queue.h"

namespace gz {
namespace {

UpdateBatch* MakeBatch(BatchPool* pool, NodeId node,
                       std::vector<uint64_t> indices) {
  UpdateBatch* b = pool->Acquire();
  b->node = node;
  for (uint64_t idx : indices) b->Append(idx);
  return b;
}

std::vector<uint64_t> Payload(const UpdateBatch* b) {
  return std::vector<uint64_t>(b->edge_indices(),
                               b->edge_indices() + b->count);
}

TEST(WorkQueueTest, FifoSingleThread) {
  BatchPool pool(8);
  WorkQueue q(10);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {10})));
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 2, {20})));
  UpdateBatch* out = q.Pop();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->node, 1u);
  pool.Release(out);
  out = q.Pop();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->node, 2u);
  pool.Release(out);
}

TEST(WorkQueueTest, InFlightAccounting) {
  BatchPool pool(8);
  WorkQueue q(4);
  EXPECT_EQ(q.InFlight(), 0);
  q.Push(MakeBatch(&pool, 1, {}));
  q.Push(MakeBatch(&pool, 2, {}));
  EXPECT_EQ(q.InFlight(), 2);
  pool.Release(q.Pop());
  EXPECT_EQ(q.InFlight(), 2);  // Popped but not done.
  q.MarkDone();
  EXPECT_EQ(q.InFlight(), 1);
  pool.Release(q.Pop());
  q.MarkDone();
  EXPECT_EQ(q.InFlight(), 0);
}

TEST(WorkQueueTest, CloseUnblocksConsumers) {
  BatchPool pool(8);
  WorkQueue q(4);
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    UpdateBatch* out = nullptr;
    while ((out = q.Pop()) != nullptr) {
      pool.Release(out);
      ++popped;
    }
  });
  q.Push(MakeBatch(&pool, 1, {}));
  q.Push(MakeBatch(&pool, 2, {}));
  q.Close();
  consumer.join();
  EXPECT_EQ(popped.load(), 2);  // Drains remaining batches, then exits.
}

TEST(WorkQueueTest, PushAfterCloseFails) {
  BatchPool pool(8);
  WorkQueue q(4);
  q.Close();
  UpdateBatch* b = MakeBatch(&pool, 1, {});
  EXPECT_FALSE(q.Push(b));
  pool.Release(b);  // Ownership stayed with the caller.
}

// Regression (lifecycle accounting): a Push that fails because the
// queue is closed must NOT bump the in-flight counter — the batch was
// never enqueued, so counting it would make a later Drain barrier wait
// forever for a MarkDone that can't come.
TEST(WorkQueueTest, RejectedPushLeavesInFlightUntouched) {
  BatchPool pool(8);
  WorkQueue q(2);
  q.Push(MakeBatch(&pool, 1, {}));
  EXPECT_EQ(q.InFlight(), 1);
  q.Close();
  UpdateBatch* rejected = MakeBatch(&pool, 2, {});
  EXPECT_FALSE(q.Push(rejected));
  EXPECT_EQ(q.InFlight(), 1);  // Unchanged: only the enqueued batch.
  pool.Release(rejected);
  // Drain the one real batch; in-flight must reach exactly zero.
  pool.Release(q.Pop());
  q.MarkDone();
  EXPECT_EQ(q.InFlight(), 0);
}

// Same regression for a producer that was *blocked on a full queue*
// when Close() arrived: it must give up, return false, and leave the
// counter at the number of actually-enqueued batches.
TEST(WorkQueueTest, BlockedPushRejectedByCloseDoesNotLeakInFlight) {
  BatchPool pool(8);
  WorkQueue q(1);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  std::atomic<int> push_result{-1};
  UpdateBatch* blocked = MakeBatch(&pool, 2, {});
  std::thread producer([&] {
    push_result = q.Push(blocked) ? 1 : 0;  // Blocks: queue full.
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(push_result.load(), -1);
  q.Close();
  producer.join();
  EXPECT_EQ(push_result.load(), 0);
  EXPECT_EQ(q.InFlight(), 1);  // Only the first batch counts.
  pool.Release(blocked);
  pool.Release(q.Pop());
  q.MarkDone();
  EXPECT_EQ(q.InFlight(), 0);
}

TEST(WorkQueueTest, BoundedCapacityBlocksProducer) {
  BatchPool pool(8);
  WorkQueue q(2);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 2, {})));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(MakeBatch(&pool, 3, {}));
    third_pushed = true;
  });
  // Give the producer a moment: it must be blocked on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  pool.Release(q.Pop());
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  while (q.ApproxSize() > 0) pool.Release(q.Pop());
}

TEST(WorkQueueTest, BatchContentSurvivesTransit) {
  BatchPool pool(8);
  WorkQueue q(4);
  const std::vector<uint64_t> payload = {7, 8, 9, 1ULL << 40};
  q.Push(MakeBatch(&pool, 3, payload));
  UpdateBatch* out = q.Pop();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->node, 3u);
  EXPECT_EQ(Payload(out), payload);
  pool.Release(out);
}

TEST(WorkQueueTest, ManyProducersManyConsumers) {
  BatchPool pool(8);
  WorkQueue q(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<uint64_t> sum_consumed{0};
  std::atomic<int> count_consumed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      UpdateBatch* out = nullptr;
      while ((out = q.Pop()) != nullptr) {
        sum_consumed += out->edge_indices()[0];
        ++count_consumed;
        pool.Release(out);
        q.MarkDone();
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<uint64_t> sum_produced{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * 10000 + i;
        q.Push(MakeBatch(&pool, static_cast<NodeId>(p), {value}));
        sum_produced += value;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(count_consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(sum_consumed.load(), sum_produced.load());
  EXPECT_EQ(q.InFlight(), 0);
  EXPECT_EQ(pool.outstanding(), 0);  // Every slab came back.
}

// Records every batch it is handed and the thread it ran on; releases
// the batch as a real runner would.
class RecordingRunner : public BatchRunner {
 public:
  explicit RecordingRunner(BatchPool* pool) : pool_(pool) {}
  void Run(UpdateBatch* batch) override {
    ++calls;
    nodes.push_back(batch->node);
    thread = std::this_thread::get_id();
    pool_->Release(batch);
  }
  std::atomic<int> calls{0};
  std::vector<NodeId> nodes;
  std::thread::id thread;

 private:
  BatchPool* pool_;
};

TEST(WorkQueueTest, FullRingRunsBatchOnPushingThread) {
  BatchPool pool(8);
  WorkQueue q(2);
  RecordingRunner runner(&pool);
  q.SetRunner(&runner);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 2, {})));
  EXPECT_EQ(runner.calls.load(), 0);  // Room in the ring: enqueued.
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 3, {})));
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 4, {})));
  EXPECT_EQ(runner.nodes, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(runner.thread, std::this_thread::get_id());
  // The caller-run batches never entered the ring or InFlight().
  EXPECT_EQ(q.ApproxSize(), 2u);
  EXPECT_EQ(q.InFlight(), 2);
  for (NodeId want : {1, 2}) {
    UpdateBatch* out = q.Pop();
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->node, want);
    pool.Release(out);
    q.MarkDone();
  }
  EXPECT_EQ(q.InFlight(), 0);
  EXPECT_EQ(pool.outstanding(), 0);
}

TEST(WorkQueueTest, ClosedQueueNeverCallsRunner) {
  BatchPool pool(8);
  WorkQueue q(1);
  RecordingRunner runner(&pool);
  q.SetRunner(&runner);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  q.Close();
  UpdateBatch* rejected = MakeBatch(&pool, 2, {});
  EXPECT_FALSE(q.Push(rejected));  // Full and closed: rejected, not run.
  EXPECT_EQ(runner.calls.load(), 0);
  EXPECT_EQ(q.InFlight(), 1);
  pool.Release(rejected);
  pool.Release(q.Pop());
  q.MarkDone();
}

TEST(WorkQueueTest, RemovedRunnerIsNotCalled) {
  BatchPool pool(8);
  WorkQueue q(1);
  RecordingRunner runner(&pool);
  q.SetRunner(&runner);
  q.SetRunner(nullptr);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(MakeBatch(&pool, 2, {}));  // Blocks: no runner.
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());
  pool.Release(q.Pop());
  producer.join();
  EXPECT_EQ(runner.calls.load(), 0);
  pool.Release(q.Pop());
}

TEST(WorkQueueTest, TryPopNeverBlocks) {
  BatchPool pool(8);
  WorkQueue q(2);
  EXPECT_EQ(q.TryPop(), nullptr);
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 5, {})));
  UpdateBatch* out = q.TryPop();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->node, 5u);
  EXPECT_EQ(q.TryPop(), nullptr);
  EXPECT_EQ(q.InFlight(), 1);  // Popped but not done.
  pool.Release(out);
  q.MarkDone();
}

TEST(WorkQueueTest, WaitIdleReturnsWhenLastBatchIsDone) {
  BatchPool pool(8);
  WorkQueue q(4);
  q.WaitIdle();  // Nothing in flight: returns at once.
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 1, {})));
  ASSERT_TRUE(q.Push(MakeBatch(&pool, 2, {})));
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    q.WaitIdle();
    idle = true;
  });
  pool.Release(q.Pop());
  q.MarkDone();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(idle.load());  // One batch still in flight.
  pool.Release(q.Pop());
  q.MarkDone();
  waiter.join();
  EXPECT_TRUE(idle.load());
  EXPECT_EQ(q.InFlight(), 0);
}

}  // namespace
}  // namespace gz
