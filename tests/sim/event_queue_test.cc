#include "fedscope/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fedscope/util/rng.h"

namespace fedscope {
namespace {

Message At(double t, const std::string& type = "m") {
  Message m;
  m.timestamp = t;
  m.msg_type = type;
  return m;
}

TEST(EventQueueTest, PopsInTimestampOrder) {
  EventQueue q;
  q.Push(At(3.0, "c"));
  q.Push(At(1.0, "a"));
  q.Push(At(2.0, "b"));
  EXPECT_EQ(q.Pop().msg_type, "a");
  EXPECT_EQ(q.Pop().msg_type, "b");
  EXPECT_EQ(q.Pop().msg_type, "c");
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.Push(At(1.0, "first"));
  q.Push(At(1.0, "second"));
  q.Push(At(1.0, "third"));
  EXPECT_EQ(q.Pop().msg_type, "first");
  EXPECT_EQ(q.Pop().msg_type, "second");
  EXPECT_EQ(q.Pop().msg_type, "third");
}

TEST(EventQueueTest, PeekTimeMatchesEarliest) {
  EventQueue q;
  q.Push(At(5.5));
  q.Push(At(2.25));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.25);
  q.Pop();
  EXPECT_DOUBLE_EQ(q.PeekTime(), 5.5);
}

TEST(EventQueueTest, SizeAndTotalPushed) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.Push(At(i));
  EXPECT_EQ(q.Size(), 10u);
  q.Pop();
  EXPECT_EQ(q.Size(), 9u);
  EXPECT_EQ(q.total_pushed(), 10);
}

TEST(EventQueueTest, EqualTimestampsPopInInsertionOrder) {
  // The documented tie-break contract: FIFO by push sequence. The
  // threaded backend's canonical commit order is defined as this pop
  // order, so this test pins the determinism foundation it leans on.
  EventQueue q;
  q.Push(At(1.0, "first"));
  q.Push(At(2.0, "later"));
  q.Push(At(1.0, "second"));
  q.Push(At(1.0, "third"));
  EXPECT_EQ(q.Pop().msg_type, "first");
  EXPECT_EQ(q.Pop().msg_type, "second");
  EXPECT_EQ(q.Pop().msg_type, "third");
  EXPECT_EQ(q.Pop().msg_type, "later");
}

TEST(EventQueueTest, PeekReadyBatchIsEqualTimeSetInPopOrder) {
  EventQueue q;
  q.Push(At(2.0, "late"));
  q.Push(At(1.0, "a"));
  q.Push(At(1.0, "b"));
  q.Push(At(1.0, "c"));
  const auto batch = q.PeekReadyBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->msg_type, "a");
  EXPECT_EQ(batch[1]->msg_type, "b");
  EXPECT_EQ(batch[2]->msg_type, "c");
  EXPECT_EQ(q.Size(), 4u);  // non-consuming
  EXPECT_EQ(q.Pop().msg_type, "a");
  EXPECT_EQ(q.Pop().msg_type, "b");
  EXPECT_EQ(q.Pop().msg_type, "c");
  EXPECT_EQ(q.Pop().msg_type, "late");
}

TEST(EventQueueTest, PeekReadyBatchAfterEqualTimePush) {
  // A push at the same timestamp lands behind the existing ready set
  // (larger sequence number) — the invariant that keeps a mid-commit
  // reply from overtaking the rest of a batch.
  EventQueue q;
  q.Push(At(1.0, "a"));
  q.Push(At(1.0, "b"));
  EXPECT_EQ(q.Pop().msg_type, "a");
  q.Push(At(1.0, "c"));
  const auto batch = q.PeekReadyBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0]->msg_type, "b");
  EXPECT_EQ(batch[1]->msg_type, "c");
}

TEST(EventQueueTest, PopEmptyDies) {
  EventQueue q;
  EXPECT_DEATH(q.Pop(), "");
}

TEST(EventQueueTest, InterleavedPushPopStaysSorted) {
  EventQueue q;
  q.Push(At(10.0, "late"));
  q.Push(At(1.0, "early"));
  EXPECT_EQ(q.Pop().msg_type, "early");
  q.Push(At(5.0, "mid"));
  EXPECT_EQ(q.Pop().msg_type, "mid");
  EXPECT_EQ(q.Pop().msg_type, "late");
}

// Differential check against a reference model: a plain vector of
// (time, seq) records whose minimum is the expected next pop. Integer
// timestamps from a narrow window make equal-time runs long, pushes at the
// current front time land mid-drain, and the pop share keeps the queue
// shallow relative to the push count so slab slots are recycled many times.
TEST(EventQueueTest, RandomizedMatchesSortedReference) {
  struct Record {
    double time;
    int64_t seq;
  };
  const auto earlier = [](const Record& a, const Record& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<Record> model;
    int64_t pushed = 0;
    size_t peak = 0;
    double now = 0.0;
    // Pops the expected front from both and checks the message survived
    // its stay in the slab intact.
    const auto pop_and_check = [&](int64_t expect_seq) {
      const auto it = std::min_element(model.begin(), model.end(), earlier);
      ASSERT_EQ(it->seq, expect_seq);
      const Message msg = q.Pop();
      EXPECT_EQ(msg.state, it->seq);
      EXPECT_EQ(msg.timestamp, it->time);
      EXPECT_EQ(msg.msg_type, "m" + std::to_string(it->seq));
      EXPECT_EQ(msg.payload.GetInt("seq"), it->seq);
      now = it->time;
      model.erase(it);
    };
    for (int step = 0; step < 3000; ++step) {
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 4 || model.empty()) {
        // Push: mostly at or shortly after the last popped time, so equal
        // timestamps pile up, including right at the current front.
        const double time = rng.Bernoulli(0.3)
                                ? now
                                : now + static_cast<double>(
                                            rng.UniformInt(0, 3));
        Message msg = At(time, "m" + std::to_string(pushed));
        msg.state = static_cast<int>(pushed);
        msg.payload.SetInt("seq", pushed);
        q.Push(std::move(msg));
        model.push_back(Record{time, pushed++});
      } else if (op < 8) {
        const auto front = std::min_element(model.begin(), model.end(),
                                            earlier);
        pop_and_check(front->seq);
      } else {
        // The ready batch is the equal-time front set in pop order, and
        // exactly the next batch.size() pops.
        const auto batch = q.PeekReadyBatch();
        std::vector<Record> ready;
        const double t =
            std::min_element(model.begin(), model.end(), earlier)->time;
        for (const Record& r : model) {
          if (r.time == t) ready.push_back(r);
        }
        std::sort(ready.begin(), ready.end(), earlier);
        ASSERT_EQ(batch.size(), ready.size()) << "seed " << seed;
        std::vector<int64_t> batch_seqs;
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(batch[i]->timestamp, t);
          batch_seqs.push_back(batch[i]->state);
        }
        for (size_t i = 0; i < ready.size(); ++i) {
          EXPECT_EQ(batch_seqs[i], ready[i].seq);
        }
        // Drain a random prefix of the batch (pointers die at the first
        // Pop, hence the copied seqs); the rest stays the ready set.
        const int64_t take =
            rng.UniformInt(0, static_cast<int64_t>(batch_seqs.size()));
        for (int64_t i = 0; i < take; ++i) pop_and_check(batch_seqs[i]);
        if (take == static_cast<int64_t>(batch_seqs.size()) && !q.Empty()) {
          EXPECT_GT(q.PeekTime(), t);
        }
      }
      peak = std::max(peak, model.size());
      ASSERT_EQ(q.Size(), model.size());
      ASSERT_EQ(q.Empty(), model.empty());
      EXPECT_EQ(q.total_pushed(), pushed);
      if (!model.empty()) {
        EXPECT_EQ(q.PeekTime(),
                  std::min_element(model.begin(), model.end(), earlier)->time);
      }
    }
    while (!model.empty()) {
      pop_and_check(
          std::min_element(model.begin(), model.end(), earlier)->seq);
    }
    EXPECT_TRUE(q.Empty());
    // Far more pushes than ever pending at once: slots were reused.
    EXPECT_GT(pushed, static_cast<int64_t>(4 * peak)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fedscope
