#ifndef FEDSCOPE_SIM_EVENT_QUEUE_H_
#define FEDSCOPE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/obs/obs_context.h"

namespace fedscope {

/// Discrete-event queue keyed by virtual timestamps. This implements the
/// paper's measurement methodology (§5.3.1): the server "handles the
/// received messages in the order of their timestamps", and broadcasts
/// inherit the timestamp of the triggering message.
///
/// Tie-break contract: messages with equal timestamps pop in insertion
/// order (FIFO by push sequence). This is load-bearing, not incidental —
/// it makes same-seed runs deterministic, and the threaded execution
/// backend's canonical commit order (DESIGN.md §12) is defined as exactly
/// this pop order. EventQueueTest.EqualTimestampsPopInInsertionOrder pins
/// it.
///
/// Layout: the binary heap orders trivially copyable {time, seq, slot}
/// keys; the messages themselves sit still in a slab indexed by slot, with
/// a free list recycling the slots of popped messages. A sift step thus
/// moves 24 bytes instead of a whole Message.
class EventQueue {
 public:
  /// Enqueues a message for delivery at msg.timestamp.
  void Push(Message msg);

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  /// Virtual time of the earliest pending message.
  double PeekTime() const;

  /// Removes and returns the earliest message (FIFO among equal times).
  Message Pop();

  /// Every message sharing the earliest virtual time, in pop (insertion)
  /// order, without removing any. The returned pointers are invalidated
  /// by the next Push or Pop. The threaded backend uses this to form a
  /// parallel batch: as long as every interleaved Push carries a
  /// timestamp >= the batch time (worker sends always do — BaseWorker
  /// clamps), subsequent Pops return exactly these messages in exactly
  /// this order. O(batch log batch): only the heap's ready region is
  /// visited.
  std::vector<const Message*> PeekReadyBatch() const;

  /// Total number of messages ever pushed (diagnostics).
  int64_t total_pushed() const { return seq_; }

  /// Attaches observability sinks (borrowed; null restores the no-op
  /// default). Push/Pop then maintain event counters and queue-depth
  /// gauges (fs_sim_events_*_total, fs_sim_queue_depth{,_peak}).
  void set_obs(const ObsContext* obs) { obs_ = obs; }

 private:
  struct Key {
    double time;
    int64_t seq;
    size_t slot;  // index into slab_
  };
  /// Heap comparator: "a is later than b" — std::*_heap with this keeps
  /// the earliest (time, seq) key at the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Binary heap managed with std::push_heap/std::pop_heap (rather than
  /// std::priority_queue) so PeekReadyBatch can walk it.
  std::vector<Key> heap_;
  /// Pending messages by slot; slots listed in free_slots_ hold moved-from
  /// messages awaiting reuse.
  std::vector<Message> slab_;
  std::vector<size_t> free_slots_;
  int64_t seq_ = 0;
  const ObsContext* obs_ = nullptr;
};

}  // namespace fedscope

#endif  // FEDSCOPE_SIM_EVENT_QUEUE_H_
