#include "fedscope/sim/event_queue.h"

#include <algorithm>

#include "fedscope/util/logging.h"

namespace fedscope {

void EventQueue::Push(Message msg) {
  if (obs_ != nullptr && obs_->recording_metrics()) {
    obs_->Count("fs_sim_events_pushed_total", 1.0, {{"type", msg.msg_type}});
    const double depth = static_cast<double>(heap_.size() + 1);
    obs_->SetGauge("fs_sim_queue_depth", depth);
    obs_->MaxGauge("fs_sim_queue_depth_peak", depth);
  }
  const double time = msg.timestamp;
  size_t slot;
  if (free_slots_.empty()) {
    slot = slab_.size();
    slab_.push_back(std::move(msg));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(msg);
  }
  heap_.push_back(Key{time, seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

double EventQueue::PeekTime() const {
  FS_CHECK(!heap_.empty());
  return heap_.front().time;
}

Message EventQueue::Pop() {
  FS_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const size_t slot = heap_.back().slot;
  heap_.pop_back();
  Message msg = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  if (obs_ != nullptr && obs_->recording_metrics()) {
    obs_->Count("fs_sim_events_dispatched_total", 1.0,
                {{"type", msg.msg_type}});
    obs_->SetGauge("fs_sim_queue_depth", static_cast<double>(heap_.size()));
  }
  return msg;
}

std::vector<const Message*> EventQueue::PeekReadyBatch() const {
  std::vector<const Message*> batch;
  if (heap_.empty()) return batch;
  const double t = heap_.front().time;
  // Equal-time keys are scattered through the heap array, but they form a
  // subtree hanging from the root: a node later than t has only later
  // descendants, so the walk prunes there and visits at most
  // 2 * |batch| + 1 nodes. Ordering the ready keys by push sequence (==
  // pop order) then costs O(batch log batch).
  std::vector<Key> ready;
  std::vector<size_t> pending = {0};
  while (!pending.empty()) {
    const size_t node = pending.back();
    pending.pop_back();
    if (node >= heap_.size() || heap_[node].time != t) continue;
    ready.push_back(heap_[node]);
    pending.push_back(2 * node + 1);
    pending.push_back(2 * node + 2);
  }
  std::sort(ready.begin(), ready.end(),
            [](const Key& a, const Key& b) { return a.seq < b.seq; });
  batch.reserve(ready.size());
  for (const Key& key : ready) batch.push_back(&slab_[key.slot]);
  return batch;
}

}  // namespace fedscope
