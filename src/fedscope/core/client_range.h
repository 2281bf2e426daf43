#ifndef FEDSCOPE_CORE_CLIENT_RANGE_H_
#define FEDSCOPE_CORE_CLIENT_RANGE_H_

#include <cstdint>
#include <vector>

#include "fedscope/comm/message.h"

namespace fedscope {

/// Range-addressed control messages (DESIGN.md §13). Course start and end
/// would otherwise cost one message per client: a join_in and an
/// assign_id per id, and a finish per member. Instead one message may
/// address a run of consecutive client ids, minus the ids listed as gaps:
///   - join_in (uplink): the run starts at `sender`; the payload packs one
///     resp_score and one num_train per id (see MakeRangeJoin);
///   - assign_id, finish (downlink): the run starts at `receiver`.
/// A message without kRangeCountKey is a plain per-id message, which every
/// reader treats as a range of one. Data-plane messages are always plain.
///
/// Delivery rule: a transport hands each addressed participant that runs
/// code (a live client, a TCP connection) its own per-id copy
/// (ClientRange::PerIdCopy), so workers only ever see plain messages;
/// the standalone runner applies state-free messages to descriptors
/// directly.

/// Payload key of a range message: how many consecutive ids it spans.
inline constexpr char kRangeCountKey[] = "range_count";
/// Payload key of a range message: packed ascending ids inside the span
/// that the message does not address (absent when there are none).
inline constexpr char kRangeGapsKey[] = "range_gaps";

/// True when `msg` carries kRangeCountKey.
bool IsRangeMessage(const Message& msg);

/// The client ids one control message addresses: [first, first + span)
/// minus the gaps.
class ClientRange {
 public:
  /// `gaps` ascending, each inside [first, first + span).
  ClientRange(int first, int span, std::vector<int64_t> gaps = {});

  /// The ids `msg` addresses: its range keys when it has them, else the one
  /// id it names (sender for join_in, receiver otherwise).
  static ClientRange Of(const Message& msg);

  int first() const { return first_; }
  /// One past the last id of the span.
  int end() const { return first_ + span_; }
  /// Number of addressed ids.
  int size() const { return span_ - static_cast<int>(gaps_.size()); }

  /// O(log |gaps|).
  bool Contains(int id) const;

  /// Calls fn(begin, end) for each maximal run [begin, end) of addressed
  /// ids, ascending.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    int begin = first_;
    for (int64_t gap : gaps_) {
      if (begin < gap) fn(begin, static_cast<int>(gap));
      begin = static_cast<int>(gap) + 1;
    }
    if (begin < end()) fn(begin, end());
  }

  /// Writes the range keys into `msg` (the first id is the caller's to
  /// set, as sender or receiver).
  void Stamp(Message* msg) const;

  /// The plain message `msg` stands for at addressed id `id`: receiver
  /// `id`, range keys dropped, and for assign_id the assigned id.
  static Message PerIdCopy(const Message& msg, int id);

 private:
  int first_;
  int span_;
  std::vector<int64_t> gaps_;
};

/// What a join_in announces: clients [first, first + resp_scores.size()),
/// with one responsiveness score and one train size per id.
struct JoinRun {
  int first = 0;
  std::vector<double> resp_scores;
  std::vector<int64_t> num_train;
};

/// The range join_in announcing `run` (sender run.first). The per-id
/// fields are packed, so the doubles cross the wire bit-exact.
Message MakeRangeJoin(const JoinRun& run);

/// Reads a join_in: a range join, or a plain one (Client::JoinIn) as a
/// run of one.
JoinRun ReadJoinRun(const Message& join);

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CLIENT_RANGE_H_
