#include "fedscope/core/client_range.h"

#include <algorithm>
#include <utility>

#include "fedscope/core/checkpoint.h"
#include "fedscope/core/events.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kRespScoresKey[] = "resp_scores";
constexpr char kNumTrainKey[] = "num_trains";

}  // namespace

bool IsRangeMessage(const Message& msg) {
  return msg.payload.HasScalar(kRangeCountKey);
}

ClientRange::ClientRange(int first, int span, std::vector<int64_t> gaps)
    : first_(first), span_(span), gaps_(std::move(gaps)) {
  FS_CHECK_GE(span_, 0);
  FS_CHECK(std::is_sorted(gaps_.begin(), gaps_.end()));
  FS_CHECK(gaps_.empty() ||
           (gaps_.front() >= first_ && gaps_.back() < end()));
}

ClientRange ClientRange::Of(const Message& msg) {
  const int first =
      msg.msg_type == events::kJoinIn ? msg.sender : msg.receiver;
  if (!IsRangeMessage(msg)) return ClientRange(first, 1);
  return ClientRange(first,
                     static_cast<int>(msg.payload.GetInt(kRangeCountKey)),
                     GetPackedInt64s(msg.payload, kRangeGapsKey));
}

bool ClientRange::Contains(int id) const {
  return id >= first_ && id < end() &&
         !std::binary_search(gaps_.begin(), gaps_.end(), int64_t{id});
}

void ClientRange::Stamp(Message* msg) const {
  msg->payload.SetInt(kRangeCountKey, span_);
  if (!gaps_.empty()) SetPackedInt64s(&msg->payload, kRangeGapsKey, gaps_);
}

Message ClientRange::PerIdCopy(const Message& msg, int id) {
  Message copy = msg;
  copy.receiver = id;
  copy.payload.RemoveScalar(kRangeCountKey);
  copy.payload.RemoveScalar(kRangeGapsKey);
  if (msg.msg_type == events::kAssignId) {
    copy.payload.SetInt("assigned_id", id);
  }
  return copy;
}

Message MakeRangeJoin(const JoinRun& run) {
  FS_CHECK_EQ(run.resp_scores.size(), run.num_train.size());
  Message msg;
  msg.sender = run.first;
  msg.receiver = kServerId;
  msg.msg_type = events::kJoinIn;
  msg.timestamp = 0.0;
  ClientRange(run.first, static_cast<int>(run.resp_scores.size()))
      .Stamp(&msg);
  SetPackedDoubles(&msg.payload, kRespScoresKey, run.resp_scores);
  SetPackedInt64s(&msg.payload, kNumTrainKey, run.num_train);
  return msg;
}

JoinRun ReadJoinRun(const Message& join) {
  JoinRun run;
  run.first = join.sender;
  if (!IsRangeMessage(join)) {
    run.resp_scores = {join.payload.GetDouble("resp_score", 1.0)};
    run.num_train = {join.payload.GetInt("num_train", 0)};
    return run;
  }
  run.resp_scores = GetPackedDoubles(join.payload, kRespScoresKey);
  run.num_train = GetPackedInt64s(join.payload, kNumTrainKey);
  const size_t span = static_cast<size_t>(join.payload.GetInt(kRangeCountKey));
  // A malformed run reads as its well-formed prefix.
  const size_t n = std::min({span, run.resp_scores.size(),
                             run.num_train.size()});
  run.resp_scores.resize(n);
  run.num_train.resize(n);
  return run;
}

}  // namespace fedscope
