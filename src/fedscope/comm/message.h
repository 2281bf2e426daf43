#ifndef FEDSCOPE_COMM_MESSAGE_H_
#define FEDSCOPE_COMM_MESSAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "fedscope/nn/model.h"
#include "fedscope/tensor/tensor.h"
#include "fedscope/util/status.h"

namespace fedscope {

/// Backend-independent message content (paper §3.5, "message translation"):
/// a flat tree of named scalars and named tensors. Everything participants
/// exchange — model parameters, gradients, metrics, public keys, sampled
/// hyperparameter configurations — is expressed as a Payload before being
/// put on the wire, so that participants with different local backends can
/// interoperate.
class Payload {
 public:
  using Scalar = std::variant<int64_t, double, std::string>;

  Payload() = default;

  // -- scalars --------------------------------------------------------------
  void SetInt(const std::string& key, int64_t v) { scalars_[key] = v; }
  void SetDouble(const std::string& key, double v) { scalars_[key] = v; }
  void SetString(const std::string& key, std::string v) {
    scalars_[key] = std::move(v);
  }
  bool HasScalar(const std::string& key) const {
    return scalars_.count(key) > 0;
  }
  /// Drops a scalar entry; returns true when it existed.
  bool RemoveScalar(const std::string& key) { return scalars_.erase(key) > 0; }
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  double GetDouble(const std::string& key, double def = 0.0) const;
  std::string GetString(const std::string& key,
                        const std::string& def = "") const;

  // -- tensors ---------------------------------------------------------------
  void SetTensor(const std::string& key, Tensor t) {
    tensors_[key] = std::move(t);
  }
  bool HasTensor(const std::string& key) const {
    return tensors_.count(key) > 0;
  }
  /// Drops a tensor entry; returns true when it existed. Payload-mutating
  /// decorators (e.g. hostile-client fault injection) rename entries by
  /// remove + re-add.
  bool RemoveTensor(const std::string& key) { return tensors_.erase(key) > 0; }
  Result<Tensor> GetTensor(const std::string& key) const;

  /// Stores a whole state dict under a key prefix ("<prefix>/<param-name>").
  void SetStateDict(const std::string& prefix, const StateDict& state);
  /// Recovers a state dict stored under the prefix.
  StateDict GetStateDict(const std::string& prefix) const;

  /// Copies every entry of `other` into this payload (other wins on key
  /// collisions). Used by message-transform plug-ins that wrap a payload
  /// produced elsewhere (e.g. compressed updates).
  void Merge(const Payload& other);

  const std::map<std::string, Scalar>& scalars() const { return scalars_; }
  const std::map<std::string, Tensor>& tensors() const { return tensors_; }

  /// Approximate wire size in bytes (used by the network latency model).
  int64_t ByteSize() const;

  bool operator==(const Payload& other) const {
    return scalars_ == other.scalars_ && tensors_ == other.tensors_;
  }

 private:
  std::map<std::string, Scalar> scalars_;
  std::map<std::string, Tensor> tensors_;
};

/// Well-known participant id for the server.
inline constexpr int kServerId = 0;
/// Receiver id meaning "broadcast to all clients".
inline constexpr int kBroadcast = -1;

/// A message exchanged between participants. `msg_type` names the event that
/// receiving this message raises at the receiver ("receiving_<msg_type>" in
/// paper terms). `state` carries the training-round the sender was in, which
/// the server uses to compute staleness. `timestamp` is virtual time
/// (seconds) assigned by the simulator.
struct Message {
  int sender = 0;
  int receiver = 0;
  std::string msg_type;
  int state = 0;
  double timestamp = 0.0;
  Payload payload;
};

/// Human-readable one-line summary, for logs.
std::string MessageSummary(const Message& msg);

}  // namespace fedscope

#endif  // FEDSCOPE_COMM_MESSAGE_H_
