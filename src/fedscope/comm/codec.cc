#include "fedscope/comm/codec.h"

#include <cstring>

#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr uint8_t kMagic[4] = {'F', 'S', 'M', 'G'};
constexpr uint16_t kVersion = 1;
constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagDouble = 1;
constexpr uint8_t kTagString = 2;

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }

 private:
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& in) : in_(in) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (pos_ + len > in_.size()) return false;
    s->assign(reinterpret_cast<const char*>(in_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  bool Raw(void* data, size_t size) {
    if (pos_ + size > in_.size()) return false;
    // memcpy's pointers must be valid even for size 0; an empty tensor's
    // storage and an empty buffer's data() may both be null.
    if (size == 0) return true;
    std::memcpy(data, in_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  bool AtEnd() const { return pos_ == in_.size(); }
  size_t remaining() const { return in_.size() - pos_; }

 private:
  const std::vector<uint8_t>& in_;
  size_t pos_ = 0;
};

// Payload keys and message types are names: NUL bytes are rejected at
// decode time so a name can never smuggle an embedded terminator into
// log lines, file paths, or downstream C string APIs.
Status ReadName(Reader* r, const char* what, std::string* name) {
  if (!r->Str(name)) {
    return Status::DataLoss(std::string("truncated ") + what);
  }
  if (name->find('\0') != std::string::npos) {
    return Status::DataLoss(std::string("NUL byte in ") + what);
  }
  return Status::Ok();
}

void WritePayload(const Payload& payload, Writer* w) {
  w->U32(static_cast<uint32_t>(payload.scalars().size()));
  for (const auto& [key, value] : payload.scalars()) {
    w->Str(key);
    if (std::holds_alternative<int64_t>(value)) {
      w->U8(kTagInt);
      w->I64(std::get<int64_t>(value));
    } else if (std::holds_alternative<double>(value)) {
      w->U8(kTagDouble);
      w->F64(std::get<double>(value));
    } else {
      w->U8(kTagString);
      w->Str(std::get<std::string>(value));
    }
  }
  w->U32(static_cast<uint32_t>(payload.tensors().size()));
  for (const auto& [key, tensor] : payload.tensors()) {
    w->Str(key);
    w->U8(static_cast<uint8_t>(tensor.ndim()));
    for (int d = 0; d < tensor.ndim(); ++d) w->I64(tensor.dim(d));
    w->Raw(tensor.data(), tensor.numel() * sizeof(float));
  }
}

Status ReadPayload(Reader* r, Payload* payload) {
  uint32_t n_scalars = 0;
  if (!r->U32(&n_scalars)) return Status::DataLoss("truncated scalar count");
  for (uint32_t i = 0; i < n_scalars; ++i) {
    std::string key;
    FS_RETURN_IF_ERROR(ReadName(r, "scalar key", &key));
    uint8_t tag = 0;
    if (!r->U8(&tag)) return Status::DataLoss("truncated scalar entry");
    switch (tag) {
      case kTagInt: {
        int64_t v = 0;
        if (!r->I64(&v)) return Status::DataLoss("truncated int scalar");
        payload->SetInt(key, v);
        break;
      }
      case kTagDouble: {
        double v = 0.0;
        if (!r->F64(&v)) return Status::DataLoss("truncated double scalar");
        payload->SetDouble(key, v);
        break;
      }
      case kTagString: {
        std::string v;
        if (!r->Str(&v)) return Status::DataLoss("truncated string scalar");
        payload->SetString(key, std::move(v));
        break;
      }
      default:
        return Status::DataLoss("unknown scalar tag " + std::to_string(tag));
    }
  }
  uint32_t n_tensors = 0;
  if (!r->U32(&n_tensors)) return Status::DataLoss("truncated tensor count");
  for (uint32_t i = 0; i < n_tensors; ++i) {
    std::string key;
    FS_RETURN_IF_ERROR(ReadName(r, "tensor name", &key));
    uint8_t ndim = 0;
    if (!r->U8(&ndim)) return Status::DataLoss("truncated tensor header");
    std::vector<int64_t> shape(ndim);
    // Guard the dim product against signed overflow before multiplying:
    // any honest element count fits the buffer, so a product that cannot
    // even be represented is malformed input, not a big tensor.
    constexpr int64_t kMaxNumel = int64_t{1} << 40;
    int64_t numel = 1;
    for (uint8_t d = 0; d < ndim; ++d) {
      if (!r->I64(&shape[d])) return Status::DataLoss("truncated tensor dim");
      if (shape[d] < 0) return Status::DataLoss("negative tensor dim");
      if (shape[d] > 0 && numel > kMaxNumel / shape[d]) {
        return Status::DataLoss("tensor dims overflow element count");
      }
      numel *= shape[d];
    }
    if (static_cast<size_t>(numel) * sizeof(float) > r->remaining()) {
      return Status::DataLoss("tensor data exceeds buffer");
    }
    std::vector<float> data(numel);
    if (!r->Raw(data.data(), numel * sizeof(float))) {
      return Status::DataLoss("truncated tensor data");
    }
    payload->SetTensor(key, Tensor(std::move(shape), std::move(data)));
  }
  return Status::Ok();
}

}  // namespace

size_t EncodedPayloadSize(const Payload& payload) {
  size_t size = sizeof(uint32_t);  // n_scalars
  for (const auto& [key, value] : payload.scalars()) {
    size += sizeof(uint32_t) + key.size() + sizeof(uint8_t);
    if (std::holds_alternative<int64_t>(value)) {
      size += sizeof(int64_t);
    } else if (std::holds_alternative<double>(value)) {
      size += sizeof(double);
    } else {
      size += sizeof(uint32_t) + std::get<std::string>(value).size();
    }
  }
  size += sizeof(uint32_t);  // n_tensors
  for (const auto& [key, tensor] : payload.tensors()) {
    size += sizeof(uint32_t) + key.size() + sizeof(uint8_t) +
            tensor.ndim() * sizeof(int64_t) + tensor.numel() * sizeof(float);
  }
  return size;
}

size_t EncodedMessageSize(const Message& msg) {
  return sizeof(kMagic) + sizeof(uint16_t) + 2 * sizeof(int32_t) +
         sizeof(uint32_t) + msg.msg_type.size() + sizeof(int32_t) +
         sizeof(double) + EncodedPayloadSize(msg.payload);
}

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  std::vector<uint8_t> out;
  out.reserve(EncodedMessageSize(msg));
  Writer w(&out);
  w.Raw(kMagic, sizeof(kMagic));
  w.U16(kVersion);
  w.I32(msg.sender);
  w.I32(msg.receiver);
  w.Str(msg.msg_type);
  w.I32(msg.state);
  w.F64(msg.timestamp);
  WritePayload(msg.payload, &w);
  return out;
}

Result<Message> DecodeMessage(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  uint8_t magic[4];
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("bad magic");
  }
  uint16_t version = 0;
  if (!r.U16(&version)) return Status::DataLoss("truncated version");
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  Message msg;
  if (!r.I32(&msg.sender) || !r.I32(&msg.receiver)) {
    return Status::DataLoss("truncated message header");
  }
  FS_RETURN_IF_ERROR(ReadName(&r, "msg_type", &msg.msg_type));
  if (!r.I32(&msg.state) || !r.F64(&msg.timestamp)) {
    return Status::DataLoss("truncated message header");
  }
  FS_RETURN_IF_ERROR(ReadPayload(&r, &msg.payload));
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes after message");
  return msg;
}

std::vector<uint8_t> EncodePayload(const Payload& payload) {
  std::vector<uint8_t> out;
  out.reserve(EncodedPayloadSize(payload));
  Writer w(&out);
  WritePayload(payload, &w);
  return out;
}

Result<Payload> DecodePayload(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  Payload payload;
  FS_RETURN_IF_ERROR(ReadPayload(&r, &payload));
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes after payload");
  return payload;
}

std::vector<Frame> SplitIntoFrames(const std::vector<uint8_t>& bytes,
                                   size_t max_frame_bytes) {
  FS_CHECK_GT(max_frame_bytes, 0u);
  const size_t count =
      bytes.empty() ? 1
                    : (bytes.size() + max_frame_bytes - 1) / max_frame_bytes;
  std::vector<Frame> frames;
  frames.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Frame frame;
    frame.index = static_cast<uint32_t>(i);
    frame.count = static_cast<uint32_t>(count);
    frame.total_bytes = bytes.size();
    const size_t begin = i * max_frame_bytes;
    const size_t end = std::min(bytes.size(), begin + max_frame_bytes);
    frame.data.assign(bytes.begin() + begin, bytes.begin() + end);
    frames.push_back(std::move(frame));
  }
  return frames;
}

Result<std::vector<uint8_t>> ReassembleFrames(std::vector<Frame> frames) {
  if (frames.empty()) return Status::InvalidArgument("no frames");
  const uint32_t count = frames[0].count;
  const uint64_t total = frames[0].total_bytes;
  if (frames.size() != count) {
    return Status::DataLoss("expected " + std::to_string(count) +
                            " frames, got " + std::to_string(frames.size()));
  }
  std::vector<const Frame*> ordered(count, nullptr);
  for (const Frame& frame : frames) {
    if (frame.count != count || frame.total_bytes != total) {
      return Status::DataLoss("inconsistent frame headers");
    }
    if (frame.index >= count) return Status::DataLoss("frame index range");
    if (ordered[frame.index] != nullptr) {
      return Status::DataLoss("duplicate frame " +
                              std::to_string(frame.index));
    }
    ordered[frame.index] = &frame;
  }
  std::vector<uint8_t> out;
  out.reserve(total);
  for (const Frame* frame : ordered) {
    out.insert(out.end(), frame->data.begin(), frame->data.end());
  }
  if (out.size() != total) {
    return Status::DataLoss("reassembled size mismatch");
  }
  return out;
}

}  // namespace fedscope
