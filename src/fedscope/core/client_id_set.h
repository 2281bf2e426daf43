#ifndef FEDSCOPE_CORE_CLIENT_ID_SET_H_
#define FEDSCOPE_CORE_CLIENT_ID_SET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "fedscope/util/logging.h"

namespace fedscope {

/// A set of client ids (>= 1) stored as a bitmap over [1, bound()], where
/// bound() is the largest id ever inserted. Ids are contiguous in practice
/// (1..population), so the Server keeps its membership here: a bit per id
/// instead of a tree node, O(1) membership tests, and ascending iteration
/// by word scan (DESIGN.md §13).
class ClientIdSet {
 public:
  /// Adds `id`; returns false when it was already present.
  bool Insert(int id) {
    FS_CHECK_GE(id, 1);
    const size_t word = static_cast<size_t>(id) / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const uint64_t bit = uint64_t{1} << (id % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    ++size_;
    if (id > bound_) bound_ = id;
    return true;
  }

  /// Removes `id`; returns false when it was absent. bound() is kept, so a
  /// removed id stays inside the range as a gap.
  bool Erase(int id) {
    if (!Contains(id)) return false;
    words_[static_cast<size_t>(id) / 64] &= ~(uint64_t{1} << (id % 64));
    --size_;
    return true;
  }

  bool Contains(int id) const {
    if (id < 1 || id > bound_) return false;
    return (words_[static_cast<size_t>(id) / 64] >> (id % 64) & 1) != 0;
  }

  int size() const { return size_; }
  /// Largest id ever inserted (0 when none): every member is in
  /// [1, bound()].
  int bound() const { return bound_; }

  /// Calls fn(id) for every member, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// Ids in [1, bound()] that are not members, ascending. O(1) when there
  /// are none, otherwise one pass over the bitmap.
  std::vector<int> Gaps() const {
    std::vector<int> gaps;
    if (size_ == bound_) return gaps;
    gaps.reserve(bound_ - size_);
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t holes = ~words_[w];
      if (w == 0) holes &= ~uint64_t{1};  // id 0 is not a client id
      for (; holes != 0; holes &= holes - 1) {
        const int id = static_cast<int>(w * 64 + std::countr_zero(holes));
        if (id > bound_) return gaps;
        gaps.push_back(id);
      }
    }
    return gaps;
  }

  void Clear() {
    words_.clear();
    size_ = 0;
    bound_ = 0;
  }

 private:
  std::vector<uint64_t> words_;
  int size_ = 0;
  int bound_ = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CLIENT_ID_SET_H_
