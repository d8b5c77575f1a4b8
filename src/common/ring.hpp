// Growable ring buffer: a FIFO over one power-of-two array.
//
// The array doubles when a push finds it full and never shrinks, so a
// queue that has once reached its working size pushes and pops without
// touching the heap again, and clear() keeps the storage for the next
// use. One template serves the stack's queues (layer input queues, the
// device RX rings, the TCP retransmit queue) and, for bytes, its stream
// buffers (the TCP send buffer and the socket receive buffer), where
// append/view/copy_out/drop_front move data with at most two memcpys.
// Single-threaded, like the simulators.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace ldlp {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(Ring&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(std::exchange(other.mask_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      mask_ = std::exchange(other.mask_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_ ? mask_ + 1 : 0;
  }

  /// Element `i` counted from the front.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    LDLP_DASSERT(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    LDLP_DASSERT(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }

  void push_back(T value) {
    reserve(size_ + 1);
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Remove and return the front element.
  T pop_front() noexcept {
    LDLP_DASSERT(size_ != 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }

  /// Empty the ring, keeping its storage. Elements that own resources
  /// release them now.
  void clear() noexcept {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    }
    head_ = size_ = 0;
  }

  /// Make room for `n` elements (rounded up to a power of two).
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(n, 8));
    std::unique_ptr<T[]> grown(new T[cap]);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    mask_ = cap - 1;
    head_ = 0;
  }

  // --- Stream operations, for trivially copyable elements (bytes) --------

  /// Append `src` at the back.
  void append(std::span<const T> src) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (src.empty()) return;
    reserve(size_ + src.size());
    const std::size_t tail = (head_ + size_) & mask_;
    const std::size_t first = std::min(src.size(), capacity() - tail);
    std::memcpy(&slots_[tail], src.data(), first * sizeof(T));
    std::memcpy(&slots_[0], src.data() + first,
                (src.size() - first) * sizeof(T));
    size_ += src.size();
  }

  /// Elements [off, off + len) as at most two contiguous pieces; the
  /// second is empty unless the region wraps the end of the array.
  [[nodiscard]] std::array<std::span<const T>, 2> view(
      std::size_t off, std::size_t len) const noexcept {
    LDLP_DASSERT(off + len <= size_);
    if (len == 0) return {};
    const std::size_t start = (head_ + off) & mask_;
    const std::size_t first = std::min(len, capacity() - start);
    return {std::span<const T>(&slots_[start], first),
            std::span<const T>(&slots_[0], len - first)};
  }

  /// Copy elements [off, off + dst.size()) into `dst`.
  void copy_out(std::size_t off, std::span<T> dst) const noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto [a, b] = view(off, dst.size());
    if (!a.empty()) std::memcpy(dst.data(), a.data(), a.size() * sizeof(T));
    if (!b.empty())
      std::memcpy(dst.data() + a.size(), b.data(), b.size() * sizeof(T));
  }

  /// Discard the first `n` elements.
  void drop_front(std::size_t n) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    LDLP_DASSERT(n <= size_);
    size_ -= n;
    head_ = size_ == 0 ? 0 : (head_ + n) & mask_;
  }

 private:
  std::unique_ptr<T[]> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// A stream buffer: the TCP send buffer and the socket receive buffer.
using ByteRing = Ring<std::uint8_t>;

}  // namespace ldlp
