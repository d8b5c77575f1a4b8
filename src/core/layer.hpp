// Layer: one protocol layer with its own input queue.
//
// Section 3.2 of the paper: "the entry point to each layer is modified to
// append the message to a queue of messages to be processed for that
// layer, and then return. When a layer is invoked, it pulls messages off
// its queue, making calls as usual to the next layer to propagate messages
// upward, until the queue is exhausted."
//
// deliver() is that entry point. Under the conventional schedule the graph
// bypasses the queue and processes immediately (procedure-call layering);
// under LDLP it enqueues and the graph drains queues layer by layer.
#pragma once

#include <cstdint>
#include <string>

#include "common/ring.hpp"
#include "core/message.hpp"

namespace ldlp::core {

class StackGraph;
using LayerId = std::uint32_t;
inline constexpr LayerId kNoLayer = ~LayerId{0};

struct LayerStats {
  /// Messages handed to the layer, whether accepted into the queue,
  /// processed immediately (conventional mode) or dropped at a full
  /// queue. Conservation law: enqueued == processed + drops + queue_len.
  std::uint64_t enqueued = 0;
  std::uint64_t processed = 0;
  std::uint64_t drops = 0;
  std::uint64_t activations = 0;  ///< Times the layer started draining.
  std::size_t max_queue = 0;

  /// Messages handled per activation — the achieved blocking factor. The
  /// whole point of LDLP is pushing this above 1 under load.
  [[nodiscard]] double mean_batch() const noexcept {
    return activations != 0
               ? static_cast<double>(processed) / static_cast<double>(activations)
               : 0.0;
  }
};

class Layer {
 public:
  explicit Layer(std::string name, std::size_t queue_capacity = 500)
      : name_(std::move(name)), queue_capacity_(queue_capacity) {}

  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t queue_len() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_capacity_;
  }
  /// Bound this layer's input queue; enqueue beyond it drops the message
  /// (counted in stats().drops). Overload protection, not flow control:
  /// the sender is not told.
  void set_queue_capacity(std::size_t capacity) noexcept {
    queue_capacity_ = capacity;
  }
  [[nodiscard]] const LayerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 protected:
  /// Handle one message. Forward results upward with emit(); dropping a
  /// message is just destroying it.
  virtual void process(Message msg) = 0;

  /// Send a message out of `port` (ports map to "directly above" layers;
  /// port 0 is the default upward edge). No-op if the port is unconnected.
  void emit(Message msg, int port = 0);

 private:
  friend class StackGraph;

  /// Graph-side entry point; behaviour depends on the scheduling mode.
  void enqueue(Message msg);
  /// Drain up to `limit` queued messages. Returns number processed.
  std::size_t drain(std::size_t limit);
  void process_now(Message msg);

  std::string name_;
  std::size_t queue_capacity_;
  /// Grows up to queue_capacity_ and keeps its storage, so a layer that
  /// has seen its working backlog queues without allocating.
  Ring<Message> queue_;
  StackGraph* graph_ = nullptr;
  LayerId id_ = kNoLayer;
  LayerStats stats_;
};

}  // namespace ldlp::core
