#include "core/layer.hpp"

#include "common/assert.hpp"
#include "core/stack_graph.hpp"

namespace ldlp::core {

void Layer::emit(Message msg, int port) {
  LDLP_ASSERT_MSG(graph_ != nullptr, "layer not registered with a graph");
  graph_->route(id_, port, std::move(msg));
}

void Layer::enqueue(Message msg) {
  ++stats_.enqueued;
  if (queue_.size() >= queue_capacity_) {
    ++stats_.drops;
    return;  // msg destructor frees the chain
  }
  queue_.push_back(std::move(msg));
  if (queue_.size() > stats_.max_queue) stats_.max_queue = queue_.size();
}

std::size_t Layer::drain(std::size_t limit) {
  if (queue_.empty()) return 0;
  ++stats_.activations;
  std::size_t n = 0;
  while (!queue_.empty() && n < limit) {
    Message msg = queue_.pop_front();
    ++stats_.processed;
    ++n;
    process(std::move(msg));
  }
  return n;
}

void Layer::process_now(Message msg) {
  ++stats_.enqueued;
  ++stats_.activations;
  ++stats_.processed;
  process(std::move(msg));
}

}  // namespace ldlp::core
