#include "stack/socket_layer.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "stack/footprints.hpp"

namespace ldlp::stack {

namespace {
[[nodiscard]] std::uint32_t index_of(SocketId id) noexcept {
  return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
}
[[nodiscard]] std::uint32_t gen_of(SocketId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}
[[nodiscard]] SocketId make_id(std::uint32_t index, std::uint32_t gen) noexcept {
  return (static_cast<std::uint64_t>(gen) << 32) | (index + 1ull);
}
}  // namespace

SocketId SocketLayer::create(SocketKind kind, std::size_t hiwat_bytes) {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(sockets_.size());
    sockets_.emplace_back();
  }
  Socket& socket = sockets_[index];
  socket.kind = kind;
  socket.hiwat = hiwat_bytes;
  socket.live = true;
  return make_id(index, socket.gen);
}

const SocketLayer::Socket* SocketLayer::resolve(SocketId id) const noexcept {
  const std::uint32_t index = index_of(id);
  if (id == kNoSocket || index >= sockets_.size()) return nullptr;
  const Socket& socket = sockets_[index];
  return socket.live && socket.gen == gen_of(id) ? &socket : nullptr;
}

SocketLayer::Socket& SocketLayer::sock(SocketId id) {
  Socket* socket = resolve(id);
  LDLP_ASSERT_MSG(socket != nullptr, "bad or stale socket id");
  return *socket;
}

const SocketLayer::Socket& SocketLayer::sock(SocketId id) const {
  const Socket* socket = resolve(id);
  LDLP_ASSERT_MSG(socket != nullptr, "bad or stale socket id");
  return *socket;
}

void SocketLayer::close(SocketId id) {
  Socket* socket = resolve(id);
  if (socket == nullptr) return;
  socket->app_closed = true;
  if (socket->detached) sofree(id);
}

void SocketLayer::detach(SocketId id) {
  Socket* socket = resolve(id);
  if (socket == nullptr) return;
  socket->detached = true;
  if (socket->app_closed) sofree(id);
}

void SocketLayer::sofree(SocketId id) {
  const std::uint32_t index = index_of(id);
  Socket& socket = sockets_[index];
  // Reset in place: clear() keeps each ring's storage for the next tenant
  // instead of freeing it here and allocating it again.
  socket.stream.clear();
  socket.dgrams.clear();
  socket.dgram_bytes = 0;
  socket.wakeup = nullptr;
  socket.stats = {};
  socket.live = socket.app_closed = socket.detached = false;
  ++socket.gen;  // every outstanding handle goes stale
  free_.push_back(index);
  ++layer_stats_.freed;
}

void SocketLayer::crash() {
  for (std::uint32_t index = 0; index < sockets_.size(); ++index) {
    Socket& s = sockets_[index];
    if (s.live && s.kind == SocketKind::kStream) {
      sofree(make_id(index, s.gen));
      continue;
    }
    s.stream.clear();
    s.dgrams.clear();
    s.dgram_bytes = 0;
    s.wakeup = nullptr;
  }
}

void SocketLayer::set_wakeup(SocketId id, std::function<void(SocketId)> hook) {
  if (Socket* socket = resolve(id)) socket->wakeup = std::move(hook);
}

void SocketLayer::wake(Socket& socket, SocketId id) {
  trace_fn(Fn::kSoWakeup);
  trace_fn(Fn::kWakeup);
  ++socket.stats.wakeups;
  if (socket.wakeup) socket.wakeup(id);
}

void SocketLayer::process(core::Message msg) {
  trace_fn(Fn::kSbAppend);
  trace_fn(Fn::kSbCompress);
  trace_rgn(Rgn::kSockBufMut);
  trace_rgn(Rgn::kSockLowRo);
  const SocketId id = msg.flow_id;
  Socket* live = resolve(id);
  if (live == nullptr) {
    // Queued before its socket was freed: the bytes belong to a closed
    // connection, never to the slot's next tenant.
    ++layer_stats_.stale_drops;
    return;
  }
  Socket& socket = *live;
  LDLP_DASSERT(socket.kind == SocketKind::kStream);

  const std::uint32_t len = msg.packet.length();
  if (socket.stream.size() + len > socket.hiwat) {
    // TCP's advertised window normally prevents this, but under deferred
    // (LDLP) scheduling the window is computed while earlier segments
    // still sit in the tcp→socket queue, so a burst can land past hiwat.
    // These bytes are already ACKed (rcv_nxt advanced in deliver_payload);
    // dropping them here would tear an unrecoverable hole in the stream —
    // the peer has cleared its rtx entry. Accept the transient overshoot
    // (bounded by the advertised window) and count it.
    ++socket.stats.overflows;
  }
  // sbappend: TCP handed up the received chain itself; its bytes are
  // copied once, from the mbufs into the socket buffer.
  trace_pkt(trace::RefKind::kRead, len);
  for (const buf::Mbuf* m = msg.packet.head(); m != nullptr; m = m->next()) {
    if (m->len() == 0) continue;
    socket.stream.append(m->bytes());
    if (tap_ != nullptr) tap_->on_stream_append(id, m->bytes());
  }
  socket.stats.appended_bytes += len;
  wake(socket, id);
}

void SocketLayer::deliver_datagram(SocketId id, Datagram dgram) {
  Socket& socket = sock(id);
  LDLP_DASSERT(socket.kind == SocketKind::kDatagram);
  if (socket.dgram_bytes + dgram.payload.size() > socket.hiwat) {
    ++socket.stats.overflows;
    return;
  }
  socket.stats.appended_bytes += dgram.payload.size();
  if (tap_ != nullptr) tap_->on_datagram(id, dgram);
  socket.dgram_bytes += dgram.payload.size();
  socket.dgrams.push_back(std::move(dgram));
  wake(socket, id);
}

std::size_t SocketLayer::read(SocketId id, std::span<std::uint8_t> dst) {
  trace_fn(Fn::kSoReceive);
  trace_fn(Fn::kSooRead);
  trace_fn(Fn::kUiomove);
  trace_fn(Fn::kCopyout);
  Socket* live = resolve(id);
  if (live == nullptr) return 0;
  Socket& socket = *live;
  const std::size_t n = std::min(dst.size(), socket.stream.size());
  socket.stream.copy_out(0, dst.first(n));
  socket.stream.drop_front(n);
  socket.stats.read_bytes += n;
  return n;
}

std::optional<Datagram> SocketLayer::read_datagram(SocketId id) {
  Socket* socket = resolve(id);
  if (socket == nullptr || socket->dgrams.empty()) return std::nullopt;
  Datagram out = socket->dgrams.pop_front();
  socket->dgram_bytes -= out.payload.size();
  socket->stats.read_bytes += out.payload.size();
  return out;
}

std::size_t SocketLayer::readable_bytes(SocketId id) const {
  const Socket* socket = resolve(id);
  return socket != nullptr ? socket->stream.size() : 0;
}

std::size_t SocketLayer::pending_datagrams(SocketId id) const {
  const Socket* socket = resolve(id);
  return socket != nullptr ? socket->dgrams.size() : 0;
}

const SocketStats& SocketLayer::socket_stats(SocketId id) const {
  return sock(id).stats;
}

std::size_t SocketLayer::room(SocketId id) const {
  const Socket* socket = resolve(id);
  if (socket == nullptr) return 0;
  return socket->hiwat - std::min(socket->hiwat, socket->stream.size());
}

}  // namespace ldlp::stack
