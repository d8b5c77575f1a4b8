// Socket layer: receive buffering and application wakeups.
//
// The "socket low" half (sbappend/sowakeup in Table 1) runs as a Layer so
// the scheduler treats it like every other layer; the "socket high" half
// (soreceive/read) is the API the application calls. Stream sockets byte-
// buffer (TCP); datagram sockets preserve message boundaries and sender
// addresses (UDP).
//
// Sockets are recycled with 4.4BSD sofree semantics: a slot is freed once
// its protocol has let go (the PCB reached CLOSED, or UDP unbound the
// port) and the application has closed it, in either order. Handles carry
// a generation, so a stale one never reaches the slot's next tenant.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "core/stack_graph.hpp"

namespace ldlp::stack {

/// Generation-checked handle, the time::TimerId scheme: slot index + 1 in
/// the low 32 bits, the slot's generation in the high 32. Freeing a slot
/// bumps its generation, so every handle to the old tenant goes stale.
using SocketId = std::uint64_t;
inline constexpr SocketId kNoSocket = 0;

enum class SocketKind : std::uint8_t { kStream, kDatagram };

struct Datagram {
  std::vector<std::uint8_t> payload;
  std::uint32_t from_ip = 0;
  std::uint16_t from_port = 0;
};

/// Layer-wide slot accounting.
struct SocketLayerStats {
  std::uint64_t freed = 0;        ///< Slots recycled by sofree.
  std::uint64_t stale_drops = 0;  ///< Stream messages for a freed socket.
};

struct SocketStats {
  std::uint64_t appended_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t overflows = 0;  ///< Deliveries past hiwat (dgram: dropped;
                                ///< stream: accepted, see process()).
};

/// Wire-tap on socket-layer delivery, the last point before the
/// application. Conformance oracles (ldlp::check) implement this to
/// assert what the stack delivered against what the peer sent.
class SocketTap {
 public:
  virtual ~SocketTap() = default;
  /// Stream bytes appended to `id`'s receive buffer (sbappend), one call
  /// per mbuf of the delivered chain.
  virtual void on_stream_append(SocketId id,
                                std::span<const std::uint8_t> bytes) = 0;
  /// Datagram queued on `id` (about to wake the application).
  virtual void on_datagram(SocketId id, const Datagram& dgram) = 0;
};

class SocketLayer final : public core::Layer {
 public:
  SocketLayer() : core::Layer("socket") {}

  [[nodiscard]] SocketId create(SocketKind kind,
                                std::size_t hiwat_bytes = 16 * 1024);

  /// The application closed `id` (soclose). The slot is freed now if the
  /// protocol has already let go, else when it does. No-op on a stale id.
  void close(SocketId id);
  /// The protocol let go of `id`: its PCB reached CLOSED, or its UDP port
  /// was unbound (in_pcbdetach).
  /// The slot is freed now if the application has already closed it.
  /// No-op on a stale id.
  void detach(SocketId id);

  /// True while `id` names a live slot (not freed, not stale).
  [[nodiscard]] bool valid(SocketId id) const noexcept {
    return resolve(id) != nullptr;
  }
  /// Slots in use, and slots ever allocated (the table's size).
  [[nodiscard]] std::size_t live_count() const noexcept {
    return sockets_.size() - free_.size();
  }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return sockets_.size();
  }
  [[nodiscard]] const SocketLayerStats& layer_stats() const noexcept {
    return layer_stats_;
  }

  /// Called whenever data arrives on the socket (sowakeup). The paper's
  /// blocked process is modelled by the caller polling or by this hook.
  void set_wakeup(SocketId id, std::function<void(SocketId)> hook);

  // Reads on a stale handle behave like reads on a closed descriptor:
  // nothing comes back. set_wakeup on one is a no-op.

  /// soreceive for stream sockets: copy out up to dst.size() bytes.
  [[nodiscard]] std::size_t read(SocketId id, std::span<std::uint8_t> dst);

  /// recvfrom for datagram sockets.
  [[nodiscard]] std::optional<Datagram> read_datagram(SocketId id);

  [[nodiscard]] std::size_t readable_bytes(SocketId id) const;
  [[nodiscard]] std::size_t pending_datagrams(SocketId id) const;
  [[nodiscard]] const SocketStats& socket_stats(SocketId id) const;
  [[nodiscard]] std::size_t room(SocketId id) const;  ///< Receive window.

  /// Datagram-side delivery (UDP calls this directly; stream data arrives
  /// as Messages through process()).
  void deliver_datagram(SocketId id, Datagram dgram);

  /// Attach a delivery wire-tap observing every append on every socket
  /// (nullptr detaches). Used by chaos builds; nullptr costs one branch.
  void set_tap(SocketTap* tap) noexcept { tap_ = tap; }

  /// Host crash: unread buffers and application wakeup hooks are gone.
  /// Stream sockets die with the connections and the applications that
  /// held them: each is freed, so a handle cached across the restart goes
  /// stale and a stream message still in the scheduler's queues is dropped
  /// as stale. Datagram slots stay addressable. Stats survive; they
  /// describe the machine, not the incarnation.
  void crash();

 protected:
  /// Stream delivery: msg.flow_id is the SocketId, packet holds payload.
  void process(core::Message msg) override;

 private:
  struct Socket {
    SocketKind kind = SocketKind::kStream;
    std::size_t hiwat = 0;
    std::uint32_t gen = 0;      ///< Bumped on sofree; stale-handle guard.
    bool live = false;
    bool app_closed = false;    ///< SS_NOFDREF: the application let go.
    bool detached = false;      ///< The protocol let go (so_pcb == 0).
    /// Both keep their storage across sofree for the slot's next tenant.
    ByteRing stream;
    Ring<Datagram> dgrams;
    std::size_t dgram_bytes = 0;  ///< Payload bytes queued in dgrams.
    std::function<void(SocketId)> wakeup;
    SocketStats stats;
  };

  [[nodiscard]] const Socket* resolve(SocketId id) const noexcept;
  [[nodiscard]] Socket* resolve(SocketId id) noexcept {
    return const_cast<Socket*>(std::as_const(*this).resolve(id));
  }
  [[nodiscard]] Socket& sock(SocketId id);
  [[nodiscard]] const Socket& sock(SocketId id) const;
  void wake(Socket& socket, SocketId id);
  /// Free the slot behind a live handle: bump its generation and hand it
  /// to the next create().
  void sofree(SocketId id);

  std::vector<Socket> sockets_;
  std::vector<std::uint32_t> free_;  ///< Freed slot indices, reused LIFO.
  SocketLayerStats layer_stats_;
  SocketTap* tap_ = nullptr;
};

}  // namespace ldlp::stack
