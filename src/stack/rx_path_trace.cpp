#include "stack/rx_path_trace.hpp"

#include <vector>

#include "stack/host_pair.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::stack {

bool trace_tcp_receive_ack(StackTracer& tracer, trace::TraceBuffer& buffer,
                           const RxTraceOptions& options) {
  HostConfig cb;
  cb.name = "receiver";
  // Suppress the receiver's inline every-2nd-segment ACK so the ACK is
  // sent from the exit phase, as in the paper's Table 2 flow.
  cb.tcp.delack_every = 1000;
  cb.tcp.delack_timeout_sec = 10.0;
  HostPair net({.name = "sender"}, cb);
  Host& sender = net.a;
  Host& receiver = net.b;

  const PcbId listener = receiver.tcp().listen(5000);
  (void)listener;
  PcbId accepted = kNoPcb;
  receiver.tcp().set_accept_hook([&](PcbId id) { accepted = id; });

  const PcbId conn =
      sender.tcp().connect(wire::ip_from_parts(10, 0, 0, 2), 5000);
  net.settle(16);
  if (sender.tcp().state(conn) != TcpState::kEstablished ||
      accepted == kNoPcb) {
    return false;
  }

  // Prime the path untraced so caches of *state* (ARP, PCB cache) are warm
  // — the paper traces the steady bulk-transfer state.
  std::vector<std::uint8_t> payload(options.payload_bytes, 0x5a);
  for (std::uint32_t i = 0; i < options.prime_segments; ++i) {
    if (!sender.tcp().send(conn, payload)) return false;
    net.settle(16);
    std::vector<std::uint8_t> sink(payload.size());
    (void)receiver.sockets().read(receiver.tcp().socket_of(accepted), sink);
    receiver.tcp().ack_now(accepted);
    net.settle(16);
  }

  const SocketId rx_socket = receiver.tcp().socket_of(accepted);

  // ---- Phase 1: entry — the process read()s and blocks. -----------------
  tracer.activate(buffer);
  tracer.set_phase(trace::Phase::kEntry);
  trace_fn(Fn::kXentSys);
  trace_fn(Fn::kSyscall, 0.6);
  trace_fn(Fn::kRead);
  trace_fn(Fn::kSooRead);
  trace_rgn(Rgn::kSysentRo, 0.4);
  trace_rgn(Rgn::kSockHighRo, 0.5);
  trace_rgn(Rgn::kSockFileMut);
  // soreceive finds no data and blocks.
  trace_fn(Fn::kSoReceive, 0.35);
  trace_fn(Fn::kSbWait);
  trace_fn(Fn::kTsleep);
  trace_fn(Fn::kMiSwitch);
  trace_fn(Fn::kCpuSwitch);
  trace_fn(Fn::kIdle);
  trace_rgn(Rgn::kProcStateMut, 0.5);
  tracer.deactivate();

  // The segment is transmitted by the sender untraced (the paper traces
  // only the receiving host).
  if (!sender.tcp().send(conn, payload)) return false;
  sender.pump();  // nothing pending, but keeps both sides symmetric

  // ---- Phase 2: device interrupt through TCP to the socket buffer. ------
  tracer.activate(buffer);
  tracer.set_phase(trace::Phase::kPacketIntr);
  const std::size_t handled = receiver.pump();
  tracer.deactivate();
  if (handled == 0) return false;

  // ---- Phase 3: exit — wake, copy out, send the ACK. ---------------------
  tracer.activate(buffer);
  tracer.set_phase(trace::Phase::kExit);
  trace_fn(Fn::kWakeup);
  trace_fn(Fn::kSetRunqueue);
  trace_fn(Fn::kMiSwitch);
  trace_fn(Fn::kCpuSwitch);
  trace_fn(Fn::kSchedMisc);
  trace_fn(Fn::kMicrotime);
  trace_fn(Fn::kSelWakeup);
  trace_rgn(Rgn::kProcTablesRo);
  trace_rgn(Rgn::kProcStateMut);
  trace_rgn(Rgn::kKernFrameMut);
  // soreceive copies the data into the process.
  std::vector<std::uint8_t> sink(payload.size());
  const std::size_t got = receiver.sockets().read(rx_socket, sink);
  trace_fn(Fn::kBcopy);
  trace_fn(Fn::kNtohl);
  trace_fn(Fn::kNtohs);
  trace_fn(Fn::kFree);  // mbufs released after the copy
  trace_rgn(Rgn::kCopyTablesRo);
  trace_rgn(Rgn::kCopyStateMut);
  trace_pkt(trace::RefKind::kRead, options.payload_bytes);
  trace_pkt(trace::RefKind::kWrite, options.payload_bytes);
  // The window update: soreceive calls tcp_output to send the ACK.
  trace_fn(Fn::kTcpUsrreq);
  receiver.tcp().ack_now(accepted);
  // Return from the system call.
  trace_fn(Fn::kSyscall);
  trace_fn(Fn::kTrap);
  trace_fn(Fn::kRei);
  trace_fn(Fn::kSpl0);
  trace_fn(Fn::kBzero);
  tracer.deactivate();

  return got == payload.size();
}

}  // namespace ldlp::stack
