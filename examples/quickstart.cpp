// Quickstart: the ldlp library in ~80 lines.
//
// 1. Bring up two hosts with full TCP/IP stacks joined by a wire.
// 2. Open a TCP connection and exchange data (ARP, handshake, checksums,
//    acknowledgments all happen underneath).
// 3. Flip the receiver to LDLP scheduling and watch the per-layer batch
//    statistics change when a backlog arrives.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "stack/host_pair.hpp"

using namespace ldlp;

int main() {
  // --- 1. Two hosts on a wire -------------------------------------------
  // The receiver runs locality-driven layer processing: when several
  // packets are waiting, each layer processes the whole batch before the
  // next layer runs, so layer code is fetched into the I-cache once per
  // batch instead of once per packet.
  stack::HostPair net({.name = "client"},
                      {.name = "server", .mode = core::SchedMode::kLdlp});
  stack::Host& client = net.a;  // 10.0.0.1
  stack::Host& server = net.b;  // 10.0.0.2

  // --- 2. TCP connection ------------------------------------------------
  (void)server.tcp().listen(7777);
  stack::PcbId accepted = stack::kNoPcb;
  server.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });

  const stack::PcbId conn =
      client.tcp().connect(server.ip().ip_addr(), 7777);
  net.settle(8);  // pump both hosts until the handshake lands
  std::printf("connection state: client=%s server=%s\n",
              std::string(stack::tcp_state_name(client.tcp().state(conn))).c_str(),
              std::string(stack::tcp_state_name(server.tcp().state(accepted))).c_str());

  // --- 3. A burst of small messages, batched through the layers ---------
  const std::vector<std::uint8_t> request(120, 0x42);  // a "small message"
  for (int i = 0; i < 10; ++i) {
    if (!client.tcp().send(conn, request)) return 1;
    client.pump();  // each segment goes onto the wire immediately
  }
  std::printf("server rx ring backlog before pump: %zu frames\n",
              server.device().rx_pending());

  server.pump();  // one LDLP pass carries the whole backlog up the stack

  std::vector<std::uint8_t> buffer(4096);
  const std::size_t got =
      server.sockets().read(server.tcp().socket_of(accepted), buffer);
  std::printf("server application read %zu bytes\n", got);

  std::printf("\nper-layer batching (messages per activation):\n");
  for (const auto* layer :
       {static_cast<core::Layer*>(&server.eth()),
        static_cast<core::Layer*>(&server.ip()),
        static_cast<core::Layer*>(&server.tcp()),
        static_cast<core::Layer*>(&server.sockets())}) {
    std::printf("  %-10s processed=%-4llu batch=%.2f\n",
                layer->name().c_str(),
                static_cast<unsigned long long>(layer->stats().processed),
                layer->stats().mean_batch());
  }
  std::printf(
      "\nUnder conventional scheduling every batch above would be 1.00 —\n"
      "each packet would walk all layers alone, refetching ~30 KB of\n"
      "protocol code per packet on a small-cache machine.\n");
  return 0;
}
