// "LDLP may improve performance for Internet WWW servers, where the data
// transfer unit is 512 bytes or less in most circumstances" (paper §6).
//
// A 1996-flavoured HTTP/0.9-ish exchange over the library's real TCP
// stack: many clients-worth of small GET requests arrive at a server whose
// receive side runs under LDLP; each request gets a ~500-byte response.
// The example reports end-to-end correctness and the server's per-layer
// batching statistics, then sizes the same workload on the simulated
// 1995 machine to show the cycles-per-request difference batching makes.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "stack/host_pair.hpp"
#include "synth/synth_stack.hpp"
#include "traffic/arrivals.hpp"

using namespace ldlp;

namespace {

const char kResponse[] =
    "HTTP/0.9 200 OK\r\n"
    "Server: ldlp-smallmsg/1.0\r\n"
    "Content-Type: text/html\r\n"
    "\r\n"
    "<html><head><title>LDLP</title></head><body>"
    "<h1>Locality-Driven Layer Processing</h1>"
    "<p>This ~500 byte page is the paper's canonical WWW transfer unit: "
    "small enough that protocol code, not data movement, dominates the "
    "memory traffic of serving it. Batching requests through each layer "
    "keeps that code in the instruction cache.</p>"
    "<hr><address>ldlp example server</address></body></html>\r\n";

}  // namespace

int main() {
  stack::HostPair net({.name = "browser"},
                      {.name = "www", .mode = core::SchedMode::kLdlp});
  stack::Host& client = net.a;
  stack::Host& server = net.b;

  (void)server.tcp().listen(80);
  stack::PcbId conn_at_server = stack::kNoPcb;
  server.tcp().set_accept_hook(
      [&](stack::PcbId id) { conn_at_server = id; });

  const stack::PcbId conn = client.tcp().connect(server.ip().ip_addr(), 80);
  net.settle(8);
  if (conn_at_server == stack::kNoPcb) {
    std::fprintf(stderr, "handshake failed\n");
    return 1;
  }

  // Serve a burst of keep-alive requests on the one connection.
  const std::string request = "GET /index.html HTTP/0.9\r\n\r\n";
  const int kRequests = 200;
  int served = 0;
  std::size_t bytes_to_client = 0;
  std::vector<std::uint8_t> scratch(8192);

  for (int i = 0; i < kRequests; ++i) {
    if (!client.tcp().send(
            conn, {reinterpret_cast<const std::uint8_t*>(request.data()),
                   request.size()}))
      break;
    client.pump();
    server.pump();  // request batch climbs the server stack
    // Server application: drain requests, answer each with the page.
    const stack::SocketId ssock = server.tcp().socket_of(conn_at_server);
    while (server.sockets().readable_bytes(ssock) >= request.size()) {
      (void)server.sockets().read(
          ssock, {scratch.data(), request.size()});
      if (!server.tcp().send(
              conn_at_server,
              {reinterpret_cast<const std::uint8_t*>(kResponse),
               sizeof kResponse - 1}))
        break;
      ++served;
    }
    server.pump();
    client.pump();  // responses descend/arrive
    const stack::SocketId csock = client.tcp().socket_of(conn);
    bytes_to_client += client.sockets().read(csock, scratch);
    client.pump();
    server.pump();
  }

  std::printf("small-message web server (real stack, LDLP receive side)\n");
  std::printf("  requests served:   %d / %d\n", served, kRequests);
  std::printf("  response size:     %zu bytes\n", sizeof kResponse - 1);
  std::printf("  bytes to client:   %zu\n", bytes_to_client);
  std::printf("  server fast path:  %llu segments\n",
              static_cast<unsigned long long>(
                  server.tcp().pcb_stats(conn_at_server).fast_path));

  // --- The same workload on the paper's 1995 machine --------------------
  // ~500-byte messages at web-server arrival rates, conventional vs LDLP.
  std::printf("\nsimulated DEC 3000/400-class server, 500-byte requests:\n");
  std::printf("  %9s | %13s | %13s\n", "req/s", "conv latency", "ldlp latency");
  for (const double rate : {2000.0, 4000.0, 6000.0, 8000.0}) {
    double latency[2];
    int slot = 0;
    for (const auto mode :
         {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
      synth::Stack stack;
      stack.mode = synth::from_sched(mode);
      stack.layout_seed = 1234;
      traffic::PoissonSource source(
          rate, std::make_unique<traffic::FixedSize>(500), 99);
      latency[slot++] = synth::run(stack, source, 1.0).mean_latency;
    }
    std::printf("  %9.0f | %10.2f ms | %10.2f ms\n", rate, latency[0] * 1e3,
                latency[1] * 1e3);
  }
  std::printf(
      "\nThe conventional server saturates mid-table; the LDLP server rides\n"
      "out the same load by batching — the paper's WWW-server conjecture.\n");
  return served == kRequests ? 0 : 1;
}
