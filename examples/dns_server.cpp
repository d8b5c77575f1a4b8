// DNS: the paper's first-named small-message protocol, end to end.
//
// An authoritative server and a caching stub resolver run on two full
// stack hosts. A burst of lookups crosses the wire as ~30-byte queries
// and ~60-byte responses — messages an order of magnitude smaller than
// the protocol code that carries them, the paper's defining regime. The
// example prints resolution results, cache behaviour, and the server-side
// LDLP batching statistics for the query burst.
#include <cstdio>
#include <string>
#include <vector>

#include "dns/resolver.hpp"
#include "stack/host_pair.hpp"

using namespace ldlp;

int main() {
  stack::HostPair net({.name = "stub"},
                      // the busy side batches
                      {.name = "ns", .mode = core::SchedMode::kLdlp});
  stack::Host& stub = net.a;
  stack::Host& ns = net.b;
  const std::uint32_t ns_ip = ns.ip().ip_addr();

  dns::DnsServer server(ns);
  server.add_a("ns.corp.example", ns_ip);
  server.add_cname("www.corp.example", "web1.corp.example");
  server.add_a("web1.corp.example", wire::ip_from_parts(10, 0, 5, 1));
  for (int i = 0; i < 24; ++i) {
    server.add_a("host" + std::to_string(i) + ".corp.example",
                 wire::ip_from_parts(10, 0, 9, static_cast<std::uint8_t>(i)));
  }

  dns::DnsResolver::Config rcfg;
  rcfg.server_ip = ns_ip;
  dns::DnsResolver resolver(stub, rcfg);

  auto settle = [&] {
    for (int i = 0; i < 8; ++i) {
      stub.pump();
      ns.pump();
      server.poll();
      ns.pump();
      stub.pump();
      resolver.poll();
    }
  };

  // Warm-up: one lookup resolves ARP and shows the CNAME chase.
  std::printf("single lookups:\n");
  for (const char* name : {"www.corp.example", "missing.corp.example"}) {
    std::string shown = name;
    resolver.resolve(name, [&](const std::string& n, auto addr) {
      if (addr.has_value()) {
        std::printf("  %-24s -> %s\n", n.c_str(),
                    wire::ip_to_string(*addr).c_str());
      } else {
        std::printf("  %-24s -> NXDOMAIN\n", n.c_str());
      }
    });
    settle();
  }

  // Burst: 24 parallel lookups arrive at the server together; LDLP runs
  // them through each layer as a batch.
  int resolved = 0;
  for (int i = 0; i < 24; ++i) {
    resolver.resolve("host" + std::to_string(i) + ".corp.example",
                     [&](const std::string&, auto addr) {
                       if (addr.has_value()) ++resolved;
                     });
  }
  settle();
  std::printf("\nburst: %d/24 resolved in one exchange\n", resolved);
  std::printf("server-side batching: eth %.1f msgs/activation, "
              "udp %.1f msgs/activation\n",
              ns.eth().stats().mean_batch(), ns.udp().stats().mean_batch());

  // Cache: repeat the burst — zero wire traffic.
  const auto queries_before = resolver.stats().queries_sent;
  int cached = 0;
  for (int i = 0; i < 24; ++i) {
    resolver.resolve("host" + std::to_string(i) + ".corp.example",
                     [&](const std::string&, auto addr) {
                       if (addr.has_value()) ++cached;
                     });
  }
  std::printf("\nrepeat burst: %d/24 from cache, %llu new queries\n", cached,
              static_cast<unsigned long long>(resolver.stats().queries_sent -
                                              queries_before));
  std::printf("resolver: %llu lookups, %llu cache hits, %llu sent\n",
              static_cast<unsigned long long>(resolver.stats().lookups),
              static_cast<unsigned long long>(resolver.stats().cache_hits),
              static_cast<unsigned long long>(resolver.stats().queries_sent));
  return resolved == 24 && cached == 24 ? 0 : 1;
}
