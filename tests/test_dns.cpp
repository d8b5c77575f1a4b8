// DNS tests: name and message codecs (including compression pointers and
// malformed input), server zone lookups with CNAME chasing, resolver
// caching (positive and negative), retry under loss, query coalescing —
// all end-to-end over the real UDP/IP/Ethernet stack.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dns/resolver.hpp"
#include "stack/host_pair.hpp"

namespace ldlp::dns {
namespace {

using wire::ip_from_parts;

TEST(DnsName, EncodeDecodeRoundTrip) {
  for (const std::string name :
       {"example", "www.example.com", "a.b.c.d.e", "x"}) {
    std::vector<std::uint8_t> wire;
    ASSERT_TRUE(encode_name(name, wire)) << name;
    std::size_t pos = 0;
    const auto decoded = decode_name(wire, pos);
    ASSERT_TRUE(decoded.has_value()) << name;
    EXPECT_EQ(*decoded, name);
    EXPECT_EQ(pos, wire.size());
  }
}

TEST(DnsName, NormalizationLowercasesAndStripsDot) {
  EXPECT_EQ(normalize_name("WWW.Example.COM."), "www.example.com");
}

TEST(DnsName, RejectsOversizedLabels) {
  std::vector<std::uint8_t> wire;
  EXPECT_FALSE(encode_name(std::string(64, 'a') + ".com", wire));
  EXPECT_FALSE(encode_name("a..b", wire));  // empty label
}

TEST(DnsName, DecodesCompressionPointer) {
  // "ns.example" at offset 0; at offset 12 a name "www" + pointer to
  // offset 3 ("example").
  std::vector<std::uint8_t> msg;
  ASSERT_TRUE(encode_name("ns.example", msg));  // [0]=2 ns [3]=7 example 0
  msg.resize(12, 0);
  const std::size_t start = msg.size();
  msg.push_back(3);
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back(0xc0);
  msg.push_back(3);  // pointer to "example"
  std::size_t pos = start;
  const auto decoded = decode_name(msg, pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, "www.example");
  EXPECT_EQ(pos, msg.size());
}

TEST(DnsName, PointerLoopRejected) {
  std::vector<std::uint8_t> msg{0xc0, 0x00};  // points at itself
  std::size_t pos = 0;
  EXPECT_FALSE(decode_name(msg, pos).has_value());
}

TEST(DnsMsg, QueryRoundTrip) {
  const DnsMessage query = DnsMessage::query(0x1234, "Host.Example");
  const auto bytes = encode(query);
  ASSERT_FALSE(bytes.empty());
  EXPECT_LT(bytes.size(), 50u);  // a genuinely small message
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 0x1234);
  EXPECT_FALSE(decoded->is_response);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, "host.example");
  EXPECT_EQ(decoded->questions[0].type, RType::kA);
}

TEST(DnsMsg, ResponseWithRecordsRoundTrip) {
  DnsMessage query = DnsMessage::query(7, "www.test");
  DnsMessage response = DnsMessage::response_to(query);
  response.authoritative = true;
  response.answers.push_back(
      ResourceRecord::cname("www.test", "host.test", 120));
  response.answers.push_back(
      ResourceRecord::a("host.test", ip_from_parts(10, 1, 2, 3), 300));
  const auto decoded = decode(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_response);
  EXPECT_TRUE(decoded->authoritative);
  ASSERT_EQ(decoded->answers.size(), 2u);
  EXPECT_EQ(decoded->answers[0].target_name().value(), "host.test");
  EXPECT_EQ(decoded->answers[1].a_addr().value(), ip_from_parts(10, 1, 2, 3));
  EXPECT_EQ(decoded->answers[1].ttl, 300u);
}

TEST(DnsMsg, MalformedInputsRejected) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>(5, 0)).has_value());
  auto bytes = encode(DnsMessage::query(1, "a.b"));
  bytes.erase(bytes.end() - 2, bytes.end());  // truncated question
  EXPECT_FALSE(decode(bytes).has_value());
  // Absurd record counts.
  auto bomb = encode(DnsMessage::query(1, "a.b"));
  bomb[6] = 0xff;
  bomb[7] = 0xff;  // 65535 answers claimed
  EXPECT_FALSE(decode(bomb).has_value());
}

// ---- End-to-end fixtures ---------------------------------------------------

struct DnsNet : stack::HostPair {
  stack::Host& client = a;
  stack::Host& server = b;
  std::unique_ptr<DnsServer> dns;
  std::unique_ptr<DnsResolver> resolver;

  explicit DnsNet(core::SchedMode mode = core::SchedMode::kConventional)
      : HostPair({.name = "stub", .mode = mode}, {.name = "ns", .mode = mode}) {
    dns = std::make_unique<DnsServer>(server);
    DnsResolver::Config cfg;
    cfg.server_ip = server.ip().ip_addr();
    resolver = std::make_unique<DnsResolver>(client, cfg);
  }

  void settle(int rounds = 8) {
    for (int i = 0; i < rounds; ++i) {
      client.pump();
      server.pump();
      dns->poll();
      server.pump();
      client.pump();
      resolver->poll();
    }
  }

  void tick(double dt) {
    client.advance(dt);
    server.advance(dt);
    settle(2);
  }
};

TEST(DnsEndToEnd, ResolvesARecord) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 9, 9, 9));
  std::optional<std::uint32_t> result;
  net.resolver->resolve("HOST.TEST", [&](const std::string&, auto addr) {
    result = addr;
  });
  net.settle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, ip_from_parts(10, 9, 9, 9));
  EXPECT_EQ(net.dns->stats().answered, 1u);
}

TEST(DnsEndToEnd, ChasesCnameChain) {
  DnsNet net;
  net.dns->add_cname("www.test", "web.test");
  net.dns->add_cname("web.test", "host.test");
  net.dns->add_a("host.test", ip_from_parts(10, 3, 3, 3));
  std::optional<std::uint32_t> result;
  net.resolver->resolve("www.test",
                        [&](const std::string&, auto addr) { result = addr; });
  net.settle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, ip_from_parts(10, 3, 3, 3));
}

TEST(DnsEndToEnd, NxDomainIsNegativelyCached) {
  DnsNet net;
  int callbacks = 0;
  std::optional<std::uint32_t> result = 1;  // sentinel
  net.resolver->resolve("nope.test", [&](const std::string&, auto addr) {
    ++callbacks;
    result = addr;
  });
  net.settle();
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(net.dns->stats().nxdomain, 1u);

  // Second lookup is served from the negative cache: no new query.
  const auto sent_before = net.resolver->stats().queries_sent;
  net.resolver->resolve("nope.test",
                        [&](const std::string&, auto) { ++callbacks; });
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(net.resolver->stats().queries_sent, sent_before);
  EXPECT_EQ(net.resolver->stats().negative_hits, 1u);
}

TEST(DnsEndToEnd, PositiveCacheServesRepeats) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    net.resolver->resolve("host.test",
                          [&](const std::string&, auto) { ++callbacks; });
    net.settle(4);
  }
  EXPECT_EQ(callbacks, 5);
  EXPECT_EQ(net.resolver->stats().queries_sent, 1u);
  EXPECT_EQ(net.resolver->stats().cache_hits, 4u);
}

TEST(DnsEndToEnd, ConcurrentLookupsCoalesce) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  int callbacks = 0;
  for (int i = 0; i < 4; ++i) {
    net.resolver->resolve("host.test",
                          [&](const std::string&, auto) { ++callbacks; });
  }
  EXPECT_EQ(net.resolver->inflight(), 1u);
  net.settle();
  EXPECT_EQ(callbacks, 4);
  EXPECT_EQ(net.resolver->stats().queries_sent, 1u);
}

TEST(DnsEndToEnd, RetriesThroughLoss) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  // Drop the first transmission toward the server; the retry gets through.
  net.server.device().set_loss(1.0, 3);
  std::optional<std::uint32_t> result;
  net.resolver->resolve("host.test",
                        [&](const std::string&, auto addr) { result = addr; });
  net.settle(2);
  net.server.device().set_loss(0.0);
  EXPECT_FALSE(result.has_value());
  for (int i = 0; i < 4 && !result.has_value(); ++i) net.tick(0.6);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(net.resolver->stats().retries, 1u);
}

TEST(DnsEndToEnd, RetryExhaustionFailsCleanly) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  net.server.device().set_loss(1.0, 5);  // server never hears us
  int callbacks = 0;
  std::optional<std::uint32_t> result = 1;
  net.resolver->resolve("host.test", [&](const std::string&, auto addr) {
    ++callbacks;
    result = addr;
  });
  // Retries back off 0.5/1/2/2s (capped), so exhaustion lands near t=6.6.
  for (int i = 0; i < 14; ++i) net.tick(0.6);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(net.resolver->inflight(), 0u);
  EXPECT_EQ(net.resolver->stats().exhaustions_cached, 1u);
  // The failure is negatively cached only for failure_ttl (0.25 s) —
  // long since expired by now, so a later lookup tries the wire again.
  const auto sent = net.resolver->stats().queries_sent;
  net.resolver->resolve("host.test", [&](const std::string&, auto) {});
  EXPECT_GT(net.resolver->stats().queries_sent, sent);
}

/// Drive one lookup to retry exhaustion against a black-holed server.
/// Returns the number of 0.05 s ticks it took.
int exhaust_lookup(DnsNet& net, const std::string& name) {
  int callbacks = 0;
  net.resolver->resolve(name, [&](const std::string&, auto) { ++callbacks; });
  int ticks = 0;
  while (callbacks == 0 && ticks < 400) {
    net.tick(0.05);
    ++ticks;
  }
  EXPECT_EQ(callbacks, 1) << "lookup never exhausted";
  return ticks;
}

TEST(DnsEndToEnd, ExhaustionNegativelyCachedBriefly) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  net.server.device().set_loss(1.0, 5);  // server never hears us
  exhaust_lookup(net, "host.test");

  // Within failure_ttl a retry storm is absorbed by the cache: the
  // repeat lookup fails instantly without touching the wire.
  const auto sent = net.resolver->stats().queries_sent;
  int callbacks = 0;
  std::optional<std::uint32_t> result = 1;
  net.resolver->resolve("host.test", [&](const std::string&, auto addr) {
    ++callbacks;
    result = addr;
  });
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(net.resolver->stats().queries_sent, sent);
  EXPECT_EQ(net.resolver->stats().negative_hits, 1u);
  EXPECT_EQ(net.resolver->inflight(), 0u);
}

TEST(DnsEndToEnd, ConsecutiveExhaustionsDoubleTheNegativeTtl) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  net.server.device().set_loss(1.0, 5);
  exhaust_lookup(net, "host.test");

  // Past the first 0.25 s TTL: the entry is stale and a full retry
  // cycle runs again, ending in a second exhaustion.
  net.tick(0.3);
  exhaust_lookup(net, "host.test");
  EXPECT_EQ(net.resolver->stats().exhaustions_cached, 2u);

  // The second failure doubled the TTL to 0.5 s, so 0.3 s later the
  // negative entry is still live — a first-failure TTL would have
  // expired and sent another query.
  net.tick(0.3);
  const auto sent = net.resolver->stats().queries_sent;
  int callbacks = 0;
  net.resolver->resolve("host.test",
                        [&](const std::string&, auto) { ++callbacks; });
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(net.resolver->stats().queries_sent, sent);
  EXPECT_GE(net.resolver->stats().negative_hits, 1u);
}

TEST(DnsEndToEnd, HealedPathResolvesOnceNegativeTtlExpires) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1));
  net.server.device().set_loss(1.0, 5);
  exhaust_lookup(net, "host.test");

  // The path heals. The short negative TTL must not wedge recovery:
  // once it lapses, the next lookup goes to the wire and succeeds.
  net.server.device().set_loss(0.0);
  net.tick(0.3);
  bool done = false;
  std::optional<std::uint32_t> result;
  net.resolver->resolve("host.test", [&](const std::string&, auto addr) {
    done = true;
    result = addr;
  });
  // Allow an ARP round trip (the request died with the old path) plus a
  // query retry before the answer lands.
  for (int i = 0; i < 60 && !done; ++i) net.tick(0.1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, ip_from_parts(10, 1, 1, 1));
  EXPECT_GE(net.resolver->stats().answers, 1u);
}

TEST(DnsEndToEnd, CacheEntryExpiresByTtl) {
  DnsNet net;
  net.dns->add_a("host.test", ip_from_parts(10, 1, 1, 1), /*ttl=*/5);
  int callbacks = 0;
  net.resolver->resolve("host.test",
                        [&](const std::string&, auto) { ++callbacks; });
  net.settle();
  ASSERT_EQ(callbacks, 1);
  ASSERT_EQ(net.resolver->stats().queries_sent, 1u);

  // Within TTL: served from cache.
  net.tick(2.0);
  net.resolver->resolve("host.test",
                        [&](const std::string&, auto) { ++callbacks; });
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(net.resolver->stats().queries_sent, 1u);

  // Past TTL: the entry is stale and a fresh query goes out.
  for (int i = 0; i < 4; ++i) net.tick(2.0);
  net.resolver->resolve("host.test",
                        [&](const std::string&, auto) { ++callbacks; });
  net.settle();
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(net.resolver->stats().queries_sent, 2u);
}

TEST(DnsEndToEnd, BurstOfLookupsUnderLdlp) {
  DnsNet net(core::SchedMode::kLdlp);
  for (int i = 0; i < 30; ++i) {
    net.dns->add_a("h" + std::to_string(i) + ".test",
                   ip_from_parts(10, 0, 1, static_cast<std::uint8_t>(i)));
  }
  // Warm the ARP cache: an unresolved next hop parks only a handful of
  // packets (as in BSD), which would eat most of a cold burst.
  net.dns->add_a("warm.test", ip_from_parts(10, 0, 1, 200));
  net.resolver->resolve("warm.test", [](const std::string&, auto) {});
  net.settle();
  int resolved = 0;
  for (int i = 0; i < 30; ++i) {
    net.resolver->resolve("h" + std::to_string(i) + ".test",
                          [&](const std::string&, auto addr) {
                            if (addr.has_value()) ++resolved;
                          });
  }
  net.settle();
  EXPECT_EQ(resolved, 30);
  // The burst of 30 queries crossed the server's stack in batches.
  EXPECT_GT(net.server.eth().stats().mean_batch(), 2.0);
}

}  // namespace
}  // namespace ldlp::dns
