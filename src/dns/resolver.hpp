// DNS server and stub resolver over the library's UDP stack.
//
// DnsServer: an authoritative server for a static zone (A and CNAME
// records), answering over a bound UDP port; unknown names get NXDOMAIN.
// CNAMEs are chased server-side up to a small depth so a single response
// carries the chain, as real authoritative servers do within one zone.
//
// DnsResolver: a caching stub resolver — positive and negative caching
// with TTLs, retry with timeout, at most one outstanding query per name.
// Both sit on stack::Host, so every query and response crosses the full
// Ethernet/IP/UDP path and is scheduled by the host's StackGraph
// (conventional or LDLP).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/dns_msg.hpp"
#include "stack/host.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp::dns {

inline constexpr std::uint16_t kDnsPort = 53;

struct ServerStats {
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t malformed = 0;
};

class DnsServer {
 public:
  /// Binds the DNS port on `host`. The host must outlive the server.
  explicit DnsServer(stack::Host& host, std::uint16_t port = kDnsPort);
  ~DnsServer();

  void add_a(const std::string& name, std::uint32_t ip,
             std::uint32_t ttl = 300);
  void add_cname(const std::string& name, const std::string& target,
                 std::uint32_t ttl = 300);

  /// Drain pending queries from the socket and answer them. Call after
  /// host.pump(). Returns queries handled.
  std::size_t poll();

  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  /// Socket queries arrive on (for delivery oracles).
  [[nodiscard]] stack::SocketId socket() const noexcept { return socket_; }

 private:
  struct ZoneEntry {
    std::vector<ResourceRecord> records;  ///< A and/or CNAME for the name.
  };

  void answer(const DnsMessage& query, std::uint32_t to_ip,
              std::uint16_t to_port);

  stack::Host& host_;
  std::uint16_t port_;
  stack::SocketId socket_ = stack::kNoSocket;
  std::unordered_map<std::string, ZoneEntry> zone_;
  ServerStats stats_;
};

struct ResolverStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t answers = 0;
  std::uint64_t failures = 0;
  std::uint64_t exhaustions_cached = 0;  ///< Retry-exhaustion negatives.
};

class DnsResolver {
 public:
  using Callback =
      std::function<void(const std::string& name,
                         std::optional<std::uint32_t> address)>;

  struct Config {
    std::uint32_t server_ip = 0;
    std::uint16_t server_port = kDnsPort;
    std::uint16_t local_port = 10053;
    double retry_sec = 0.5;   ///< First retry timeout; doubles per try.
    double retry_max_sec = 2.0;  ///< Backoff ceiling.
    std::uint32_t max_retries = 3;
    double negative_ttl = 30.0;
    /// Negative-cache TTL written when a lookup exhausts its retries —
    /// a dead or partitioned server, as opposed to an authoritative
    /// NXDOMAIN. Short by design: the cache absorbs a retry storm
    /// without wedging recovery once the path heals. Consecutive
    /// exhaustions for the same name double the TTL up to
    /// failure_ttl_max; any answer resets the backoff.
    double failure_ttl = 0.25;
    double failure_ttl_max = 4.0;
  };

  DnsResolver(stack::Host& host, Config config);
  ~DnsResolver();

  /// Start (or satisfy from cache) a lookup; the callback fires when an
  /// answer, NXDOMAIN (nullopt), or retry exhaustion (nullopt) arrives.
  void resolve(const std::string& name, Callback cb);

  /// Drain responses and fire timers. Call after host.pump(). The
  /// resolver keeps one wakeup timer on the host's wheel armed at its
  /// earliest retry deadline, so an idle poll (no responses pending, no
  /// deadline due) returns without scanning the inflight table.
  void poll();

  [[nodiscard]] const ResolverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::size_t inflight() const noexcept {
    return inflight_.size();
  }
  /// Socket the resolver receives responses on (for delivery oracles).
  [[nodiscard]] stack::SocketId socket() const noexcept { return socket_; }

 private:
  struct CacheEntry {
    std::optional<std::uint32_t> address;  ///< nullopt = negative entry.
    double expires_at = 0.0;
    /// Last retry-exhaustion TTL for this name (0 = none). Kept in the
    /// entry past expiry so consecutive-failure memory survives — the
    /// expired entry is no longer served, but the next exhaustion
    /// continues the backoff instead of restarting it.
    double backoff = 0.0;
  };
  struct Inflight {
    std::string name;
    std::vector<Callback> callbacks;
    std::uint16_t txid = 0;
    double deadline = 0.0;
    std::uint32_t tries = 0;
  };

  void send_query(Inflight& inflight);
  void complete(const std::string& name, std::optional<std::uint32_t> addr,
                double ttl_sec);
  /// Re-arm the wakeup timer at the min inflight deadline (cancel when
  /// none). The fire itself does nothing — the harness polls — but the
  /// armed deadline is what lets poll() early-exit and what the timer
  /// auditor / deadline oracle observe.
  void sync_wheel();

  stack::Host& host_;
  Config cfg_;
  stack::SocketId socket_ = stack::kNoSocket;
  time::TimerId wake_ = time::kNoTimer;
  double next_due_ = 0.0;  ///< Cached min inflight deadline (+inf if none).
  std::uint16_t next_txid_ = 1;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::unordered_map<std::string, Inflight> inflight_;
  ResolverStats stats_;
};

}  // namespace ldlp::dns
