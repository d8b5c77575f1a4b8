#include "dns/resolver.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace ldlp::dns {

// ---- DnsServer -------------------------------------------------------------

DnsServer::DnsServer(stack::Host& host, std::uint16_t port)
    : host_(host), port_(port) {
  socket_ = host_.sockets().create(stack::SocketKind::kDatagram, 64 * 1024);
  const bool bound = host_.udp().bind(port_, socket_);
  LDLP_ASSERT_MSG(bound, "DNS port already bound");
}

DnsServer::~DnsServer() {
  host_.udp().unbind(port_);
  host_.sockets().close(socket_);
}

void DnsServer::add_a(const std::string& name, std::uint32_t ip,
                      std::uint32_t ttl) {
  const std::string key = normalize_name(name);
  zone_[key].records.push_back(ResourceRecord::a(key, ip, ttl));
}

void DnsServer::add_cname(const std::string& name, const std::string& target,
                          std::uint32_t ttl) {
  const std::string key = normalize_name(name);
  zone_[key].records.push_back(
      ResourceRecord::cname(key, normalize_name(target), ttl));
}

std::size_t DnsServer::poll() {
  std::size_t handled = 0;
  while (auto dgram = host_.sockets().read_datagram(socket_)) {
    ++handled;
    ++stats_.queries;
    const auto query = decode(dgram->payload);
    if (!query.has_value() || query->is_response ||
        query->questions.empty()) {
      ++stats_.malformed;
      continue;
    }
    answer(*query, dgram->from_ip, dgram->from_port);
  }
  return handled;
}

void DnsServer::answer(const DnsMessage& query, std::uint32_t to_ip,
                       std::uint16_t to_port) {
  DnsMessage response = DnsMessage::response_to(query);
  response.authoritative = true;

  // Resolve the (first) question, chasing CNAMEs inside the zone.
  std::string name = query.questions.front().name;
  const RType want = query.questions.front().type;
  bool found = false;
  for (int depth = 0; depth < 8; ++depth) {
    const auto it = zone_.find(name);
    if (it == zone_.end()) break;
    bool chased = false;
    for (const ResourceRecord& rr : it->second.records) {
      if (rr.type == want) {
        response.answers.push_back(rr);
        found = true;
      } else if (rr.type == RType::kCname) {
        response.answers.push_back(rr);
        found = true;  // a terminal CNAME is a positive answer
        if (const auto target = rr.target_name()) {
          name = *target;
          chased = true;
        }
      }
    }
    if (!chased) break;
  }

  if (!found && response.answers.empty()) {
    response.rcode = Rcode::kNxDomain;
    ++stats_.nxdomain;
  } else {
    ++stats_.answered;
  }
  const auto bytes = encode(response);
  if (!bytes.empty()) host_.udp().send(port_, to_ip, to_port, bytes);
}

// ---- DnsResolver -----------------------------------------------------------

DnsResolver::DnsResolver(stack::Host& host, Config config)
    : host_(host), cfg_(config) {
  LDLP_ASSERT(cfg_.server_ip != 0);
  socket_ = host_.sockets().create(stack::SocketKind::kDatagram, 64 * 1024);
  const bool bound = host_.udp().bind(cfg_.local_port, socket_);
  LDLP_ASSERT_MSG(bound, "resolver port already bound");
  next_due_ = std::numeric_limits<double>::infinity();
}

DnsResolver::~DnsResolver() {
  if (wake_ != time::kNoTimer) host_.wheel().cancel(wake_);
  host_.udp().unbind(cfg_.local_port);
  host_.sockets().close(socket_);
}

void DnsResolver::resolve(const std::string& raw_name, Callback cb) {
  const std::string name = normalize_name(raw_name);
  ++stats_.lookups;

  const auto cached = cache_.find(name);
  if (cached != cache_.end() && cached->second.expires_at > host_.now()) {
    if (cached->second.address.has_value()) {
      ++stats_.cache_hits;
    } else {
      ++stats_.negative_hits;
    }
    cb(name, cached->second.address);
    return;
  }

  auto [it, fresh] = inflight_.try_emplace(name);
  Inflight& inflight = it->second;
  inflight.name = name;
  inflight.callbacks.push_back(std::move(cb));
  if (!fresh) return;  // coalesced onto the outstanding query

  inflight.txid = next_txid_++;
  if (next_txid_ == 0) next_txid_ = 1;
  inflight.tries = 0;
  send_query(inflight);
  sync_wheel();
}

void DnsResolver::send_query(Inflight& inflight) {
  ++stats_.queries_sent;
  ++inflight.tries;
  // Capped exponential backoff: retry_sec, 2x, 4x, ... up to retry_max_sec.
  double timeout = cfg_.retry_sec;
  for (std::uint32_t i = 1; i < inflight.tries && timeout < cfg_.retry_max_sec;
       ++i)
    timeout *= 2.0;
  timeout = std::min(timeout, cfg_.retry_max_sec);
  inflight.deadline = host_.now() + timeout;
  const auto bytes = encode(DnsMessage::query(inflight.txid, inflight.name));
  host_.udp().send(cfg_.local_port, cfg_.server_ip, cfg_.server_port, bytes);
}

void DnsResolver::complete(const std::string& name,
                           std::optional<std::uint32_t> addr,
                           double ttl_sec) {
  cache_[name] = CacheEntry{addr, host_.now() + ttl_sec};
  const auto it = inflight_.find(name);
  if (it == inflight_.end()) return;
  std::vector<Callback> callbacks = std::move(it->second.callbacks);
  inflight_.erase(it);
  for (Callback& cb : callbacks) cb(name, addr);
}

void DnsResolver::sync_wheel() {
  double due = std::numeric_limits<double>::infinity();
  for (const auto& [name, inflight] : inflight_)
    due = std::min(due, inflight.deadline);
  next_due_ = due;
  wake_ = host_.wheel().rearm(wake_, due, time::TimerClass::kLiveness, [] {});
}

void DnsResolver::poll() {
  // Nothing arrived and nothing is due: skip the drain and the scan.
  if (host_.now() < next_due_ &&
      host_.sockets().pending_datagrams(socket_) == 0)
    return;

  // Responses.
  while (auto dgram = host_.sockets().read_datagram(socket_)) {
    const auto response = decode(dgram->payload);
    if (!response.has_value() || !response->is_response ||
        response->questions.empty())
      continue;
    const std::string name = response->questions.front().name;
    const auto it = inflight_.find(name);
    if (it == inflight_.end() || it->second.txid != response->id)
      continue;  // stale or spoofed txid

    if (response->rcode == Rcode::kNxDomain) {
      ++stats_.failures;
      complete(name, std::nullopt, cfg_.negative_ttl);
      continue;
    }
    // Follow the CNAME chain within the answer section to an A record.
    std::string current = name;
    std::optional<std::uint32_t> addr;
    double ttl = 300.0;
    for (int depth = 0; depth < 8 && !addr.has_value(); ++depth) {
      bool advanced = false;
      for (const ResourceRecord& rr : response->answers) {
        if (rr.name != current) continue;
        if (const auto a = rr.a_addr()) {
          addr = a;
          ttl = rr.ttl;
          break;
        }
        if (const auto target = rr.target_name()) {
          current = *target;
          advanced = true;
          break;
        }
      }
      if (!advanced && !addr.has_value()) break;
    }
    if (addr.has_value()) {
      ++stats_.answers;
      complete(name, addr, ttl);
    } else {
      ++stats_.failures;
      complete(name, std::nullopt, cfg_.negative_ttl);
    }
  }

  // Retries.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Inflight& inflight = it->second;
    if (host_.now() < inflight.deadline) {
      ++it;
      continue;
    }
    if (inflight.tries > cfg_.max_retries) {
      ++stats_.failures;
      ++stats_.exhaustions_cached;
      std::vector<Callback> callbacks = std::move(inflight.callbacks);
      const std::string name = inflight.name;
      it = inflight_.erase(it);
      // Remember the unreachable name briefly so a retry storm can't
      // hammer a dead path; the cache is written before the callbacks
      // fire so a re-entrant resolve() is absorbed by it.
      const auto prev = cache_.find(name);
      const double last = prev == cache_.end() ? 0.0 : prev->second.backoff;
      const double ttl = last <= 0.0
                             ? cfg_.failure_ttl
                             : std::min(last * 2.0, cfg_.failure_ttl_max);
      cache_[name] = CacheEntry{std::nullopt, host_.now() + ttl, ttl};
      for (Callback& cb : callbacks) cb(name, std::nullopt);
      continue;
    }
    ++stats_.retries;
    send_query(inflight);
    ++it;
  }
  sync_wheel();
}

}  // namespace ldlp::dns
