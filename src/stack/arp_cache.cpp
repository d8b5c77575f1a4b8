#include "stack/arp_cache.hpp"

#include <algorithm>
#include <limits>

namespace ldlp::stack {

std::optional<wire::MacAddr> ArpCache::lookup(std::uint32_t ip) const noexcept {
  const auto it = table_.find(ip);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

void ArpCache::insert(std::uint32_t ip, const wire::MacAddr& mac) {
  table_[ip] = mac;
}

bool ArpCache::hold(std::uint32_t ip, buf::Packet pkt) {
  PendingState& state = pending_[ip];
  if (state.packets.size() >= max_pending_ ||
      pending_total_ >= max_pending_total_) {
    ++stats_.park_drops;
    return false;
  }
  state.packets.push_back(std::move(pkt));
  ++pending_total_;
  ++stats_.parked;
  return true;
}

bool ArpCache::should_request(std::uint32_t ip) {
  PendingState& state = pending_[ip];
  ++state.parks;
  if (state.parks < state.next_request) {
    ++stats_.requests_suppressed;
    return false;
  }
  state.next_request = state.parks + state.gap;
  state.gap = std::min(state.gap * 2, kMaxRequestGap);
  ++stats_.requests_allowed;
  return true;
}

bool ArpCache::audit(std::string* why) const {
  std::size_t counted = 0;
  for (const auto& [ip, state] : pending_) {
    counted += state.packets.size();
    if (state.packets.size() > max_pending_) {
      if (why != nullptr)
        *why = "per-IP pending queue exceeds cap (" +
               std::to_string(state.packets.size()) + " > " +
               std::to_string(max_pending_) + ")";
      return false;
    }
    if (!state.packets.empty() && table_.count(ip) != 0) {
      if (why != nullptr)
        *why = "IP has parked packets while already resolved";
      return false;
    }
  }
  if (counted != pending_total_) {
    if (why != nullptr)
      *why = "pending_total accounting drift (" + std::to_string(counted) +
             " queued vs " + std::to_string(pending_total_) + " counted)";
    return false;
  }
  if (pending_total_ > max_pending_total_) {
    if (why != nullptr)
      *why = "global pending count exceeds cap";
    return false;
  }
  return true;
}

std::vector<std::uint32_t> ArpCache::poll_retries(double now) {
  std::vector<std::uint32_t> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingState& state = it->second;
    if (state.packets.empty()) {
      ++it;
      continue;
    }
    if (now < state.retry_deadline) {
      ++it;
      continue;
    }
    if (state.tries >= kMaxTries) {
      ++stats_.resolve_failures;
      pending_total_ -= state.packets.size();
      it = pending_.erase(it);  // frees the parked packets
      continue;
    }
    ++state.tries;
    ++stats_.retries;
    state.retry_gap_sec = std::min(state.retry_gap_sec * 2.0, kMaxRetryGapSec);
    state.retry_deadline = now + state.retry_gap_sec;
    due.push_back(it->first);
    ++it;
  }
  return due;
}

void ArpCache::arm_retry(std::uint32_t ip, double now) {
  const auto it = pending_.find(ip);
  if (it == pending_.end()) return;
  PendingState& state = it->second;
  if (state.packets.empty() || state.retry_deadline != 0.0) return;
  state.retry_deadline = now + state.retry_gap_sec;
}

double ArpCache::next_retry_deadline() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [ip, state] : pending_) {
    if (state.packets.empty() || state.retry_deadline == 0.0) continue;
    best = std::min(best, state.retry_deadline);
  }
  return best;
}

std::vector<buf::Packet> ArpCache::take_pending(std::uint32_t ip) {
  const auto it = pending_.find(ip);
  if (it == pending_.end()) return {};
  std::vector<buf::Packet> out = std::move(it->second.packets);
  pending_.erase(it);
  pending_total_ -= out.size();
  return out;
}

}  // namespace ldlp::stack
