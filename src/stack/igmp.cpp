#include "stack/igmp.hpp"

#include "common/byteorder.hpp"
#include "stack/ip_layer.hpp"
#include "wire/checksum.hpp"

namespace ldlp::stack {

namespace {
constexpr double kUnsolicitedIntervalSec = 10.0;
constexpr std::uint32_t kUnsolicitedReports = 2;
}  // namespace

std::optional<IgmpMessage> parse_igmp(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < kIgmpLen) return std::nullopt;
  if (wire::cksum_simple(data.subspan(0, kIgmpLen)) != 0) return std::nullopt;
  IgmpMessage msg;
  msg.type = static_cast<IgmpType>(data[0]);
  switch (msg.type) {
    case IgmpType::kQuery:
    case IgmpType::kReportV1:
    case IgmpType::kReportV2:
    case IgmpType::kLeave:
      break;
    default:
      return std::nullopt;
  }
  msg.max_resp_deciseconds = data[1];
  msg.group = load_be32(data.data() + 4);
  return msg;
}

std::size_t write_igmp(const IgmpMessage& msg,
                       std::span<std::uint8_t> out) noexcept {
  if (out.size() < kIgmpLen) return 0;
  out[0] = static_cast<std::uint8_t>(msg.type);
  out[1] = msg.max_resp_deciseconds;
  out[2] = out[3] = 0;
  store_be32(out.data() + 4, msg.group);
  const std::uint16_t sum = wire::cksum_simple(out.subspan(0, kIgmpLen));
  store_be16(out.data() + 2, sum);
  return kIgmpLen;
}

IgmpHost::IgmpHost(Ip4Layer& ip, const double* now_sec,
                   time::TimerWheel& wheel, std::uint64_t seed)
    : ip_(ip), now_sec_(now_sec), wheel_(wheel), rng_(seed) {}

bool IgmpHost::is_member(std::uint32_t group) const noexcept {
  return groups_.count(group) != 0;
}

void IgmpHost::send_report(std::uint32_t group) {
  ++stats_.reports_sent;
  buf::Packet pkt = buf::Packet::make(ip_.pool());
  if (!pkt) return;
  std::uint8_t bytes[kIgmpLen];
  IgmpMessage msg;
  msg.type = IgmpType::kReportV2;
  msg.max_resp_deciseconds = 0;
  msg.group = group;
  (void)write_igmp(msg, bytes);
  if (!pkt.append(bytes)) return;
  // Reports go to the group itself, TTL 1.
  ip_.output(std::move(pkt), group, wire::IpProto::kIgmp, 1);
}

void IgmpHost::send_leave(std::uint32_t group) {
  ++stats_.leaves_sent;
  buf::Packet pkt = buf::Packet::make(ip_.pool());
  if (!pkt) return;
  std::uint8_t bytes[kIgmpLen];
  IgmpMessage msg;
  msg.type = IgmpType::kLeave;
  msg.max_resp_deciseconds = 0;
  msg.group = group;
  (void)write_igmp(msg, bytes);
  if (!pkt.append(bytes)) return;
  // Leaves go to the all-routers group; all-hosts serves here.
  ip_.output(std::move(pkt), kAllHostsGroup, wire::IpProto::kIgmp, 1);
}

void IgmpHost::arm_report(std::uint32_t group, Membership& membership,
                          double at) {
  wheel_.cancel(membership.report);
  membership.report_at = at;
  membership.report = wheel_.arm(at, time::TimerClass::kCadence,
                                 [this, group] { fire_report(group); });
}

void IgmpHost::fire_report(std::uint32_t group) {
  Membership& membership = groups_.at(group);  // leave() cancels the timer
  membership.we_reported_last = true;
  send_report(group);
  if (membership.unsolicited_left > 0 && --membership.unsolicited_left > 0)
    arm_report(group, membership,
               now() + rng_.uniform(0.0, kUnsolicitedIntervalSec));
}

void IgmpHost::join(std::uint32_t group) {
  if (!is_multicast(group) || is_member(group)) return;
  Membership& membership = groups_[group];
  membership.we_reported_last = true;
  membership.unsolicited_left = kUnsolicitedReports - 1;
  const double at = now() + rng_.uniform(0.0, kUnsolicitedIntervalSec);
  if (membership.unsolicited_left > 0) arm_report(group, membership, at);
  send_report(group);  // first unsolicited report goes out immediately
}

void IgmpHost::leave(std::uint32_t group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  if (it->second.we_reported_last) send_leave(group);
  wheel_.cancel(it->second.report);
  groups_.erase(it);
}

void IgmpHost::on_message(const IgmpMessage& msg, std::uint32_t from_ip) {
  (void)from_ip;
  switch (msg.type) {
    case IgmpType::kQuery: {
      ++stats_.queries_heard;
      const double max_resp =
          std::max<std::uint8_t>(msg.max_resp_deciseconds, 1) / 10.0;
      for (auto& [group, membership] : groups_) {
        if (msg.group != 0 && msg.group != group) continue;  // targeted
        const double deadline = now() + rng_.uniform(0.0, max_resp);
        if (!wheel_.armed(membership.report) ||
            deadline < membership.report_at)
          arm_report(group, membership, deadline);
      }
      break;
    }
    case IgmpType::kReportV1:
    case IgmpType::kReportV2: {
      ++stats_.reports_heard;
      const auto it = groups_.find(msg.group);
      if (it != groups_.end() && wheel_.cancel(it->second.report)) {
        // Someone else answered for the group: suppress ours.
        it->second.we_reported_last = false;
        ++stats_.suppressed;
      }
      break;
    }
    case IgmpType::kLeave:
      break;  // router business; hosts ignore
  }
}

}  // namespace ldlp::stack
