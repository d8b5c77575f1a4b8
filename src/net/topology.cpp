#include "net/topology.hpp"

#include <string>

#include "common/assert.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::net {

std::uint32_t host_ip(std::uint32_t index) noexcept {
  // 200 hosts per third octet keeps clear of .0 and .255 forever.
  return wire::ip_from_parts(10, 0, static_cast<std::uint8_t>(index / 200),
                             static_cast<std::uint8_t>(1 + index % 200));
}

stack::HostConfig host_identity(stack::HostConfig proto,
                                std::uint32_t index) {
  // Inserting the prefix character, rather than "h" + ..., sidesteps a
  // GCC 12 -Wrestrict false positive in Release builds.
  proto.name = std::to_string(index);
  proto.name.insert(proto.name.begin(), 'h');
  proto.mac = wire::MacAddr{0x02, 0x00, 0x00, 0x00,
                            static_cast<std::uint8_t>(index >> 8),
                            static_cast<std::uint8_t>(index)};
  proto.ip = host_ip(index);
  return proto;
}

std::vector<HostId> build_star(Fabric& fabric, const StarConfig& config) {
  LDLP_ASSERT_MSG(config.hosts >= 2, "a star needs at least two hosts");
  const SwitchId sw = fabric.add_switch("sw0", /*rack=*/0, /*site=*/0);
  std::vector<HostId> hosts;
  hosts.reserve(config.hosts);
  for (std::size_t i = 0; i < config.hosts; ++i) {
    const HostId h = fabric.add_host(
        host_identity(config.proto, static_cast<std::uint32_t>(i)));
    fabric.link(PortRef::host(h), PortRef::sw(sw), config.access);
    hosts.push_back(h);
  }
  return hosts;
}

std::vector<HostId> build_fat_tree(Fabric& fabric,
                                   const FatTreeConfig& config) {
  LDLP_ASSERT_MSG(config.racks >= 1 && config.hosts_per_rack >= 1 &&
                      config.spines >= 1,
                  "degenerate fat-tree");
  std::vector<SwitchId> spines;
  spines.reserve(config.spines);
  for (std::size_t s = 0; s < config.spines; ++s) {
    spines.push_back(fabric.add_switch("spine" + std::to_string(s),
                                       /*rack=*/-1, /*site=*/0, /*tier=*/1));
  }
  std::vector<HostId> hosts;
  hosts.reserve(config.racks * config.hosts_per_rack);
  for (std::size_t r = 0; r < config.racks; ++r) {
    const SwitchId leaf =
        fabric.add_switch("leaf" + std::to_string(r),
                          static_cast<int>(r), /*site=*/0, /*tier=*/0);
    for (std::size_t i = 0; i < config.hosts_per_rack; ++i) {
      const std::uint32_t index =
          static_cast<std::uint32_t>(r * config.hosts_per_rack + i);
      const HostId h = fabric.add_host(host_identity(config.proto, index));
      fabric.link(PortRef::host(h), PortRef::sw(leaf), config.access);
      hosts.push_back(h);
    }
    for (const SwitchId spine : spines)
      fabric.link(PortRef::sw(leaf), PortRef::sw(spine), config.trunk);
  }
  return hosts;
}

std::vector<HostId> build_wan_pair(Fabric& fabric,
                                   const WanPairConfig& config) {
  LDLP_ASSERT_MSG(config.hosts_per_site >= 1, "empty site");
  std::vector<HostId> hosts;
  hosts.reserve(2 * config.hosts_per_site);
  SwitchId site_sw[2];
  for (int site = 0; site < 2; ++site) {
    site_sw[site] = fabric.add_switch("site" + std::to_string(site),
                                      /*rack=*/site, site, /*tier=*/0);
    for (std::size_t i = 0; i < config.hosts_per_site; ++i) {
      const std::uint32_t index = static_cast<std::uint32_t>(
          static_cast<std::size_t>(site) * config.hosts_per_site + i);
      const HostId h = fabric.add_host(host_identity(config.proto, index));
      fabric.link(PortRef::host(h), PortRef::sw(site_sw[site]),
                  config.access);
      hosts.push_back(h);
    }
  }
  // Equal tiers: the WAN link is an "uplink" on both sides, so a frame
  // that crossed it never crosses back — no loop with one cross link,
  // and site-local broadcast stays site-local plus one WAN copy.
  fabric.link(PortRef::sw(site_sw[0]), PortRef::sw(site_sw[1]), config.wan);
  return hosts;
}

}  // namespace ldlp::net
