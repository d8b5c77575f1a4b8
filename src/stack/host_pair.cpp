#include "stack/host_pair.hpp"

#include <utility>

#include "wire/ipv4.hpp"

namespace ldlp::stack {

namespace {

HostConfig addressed(HostConfig config, std::uint8_t n) {
  config.mac = {0x02, 0, 0, 0, 0, n};
  config.ip = wire::ip_from_parts(10, 0, 0, n);
  return config;
}

}  // namespace

HostPair::HostPair(HostConfig a_config, HostConfig b_config)
    : a(addressed(std::move(a_config), 1)),
      b(addressed(std::move(b_config), 2)) {
  NetDevice::connect(a.device(), b.device());
}

void HostPair::settle(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    a.pump();
    b.pump();
  }
}

void HostPair::tick(double dt_sec, int rounds) {
  a.advance(dt_sec);
  b.advance(dt_sec);
  settle(rounds);
}

}  // namespace ldlp::stack
