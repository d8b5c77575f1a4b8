// ldlp::par — flow steering, multi-queue receive, the worker pool, and
// the sharded LDLP engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "par/shard_engine.hpp"
#include "par/worker_pool.hpp"
#include "sim/machine.hpp"
#include "stack/host_pair.hpp"
#include "stack/netdev.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4.hpp"
#include "wire/udp.hpp"

namespace {

using namespace ldlp;

stack::FlowKey make_key(std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t dst_ip, std::uint16_t dst_port,
                        std::uint8_t proto = 17) {
  stack::FlowKey key;
  key.src_ip = src_ip;
  key.dst_ip = dst_ip;
  key.src_port = src_port;
  key.dst_port = dst_port;
  key.proto = proto;
  return key;
}

/// Eth + IPv4 + UDP frame carrying `payload_len` zero bytes.
std::vector<std::uint8_t> make_udp_frame(const wire::MacAddr& dst_mac,
                                         const stack::FlowKey& flow,
                                         std::size_t payload_len = 18,
                                         std::uint16_t frag_offset = 0) {
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen +
                                  wire::kIpMinHeaderLen +
                                  wire::kUdpHeaderLen + payload_len);
  wire::EthHeader eth;
  eth.dst = dst_mac;
  eth.src = {2, 0, 0, 0, 0, 9};
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  std::size_t at = wire::write_eth(eth, frame);
  wire::Ipv4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - wire::kEthHeaderLen);
  ip.protocol = flow.proto;
  ip.frag_offset = frag_offset;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  at += wire::write_ipv4(ip, std::span(frame).subspan(at));
  wire::UdpHeader udp;
  udp.src_port = flow.src_port;
  udp.dst_port = flow.dst_port;
  udp.length = static_cast<std::uint16_t>(wire::kUdpHeaderLen + payload_len);
  wire::write_udp(udp, std::span(frame).subspan(at));
  return frame;
}

TEST(FlowHash, StableAcrossInstancesAndCalls) {
  const stack::FlowHash a;
  const stack::FlowHash b;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto key = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    const std::uint32_t h = a(key);
    EXPECT_EQ(h, a(key)) << "same instance, same key";
    EXPECT_EQ(h, b(key)) << "fresh instance, default seed";
  }
}

TEST(FlowHash, SeedChangesTheMapping) {
  const stack::FlowHash a;
  const stack::FlowHash b(false, 0x1234'5678'9abc'def0ULL);
  int diff = 0;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto key = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    if (a(key) != b(key)) ++diff;
  }
  EXPECT_GT(diff, 32);
}

TEST(FlowHash, SymmetricModeCoSteersBothDirections) {
  const stack::FlowHash sym(true);
  const stack::FlowHash plain(false);
  int asym_diff = 0;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto fwd = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    const auto rev = make_key(fwd.dst_ip, fwd.dst_port, fwd.src_ip,
                              fwd.src_port);
    EXPECT_EQ(sym(fwd), sym(rev));
    if (plain(fwd) != plain(rev)) ++asym_diff;
  }
  // Plain Toeplitz is direction-sensitive; that is why symmetric mode
  // exists at all.
  EXPECT_GT(asym_diff, 0);
}

TEST(FlowHash, DistributionHasNoHotShard) {
  const stack::FlowHash hash;
  for (const std::size_t queues : {2u, 4u, 8u}) {
    std::vector<std::uint32_t> counts(queues, 0);
    const std::uint32_t flows = 512;
    for (std::uint32_t f = 0; f < flows; ++f) {
      const auto key =
          make_key(0x0a000000u + f * 7u + 1, 1024 + f, 0x0a00ffffu, 53);
      ++counts[hash(key) % queues];
    }
    const double fair = static_cast<double>(flows) / queues;
    for (std::size_t q = 0; q < queues; ++q) {
      EXPECT_LT(counts[q], 2.0 * fair)
          << queues << " queues, queue " << q;
      EXPECT_GT(counts[q], 0u);
    }
  }
}

TEST(FlowHash, ClassifyExtractsTheTuple) {
  const wire::MacAddr mac{2, 0, 0, 0, 0, 1};
  const auto flow = make_key(0x0a000001u, 4242, 0x0a000002u, 53);
  const auto frame = make_udp_frame(mac, flow);
  const auto key = stack::FlowHash::classify(frame);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, flow);
}

TEST(FlowHash, ClassifyRejectsNonIp) {
  std::vector<std::uint8_t> arp(60, 0);
  wire::EthHeader eth;
  eth.dst = wire::kBroadcastMac;
  eth.src = {2, 0, 0, 0, 0, 9};
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kArp);
  wire::write_eth(eth, arp);
  EXPECT_FALSE(stack::FlowHash::classify(arp).has_value());
  EXPECT_FALSE(stack::FlowHash::classify({}).has_value());
}

TEST(FlowHash, ClassifyFragmentFallsBackToAddresses) {
  const wire::MacAddr mac{2, 0, 0, 0, 0, 1};
  const auto flow = make_key(0x0a000001u, 4242, 0x0a000002u, 53);
  // A non-first fragment has no transport header; steering must use the
  // address pair only, and do so for every fragment of the datagram.
  const auto frag = make_udp_frame(mac, flow, 18, /*frag_offset=*/3);
  const auto key = stack::FlowHash::classify(frag);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->src_ip, flow.src_ip);
  EXPECT_EQ(key->dst_ip, flow.dst_ip);
  EXPECT_EQ(key->src_port, 0);
  EXPECT_EQ(key->dst_port, 0);
}

TEST(NetDevice, SteersEachFlowToOneQueue) {
  buf::MbufPool pool(512, 128);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  dev.set_rx_queues(4);
  ASSERT_EQ(dev.rx_queue_count(), 4u);

  std::map<std::size_t, std::uint32_t> per_queue;
  for (std::uint32_t f = 0; f < 6; ++f) {
    const auto flow =
        make_key(0x0a000001u + f, 20000 + f, 0x0a00ffffu, 53);
    const auto frame = make_udp_frame(dev.mac(), flow);
    const std::size_t queue = dev.steer(frame);
    ASSERT_LT(queue, 4u);
    for (int copy = 0; copy < 3; ++copy) {
      EXPECT_EQ(dev.steer(frame), queue) << "steering must be stable";
      dev.inject(frame);
      per_queue[queue] += 1;
    }
  }
  std::size_t pending = 0;
  for (const auto& [queue, count] : per_queue) {
    EXPECT_EQ(dev.rx_pending(queue), count);
    pending += count;
  }
  EXPECT_EQ(dev.rx_pending(), pending);

  std::size_t drained = 0;
  while (true) {
    buf::Packet pkt = dev.receive();
    if (pkt.empty()) break;
    ++drained;
  }
  EXPECT_EQ(drained, 18u);
  EXPECT_EQ(dev.rx_pending(), 0u);
}

TEST(NetDevice, ReconfigureResteersBufferedFrames) {
  buf::MbufPool pool(512, 128);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  for (std::uint32_t f = 0; f < 8; ++f) {
    const auto flow = make_key(0x0a000001u + f, 30000 + f, 0x0a00ffffu, 53);
    dev.inject(make_udp_frame(dev.mac(), flow));
  }
  ASSERT_EQ(dev.rx_pending(), 8u);
  dev.set_rx_queues(4);
  EXPECT_EQ(dev.rx_pending(), 8u) << "no frame may be lost on reconfigure";
  dev.set_rx_queues(1);
  EXPECT_EQ(dev.rx_pending(), 8u);
  std::size_t drained = 0;
  while (!dev.receive().empty()) ++drained;
  EXPECT_EQ(drained, 8u);
}

TEST(WorkerPool, ResultsLandInJobIndexedSlots) {
  std::vector<std::uint64_t> serial(64, 0);
  std::vector<std::uint64_t> parallel(64, 0);
  par::WorkerPool one(1);
  one.run(serial.size(), [&](std::size_t job, par::WorkerContext&) {
    serial[job] = job * job + 1;
  });
  par::WorkerPool four(4);
  four.run(parallel.size(), [&](std::size_t job, par::WorkerContext&) {
    parallel[job] = job * job + 1;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(WorkerPool, MergesWorkerRegistriesDeterministically) {
  auto run_with = [](std::size_t workers) {
    par::WorkerPool pool(workers);
    pool.run(32, [](std::size_t job, par::WorkerContext& ctx) {
      ctx.registry->counter("par.t.jobs").add(1);
      ctx.registry->histogram("par.t.cost_sec")
          .add(1e-6 * static_cast<double>(job + 1));
    });
    obs::Registry reg;
    pool.publish(reg);
    pool.merge_registries(reg);
    return reg.snapshot();
  };
  const obs::Snapshot serial = run_with(1);
  const obs::Snapshot threaded = run_with(4);
  EXPECT_EQ(serial.value("par.t.jobs"), 32.0);
  EXPECT_EQ(threaded.value("par.t.jobs"), 32.0);
  const auto* sh = serial.find("par.t.cost_sec");
  const auto* th = threaded.find("par.t.cost_sec");
  ASSERT_NE(sh, nullptr);
  ASSERT_NE(th, nullptr);
  // Exact: job-order merging makes the floating-point sum the serial one.
  EXPECT_EQ(sh->value, th->value);
  EXPECT_EQ(sh->mean, th->mean);
  EXPECT_EQ(sh->max, th->max);
  EXPECT_EQ(threaded.value("par.pool.jobs"), 32.0);
}

TEST(WorkerPool, PropagatesTheFirstException) {
  par::WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(16,
               [](std::size_t job, par::WorkerContext&) {
                 if (job == 7) throw std::runtime_error("job 7 failed");
               }),
      std::runtime_error);
}

TEST(ShardedRx, RunsAreBitIdentical) {
  par::ShardedRx rx;
  rx.shards = 4;
  rx.messages = 2000;
  const sim::Summary a = par::run(rx);
  const sim::Summary b = par::run(rx);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
  ASSERT_EQ(a.contexts.size(), b.contexts.size());
  for (std::size_t s = 0; s < a.contexts.size(); ++s) {
    EXPECT_EQ(a.contexts[s].messages, b.contexts[s].messages);
    EXPECT_EQ(a.contexts[s].i_misses, b.contexts[s].i_misses);
  }
}

TEST(ShardedRx, ConservesMessagesAcrossShards) {
  par::ShardedRx rx;
  rx.shards = 8;
  rx.messages = 4000;
  const sim::Summary r = par::run(rx);
  std::uint64_t total = 0;
  for (const sim::Load& s : r.contexts) total += s.messages;
  EXPECT_EQ(total, rx.messages);
  EXPECT_GE(par::max_shard_share(r), 1.0);
  EXPECT_LT(par::max_shard_share(r), 2.0) << "Toeplitz skew out of bounds";
}

TEST(ShardedRx, CoalescingRefillsBatches) {
  par::ShardedRx rx;
  rx.shards = 4;
  rx.messages = 4000;
  rx.arrival_rate_hz = 16000.0;
  sim::Machine coalesced;
  coalesced.coalesce = 750e-6;
  const sim::Summary p = par::run(rx);
  const sim::Summary c = par::run(rx, coalesced);
  EXPECT_GT(c.mean_batch, p.mean_batch);
  EXPECT_LT(c.i_miss_per_msg, p.i_miss_per_msg);
}

/// End to end: a TCP connection through a Host whose device runs two RX
/// queues. The handshake and data segments of one flow must all land on
/// the same shard, so the stack behaves exactly as with one queue.
TEST(HostMultiQueue, TcpDataFlowsThroughShardedReceive) {
  stack::HostPair net(
      {.name = "tx"},
      {.name = "rx", .mode = core::SchedMode::kLdlp, .rx_queues = 2});
  stack::Host& tx = net.a;
  stack::Host& rx = net.b;
  ASSERT_EQ(rx.device().rx_queue_count(), 2u);

  (void)rx.tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  rx.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = tx.tcp().connect(rx.ip().ip_addr(), 80);
  net.settle(8);
  ASSERT_EQ(tx.tcp().state(conn), stack::TcpState::kEstablished);
  ASSERT_NE(accepted, stack::kNoPcb);

  const std::vector<std::uint8_t> payload(256, 0x7e);
  ASSERT_TRUE(tx.tcp().send(conn, payload));
  for (int i = 0; i < 4; ++i) {
    rx.pump();
    tx.pump();
  }
  std::vector<std::uint8_t> sink(payload.size());
  const stack::SocketId socket = rx.tcp().socket_of(accepted);
  EXPECT_EQ(rx.sockets().read(socket, sink), payload.size());
  EXPECT_EQ(sink, payload);
}

}  // namespace
