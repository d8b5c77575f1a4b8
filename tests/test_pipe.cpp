// Tests for ldlp::pipe — the staged receive path (parse -> steer ->
// proto -> socket) and the stage-level cache/latency engine behind
// fig_pipeline.
//
// The properties pinned here are the ones the design note promises:
//  * per-flow FIFO through the stages, even when the wire reorders and
//    duplicates frames — the staged path must deliver exactly what the
//    layer-blocked baseline delivers;
//  * bounded stage queues conserve frames (offered = enqueued + drops,
//    enqueued = handed_off + queue_len) and drop, never block;
//  * the three schedules (ldlp / pipelined / hybrid) are byte-identical
//    end to end on a real TCP transfer;
//  * the parse stage's parallel classification is bit-identical for any
//    WorkerPool size;
//  * the wide checksum is the same function as the scalar ones;
//  * the stage engine is deterministic and shows the two-sided
//    i-miss/d-miss separation the figure argues from.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check_testing.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "pipe/pipeline.hpp"
#include "pipe/stage_engine.hpp"
#include "sim/machine.hpp"
#include "stack/host_pair.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"
#include "wire/checksum.hpp"

namespace ldlp {
namespace {

using wire::ip_from_parts;

/// a ("tx") sends to b ("rx"), which runs under LDLP because StagedRx
/// schedules its graph.
const stack::HostConfig kTx{.name = "tx"};
const stack::HostConfig kRx{.name = "rx", .mode = core::SchedMode::kLdlp};
const std::uint32_t kRxIp = ip_from_parts(10, 0, 0, 2);

// Flow f sends datagrams from port 9001+f; payload byte 0 is the flow,
// byte 1 the sequence number. Every 7th send is duplicated at the source
// and the rx ring reorders adjacent frames — the adversarial wire.
constexpr int kFlows = 4;
constexpr int kRounds = 48;

/// One adversarial UDP run. `staged_mode` selects the StagedRx schedule;
/// nullptr runs the plain layer-blocked Host::pump baseline. Returns the
/// per-flow delivered sequence numbers, in delivery order.
std::map<int, std::vector<int>> adversarial_run(
    const pipe::RxMode* staged_mode, par::WorkerPool* pool = nullptr,
    pipe::StagedRx** staged_out = nullptr,
    std::unique_ptr<stack::HostPair>* keep = nullptr) {
  auto net = std::make_unique<stack::HostPair>(kTx, kRx);
  net->b.device().set_reorder(0.3, 0xdead);

  std::unique_ptr<pipe::StagedRx> staged;
  if (staged_mode != nullptr) {
    pipe::PipelineConfig pc;
    pc.mode = *staged_mode;
    pc.lanes = 2;
    pc.batch_limit = 4;
    staged = std::make_unique<pipe::StagedRx>(net->b, pc);
  }
  const auto pump_rx = [&] {
    if (staged)
      (void)staged->pump(SIZE_MAX, pool);
    else
      net->b.pump();
  };

  const stack::SocketId sock =
      net->b.sockets().create(stack::SocketKind::kDatagram);
  EXPECT_TRUE(net->b.udp().bind(9000, sock));

  // Resolve ARP before the measured flood so nothing parks.
  std::uint8_t warm[2] = {0xff, 0xff};
  net->a.udp().send(9001, kRxIp, 9000, warm);
  for (int i = 0; i < 6; ++i) {
    net->a.pump();
    pump_rx();
  }
  (void)net->b.sockets().read_datagram(sock);

  for (int r = 0; r < kRounds; ++r) {
    for (int f = 0; f < kFlows; ++f) {
      const std::uint8_t payload[2] = {static_cast<std::uint8_t>(f),
                                       static_cast<std::uint8_t>(r)};
      net->a.udp().send(static_cast<std::uint16_t>(9001 + f), kRxIp, 9000,
                        payload);
      if ((r + f) % 7 == 0)  // source-duplicated frame
        net->a.udp().send(static_cast<std::uint16_t>(9001 + f), kRxIp, 9000,
                          payload);
    }
    if (r % 4 == 3) {
      net->a.pump();
      pump_rx();
    }
  }
  for (int i = 0; i < 4; ++i) {
    net->a.pump();
    pump_rx();
  }

  std::map<int, std::vector<int>> delivered;
  while (auto dgram = net->b.sockets().read_datagram(sock)) {
    EXPECT_EQ(dgram->payload.size(), 2u) << "foreign datagram";
    delivered[dgram->payload[0]].push_back(dgram->payload[1]);
  }
  if (staged) {
    EXPECT_TRUE(staged->audit().empty());
  }
  if (staged_out != nullptr) *staged_out = staged.release();
  if (keep != nullptr) *keep = std::move(net);
  return delivered;
}

TEST(PerFlowOrder, AdversarialWireMatchesLayerBlockedBaseline) {
  const auto baseline = adversarial_run(nullptr);
  ASSERT_EQ(baseline.size(), static_cast<std::size_t>(kFlows));
  // The wire duplicates some frames, so each flow delivers > kRounds.
  for (const auto& [flow, seqs] : baseline)
    EXPECT_GT(seqs.size(), static_cast<std::size_t>(kRounds)) << flow;

  for (const pipe::RxMode mode :
       {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined, pipe::RxMode::kHybrid}) {
    const auto staged = adversarial_run(&mode);
    EXPECT_EQ(staged, baseline) << pipe::rx_mode_name(mode);
  }
}

TEST(Jobs, ParallelClassifyIsBitIdentical) {
  const pipe::RxMode mode = pipe::RxMode::kPipelined;
  par::WorkerPool one(1);
  par::WorkerPool four(4);
  const auto serial = adversarial_run(&mode, &one);
  const auto fanned = adversarial_run(&mode, &four);
  EXPECT_EQ(serial, fanned);
}

TEST(BoundedQueue, TinyCapsDropAndConserve) {
  stack::HostPair net(kTx, kRx);
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kPipelined;
  pc.lanes = 1;
  pc.stage_queue_cap = 4;
  pipe::StagedRx staged(net.b, pc);

  const stack::SocketId sock =
      net.b.sockets().create(stack::SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(9000, sock));
  std::uint8_t payload[8] = {};
  net.a.udp().send(9001, kRxIp, 9000, payload);
  for (int i = 0; i < 6; ++i) {
    net.a.pump();
    (void)staged.pump();
  }

  // A 64-frame burst against a 4-deep parse queue: the pull loop offers
  // every pending frame before the stages run, so most must drop there.
  for (int i = 0; i < 64; ++i)
    net.a.udp().send(9001, kRxIp, 9000, payload);
  net.a.pump();
  (void)staged.pump();

  const pipe::StageCounters parse = staged.counters(pipe::Stage::kParse);
  EXPECT_GT(parse.drops, 0u);
  EXPECT_EQ(parse.offered, parse.enqueued + parse.drops);
  EXPECT_EQ(parse.enqueued, parse.handed_off + parse.queue_len);
  EXPECT_LE(parse.high_water, pc.stage_queue_cap);
  EXPECT_TRUE(staged.audit().empty());

  // Dropped chains went back to the pool: nothing may leak.
  EXPECT_EQ(net.b.pool().stats().mbufs_outstanding(), 0u);
}

TEST(ThreeModes, TcpTransferByteIdentical) {
  const std::vector<std::uint8_t> chunk = [] {
    std::vector<std::uint8_t> out(700);
    Rng rng(0x7cb);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.bounded(256));
    return out;
  }();

  std::vector<std::uint8_t> first;
  for (const pipe::RxMode mode :
       {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined, pipe::RxMode::kHybrid}) {
    stack::HostPair net(kTx, kRx);
    pipe::PipelineConfig pc;
    pc.mode = mode;
    pc.lanes = 2;
    pc.batch_limit = 4;
    pipe::StagedRx staged(net.b, pc);

    (void)net.b.tcp().listen(80);
    stack::PcbId accepted = stack::kNoPcb;
    net.b.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
    const stack::PcbId conn = net.a.tcp().connect(kRxIp, 80);
    for (int i = 0; i < 8; ++i) {
      net.a.pump();
      (void)staged.pump();
    }
    ASSERT_EQ(net.a.tcp().state(conn), stack::TcpState::kEstablished)
        << pipe::rx_mode_name(mode);

    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> buf(4096);
    const stack::SocketId sock = net.b.tcp().socket_of(accepted);
    for (int seg = 0; seg < 8; ++seg) {
      ASSERT_TRUE(net.a.tcp().send(conn, chunk));
      net.a.pump();
      (void)staged.pump();
      const std::size_t n = net.b.sockets().read(sock, buf);
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
      net.a.pump();  // absorb the ACK
    }
    ASSERT_EQ(got.size(), chunk.size() * 8) << pipe::rx_mode_name(mode);
    EXPECT_TRUE(staged.audit().empty());
    if (first.empty())
      first = got;
    else
      EXPECT_EQ(got, first) << pipe::rx_mode_name(mode);
  }
  // And the bytes are the sender's, not merely mutually consistent.
  for (std::size_t i = 0; i < first.size(); ++i)
    ASSERT_EQ(first[i], chunk[i % chunk.size()]) << i;
}

TEST(Auditor, StageQueuesJoinTheHostAudit) {
  stack::HostPair net(kTx, kRx);
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kHybrid;
  pc.lanes = 2;
  pc.batch_limit = 4;
  pipe::StagedRx staged(net.b, pc);
  check::HostAuditor auditor(net.b, "rx");
  auditor.add_audit([&] { return staged.audit(); });
  auditor.install();

  const stack::SocketId sock =
      net.b.sockets().create(stack::SocketKind::kDatagram);
  ASSERT_TRUE(net.b.udp().bind(9000, sock));
  std::uint8_t payload[16] = {};
  for (int r = 0; r < 12; ++r) {
    net.a.udp().send(9001, kRxIp, 9000, payload);
    net.a.pump();
    (void)staged.pump();
  }
  auditor.on_pass();
  EXPECT_TRUE(clean(auditor));
  EXPECT_GT(auditor.stats().passes, 0u);
}

TEST(Publish, PerStageCountersLandInTheRegistry) {
  // TCP stream traffic, so the socket *layer* sees graph messages and the
  // socket stage's counters move (UDP hands datagrams to the socket layer
  // directly, bypassing its queue).
  stack::HostPair net(kTx, kRx);
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kPipelined;
  pc.lanes = 2;
  pipe::StagedRx staged(net.b, pc);

  (void)net.b.tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  net.b.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = net.a.tcp().connect(kRxIp, 80);
  for (int i = 0; i < 8; ++i) {
    net.a.pump();
    (void)staged.pump();
  }
  ASSERT_EQ(net.a.tcp().state(conn), stack::TcpState::kEstablished);
  const std::vector<std::uint8_t> payload(128, 0x5a);
  std::vector<std::uint8_t> sink(1024);
  const stack::SocketId sock = net.b.tcp().socket_of(accepted);
  for (int seg = 0; seg < 4; ++seg) {
    ASSERT_TRUE(net.a.tcp().send(conn, payload));
    net.a.pump();
    (void)staged.pump();
    (void)net.b.sockets().read(sock, sink);
    net.a.pump();
  }

  obs::Registry registry;
  staged.publish(registry);
  EXPECT_GT(registry.counter("pipe.parse.offered").value(), 0u);
  EXPECT_GT(registry.counter("pipe.steer.handed_off").value(), 0u);
  EXPECT_GT(registry.counter("pipe.proto.enqueued").value(), 0u);
  EXPECT_GT(registry.counter("pipe.socket.handed_off").value(), 0u);
  EXPECT_EQ(registry.counter("pipe.parse.drops").value(), 0u);
  EXPECT_EQ(registry.gauge("pipe.lanes").value(), 2.0);
}

// ---- The staged path on sim::Machine: the simulated three-way figure ---

std::vector<traffic::PacketArrival> short_trace(double rate) {
  traffic::SelfSimilarConfig tc;
  tc.mean_rate_per_sec = rate;
  tc.duration_sec = 0.25;
  const auto sizes = traffic::internet552_sizes();
  return traffic::generate_self_similar_trace(tc, *sizes, 0xf19);
}

sim::Summary engine_run(pipe::RxMode mode, double rate) {
  return pipe::machine(mode, 8).run(pipe::arrivals(short_trace(rate)));
}

TEST(StagedMachine, DeterministicAcrossRuns) {
  const auto a = engine_run(pipe::RxMode::kHybrid, 15000.0);
  const auto b = engine_run(pipe::RxMode::kHybrid, 15000.0);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
  EXPECT_DOUBLE_EQ(a.d_miss_per_msg, b.d_miss_per_msg);
  EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
}

TEST(StagedMachine, ConservesMessages) {
  for (const pipe::RxMode mode :
       {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined, pipe::RxMode::kHybrid}) {
    const auto r = engine_run(mode, 20000.0);
    EXPECT_EQ(r.offered, r.completed + r.dropped) << pipe::rx_mode_name(mode);
    EXPECT_GT(r.completed, 0u) << pipe::rx_mode_name(mode);
  }
}

TEST(StagedMachine, TwoSidedCacheSeparation) {
  const auto ldlp = engine_run(pipe::RxMode::kLdlp, 15000.0);
  const auto piped = engine_run(pipe::RxMode::kPipelined, 15000.0);
  // LDLP refetches the four stage bodies every batch; the pipelined
  // stages keep their own code resident.
  EXPECT_GT(ldlp.i_miss_per_msg, 10.0 * (piped.i_miss_per_msg + 1e-9));
  // The pipeline pulls every message into four private d-caches.
  EXPECT_GT(piped.d_miss_per_msg, 1.5 * ldlp.d_miss_per_msg);
  // Batching actually happened under LDLP.
  EXPECT_GT(ldlp.mean_batch, 1.5);
  EXPECT_DOUBLE_EQ(piped.mean_batch, 1.0);
}

TEST(StagedMachine, HybridAmortisesActivationsPastSaturation) {
  // Past the pipeline's bottleneck stage, per-message activations are
  // what breaks the pipelined schedule; the hybrid batches them away.
  const auto piped = engine_run(pipe::RxMode::kPipelined, 48000.0);
  const auto hybrid = engine_run(pipe::RxMode::kHybrid, 48000.0);
  EXPECT_GT(hybrid.mean_batch, 1.5);
  EXPECT_LT(hybrid.p99_latency, piped.p99_latency);
  EXPECT_LE(hybrid.dropped, piped.dropped);
}

// ---- The wide checksum is the same function ---------------------------

TEST(CksumWide, MatchesScalarOnRandomBuffers) {
  Rng rng(0xc4a);
  for (int len = 0; len <= 130; ++len) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_simple(buf)) << len;
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_unrolled(buf)) << len;
  }
  for (const int len : {551, 552, 1459, 1460, 4096}) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_simple(buf)) << len;
  }
}

TEST(CksumWide, MatchesScalarOnUnalignedSpans) {
  Rng rng(0xa17);
  std::vector<std::uint8_t> buf(1500 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
  for (int off = 0; off < 8; ++off) {
    const std::span<const std::uint8_t> view(buf.data() + off, 1500);
    ASSERT_EQ(wire::cksum_wide(view), wire::cksum_simple(view)) << off;
  }
}

TEST(CksumWide, Rfc1071Example) {
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(wire::cksum_wide(data), 0x220d);
  (void)wire::cksum_simd_enabled();  // linkage + callable under any macro
}

}  // namespace
}  // namespace ldlp
