// Chaos soak: the chaos scenarios run standalone over a wide seed range
// with full conformance checking. Every run is driven by an explicit
// check::Schedule (scenario + seed + per-host fault plans), judged by
// ldlp::check oracles — exactly-once in-order byte-exact TCP delivery,
// at-most-once integral UDP datagrams — and audited after every
// scheduler pass by per-host invariant checkers (TCP sequence pointers,
// reassembly table, ARP accounting).
//
// On failure the harness serialises the run's schedule, delta-debugs it
// down to a minimal still-failing episode set (check::shrink), and writes
// the result as ldlp.schedule.v1 JSON. Any such file — or any hand-edited
// schedule — replays exactly with:
//
//   chaos_soak --replay=<schedule.json>
//
// Seed-range soaks use --seed_lo=<n> --seed_hi=<n> (half-open); --scenario
// restricts the run to one scenario name. Failing seeds are listed in
// BENCH_chaos_soak.json under config.failing_seeds. Exit status is nonzero
// when any seed fails, so the soak slots into CI.
//
// Every scenario is additionally judged by ldlp::recover: a
// ConvergenceOracle demands that once the last fault episode has cleared,
// every TCP connection reaches a terminal or quiescent state within a
// pass budget, and a ProgressWatchdog condemns hosts that hold queued
// work while their progress counters stand still. The *-heal scenarios
// draw fault plans from FaultPlan::random_heal(), which includes the
// network-healing kinds (partition, link-flap, host-restart) the legacy
// seed-stable draw excludes.
//
// Each schedule run is bounded by a wall-clock budget (--seed_timeout_ms,
// default 20000, 0 disables): a hung seed becomes a reported failing seed
// with its schedule dumped instead of a hung CI job.
//
// --jobs=N runs the seeds on N real threads (ldlp::par::WorkerPool). Seeds
// are independent simulations, results land in seed-indexed slots, and all
// printing/shrinking happens after the barrier in seed order — so stdout,
// the failing-seed list and every shrunk schedule artifact are
// bit-identical to --jobs=1. --check_jobs=N proves it: the range is run
// serially and with N workers and the outcomes are compared field by
// field (nonzero exit on any divergence).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "soak_scenarios.hpp"
#include "check/invariants.hpp"
#include "check/judge.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "dns/resolver.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "net/fleet_plan.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "overlay/gossip_sim.hpp"
#include "par/worker_pool.hpp"
#include "recover/convergence.hpp"
#include "recover/partition_heal.hpp"
#include "recover/watchdog.hpp"
#include "rpc/fanout.hpp"
#include "stack/host_pair.hpp"

namespace {

using namespace ldlp;
using wire::ip_from_parts;

// Schedule makers, topology constants and the scenario registry
// (--help/--scenario/--seed_timeout_ms single source of truth) live in
// soak_scenarios.hpp.
using soak::kFleetHorizon;
using soak::kFleetHosts;
using soak::kFleetHostsPerRack;
using soak::kFleetRacks;
using soak::kFleetSpines;
using soak::kHorizon;

// Per-schedule wall-clock budget. Armed at the top of run_schedule (so
// every shrink candidate gets a fresh allowance) and checked cooperatively
// inside every scenario loop: a wedged stack turns into a failing seed
// with a serialised schedule rather than a hung soak. The timeout value is
// set once before any worker starts; the deadline itself is thread-local
// so --jobs workers each budget their own schedule.
std::uint64_t g_seed_timeout_ms = 20000;
thread_local std::chrono::steady_clock::time_point g_deadline;
thread_local bool g_deadline_armed = false;

void arm_deadline() {
  g_deadline_armed = g_seed_timeout_ms != 0;
  if (g_deadline_armed)
    g_deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(g_seed_timeout_ms);
}

bool timed_out() {
  return g_deadline_armed && std::chrono::steady_clock::now() >= g_deadline;
}

struct SoakResult : check::Verdict {
  std::string detail;  ///< Extra diagnostics printed under the reason.
};

/// The judges every scenario runs under: an invariant auditor per host,
/// stepped by the host's post-pass hook, and the recovery oracles,
/// stepped once per scheduler pass by on_pass(). Each host is tracked
/// with its injector, so the liveness clocks only start once its faults
/// have cleared.
struct Supervision {
  std::vector<std::unique_ptr<check::HostAuditor>> auditors;
  recover::ConvergenceOracle conv;
  recover::ProgressWatchdog dog;

  Supervision(recover::ConvergenceConfig conv_cfg,
              recover::WatchdogConfig dog_cfg)
      : conv(conv_cfg), dog(dog_cfg) {}

  void supervise(stack::Host& host, fault::FaultInjector* injector) {
    auditors.push_back(std::make_unique<check::HostAuditor>(host));
    auditors.back()->install();
    conv.add_host(host, injector);
    dog.add_host(host, injector);
  }

  void on_pass() {
    conv.on_pass();
    dog.on_pass();
  }

  /// Fold the auditors', then the recovery oracles' findings into `r`.
  void fold(SoakResult& r) const {
    for (const auto& aud : auditors) r.fold(*aud, "audit");
    r.fold(conv, "recover");
    r.fold(dog, "recover");
  }
};

// ---------------------------------------------------------------------------

struct Net : Supervision, stack::HostPair {
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;

  static stack::HostConfig config(const char* name) {
    stack::HostConfig c;
    c.name = name;
    // A small pool keeps allocation-failure paths hot: pool-exhaustion
    // episodes leave the stack genuinely starved rather than nibbling at
    // an 8k-mbuf cushion, so recovery code runs on many seeds.
    c.pool_mbufs = 384;
    c.pool_clusters = 96;
    // LDLP scheduling: the whole RX backlog is injected (holding mbufs)
    // before any layer runs, so deferred delivery races — stale advertised
    // windows, allocation failure mid-batch — actually occur. The
    // conventional path gets its chaos coverage from tests/test_chaos.cpp.
    c.mode = core::SchedMode::kLdlp;
    // Keepalive on: a peer that vanished (host restart, permanent loss)
    // is probed and the connection torn down instead of idling forever.
    // The idle clock resets on every received segment, so an active
    // transfer never sees a probe.
    c.tcp.keepalive_idle_sec = 5.0;
    c.tcp.keepalive_intvl_sec = 1.0;
    c.tcp.keepalive_probes = 4;
    return c;
  }

  explicit Net(const check::Schedule& schedule)
      : Supervision({}, {}), HostPair(config("a"), config("b")) {
    fault::FaultInjector* inj_a = nullptr;
    fault::FaultInjector* inj_b = nullptr;
    for (const check::InjectorSpec& spec : schedule.injectors) {
      stack::Host* host =
          spec.host == "a" ? &a : spec.host == "b" ? &b : nullptr;
      if (host == nullptr) continue;  // shrunk/foreign spec: ignore
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(spec.plan, spec.rng_seed));
      host->attach_fault(injectors.back().get());
      (host == &a ? inj_a : inj_b) = injectors.back().get();
    }
    supervise(a, inj_a);
    supervise(b, inj_b);
  }

  ~Net() {
    a.attach_fault(nullptr);
    b.attach_fault(nullptr);
  }

  void tick(double dt) {
    HostPair::tick(dt, 2);
    on_pass();
  }

  [[nodiscard]] bool faults_cleared() const {
    for (const auto& injector : injectors)
      if (!injector->faults_cleared()) return false;
    return true;
  }

  /// Post-scenario invariants shared by both scenarios: faults cleared,
  /// graphs drained, queue occupancy within bounds, pools leak-free.
  void check(SoakResult& r) {
    for (int i = 0; i < 80 && !faults_cleared() && !timed_out(); ++i)
      tick(0.1);
    if (timed_out())
      r.fail("seed wall-clock budget exceeded (--seed_timeout_ms)");
    else if (!faults_cleared())
      r.fail("faults never cleared (delayed frames or held mbufs remain)");
    a.attach_fault(nullptr);
    b.attach_fault(nullptr);
    check::check_teardown(a, r);
    check::check_teardown(b, r);
  }
};

SoakResult run_tcp(const check::Schedule& schedule,
                   std::size_t payload_bytes, std::size_t read_chunk) {
  SoakResult r;
  const std::uint64_t seed = schedule.seed;
  // A restart wipes an endpoint's connections: the stream may end short
  // (still prefix-exact), the handshake may never complete, and the
  // server's listener must be re-established like init restarting a
  // daemon after boot.
  const bool restarts = schedule.has_kind(fault::FaultKind::kHostRestart);
  Net net(schedule);
  check::DeliveryOracle oracle;
  oracle.set_allow_truncation(restarts);
  const auto flow = oracle.open_stream("a->b");
  net.b.sockets().set_tap(&oracle);

  stack::PcbId accepted = stack::kNoPcb;
  // Cached at accept time: the socket slot stays addressable across a
  // crash, while socket_of(accepted) on a wiped pcb would not.
  stack::SocketId accepted_socket = stack::kNoSocket;
  net.b.tcp().set_accept_hook([&](stack::PcbId id) {
    if (accepted == stack::kNoPcb) {
      accepted = id;
      accepted_socket = net.b.tcp().socket_of(id);
      oracle.bind_stream_rx(flow, accepted_socket);
    }
  });
  stack::PcbId listener = net.b.tcp().listen(80);
  const stack::PcbId conn =
      net.a.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.a.tcp().set_send_tap(
      [&](stack::PcbId id, std::span<const std::uint8_t> bytes) {
        if (id == conn) oracle.stream_sent(flow, bytes);
      });
  const auto ensure_listener = [&] {
    if (!restarts) return;
    if (net.b.tcp().state(listener) != stack::TcpState::kListen)
      listener = net.b.tcp().listen(80);
  };
  for (int i = 0; i < 1600 && !timed_out() &&
                  net.a.tcp().state(conn) != stack::TcpState::kEstablished;
       ++i) {
    ensure_listener();
    net.tick(0.05);
  }
  const bool established =
      net.a.tcp().state(conn) == stack::TcpState::kEstablished;
  if (!established && !restarts) {
    r.fail(timed_out() ? "seed wall-clock budget exceeded (--seed_timeout_ms)"
                       : "TCP never established");
    return r;
  }
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + seed);
  // The send buffer may be smaller than the payload; feed it as the
  // connection drains.
  std::size_t queued = 0;
  std::vector<std::uint8_t> got;
  bool conn_died = false;
  for (int i = 0; established && i < 2400 && !timed_out() &&
                  got.size() < payload.size();
       ++i) {
    ensure_listener();
    if (net.a.tcp().state(conn) == stack::TcpState::kClosed)
      conn_died = true;
    if (!conn_died && queued < payload.size()) {
      const std::span<const std::uint8_t> rest(payload.data() + queued,
                                               payload.size() - queued);
      if (net.a.tcp().send(conn, rest)) queued = payload.size();
    }
    net.tick(0.05);
    if (accepted_socket == stack::kNoSocket) continue;
    std::vector<std::uint8_t> chunk(read_chunk);
    const std::size_t n = net.b.sockets().read(accepted_socket, chunk);
    got.insert(got.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(n));
    // Once the connection is dead and the wire is quiet nothing more can
    // arrive; convergence is judged in the drain below.
    if (conn_died && net.faults_cleared()) break;
  }
  if (restarts) {
    // Truncation is legitimate; exactness of what did arrive is not
    // negotiable.
    if (got.size() > payload.size() ||
        !std::equal(got.begin(), got.end(), payload.begin()))
      r.fail("delivered bytes diverge from the sent stream");
  } else if (queued != payload.size()) {
    r.fail("send refused");
  }
  if (!restarts && got != payload) {
    r.fail("stream not delivered intact");
    std::size_t diff = 0;
    while (diff < got.size() && diff < payload.size() &&
           got[diff] == payload[diff])
      ++diff;
    r.detail = "got " + std::to_string(got.size()) + "/" +
               std::to_string(payload.size()) + " bytes, first mismatch at " +
               std::to_string(diff) +
               "; a: state=" + std::to_string(static_cast<int>(
                                   net.a.tcp().state(conn))) +
               " rtx=" +
               std::to_string(net.a.tcp().pcb_stats(conn).retransmits) +
               " bad_cksum=" +
               std::to_string(net.a.tcp().tcp_stats().bad_checksum) +
               "; b: bad_cksum=" +
               std::to_string(net.b.tcp().tcp_stats().bad_checksum) +
               " dev_rx_drops=" +
               std::to_string(net.b.device().stats().rx_drops) +
               " shed=" +
               std::to_string(net.b.graph().graph_stats().shed_entry) + "/" +
               std::to_string(net.b.graph().graph_stats().shed_depth);
    for (std::size_t li = 0; li < net.b.graph().layer_count(); ++li) {
      const core::Layer& l =
          net.b.graph().layer(static_cast<core::LayerId>(li));
      r.detail += " " + l.name() + ":d" + std::to_string(l.stats().drops);
    }
  }
  net.a.tcp().close(conn);
  if (accepted != stack::kNoPcb) net.b.tcp().close(accepted);
  // The application is done: from here on the stack owes convergence —
  // every pcb must reach a terminal or quiescent state within the
  // oracle's pass budget once the faults have cleared.
  net.conv.arm();
  for (int i = 0; i < 8 && !timed_out(); ++i) net.tick(1.0);
  for (int i = 0; i < 2200 && !net.conv.settled() && !timed_out(); ++i)
    net.tick(0.05);
  net.check(r);
  oracle.finalize();
  r.fold(oracle, "oracle");
  net.fold(r);
  net.b.sockets().set_tap(nullptr);
  return r;
}

SoakResult run_dns(const check::Schedule& schedule) {
  SoakResult r;
  Net net(schedule);
  dns::DnsServer server(net.b);
  constexpr int kNames = 8;
  for (int i = 0; i < kNames; ++i)
    server.add_a("h" + std::to_string(i) + ".soak",
                 ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)));
  dns::DnsResolver::Config cfg;
  cfg.server_ip = ip_from_parts(10, 0, 0, 2);
  dns::DnsResolver resolver(net.a, cfg);

  // Datagram oracles, one per direction: queries a->b, responses b->a.
  // The wire may legally duplicate under duplicate (or reorder: a frame
  // can be cloned then displaced) episodes, so re-delivery is tolerated
  // exactly when the schedule says so; byte-exactness never is.
  check::DeliveryOracle to_server;   // taps b's socket layer
  check::DeliveryOracle to_resolver;  // taps a's socket layer
  const bool wire_duplicates =
      schedule.has_kind(fault::FaultKind::kDuplicate);
  to_server.set_allow_duplicates(wire_duplicates);
  to_resolver.set_allow_duplicates(wire_duplicates);
  const auto queries = to_server.open_datagram("dns.query");
  const auto responses = to_resolver.open_datagram("dns.response");
  to_server.bind_datagram_rx(queries, server.socket());
  to_resolver.bind_datagram_rx(responses, resolver.socket());
  net.b.sockets().set_tap(&to_server);
  net.a.sockets().set_tap(&to_resolver);
  net.a.udp().set_send_tap([&](std::uint16_t, std::uint32_t,
                               std::uint16_t dst_port,
                               std::span<const std::uint8_t> payload) {
    if (dst_port == dns::kDnsPort) to_server.datagram_sent(queries, payload);
  });
  net.b.udp().set_send_tap([&](std::uint16_t src_port, std::uint32_t,
                               std::uint16_t,
                               std::span<const std::uint8_t> payload) {
    if (src_port == dns::kDnsPort)
      to_resolver.datagram_sent(responses, payload);
  });

  std::vector<std::optional<std::uint32_t>> results(kNames);
  std::vector<bool> outstanding(kNames, false);
  const auto kick = [&](int i) {
    outstanding[i] = true;
    resolver.resolve(
        "h" + std::to_string(i) + ".soak",
        [&results, &outstanding, i](const std::string&,
                                    std::optional<std::uint32_t> addr) {
          outstanding[i] = false;
          if (addr.has_value()) results[i] = addr;
        });
  };
  for (int i = 0; i < kNames; ++i) kick(i);
  for (int iter = 0; iter < 500 && !timed_out(); ++iter) {
    net.tick(0.25);
    server.poll();
    net.b.pump();
    net.a.pump();
    resolver.poll();
    bool done = true;
    for (int i = 0; i < kNames; ++i) {
      if (results[i].has_value()) continue;
      done = false;
      if (!outstanding[i]) kick(i);
    }
    if (done) break;
  }
  if (timed_out())
    r.fail("seed wall-clock budget exceeded (--seed_timeout_ms)");
  for (int i = 0; i < kNames; ++i) {
    if (!results[i].has_value())
      r.fail("lookup " + std::to_string(i) + " never converged");
    else if (*results[i] !=
             ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)))
      r.fail("lookup " + std::to_string(i) + " converged to wrong address");
  }
  if (!r.pass) {
    const dns::ResolverStats& rs = resolver.stats();
    r.detail = "resolver: lookups=" + std::to_string(rs.lookups) +
               " sent=" + std::to_string(rs.queries_sent) +
               " retries=" + std::to_string(rs.retries) +
               " answers=" + std::to_string(rs.answers) +
               " failures=" + std::to_string(rs.failures) +
               "; server: queries=" + std::to_string(server.stats().queries) +
               " answered=" + std::to_string(server.stats().answered) +
               " malformed=" + std::to_string(server.stats().malformed);
  }
  // No TCP state here, so convergence reduces to "faults cleared and the
  // graphs drain"; the watchdog still guards against silently held work.
  net.conv.arm();
  for (int i = 0; i < 40 && !net.conv.settled() && !timed_out(); ++i) {
    net.tick(0.1);
    server.poll();
    resolver.poll();
  }
  net.check(r);
  to_server.finalize();
  to_resolver.finalize();
  r.fold(to_server, "oracle");
  net.fold(r);
  r.fold(to_resolver, "oracle");
  net.a.sockets().set_tap(nullptr);
  net.b.sockets().set_tap(nullptr);
  return r;
}

// ---------------------------------------------------------------------------
// Fleet scenario: N hosts on a fat-tree fabric, cross-rack stream pairs
// plus a fan-out, judged by the PartitionHealOracle (exactly-once across
// every healed cut), the fleet-generalized recovery oracles, per-host
// auditors, and the fabric's frame-conservation ledger.

/// "h<i>" -> i; -1 for anything else.
int fleet_host_index(const std::string& name) {
  if (name.size() < 2 || name[0] != 'h') return -1;
  int value = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    value = value * 10 + (name[i] - '0');
  }
  return value;
}

// The fabric ticks hosts every 5 ms (vs the two-host harness's 50 ms), so
// the recovery pass budgets scale 10x to cover the same sim-time
// allowances: the full retransmit ladder into reset (~47 s) within the
// convergence budget, the capped rto_max 8 s silent gap within the stall
// window.
struct FleetNet : Supervision {
  net::Fabric fabric;
  std::vector<net::HostId> hosts;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;

  explicit FleetNet(const check::Schedule& schedule,
                    std::size_t racks = kFleetRacks,
                    std::size_t hosts_per_rack = kFleetHostsPerRack,
                    std::size_t spines = kFleetSpines)
      : Supervision({/*budget_passes=*/12000}, {/*stall_passes=*/2500}),
        fabric(net::FabricConfig{/*host_tick_sec=*/5e-3,
                                 /*fault_seed=*/schedule.seed * 2 + 1}) {
    net::FatTreeConfig topo;
    topo.racks = racks;
    topo.hosts_per_rack = hosts_per_rack;
    topo.spines = spines;
    // Same philosophy as the two-host Net: small pools keep the
    // allocation-failure paths hot, LDLP mode keeps the deferred-delivery
    // races live, keepalive reaps peers that crashed for good.
    topo.proto.pool_mbufs = 384;
    topo.proto.pool_clusters = 96;
    topo.proto.mode = core::SchedMode::kLdlp;
    topo.proto.tcp.keepalive_idle_sec = 5.0;
    topo.proto.tcp.keepalive_intvl_sec = 1.0;
    topo.proto.tcp.keepalive_probes = 4;
    hosts = net::build_fat_tree(fabric, topo);
    std::vector<fault::FaultInjector*> host_inj(hosts.size(), nullptr);
    for (const check::InjectorSpec& spec : schedule.injectors) {
      if (spec.host == "fabric") {
        fabric.set_fault_plan(spec.plan, spec.rng_seed);
        continue;
      }
      const int index = fleet_host_index(spec.host);
      if (index < 0 || static_cast<std::size_t>(index) >= hosts.size())
        continue;  // shrunk/foreign spec: ignore
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(spec.plan, spec.rng_seed));
      host(static_cast<std::size_t>(index))
          .attach_fault(injectors.back().get());
      host_inj[static_cast<std::size_t>(index)] = injectors.back().get();
    }
    // Fleet supervision: every host is tracked with its churn injector
    // if any, the fabric's own faults_cleared gates both recovery clocks,
    // and every fabric tick round counts as one pass.
    for (std::size_t i = 0; i < hosts.size(); ++i)
      supervise(host(i), host_inj[i]);
    conv.add_clearance([this] { return fabric.faults_cleared(); });
    dog.add_clearance([this] { return fabric.faults_cleared(); });
    fabric.set_pass_hook([this] { on_pass(); });
  }

  ~FleetNet() {
    for (std::size_t i = 0; i < hosts.size(); ++i)
      host(i).attach_fault(nullptr);
  }

  [[nodiscard]] stack::Host& host(std::size_t i) {
    return fabric.host(hosts[i]);
  }

  [[nodiscard]] bool faults_cleared() const {
    if (!fabric.faults_cleared()) return false;
    for (const auto& injector : injectors)
      if (!injector->faults_cleared()) return false;
    return true;
  }

  /// Post-scenario invariants: faults cleared, graphs drained, queue
  /// bounds held, pools leak-free, and the fabric's frame ledger balanced
  /// (injected == delivered + dropped + in-flight, i.e. residual 0).
  void check(SoakResult& r) {
    for (int i = 0; i < 80 && !faults_cleared() && !timed_out(); ++i)
      fabric.run_for(0.5);
    if (timed_out())
      r.fail("seed wall-clock budget exceeded (--seed_timeout_ms)");
    else if (!faults_cleared())
      r.fail("faults never cleared (active episodes or frames in flight)");
    for (std::size_t i = 0; i < hosts.size(); ++i)
      host(i).attach_fault(nullptr);
    for (std::size_t i = 0; i < hosts.size(); ++i)
      check::check_teardown(host(i), r);
    if (fabric.conservation_residual() != 0)
      r.fail("fabric conservation violated (residual " +
             std::to_string(fabric.conservation_residual()) + ")");
  }
};

SoakResult run_fleet(const check::Schedule& schedule) {
  SoakResult r;
  const std::uint64_t seed = schedule.seed;
  const bool restarts = schedule.has_kind(fault::FaultKind::kHostRestart);
  FleetNet net(schedule);
  recover::PartitionHealOracle heal;
  heal.set_allow_truncation(restarts);

  // Traffic: 16 cross-rack stream pairs striped over the fleet, plus a
  // fan-out from one seed-chosen host to one host in every rack. Each
  // pair listens on its own port; dst hosts carry several pairs.
  struct PairRun {
    std::size_t src = 0, dst = 0;
    recover::PartitionHealOracle::PairId pid = 0;
    std::uint16_t port = 0;
    stack::PcbId listener = stack::kNoPcb;
    stack::PcbId conn = stack::kNoPcb;
    stack::PcbId accepted = stack::kNoPcb;
    stack::SocketId rx_socket = stack::kNoSocket;
    std::vector<std::uint8_t> payload;
    std::size_t sent_off = 0;
    std::size_t got = 0;
    bool dead = false;
  };
  std::vector<PairRun> pairs;
  const auto add_pair = [&](std::size_t src, std::size_t dst) {
    if (src == dst) return;
    PairRun p;
    p.src = src;
    p.dst = dst;
    p.port = static_cast<std::uint16_t>(2000 + pairs.size());
    p.pid = heal.open_pair(net.host(src).name(), net.host(dst).name());
    p.payload.resize(3000);
    for (std::size_t i = 0; i < p.payload.size(); ++i)
      p.payload[i] =
          static_cast<std::uint8_t>(i * 31 + seed + pairs.size() * 7);
    pairs.push_back(std::move(p));
  };
  for (std::size_t k = 0; k < 16; ++k) {
    const std::size_t src = (k * 5) % kFleetHosts;
    const std::size_t dst =
        (src + kFleetHostsPerRack * (1 + k % (kFleetRacks - 1)) + k) %
        kFleetHosts;
    add_pair(src, dst);
  }
  const std::size_t fan_src = seed % kFleetHosts;
  for (std::size_t rack = 0; rack < kFleetRacks; ++rack)
    add_pair(fan_src,
             rack * kFleetHostsPerRack + (seed + 3) % kFleetHostsPerRack);

  // Receive-side taps (one per receiving host) and accept hooks that
  // route an accepted connection to its pair by listening port.
  std::vector<bool> is_dst(kFleetHosts, false);
  for (const PairRun& p : pairs) is_dst[p.dst] = true;
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (is_dst[i])
      net.host(i).sockets().set_tap(&heal.rx_tap(net.host(i).name()));
  }
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (!is_dst[i]) continue;
    net.host(i).tcp().set_accept_hook([&, i](stack::PcbId id) {
      const std::uint16_t port = net.host(i).tcp().pcb_view(id).local_port;
      for (PairRun& p : pairs) {
        if (p.dst != i || p.port != port) continue;
        if (p.accepted == stack::kNoPcb) {
          p.accepted = id;
          p.rx_socket = net.host(i).tcp().socket_of(id);
          heal.bind_rx(p.pid, p.rx_socket);
        }
        return;
      }
    });
  }
  for (PairRun& p : pairs) p.listener = net.host(p.dst).tcp().listen(p.port);
  for (PairRun& p : pairs)
    p.conn = net.host(p.src).tcp().connect(
        net::host_ip(static_cast<std::uint32_t>(p.dst)), p.port);
  // Send taps, one per source host, dispatching on the sending pcb.
  std::vector<bool> is_src(kFleetHosts, false);
  for (const PairRun& p : pairs) is_src[p.src] = true;
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (!is_src[i]) continue;
    net.host(i).tcp().set_send_tap(
        [&, i](stack::PcbId id, std::span<const std::uint8_t> bytes) {
          for (const PairRun& p : pairs)
            if (p.src == i && p.conn == id) {
              heal.sent(p.pid, bytes);
              return;
            }
        });
  }

  const auto ensure_listener = [&](PairRun& p) {
    // A restarted server lost its listener; re-listen like a respawned
    // daemon so late SYN retransmits still find a socket.
    if (net.host(p.dst).tcp().state(p.listener) != stack::TcpState::kListen)
      p.listener = net.host(p.dst).tcp().listen(p.port);
  };
  std::vector<std::uint8_t> chunk(1024);
  for (int iter = 0; iter < 400 && !timed_out(); ++iter) {
    bool all_done = true;
    for (PairRun& p : pairs) {
      if (restarts) ensure_listener(p);
      stack::TcpLayer& stcp = net.host(p.src).tcp();
      if (!p.dead && stcp.state(p.conn) == stack::TcpState::kClosed)
        p.dead = true;
      // Drip-feed: one 250-byte chunk every third iteration (~0.15 s sim)
      // so the streams span the whole fault horizon instead of finishing
      // before the first episode bites. A refused chunk (full send
      // buffer) just retries next round.
      if (!p.dead && p.sent_off < p.payload.size() && iter % 3 == 0 &&
          stcp.state(p.conn) == stack::TcpState::kEstablished) {
        const std::size_t n =
            std::min<std::size_t>(250, p.payload.size() - p.sent_off);
        if (stcp.send(p.conn,
                      std::span(p.payload).subspan(p.sent_off, n)))
          p.sent_off += n;
      }
      if (p.rx_socket != stack::kNoSocket) {
        const std::size_t n =
            net.host(p.dst).sockets().read(p.rx_socket, chunk);
        p.got += n;
      }
      if (!(p.got >= p.payload.size() || p.dead)) all_done = false;
    }
    if (all_done && net.faults_cleared()) break;
    net.fabric.run_for(0.05);
  }
  for (PairRun& p : pairs) {
    if (!restarts && p.got < p.payload.size() && !p.dead)
      r.fail("pair " + net.host(p.src).name() + "->" +
             net.host(p.dst).name() + " incomplete (" +
             std::to_string(p.got) + "/" +
             std::to_string(p.payload.size()) + " bytes)");
    net.host(p.src).tcp().close(p.conn);
    if (p.accepted != stack::kNoPcb) net.host(p.dst).tcp().close(p.accepted);
  }
  net.conv.arm();
  for (int i = 0; i < 8 && !timed_out(); ++i) net.fabric.run_for(1.0);
  for (int i = 0; i < 240 && !net.conv.settled() && !timed_out(); ++i)
    net.fabric.run_for(0.25);
  net.check(r);
  heal.finalize();
  r.fold(heal, "heal");
  net.fold(r);
  const check::OracleStats hs = heal.stats();
  if (r.pass && hs.stream_bytes_delivered == 0)
    r.fail("no bytes crossed the fabric (traffic never started)");
  const net::FabricTotals t = net.fabric.totals();
  r.detail = "injected=" + std::to_string(t.injected) +
             " delivered=" + std::to_string(t.delivered) +
             " qdrop=" + std::to_string(t.queue_drops) +
             " fdrop=" + std::to_string(t.fault_drops) +
             " heal_sent=" + std::to_string(hs.stream_bytes_sent) +
             " heal_rx=" + std::to_string(hs.stream_bytes_delivered) +
             " sim_t=" + std::to_string(net.fabric.now());
  for (std::size_t i = 0; i < kFleetHosts; ++i)
    net.host(i).sockets().set_tap(nullptr);
  return r;
}

/// The tail scenario: the RPC fan-out workload from src/rpc/fanout.hpp,
/// run for correctness rather than latency. Client h0 fans every request
/// to 8 servers (two per rack, odd host indices) over UDP while the
/// fabric runs a topology-scoped fault plan. Client-owned reliability
/// (per-leg RTO with exponential backoff) must deliver every request
/// *through* the partitions and loss bursts; DeliveryOracles assert every
/// call and reply that arrives is byte-exact and at-most-once, and the
/// convergence oracle asserts the fleet settles once the plan clears.
SoakResult run_tail(const check::Schedule& schedule) {
  SoakResult r;
  FleetNet net(schedule, soak::kTailRacks, soak::kTailHostsPerRack,
               soak::kTailSpines);

  // Servers on the odd host indices, client on host 0. No CPU service
  // model: this scenario checks delivery, not latency distributions.
  rpc::FanoutConfig cfg;
  std::vector<std::size_t> server_idx;
  for (std::size_t i = 1; i < soak::kTailHosts; i += 2)
    server_idx.push_back(i);
  std::vector<std::unique_ptr<rpc::FanoutServer>> servers;
  std::vector<std::uint32_t> server_ips;
  for (std::size_t idx : server_idx) {
    servers.push_back(
        std::make_unique<rpc::FanoutServer>(net.host(idx), cfg));
    server_ips.push_back(net::host_ip(static_cast<std::uint32_t>(idx)));
  }
  obs::Histogram lat(1e-4, 1e3, 32);
  rpc::FanoutClient client(net.host(0), server_ips, cfg, lat);

  // Call-direction oracles: one per server host, because socket ids are
  // per-host (every host's first socket is id 0) so a shared oracle
  // could not tell the receive sockets apart. Retransmits re-enter
  // datagram_sent with the identical payload, which keeps the multiset
  // counting balanced; fleet plans never corrupt or duplicate frames
  // (partition/flap/loss only), so the oracles run strict.
  std::vector<std::unique_ptr<check::DeliveryOracle>> call_oracles;
  std::vector<check::DeliveryOracle::FlowId> call_flows;
  for (std::size_t k = 0; k < server_idx.size(); ++k) {
    auto oracle = std::make_unique<check::DeliveryOracle>();
    check::DeliveryOracle::FlowId flow =
        oracle->open_datagram("call.h" + std::to_string(server_idx[k]));
    oracle->bind_datagram_rx(flow, servers[k]->udp_socket());
    net.host(server_idx[k]).sockets().set_tap(oracle.get());
    call_flows.push_back(flow);
    call_oracles.push_back(std::move(oracle));
  }
  client.set_call_hook(
      [&](std::size_t leg, std::span<const std::uint8_t> bytes) {
        call_oracles[leg]->datagram_sent(call_flows[leg], bytes);
      });
  // Reply direction: replies to one xid are byte-identical across
  // servers (results keyed on the xid alone), so a single flow fed by
  // every server's UDP send tap stays consistent.
  check::DeliveryOracle reply_oracle;
  const check::DeliveryOracle::FlowId reply_flow =
      reply_oracle.open_datagram("reply");
  reply_oracle.bind_datagram_rx(reply_flow, client.udp_socket());
  net.host(0).sockets().set_tap(&reply_oracle);
  for (std::size_t idx : server_idx) {
    net.host(idx).udp().set_send_tap(
        [&reply_oracle, reply_flow, port = cfg.port](
            std::uint16_t src_port, std::uint32_t, std::uint16_t,
            std::span<const std::uint8_t> payload) {
          if (src_port == port)
            reply_oracle.datagram_sent(reply_flow, payload);
        });
  }

  // Workload: requests paced evenly across the whole fault horizon, then
  // a drain window generous enough for the full RTO ladder (0.25 s
  // doubling to 4 s) to push the last retransmits through after heal.
  constexpr std::size_t kRequests = 150;
  const double t0 = net.fabric.now();
  const double spacing = soak::kTailHorizon / static_cast<double>(kRequests);
  const double deadline = t0 + soak::kTailHorizon + 30.0;
  std::size_t issued = 0;
  while (!timed_out()) {
    const double now = net.fabric.now();
    while (issued < kRequests &&
           now >= t0 + static_cast<double>(issued) * spacing) {
      client.start(/*arrival_sec=*/now, now);
      ++issued;
    }
    client.poll(now);
    for (auto& server : servers) server->poll(now);
    if (issued == kRequests && client.outstanding() == 0) break;
    if (now > deadline) break;
    net.fabric.run_for(5e-3);
  }

  const rpc::FanoutClientStats& cs = client.stats();
  if (client.outstanding() != 0 || issued < kRequests)
    r.fail("rpc fan-out never drained: " +
           std::to_string(client.outstanding()) + " of " +
           std::to_string(issued) + " issued requests outstanding (" +
           std::to_string(cs.requests_completed) + " completed, " +
           std::to_string(cs.retransmits) + " retransmits)");
  if (cs.malformed != 0)
    r.fail("client saw " + std::to_string(cs.malformed) +
           " malformed replies (fleet plans never corrupt)");
  for (std::size_t k = 0; k < servers.size(); ++k)
    if (servers[k]->stats().malformed != 0)
      r.fail(net.host(server_idx[k]).name() + ": malformed calls");

  net.conv.arm();
  for (int i = 0; i < 240 && !net.conv.settled() && !timed_out(); ++i)
    net.fabric.run_for(0.25);
  net.check(r);
  reply_oracle.finalize();
  r.fold(reply_oracle, "reply");
  for (std::size_t k = 0; k < call_oracles.size(); ++k) {
    call_oracles[k]->finalize();
    r.fold(*call_oracles[k], "call.h" + std::to_string(server_idx[k]));
  }
  net.fold(r);
  if (r.pass && cs.requests_completed == 0)
    r.fail("no requests completed (workload never started)");
  const net::FabricTotals t = net.fabric.totals();
  r.detail = "completed=" + std::to_string(cs.requests_completed) + "/" +
             std::to_string(cs.requests_started) +
             " calls=" + std::to_string(cs.calls_sent) +
             " rexmt=" + std::to_string(cs.retransmits) +
             " stale=" + std::to_string(cs.stale_replies) +
             " fdrop=" + std::to_string(t.fault_drops) +
             " qdrop=" + std::to_string(t.queue_drops) +
             " sim_t=" + std::to_string(net.fabric.now());
  for (std::size_t i = 0; i < soak::kTailHosts; ++i)
    net.host(i).sockets().set_tap(nullptr);
  for (std::size_t idx : server_idx) net.host(idx).udp().set_send_tap({});
  return r;
}

// Gossip overlay on the 64-host fat-tree: the whole run (topology, join
// stagger, broadcast storm, convergence drain, oracle judgement) lives
// in overlay::run_gossip_sim so the soak, the perf gate and the unit
// tests judge the identical implementation. This wrapper only maps the
// result onto SoakResult and wires the per-seed wall deadline through.
SoakResult run_gossip(const check::Schedule& schedule) {
  overlay::GossipSimConfig cfg;
  cfg.deadline = [] { return timed_out(); };
  const overlay::GossipSimResult g = overlay::run_gossip_sim(schedule, cfg);
  return {g, "broadcasts=" + std::to_string(g.broadcasts) +
                " deliveries=" + std::to_string(g.deliveries) +
                " dup=" + std::to_string(g.duplicates) +
                " grafts=" + std::to_string(g.grafts) +
                " prunes=" + std::to_string(g.prunes) +
                " repairs=" + std::to_string(g.repairs_done) +
                " redundancy=" + std::to_string(g.relay_redundancy) +
                " sim_t=" + std::to_string(g.sim_time_sec)};
}

// Clocks scenario: the gossip sim with timer oracles armed. The
// schedule's "h<i>" victims carry clock-kind-only plans (skew, drift,
// stall, timer storm) instead of restarts; the TimerAuditor and the
// DeadlineOracle judge every host's wheel on top of the usual overlay
// oracles. Wheel defaults apply — in particular shed_guard stays on;
// the mutation check that reverts it lives in tests/test_time.cpp.
SoakResult run_clocks(const check::Schedule& schedule) {
  overlay::GossipSimConfig cfg;
  cfg.timer_oracles = true;
  cfg.deadline = [] { return timed_out(); };
  const overlay::GossipSimResult g = overlay::run_gossip_sim(schedule, cfg);
  return {g, "arms=" + std::to_string(g.timer_arms) +
                " fires=" + std::to_string(g.timer_fires) +
                " cancels=" + std::to_string(g.timer_cancels) +
                " spurious=" + std::to_string(g.timer_spurious) +
                " shed=" + std::to_string(g.timer_shed) +
                " deliveries=" + std::to_string(g.deliveries) +
                " repairs=" + std::to_string(g.repairs_done) +
                " sim_t=" + std::to_string(g.sim_time_sec)};
}

SoakResult run_schedule(const check::Schedule& schedule) {
  arm_deadline();
  if (schedule.scenario == "tcp" || schedule.scenario == "tcp-heal")
    return run_tcp(schedule, /*payload_bytes=*/8000, /*read_chunk=*/2000);
  if (schedule.scenario == "tcp-slow")
    return run_tcp(schedule, /*payload_bytes=*/24000, /*read_chunk=*/900);
  if (schedule.scenario == "dns" || schedule.scenario == "dns-heal")
    return run_dns(schedule);
  if (schedule.scenario == "fleet") return run_fleet(schedule);
  if (schedule.scenario == "tail") return run_tail(schedule);
  if (schedule.scenario == "gossip") return run_gossip(schedule);
  if (schedule.scenario == "clocks") return run_clocks(schedule);
  SoakResult r;
  r.fail("unknown scenario '" + schedule.scenario + "'");
  return r;
}

void print_failure(const SoakResult& r, const check::Schedule& schedule) {
  std::printf("  %s failure: %s\n", schedule.scenario.c_str(), r.why.c_str());
  if (!r.detail.empty()) std::printf("  %s\n", r.detail.c_str());
  for (const std::string& v : r.violations)
    std::printf("    %s\n", v.c_str());
  for (const check::InjectorSpec& spec : schedule.injectors)
    std::printf("  %s plan (rng seed %llu):\n%s", spec.host.c_str(),
                static_cast<unsigned long long>(spec.rng_seed),
                spec.plan.describe().c_str());
}

/// Shrink a failing schedule and write the minimal reproducer next to the
/// bench report. Returns the written path (empty on save failure).
std::string shrink_and_save(const check::Schedule& failing,
                            const std::string& out_dir) {
  const check::ShrinkResult minimal = check::shrink(
      failing,
      [](const check::Schedule& candidate) {
        return !run_schedule(candidate).pass;
      });
  std::printf(
      "  shrink: %zu -> %zu episodes in %zu runs%s\n",
      minimal.episodes_before, minimal.episodes_after, minimal.runs,
      minimal.converged ? "" : " (run budget hit; may not be 1-minimal)");
  const std::string path = out_dir + "/chaos_" + failing.scenario + "_seed" +
                           std::to_string(failing.seed) + ".schedule.json";
  if (!minimal.schedule.save(path)) {
    std::printf("  warning: could not write %s\n", path.c_str());
    return {};
  }
  std::printf("  minimal schedule: %s\n  reproduce: chaos_soak --replay=%s\n",
              path.c_str(), path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Seed-range execution. One seed = one job for the worker pool: results go
// into seed-indexed slots, printing and shrinking stay on the main thread
// after the barrier, so the output stream is identical for any --jobs.

// The scenario table (name, maker, timeout default, sweep membership,
// help blurb) lives in soak_scenarios.hpp so --help, --scenario and the
// --seed_timeout_ms defaults can never drift apart.
using soak::kScenarioCount;
using soak::kScenarios;

struct ScenarioOutcome {
  std::size_t si = 0;  ///< Index into kScenarios.
  SoakResult res;
  check::Schedule schedule;
};

struct SeedOutcome {
  std::uint64_t seed = 0;
  std::vector<ScenarioOutcome> runs;  ///< In kScenarios order.

  [[nodiscard]] bool pass() const {
    for (const ScenarioOutcome& run : runs)
      if (!run.res.pass) return false;
    return true;
  }
};

/// Run seeds [seed_lo, seed_lo + count) across `jobs` workers. Per-worker
/// registries count scenario runs/failures and merge into `reg`
/// (order-independent combiners, so any jobs value yields the same
/// counters).
std::vector<SeedOutcome> compute_outcomes(std::uint64_t seed_lo,
                                          std::uint64_t count,
                                          const std::string& only,
                                          std::uint64_t jobs,
                                          obs::Registry& reg) {
  par::WorkerPool pool(static_cast<std::size_t>(jobs));
  std::vector<SeedOutcome> outcomes(count);
  pool.run(static_cast<std::size_t>(count),
           [&](std::size_t j, par::WorkerContext& ctx) {
             SeedOutcome& out = outcomes[j];
             out.seed = seed_lo + j;
             for (std::size_t si = 0; si < kScenarioCount; ++si) {
               const soak::ScenarioInfo& def = kScenarios[si];
               if (only.empty() ? !def.in_default_sweep : only != def.name)
                 continue;
               ScenarioOutcome run;
               run.si = si;
               run.schedule = kScenarios[si].make(out.seed);
               run.res = run_schedule(run.schedule);
               ctx.registry->counter("par.soak.scenarios").add(1);
               if (!run.res.pass)
                 ctx.registry->counter("par.soak.scenario_failures").add(1);
               out.runs.push_back(std::move(run));
             }
           });
  pool.publish(reg);
  pool.merge_registries(reg);
  return outcomes;
}

/// Field-by-field equality for the --check_jobs determinism audit.
bool outcomes_identical(const std::vector<SeedOutcome>& serial,
                        const std::vector<SeedOutcome>& parallel,
                        std::string* first_diff) {
  if (serial.size() != parallel.size()) {
    *first_diff = "outcome counts differ";
    return false;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SeedOutcome& s = serial[i];
    const SeedOutcome& p = parallel[i];
    const std::string tag = "seed " + std::to_string(s.seed) + ": ";
    if (s.seed != p.seed || s.runs.size() != p.runs.size()) {
      *first_diff = tag + "seed/run-count mismatch";
      return false;
    }
    for (std::size_t r = 0; r < s.runs.size(); ++r) {
      const ScenarioOutcome& sr = s.runs[r];
      const ScenarioOutcome& pr = p.runs[r];
      if (sr.si != pr.si || sr.res.pass != pr.res.pass ||
          sr.res.why != pr.res.why ||
          sr.res.violations != pr.res.violations) {
        *first_diff = tag + std::string(kScenarios[sr.si].name) +
                      " verdict diverges";
        return false;
      }
      if (sr.schedule.to_json().dump(2) != pr.schedule.to_json().dump(2)) {
        *first_diff = tag + std::string(kScenarios[sr.si].name) +
                      " schedule serialisation diverges";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Flags flags(argc, argv);
  if (flags.flag("help") || flags.u64("help", 0) != 0) {
    std::printf(
        "chaos_soak: seeded fault schedules against oracle-checked "
        "protocol scenarios\n\n"
        "scenarios (--scenario=<name>; default sweep runs the unmarked "
        "ones):\n%s\n"
        "flags: --seed_lo --seed_hi --scenario --jobs --check_jobs\n"
        "       --seed_timeout_ms --replay=<schedule.json> --verbose=1 "
        "--no_shrink=1 --out_dir\n",
        soak::scenario_help().c_str());
    return 0;
  }
  // Unset --seed_timeout_ms picks the scenario's registry default: fleet
  // and tail seeds pump 16-64 hosts per tick and legitimately need
  // minutes, not the two-host scenarios' 20 s. Explicit values
  // (including 0 = disabled) always win.
  const std::uint64_t timeout_flag =
      flags.u64("seed_timeout_ms", UINT64_MAX);
  const auto timeout_for = [timeout_flag](const std::string& scenario) {
    if (timeout_flag != UINT64_MAX) return timeout_flag;
    return soak::default_timeout_ms(scenario);
  };
  const char* replay = flags.str("replay", nullptr);
  // Seed range: [--seed_lo, --seed_hi), 32 seeds by default.
  const std::uint64_t seed_lo = flags.u64("seed_lo", 1);
  const std::uint64_t seed_hi = flags.u64("seed_hi", seed_lo + 32);
  const bool verbose = flags.u64("verbose", 0) != 0;
  const bool no_shrink = flags.u64("no_shrink", 0) != 0;
  const std::string out_dir = flags.str("out_dir", ".");
  const std::string only = flags.str("scenario", "");
  const std::uint64_t jobs = std::max<std::uint64_t>(1, flags.u64("jobs", 1));
  const std::uint64_t check_jobs = flags.u64("check_jobs", 0);
  flags.reject_unread();
  if (seed_hi <= seed_lo) {
    // An empty range would pass vacuously ("0/0 seeds passed").
    std::fprintf(stderr, "error: empty seed range: --seed_hi=%llu <= "
                 "--seed_lo=%llu\n",
                 static_cast<unsigned long long>(seed_hi),
                 static_cast<unsigned long long>(seed_lo));
    return 2;
  }
  const std::uint64_t seeds = seed_hi - seed_lo;

  // --replay runs one serialised schedule and reports, nothing else.
  if (replay != nullptr) {
    std::string error;
    const auto schedule = check::Schedule::load(replay, &error);
    if (!schedule.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    g_seed_timeout_ms = timeout_for(schedule->scenario);
    std::printf("replaying %s: scenario %s, seed %llu, %zu episodes\n",
                replay, schedule->scenario.c_str(),
                static_cast<unsigned long long>(schedule->seed),
                schedule->episode_count());
    const SoakResult r = run_schedule(*schedule);
    std::printf("%s\n", r.pass ? "PASS" : "FAIL");
    if (!r.pass) print_failure(r, *schedule);
    return r.pass ? 0 : 1;
  }

  g_seed_timeout_ms = timeout_for(only);
  if (!only.empty() && soak::find_scenario(only) == nullptr) {
    std::fprintf(stderr,
                 "error: unknown --scenario '%s'; known scenarios:\n%s",
                 only.c_str(), soak::scenario_help().c_str());
    return 2;
  }
  std::error_code mkdir_ec;
  std::filesystem::create_directories(out_dir, mkdir_ec);

  // --check_jobs: the parallel-determinism audit. Same range twice — one
  // worker, then N — and every verdict, reason, violation list and
  // schedule serialisation must agree.
  if (check_jobs > 0) {
    benchutil::heading("Chaos soak determinism check: --jobs=1 vs --jobs=N");
    std::printf("seeds [%llu, %llu), %llu workers\n",
                static_cast<unsigned long long>(seed_lo),
                static_cast<unsigned long long>(seed_hi),
                static_cast<unsigned long long>(check_jobs));
    obs::Registry serial_reg;
    obs::Registry parallel_reg;
    const auto serial =
        compute_outcomes(seed_lo, seeds, only, 1, serial_reg);
    const auto parallel =
        compute_outcomes(seed_lo, seeds, only, check_jobs, parallel_reg);
    std::string diff;
    if (!outcomes_identical(serial, parallel, &diff)) {
      std::printf("FAIL: %s\n", diff.c_str());
      return 1;
    }
    // The merged soak counters must agree too — the whole point of the
    // order-independent combiners. (par.pool.* self-description metrics
    // legitimately differ: worker count is part of the configuration.)
    const obs::Snapshot ss = serial_reg.snapshot();
    const obs::Snapshot ps = parallel_reg.snapshot();
    for (const char* name :
         {"par.soak.scenarios", "par.soak.scenario_failures"}) {
      if (ss.value(name) != ps.value(name)) {
        std::printf("FAIL: merged counter %s diverges: %.0f (jobs=1) vs "
                    "%.0f (jobs=%llu)\n",
                    name, ss.value(name), ps.value(name),
                    static_cast<unsigned long long>(check_jobs));
        return 1;
      }
    }
    std::printf("PASS: %llu seeds bit-identical across jobs=1 and jobs=%llu "
                "(%.0f scenario runs)\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(check_jobs),
                ss.value("par.soak.scenarios"));
    return 0;
  }

  ldlp::benchutil::BenchReport report("chaos_soak", flags);
  report.config_u64("seed_lo", seed_lo);
  report.config_u64("seed_hi", seed_hi);
  report.config_u64("jobs", jobs);

  benchutil::heading(
      "Chaos soak: TCP + DNS under seeded fault schedules, oracle-checked");
  std::printf("seeds [%llu, %llu); horizon %.1f s per plan%s%s\n\n",
              static_cast<unsigned long long>(seed_lo),
              static_cast<unsigned long long>(seed_hi), kHorizon,
              only.empty() ? "" : "; scenario ",
              only.empty() ? "" : only.c_str());

  obs::Registry reg;
  const std::vector<SeedOutcome> outcomes =
      compute_outcomes(seed_lo, seeds, only, jobs, reg);

  // Reporting pass: main thread, seed order — identical for every --jobs.
  std::uint64_t failures = 0;
  std::uint64_t scenario_failures[kScenarioCount] = {};
  std::string failing_seeds;
  for (const SeedOutcome& out : outcomes) {
    const bool pass = out.pass();
    std::printf("seed %6llu", static_cast<unsigned long long>(out.seed));
    for (const ScenarioOutcome& run : out.runs) {
      std::printf("  %s:%s", kScenarios[run.si].name,
                  run.res.pass ? "PASS" : "FAIL");
      if (!run.res.pass) ++scenario_failures[run.si];
    }
    std::printf("\n");
    if (!pass || verbose) {
      for (const ScenarioOutcome& run : out.runs) {
        if (run.res.pass) continue;
        print_failure(run.res, run.schedule);
        if (!no_shrink) shrink_and_save(run.schedule, out_dir);
      }
      std::printf(
          "  reproduce: chaos_soak --seed_lo=%llu --seed_hi=%llu "
          "--verbose=1\n",
          static_cast<unsigned long long>(out.seed),
          static_cast<unsigned long long>(out.seed + 1));
    }
    if (!pass) {
      ++failures;
      if (!failing_seeds.empty()) failing_seeds += ",";
      failing_seeds += std::to_string(out.seed);
    }
  }
  std::printf("\n%llu/%llu seeds passed\n",
              static_cast<unsigned long long>(seeds - failures),
              static_cast<unsigned long long>(seeds));
  report.config("failing_seeds", failing_seeds);
  if (!only.empty()) report.config("scenario", only);
  report.tolerance(0.0);  // pass/fail counts must match exactly
  report.metric("seeds_run", static_cast<double>(seeds));
  report.metric("seeds_failed", static_cast<double>(failures));
  // Legacy rollups (tcp covers both loss-profile TCP scenarios) plus a
  // combined healing-scenario count.
  report.metric("tcp_failures", static_cast<double>(scenario_failures[0] +
                                                    scenario_failures[1]));
  report.metric("dns_failures", static_cast<double>(scenario_failures[2]));
  report.metric("heal_failures", static_cast<double>(scenario_failures[3] +
                                                     scenario_failures[4]));
  report.metric("fleet_failures", static_cast<double>(scenario_failures[5]));
  report.metric("tail_failures", static_cast<double>(scenario_failures[6]));
  report.metric("gossip_failures", static_cast<double>(scenario_failures[7]));
  report.metric("clocks_failures", static_cast<double>(scenario_failures[8]));
  report.write();
  return failures == 0 ? 0 : 1;
}
