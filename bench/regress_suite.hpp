// The perf-regression gate suite: fast, deterministic re-runs of the key
// reproduction results, reduced to "ldlp.bench.v1" BenchResults and gated
// against the checked-in baselines in bench/baselines/.
//
// Shared by bench_regress (the CLI driver, which can also --update the
// baselines) and tests/test_bench_regress.cpp (the ctest `bench-gate`
// label), so the gate that CI runs is byte-for-byte the gate a developer
// runs by hand.
//
// Every case here must be deterministic in its hard-coded seeds and finish
// in at most a few seconds; the slow statistical sweeps stay in the fig*
// binaries. Tolerances are per-case: analytic results use a hair above
// zero (they only move if the model changes), simulator results 5% (they
// only move if scheduling, cache or traffic behaviour changes — which is
// exactly what the gate is for).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/blocking.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/bench_result.hpp"
#include "overlay/gossip_sim.hpp"
#include "par/shard_engine.hpp"
#include "pipe/stage_engine.hpp"
#include "recover/partition_heal.hpp"
#include "rpc/fanout.hpp"
#include "sim/machine.hpp"
#include "stack/rx_path_trace.hpp"
#include "synth/sweep.hpp"
#include "time/timer_wheel.hpp"
#include "trace/working_set.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::regress {

/// Analytic blocking estimates (core::estimate_blocking) at the paper's
/// machine points. Pure arithmetic — any drift is a semantic change.
inline obs::BenchResult gate_blocking() {
  obs::BenchResult result;
  result.name = "gate_blocking";
  result.tolerance = 1e-9;

  struct Point {
    const char* key;
    std::uint32_t dcache_kb;
    std::uint32_t message_bytes;
  };
  const Point points[] = {
      {"paper_552", 8, 552},    // the reference internet packet
      {"signal_100", 8, 100},   // signalling-sized messages
      {"big_cache", 64, 552},   // future machine
      {"tiny_cache", 1, 2048},  // degenerate: one message > cache
  };
  for (const Point& p : points) {
    const core::StackFootprint footprint{5, 6 * 1024, 256, p.message_bytes};
    sim::CacheConfig icache{8 * 1024, 32, 1};
    sim::CacheConfig dcache{p.dcache_kb * 1024, 32, 1};
    const auto est = core::estimate_blocking(footprint, icache, dcache);
    result.set_metric(std::string("batch_limit.") + p.key,
                      static_cast<double>(est.batch_limit));
  }
  return result;
}

/// The traced receive path's working set (Table 1 totals) and line-size
/// corollary (Table 3 dilution). Deterministic trace, no randomness.
inline obs::BenchResult gate_working_set() {
  obs::BenchResult result;
  result.name = "gate_working_set";
  result.tolerance = 1e-9;

  stack::StackTracer tracer;
  trace::TraceBuffer buffer;
  if (!stack::trace_tcp_receive_ack(tracer, buffer, {512, 2})) {
    result.set_metric("trace_failed", 1.0);
    return result;
  }
  const auto ws = trace::analyze_working_set(buffer, 32);
  result.set_metric("code_bytes", static_cast<double>(ws.code_bytes()));
  result.set_metric("ro_bytes", static_cast<double>(ws.ro_bytes()));
  result.set_metric("mut_bytes", static_cast<double>(ws.mut_bytes()));
  const auto ws4 = trace::analyze_working_set(buffer, 4);
  result.set_metric("dilution_frac",
                    1.0 - static_cast<double>(ws4.code_bytes()) /
                              static_cast<double>(ws.code_bytes()));
  return result;
}

/// Figure 8's cold-start offsets: the cache-fill cost of the two checksum
/// routines on the paper machine. Deterministic cycle counts.
inline obs::BenchResult gate_checksum() {
  obs::BenchResult result;
  result.name = "gate_checksum";
  result.tolerance = 1e-9;

  const auto fill_cycles = [](std::uint32_t code_bytes, double fixed) {
    sim::MemorySystem cold(sim::MemoryConfig{});
    sim::MemorySystem warm(sim::MemoryConfig{});
    (void)warm.access(sim::Access::kIFetch, 0x10000, code_bytes);
    const auto run = [&](sim::MemorySystem& mem) {
      return mem.access(sim::Access::kIFetch, 0x10000, code_bytes) +
             static_cast<std::uint64_t>(fixed);
    };
    return static_cast<double>(run(cold) - run(warm));
  };
  result.set_metric("bsd.cache_fill_cycles", fill_cycles(682, 80.0));
  result.set_metric("simple.cache_fill_cycles", fill_cycles(288, 30.0));
  return result;
}

/// One fast point each from the Figure 5/6 sweeps: conventional vs LDLP
/// at a moderate and a saturating load, 3 randomised layouts, short
/// horizon. Deterministic in the seed; 5% tolerance absorbs benign
/// floating-point reordering without letting a scheduling change through.
inline obs::BenchResult gate_synth() {
  obs::BenchResult result;
  result.name = "gate_synth";
  result.tolerance = 0.05;

  synth::SweepOptions opt;
  opt.runs = 3;
  opt.run_seconds = 0.2;
  opt.seed = 0x5eed;
  const std::vector<double> rates = {3000.0, 8000.0};

  synth::Stack conv;
  conv.mode = synth::SynthMode::kConventional;
  synth::Stack ldlp = conv;
  ldlp.mode = synth::SynthMode::kLdlp;
  const auto pc = synth::sweep_poisson_rates(conv, rates, opt);
  const auto pl = synth::sweep_poisson_rates(ldlp, rates, opt);

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::string rate = std::to_string(static_cast<int>(rates[i]));
    const auto& c = pc[i].mean;
    const auto& l = pl[i].mean;
    result.set_metric("conv.i_miss@" + rate, c.i_miss_per_msg);
    result.set_metric("conv.d_miss@" + rate, c.d_miss_per_msg);
    result.set_metric("conv.mean_latency_sec@" + rate, c.mean_latency);
    result.set_metric("ldlp.i_miss@" + rate, l.i_miss_per_msg);
    result.set_metric("ldlp.d_miss@" + rate, l.d_miss_per_msg);
    result.set_metric("ldlp.mean_latency_sec@" + rate, l.mean_latency);
    result.set_metric("ldlp.mean_batch@" + rate, l.mean_batch);
  }
  result.set_metric("ldlp.batch_limit",
                    static_cast<double>(pl.front().mean.batch_limit));
  return result;
}

/// A reduced ext_shard_sweep: coalesced flow-sharded LDLP at 1/4/8 shards,
/// equal total load. The acceptance line is the `i_miss_ratio@N` metrics —
/// the busiest shard's i-cache miss count over the single-queue LDLP
/// baseline, which must stay at or below 1. Bit-deterministic in the seed;
/// 5% tolerance, same rationale as gate_synth.
inline obs::BenchResult gate_shard_sweep() {
  obs::BenchResult result;
  result.name = "gate_shard_sweep";
  result.tolerance = 0.05;

  double single_queue_i = 0.0;
  for (const std::uint32_t shards : {1u, 4u, 8u}) {
    par::ShardedRx rx;
    rx.shards = shards;
    rx.flows = 64;
    rx.messages = 6000;
    rx.arrival_rate_hz = 16000.0;
    rx.seed = 0x5eed;
    sim::Machine machine;
    machine.coalesce = 750e-6;
    const sim::Summary r = par::run(rx, machine);
    std::uint64_t max_i = 0;
    for (const sim::Load& s : r.contexts)
      max_i = std::max<std::uint64_t>(max_i, s.i_misses);
    if (shards == 1) single_queue_i = static_cast<double>(max_i);
    const std::string key = "@" + std::to_string(shards);
    result.set_metric("i_miss_ratio" + key,
                      static_cast<double>(max_i) / single_queue_i);
    result.set_metric("i_miss_per_msg" + key, r.i_miss_per_msg);
    result.set_metric("mean_latency_sec" + key, r.mean_latency);
    result.set_metric("mean_batch" + key, r.mean_batch);
    result.set_metric("max_shard_share" + key, par::max_shard_share(r));
  }
  return result;
}

/// A reduced fleet soak on the ldlp::net fabric: 16 hosts on a 4x4
/// fat-tree with two spines, a hand-written fault plan (spine-0 partition,
/// a flapping trunk, a lossy rack), and eight cross-rack TCP streams
/// drip-fed across the fault window. Strict acceptance: every stream
/// completes byte-exact (no truncation allowance — nothing restarts), the
/// partition-heal oracle records zero violations, and the fabric's frame
/// ledger balances (injected == delivered + dropped + in-flight, residual
/// exactly 0 — the near-zero baselines compare absolutely).
inline obs::BenchResult gate_fleet_soak() {
  obs::BenchResult result;
  result.name = "gate_fleet_soak";
  result.tolerance = 0.05;

  net::Fabric fabric({/*host_tick_sec=*/5e-3, /*fault_seed=*/0x9a7e});
  net::FatTreeConfig topo;
  topo.racks = 4;
  topo.hosts_per_rack = 4;
  topo.spines = 2;
  topo.proto.pool_mbufs = 384;
  topo.proto.pool_clusters = 96;
  topo.proto.mode = core::SchedMode::kLdlp;
  const std::vector<net::HostId> hosts = net::build_fat_tree(fabric, topo);

  fault::FaultPlan plan;
  fault::Episode spine_cut;  // correlated: every spine-0 trunk at once
  spine_cut.kind = fault::FaultKind::kPartition;
  spine_cut.start = 0.4;
  spine_cut.end = 0.9;
  spine_cut.domain = fault::FaultDomain::kSwitch;
  spine_cut.domain_index = 0;  // spines are created first: switch id 0
  plan.add(spine_cut);
  fault::Episode trunk_flap;  // rack 1's only healthy uplink flaps too
  trunk_flap.kind = fault::FaultKind::kLinkFlap;
  trunk_flap.start = 0.1;
  trunk_flap.end = 0.7;
  trunk_flap.rate = 0.4;
  trunk_flap.magnitude = 0.05;
  trunk_flap.domain = fault::FaultDomain::kLink;
  trunk_flap.domain_index = 11;  // leaf1<->spine1 (4 access + trunks/rack)
  plan.add(trunk_flap);
  fault::Episode rack_loss;
  rack_loss.kind = fault::FaultKind::kLossBurst;
  rack_loss.start = 0.2;
  rack_loss.end = 0.6;
  rack_loss.rate = 0.3;
  rack_loss.domain = fault::FaultDomain::kRack;
  rack_loss.domain_index = 2;
  plan.add(rack_loss);
  fabric.set_fault_plan(plan, /*seed=*/0x50a6);

  recover::PartitionHealOracle heal;  // truncation NOT allowed: strict
  struct Pair {
    std::size_t src, dst;
    recover::PartitionHealOracle::PairId pid;
    std::uint16_t port;
    stack::PcbId conn = stack::kNoPcb;
    stack::SocketId rx_socket = stack::kNoSocket;
    std::vector<std::uint8_t> payload{};
    std::size_t sent_off = 0;
    std::size_t got = 0;
  };
  std::vector<Pair> pairs;
  for (std::size_t k = 0; k < 8; ++k) {
    // Even hosts send, odd hosts receive; the +5 stride crosses racks.
    Pair p{2 * k, (2 * k + 5) % 16, 0,
           static_cast<std::uint16_t>(4000 + k)};
    p.pid = heal.open_pair(fabric.host(hosts[p.src]).name(),
                           fabric.host(hosts[p.dst]).name());
    p.payload.resize(4000);
    for (std::size_t i = 0; i < p.payload.size(); ++i)
      p.payload[i] = static_cast<std::uint8_t>(i * 13 + k * 101);
    pairs.push_back(std::move(p));
  }
  for (Pair& p : pairs) {
    stack::Host& dst = fabric.host(hosts[p.dst]);
    dst.sockets().set_tap(&heal.rx_tap(dst.name()));
    dst.tcp().set_accept_hook([&heal, &dst, &p](stack::PcbId id) {
      if (p.rx_socket != stack::kNoSocket) return;
      p.rx_socket = dst.tcp().socket_of(id);
      heal.bind_rx(p.pid, p.rx_socket);
    });
    (void)dst.tcp().listen(p.port);
  }
  for (Pair& p : pairs) {
    stack::Host& src = fabric.host(hosts[p.src]);
    src.tcp().set_send_tap(
        [&heal, &p](stack::PcbId id, std::span<const std::uint8_t> bytes) {
          if (id == p.conn) heal.sent(p.pid, bytes);
        });
    p.conn = src.tcp().connect(net::host_ip(static_cast<std::uint32_t>(
                                   p.dst)),
                               p.port);
  }

  std::vector<std::uint8_t> chunk(1024);
  for (int iter = 0; iter < 400; ++iter) {
    bool all_done = true;
    for (Pair& p : pairs) {
      stack::TcpLayer& stcp = fabric.host(hosts[p.src]).tcp();
      // Drip-feed so the streams straddle the partition window instead
      // of finishing before the first episode starts.
      if (p.sent_off < p.payload.size() &&
          stcp.state(p.conn) == stack::TcpState::kEstablished) {
        const std::size_t n =
            std::min<std::size_t>(250, p.payload.size() - p.sent_off);
        if (stcp.send(p.conn,
                      std::span(p.payload).subspan(p.sent_off, n)))
          p.sent_off += n;
      }
      if (p.rx_socket != stack::kNoSocket)
        p.got += fabric.host(hosts[p.dst]).sockets().read(p.rx_socket, chunk);
      if (p.got < p.payload.size()) all_done = false;
    }
    if (all_done && fabric.faults_cleared()) break;
    fabric.run_for(0.05);
  }

  std::size_t completed = 0;
  for (const Pair& p : pairs) completed += p.got >= p.payload.size();
  (void)heal.finalize();
  const net::FabricTotals totals = fabric.totals();
  result.set_metric("completed_pairs", static_cast<double>(completed));
  result.set_metric("heal_violations",
                    static_cast<double>(heal.stats().violations));
  result.set_metric("conservation_residual",
                    static_cast<double>(fabric.conservation_residual()));
  result.set_metric("frames_delivered",
                    static_cast<double>(totals.delivered));
  result.set_metric("frames_dropped", static_cast<double>(
                                          totals.queue_drops +
                                          totals.fault_drops));
  for (const net::HostId id : hosts)
    fabric.host(id).sockets().set_tap(nullptr);
  return result;
}

/// Self-healing overlay gate: a reduced run_gossip_sim (16 hosts on a
/// 4x4 fat-tree, the exact code the gossip soak and the unit tests run)
/// under a fixed schedule — a rack-scoped loss burst plus one mid-storm
/// host restart, so every protocol mechanism (graft, prune, probe-death
/// promotion, restart rejoin) leaves evidence. The whole run is a pure
/// function of the schedule, so the counters are pinned exactly and the
/// tolerance only absorbs float noise in the derived ratios; the
/// near-zero baselines (violations) compare absolutely.
inline obs::BenchResult gate_gossip_soak() {
  obs::BenchResult result;
  result.name = "gate_gossip_soak";
  result.tolerance = 0.05;

  check::Schedule schedule;
  schedule.scenario = "gossip";
  schedule.seed = 7;
  fault::FaultPlan fabric_plan;
  fault::Episode rack_loss;
  rack_loss.kind = fault::FaultKind::kLossBurst;
  rack_loss.start = 0.3;
  rack_loss.end = 0.8;
  rack_loss.rate = 0.3;
  rack_loss.domain = fault::FaultDomain::kRack;
  rack_loss.domain_index = 1;
  fabric_plan.add(rack_loss);
  schedule.injectors.push_back({"fabric", 0x60a1, std::move(fabric_plan)});
  fault::Episode restart;
  restart.kind = fault::FaultKind::kHostRestart;
  restart.start = 0.55;
  restart.end = 0.85;
  fault::FaultPlan churn;
  churn.add(restart);
  schedule.injectors.push_back({"h2", 26, std::move(churn)});

  overlay::GossipSimConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.fault_horizon_sec = 1.2;
  cfg.storm_broadcasts = 16;
  const overlay::GossipSimResult r = overlay::run_gossip_sim(schedule, cfg);

  result.set_metric("pass", r.pass ? 1.0 : 0.0);
  result.set_metric("violations", static_cast<double>(r.violations.size()));
  result.set_metric("delivery_completeness", r.delivery_completeness);
  result.set_metric("relay_redundancy", r.relay_redundancy);
  result.set_metric("deliveries", static_cast<double>(r.deliveries));
  result.set_metric("duplicates", static_cast<double>(r.duplicates));
  result.set_metric("grafts", static_cast<double>(r.grafts));
  result.set_metric("prunes", static_cast<double>(r.prunes));
  result.set_metric("repairs_done", static_cast<double>(r.repairs_done));
  result.set_metric("repair_p99_sec", r.repair_p99_sec);
  result.set_metric("suppressed_ticks",
                    static_cast<double>(r.suppressed_ticks));
  return result;
}

/// Tail-at-scale SLO gate: a reduced tail_fanout sweep (both scheduling
/// modes, N in {1, 4, 16}) whose p99/p999 per cell is pinned. The whole
/// workload is a pure function of the seed, so any drift here is a
/// behavior change in the RPC fan-out path, the fabric, the traffic
/// model, or the histogram — the tolerance only absorbs float noise.
inline obs::BenchResult gate_tail_rpc() {
  rpc::TailSweepConfig sweep;
  sweep.fanouts = {1, 4, 16};
  sweep.base.requests = 120;
  sweep.base.rate_per_sec = 200.0;
  sweep.base.seed = 1;
  obs::BenchResult result = rpc::run_tail_sweep(sweep, /*jobs=*/1);
  result.name = "gate_tail_rpc";
  result.tolerance = 0.05;
  return result;
}

/// Wheel-vs-scan cost gate: a deterministic retry-churn workload (the
/// arm/cancel/fire mix a busy host's TCP/RPC/overlay surfaces generate)
/// driven through the TimerWheel, next to the analytic cost of the
/// legacy per-pass scan it replaced (every pass visits every live
/// timer to re-derive the minimum deadline). The acceptance line is
/// `scan_to_wheel_ratio` — how many deadline visits the wheel turns
/// into O(1) bookkeeping — which must not sink; every count is an exact
/// function of the seed, so the tolerance only absorbs float noise.
inline obs::BenchResult gate_timer_wheel() {
  obs::BenchResult result;
  result.name = "gate_timer_wheel";
  result.tolerance = 0.05;

  time::TimerWheel wheel;
  Rng rng(0x7ee1);
  constexpr std::size_t kConns = 1024;
  constexpr int kPasses = 2000;  // 2 simulated seconds of 1 ms passes
  double t = 0.0;
  std::vector<time::TimerId> ids(kConns, time::kNoTimer);
  const auto rearm = [&](std::size_t i) {
    ids[i] = wheel.arm(t + rng.uniform(0.01, 0.4),
                       time::TimerClass::kLiveness, [] {});
  };
  for (std::size_t i = 0; i < kConns; ++i) rearm(i);
  std::uint64_t scan_visits = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    t += 1e-3;
    wheel.advance_to(t);
    // An eighth of the connections get "ACKed" each pass: cancel the
    // rtx timer and arm the next one — the dominant op mix in steady
    // state. Fired timers (timeouts) re-arm their backoff.
    for (std::size_t k = 0; k < kConns / 8; ++k) {
      const std::size_t i = static_cast<std::size_t>(rng.bounded(kConns));
      (void)wheel.cancel(ids[i]);
      rearm(i);
    }
    for (std::size_t i = 0; i < kConns; ++i)
      if (!wheel.armed(ids[i])) rearm(i);
    scan_visits += kConns;  // the legacy scan visits every PCB per pass
  }
  const time::WheelStats& ws = wheel.stats();
  const double wheel_ops = static_cast<double>(ws.arms + ws.cancels +
                                               ws.fires + ws.cascades);
  result.set_metric("arms", static_cast<double>(ws.arms));
  result.set_metric("fires", static_cast<double>(ws.fires));
  result.set_metric("cancels", static_cast<double>(ws.cancels));
  result.set_metric("cascades", static_cast<double>(ws.cascades));
  result.set_metric("max_armed", static_cast<double>(ws.max_armed));
  result.set_metric("scan_visits", static_cast<double>(scan_visits));
  result.set_metric("scan_to_wheel_ratio",
                    static_cast<double>(scan_visits) / wheel_ops);
  return result;
}

/// The batching-vs-pipelining separation (fig_pipeline, ROADMAP item 2),
/// pinned on a short deterministic trace near LDLP saturation: LDLP pays
/// i-misses per batch (the four stage bodies overflow one 8 KB i-cache)
/// where the pipelined stages keep their code resident, and the pipeline
/// pays around twice the d-misses at this load (the same zero-copy
/// message buffer is pulled into four private d-caches). Both
/// separations must hold; the full load sweep (and the hybrid's win past
/// the pipeline's saturation point) lives in fig_pipeline.
inline obs::BenchResult gate_pipeline() {
  obs::BenchResult result;
  result.name = "gate_pipeline";
  result.tolerance = 0.05;

  traffic::SelfSimilarConfig tc;
  tc.mean_rate_per_sec = 18000.0;
  tc.duration_sec = 0.5;
  const auto sizes = traffic::internet552_sizes();
  const auto trace = traffic::generate_self_similar_trace(tc, *sizes, 0x919e);

  const pipe::RxMode modes[] = {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined,
                                pipe::RxMode::kHybrid};
  sim::Summary runs[3];
  for (std::size_t mi = 0; mi < 3; ++mi) {
    runs[mi] = pipe::machine(modes[mi], 8).run(pipe::arrivals(trace));
    const std::string key = pipe::rx_mode_name(modes[mi]);
    result.set_metric("i_miss_per_msg." + key, runs[mi].i_miss_per_msg);
    result.set_metric("d_miss_per_msg." + key, runs[mi].d_miss_per_msg);
    result.set_metric("p99_latency_usec." + key,
                      runs[mi].p99_latency * 1e6);
    result.set_metric("mean_batch." + key, runs[mi].mean_batch);
  }
  // The two-sided separation the figure's argument turns on.
  result.set_metric("i_miss_ldlp_minus_pipelined",
                    runs[0].i_miss_per_msg - runs[1].i_miss_per_msg);
  result.set_metric("d_miss_pipelined_over_ldlp",
                    runs[1].d_miss_per_msg / runs[0].d_miss_per_msg);
  return result;
}

struct GateCase {
  const char* name;
  obs::BenchResult (*run)();
};

inline std::vector<GateCase> suite() {
  return {
      {"gate_blocking", &gate_blocking},
      {"gate_working_set", &gate_working_set},
      {"gate_checksum", &gate_checksum},
      {"gate_synth", &gate_synth},
      {"gate_shard_sweep", &gate_shard_sweep},
      {"gate_fleet_soak", &gate_fleet_soak},
      {"gate_gossip_soak", &gate_gossip_soak},
      {"gate_tail_rpc", &gate_tail_rpc},
      {"gate_timer_wheel", &gate_timer_wheel},
      {"gate_pipeline", &gate_pipeline},
  };
}

/// Gate one case against `baseline_dir`. Returns true on pass; on any
/// failure (missing baseline, drift) prints a report to stderr.
inline bool gate_case(const GateCase& gate, const std::string& baseline_dir) {
  const obs::BenchResult current = gate.run();
  std::string error;
  const auto baseline = obs::BenchResult::load_file(
      baseline_dir + "/" + current.file_name(), &error);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "%s: no baseline (%s) — run `bench_regress --update`\n",
                 gate.name, error.c_str());
    return false;
  }
  const obs::CompareReport report = obs::compare_results(*baseline, current);
  if (!report.pass)
    std::fprintf(stderr, "%s: REGRESSION\n%s", gate.name,
                 report.describe().c_str());
  return report.pass;
}

}  // namespace ldlp::regress
