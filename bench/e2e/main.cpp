// ldlp_e2e — one end-to-end benchmark of the real stack.
//
// Two real stack::Hosts, one process, one thread, five seeded workloads,
// three server schedules (conv / ldlp / staged). Each workload runs three
// passes over the same driver code:
//
//  1. timed    — untraced cells, 11 rounds with the schedules interleaved
//                round by round, each cell measured in 20 ms windows; gives
//                ops/s, p50/p90 latency and set-up time.
//  2. footprint — a fixed-count pass (500 warm-up + 16000 ops per cell)
//                that streams the server's calls through the paper's
//                machine and reads exact counters; it repeats bit for bit.
//  3. traced   — wall-clock spans around every call into a layer; gives
//                the per-layer ns/op split and a Chrome trace.
//
// Prints every metric with its unit, writes BENCH_e2e.json (and
// TRACE_e2e_<workload>.json) under --out_dir, and exits 1 if any
// correctness check fails. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "env.hpp"
#include "obs/json.hpp"

#ifndef LDLP_E2E_BUILD_TYPE
#define LDLP_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ldlp;
using namespace ldlp::e2e;

constexpr const char* kUsage =
    "usage: ldlp_e2e [--workload NAME] [--seed N] [--seconds S] "
    "[--trace 0|1] [--out_dir DIR] [--smoke]\n"
    "  --workload  one of rr1_tcp64 rr24_tcp64 stream_tcp1460 "
    "burst_udp_mix churn_tcp64 (default: all)\n"
    "  --seed      input seed (default 1)\n"
    "  --seconds   timed-pass length per workload (default 10)\n"
    "  --trace     0: last line holds the end-to-end metrics and the traced\n"
    "              pass is skipped; 1: last line holds the per-layer\n"
    "              metrics (default: both)\n"
    "  --out_dir   where BENCH_e2e.json and TRACE_e2e_*.json go (default .)\n"
    "  --smoke     ~300 ops per cell with every check on (for ctest)\n"
    "Flags take --name=value or --name value.\n";

struct Options {
  std::string workload;  ///< Empty: every workload.
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = -1;  ///< -1 both metric sets, 0 end-to-end, 1 per-layer.
  std::string out_dir = ".";
  bool smoke = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "ldlp_e2e: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (!arg.starts_with("--")) usage_error("unexpected argument " +
                                            std::string(arg));
    std::string_view name = arg.substr(2);
    std::string_view value;
    if (const auto eq = name.find('='); eq != std::string_view::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("--" + std::string(name) + " needs a value");
    }
    const auto bad = [&] {
      usage_error("bad value for --" + std::string(name) + ": " +
                  std::string(value));
    };
    const char* end = value.data() + value.size();
    if (name == "workload") {
      if (find_workload(value) == nullptr) bad();
      o.workload = value;
    } else if (name == "seed") {
      if (std::from_chars(value.data(), end, o.seed).ptr != end) bad();
    } else if (name == "seconds") {
      if (std::from_chars(value.data(), end, o.seconds).ptr != end ||
          !(o.seconds > 0.0 && o.seconds <= 3600.0))
        bad();
    } else if (name == "trace") {
      if (value != "0" && value != "1") bad();
      o.trace = value == "1" ? 1 : 0;
    } else if (name == "out_dir") {
      o.out_dir = value;
    } else {
      usage_error("unknown flag --" + std::string(name));
    }
  }
  return o;
}

/// Pass sizes. The timed pass splits --seconds over rounds x schedules.
struct Plan {
  std::size_t rounds = 11;
  std::size_t traced_rounds = 2;
  std::int64_t round_ns = 0;      ///< 0: rounds are op-bounded (smoke).
  std::uint64_t round_ops = 300;  ///< Smoke round length.
  std::uint64_t warm_ops = 2000;
  std::uint64_t fp_warm_ops = 500;
  std::uint64_t fp_ops = 16000;
};

Plan make_plan(const Options& o) {
  Plan p;
  if (o.smoke) {
    p.rounds = 1;
    p.traced_rounds = 1;
    p.warm_ops = 100;
    p.fp_warm_ops = 100;
    p.fp_ops = 300;
  } else {
    p.round_ns = static_cast<std::int64_t>(
        o.seconds * 1e9 / static_cast<double>(p.rounds * kScheds));
  }
  return p;
}

[[nodiscard]] std::uint64_t per_slot(std::uint64_t total, const Workload& wl) {
  const std::size_t slots = op_slots(wl);
  return (total + slots - 1) / slots;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

[[nodiscard]] double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

[[nodiscard]] std::size_t sched_index(Sched s) {
  return static_cast<std::size_t>(s);
}

/// Everything one workload's passes produce.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

// ---- timed and traced cells -----------------------------------------------

/// A timed cell's measured stretch is cut into windows of this length.
/// Neighbours on a shared host slow whole stretches of windows (by up to
/// 2x) and never speed one up, so the estimators below take a
/// window quantile on the fast side instead of the median.
constexpr std::int64_t kWindowNs = 20'000'000;
constexpr double kFastRateQ = 0.9;     ///< Quantile of window ops/s.
constexpr double kFastLatencyQ = 0.1;  ///< Quantile of window p50 / p90.

[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Per-window values of one schedule, over every cell of a pass.
struct Windows {
  std::vector<double> ops_s, p50, p90;
};

struct Cell {
  double p99 = 0.0, p999 = 0.0;  ///< Over the cell's whole stretch.
  double setup_s = 0.0;
  std::uint64_t life_ops = 0;  ///< Ops over the cell's whole life.
};

/// One cell: fresh hosts, set-up and warm-up (timed as set-up), then the
/// measured stretch window by window, then drain, teardown and leak checks.
Cell run_cell(const Workload& wl, Sched s, const Inputs& in, const Plan& plan,
              Probe& probe, Windows& w, Outcome& out) {
  Cell c;
  const std::int64_t t0 = wall_ns();
  Env env(wl, s, in, probe);
  env.setup();
  env.run_quota(per_slot(plan.warm_ops, wl));
  c.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

  LatencyHistogram cell_hist;
  LatencyHistogram win_hist;
  const std::uint64_t started0 = env.started();
  const std::uint64_t lost0 = env.lost();
  env.open(&win_hist);
  probe.keep_spans(true);
  const std::int64_t start = wall_ns();
  std::int64_t win_start = start;
  std::uint64_t win_done = env.completed();
  const auto close_window = [&](std::int64_t now, bool keep) {
    if (keep) {
      w.ops_s.push_back(static_cast<double>(env.completed() - win_done) /
                        (static_cast<double>(now - win_start) * 1e-9));
      w.p50.push_back(win_hist.quantile_us(0.50));
      w.p90.push_back(win_hist.quantile_us(0.90));
    }
    cell_hist.merge(win_hist);
    win_hist.reset();
    win_start = now;
    win_done = env.completed();
  };
  if (plan.round_ns > 0) {
    // Burst windows are whole laps of the trace, so every window offers
    // the same input; the stretch before the first lap boundary is not a
    // whole lap and is not kept. Other windows are fixed wall-clock
    // stretches. The stub after the last window is never kept.
    const bool by_lap = wl.kind == Kind::kBurst;
    const std::size_t kept0 = w.ops_s.size();
    std::uint64_t lap = env.trace_laps();
    bool whole = !by_lap;
    for (std::int64_t now = start; now - start < plan.round_ns;) {
      for (int k = 0; k < 16; ++k) env.step();
      now = wall_ns();
      if (by_lap ? env.trace_laps() != lap : now - win_start >= kWindowNs) {
        close_window(now, whole);
        whole = true;
        lap = env.trace_laps();
      }
    }
    // A cell too short for one whole window keeps what it measured.
    if (w.ops_s.size() == kept0) close_window(wall_ns(), true);
  } else {
    // Bounded, so a broken cell fails its checks instead of hanging.
    for (std::uint64_t n = 0;
         env.completed() - win_done < plan.round_ops && n < 10'000'000; ++n)
      env.step();
    close_window(wall_ns(), true);
  }
  probe.keep_spans(false);
  env.finish();

  c.p99 = cell_hist.quantile_us(0.99);
  c.p999 = cell_hist.quantile_us(0.999);
  c.life_ops = env.completed();
  out.attempted += env.started() - started0;
  out.failed += env.lost() - lost0;
  out.errors.insert(out.errors.end(), env.errors().begin(),
                    env.errors().end());
  return c;
}

struct Timed {
  std::array<Windows, kScheds> windows;
  std::array<std::vector<double>, kScheds> p99, p999;
  std::vector<double> setup_s;  ///< Per round, summed over the schedules.
};

Timed timed_pass(const Workload& wl, const Inputs& in, const Plan& plan,
                 Outcome& out) {
  Timed t;
  for (std::size_t round = 0; round < plan.rounds; ++round) {
    double setup = 0.0;
    // Rotate the order so no schedule always runs first after a set-up.
    for (std::size_t k = 0; k < kScheds; ++k) {
      const Sched s = kAllScheds[(round + k) % kScheds];
      const std::size_t i = sched_index(s);
      Probe probe;
      const Cell c = run_cell(wl, s, in, plan, probe, t.windows[i], out);
      t.p99[i].push_back(c.p99);
      t.p999[i].push_back(c.p999);
      setup += c.setup_s;
    }
    t.setup_s.push_back(setup);
  }
  return t;
}

struct Traced {
  std::array<Windows, kScheds> windows;
  std::array<std::array<std::array<std::int64_t, kBnds>, kSides>, kScheds>
      ns{};
  std::array<std::uint64_t, kScheds> life_ops{};
  std::array<std::vector<Span>, kScheds> spans;
};

/// Spans kept for the Chrome trace, per schedule (~50k per file).
constexpr std::size_t kKeptSpans = 16'000;

Traced traced_pass(const Workload& wl, const Inputs& in, const Plan& plan,
                   Outcome& out) {
  Traced t;
  for (std::size_t round = 0; round < plan.traced_rounds; ++round) {
    for (std::size_t k = 0; k < kScheds; ++k) {
      const Sched s = kAllScheds[(round + k) % kScheds];
      const std::size_t i = sched_index(s);
      Probe probe;
      probe.enable_spans(round == 0 ? kKeptSpans : 0);
      t.life_ops[i] +=
          run_cell(wl, s, in, plan, probe, t.windows[i], out).life_ops;
      for (std::size_t side = 0; side < kSides; ++side)
        for (std::size_t b = 0; b < kBnds; ++b)
          t.ns[i][side][b] += probe.ns(static_cast<Side>(side),
                                       static_cast<Bnd>(b));
      if (round == 0) t.spans[i] = probe.kept();
    }
  }
  return t;
}

// ---- footprint pass ---------------------------------------------------------

/// Table 1 layer classes the paper-machine i-misses are reported for.
constexpr std::array<const char*, 10> kSimClasses = {
    "device",      "ethernet",     "ip",
    "tcp",         "socket_low",   "socket_high",
    "kernel_entry", "process_control", "buffer_mgmt",
    "copy_checksum"};
constexpr std::array<const char*, 5> kLayerNames = {"eth", "ip", "tcp", "udp",
                                                    "socket"};
constexpr std::array<const char*, 3> kStageNames = {"parse", "steer", "proto"};

struct Fp {
  double ops = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  double stall = 0.0;
  std::array<double, kSimClasses.size()> i_miss{};
  double d_miss = 0.0;
  std::array<double, kLayerNames.size()> batch{};
  double max_queue = 0.0;
  double rx_drops = 0.0;
  std::array<double, kStageNames.size()> stage_act{};
  double stage_drops = 0.0;
  double fast_path = 0.0, pcb_hit = 0.0, pure_acks = 0.0, rtx = 0.0;
  double frames = 0.0;
  double mbuf_allocs = 0.0, cluster_allocs = 0.0, alloc_failures = 0.0;
  double arms = 0.0, cancels = 0.0;
};

Fp footprint_cell(const Workload& wl, Sched s, const Inputs& in,
                  const Plan& plan, stack::StackTracer& tracer, Outcome& out) {
  Footprint paper(tracer);
  Probe probe;
  probe.attach_footprint(&paper);
  Env env(wl, s, in, probe);
  env.enable_digest();
  env.setup();
  env.run_quota(per_slot(plan.fp_warm_ops, wl));  // warms the paper caches
  sim::MemorySystem& mem = paper.memory();
  mem.reset_stats();
  const Counters a = env.counters();
  const std::uint64_t started0 = env.started();
  const std::uint64_t lost0 = env.lost();
  env.run_quota(per_slot(plan.fp_ops, wl));
  const Counters b = env.counters();
  out.attempted += env.started() - started0;
  out.failed += env.lost() - lost0;

  Fp f;
  f.ops = static_cast<double>(b.completed - a.completed);
  const auto per_op = [&](double v) { return ratio(v, f.ops); };
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  f.stall = per_op(static_cast<double>(mem.total_stall_cycles()));
  const std::vector<sim::ScopeMisses>& scopes = mem.scope_misses();
  for (std::size_t c = 0; c < scopes.size(); ++c) {
    if (c < f.i_miss.size())
      f.i_miss[c] = per_op(static_cast<double>(scopes[c].i_misses));
    f.d_miss += per_op(static_cast<double>(scopes[c].d_misses));
  }
  for (std::size_t l = 0; l < kLayerNames.size(); ++l) {
    const core::LayerStats& x = b.server_layers[l];
    const core::LayerStats& y = a.server_layers[l];
    f.batch[l] = ratio(d(x.processed, y.processed),
                       d(x.activations, y.activations));
    f.max_queue = std::max(f.max_queue, static_cast<double>(x.max_queue));
  }
  f.rx_drops = 1e3 * per_op(d(b.server_dev.rx_drops, a.server_dev.rx_drops));
  for (std::size_t st = 0; st < kStageNames.size(); ++st) {
    f.stage_act[st] =
        per_op(d(b.stages[st].activations, a.stages[st].activations));
    f.stage_drops += 1e3 * per_op(d(b.stages[st].drops, a.stages[st].drops));
  }
  const double fast = d(b.server_pcbs.fast_path, a.server_pcbs.fast_path);
  const double slow = d(b.server_pcbs.slow_path, a.server_pcbs.slow_path);
  f.fast_path = ratio(fast, fast + slow);
  const double hits =
      d(b.server_tcp.pcb_cache_hits, a.server_tcp.pcb_cache_hits);
  f.pcb_hit = ratio(
      hits,
      hits + d(b.server_tcp.pcb_cache_misses, a.server_tcp.pcb_cache_misses));
  f.pure_acks = per_op(d(b.server_pcbs.pure_acks, a.server_pcbs.pure_acks));
  f.rtx = 1e3 * per_op(d(b.server_pcbs.retransmits + b.client_pcbs.retransmits,
                         a.server_pcbs.retransmits + a.client_pcbs.retransmits));
  f.frames = per_op(d(b.client_dev.tx_frames + b.server_dev.tx_frames,
                      a.client_dev.tx_frames + a.server_dev.tx_frames));
  f.mbuf_allocs = per_op(d(b.server_pool.mbuf_allocs, a.server_pool.mbuf_allocs));
  f.cluster_allocs =
      per_op(d(b.server_pool.cluster_allocs, a.server_pool.cluster_allocs));
  f.alloc_failures =
      d(b.server_pool.alloc_failures + b.client_pool.alloc_failures,
        a.server_pool.alloc_failures + a.client_pool.alloc_failures);
  f.arms = per_op(d(b.server_wheel.arms, a.server_wheel.arms));
  f.cancels = per_op(d(b.server_wheel.cancels, a.server_wheel.cancels));

  env.finish();
  f.digest = env.digest();
  f.completed = env.completed();
  out.errors.insert(out.errors.end(), env.errors().begin(),
                    env.errors().end());
  return f;
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool e2e;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  std::array<unsigned, 12> regs{};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  std::string s(reinterpret_cast<const char*>(regs.data()), 48);
  s = s.c_str();  // stop at the terminator
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool write_chrome_trace(const std::string& path,
                        const std::array<std::vector<Span>, kScheds>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& v : spans)
    for (const Span& s : v) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  const auto sep = [&] {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
  };
  // One process per schedule x host, one thread (track) per boundary.
  constexpr std::array<const char*, kSides> kSideNames = {"client", "server"};
  for (std::size_t s = 0; s < kScheds; ++s) {
    for (std::size_t side = 0; side < kSides; ++side) {
      const std::size_t pid = s * kSides + side + 1;
      sep();
      std::fprintf(f,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"args\":{\"name\":\"%s.%s\"}}",
                   pid, sched_name(kAllScheds[s]), kSideNames[side]);
      for (std::size_t b = 0; b < kBnds; ++b) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                     "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     pid, b + 1, bnd_name(static_cast<Bnd>(b)));
      }
    }
  }
  for (std::size_t s = 0; s < kScheds; ++s) {
    for (const Span& sp : spans[s]) {
      sep();
      const std::size_t pid = s * kSides + static_cast<std::size_t>(sp.side) + 1;
      const double ts = static_cast<double>(sp.start_ns - origin) / 1e3;
      const double dur = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
      if (bnd_is_batch(sp.bnd)) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%zu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frames\":%u}}",
                     bnd_name(sp.bnd), pid,
                     static_cast<std::size_t>(sp.bnd) + 1, ts, dur, sp.arg);
      } else {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%zu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                     "\"flow\":%u}}",
                     bnd_name(sp.bnd), pid,
                     static_cast<std::size_t>(sp.bnd) + 1, ts, dur, sp.arg,
                     static_cast<unsigned>(sp.flow));
      }
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

obs::Json samples_json(const std::vector<double>& v) {
  obs::Json a = obs::Json::array();
  for (const double x : v) a.push_back(obs::Json(x));
  return a;
}

struct WorkloadReport {
  Outcome outcome;
  std::vector<Metric> metrics;
  obs::Json samples = obs::Json::object();  ///< Raw windows and rounds.
};

WorkloadReport run_workload(const Workload& wl, const Options& opt,
                            const Plan& plan, stack::StackTracer& tracer) {
  WorkloadReport rep;
  Outcome& out = rep.outcome;
  const Inputs in(wl, opt.seed);

  // The fixed-count pass runs first so peak RSS is read after a fixed
  // amount of work. The timed cells do as much work as the machine
  // allows, and a host's memory grows with it: the socket layer never
  // frees a socket, so churn adds two per op.
  std::array<Fp, kScheds> fp;
  for (const Sched s : kAllScheds)
    fp[sched_index(s)] = footprint_cell(wl, s, in, plan, tracer, out);
  const double rss_mb = peak_rss_mb();
  const Timed timed = timed_pass(wl, in, plan, out);
  for (std::size_t i = 1; i < kScheds; ++i) {
    if (fp[i].digest != fp[0].digest || fp[i].completed != fp[0].completed)
      out.errors.push_back(std::string(wl.name) +
                           ": app-visible results differ between " +
                           sched_name(kAllScheds[0]) + " and " +
                           sched_name(kAllScheds[i]));
  }
  std::optional<Traced> traced;
  if (opt.trace != 0) traced = traced_pass(wl, in, plan, out);

  std::vector<Metric>& m = rep.metrics;
  const auto e2e = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit, true});
  };
  const auto layer = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit, false});
  };

  for (const Sched s : kAllScheds) {
    const std::size_t i = sched_index(s);
    const std::string n = sched_name(s);
    const Windows& w = timed.windows[i];
    e2e("ops_per_s." + n, quantile(w.ops_s, kFastRateQ), "ops/s");
    e2e("p50_us." + n, quantile(w.p50, kFastLatencyQ), "us");
    e2e("paper_stall_cycles_per_op." + n, fp[i].stall, "cycles");
    rep.samples.set("ops_per_s." + n, samples_json(w.ops_s));
    rep.samples.set("p50_us." + n, samples_json(w.p50));
    rep.samples.set("p90_us." + n, samples_json(w.p90));
  }
  e2e("setup_s", median(timed.setup_s), "s");
  rep.samples.set("setup_s", samples_json(timed.setup_s));

  if (traced.has_value()) {
    const Traced& t = *traced;
    const auto ns_per_op = [&](std::size_t i, Side side, Bnd b) {
      return ratio(static_cast<double>(
                       t.ns[i][static_cast<std::size_t>(side)]
                           [static_cast<std::size_t>(b)]),
                   static_cast<double>(t.life_ops[i]));
    };
    const auto both = [&](std::size_t i, Bnd b) {
      return ns_per_op(i, Side::kClient, b) + ns_per_op(i, Side::kServer, b);
    };
    for (const Sched s : {Sched::kConv, Sched::kLdlp}) {
      layer(std::string("stack.dev.rx_ns_per_op.") + sched_name(s),
            ns_per_op(sched_index(s), Side::kServer, Bnd::kDev), "ns");
    }
    for (const Sched s : {Sched::kConv, Sched::kLdlp}) {
      layer(std::string("core.graph.rx_ns_per_op.") + sched_name(s),
            ns_per_op(sched_index(s), Side::kServer, Bnd::kGraph), "ns");
    }
    layer("pipe.pump_ns_per_op.staged",
          ns_per_op(sched_index(Sched::kStaged), Side::kServer, Bnd::kPipe),
          "ns");
    for (const Sched s : kAllScheds) {
      const std::size_t i = sched_index(s);
      const std::string n = sched_name(s);
      layer("stack.socket.read_ns_per_op." + n, both(i, Bnd::kRead), "ns");
      layer("stack.tx_ns_per_op." + n, both(i, Bnd::kTx), "ns");
      layer("stack.ctl_ns_per_op." + n, both(i, Bnd::kCtl), "ns");
      layer("time.advance_ns_per_op." + n, both(i, Bnd::kAdvance), "ns");
      double client = 0.0;
      for (std::size_t b = 0; b < kBnds; ++b)
        client += ns_per_op(i, Side::kClient, static_cast<Bnd>(b));
      layer("client.ns_per_op." + n, client, "ns");
      layer("trace.overhead." + n,
            ratio(quantile(t.windows[i].ops_s, kFastRateQ),
                  quantile(timed.windows[i].ops_s, kFastRateQ)) -
                1.0,
            "ratio");
    }
  }

  for (std::size_t l = 0; l < kLayerNames.size(); ++l)
    for (const Sched s : {Sched::kLdlp, Sched::kStaged})
      layer(std::string("core.") + kLayerNames[l] + ".batch." +
                sched_name(s),
            fp[sched_index(s)].batch[l], "msgs");
  for (const Sched s : kAllScheds) {
    const Fp& f = fp[sched_index(s)];
    const std::string n = sched_name(s);
    layer("core.max_queue." + n, f.max_queue, "msgs");
    layer("stack.dev.rx_drops_per_kop." + n, f.rx_drops, "1/kop");
  }
  const Fp& staged = fp[sched_index(Sched::kStaged)];
  for (std::size_t st = 0; st < kStageNames.size(); ++st)
    layer(std::string("pipe.") + kStageNames[st] + ".activations_per_op.staged",
          staged.stage_act[st], "1/op");
  layer("pipe.drops_per_kop.staged", staged.stage_drops, "1/kop");
  for (const Sched s : kAllScheds) {
    const Fp& f = fp[sched_index(s)];
    const std::string n = sched_name(s);
    layer("stack.tcp.fast_path_ratio." + n, f.fast_path, "ratio");
    layer("stack.tcp.pcb_cache_hit_ratio." + n, f.pcb_hit, "ratio");
    layer("stack.tcp.pure_acks_per_op." + n, f.pure_acks, "1/op");
    layer("stack.tcp.retransmits_per_kop." + n, f.rtx, "1/kop");
    layer("stack.frames_per_op." + n, f.frames, "1/op");
    layer("buf.mbuf_allocs_per_op." + n, f.mbuf_allocs, "1/op");
    layer("buf.cluster_allocs_per_op." + n, f.cluster_allocs, "1/op");
    layer("buf.alloc_failures." + n, f.alloc_failures, "count");
    layer("time.arms_per_op." + n, f.arms, "1/op");
    layer("time.cancels_per_op." + n, f.cancels, "1/op");
  }
  for (std::size_t c = 0; c < kSimClasses.size(); ++c)
    for (const Sched s : kAllScheds)
      layer(std::string("sim.") + kSimClasses[c] + ".i_miss_per_op." +
                sched_name(s),
            fp[sched_index(s)].i_miss[c], "1/op");
  for (const Sched s : kAllScheds)
    layer(std::string("sim.d_miss_per_op.") + sched_name(s),
          fp[sched_index(s)].d_miss, "1/op");
  for (const Sched s : kAllScheds) {
    const std::size_t i = sched_index(s);
    // Per window like p50, but it does not repeat within 10 % between runs
    // on a shared host, so it is not gated.
    layer(std::string("lat.p90_us.") + sched_name(s),
          quantile(timed.windows[i].p90, kFastLatencyQ), "us");
    layer(std::string("lat.p99_us.") + sched_name(s), median(timed.p99[i]),
          "us");
    layer(std::string("lat.p999_us.") + sched_name(s), median(timed.p999[i]),
          "us");
  }
  layer("fail_ratio",
        ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio");
  e2e("peak_rss_mb", rss_mb, "MB");

  if (traced.has_value()) {
    const std::string path =
        opt.out_dir + "/TRACE_e2e_" + std::string(wl.name) + ".json";
    if (!write_chrome_trace(path, traced->spans))
      out.errors.push_back("cannot write " + path);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fputs(
      "ldlp_e2e: built without optimisation; timings would be meaningless. "
      "Configure with -DCMAKE_BUILD_TYPE=Release.\n",
      stderr);
  return 2;
#endif
  const Options opt = parse_options(argc, argv);
  const Plan plan = make_plan(opt);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) usage_error("cannot create --out_dir " + opt.out_dir);

  std::vector<const Workload*> workloads;
  for (const Workload& wl : kWorkloads)
    if (opt.workload.empty() || opt.workload == wl.name)
      workloads.push_back(&wl);

  obs::Json config = obs::Json::object();
  config.set("seed", obs::Json(opt.seed));
  config.set("workload", obs::Json(opt.workload.empty() ? "all"
                                                        : opt.workload));
  config.set("seconds", obs::Json(opt.seconds));
  config.set("trace", obs::Json(static_cast<std::int64_t>(opt.trace)));
  config.set("smoke", obs::Json(opt.smoke));
  config.set("rounds", obs::Json(std::uint64_t{plan.rounds}));
  config.set("round_seconds",
             obs::Json(static_cast<double>(plan.round_ns) * 1e-9));
  config.set("build_type", obs::Json(LDLP_E2E_BUILD_TYPE));
  config.set("compiler", obs::Json(__VERSION__));
  config.set("nproc",
             obs::Json(std::uint64_t{std::thread::hardware_concurrency()}));
  config.set("cpu_model", obs::Json(cpu_model()));
  std::printf("ldlp_e2e seed=%llu seconds=%g build=%s cpu=\"%s\"\n",
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              LDLP_E2E_BUILD_TYPE, cpu_model().c_str());

  stack::StackTracer tracer;
  obs::Json bench = obs::Json::object();
  bench.set("schema", obs::Json("ldlp.e2e.v1"));
  bench.set("config", std::move(config));
  obs::Json results = obs::Json::array();
  obs::Json last_metrics = obs::Json::object();
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  for (const Workload* wl : workloads) {
    const std::int64_t t0 = wall_ns();
    const WorkloadReport rep = run_workload(*wl, opt, plan, tracer);
    const Outcome& out = rep.outcome;
    correct = correct && out.errors.empty();
    attempted += out.attempted;
    failed += out.failed;

    obs::Json metrics = obs::Json::object();
    for (const bool e2e : {true, false}) {
      std::printf("[%s] %s metrics\n", wl->name,
                  e2e ? "end-to-end" : "per-layer");
      for (const Metric& mt : rep.metrics) {
        if (mt.e2e != e2e) continue;
        std::printf("  %-46s %14.6g %s\n", mt.name.c_str(), mt.value,
                    mt.unit);
        obs::Json entry = obs::Json::object();
        entry.set("value", obs::Json(mt.value));
        entry.set("unit", obs::Json(mt.unit));
        metrics.set(mt.name, entry);
        if (opt.trace == -1 || (opt.trace == 0) == mt.e2e) {
          const std::string key =
              workloads.size() == 1 ? mt.name
                                    : std::string(wl->name) + "." + mt.name;
          last_metrics.set(key, std::move(entry));
        }
      }
    }
    std::printf("[%s] %s: %llu ops attempted, %llu failed, %.1f s\n",
                wl->name,
                out.errors.empty() ? "all checks passed" : "CHECKS FAILED",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                static_cast<double>(wall_ns() - t0) * 1e-9);
    obs::Json errors = obs::Json::array();
    for (const std::string& e : out.errors) {
      std::printf("  FAIL %s\n", e.c_str());
      errors.push_back(obs::Json(e));
    }
    obs::Json r = obs::Json::object();
    r.set("name", obs::Json(wl->name));
    r.set("why", obs::Json(wl->why));
    r.set("correct", obs::Json(out.errors.empty()));
    r.set("attempted", obs::Json(out.attempted));
    r.set("failed", obs::Json(out.failed));
    r.set("errors", std::move(errors));
    r.set("metrics", std::move(metrics));
    r.set("samples", rep.samples);
    results.push_back(std::move(r));
  }
  bench.set("workloads", std::move(results));

  const std::string bench_path = opt.out_dir + "/BENCH_e2e.json";
  if (std::FILE* f = std::fopen(bench_path.c_str(), "w")) {
    const std::string text = bench.dump(2) + "\n";
    std::fputs(text.c_str(), f);
    correct = std::fclose(f) == 0 && correct;
  } else {
    std::fprintf(stderr, "ldlp_e2e: cannot write %s\n", bench_path.c_str());
    correct = false;
  }

  obs::Json line = obs::Json::object();
  line.set("correct", obs::Json(correct));
  line.set("attempted", obs::Json(attempted));
  line.set("failed", obs::Json(failed));
  line.set("metrics", std::move(last_metrics));
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}
