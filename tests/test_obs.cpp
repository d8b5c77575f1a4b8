// ldlp::obs — registry, JSON model, snapshot schema (golden file), bench
// result round-trip and the compare rule that drives the perf gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/stack_graph.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/bench_result.hpp"
#include "obs/bridge.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "overlay/overlay.hpp"
#include "par/worker_pool.hpp"
#include "recover/convergence.hpp"
#include "recover/partition_heal.hpp"
#include "recover/watchdog.hpp"
#include "stack/host_pair.hpp"
#include "wire/ipv4.hpp"

#ifndef LDLP_GOLDEN_DIR
#define LDLP_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace ldlp;

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, CounterGaugeBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("msgs");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("msgs"), &c) << "register-once must find, not dup";

  obs::Gauge& g = reg.gauge("depth");
  g.set(3.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  EXPECT_EQ(reg.size(), 2u);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(reg.size(), 2u) << "reset zeroes values, keeps names";
}

TEST(ObsRegistry, HistogramPercentiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat", 1e-6, 10.0, 40);
  for (int i = 1; i <= 100; ++i) h.add(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 0.0505, 0.0005);
  // Log-bucketed: bounded relative error, not exact.
  EXPECT_NEAR(h.p50(), 0.050, 0.050 * 0.10);
  EXPECT_NEAR(h.p99(), 0.099, 0.099 * 0.10);
  EXPECT_GE(h.max(), 0.1 - 1e-12);
}

TEST(ObsHistogram, QuantileRelativeErrorBounded) {
  // Log bucketing at k buckets per decade puts every sample within a
  // bucket of width ratio = 10^(1/k); quantile() answers the geometric
  // midpoint of the target bucket, so any reported quantile must lie
  // within one bucket ratio of the exact order statistic. Verify against
  // exact quantiles of a log-uniform spread (1 ms .. 1 s) — the regime
  // the tail benches live in.
  constexpr int kPerDecade = 32;
  const double ratio = std::pow(10.0, 1.0 / kPerDecade);
  obs::Histogram h(1e-6, 1e3, kPerDecade);
  std::vector<double> xs;
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 20000; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(s >> 11) * (1.0 / 9007199254740992.0);
    const double v = 1e-3 * std::pow(10.0, 3.0 * u);
    xs.push_back(v);
    h.add(v);
  }
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double exact =
        xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
    const double est = h.quantile(q);
    EXPECT_LE(est, exact * ratio * 1.02) << "q=" << q;
    EXPECT_GE(est, exact / (ratio * 1.02)) << "q=" << q;
  }
}

TEST(ObsHistogram, MergeEquivalentToPooledSamples) {
  // merge() must behave exactly like adding every sample to one
  // histogram, and be order-independent — that's what makes the
  // worker-pool registries' merged quantiles trustworthy.
  obs::Histogram pooled(1e-6, 10.0, 40);
  obs::Histogram a(1e-6, 10.0, 40);
  obs::Histogram b(1e-6, 10.0, 40);
  obs::Histogram c(1e-6, 10.0, 40);
  for (int i = 1; i <= 300; ++i) {
    const double v = 1e-4 * i;
    pooled.add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
  }
  obs::Histogram ab(a);
  ab.merge(b);
  ab.merge(c);  // (a+b)+c
  obs::Histogram cb(c);
  cb.merge(b);
  cb.merge(a);  // (c+b)+a
  for (const obs::Histogram* m : {&ab, &cb}) {
    EXPECT_EQ(m->count(), pooled.count());
    EXPECT_DOUBLE_EQ(m->mean(), pooled.mean());
    EXPECT_DOUBLE_EQ(m->max(), pooled.max());
    for (const double q : {0.5, 0.95, 0.99, 0.999})
      EXPECT_DOUBLE_EQ(m->quantile(q), pooled.quantile(q)) << "q=" << q;
  }
}

TEST(ObsHistogram, SparseTailQuantilesResolve) {
  // The tail-at-scale shape: a dense body and a sparse far tail. p99
  // must stay in the body, p999 must land on the 10-sample straggler
  // cluster, p9999 on the worst-outlier cluster — the three must not
  // collapse onto each other.
  obs::Histogram h(1e-6, 1e3, 32);
  for (int i = 0; i < 9985; ++i) h.add(1e-3);
  for (int i = 0; i < 10; ++i) h.add(0.1);
  for (int i = 0; i < 5; ++i) h.add(10.0);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.p99(), 1e-3, 1e-3 * 0.10);
  EXPECT_NEAR(h.p999(), 0.1, 0.1 * 0.10);
  EXPECT_NEAR(h.p9999(), 10.0, 10.0 * 0.10);
  EXPECT_GT(h.p999(), h.p99() * 50.0);
  EXPECT_GT(h.p9999(), h.p999() * 50.0);
}

TEST(ObsHistogram, EmptySnapshotQuantilesAreZero) {
  // The repair-latency histogram of a calm overlay run records nothing,
  // but Registry::snapshot() emits p50..p9999 for it unconditionally:
  // every quantile of an empty histogram must be a well-defined 0.0, not
  // an uninitialized bucket midpoint.
  obs::Registry reg;
  (void)reg.histogram("overlay.repair_latency_sec", 1e-3, 1e2);
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* e = snap.find("overlay.repair_latency_sec");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 0.0);  // sample count
  EXPECT_EQ(e->mean, 0.0);
  EXPECT_EQ(e->p50, 0.0);
  EXPECT_EQ(e->p999, 0.0);
  EXPECT_EQ(e->p9999, 0.0);
  EXPECT_EQ(e->max, 0.0);

  obs::Histogram h(1e-6, 10.0, 20);
  for (const double q : {0.0, 0.5, 0.99, 0.999, 0.9999, 1.0})
    EXPECT_EQ(h.quantile(q), 0.0) << "q=" << q;
}

TEST(ObsHistogram, NonFiniteInputsStayWellDefined) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::Histogram h(1e-6, 10.0, 20);
  h.add(kNan);  // no bucket is correct for NaN: dropped, not misfiled
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.999), 0.0);
  h.add(1e-3);
  h.add(kInf);   // overflow bucket
  h.add(-kInf);  // underflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_TRUE(std::isfinite(h.quantile(0.5)));
  EXPECT_TRUE(std::isfinite(h.quantile(0.9999)));
  // A NaN q is answered like an empty histogram, not passed to clamp.
  EXPECT_EQ(h.quantile(kNan), 0.0);
}

TEST(ObsRegistry, SnapshotInsertionOrderedAndTyped) {
  obs::Registry reg;
  reg.counter("z.last").add(1);
  reg.gauge("a.first").set(2.0);
  reg.histogram("m.mid").add(0.5);

  // Registration order, not name order: the registry is the narrative of
  // what the program instrumented, and merged-in names (see MergedTail)
  // sort after everything registered directly.
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "z.last");
  EXPECT_EQ(snap.entries[1].name, "a.first");
  EXPECT_EQ(snap.entries[2].name, "m.mid");
  EXPECT_EQ(snap.entries[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snap.entries[1].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(snap.entries[2].kind, obs::MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(snap.value("a.first"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("z.last"), 1.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsRegistry, MergeCombinesAndOrdersDeterministically) {
  // Two "worker" registries that registered overlapping names in
  // different orders, as racing threads would.
  obs::Registry w0;
  w0.counter("par.jobs").add(3);
  w0.gauge("par.depth").set(2.0);
  w0.histogram("par.lat").add(0.25);
  obs::Registry w1;
  w1.histogram("par.lat").add(0.75);
  w1.counter("par.only1").add(7);
  w1.counter("par.jobs").add(5);
  w1.gauge("par.depth").set(1.0);

  obs::Registry main;
  main.counter("seeds").add(2);
  main.merge(w0);
  main.merge(w1);

  const obs::Snapshot snap = main.snapshot();
  // Counters sum, gauges keep the max, histograms pool samples.
  EXPECT_DOUBLE_EQ(snap.value("par.jobs"), 8.0);
  EXPECT_DOUBLE_EQ(snap.value("par.depth"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("par.lat"), 2.0);  // histogram count
  EXPECT_DOUBLE_EQ(snap.value("par.only1"), 7.0);

  // Direct registrations first (insertion order), merged names after in
  // name order — identical no matter which worker merged first.
  ASSERT_EQ(snap.entries.size(), 5u);
  EXPECT_EQ(snap.entries[0].name, "seeds");
  EXPECT_EQ(snap.entries[1].name, "par.depth");
  EXPECT_EQ(snap.entries[2].name, "par.jobs");
  EXPECT_EQ(snap.entries[3].name, "par.lat");
  EXPECT_EQ(snap.entries[4].name, "par.only1");

  obs::Registry reversed;
  reversed.counter("seeds").add(2);
  reversed.merge(w1);
  reversed.merge(w0);
  const obs::Snapshot swap = reversed.snapshot();
  ASSERT_EQ(swap.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(swap.entries[i].name, snap.entries[i].name);
    EXPECT_DOUBLE_EQ(swap.entries[i].value, snap.entries[i].value)
        << snap.entries[i].name;
  }
}

// -------------------------------------------------------------------- json

TEST(ObsJson, RoundTripPreservesValuesAndOrder) {
  obs::Json obj = obs::Json::object();
  obj.set("schema", obs::Json("test.v1"));
  obj.set("count", obs::Json(std::uint64_t{42}));
  obj.set("ratio", obs::Json(0.1));
  obj.set("label", obs::Json("a \"quoted\"\nstring"));
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(1.5));
  arr.push_back(obs::Json(true));
  arr.push_back(obs::Json());
  obj.set("items", std::move(arr));

  const std::string text = obj.dump(2);
  std::string error;
  const auto parsed = obs::Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(2), text) << "round trip must be byte-stable";
  EXPECT_EQ(parsed->string_at("schema"), "test.v1");
  EXPECT_EQ(parsed->number_at("count"), 42.0);
  EXPECT_EQ(parsed->number_at("ratio"), 0.1);
  ASSERT_EQ(parsed->members().size(), 5u);
  EXPECT_EQ(parsed->members()[0].first, "schema");
  EXPECT_EQ(parsed->members()[4].first, "items");
}

TEST(ObsJson, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(obs::Json::parse("{", &error).has_value());
  EXPECT_FALSE(obs::Json::parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(obs::Json::parse("{'a':1}", &error).has_value());
  EXPECT_FALSE(obs::Json::parse("", &error).has_value());
}

TEST(ObsJson, NumbersEmitShortestRoundTrip) {
  EXPECT_EQ(obs::Json(0.1).dump(), "0.1");
  EXPECT_EQ(obs::Json(1e-7).dump(), obs::Json::parse("1e-07")->dump());
  EXPECT_EQ(obs::Json(std::uint64_t{960}).dump(), "960");
  EXPECT_EQ(obs::Json(3.0).dump(), "3");  // whole doubles print as integers
}

// ------------------------------------------------------------- golden file

std::string golden_path() {
  return std::string(LDLP_GOLDEN_DIR) + "/obs_snapshot.json";
}

/// A deterministic registry covering all three metric kinds, plus the
/// conformance (check.*) and wire-impairment (fault.*) metric families —
/// the golden file pins their names and layout.
obs::Snapshot reference_snapshot() {
  obs::Registry reg;
  reg.counter("graph.injected").set(1000);
  reg.counter("graph.shed_entry").set(17);
  reg.gauge("graph.layer.tcp.mean_batch").set(6.25);
  obs::Histogram& h = reg.histogram("graph.drain_sec", 1e-7, 1e3, 20);
  for (int i = 1; i <= 32; ++i) h.add(i * 125e-6);

  // check.*: a delivery oracle that saw one exact stream and a duplicated
  // (but permitted) datagram.
  check::DeliveryOracle oracle;
  oracle.set_allow_duplicates(true);
  const auto stream = oracle.open_stream("a->b");
  oracle.bind_stream_rx(stream, 1);
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  oracle.stream_sent(stream, bytes);
  oracle.on_stream_append(1, bytes);
  const auto query = oracle.open_datagram("dns");
  oracle.bind_datagram_rx(query, 2);
  oracle.datagram_sent(query, {bytes, 2});
  stack::Datagram d;
  d.payload = {1, 2};
  oracle.on_datagram(2, d);
  oracle.on_datagram(2, d);  // wire duplicate, allowed
  oracle.publish(reg);

  // fault.*: a deterministic injector run through reorder, duplicate and
  // Gilbert-Elliott episodes (seed pinned, so counters are stable).
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kReorder, 0.0, 1.0, 1.0, 2, 0.0});
  plan.add({fault::FaultKind::kDuplicate, 1.0, 2.0, 1.0, 0, 0.0});
  plan.add({fault::FaultKind::kGilbertElliott, 2.0, 3.0, 1.0, 4, 0.5});
  fault::FaultInjector inj(plan, 7);
  double t = 0.0;
  inj.set_clock(&t);
  std::vector<std::uint8_t> frame(32, 0x5a);
  for (int i = 0; i < 300; ++i) {
    t += 0.01;
    (void)inj.on_frame(frame);
  }
  obs::publish_fault(reg, inj);

  // recover.*: the liveness oracles, armed over an empty host set so
  // they settle deterministically — pins the counter family names.
  recover::ConvergenceOracle conv;
  conv.arm();
  for (int i = 0; i < 3; ++i) conv.on_pass();
  conv.publish(reg);
  recover::ProgressWatchdog dog;
  for (int i = 0; i < 3; ++i) dog.on_pass();
  dog.publish(reg);

  // net.* / recover.heal.*: a two-host star fabric carrying one TCP
  // handshake (ARP broadcast flood + SYN exchange — fully deterministic),
  // published through the fabric bridge, plus a partition-heal oracle
  // with one open pair. Pins the per-link/per-switch counter layout.
  net::Fabric fabric({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig star;
  star.hosts = 2;
  const std::vector<net::HostId> hosts = net::build_star(fabric, star);
  (void)fabric.host(hosts[1]).tcp().listen(7);
  (void)fabric.host(hosts[0]).tcp().connect(net::host_ip(1), 7);
  fabric.run_for(0.05);
  obs::publish_fabric(reg, fabric);
  recover::PartitionHealOracle heal;
  (void)heal.open_pair("h0", "h1");
  heal.publish(reg);

  // overlay.*: a two-node HyParView/PlumTree overlay on its own star
  // fabric — one join handshake and one broadcast, fully deterministic.
  // The repair-latency histogram records no samples (calm fleet), so the
  // golden file also pins the zero-sample quantile path (p* == 0).
  net::Fabric ofab({/*host_tick_sec=*/1e-3, /*fault_seed=*/1});
  net::StarConfig ostar;
  ostar.hosts = 2;
  const std::vector<net::HostId> ohosts = net::build_star(ofab, ostar);
  overlay::OverlayNode n0(ofab.host(ohosts[0]), net::host_ip(0), {});
  overlay::OverlayNode n1(ofab.host(ohosts[1]), net::host_ip(1), {});
  ofab.set_pass_hook([&] {
    n0.poll(ofab.now());
    n1.poll(ofab.now());
  });
  n1.join(net::host_ip(0), 0.0);
  ofab.run_for(1.0);
  const std::uint8_t gossip[] = {1, 2, 3, 4};
  (void)n0.broadcast(gossip, ofab.now());
  ofab.run_for(1.0);
  const overlay::OverlayNode* onodes[] = {&n0, &n1};
  overlay::publish_overlay(reg, onodes);

  // par.*: a two-worker pool over four deterministic jobs. Which worker
  // runs which job is scheduling-dependent, but each job has its own
  // registry and they merge in job order, so the snapshot — and this
  // golden file — is identical on every run. The merged par.test.*
  // names land name-sorted after all directly registered metrics.
  par::WorkerPool pool(2);
  pool.run(4, [](std::size_t job, par::WorkerContext& ctx) {
    ctx.registry->counter("par.test.jobs").add(1);
    ctx.registry->histogram("par.test.cost_sec")
        .add(1e-3 * static_cast<double>(job + 1));
  });
  pool.publish(reg);
  pool.merge_registries(reg);

  return reg.snapshot();
}

TEST(ObsGolden, SnapshotJsonMatchesGoldenFile) {
  const std::string text = reference_snapshot().to_json().dump(2) + "\n";

  if (std::getenv("LDLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "could not rewrite " << golden_path();
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — regenerate with LDLP_UPDATE_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), text)
      << "snapshot JSON schema drifted; if intentional, regenerate with "
         "LDLP_UPDATE_GOLDEN=1 test_obs and commit the diff";

  // The golden file itself must parse and carry the schema marker.
  std::string error;
  const auto parsed = obs::Json::parse(buffer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->string_at("schema"), obs::Snapshot::kSchema);
}

TEST(ObsSnapshot, CsvHasHeaderAndOneRowPerMetric) {
  const obs::Snapshot snap = reference_snapshot();
  const std::string csv = snap.to_csv();
  std::size_t lines = 0;
  for (const char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 1 + snap.entries.size());
  EXPECT_EQ(csv.rfind("name,type,value,mean,p50,p95,p99,p999,p9999,max\n", 0),
            0u);
}

// ------------------------------------------------------------ bench result

TEST(ObsBenchResult, JsonRoundTrip) {
  obs::BenchResult r;
  r.name = "unit";
  r.tolerance = 0.02;
  r.set_config("seed", "42");
  r.set_metric("a.lat", 1.25e-3);
  r.set_metric("b.count", 960.0);

  std::string error;
  const auto back = obs::BenchResult::from_json(r.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->name, "unit");
  EXPECT_DOUBLE_EQ(back->tolerance, 0.02);
  EXPECT_EQ(back->metric("a.lat"), 1.25e-3);
  EXPECT_EQ(back->metric("b.count"), 960.0);
  EXPECT_EQ(back->config.size(), 1u);
  EXPECT_EQ(back->file_name(), "BENCH_unit.json");
}

TEST(ObsBenchResult, CompareRule) {
  obs::BenchResult base;
  base.name = "gate";
  base.tolerance = 0.10;
  base.set_metric("lat", 100.0);
  base.set_metric("miss", 50.0);

  obs::BenchResult ok = base;
  ok.metrics.clear();
  ok.set_metric("lat", 109.0);   // +9% — inside
  ok.set_metric("miss", 46.0);   // -8% — inside
  ok.set_metric("extra", 1.0);   // additions pass
  EXPECT_TRUE(obs::compare_results(base, ok).pass);

  obs::BenchResult drift = ok;
  drift.metrics.clear();
  drift.set_metric("lat", 112.0);  // +12% — outside
  drift.set_metric("miss", 50.0);
  const auto report = obs::compare_results(base, drift);
  EXPECT_FALSE(report.pass);
  EXPECT_NE(report.describe().find("lat"), std::string::npos);

  obs::BenchResult missing = base;
  missing.metrics.clear();
  missing.set_metric("lat", 100.0);  // "miss" gone
  EXPECT_FALSE(obs::compare_results(base, missing).pass);

  // Tolerance override loosens the gate without editing the baseline.
  EXPECT_TRUE(obs::compare_results(base, drift, 0.20).pass);
}

// ----------------------------------------------------------------- bridge

TEST(ObsBridge, PublishHostIsIdempotent) {
  stack::HostPair net({.name = "a"}, {.name = "b"});
  stack::Host& a = net.a;
  stack::Host& b = net.b;

  const auto sock = b.sockets().create(stack::SocketKind::kDatagram, 4096);
  ASSERT_TRUE(b.udp().bind(9, sock));
  const std::vector<std::uint8_t> payload(64, 0xab);
  for (int round = 0; round < 4; ++round) {
    a.udp().send(9, b.ip().ip_addr(), 9, payload);
    net.settle(2);
  }

  obs::Registry reg;
  obs::publish_host(reg, a);
  obs::publish_host(reg, b);
  const obs::Snapshot first = reg.snapshot();
  EXPECT_GE(first.value("a.dev.tx_frames"), 1.0);
  EXPECT_GE(first.value("b.udp.rx"), 1.0);
  EXPECT_GE(first.value("b.graph.layer.udp.processed"), 1.0);

  // Publishing again without new traffic must not inflate anything.
  obs::publish_host(reg, a);
  obs::publish_host(reg, b);
  const obs::Snapshot second = reg.snapshot();
  ASSERT_EQ(first.entries.size(), second.entries.size());
  for (std::size_t i = 0; i < first.entries.size(); ++i)
    EXPECT_DOUBLE_EQ(first.entries[i].value, second.entries[i].value)
        << first.entries[i].name;
}

}  // namespace
