// The drtpd workloads, which run the real daemon binary over its unix
// socket, and engine-h1k, which feeds the h1k stream to svc::Engine
// in-process.
//
// drtpd-w60-closed: default flags (D-LSR, --threads=1, --batch=64, linger
//   500 us, no WAL) on the Waxman-60 topology of docs/DRTPD.md; two
//   closed-loop connections send admit/release pairs.
// drtpd-h1k-open-wal: drtpd --wal on the 1000-node hierarchical topology;
//   an open loop at a fixed rate sends admits, releases and seeded link
//   failures/repairs, while a control connection polls stats at 1 Hz;
//   then the daemon is SIGKILLed and restarted with --recover.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "client.h"
#include "common/json_value.h"
#include "fault/auditor.h"
#include "net/generators.h"
#include "net/graphio.h"
#include "replay.h"
#include "svc/engine.h"
#include "svc/rpc.h"
#include "svc/wire.h"
#include "tracer.h"
#include "workloads.h"

namespace drtpbench {

namespace {

constexpr int kSetups = 7;
constexpr char kSocket[] = "drtpd.sock";
/// Audits at drain only (and after enacted link failures).
constexpr char kDrainAudit[] = "--audit-interval=1000000";

// drtpd-w60-closed
constexpr int kW60Clients = 2;
constexpr double kW60Lambda = 1.0;
constexpr double kW60SloUs = 5000.0;
/// Stream length: more requests per second than two clients can send.
constexpr double kW60MaxRate = 20000;
constexpr double kW60WindowS = 1.0;

// drtpd-h1k-open-wal: the fixed open-loop rate sits well below the
// closed-loop capacity of drtpd --wal on this topology at the seed commit,
// so that host noise does not turn into queueing.
constexpr double kH1kRate = 250.0;
constexpr int kH1kConnections = 2;
constexpr double kH1kLambda = 0.5;
constexpr double kH1kSloUs = 50000.0;
constexpr double kH1kWindowS = 4.0;

// engine-h1k: the h1k stream in-process. The first kEngineWarmupEvents
// events fill the empty network (no release falls due before about 600
// admits; the population is steady by about 2400 events) and are not
// measured. Then a fixed kEngineEventsPerRunSecond x --seconds events are
// measured, so how much of the stream a run covers does not depend on
// the engine's speed; at the seed commit they take about --seconds of
// engine time.
constexpr std::size_t kEngineWarmupEvents = 3000;
constexpr double kEngineEventsPerRunSecond = 1500;
/// Measured events between moves to the next CPU (about 40 ms).
constexpr std::size_t kEngineEventsPerCpu = 64;
/// Engine constructions timed for setup_s, one per CPU in turn.
constexpr int kEngineSetups = 16;
/// The traced replay covers the warm-up and the first 2000 measured events.
constexpr std::size_t kEngineTracedEvents = 5000;

/// Runs inside the work directory, so socket and file paths stay short.
struct Workdir {
  explicit Workdir(const std::string& dir) {
    if (getcwd(old, sizeof old) == nullptr) old[0] = '\0';
    ok = chdir(dir.c_str()) == 0;
  }
  ~Workdir() {
    if (old[0] != '\0' && chdir(old) != 0) std::perror("chdir");
  }
  char old[4096];
  bool ok = false;
};

bool WriteTopo(const drtp::net::Topology& topo, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  drtp::net::WriteTopology(topo, os);
  return os.good();
}

/// A stats RPC with the metrics registry, parsed; null JSON on failure.
drtp::JsonValue FetchStats() {
  RpcConn c;
  std::string error;
  if (!c.Connect(kSocket, &error) ||
      !c.Send(StatsRequest(std::int64_t{1} << 51, true))) {
    return drtp::JsonValue::Null();
  }
  const auto frame = c.Recv();
  if (!frame.has_value()) return drtp::JsonValue::Null();
  try {
    drtp::JsonValue v = drtp::ParseJson(*frame);
    const drtp::JsonValue* r = v.Find("result");
    return r != nullptr ? *r : drtp::JsonValue::Null();
  } catch (const std::exception&) {
    return drtp::JsonValue::Null();
  }
}

std::int64_t StatInt(const drtp::JsonValue& stats, const char* key) {
  const drtp::JsonValue* v = stats.is_object() ? stats.Find(key) : nullptr;
  return v != nullptr ? v->AsInt64() : -1;
}

std::string StatStr(const drtp::JsonValue& stats, const char* key) {
  const drtp::JsonValue* v = stats.is_object() ? stats.Find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->AsString() : "";
}

/// Mean over the named daemon timing histograms together, microseconds.
double HistMeanUs(const drtp::JsonValue& stats,
                  const std::vector<std::string>& names) {
  const drtp::JsonValue* m = stats.is_object() ? stats.Find("metrics") : nullptr;
  const drtp::JsonValue* hs = m != nullptr ? m->Find("histograms") : nullptr;
  if (hs == nullptr) return 0.0;
  double sum = 0.0, count = 0.0;
  for (const drtp::JsonValue& h : hs->AsArray()) {
    if (std::find(names.begin(), names.end(), h.Find("name")->AsString()) !=
        names.end()) {
      sum += h.Find("sum")->AsDouble();
      count += h.Find("count")->AsDouble();
    }
  }
  return count > 0 ? sum / count * 1e-3 : 0.0;
}

double HistMeanUs(const drtp::JsonValue& stats, const std::string& name) {
  return HistMeanUs(stats, std::vector<std::string>{name});
}

/// The daemon's submit-to-response time of the data-plane requests the
/// client timed: every method but stats.
double DataPlaneRequestUs(const drtp::JsonValue& stats) {
  std::vector<std::string> names;
  for (const char* method : {"admit", "release", "fail_link", "repair_link"}) {
    for (const char* outcome : {".ok", ".err"}) {
      names.push_back(std::string("drtp.svc.request_ns.") + method + outcome);
    }
  }
  return HistMeanUs(stats, names);
}

/// Starts the daemon kSetups times, timing spawn-to-answer; keeps the
/// last one running. `before_start` resets per-start state (a WAL).
bool StartDaemon(const Options& o, const std::vector<std::string>& args,
                 const std::function<void()>& before_start, Daemon* daemon,
                 std::vector<double>* setups, Result* res) {
  for (int i = 0; i < kSetups; ++i) {
    before_start();
    std::string error;
    const double t0 = NowS();
    if (!daemon->Spawn(o.drtpd, args, "drtpd.log", &error) ||
        !daemon->WaitReady(kSocket, 60.0, &error)) {
      res->Fail("daemon start: " + error);
      return false;
    }
    setups->push_back(NowS() - t0);
    if (i + 1 < kSetups) {
      const int code = daemon->Terminate(30.0);
      res->Expect(code == 0, "idle daemon drain exited " + std::to_string(code));
    }
  }
  return true;
}

/// Checks shared by both daemon workloads: every response matched, and
/// the daemon's own counters agree with what the client saw.
void CheckLoad(const LoadReport& rep, const drtp::JsonValue& stats,
               Result* res) {
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "drtpbench: load: %s\n", e.c_str());
  }
  res->Expect(rep.unmatched == 0,
              std::to_string(rep.unmatched) + " responses matched no request");
  res->Expect(rep.answered == rep.attempted -
                                  static_cast<std::int64_t>(
                                      rep.stats_rtt_ms.size()),
              "answered " + std::to_string(rep.answered) + " of " +
                  std::to_string(rep.attempted) + " requests");
  res->Expect(stats.is_object(), "final stats RPC failed");
  res->Expect(StatInt(stats, "blocked") == rep.blocked &&
                  StatInt(stats, "admitted") == rep.admits - rep.blocked,
              "daemon admitted/blocked " +
                  std::to_string(StatInt(stats, "admitted")) + "/" +
                  std::to_string(StatInt(stats, "blocked")) +
                  " != client's " + std::to_string(rep.admits - rep.blocked) +
                  "/" + std::to_string(rep.blocked));
  res->Expect(StatInt(stats, "audit_violations") <= 0,
              "audit violations during load");
}

/// Throughput and latency quantiles of a load run. The quantiles, and
/// the closed loop's throughput, are medians over `window_s` windows
/// (util.h Windows); each window holds at least a thousand requests, so
/// its p99 has ten beyond it. The open loop's throughput is answered
/// requests over the time to the last answer: it reads the offered rate
/// unless a backlog is left at the end.
struct LoadSummary {
  double throughput = 0.0, p50 = 0.0, p99 = 0.0;
};

LoadSummary Summarize(const LoadReport& rep, bool open_loop, double window_s,
                      double span_s, Result* res) {
  std::vector<double> rate, p50, p99;
  for (std::vector<double>& w :
       Windows(rep.start_s, rep.latency_us, window_s, span_s)) {
    rate.push_back(static_cast<double>(w.size()) / window_s);
    p50.push_back(Quantile(w, 0.5));
    p99.push_back(Quantile(w, 0.99));
  }
  res->Expect(!rate.empty(), "the load ran shorter than one window");
  return {.throughput = open_loop ? static_cast<double>(rep.answered) /
                                        rep.elapsed_s
                                  : Median(rate),
          .p50 = Median(p50),
          .p99 = Median(p99)};
}

void AddEndToEnd(const std::vector<double>& setups, const LoadReport& rep,
                 const LoadSummary& sum, double rss_mb, Result* res) {
  res->Add("setup_s", "s", Median(setups));
  res->Add("throughput_per_s", "1/s", sum.throughput);
  res->Add("p50_us", "us", sum.p50);
  res->Add("p99_us", "us", sum.p99);
  res->Add("block_ratio", "ratio",
           static_cast<double>(rep.blocked) / static_cast<double>(rep.admits));
  res->Add("peak_rss_mb", "MiB", rss_mb);
}

/// Per-layer metrics measured on the live daemon during the load.
void AddDaemonLayers(const LoadReport& rep, const drtp::JsonValue& stats,
                     Result* res) {
  const double req = HistMeanUs(stats, "drtp.svc.request_ns");
  const double decode = HistMeanUs(stats, "drtp.svc.stage.decode_ns");
  const double engine = HistMeanUs(stats, "drtp.svc.stage.engine_ns");
  SetLayer(res, "svc.stage.decode_us", decode);
  SetLayer(res, "svc.stage.reorder_us",
           HistMeanUs(stats, "drtp.svc.stage.reorder_ns"));
  SetLayer(res, "svc.stage.engine_us", engine);
  SetLayer(res, "svc.stage.respond_us",
           HistMeanUs(stats, "drtp.svc.stage.respond_ns"));
  SetLayer(res, "svc.pipeline.wait_us", req - decode - engine);
  SetLayer(res, "client.transport_us",
           Mean(rep.rtt_us) - DataPlaneRequestUs(stats));
  const double batches = static_cast<double>(StatInt(stats, "batches"));
  SetLayer(res, "svc.engine.batch_size",
           batches > 0 ? static_cast<double>(StatInt(stats, "frames")) / batches
                       : 0.0);
  const double admitted = static_cast<double>(StatInt(stats, "admitted"));
  const double blocked = static_cast<double>(StatInt(stats, "blocked"));
  SetLayer(res, "drtp.admit_ratio", admitted / (admitted + blocked));
  SetLayer(res, "load.send_lag_us", Mean(rep.send_lag_us));
  std::vector<double> polls = rep.stats_rtt_ms;
  SetLayer(res, "stats_rtt_ms", Median(polls));
  SetLayer(res, "slo_miss_ratio", static_cast<double>(rep.slo_miss) /
                                      static_cast<double>(rep.attempted));
  SetLayer(res, "fail_ratio", static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted));
}

/// The traced replay of the first `count` events of the stream.
void TracedReplay(const Options& o, DaemonReplayConfig cfg, std::size_t count,
                  const std::string& wal_stem, Result* res) {
  cfg.events.resize(std::min(count, cfg.events.size()));
  cfg.wal_stem = wal_stem;
  Tracer on(true);
  const ReplayOutcome out = ReplayDaemonStream(cfg, &on);
  for (const std::string& p : out.problems) res->Fail("replay: " + p);
  on.WriteSpans("spans." + o.workload + ".jsonl");
  const double engine_s = static_cast<double>(on.stats(kEngineBatch).total_ns +
                                              on.stats(kEngineStats).total_ns) *
                         1e-9;
  FillTracedLayers(on, engine_s, out.traced_s - out.untraced_s,
                   out.untraced_s, res);
  if (!wal_stem.empty()) {
    SetLayer(res, "svc.recover.replay_ms", out.recover_ms);
    SetLayer(res, "svc.wal.bytes_per_batch",
             out.wal_batches > 0 ? static_cast<double>(out.wal_bytes) /
                                       static_cast<double>(out.wal_batches)
                                 : 0.0);
  }
}

}  // namespace

Result RunDaemonW60Closed(const Options& o) {
  const IdlePoll idle_poll;
  Result res;
  Workdir wd(o.workdir);
  if (!wd.ok) {
    res.Fail("cannot enter " + o.workdir);
    return res;
  }
  const drtp::net::Topology topo = drtp::net::MakeWaxman(
      {.nodes = 60, .avg_degree = 4.0, .seed = 11});
  res.Expect(WriteTopo(topo, "w60.topo"), "cannot write w60.topo");
  const std::vector<LoadEvent> events =
      MakeStream(topo, {.lambda = kW60Lambda,
                        .min_events = static_cast<std::size_t>(
                            kW60MaxRate * o.seconds),
                        .seed = o.seed});

  Daemon daemon;
  std::vector<double> setups;
  const std::vector<std::string> args = {
      std::string("--socket=") + kSocket, "--topo=w60.topo", kDrainAudit};
  if (!StartDaemon(o, args, [] {}, &daemon, &setups, &res)) return res;

  const LoadReport rep = RunClosedLoop(
      kSocket, events,
      {.clients = kW60Clients, .seconds = o.seconds, .slo_us = kW60SloUs});
  const drtp::JsonValue stats = FetchStats();
  const double rss = daemon.PeakRssMb();
  const int code = daemon.Terminate(30.0);
  res.Expect(code == 0, "daemon drain exited " + std::to_string(code) +
                            " (3 = audit violations)");
  CheckLoad(rep, stats, &res);
  res.attempted = rep.attempted;
  res.failed = rep.failed;
  const LoadSummary sum = Summarize(rep, false, kW60WindowS, o.seconds, &res);
  if (!o.trace) {
    AddEndToEnd(setups, rep, sum, rss, &res);
    return res;
  }
  AddAllLayerMetrics(&res);
  AddDaemonLayers(rep, stats, &res);
  DaemonReplayConfig cfg;
  cfg.topo = &topo;
  cfg.events = events;
  cfg.release_only_live = true;
  cfg.batch = std::max(1, static_cast<int>(std::lround(
                              StatInt(stats, "frames") /
                              std::max<double>(1, StatInt(stats, "batches")))));
  TracedReplay(o, std::move(cfg),
               static_cast<std::size_t>(rep.attempted + rep.blocked), "",
               &res);
  return res;
}

Result RunDaemonH1kOpenWal(const Options& o) {
  const IdlePoll idle_poll;
  Result res;
  Workdir wd(o.workdir);
  if (!wd.ok) {
    res.Fail("cannot enter " + o.workdir);
    return res;
  }
  const drtp::net::Topology topo = drtp::net::MakeHierarchical({});
  res.Expect(WriteTopo(topo, "h1k.topo"), "cannot write h1k.topo");
  const std::size_t scheduled =
      static_cast<std::size_t>(kH1kRate * o.seconds);
  const std::vector<LoadEvent> events = MakeStream(
      topo, {.lambda = kH1kLambda,
             .min_events = scheduled + 1000,
             .failure_every = static_cast<std::size_t>(kH1kRate),
             .seed = o.seed});

  const auto reset_wal = [] {
    std::remove("h1k.wal");
    std::remove("h1k.wal.snap");
  };
  Daemon daemon;
  std::vector<double> setups;
  std::vector<std::string> args = {std::string("--socket=") + kSocket,
                                   "--topo=h1k.topo", "--wal=h1k.wal"};
  if (!StartDaemon(o, args, reset_wal, &daemon, &setups, &res)) return res;

  const LoadReport rep =
      RunOpenLoop(kSocket, events,
                  {.connections = kH1kConnections,
                   .rate = kH1kRate,
                   .seconds = o.seconds,
                   .slo_us = kH1kSloUs});
  const drtp::JsonValue stats = FetchStats();
  const double rss = daemon.PeakRssMb();
  const std::string digest = StatStr(stats, "digest");
  daemon.Kill();
  CheckLoad(rep, stats, &res);

  // Crash recovery: every answered request is in the WAL, so the
  // recovered state must equal the state before the kill.
  args.push_back("--recover");
  args.push_back(kDrainAudit);
  std::string error;
  const double t0 = NowS();
  double recover_s = 0.0;
  if (!daemon.Spawn(o.drtpd, args, "drtpd.log", &error) ||
      !daemon.WaitReady(kSocket, 120.0, &error)) {
    res.Fail("recovery: " + error);
  } else {
    recover_s = NowS() - t0;
    const drtp::JsonValue after = FetchStats();
    res.Expect(!digest.empty() && StatStr(after, "digest") == digest,
               "recovered digest " + StatStr(after, "digest") +
                   " != digest before the kill " + digest);
    const int code = daemon.Terminate(60.0);
    res.Expect(code == 0, "recovered daemon drain exited " +
                              std::to_string(code) + " (3 = audit violations)");
  }
  reset_wal();
  res.attempted = rep.attempted;
  res.failed = rep.failed;
  const LoadSummary sum = Summarize(rep, true, kH1kWindowS, o.seconds, &res);
  if (!o.trace) {
    AddEndToEnd(setups, rep, sum, rss, &res);
    return res;
  }
  AddAllLayerMetrics(&res);
  AddDaemonLayers(rep, stats, &res);
  SetLayer(&res, "recover_s", recover_s);
  DaemonReplayConfig cfg;
  cfg.topo = &topo;
  cfg.events = events;
  cfg.batch = std::max(1, static_cast<int>(std::lround(
                              StatInt(stats, "frames") /
                              std::max<double>(1, StatInt(stats, "batches")))));
  cfg.stats_every = static_cast<std::size_t>(kH1kRate);
  TracedReplay(o, std::move(cfg), scheduled, "shadow", &res);
  return res;
}

Result RunEngineH1k(const Options& o) {
  // drtpd-h1k-open-wal's request stream (250 req/s, 1 Hz stats, a link
  // failure a second) through the daemon's engine in-process: each
  // request is framed, decoded and executed as its own batch, and a
  // virtual open loop turns the measured service times into latencies
  // (a request starts when it is due or when the previous one finishes).
  // CPU-bound, without the daemon's thread wake-ups or the WAL's fsync.
  Result res;
  const drtp::net::Topology topo = drtp::net::MakeHierarchical({});
  const std::size_t measured = static_cast<std::size_t>(
      std::lround(kEngineEventsPerRunSecond * o.seconds));
  const std::size_t total = kEngineWarmupEvents + measured;
  std::vector<LoadEvent> events =
      MakeStream(topo, {.lambda = kH1kLambda,
                        .min_events = total,
                        .failure_every = static_cast<std::size_t>(kH1kRate),
                        .seed = o.seed});
  events.resize(total);
  CpuRotor rotor;
  std::vector<double> setups;
  std::unique_ptr<drtp::svc::Engine> engine;
  for (int i = 0; i < kEngineSetups; ++i) {
    rotor.Next();
    engine.reset();  // one engine resident at a time
    const double t0 = NowS();
    engine = std::make_unique<drtp::svc::Engine>(topo, drtp::svc::EngineOptions{});
    setups.push_back(NowS() - t0);
  }

  // `rep` covers the measured events only; every event is checked.
  LoadReport rep;
  std::int64_t executed = 0, failed = 0;
  drtp::svc::FrameReader reader;
  std::vector<drtp::svc::DecodedRequest> batch(1);
  const double period_s = 1.0 / kH1kRate;
  double busy_s = 0.0, free_at = 0.0;
  std::int64_t stats_rpcs = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const bool timed = i >= kEngineWarmupEvents;
    const std::size_t slot = timed ? i - kEngineWarmupEvents : 0;
    if (slot % kEngineEventsPerCpu == 0) rotor.Next();
    // Every kH1kRate-th measured slot also carries a stats request, due
    // with it.
    const bool with_stats =
        slot > 0 && slot % static_cast<std::size_t>(kH1kRate) == 0;
    for (int k = with_stats ? 0 : 1; k < 2; ++k) {
      const LoadEvent& e = events[i];
      const bool live =
          e.op == LoadEvent::Op::kRelease && engine->network().Find(e.conn);
      const std::string payload = k == 0
          ? StatsRequest(static_cast<std::int64_t>(i), false)
          : RenderEvent(static_cast<std::int64_t>(i), e);
      const double t0 = NowS();
      reader.Feed(drtp::svc::EncodeFrame(payload));
      batch[0] = drtp::svc::DecodeRequest(*reader.Next());
      const std::string response = engine->ExecuteBatch(batch)[0];
      const double service = NowS() - t0;
      ++executed;
      const Reply r = ParseReply(response);
      // A release of a connection the engine no longer holds (blocked, or
      // dropped by a failure) is answered not_found; anything else must
      // succeed.
      const bool expected_error = k == 1 && e.op == LoadEvent::Op::kRelease &&
                                  !live && r.error == drtp::svc::kErrNotFound;
      // (A stats reply is checked for id and ok only: its "admitted" is a
      // count, which ParseReply, reading data-plane replies, rejects.)
      const bool bad = r.id != static_cast<std::int64_t>(i) ||
                       (k == 0 ? !r.ok
                               : !r.parsed || (!r.ok && !expected_error));
      if (bad) {
        ++failed;
        if (rep.errors.size() < 5) rep.errors.push_back(response);
      }
      if (!timed) continue;
      busy_s += service;
      const double due = static_cast<double>(slot) * period_s;
      free_at = std::max(free_at, due) + service;
      if (k == 0) {
        ++stats_rpcs;
        continue;
      }
      ++rep.attempted;
      const double us = (free_at - due) * 1e6;
      rep.latency_us.push_back(us);
      if (bad || us > kH1kSloUs) ++rep.slo_miss;
      if (bad) ++rep.failed;
      if (e.op == LoadEvent::Op::kAdmit && r.ok) {
        ++rep.admits;
        if (!r.admitted) ++rep.blocked;
      }
    }
  }
  rotor.Restore();
  // Before the final audit, whose own sweep would set the peak.
  const double rss_mb = SelfPeakRssMb();
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "drtpbench: engine: %s\n", e.c_str());
  }
  drtp::fault::Auditor auditor;
  auditor.Check(engine->network(), engine->virtual_now(), "final", nullptr);
  res.Expect(auditor.ok(), std::to_string(auditor.violation_count()) +
                               " audit violations after the replay");
  res.attempted = executed;
  res.failed = failed;
  if (!o.trace) {
    // Whole-run figures: on a host whose speed switches between regimes
    // every few seconds they move smoothly with the share of the run spent
    // in each, where a median over windows would jump between them.
    std::vector<double> latency = rep.latency_us;
    const LoadSummary whole_run{
        .throughput = static_cast<double>(rep.attempted + stats_rpcs) / busy_s,
        .p50 = Quantile(latency, 0.5),
        .p99 = Quantile(latency, 0.99)};
    AddEndToEnd(setups, rep, whole_run, rss_mb, &res);
    return res;
  }
  engine.reset();
  AddAllLayerMetrics(&res);
  SetLayer(&res, "svc.engine.batch_size", 1.0);
  SetLayer(&res, "drtp.admit_ratio",
           static_cast<double>(rep.admits - rep.blocked) /
               static_cast<double>(rep.admits));
  SetLayer(&res, "slo_miss_ratio", static_cast<double>(rep.slo_miss) /
                                       static_cast<double>(rep.attempted));
  SetLayer(&res, "fail_ratio", static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted));
  Workdir wd(o.workdir);
  res.Expect(wd.ok, "cannot enter " + o.workdir);
  DaemonReplayConfig cfg;
  cfg.topo = &topo;
  cfg.events = std::move(events);
  cfg.stats_every = static_cast<std::size_t>(kH1kRate);
  TracedReplay(o, std::move(cfg), kEngineTracedEvents, "shadow", &res);
  return res;
}

}  // namespace drtpbench
