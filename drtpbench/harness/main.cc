// drtpbench: the DRTP benchmark program (README.md).
//
//   drtpbench --workload=<name> --seed=N --seconds=S --trace=0|1
//             --drtpd=PATH --workdir=DIR --golden=FILE
//   drtpbench --write-golden=FILE     rewrite the sim-fig4 golden cells
//   drtpbench --selftest --drtpd=PATH --workdir=DIR
//
// The last stdout line is the result object; correctness problems go to
// stderr and make the exit code 1.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common/json.h"
#include "tracer.h"
#include "workloads.h"

namespace drtpbench {

namespace {

/// Per-layer metrics, printed on every workload under --trace=1.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"runner.cells", "count"},
    {"runner.cell_ms", "ms"},
    {"runner.busy_ratio", "ratio"},
    {"drtp.select_routes_us", "us"},
    {"drtp.select_backup_for_us", "us"},
    {"lsdb.publish_us", "us"},
    {"drtp.admit_us", "us"},
    {"drtp.admit_count", "count"},
    {"drtp.commit_us", "us"},
    {"drtp.release_us", "us"},
    {"drtp.link_failure_us", "us"},
    {"drtp.admit_ratio", "ratio"},
    {"drtp.pbk_sweep_ms", "ms"},
    {"drtp.pbk_sweep_count", "count"},
    {"svc.engine.stats_ms", "ms"},
    {"svc.wire.frame_us", "us"},
    {"svc.rpc.decode_us", "us"},
    {"svc.pipeline.wait_us", "us"},
    {"svc.engine.batch_us", "us"},
    {"svc.engine.batch_count", "count"},
    {"svc.engine.batch_size", "count"},
    {"svc.wal.append_us", "us"},
    {"svc.wal.append_count", "count"},
    {"svc.wal.bytes_per_batch", "B"},
    {"svc.recover.replay_ms", "ms"},
    {"svc.stage.decode_us", "us"},
    {"svc.stage.reorder_us", "us"},
    {"svc.stage.engine_us", "us"},
    {"svc.stage.respond_us", "us"},
    {"client.transport_us", "us"},
    {"load.send_lag_us", "us"},
    {"stats_rtt_ms", "ms"},
    {"recover_s", "s"},
    {"slo_miss_ratio", "ratio"},
    {"fail_ratio", "ratio"},
    {"trace.layer_sum_ratio", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// How far the shadow's layer times may stray from the time the real code
/// path took for the same work.
constexpr double kLayerSumTolerance = 0.25;

/// The layers the shadow steps through, including its own glue.
constexpr int kShadowLayers[] = {kShadowStep,   kPublish,         kAdmit,
                                 kSelectRoutes, kSelectBackupFor, kRelease,
                                 kLinkFailure,  kLinkRepair,      kPbkSweep};

void PrintResult(const Result& r) {
  drtp::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(r.correct);
  w.Key("attempted").Int(r.attempted);
  w.Key("failed").Int(r.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : r.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

void AddAllLayerMetrics(Result* result) {
  for (const auto& [name, unit] : kLayerMetrics) result->Add(name, unit, 0.0);
}

void SetLayer(Result* result, const std::string& name, double value) {
  for (Metric& m : result->metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  result->Fail("unknown per-layer metric " + name);
}

void FillTracedLayers(const Tracer& t, double reference_s, double overhead_s,
                      double untraced_s, Result* res) {
  const auto mean_us = [&t](int layer) {
    const Tracer::LayerStats& s = t.stats(layer);
    return s.count > 0 ? static_cast<double>(s.total_ns) * 1e-3 /
                             static_cast<double>(s.count)
                       : 0.0;
  };
  const auto count = [&t](int layer) {
    return static_cast<double>(t.stats(layer).count);
  };
  SetLayer(res, "drtp.select_routes_us", mean_us(kSelectRoutes));
  SetLayer(res, "drtp.select_backup_for_us", mean_us(kSelectBackupFor));
  SetLayer(res, "lsdb.publish_us", mean_us(kPublish));
  SetLayer(res, "drtp.admit_us", mean_us(kAdmit));
  SetLayer(res, "drtp.admit_count", count(kAdmit));
  const Tracer::LayerStats& admit = t.stats(kAdmit);
  SetLayer(res, "drtp.commit_us",
           admit.count > 0 ? static_cast<double>(admit.self_ns) * 1e-3 /
                                 static_cast<double>(admit.count)
                           : 0.0);
  SetLayer(res, "drtp.release_us", mean_us(kRelease));
  SetLayer(res, "drtp.link_failure_us", mean_us(kLinkFailure));
  SetLayer(res, "drtp.pbk_sweep_ms", mean_us(kPbkSweep) * 1e-3);
  SetLayer(res, "drtp.pbk_sweep_count", count(kPbkSweep));
  SetLayer(res, "svc.engine.stats_ms", mean_us(kEngineStats) * 1e-3);
  SetLayer(res, "svc.wire.frame_us", mean_us(kWireFrame));
  SetLayer(res, "svc.rpc.decode_us", mean_us(kRpcDecode));
  SetLayer(res, "svc.engine.batch_us", mean_us(kEngineBatch));
  SetLayer(res, "svc.engine.batch_count", count(kEngineBatch));
  SetLayer(res, "svc.wal.append_us", mean_us(kWalAppend));
  SetLayer(res, "svc.wal.append_count", count(kWalAppend));

  // Layer sum: the self times of the shadow's layers must account for the
  // time the real code path (the engine's ExecuteBatch, or the sweep's
  // cells) spent on the same work.
  double layers_ns = 0.0;
  for (const int l : kShadowLayers) {
    layers_ns += static_cast<double>(t.stats(l).self_ns);
  }
  const double ratio = reference_s > 0 ? layers_ns * 1e-9 / reference_s : 0.0;
  SetLayer(res, "trace.layer_sum_ratio", ratio);
  res->Expect(std::abs(ratio - 1.0) <= kLayerSumTolerance,
              "shadow layer self times cover " + std::to_string(ratio) +
                  " of the real code path's time (tolerance " +
                  std::to_string(kLayerSumTolerance) + ")");
  SetLayer(res, "trace.overhead_ms", overhead_s * 1e3);
  SetLayer(res, "trace.overhead_ratio",
           untraced_s > 0 ? overhead_s / untraced_s : 0.0);
}

}  // namespace drtpbench

int main(int argc, char** argv) {
  using namespace drtpbench;
  Options o;
  std::string golden, write_golden, v;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (Flag(a, "--workload", &v)) {
      o.workload = v;
    } else if (Flag(a, "--seed", &v)) {
      o.seed = std::stoull(v);
    } else if (Flag(a, "--seconds", &v)) {
      o.seconds = std::stod(v);
    } else if (Flag(a, "--trace", &v)) {
      o.trace = v == "1";
    } else if (Flag(a, "--drtpd", &v)) {
      o.drtpd = v;
    } else if (Flag(a, "--workdir", &v)) {
      o.workdir = v;
    } else if (Flag(a, "--golden", &v)) {
      golden = v;
    } else if (Flag(a, "--write-golden", &v)) {
      write_golden = v;
    } else if (std::strcmp(a, "--selftest") == 0) {
      selftest = true;
    } else {
      std::fprintf(stderr, "drtpbench: unknown argument '%s'\n", a);
      return 2;
    }
  }
  try {
    if (!write_golden.empty()) return WriteFig4Golden(write_golden);
    if (!o.workdir.empty()) ::mkdir(o.workdir.c_str(), 0755);
    if (selftest) return RunSelfTest(o);
    Result r;
    if (o.workload == "sim-fig4") {
      r = RunSimFig4(o, golden);
    } else if (o.workload == "drtpd-w60-closed") {
      r = RunDaemonW60Closed(o);
    } else if (o.workload == "drtpd-h1k-open-wal") {
      r = RunDaemonH1kOpenWal(o);
    } else if (o.workload == "engine-h1k") {
      r = RunEngineH1k(o);
    } else {
      std::fprintf(stderr, "drtpbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "drtpbench: CHECK FAILED: %s\n", p.c_str());
    }
    PrintResult(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drtpbench: %s\n", e.what());
    return 1;
  }
}
