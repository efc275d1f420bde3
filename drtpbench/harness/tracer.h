// Span tracing for the traced run, recorded from the benchmark's own
// code around calls into each layer's public entry points.
//
// A span has a layer name, start and end, the span that caused it (its
// parent: the innermost open span) and the request it belongs to. Per
// layer the tracer aggregates count, total time and self time (duration
// minus the time its child spans cover); it keeps the first kKeptSpans
// spans in memory and writes them out as JSONL when the run ends. A
// disabled tracer reads no clock and records nothing, so the untraced
// replay runs the same calls without the tracing cost.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "drtp/scheme.h"
#include "util.h"

namespace drtpbench {

enum Layer : int {
  kReplay,            // root: one batch (daemon) or one cell (sim)
  kWireFrame,         // svc::EncodeFrame + svc::FrameReader
  kRpcDecode,         // svc::DecodeRequest
  kEngineBatch,       // svc::Engine::ExecuteBatch
  kEngineStats,       // svc::Engine::ExecuteBatch of a lone stats request
  kShadowStep,        // the shadow network's batch
  kPublish,           // core::DrtpNetwork::PublishTo
  kAdmit,             // core::AdmitConnection
  kSelectRoutes,      // RoutingScheme::SelectRoutes
  kSelectBackupFor,   // RoutingScheme::SelectBackupFor
  kRelease,           // core::DrtpNetwork::ReleaseConnection
  kLinkFailure,       // core::ApplyLinkFailure
  kLinkRepair,        // core::DrtpNetwork::SetLinkUp
  kPbkSweep,          // core::EvaluateAllSingleLinkFailures
  kWalAppend,         // svc::Wal::AppendBatch
  kNumLayers,
};

inline const char* LayerName(int layer) {
  static const char* kNames[kNumLayers] = {
      "replay",        "svc.wire.frame",  "svc.rpc.decode",
      "svc.engine.batch", "svc.engine.stats", "shadow.step",
      "lsdb.publish",
      "drtp.admit",    "drtp.select_routes", "drtp.select_backup_for",
      "drtp.release",  "drtp.link_failure",  "drtp.link_repair",
      "drtp.pbk_sweep", "svc.wal.append",
  };
  return kNames[layer];
}

class Tracer {
 public:
  static constexpr std::size_t kKeptSpans = 100000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Request (or batch, or cell) id stamped on spans opened from now on.
  void SetRequest(std::int64_t id) { request_ = id; }

  class Scope {
   public:
    Scope(Tracer* t, int layer) : t_(t->enabled_ ? t : nullptr) {
      if (t_ != nullptr) t_->Begin(layer);
    }
    ~Scope() {
      if (t_ != nullptr) t_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  struct LayerStats {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  const LayerStats& stats(int layer) const { return stats_[layer]; }

  /// Writes the kept spans as JSONL: id, parent, request, layer, ns range.
  bool WriteSpans(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    for (const Span& s : kept_) {
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"layer\":\""
         << LayerName(s.layer) << "\",\"start_ns\":" << s.start
         << ",\"end_ns\":" << s.end << "}\n";
    }
    return os.good();
  }

 private:
  struct Open {
    int layer;
    std::int64_t id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Span {
    std::int64_t id, parent, request;
    int layer;
    std::int64_t start, end;
  };

  void Begin(int layer) {
    stack_.push_back({layer, next_id_++, NowNs(), 0});
  }
  void End() {
    const std::int64_t end = NowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - o.start;
    LayerStats& s = stats_[o.layer];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - o.child_ns;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (kept_.size() < kKeptSpans) {
      kept_.push_back({o.id, parent, request_, o.layer, o.start, end});
    }
  }

  bool enabled_;
  std::int64_t request_ = 0;
  std::int64_t next_id_ = 0;
  std::vector<Open> stack_;
  LayerStats stats_[kNumLayers];
  std::vector<Span> kept_;
};

/// RoutingScheme decorator that times route selection and forwards every
/// other call unchanged, so wrapped and bare schemes decide identically.
class TimedScheme final : public drtp::core::RoutingScheme {
 public:
  TimedScheme(std::unique_ptr<drtp::core::RoutingScheme> inner, Tracer* t)
      : inner_(std::move(inner)), t_(t) {}

  std::string name() const override { return inner_->name(); }
  bool wants_backup() const override { return inner_->wants_backup(); }
  drtp::core::RouteSelection SelectRoutes(const drtp::core::DrtpNetwork& net,
                                          const drtp::lsdb::LinkStateDb& db,
                                          drtp::NodeId src, drtp::NodeId dst,
                                          drtp::Bandwidth bw) override {
    Tracer::Scope s(t_, kSelectRoutes);
    return inner_->SelectRoutes(net, db, src, dst, bw);
  }
  std::optional<drtp::routing::Path> SelectBackupFor(
      const drtp::core::DrtpNetwork& net, const drtp::lsdb::LinkStateDb& db,
      const drtp::routing::Path& primary, drtp::Bandwidth bw,
      std::span<const drtp::routing::Path> avoid) override {
    Tracer::Scope s(t_, kSelectBackupFor);
    return inner_->SelectBackupFor(net, db, primary, bw, avoid);
  }
  void OnTopologyChanged(const drtp::core::DrtpNetwork& net) override {
    inner_->OnTopologyChanged(net);
  }
  std::string SaveState() const override { return inner_->SaveState(); }
  void LoadState(const std::string& state) override {
    inner_->LoadState(state);
  }
  bool requires_srlg_disjoint_backup() const override {
    return inner_->requires_srlg_disjoint_backup();
  }

 private:
  std::unique_ptr<drtp::core::RoutingScheme> inner_;
  Tracer* t_;
};

}  // namespace drtpbench
