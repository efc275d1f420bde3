#include "replay.h"

#include <cstdio>
#include <memory>
#include <unordered_set>

#include "drtp/admission.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "lsdb/link_state_db.h"
#include "sim/paper.h"
#include "svc/engine.h"
#include "svc/rpc.h"
#include "svc/wal.h"
#include "svc/wire.h"

namespace drtpbench {

using drtp::Time;
namespace core = drtp::core;
namespace svc = drtp::svc;
namespace sim = drtp::sim;
using Scope = Tracer::Scope;

namespace {

/// drtpd's defaults: D-LSR, scheme seed 1, one multiplexed backup.
svc::EngineOptions DaemonEngineOptions() {
  svc::EngineOptions eo;
  eo.scheme = "D-LSR";
  eo.seed = 1;
  return eo;
}

/// The shadow network: the engine's per-request semantics, one public
/// core call at a time, each under its own span.
class Shadow {
 public:
  Shadow(const drtp::net::Topology& topo, Tracer* tr)
      : net_(topo, core::NetworkConfig{.spare_mode = core::SpareMode::kMultiplexed,
                                       .duplex_failures = false}),
        db_(topo.num_links(), topo.num_links()),
        scheme_(sim::MakeScheme("D-LSR", topo, 1), tr),
        tr_(tr) {}

  const core::DrtpNetwork& net() const { return net_; }

  /// Steps one batch; `effective` receives the events the engine logs to
  /// its WAL. Returns, per request, whether the engine must answer ok.
  std::vector<bool> Step(const std::vector<svc::DecodedRequest>& batch,
                         std::vector<sim::ScenarioEvent>* effective) {
    using Type = sim::ScenarioEvent::Type;
    std::vector<bool> ok;
    ok.reserve(batch.size());
    {
      Scope s(tr_, kPublish);
      net_.PublishTo(db_, t_);
    }
    for (const svc::DecodedRequest& d : batch) {
      const svc::Request& r = d.request;
      bool good = true;
      switch (r.method) {
        case svc::Method::kAdmit: {
          if (net_.Find(r.conn) != nullptr) {
            good = false;
            break;
          }
          t_ += 1.0;
          effective->push_back({.type = Type::kRequest, .time = t_,
                                .conn = r.conn, .src = r.src, .dst = r.dst,
                                .bw = r.bw});
          Scope s(tr_, kAdmit);
          core::AdmitConnection(scheme_, net_, db_, r.conn, r.src, r.dst,
                                r.bw, t_, core::AdmitOptions{.num_backups = 1});
          break;
        }
        case svc::Method::kRelease: {
          if (net_.Find(r.conn) == nullptr) {
            good = false;
            break;
          }
          t_ += 1.0;
          effective->push_back({.type = Type::kRelease, .time = t_,
                                .conn = r.conn});
          Scope s(tr_, kRelease);
          net_.ReleaseConnection(r.conn);
          break;
        }
        case svc::Method::kFailLink: {
          if (!net_.IsLinkUp(r.link)) break;
          t_ += 1.0;
          effective->push_back({.type = Type::kLinkFail, .time = t_,
                                .link = r.link});
          {
            Scope s(tr_, kLinkFailure);
            core::ApplyLinkFailure(net_, r.link, t_, &scheme_, &db_);
            scheme_.OnTopologyChanged(net_);
          }
          Scope s(tr_, kPublish);
          net_.PublishTo(db_, t_);
          break;
        }
        case svc::Method::kRepairLink: {
          if (net_.IsLinkUp(r.link)) break;
          t_ += 1.0;
          effective->push_back({.type = Type::kLinkRepair, .time = t_,
                                .link = r.link});
          {
            Scope s(tr_, kLinkRepair);
            net_.SetLinkUp(r.link);
            scheme_.OnTopologyChanged(net_);
          }
          Scope s(tr_, kPublish);
          net_.PublishTo(db_, t_);
          break;
        }
        case svc::Method::kStats: {
          Scope s(tr_, kPbkSweep);
          core::EvaluateAllSingleLinkFailures(net_);
          break;
        }
      }
      ok.push_back(d.ok && good);
    }
    return ok;
  }

 private:
  core::DrtpNetwork net_;
  drtp::lsdb::LinkStateDb db_;
  TimedScheme scheme_;
  Tracer* tr_;
  Time t_ = 0.0;
};

std::string Hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

/// One replica of the daemon path: wire framing, rpc decode, an engine,
/// the shadow network and the shadow WAL, stepped one batch at a time.
class Replica {
 public:
  Replica(const drtp::net::Topology& topo, Tracer* tr,
          const std::string& wal_path, ReplayOutcome* out)
      : engine_(topo, DaemonEngineOptions()),
        shadow_(topo, tr),
        tr_(tr),
        wal_path_(wal_path),
        out_(out) {
    if (wal_path.empty()) return;
    std::remove(wal_path.c_str());
    std::string error;
    wal_ = svc::Wal::Open(wal_path, engine_.ConfigDigest(), &error);
    if (wal_ == nullptr) out_->problems.push_back("shadow wal: " + error);
  }

  const core::DrtpNetwork& shadow_net() const { return shadow_.net(); }

  /// Runs one batch under a root span; returns its wall time.
  double Step(const std::vector<std::string>& payloads, bool stats_batch) {
    const std::int64_t t0 = NowNs();
    {
      Scope root(tr_, kReplay);
      decoded_.clear();
      for (const std::string& p : payloads) {
        std::optional<std::string> framed;
        {
          Scope s(tr_, kWireFrame);
          reader_.Feed(svc::EncodeFrame(p));
          framed = reader_.Next();
        }
        Scope s(tr_, kRpcDecode);
        decoded_.push_back(svc::DecodeRequest(*framed));
      }
      std::vector<std::string> responses;
      {
        Scope s(tr_, stats_batch ? kEngineStats : kEngineBatch);
        responses = engine_.ExecuteBatch(decoded_);
      }
      effective_.clear();
      std::vector<bool> expect_ok;
      {
        Scope s(tr_, kShadowStep);
        expect_ok = shadow_.Step(decoded_, &effective_);
      }
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const bool ok = responses[i].find("\"ok\":true") != std::string::npos;
        if (ok != expect_ok[i]) ++mismatches_;
      }
      if (wal_ != nullptr && !effective_.empty()) {
        Scope s(tr_, kWalAppend);
        std::string error;
        if (!wal_->AppendBatch(effective_, &error)) {
          out_->problems.push_back("shadow wal append: " + error);
          wal_.reset();
        }
        ++out_->wal_batches;
      }
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  }

  /// Digest checks: engine vs shadow, and a fresh engine recovered from
  /// the shadow WAL vs the engine.
  void Finish(const drtp::net::Topology& topo) {
    if (mismatches_ > 0) {
      out_->problems.push_back(std::to_string(mismatches_) +
                               " engine responses disagree with the shadow");
    }
    const std::uint64_t digest = engine_.StateDigest();
    const std::uint64_t shadow = svc::NetworkStateDigest(shadow_.net());
    if (shadow != digest) {
      out_->problems.push_back("shadow digest " + Hex(shadow) +
                               " != engine digest " + Hex(digest));
    }
    if (wal_ == nullptr) return;
    out_->wal_bytes = static_cast<std::int64_t>(wal_->bytes());
    wal_.reset();
    svc::Engine recovered(topo, DaemonEngineOptions());
    const double t0 = NowS();
    try {
      recovered.Recover(wal_path_, "");
    } catch (const std::exception& e) {
      out_->problems.push_back(std::string("shadow wal recovery: ") + e.what());
    }
    out_->recover_ms = (NowS() - t0) * 1e3;
    if (recovered.StateDigest() != digest) {
      out_->problems.push_back("recovered digest " +
                               Hex(recovered.StateDigest()) +
                               " != engine digest " + Hex(digest));
    }
    std::remove(wal_path_.c_str());
  }

 private:
  svc::Engine engine_;
  Shadow shadow_;
  Tracer* tr_;
  std::string wal_path_;
  ReplayOutcome* out_;
  std::unique_ptr<svc::Wal> wal_;
  svc::FrameReader reader_;
  std::vector<svc::DecodedRequest> decoded_;
  std::vector<sim::ScenarioEvent> effective_;
  std::int64_t mismatches_ = 0;
};

}  // namespace

ReplayOutcome ReplayDaemonStream(const DaemonReplayConfig& config,
                                 Tracer* tr) {
  ReplayOutcome out, untraced_out;
  const drtp::net::Topology& topo = *config.topo;
  Tracer off(false);
  const auto wal = [&](const char* suffix) {
    return config.wal_stem.empty() ? "" : config.wal_stem + suffix;
  };
  Replica untraced(topo, &off, wal(".untraced.wal"), &untraced_out);
  Replica traced(topo, tr, wal(".traced.wal"), &out);

  std::vector<std::string> payloads;
  std::size_t next = 0;
  std::size_t since_stats = 0;
  std::int64_t id = 0;
  for (;;) {
    // Batch formation is the client's side: outside the spans.
    payloads.clear();
    const bool stats_batch =
        config.stats_every > 0 && since_stats >= config.stats_every;
    if (stats_batch) {
      payloads.push_back(StatsRequest(++id, false));
      since_stats = 0;
    } else {
      while (payloads.size() < static_cast<std::size_t>(config.batch) &&
             next < config.events.size()) {
        const LoadEvent& e = config.events[next++];
        ++since_stats;
        if (config.release_only_live && e.op == LoadEvent::Op::kRelease &&
            traced.shadow_net().Find(e.conn) == nullptr) {
          continue;
        }
        payloads.push_back(RenderEvent(++id, e));
      }
      if (payloads.empty()) break;
    }
    tr->SetRequest(out.batches++);
    // Same batch on both replicas, back to back, so both see the same
    // cache and disk conditions; the order alternates, since the second
    // runs on caches the first warmed.
    if (out.batches % 2 == 0) {
      out.untraced_s += untraced.Step(payloads, stats_batch);
      out.traced_s += traced.Step(payloads, stats_batch);
    } else {
      out.traced_s += traced.Step(payloads, stats_batch);
      out.untraced_s += untraced.Step(payloads, stats_batch);
    }
  }
  untraced.Finish(topo);
  traced.Finish(topo);
  for (std::string& p : untraced_out.problems) {
    out.problems.push_back("untraced: " + p);
  }
  out.recover_ms = untraced_out.recover_ms;
  return out;
}

ShadowCellMetrics ReplaySimCell(const drtp::net::Topology& topo,
                                const sim::Scenario& scenario,
                                const std::string& scheme_label,
                                std::uint64_t scheme_seed,
                                const sim::ExperimentConfig& ec,
                                Tracer* tr) {
  // sim::RunScenario's event loop for a cell without failures, retries or
  // periodic refresh: P_bk samples interleaved in time order, publication
  // after every admit and release.
  ShadowCellMetrics m;
  core::DrtpNetwork net(topo, core::NetworkConfig{.spare_mode = ec.spare_mode,
                                                  .duplex_failures = false});
  drtp::lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  TimedScheme scheme(sim::MakeScheme(scheme_label, topo, scheme_seed), tr);
  const Time duration = scenario.traffic.duration;
  std::unordered_set<drtp::ConnId> admitted;
  Time next_sample = ec.warmup;
  const auto sample = [&] {
    Scope s(tr, kPbkSweep);
    const drtp::Ratio r = core::EvaluateAllSingleLinkFailures(net);
    m.pbk_hits += r.hits;
    m.pbk_trials += r.trials;
  };
  Scope root(tr, kReplay);
  {
    Scope s(tr, kPublish);
    net.PublishTo(db, 0.0);
  }
  for (const sim::ScenarioEvent& e : scenario.events) {
    while (next_sample <= duration && next_sample <= e.time) {
      sample();
      next_sample += ec.sample_interval;
    }
    if (e.type == sim::ScenarioEvent::Type::kRequest) {
      ++m.requests;
      core::AdmitOutcome out;
      {
        Scope s(tr, kAdmit);
        out = core::AdmitConnection(
            scheme, net, db, e.conn, e.src, e.dst, e.bw, e.time,
            core::AdmitOptions{.num_backups = ec.num_backups});
      }
      if (!out.admitted) {
        ++m.blocked;
        continue;
      }
      ++m.admitted;
      admitted.insert(e.conn);
      Scope s(tr, kPublish);
      net.PublishTo(db, e.time);
    } else if (e.type == sim::ScenarioEvent::Type::kRelease) {
      if (admitted.erase(e.conn) > 0 && net.Find(e.conn) != nullptr) {
        {
          Scope s(tr, kRelease);
          net.ReleaseConnection(e.conn);
        }
        Scope s(tr, kPublish);
        net.PublishTo(db, e.time);
      }
    }
  }
  while (next_sample <= duration) {
    sample();
    next_sample += ec.sample_interval;
  }
  return m;
}

}  // namespace drtpbench
