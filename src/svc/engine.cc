#include "svc/engine.h"

#include <unistd.h>

#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "drtp/failure.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/paper.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace drtp::svc {
namespace {

/// Process-wide service counters (drtp.svc.*), resolved once.
struct SvcCounters {
  obs::Counter frames = obs::GetCounter("drtp.svc.frames");
  obs::Counter errors = obs::GetCounter("drtp.svc.errors");
  obs::Counter admits = obs::GetCounter("drtp.svc.admits");
  obs::Counter blocks = obs::GetCounter("drtp.svc.blocks");
  obs::Counter releases = obs::GetCounter("drtp.svc.releases");
  obs::Counter link_fails = obs::GetCounter("drtp.svc.link_fails");
  obs::Counter link_repairs = obs::GetCounter("drtp.svc.link_repairs");
  obs::Counter batches = obs::GetCounter("drtp.svc.batches");
};

const SvcCounters& Counters() {
  static const SvcCounters counters;
  return counters;
}

obs::FlightRecorder& Flight() { return obs::FlightRecorder::Global(); }

/// Bumps an EngineStats field together with its drtp.svc.* counter.
void Count(std::int64_t& stat, obs::Counter counter) {
  ++stat;
  counter.Add();
}

/// Stable small index for an error code, for flight-recorder args (the
/// recorder stores only integers). Order mirrors the taxonomy listing in
/// rpc.h / docs/DRTPD.md.
std::int64_t ErrorCodeIndex(std::string_view code) {
  constexpr std::string_view kCodes[] = {
      kErrBadFrame,  kErrBadJson,  kErrBadRequest, kErrUnknownMethod,
      kErrConnExists, kErrNotFound, kErrOutOfRange, kErrDraining,
      kErrOverloaded,
  };
  for (std::size_t i = 0; i < std::size(kCodes); ++i) {
    if (code == kCodes[i]) return static_cast<std::int64_t>(i);
  }
  return -1;
}

/// Byte-order-independent int fold (explicit little-endian byte walk).
std::uint64_t FoldInt(std::uint64_t d, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    d ^= (u >> (i * 8)) & 0xFF;
    d *= kFnv1aPrime;
  }
  return d;
}

/// Renders an error and counts it — all failures, decode and handler
/// alike, route through here so stats_.errors matches the ok=false
/// responses on the wire.
std::string CountedError(EngineStats& stats, std::int64_t id,
                         std::string_view code, const std::string& detail) {
  Count(stats.errors, Counters().errors);
  Flight().Record(obs::FlightKind::kError, id, ErrorCodeIndex(code));
  return RenderErrorResponse(id, code, detail);
}

}  // namespace

std::uint64_t NetworkStateDigest(const core::DrtpNetwork& net) {
  std::uint64_t d = kFnv1aOffset;
  const net::Topology& topo = net.topology();
  d = FoldInt(d, topo.num_nodes());
  d = FoldInt(d, topo.num_links());
  // Connection table (std::map — ascending, deterministic).
  for (const auto& [id, conn] : net.connections()) {
    d = FoldInt(d, id);
    d = FoldInt(d, conn.src);
    d = FoldInt(d, conn.dst);
    d = FoldInt(d, conn.bw);
    d = FoldInt(d, conn.primary.hops());
    for (const LinkId l : conn.primary.links()) d = FoldInt(d, l);
    d = FoldInt(d, static_cast<std::int64_t>(conn.backups.size()));
    for (const routing::Path& b : conn.backups) {
      d = FoldInt(d, b.hops());
      for (const LinkId l : b.links()) d = FoldInt(d, l);
    }
  }
  // Per-link dynamic state: up/down, ledger pools, APLV abridgements.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    d = FoldInt(d, net.IsLinkUp(l) ? 1 : 0);
    d = FoldInt(d, net.ledger().prime(l));
    d = FoldInt(d, net.ledger().spare(l));
    d = FoldInt(d, net.aplv(l).L1());
    d = FoldInt(d, net.aplv(l).Max());
  }
  return d;
}

Engine::Engine(const net::Topology& topo, EngineOptions options)
    : options_(std::move(options)),
      scheme_(sim::MakeScheme(options_.scheme, topo, options_.seed)),
      applier_(topo, *scheme_,
               sim::ApplierConfig{.spare_mode = options_.spare_mode,
                                  .num_backups = options_.num_backups,
                                  .reprotect_max_retries = 0}) {
  if (options_.audit_interval > 0) {
    auditor_ = std::make_unique<fault::Auditor>(fault::AuditorOptions{
        .out = options_.audit_out,
        .require_srlg_disjoint = scheme_->requires_srlg_disjoint_backup()});
  }
}

Engine::~Engine() = default;

void Engine::CommitBatch() {
  if (wal_ != nullptr && !replaying_ && !batch_events_.empty()) {
    // Durability point: the batch's effective events reach stable
    // storage before any of its responses leave ExecuteBatch. A failed
    // append (disk full, dead device) is fatal by design — releasing
    // un-durable responses would break the recovery contract.
    std::string err;
    DRTP_CHECK_MSG(wal_->AppendBatch(batch_events_, &err),
                   "wal group commit failed: " << err);
    ++stats_.wal_batches;
  }
  batch_events_.clear();
  Count(stats_.batches, Counters().batches);
  if (auditor_ != nullptr && options_.audit_interval > 0 &&
      stats_.batches % options_.audit_interval == 0) {
    auditor_->Check(network(), t_, "batch_commit", nullptr);
    AfterAuditCheck();
  }
  MaybeSnapshot();
}

std::vector<std::string> Engine::ExecuteBatch(
    std::span<const DecodedRequest> batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  if (batch.empty()) return out;
  stats_.batch_last = static_cast<std::int64_t>(batch.size());
  // One snapshot per batch: every admission in the batch routes against
  // this advertisement. Failures and repairs re-publish at once (Enact).
  applier_.Publish(t_);
  for (const DecodedRequest& d : batch) {
    Count(stats_.frames, Counters().frames);
    if (!d.ok) {
      out.push_back(CountedError(stats_, d.id, d.error_code, d.error_detail));
    } else if (d.request.method == Method::kAdmit) {
      out.push_back(DoAdmit(d.request));
    } else if (d.request.method == Method::kRelease) {
      out.push_back(DoRelease(d.request));
    } else if (d.request.method == Method::kStats) {
      out.push_back(DoStats(d.request));
    } else {  // fail-link, repair-link
      out.push_back(DoLink(d.request));
    }
  }
  CommitBatch();
  return out;
}

sim::EventOutcome Engine::Enact(const sim::ScenarioEvent& e) {
  // Group-commit buffer: CommitBatch appends these to the WAL (one
  // record, one fsync) before the batch's responses are released.
  batch_events_.push_back(e);
  sim::EventOutcome out = applier_.Apply(e);
  if (out.effect == sim::Effect::kNone) return out;
  if (e.type == sim::ScenarioEvent::Type::kRequest && out.admit.admitted) {
    Count(stats_.admitted, Counters().admits);
    Flight().Record(obs::FlightKind::kAdmit, e.conn, out.admit.primary->hops(),
                    out.admit.has_backup() ? 1 : 0);
  } else if (e.type == sim::ScenarioEvent::Type::kRequest) {
    Count(stats_.blocked, Counters().blocks);
    Flight().Record(obs::FlightKind::kBlock, e.conn);
  } else if (e.type == sim::ScenarioEvent::Type::kRelease) {
    Count(stats_.released, Counters().releases);
    Flight().Record(obs::FlightKind::kRelease, e.conn,
                    network().ActiveCount());
  } else if (e.type == sim::ScenarioEvent::Type::kLinkFail) {
    // Failures re-advertise immediately even mid-batch: later admissions
    // in this batch must not route onto a dead link.
    applier_.Publish(e.time);
    Count(stats_.link_fails, Counters().link_fails);
    const core::SwitchoverReport& report = out.report;
    Flight().Record(obs::FlightKind::kLinkFail, e.link,
                    static_cast<std::int64_t>(report.recovered.size()),
                    static_cast<std::int64_t>(report.dropped.size()),
                    static_cast<std::int64_t>(report.backups_lost.size()));
    // Per-connection protection transitions: step 4 re-protected some of
    // the affected connections; the rest now run degraded.
    for (const ConnId c : report.rerouted) {
      Flight().Record(obs::FlightKind::kReprotect, c);
    }
    for (const ConnId c : out.degraded) {
      Flight().Record(obs::FlightKind::kDegrade, c);
    }
    if (auditor_ != nullptr) {
      auditor_->Check(network(), e.time, "link_fail", &report);
      AfterAuditCheck();
    }
  } else {  // kLinkRepair: requests and the WAL carry no other kinds
    applier_.Publish(e.time);
    Count(stats_.link_repairs, Counters().link_repairs);
    Flight().Record(obs::FlightKind::kLinkRepair, e.link);
  }
  return out;
}

std::string Engine::DoAdmit(const Request& req) {
  const int nodes = topology().num_nodes();
  if (req.src >= nodes || req.dst >= nodes) {
    return CountedError(stats_, req.id, kErrOutOfRange,
                        "node id out of range [0, " +
                            std::to_string(nodes) + ")");
  }
  if (network().Find(req.conn) != nullptr) {
    return CountedError(stats_, req.id, kErrConnExists,
                        "connection " + std::to_string(req.conn) +
                            " already active");
  }
  const core::AdmitOutcome out =
      Enact({.type = sim::ScenarioEvent::Type::kRequest,
             .time = NextEventTime(),
             .conn = req.conn,
             .src = req.src,
             .dst = req.dst,
             .bw = req.bw})
          .admit;
  JsonWriter w;
  w.BeginObject();
  w.Key("admitted").Bool(out.admitted);
  w.Key("conn").Int(req.conn);
  if (out.admitted) {
    w.Key("primary_hops").Int(out.primary->hops());
    w.Key("protected").Bool(out.has_backup());
    w.Key("backup_hops").Int(out.backup.has_value() ? out.backup->hops() : 0);
    w.Key("overbooked_hops").Int(out.overbooked_hops);
    w.Key("extra_backups").Int(out.extra_backups);
  }
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoRelease(const Request& req) {
  if (network().Find(req.conn) == nullptr) {
    return CountedError(stats_, req.id, kErrNotFound,
                        "no active connection " + std::to_string(req.conn));
  }
  Enact({.type = sim::ScenarioEvent::Type::kRelease,
         .time = NextEventTime(),
         .conn = req.conn});
  JsonWriter w;
  w.BeginObject();
  w.Key("released").Bool(true);
  w.Key("conn").Int(req.conn);
  w.Key("active").Int(network().ActiveCount());
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoLink(const Request& req) {
  const int links = topology().num_links();
  if (req.link >= links) {
    return CountedError(stats_, req.id, kErrOutOfRange,
                        "link id out of range [0, " +
                            std::to_string(links) + ")");
  }
  const bool fail = req.method == Method::kFailLink;
  const bool changed = network().IsLinkUp(req.link) == fail;
  JsonWriter w;
  w.BeginObject();
  w.Key("link").Int(req.link);
  w.Key("changed").Bool(changed);
  if (changed) {
    const sim::EventOutcome ev = Enact(
        {.type = fail ? sim::ScenarioEvent::Type::kLinkFail
                      : sim::ScenarioEvent::Type::kLinkRepair,
         .time = NextEventTime(),
         .link = req.link});
    if (fail) {
      const core::SwitchoverReport& r = ev.report;
      w.Key("recovered").Int(static_cast<std::int64_t>(r.recovered.size()));
      w.Key("dropped").Int(static_cast<std::int64_t>(r.dropped.size()));
      w.Key("backups_lost")
          .Int(static_cast<std::int64_t>(r.backups_lost.size()));
      w.Key("rerouted").Int(static_cast<std::int64_t>(r.rerouted.size()));
    }
  }
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoStats(const Request& req) {
  const core::DrtpNetwork& net = network();
  const Ratio pbk = core::EvaluateAllSingleLinkFailures(net);
  JsonWriter w;
  w.BeginObject();
  w.Key("nodes").Int(net.topology().num_nodes());
  w.Key("links").Int(net.topology().num_links());
  w.Key("active").Int(net.ActiveCount());
  w.Key("frames").Int(stats_.frames);
  w.Key("errors").Int(stats_.errors);
  w.Key("admitted").Int(stats_.admitted);
  w.Key("blocked").Int(stats_.blocked);
  w.Key("released").Int(stats_.released);
  w.Key("link_fails").Int(stats_.link_fails);
  w.Key("link_repairs").Int(stats_.link_repairs);
  w.Key("batches").Int(stats_.batches);
  w.Key("prime_kbps").Int(net.ledger().TotalPrime());
  w.Key("spare_kbps").Int(net.ledger().TotalSpare());
  w.Key("overbooked_links").Int(net.OverbookedCount());
  w.Key("pbk_hits").Int(pbk.hits);
  w.Key("pbk_trials").Int(pbk.trials);
  w.Key("pbk").Double(pbk.value());
  w.Key("digest").String(DigestHex(NetworkStateDigest(net)));
  w.Key("audit_checks").Int(audit_checks());
  w.Key("audit_violations").Int(audit_violations());
  // PR 8 additions — deterministic for a fixed request sequence, so the
  // threads=1 vs threads=4 byte-equality contract still holds.
  w.Key("degraded").Int(DegradedCount());
  w.Key("batch_last").Int(stats_.batch_last);
  // PR 9 additions — all deterministic for a fixed request sequence
  // (shed is 0 unless the server actually hit its admission bound).
  w.Key("wal_batches").Int(stats_.wal_batches);
  w.Key("wal_bytes").Int(
      wal_ != nullptr ? static_cast<std::int64_t>(wal_->bytes()) : 0);
  w.Key("snapshots").Int(stats_.snapshots);
  w.Key("shed").Int(shed_ != nullptr
                        ? shed_->load(std::memory_order_relaxed)
                        : 0);
  if (req.metrics) {
    // Opt-in only: the snapshot holds wall-clock timing histograms and
    // process-global counters, which are NOT deterministic.
    w.Key("metrics");
    obs::Registry::Global().Snapshot().WriteJson(w, /*include_timings=*/true);
  }
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::int64_t Engine::DegradedCount() const {
  std::int64_t n = 0;
  for (const auto& [id, conn] : network().connections()) {
    if (!conn.has_backup()) ++n;
  }
  return n;
}

void Engine::AfterAuditCheck() {
  Flight().Record(obs::FlightKind::kAuditSample, audit_checks(),
                  audit_violations());
  if (!flight_dumped_ && audit_violations() > 0 &&
      !options_.flight_dump_path.empty()) {
    flight_dumped_ = true;
    Flight().DumpToFile(options_.flight_dump_path, "audit_violation");
  }
}

std::int64_t Engine::FinalAudit() {
  if (auditor_ != nullptr) {
    auditor_->Check(network(), t_, "drain", nullptr);
    AfterAuditCheck();
  }
  return audit_violations();
}

std::uint64_t ConfigDigest(std::string_view scheme, std::uint64_t seed,
                           int num_backups, core::SpareMode spare_mode,
                           const net::Topology& topo) {
  std::uint64_t d = kFnv1aOffset;
  d = Fnv1aExtend(d, scheme);
  d = FoldInt(d, static_cast<std::int64_t>(seed));
  d = FoldInt(d, num_backups);
  d = FoldInt(d, spare_mode == core::SpareMode::kMultiplexed ? 0 : 1);
  d = FoldInt(d, topo.num_nodes());
  d = FoldInt(d, topo.num_links());
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const net::Link& link = topo.link(l);
    d = FoldInt(d, link.src);
    d = FoldInt(d, link.dst);
    d = FoldInt(d, link.capacity);
  }
  return d;
}

bool Engine::WriteSnapshot(std::string* error) {
  DRTP_CHECK_MSG(!options_.snapshot_path.empty(),
                 "WriteSnapshot without snapshot_path");
  // Counted before rendering so a recovered engine's `snapshots` stat
  // includes the file it was restored from.
  ++stats_.snapshots;
  const std::uint64_t wal_offset = wal_ != nullptr ? wal_->bytes() : 0;
  const std::string body =
      RenderSnapshotBody(network(), stats_, static_cast<std::int64_t>(t_),
                         ConfigDigest(), wal_offset, scheme_->name(),
                         scheme_->SaveState());
  if (!WriteSnapshotFile(options_.snapshot_path, body, error)) {
    --stats_.snapshots;
    return false;
  }
  return true;
}

void Engine::MaybeSnapshot() {
  if (replaying_ || options_.snapshot_interval <= 0) return;
  if (stats_.batches % options_.snapshot_interval != 0) return;
  std::string err;
  DRTP_CHECK_MSG(WriteSnapshot(&err), "snapshot failed: " << err);
}

void Engine::RestoreSnapshot(const Snapshot& snap) {
  core::DrtpNetwork& net = applier_.mutable_network();
  DRTP_CHECK_MSG(net.ActiveCount() == 0 && t_ == 0.0,
                 "RestoreSnapshot on a non-fresh engine");
  if (snap.config_digest != ConfigDigest()) {
    throw ParseError(
        "snapshot config digest mismatch: the file was written under a "
        "different scheme/seed/backups/spare-mode/topology");
  }
  if (snap.scheme != scheme_->name()) {
    throw ParseError("snapshot scheme '" + snap.scheme +
                     "' != engine scheme '" + scheme_->name() + "'");
  }
  const int links = net.topology().num_links();
  for (const LinkId l : snap.down_links) {
    if (l < 0 || l >= links) {
      throw ParseError("snapshot down link out of range");
    }
    net.SetLinkDown(l);
  }
  // Pass 1: every primary, ascending by id. All primaries must land
  // before any backup registers — RegisterBackup may overbook links, and
  // an interleaved overbooked backup could consume the free bandwidth a
  // later primary needs (EstablishConnection never draws from spare).
  for (const SnapshotConn& c : snap.conns) {
    const auto primary = routing::Path::FromLinks(net.topology(), c.primary);
    if (!primary.has_value()) {
      throw ParseError("snapshot conn " + std::to_string(c.id) +
                       " primary is not a path in this topology");
    }
    if (!net.EstablishConnection(c.id, *primary, c.bw, /*now=*/0.0)) {
      throw ParseError("snapshot conn " + std::to_string(c.id) +
                       " does not fit the topology (down link or "
                       "insufficient bandwidth)");
    }
  }
  // Pass 2: backups, in the serialized order (RegisterBackup never
  // rejects; overbooking is re-derived exactly as it originally was).
  for (const SnapshotConn& c : snap.conns) {
    for (const std::vector<LinkId>& b : c.backups) {
      const auto backup = routing::Path::FromLinks(net.topology(), b);
      if (!backup.has_value()) {
        throw ParseError("snapshot conn " + std::to_string(c.id) +
                         " backup is not a path in this topology");
      }
      net.RegisterBackup(c.id, *backup);
    }
  }
  try {
    scheme_->LoadState(snap.scheme_state);
  } catch (const ParseError& e) {
    throw ParseError(std::string("snapshot scheme state: ") + e.what());
  }
  scheme_->OnTopologyChanged(net);
  stats_ = snap.stats;
  t_ = static_cast<Time>(snap.t);
  const std::uint64_t got = NetworkStateDigest(net);
  if (got != snap.state_digest) {
    throw ParseError("restored state digest " + DigestHex(got) +
                     " != snapshot state_digest " +
                     DigestHex(snap.state_digest));
  }
}

RecoverReport Engine::Recover(const std::string& wal_path,
                              const std::string& snapshot_path) {
  DRTP_CHECK_MSG(stats_.batches == 0 && network().ActiveCount() == 0,
                 "Recover on a non-fresh engine");
  RecoverReport rep;
  WalRecovery wal;
  if (!wal_path.empty()) {
    wal = RecoverWal(wal_path, ConfigDigest());
    rep.wal_valid_bytes = wal.valid_bytes;
    rep.wal_truncated_bytes = wal.truncated_bytes;
  }
  std::uint64_t replay_from = 0;
  if (!snapshot_path.empty() &&
      ::access(snapshot_path.c_str(), F_OK) == 0) {
    const Snapshot snap = LoadSnapshotFile(snapshot_path);
    // The snapshot must land exactly on a recovered record boundary: an
    // offset past the verified prefix means the WAL lost committed
    // records (mid-file corruption, the unrecoverable case), and an
    // unaligned offset means the files do not belong together.
    if (wal.existed) {
      bool boundary = snap.wal_offset == wal.header_end;
      for (const WalBatch& b : wal.batches) {
        boundary = boundary || snap.wal_offset == b.end_offset;
      }
      if (snap.wal_offset > wal.valid_bytes || !boundary) {
        throw ParseError(
            "snapshot is bound to wal offset " +
            std::to_string(snap.wal_offset) + " but the recovered wal has " +
            std::to_string(wal.valid_bytes) +
            " verified bytes with no matching record boundary");
      }
    } else if (snap.wal_offset != 0) {
      throw ParseError("snapshot is bound to wal offset " +
                       std::to_string(snap.wal_offset) +
                       " but no wal was recovered");
    }
    RestoreSnapshot(snap);
    rep.from_snapshot = true;
    replay_from = snap.wal_offset;
  }
  // Feed the suffix to the applier batch by batch, with the live batch
  // bookkeeping. The WAL handle (if any) is suppressed via replaying_ —
  // these events are already durable — and so is the snapshot cadence.
  replaying_ = true;
  try {
    for (const WalBatch& b : wal.batches) {
      if (b.end_offset <= replay_from) continue;
      sim::Scenario batch;
      batch.events = b.events;
      batch.Validate(topology());
      stats_.batch_last = static_cast<std::int64_t>(b.events.size());
      applier_.Publish(t_);  // the batch's LSDB snapshot, as live
      for (const sim::ScenarioEvent& e : b.events) {
        // Every logged event advanced the virtual clock by one tick and
        // changed the state it was applied to; anything else means the
        // log does not belong to this state.
        const bool on_clock = e.time == NextEventTime();
        Count(stats_.frames, Counters().frames);
        if (!on_clock || Enact(e).effect == sim::Effect::kNone) {
          throw ParseError(
              "wal replay diverged: the event at t=" +
              std::to_string(static_cast<std::int64_t>(e.time)) + " (conn " +
              std::to_string(e.conn) + ", link " + std::to_string(e.link) +
              (on_clock ? ") changes nothing in the recovered state"
                        : ") is off the virtual clock"));
        }
      }
      CommitBatch();
      ++rep.batches_replayed;
      rep.events_replayed += static_cast<std::int64_t>(b.events.size());
    }
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
  // Replayed batches were WAL records too: the recovered counter must
  // agree with what a continuation of the original process would show.
  stats_.wal_batches += rep.batches_replayed;
  return rep;
}

std::int64_t Engine::audit_checks() const {
  return auditor_ != nullptr ? auditor_->checks() : 0;
}

std::int64_t Engine::audit_violations() const {
  return auditor_ != nullptr ? auditor_->violation_count() : 0;
}

}  // namespace drtp::svc
