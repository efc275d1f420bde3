// svc::Engine — the daemon's single-threaded admission core.
//
// A driver over sim::EventApplier, which owns the network state, the
// advertised LSDB and the event rules. The engine adds validation,
// responses, counters, the flight recorder, audits, the WAL and
// snapshots, and no re-protection retries. One LSDB snapshot is taken per
// batch, so every admission in the batch routes against the same
// advertisement (the admit_batch microbenchmark's amortization);
// failures and repairs re-publish at once.
//
// Replay equivalence: the WAL holds every state-changing event at its
// virtual time (1.0, 2.0, ...); recovery feeds it back into the applier.
// With batch_max=1 the per-batch snapshot is the simulator's instant
// advertisement, so `drtpsim run --scenario=<wal>` reproduces the live
// state bit-for-bit (svc_test pins this via NetworkStateDigest).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "drtp/manager.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "fault/auditor.h"
#include "net/topology.h"
#include "sim/event_applier.h"
#include "sim/scenario.h"
#include "svc/rpc.h"

namespace drtp::svc {

class Wal;        // svc/wal.h
struct Snapshot;  // svc/snapshot.h

/// FNV-1a digest over the authoritative state a replay must reproduce:
/// connection table (id, endpoints, bandwidth, primary and backup links),
/// per-link up/down + prime/spare ledger pools, and per-link APLV
/// abridgements (L1, max). Deterministic iteration order; stable across
/// processes.
std::uint64_t NetworkStateDigest(const core::DrtpNetwork& net);

struct EngineOptions {
  /// Routing scheme label (sim::MakeScheme's vocabulary).
  std::string scheme = "D-LSR";
  /// Scheme seed (RandomBackup).
  std::uint64_t seed = 1;
  int num_backups = 1;
  core::SpareMode spare_mode = core::SpareMode::kMultiplexed;
  /// Audit every N committed batches (0 = off). Failure events and the
  /// final drain audit always run when auditing is on.
  int audit_interval = 0;
  /// drtp.audit/1 JSONL sink for violations; null = keep them in memory
  /// only. Must outlive the engine.
  std::ostream* audit_out = nullptr;
  /// Where to write an obs::FlightRecorder dump when the auditor reports
  /// its first violation (post-mortem without --trace). Empty = no dump.
  std::string flight_dump_path;
  /// Write a drtp.snap/1 snapshot every N committed batches (0 = never).
  int snapshot_interval = 0;
  /// Snapshot destination (tmp + fsync + rename). Required when
  /// snapshot_interval > 0; also used by the explicit WriteSnapshot().
  std::string snapshot_path;
};

/// FNV-1a over everything replay equivalence depends on besides the
/// request stream: scheme label, seed, backup count, spare mode, and the
/// topology shape (per-link endpoints + capacity). WAL headers and
/// snapshots bind to this; recovery and WAL replay refuse a mismatch.
std::uint64_t ConfigDigest(std::string_view scheme, std::uint64_t seed,
                           int num_backups, core::SpareMode spare_mode,
                           const net::Topology& topo);

/// Cumulative request accounting (all-time, monotone except batch_last).
struct EngineStats {
  std::int64_t frames = 0;       ///< decoded frames seen (incl. errors)
  std::int64_t errors = 0;       ///< frames answered with ok=false
  std::int64_t admitted = 0;
  std::int64_t blocked = 0;
  std::int64_t released = 0;
  std::int64_t link_fails = 0;   ///< enacted (link was up)
  std::int64_t link_repairs = 0; ///< enacted (link was down)
  std::int64_t batches = 0;
  std::int64_t batch_last = 0;   ///< size of the batch being executed
  std::int64_t wal_batches = 0;  ///< records group-committed to the WAL
  std::int64_t snapshots = 0;    ///< drtp.snap/1 files written
};

/// What Engine::Recover did, for the startup banner and the chaos
/// harness. Recovered state-changing counters (admitted/blocked/...) are
/// exact; frames/errors/batches are approximate after a replay because
/// error-answered frames are state-neutral and never WAL-logged.
struct RecoverReport {
  bool from_snapshot = false;
  std::uint64_t wal_valid_bytes = 0;
  std::uint64_t wal_truncated_bytes = 0;
  std::int64_t batches_replayed = 0;
  std::int64_t events_replayed = 0;
};

/// Not thread-safe: the pipeline serializes every batch through one
/// engine thread, which is precisely what makes responses deterministic.
class Engine {
 public:
  Engine(const net::Topology& topo, EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes `batch` in order; returns one rendered drtp.rpc/1 response
  /// per entry, same order. Takes the batch's LSDB snapshot first.
  std::vector<std::string> ExecuteBatch(std::span<const DecodedRequest> batch);

  /// The drain audit (always runs when auditing is on). Returns the
  /// total violation count observed over the engine's lifetime.
  std::int64_t FinalAudit();

  std::uint64_t StateDigest() const { return NetworkStateDigest(network()); }

  std::uint64_t ConfigDigest() const {
    return svc::ConfigDigest(options_.scheme, options_.seed,
                             options_.num_backups, options_.spare_mode,
                             topology());
  }

  /// Crash recovery: truncate-and-verify the WAL, load the snapshot when
  /// present (restoring table/scheme state and verifying its recorded
  /// NetworkStateDigest), then feed the WAL suffix's events to the
  /// applier batch by batch. Requires a fresh engine (no requests
  /// executed). Throws drtp::ParseError on any refusal: config mismatch,
  /// snapshot digest mismatch, snapshot bound past the recovered WAL, or
  /// replay divergence (an event out of range, off the virtual clock, or
  /// without effect on the recovered state). Empty `wal_path` skips the
  /// WAL (snapshot only); `snapshot_path` may name a nonexistent file
  /// (WAL-only replay).
  RecoverReport Recover(const std::string& wal_path,
                        const std::string& snapshot_path);

  /// Restores a parsed snapshot into a fresh engine: down links first,
  /// then every primary in id order (two passes — backups may overbook,
  /// so interleaving could starve a later primary of free bandwidth),
  /// then all backups, then scheme state, then a full digest check
  /// against snap.state_digest (ParseError on mismatch).
  void RestoreSnapshot(const Snapshot& snap);

  /// Writes a snapshot to options_.snapshot_path now (drain hook; the
  /// periodic cadence calls this internally). False + *error on I/O
  /// failure.
  bool WriteSnapshot(std::string* error);

  /// Attaches the write-ahead log: from here on, ExecuteBatch appends
  /// one record + fsync per committed batch *before* its responses are
  /// released. Attached after construction because in --recover mode the
  /// log may only be opened for append once Recover() has truncated its
  /// torn tail. Not owned; must outlive the engine. An append failure is
  /// fatal by design — responses must never be released without their
  /// durability record.
  void AttachWal(Wal* wal) { wal_ = wal; }

  /// Points the stats RPC's `shed` gauge at the pipeline's shed counter
  /// (the engine never sheds; the server does, before decode).
  void BindShedCounter(const std::atomic<std::int64_t>* counter) {
    shed_ = counter;
  }

  const EngineStats& stats() const { return stats_; }
  /// Current virtual time (1 tick per state-changing event) — the
  /// timestamp recovery hands the post-recovery audit.
  Time virtual_now() const { return t_; }
  const net::Topology& topology() const { return network().topology(); }
  const core::DrtpNetwork& network() const { return applier_.network(); }
  std::int64_t audit_checks() const;
  std::int64_t audit_violations() const;
  /// Active connections currently running without any backup.
  std::int64_t DegradedCount() const;

 private:
  std::string DoAdmit(const Request& req);
  std::string DoRelease(const Request& req);
  std::string DoLink(const Request& req);  ///< fail-link, repair-link
  std::string DoStats(const Request& req);
  Time NextEventTime() { return t_ += 1.0; }
  /// Applies one state-changing event with the daemon's bookkeeping.
  sim::EventOutcome Enact(const sim::ScenarioEvent& e);
  /// WAL group commit, batch counters, audit and snapshot cadence.
  void CommitBatch();
  /// Periodic snapshot cadence (every snapshot_interval batches).
  void MaybeSnapshot();
  /// Flight-records an audit sample and, on the first violation, dumps
  /// the recorder to options_.flight_dump_path.
  void AfterAuditCheck();

  EngineOptions options_;
  std::unique_ptr<core::RoutingScheme> scheme_;
  sim::EventApplier applier_;
  std::unique_ptr<fault::Auditor> auditor_;
  EngineStats stats_;
  /// Virtual clock: 1.0 per state-changing event, so the WAL is a
  /// well-formed scenario (strictly increasing times).
  Time t_ = 0.0;
  /// The current batch's effective events — the WAL group-commit buffer.
  std::vector<sim::ScenarioEvent> batch_events_;
  /// Attached log (AttachWal); null = no durability.
  Wal* wal_ = nullptr;
  /// True while Recover replays the WAL: suppresses WAL appends (the
  /// events being replayed are already durable) and snapshot cadence.
  bool replaying_ = false;
  /// Pipeline shed counter for the stats RPC (null until bound).
  const std::atomic<std::int64_t>* shed_ = nullptr;
  bool flight_dumped_ = false;  ///< audit-violation dump fired already
};

}  // namespace drtp::svc
