// The benchmark's own load client for drtpd: the daemon process, one RPC
// connection, request rendering, response classification, and the
// closed- and open-loop generators.
//
// Accounting rules (README.md, "Accounting"):
// - A blocked admit is a successful RPC; it counts toward the block ratio,
//   never toward failures.
// - The closed loop releases only connections it saw admitted. The open
//   loop sends every scheduled release; `not_found` is expected after a
//   blocked admit, and after an admitted connection as long as the
//   daemon's fail-link responses reported at least that many dropped
//   connections.
// - Every other error response, a transport failure, a shed (`overloaded`)
//   and a request still unanswered at the drain deadline is a failure.
// - The open loop times each request from its due time, not its send
//   time, and reports how late the sender ran.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/socket.h"
#include "common/types.h"
#include "net/topology.h"
#include "svc/wire.h"

namespace drtpbench {

/// A drtpd child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary args...` with stdout and stderr appended to `log`.
  bool Spawn(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log, std::string* error);
  /// Polls until `socket` answers a stats RPC; false on timeout or exit.
  bool WaitReady(const std::string& socket, double timeout_s,
                 std::string* error);
  /// SIGTERM and wait; the exit code, or -1 if it had to be killed.
  int Terminate(double timeout_s);
  /// SIGKILL and wait.
  void Kill();
  /// Peak resident set (VmHWM) of the running daemon, MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
};

/// One blocking client connection speaking the drtp.rpc/1 framing.
class RpcConn {
 public:
  bool Connect(const std::string& socket, std::string* error);
  bool Send(std::string_view payload);
  /// Next whole frame; nullopt on EOF, error or a framing violation.
  std::optional<std::string> Recv();
  /// Reads what is available without blocking past one recv; appends
  /// complete frames to `out`. False on EOF or error.
  bool Pump(std::vector<std::string>* out);
  int fd() const { return fd_.get(); }

 private:
  drtp::UniqueFd fd_;
  drtp::svc::FrameReader reader_;
};

std::string AdmitRequest(std::int64_t id, drtp::ConnId conn, drtp::NodeId src,
                         drtp::NodeId dst, drtp::Bandwidth bw);
std::string ReleaseRequest(std::int64_t id, drtp::ConnId conn);
std::string LinkRequest(std::int64_t id, bool fail, drtp::LinkId link);
std::string StatsRequest(std::int64_t id, bool metrics);

/// The fields of a response the client accounts for.
struct Reply {
  bool parsed = false;
  std::int64_t id = -1;
  bool ok = false;
  std::string error;         ///< error code when !ok
  bool admitted = false;     ///< admit result
  std::int64_t dropped = 0;  ///< fail-link switchover report
};
Reply ParseReply(std::string_view payload);

/// One operation of a generated request stream.
struct LoadEvent {
  enum class Op { kAdmit, kRelease, kFailLink, kRepairLink };
  Op op = Op::kAdmit;
  drtp::ConnId conn = drtp::kInvalidConn;
  drtp::NodeId src = drtp::kInvalidNode;
  drtp::NodeId dst = drtp::kInvalidNode;
  drtp::Bandwidth bw = 0;
  drtp::LinkId link = drtp::kInvalidLink;
};

struct StreamConfig {
  double lambda = 1.0;          ///< arrivals per virtual second
  std::size_t min_events = 0;   ///< generate at least this many
  /// When > 0, a fail-link every `failure_every` events of a seeded
  /// random link, repaired `failure_every / 2` events later.
  std::size_t failure_every = 0;
  std::uint64_t seed = 1;
};

/// Admits at their arrival, releases at arrival + lifetime, in virtual
/// time order, from sim::GenerateRequests (uniform traffic, 1 Mbps).
std::vector<LoadEvent> MakeStream(const drtp::net::Topology& topo,
                                  const StreamConfig& config);

std::string RenderEvent(std::int64_t id, const LoadEvent& e);

/// What a load run saw, from the client side.
struct LoadReport {
  std::int64_t attempted = 0;  ///< data-plane requests sent
  std::int64_t answered = 0;
  std::int64_t failed = 0;     ///< see the accounting rules above
  std::int64_t slo_miss = 0;   ///< failed, or answered later than the limit
  std::int64_t admits = 0;     ///< admits answered ok
  std::int64_t blocked = 0;
  std::int64_t not_found_expected = 0;
  std::int64_t dropped_reported = 0;
  std::int64_t unmatched = 0;  ///< responses with an unknown or repeated id
  double elapsed_s = 0.0;      ///< first send to last response
  std::vector<double> latency_us;   ///< per answered request
  /// Per answered request, when it was sent (closed loop) or due (open
  /// loop), in seconds since the load began.
  std::vector<double> start_s;
  std::vector<double> rtt_us;       ///< send to response, per answered
  std::vector<double> send_lag_us;  ///< open loop: send minus due
  std::vector<double> stats_rtt_ms; ///< control-connection stats polls
  std::vector<std::string> errors;  ///< first few failure descriptions
};

struct ClosedLoopConfig {
  int clients = 2;
  double seconds = 10.0;
  double slo_us = 0.0;
};

/// `clients` connections, each sending its share of `events` (partitioned
/// by connection id) one at a time, for `seconds`.
LoadReport RunClosedLoop(const std::string& socket,
                         const std::vector<LoadEvent>& events,
                         const ClosedLoopConfig& config);

struct OpenLoopConfig {
  int connections = 2;       ///< data connections
  double rate = 1000.0;      ///< requests per second, due at i / rate
  double seconds = 10.0;
  double slo_us = 0.0;
  double stats_interval_s = 1.0;  ///< control-connection poll; 0 = none
  double drain_timeout_s = 30.0;
};

LoadReport RunOpenLoop(const std::string& socket,
                       const std::vector<LoadEvent>& events,
                       const OpenLoopConfig& config);

}  // namespace drtpbench
