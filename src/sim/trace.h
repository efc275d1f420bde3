// Replay tracing (ns-style event logs).
//
// The paper's toolchain simulated with ns, whose trace files are the
// primary debugging artifact; this is the equivalent for our replays.
// RunScenario writes one obs::TraceEvent per simulation event into
// ExperimentConfig::trace, and TextTraceSink renders those records one
// line per event — the human view next to the JSONL and Chrome exporters
// of obs/trace.h. Wire a sink into ExperimentConfig::trace to see exactly
// why a replay admitted, blocked, or dropped what it did.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/trace.h"

namespace drtp::sim {

/// Renders one line per event to a stream:
///   0.3127 + conn 12 primary 3-7-22 backup 3-9-14-22
///   0.4411 - conn 9
///   0.5000 x conn 17 (4 -> 31)
///   9.1000 ! link 45 recovered 3 dropped 1 broken 2
///   9.1000 > conn 12 promoted 3-9-14-22
///   9.1000 # conn 7 dropped
///   9.1000 b conn 4 backup broken
///   9.1000 = conn 12 backup 3-5-22
///   9.5000 ~ link 45 repaired
///   9.1000 N node 6 recovered 2 dropped 1 broken 0
///   9.5000 n node 6 repaired
///   9.1000 S srlg 2 recovered 1 dropped 0 broken 3
///   9.5000 s srlg 2 repaired
///   9.1000 d conn 12 degraded retries-left 6
/// Requests are not rendered (each is immediately followed by its admit
/// or block line). Locks per record, like the other obs sinks.
class TextTraceSink : public obs::TraceSink {
 public:
  /// Writes to a caller-owned stream (kept alive by the caller).
  explicit TextTraceSink(std::ostream& os) : os_(&os) {}
  /// Truncates and writes `path`; throws CheckError when unwritable.
  explicit TextTraceSink(const std::string& path);

  void Write(const obs::TraceEvent& event) override;
  void Finish() override;

  std::int64_t lines_written() const { return lines_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_;
  std::mutex mu_;
  std::int64_t lines_ = 0;
};

}  // namespace drtp::sim
