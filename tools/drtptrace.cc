// drtptrace — summarize a drtp.trace/1 JSONL file.
//
// Reads one schema-versioned JSON object per line (the output of
// `drtpsim run --trace-format=jsonl`, `drtpsweep --trace=...`, or a
// drtpd flight-recorder dump) and prints:
//   - a per-scheme × event-kind count table,
//   - failover-cost percentiles: the hop count of each promoted backup
//     (the paper's proxy for switchover delay — the longer the activated
//     backup, the longer the new primary),
//   - reestablish gaps: sim-time from a connection's failover or
//     backup-break to its next fresh backup registration, and
//   - for flight-recorder dumps (`flight_dump` header + `fr_*` events):
//     the dump reason, per-kind event counts, and a per-pipeline-stage
//     count/mean/p99 latency table over the sampled `fr_rpc_span` events.
//
// The parser is deliberately small: it extracts only the fields the
// summary needs from the writer's known one-line layout; unknown keys
// and unrelated lines are skipped.
//
// Usage:
//   drtptrace --in=run.jsonl
//   drtpsim run ... --trace=- --trace-format=jsonl | drtptrace
//   kill -USR1 <drtpd pid>; drtptrace --in=flight.jsonl
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "common/types.h"
#include "obs/trace.h"

using namespace drtp;

namespace {

/// Event kinds in drtp.trace/1, in enum (reporting) order: every name
/// obs::TraceEventKindName knows, up to the "?" past the last kind.
const std::vector<std::string>& Kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> out;
    for (int k = 0;; ++k) {
      const std::string_view name =
          obs::TraceEventKindName(static_cast<obs::TraceEventKind>(k));
      if (name == "?") return out;
      out.emplace_back(name);
    }
  }();
  return kinds;
}

/// Extracts the string value of `"key":"..."` from a one-line JSON
/// object; empty when absent. Handles escaped characters by stopping at
/// the first unescaped quote (keys written by JsonWriter are unescaped
/// ASCII in practice).
std::string FindString(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  std::string out;
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out += line[++i];
    } else if (c == '"') {
      break;
    } else {
      out += c;
    }
  }
  return out;
}

/// Extracts the numeric value of `"key":<number>`; `def` when absent.
double FindNumber(const std::string& line, const std::string& key,
                  double def) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return def;
  pos += needle.size();
  if (pos >= line.size() || line[pos] == '"' || line[pos] == '[' ||
      line[pos] == '{') {
    return def;
  }
  try {
    return std::stod(line.substr(pos));
  } catch (const std::exception&) {
    return def;
  }
}

/// Number of elements in the flat array `"key":[a,b,...]`; -1 when
/// absent. Counts depth-1 commas, so it is only correct for arrays of
/// scalars (the `primary` / `backup` node lists).
int FindArrayLen(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":[";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  pos += needle.size();
  if (pos < line.size() && line[pos] == ']') return 0;
  int depth = 1;
  int count = 1;
  for (std::size_t i = pos; i < line.size() && depth > 0; ++i) {
    const char c = line[i];
    if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    } else if (c == ',' && depth == 1) {
      ++count;
    }
  }
  return count;
}

std::string Quantile(std::vector<double>& values, double q, int prec) {
  if (values.empty()) return "--";
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, values[idx]);
  return buf;
}

struct SchemeStats {
  std::vector<std::int64_t> counts =
      std::vector<std::int64_t>(Kinds().size());
  std::vector<double> promoted_hops;
  std::vector<double> reestablish_gaps;
  /// conn -> time its backup was consumed or broken (awaiting step 4).
  std::map<std::int64_t, double> awaiting_backup;
};

/// The per-request pipeline stages a flight-recorder `fr_rpc_span` event
/// carries, in pipeline order (keys as written by the dump).
const char* const kSpanStages[] = {"decode_ns", "reorder_ns", "engine_ns",
                                   "respond_ns"};
constexpr int kNumSpanStages = static_cast<int>(std::size(kSpanStages));

/// Accumulated flight-recorder dump content (`flight_dump` header plus
/// `fr_*` event lines).
struct FlightStats {
  std::vector<std::string> reasons;            ///< one per dump header
  std::map<std::string, std::int64_t> counts;  ///< by kind, "fr_" stripped
  std::vector<double> stage_us[kNumSpanStages];
  std::vector<double> total_us;  ///< per-span sum of all stages

  bool any() const { return !reasons.empty() || !counts.empty(); }
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("drtptrace");
  auto& in_path =
      flags.String("in", "-", "drtp.trace/1 JSONL file, '-' for stdin");
  flags.Parse(argc, argv);

  std::ifstream file;
  if (in_path != "-") {
    file.open(in_path);
    if (!file.good()) {
      std::fprintf(stderr, "drtptrace: cannot open '%s'\n", in_path.c_str());
      return 2;
    }
  }
  std::istream& in = in_path == "-" ? std::cin : file;

  std::map<std::string, SchemeStats> schemes;
  FlightStats flight;
  std::int64_t lines = 0;
  std::int64_t skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    if (FindString(line, "schema") != "drtp.trace/1") {
      ++skipped;
      continue;
    }
    const std::string ev = FindString(line, "ev");
    if (ev == "flight_dump") {
      std::string reason = FindString(line, "reason");
      flight.reasons.push_back(reason.empty() ? "?" : std::move(reason));
      continue;
    }
    if (ev.rfind("fr_", 0) == 0) {
      ++flight.counts[ev.substr(3)];
      if (ev == "fr_rpc_span") {
        double total = 0.0;
        for (int s = 0; s < kNumSpanStages; ++s) {
          const double ns = FindNumber(line, kSpanStages[s], 0.0);
          flight.stage_us[s].push_back(ns / 1e3);
          total += ns;
        }
        flight.total_us.push_back(total / 1e3);
      }
      continue;
    }
    const auto kind =
        std::find(Kinds().begin(), Kinds().end(), ev) - Kinds().begin();
    if (kind == std::ssize(Kinds())) {
      ++skipped;
      continue;
    }
    std::string scheme = FindString(line, "scheme");
    if (scheme.empty()) scheme = "?";
    SchemeStats& s = schemes[scheme];
    ++s.counts[kind];

    const double t = FindNumber(line, "t", 0.0);
    const auto conn =
        static_cast<std::int64_t>(FindNumber(line, "conn", -1.0));
    if (ev == "failover") {
      const int nodes = FindArrayLen(line, "primary");
      if (nodes >= 2) s.promoted_hops.push_back(nodes - 1);
      if (conn >= 0) s.awaiting_backup.emplace(conn, t);
    } else if (ev == "backup_break") {
      if (conn >= 0) s.awaiting_backup.emplace(conn, t);
    } else if (ev == "reestablish") {
      if (conn >= 0) {
        const auto it = s.awaiting_backup.find(conn);
        if (it != s.awaiting_backup.end()) {
          s.reestablish_gaps.push_back(t - it->second);
          s.awaiting_backup.erase(it);
        }
      }
    }
  }
  if (lines == 0) {
    std::fprintf(stderr, "drtptrace: no input lines\n");
    return 2;
  }

  if (!schemes.empty() || !flight.any()) {
    TextTable counts([] {
      std::vector<std::string> headers{"scheme"};
      headers.insert(headers.end(), Kinds().begin(), Kinds().end());
      return headers;
    }());
    for (auto& [name, s] : schemes) {
      counts.BeginRow();
      counts.Cell(name);
      for (const std::int64_t n : s.counts) counts.Cell(n);
    }
    std::printf("Event counts (%lld lines, %lld skipped):\n",
                static_cast<long long>(lines),
                static_cast<long long>(skipped));
    std::fputs(counts.Render().c_str(), stdout);
  }

  TextTable fo({"scheme", "failovers", "promoted hops p50", "p90", "p99",
                "reestablish gap p50", "p90"});
  bool any = false;
  for (auto& [name, s] : schemes) {
    if (s.promoted_hops.empty() && s.reestablish_gaps.empty()) continue;
    any = true;
    fo.BeginRow();
    fo.Cell(name);
    fo.Cell(static_cast<std::int64_t>(s.promoted_hops.size()));
    fo.Cell(Quantile(s.promoted_hops, 0.5, 0));
    fo.Cell(Quantile(s.promoted_hops, 0.9, 0));
    fo.Cell(Quantile(s.promoted_hops, 0.99, 0));
    fo.Cell(Quantile(s.reestablish_gaps, 0.5, 3));
    fo.Cell(Quantile(s.reestablish_gaps, 0.9, 3));
  }
  if (any) {
    std::printf("\nFailover cost (promoted-backup hops, step-4 gaps):\n");
    std::fputs(fo.Render().c_str(), stdout);
  }

  if (flight.any()) {
    std::string reasons;
    for (const std::string& r : flight.reasons) {
      if (!reasons.empty()) reasons += ", ";
      reasons += r;
    }
    std::printf("%sFlight recorder (%zu dump%s: %s):\n",
                schemes.empty() ? "" : "\n", flight.reasons.size(),
                flight.reasons.size() == 1 ? "" : "s", reasons.c_str());
    TextTable fr_counts({"event", "count"});
    for (const auto& [kind, n] : flight.counts) {
      fr_counts.BeginRow();
      fr_counts.Cell(kind);
      fr_counts.Cell(n);
    }
    std::fputs(fr_counts.Render().c_str(), stdout);

    if (!flight.total_us.empty()) {
      TextTable spans({"stage", "count", "mean us", "p50 us", "p99 us"});
      const auto add_row = [&spans](const char* label,
                                    std::vector<double>& us) {
        double mean = 0.0;
        for (const double v : us) mean += v;
        mean /= static_cast<double>(us.size());
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.1f", mean);
        spans.BeginRow();
        spans.Cell(label);
        spans.Cell(static_cast<std::int64_t>(us.size()));
        spans.Cell(std::string(buf));
        spans.Cell(Quantile(us, 0.5, 1));
        spans.Cell(Quantile(us, 0.99, 1));
      };
      for (int s = 0; s < kNumSpanStages; ++s) {
        // Strip the "_ns" suffix; the table is rendered in microseconds.
        const std::string label(kSpanStages[s],
                                std::strlen(kSpanStages[s]) - 3);
        add_row(label.c_str(), flight.stage_us[s]);
      }
      add_row("total", flight.total_us);
      std::printf("\nSampled request spans (fr_rpc_span):\n");
      std::fputs(spans.Render().c_str(), stdout);
    }
  }
  return 0;
}
