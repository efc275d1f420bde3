// The benchmark's workloads. Each runs untraced and fills the end-to-end
// metrics; with Options::trace it also runs the traced replay and fills
// the per-layer metrics instead (README.md lists both sets).
#pragma once

#include <string>

#include "util.h"

namespace drtpbench {

/// Per-layer metrics a workload does not exercise read 0.
void AddAllLayerMetrics(Result* result);
/// Sets a per-layer metric added by AddAllLayerMetrics.
void SetLayer(Result* result, const std::string& name, double value);

class Tracer;
/// Per-layer means and counts from a traced replay, the layer-sum check
/// (the shadow's layer self times against `reference_s`, the time the real
/// code path took for the same work), and the tracing overhead (traced
/// minus untraced replay wall time).
void FillTracedLayers(const Tracer& traced, double reference_s,
                      double overhead_s, double untraced_s, Result* result);

Result RunSimFig4(const Options& options, const std::string& golden);
Result RunDaemonW60Closed(const Options& options);
Result RunDaemonH1kOpenWal(const Options& options);
Result RunEngineH1k(const Options& options);

/// Writes the canonical fig4 --fast grid's per-cell lines to `path`.
int WriteFig4Golden(const std::string& path);

/// Checks the load client's own accounting against a scripted server.
int RunSelfTest(const Options& options);

}  // namespace drtpbench
