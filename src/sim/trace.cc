#include "sim/trace.h"

#include <span>

#include "common/check.h"

namespace drtp::sim {
namespace {

void WriteNodes(std::ostream& os, std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << '-';
    os << nodes[i];
  }
}

void WriteImpact(std::ostream& os, const obs::TraceEvent& e) {
  os << " recovered " << e.recovered << " dropped " << e.dropped
     << " broken " << e.broken;
}

}  // namespace

TextTraceSink::TextTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)) {
  DRTP_CHECK_MSG(owned_->good(), "cannot write trace to '" << path << "'");
  os_ = owned_.get();
}

void TextTraceSink::Write(const obs::TraceEvent& e) {
  using Kind = obs::TraceEventKind;
  if (e.kind == Kind::kRequest) return;
  std::lock_guard<std::mutex> lk(mu_);
  std::ostream& os = *os_;
  os << e.t;
  switch (e.kind) {
    case Kind::kRequest:  // not rendered, returned above
      break;
    case Kind::kAdmit:
      os << " + conn " << e.conn << " primary ";
      WriteNodes(os, e.primary);
      if (!e.backup.empty()) {
        os << " backup ";
        WriteNodes(os, e.backup);
      }
      break;
    case Kind::kBlock:
      os << " x conn " << e.conn << " (" << e.src << " -> " << e.dst << ")";
      break;
    case Kind::kRelease:
      os << " - conn " << e.conn;
      break;
    case Kind::kLinkFail:
      os << " ! link " << e.link;
      WriteImpact(os, e);
      break;
    case Kind::kLinkRepair:
      os << " ~ link " << e.link << " repaired";
      break;
    case Kind::kFailover:
      os << " > conn " << e.conn << " promoted ";
      WriteNodes(os, e.primary);
      break;
    case Kind::kDrop:
      os << " # conn " << e.conn << " dropped";
      break;
    case Kind::kBackupBreak:
      os << " b conn " << e.conn << " backup broken";
      break;
    case Kind::kReestablish:
      os << " = conn " << e.conn << " backup ";
      WriteNodes(os, e.backup);
      break;
    case Kind::kNodeFail:
      os << " N node " << e.node;
      WriteImpact(os, e);
      break;
    case Kind::kNodeRepair:
      os << " n node " << e.node << " repaired";
      break;
    case Kind::kSrlgFail:
      os << " S srlg " << e.srlg;
      WriteImpact(os, e);
      break;
    case Kind::kSrlgRepair:
      os << " s srlg " << e.srlg << " repaired";
      break;
    case Kind::kDegrade:
      os << " d conn " << e.conn << " degraded retries-left "
         << e.retries_left;
      break;
  }
  os << '\n';
  ++lines_;
}

void TextTraceSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  os_->flush();
}

}  // namespace drtp::sim
