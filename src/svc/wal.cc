#include "svc/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "common/json_value.h"
#include "svc/wire.h"

namespace drtp::svc {
namespace {

/// Wire tag for each daemon-effective event kind.
const char* EventTag(sim::ScenarioEvent::Type type) {
  switch (type) {
    case sim::ScenarioEvent::Type::kRequest:
      return "admit";
    case sim::ScenarioEvent::Type::kRelease:
      return "release";
    case sim::ScenarioEvent::Type::kLinkFail:
      return "fail";
    case sim::ScenarioEvent::Type::kLinkRepair:
      return "repair";
    default:
      return nullptr;
  }
}

std::int64_t IntegralTime(Time t) {
  const auto n = static_cast<std::int64_t>(std::llround(t));
  DRTP_CHECK_MSG(static_cast<Time>(n) == t,
                 "wal event time " << t << " is not integral");
  return n;
}

void PutU32Be(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>(v & 0xFF));
}

void PutU64Be(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::uint64_t GetU64Be(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::string RenderHeaderPayload(std::uint64_t config_digest) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kWalSchema);
  w.Key("config").String(DigestHex(config_digest));
  w.EndObject();
  return w.str();
}

/// One decoded record: payload plus the offset just past it.
struct DecodedRecord {
  std::string_view payload;
  std::uint64_t end = 0;
};

/// Decodes the record at `offset`, verifying length plausibility and the
/// trailing digest. Returns false on a torn or corrupt record — the
/// caller truncates there.
bool TryDecodeRecord(std::string_view data, std::uint64_t offset,
                     DecodedRecord* out) {
  if (data.size() - offset < 4) return false;
  const auto b = [&](std::uint64_t i) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned char>(data[offset + i]));
  };
  const std::uint64_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (n > kMaxWalRecordBytes) return false;  // torn length field
  if (data.size() - offset < 4 + n + 8) return false;
  const std::string_view payload = data.substr(offset + 4, n);
  const std::uint64_t want = GetU64Be(data.data() + offset + 4 + n);
  if (Fnv1a(payload) != want) return false;
  out->payload = payload;
  out->end = offset + 4 + n + 8;
  return true;
}

}  // namespace

std::string RenderWalBatchPayload(
    std::span<const sim::ScenarioEvent> events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kWalSchema);
  w.Key("ev").BeginArray();
  for (const sim::ScenarioEvent& e : events) {
    const char* tag = EventTag(e.type);
    DRTP_CHECK_MSG(tag != nullptr, "event kind not loggable to the wal");
    w.BeginObject();
    w.Key("e").String(tag);
    w.Key("t").Int(IntegralTime(e.time));
    switch (e.type) {
      case sim::ScenarioEvent::Type::kRequest:
        w.Key("conn").Int(e.conn);
        w.Key("src").Int(e.src);
        w.Key("dst").Int(e.dst);
        w.Key("bw").Int(e.bw);
        break;
      case sim::ScenarioEvent::Type::kRelease:
        w.Key("conn").Int(e.conn);
        break;
      default:  // kLinkFail / kLinkRepair
        w.Key("link").Int(e.link);
        break;
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::vector<sim::ScenarioEvent> ParseWalBatchPayload(
    std::string_view payload) {
  const JsonValue root = ParseJson(payload);
  if (!root.is_object()) throw ParseError("wal record is not an object");
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->AsString() != kWalSchema) {
    throw ParseError("wal record missing schema " + std::string(kWalSchema));
  }
  const JsonValue* ev = root.Find("ev");
  if (ev == nullptr || !ev->is_array()) {
    throw ParseError("wal record missing 'ev' array");
  }
  std::vector<sim::ScenarioEvent> out;
  out.reserve(ev->AsArray().size());
  for (const JsonValue& item : ev->AsArray()) {
    if (!item.is_object()) throw ParseError("wal event is not an object");
    const JsonValue* tag = item.Find("e");
    const JsonValue* t = item.Find("t");
    if (tag == nullptr || t == nullptr) {
      throw ParseError("wal event missing 'e'/'t'");
    }
    sim::ScenarioEvent e;
    e.time = static_cast<Time>(t->AsInt64());
    const std::string& kind = tag->AsString();
    const auto field = [&](const char* key) {
      const JsonValue* v = item.Find(key);
      if (v == nullptr) {
        throw ParseError("wal event missing '" + std::string(key) + "'");
      }
      return v->AsInt64();
    };
    if (kind == "admit") {
      e.type = sim::ScenarioEvent::Type::kRequest;
      e.conn = field("conn");
      e.src = static_cast<NodeId>(field("src"));
      e.dst = static_cast<NodeId>(field("dst"));
      e.bw = field("bw");
      if (e.bw <= 0) throw ParseError("wal admit with bandwidth <= 0");
    } else if (kind == "release") {
      e.type = sim::ScenarioEvent::Type::kRelease;
      e.conn = field("conn");
    } else if (kind == "fail") {
      e.type = sim::ScenarioEvent::Type::kLinkFail;
      e.link = static_cast<LinkId>(field("link"));
    } else if (kind == "repair") {
      e.type = sim::ScenarioEvent::Type::kLinkRepair;
      e.link = static_cast<LinkId>(field("link"));
    } else {
      throw ParseError("wal event kind '" + kind + "' unknown");
    }
    out.push_back(e);
  }
  return out;
}

std::string EncodeWalRecord(std::string_view payload) {
  DRTP_CHECK(payload.size() <= kMaxWalRecordBytes);
  std::string out;
  out.reserve(payload.size() + 12);
  PutU32Be(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  PutU64Be(out, Fnv1a(payload));
  return out;
}

WalRecovery RecoverWal(const std::string& path, std::uint64_t config_digest,
                       bool truncate) {
  WalRecovery out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no file: empty log, nothing to truncate
  out.existed = true;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  std::uint64_t offset = 0;
  DecodedRecord rec;
  if (TryDecodeRecord(data, offset, &rec)) {
    // Complete header: it must be ours. A different config digest means
    // this log belongs to another daemon — refusing beats silently
    // clobbering its history.
    const JsonValue head = ParseJson(rec.payload);
    const JsonValue* schema = head.Find("schema");
    const JsonValue* config = head.Find("config");
    if (schema == nullptr || schema->AsString() != kWalSchema ||
        config == nullptr) {
      throw ParseError("'" + path + "' is not a " + kWalSchema + " log");
    }
    if (ParseDigestHex(config->AsString()) != config_digest) {
      throw ParseError("wal '" + path +
                       "' was written under a different daemon config "
                       "(scheme/seed/backups/spare-mode/topology)");
    }
    offset = rec.end;
    out.header_end = rec.end;
    while (TryDecodeRecord(data, offset, &rec)) {
      out.batches.push_back(WalBatch{
          .end_offset = rec.end,
          .events = ParseWalBatchPayload(rec.payload)});
      offset = rec.end;
    }
  }
  // Everything past `offset` is a torn or corrupt tail: drop it on disk
  // so the reopened log appends at a verified boundary.
  out.valid_bytes = offset;
  out.truncated_bytes = data.size() - offset;
  if (truncate && out.truncated_bytes > 0) {
    if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
      throw ParseError("truncating '" + path +
                       "' failed: " + std::strerror(errno));
    }
  }
  return out;
}

sim::Scenario LoadReplayInput(const std::string& path,
                              std::uint64_t config_digest,
                              sim::ExperimentConfig* config) {
  const WalRecovery wal = RecoverWal(path, config_digest, /*truncate=*/false);
  if (wal.header_end == 0) {
    std::ifstream in(path);
    if (!in.good()) throw ParseError("cannot open '" + path + "'");
    return sim::Scenario::Load(in);
  }
  sim::Scenario s;
  for (const WalBatch& b : wal.batches) {
    s.events.insert(s.events.end(), b.events.begin(), b.events.end());
  }
  s.traffic.duration = (s.events.empty() ? 0.0 : s.events.back().time) + 1.0;
  config->reprotect_max_retries = 0;
  return s;
}

std::unique_ptr<Wal> Wal::Open(const std::string& path,
                               std::uint64_t config_digest,
                               std::string* error) {
  UniqueFd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                     0644));
  if (!fd.valid()) {
    *error = "open '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  const off_t end = ::lseek(fd.get(), 0, SEEK_END);
  if (end < 0) {
    *error = "lseek '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  std::unique_ptr<Wal> wal(
      new Wal(std::move(fd), path, static_cast<std::uint64_t>(end)));
  if (end == 0) {
    // Fresh log: the header record binds the config before any batch.
    if (!wal->AppendRecord(RenderHeaderPayload(config_digest), error)) {
      return nullptr;
    }
  }
  return wal;
}

bool Wal::AppendRecord(std::string_view payload, std::string* error) {
  const std::string record = EncodeWalRecord(payload);
  FrameWriter writer(fd_.get());
  iovec iov;
  iov.iov_base = const_cast<char*>(record.data());
  iov.iov_len = record.size();
  const WriteResult res = writer.WriteVec(&iov, 1);
  if (!res.ok()) {
    *error = "wal append: " + res.message();
    return false;
  }
  // The group commit: one fsync per engine batch, before any of the
  // batch's responses are released.
  while (::fsync(fd_.get()) != 0) {
    if (errno == EINTR) continue;
    *error = std::string("wal fsync: ") +
             WriteStatusName(ClassifyWriteErrno(errno)) + ": " +
             std::strerror(errno);
    return false;
  }
  bytes_ += record.size();
  return true;
}

bool Wal::AppendBatch(std::span<const sim::ScenarioEvent> events,
                      std::string* error) {
  if (!AppendRecord(RenderWalBatchPayload(events), error)) return false;
  ++appended_batches_;
  return true;
}

}  // namespace drtp::svc
