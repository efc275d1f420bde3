#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>
#include <unordered_map>

#include "common/json_value.h"
#include "sim/traffic.h"
#include "util.h"

extern char** environ;

namespace drtpbench {

using drtp::Bandwidth;
using drtp::ConnId;
using drtp::LinkId;
using drtp::NodeId;

Daemon::~Daemon() {
  if (pid_ > 0) Kill();
}

bool Daemon::Spawn(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log, std::string* error) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc =
      posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    *error = "cannot start " + binary + ": " + std::to_string(rc);
    return false;
  }
  return true;
}

bool Daemon::WaitReady(const std::string& socket, double timeout_s,
                       std::string* error) {
  const double deadline = NowS() + timeout_s;
  while (NowS() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "daemon exited during start-up (status " +
               std::to_string(status) + ")";
      return false;
    }
    RpcConn c;
    std::string ignored;
    if (c.Connect(socket, &ignored) && c.Send(StatsRequest(0, false))) {
      const auto frame = c.Recv();
      if (frame.has_value() && ParseReply(*frame).ok) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "daemon did not answer within " + std::to_string(timeout_s) + " s";
  return false;
}

int Daemon::Terminate(double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const double deadline = NowS() + timeout_s;
  while (NowS() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return -1;
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool RpcConn::Connect(const std::string& socket, std::string* error) {
  fd_ = drtp::ConnectUnix(socket, error);
  reader_ = drtp::svc::FrameReader();
  return fd_.valid();
}

bool RpcConn::Send(std::string_view payload) {
  const std::string frame = drtp::svc::EncodeFrame(payload);
  return drtp::SendAll(fd_.get(), frame.data(), frame.size());
}

std::optional<std::string> RpcConn::Recv() {
  char buf[4096];
  for (;;) {
    if (auto frame = reader_.Next()) return frame;
    if (!reader_.error().empty()) return std::nullopt;
    const long n = drtp::RecvSome(fd_.get(), buf, sizeof buf);
    if (n <= 0) return std::nullopt;
    reader_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

bool RpcConn::Pump(std::vector<std::string>* out) {
  char buf[65536];
  const long n = drtp::RecvSome(fd_.get(), buf, sizeof buf);
  if (n <= 0) return false;
  reader_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
  while (auto frame = reader_.Next()) out->push_back(std::move(*frame));
  return reader_.error().empty();
}

namespace {

std::string Envelope(std::int64_t id, const char* method,
                     const std::string& params) {
  return "{\"schema\":\"drtp.rpc/1\",\"id\":" + std::to_string(id) +
         ",\"method\":\"" + method + "\",\"params\":{" + params + "}}";
}

}  // namespace

std::string AdmitRequest(std::int64_t id, ConnId conn, NodeId src,
                         NodeId dst, Bandwidth bw) {
  return Envelope(id, "admit",
                  "\"conn\":" + std::to_string(conn) +
                      ",\"src\":" + std::to_string(src) +
                      ",\"dst\":" + std::to_string(dst) +
                      ",\"bw_kbps\":" + std::to_string(bw));
}

std::string ReleaseRequest(std::int64_t id, ConnId conn) {
  return Envelope(id, "release", "\"conn\":" + std::to_string(conn));
}

std::string LinkRequest(std::int64_t id, bool fail, LinkId link) {
  return Envelope(id, fail ? "fail-link" : "repair-link",
                  "\"link\":" + std::to_string(link));
}

std::string StatsRequest(std::int64_t id, bool metrics) {
  return Envelope(id, "stats", metrics ? "\"metrics\":true" : "");
}

Reply ParseReply(std::string_view payload) {
  Reply r;
  try {
    const drtp::JsonValue v = drtp::ParseJson(payload);
    const drtp::JsonValue* id = v.Find("id");
    const drtp::JsonValue* ok = v.Find("ok");
    if (id == nullptr || ok == nullptr) return r;
    r.parsed = true;
    r.id = id->AsInt64();
    r.ok = ok->AsBool();
    if (!r.ok) {
      const drtp::JsonValue* err = v.Find("error");
      const drtp::JsonValue* code = err != nullptr ? err->Find("code") : nullptr;
      r.error = code != nullptr ? code->AsString() : "?";
      return r;
    }
    if (const drtp::JsonValue* res = v.Find("result")) {
      if (const drtp::JsonValue* a = res->Find("admitted")) r.admitted = a->AsBool();
      if (const drtp::JsonValue* d = res->Find("dropped")) r.dropped = d->AsInt64();
    }
  } catch (const std::exception&) {
    r.parsed = false;
  }
  return r;
}

std::vector<LoadEvent> MakeStream(const drtp::net::Topology& topo,
                                  const StreamConfig& config) {
  drtp::sim::TrafficConfig tc;
  tc.pattern = drtp::sim::TrafficPattern::kUniform;
  tc.lambda = config.lambda;
  tc.seed = config.seed;
  // Admissions alone reach min_events by this horizon.
  tc.duration = static_cast<double>(config.min_events) / config.lambda + 100.0;
  const auto requests = drtp::sim::GenerateRequests(topo, tc);

  std::vector<std::pair<double, LoadEvent>> timed;
  timed.reserve(2 * requests.size());
  for (const drtp::sim::Request& r : requests) {
    timed.push_back({r.arrival, {.op = LoadEvent::Op::kAdmit,
                                 .conn = r.id,
                                 .src = r.src,
                                 .dst = r.dst,
                                 .bw = r.bw}});
    const double end = r.arrival + r.lifetime;
    if (end <= tc.duration) {
      timed.push_back({end, {.op = LoadEvent::Op::kRelease, .conn = r.id}});
    }
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<LoadEvent> events;
  events.reserve(timed.size());
  for (auto& [t, e] : timed) events.push_back(e);

  if (config.failure_every > 0) {
    // Seeded failures spliced in at fixed positions; each link comes back
    // half a period later, so at most one injected failure is open.
    std::mt19937_64 rng(config.seed * 0x9E3779B97F4A7C15ULL + 7);
    std::vector<LoadEvent> out;
    out.reserve(events.size() + events.size() / config.failure_every * 2 + 2);
    const std::size_t half = config.failure_every / 2;
    LinkId down = drtp::kInvalidLink;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0 && i % config.failure_every == 0) {
        down = static_cast<LinkId>(rng() % static_cast<std::uint64_t>(
                                               topo.num_links()));
        out.push_back({.op = LoadEvent::Op::kFailLink, .link = down});
      } else if (down != drtp::kInvalidLink &&
                 i % config.failure_every == half) {
        out.push_back({.op = LoadEvent::Op::kRepairLink, .link = down});
        down = drtp::kInvalidLink;
      }
      out.push_back(events[i]);
    }
    events = std::move(out);
  }
  return events;
}

std::string RenderEvent(std::int64_t id, const LoadEvent& e) {
  switch (e.op) {
    case LoadEvent::Op::kAdmit:
      return AdmitRequest(id, e.conn, e.src, e.dst, e.bw);
    case LoadEvent::Op::kRelease:
      return ReleaseRequest(id, e.conn);
    case LoadEvent::Op::kFailLink:
      return LinkRequest(id, true, e.link);
    case LoadEvent::Op::kRepairLink:
      return LinkRequest(id, false, e.link);
  }
  return {};
}

namespace {

/// Applies the accounting rules to one answered request. Returns whether
/// the answer was a success (expected outcome).
class Classifier {
 public:
  bool OnReply(const LoadEvent& e, const Reply& r, LoadReport* rep) {
    if (!r.parsed) return Bad(rep, "unparseable response");
    if (r.ok) {
      if (e.op == LoadEvent::Op::kAdmit) {
        ++rep->admits;
        if (!r.admitted) ++rep->blocked;
        admitted_[e.conn] = r.admitted;
      } else if (e.op == LoadEvent::Op::kFailLink) {
        rep->dropped_reported += r.dropped;
      }
      return true;
    }
    if (e.op == LoadEvent::Op::kRelease && r.error == "not_found") {
      const auto it = admitted_.find(e.conn);
      if (it != admitted_.end()) {
        // Blocked: nothing to release. Admitted: dropped by a failure,
        // reconciled against the reported drops at the end of the run.
        if (it->second) ++not_found_after_admit_;
        ++rep->not_found_expected;
        return true;
      }
    }
    return Bad(rep, "error '" + r.error + "' for conn " +
                        std::to_string(e.conn));
  }

  std::int64_t not_found_after_admit() const { return not_found_after_admit_; }

  static bool Bad(LoadReport* rep, std::string what) {
    ++rep->failed;
    if (rep->errors.size() < 5) rep->errors.push_back(std::move(what));
    return false;
  }

 private:
  std::unordered_map<ConnId, bool> admitted_;
  std::int64_t not_found_after_admit_ = 0;
};

/// Releases of admitted connections answered `not_found` beyond what the
/// daemon reported as dropped by failures are failures.
void Reconcile(std::int64_t not_found_after_admit, LoadReport* rep) {
  const std::int64_t excess = not_found_after_admit - rep->dropped_reported;
  if (excess > 0) {
    rep->failed += excess;
    rep->not_found_expected -= excess;
    rep->slo_miss += excess;
    rep->errors.push_back(std::to_string(excess) +
                          " not_found releases beyond reported drops");
  }
}

void Merge(LoadReport& into, LoadReport&& from) {
  into.attempted += from.attempted;
  into.answered += from.answered;
  into.failed += from.failed;
  into.slo_miss += from.slo_miss;
  into.admits += from.admits;
  into.blocked += from.blocked;
  into.not_found_expected += from.not_found_expected;
  into.dropped_reported += from.dropped_reported;
  into.unmatched += from.unmatched;
  auto append = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.latency_us, from.latency_us);
  append(into.start_s, from.start_s);
  append(into.rtt_us, from.rtt_us);
  append(into.send_lag_us, from.send_lag_us);
  for (std::string& e : from.errors) {
    if (into.errors.size() < 5) into.errors.push_back(std::move(e));
  }
}

}  // namespace

LoadReport RunClosedLoop(const std::string& socket,
                         const std::vector<LoadEvent>& events,
                         const ClosedLoopConfig& config) {
  const int n = config.clients;
  std::vector<LoadReport> reports(static_cast<std::size_t>(n));
  std::vector<std::int64_t> nf_after_admit(static_cast<std::size_t>(n), 0);
  const std::int64_t start = NowNs();
  const std::int64_t end =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  std::atomic<std::int64_t> last_done{start};
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      LoadReport& rep = reports[static_cast<std::size_t>(c)];
      Classifier cls;
      std::unordered_map<ConnId, bool> live;
      RpcConn conn;
      std::string error;
      if (!conn.Connect(socket, &error)) {
        ++rep.attempted;
        Classifier::Bad(&rep, "connect: " + error);
        ++rep.slo_miss;
        return;
      }
      std::int64_t id = static_cast<std::int64_t>(c) << 40;
      for (const LoadEvent& e : events) {
        const bool mine =
            e.conn == drtp::kInvalidConn ? c == 0 : e.conn % n == c;
        if (!mine) continue;
        if (e.op == LoadEvent::Op::kRelease && !live.erase(e.conn)) continue;
        const std::int64_t t0 = NowNs();
        if (t0 >= end) break;
        ++rep.attempted;
        if (!conn.Send(RenderEvent(++id, e))) {
          Classifier::Bad(&rep, "send failed");
          ++rep.slo_miss;
          break;
        }
        const auto frame = conn.Recv();
        const std::int64_t t1 = NowNs();
        if (!frame.has_value()) {
          Classifier::Bad(&rep, "connection lost");
          ++rep.slo_miss;
          break;
        }
        const Reply r = ParseReply(*frame);
        if (r.parsed && r.id != id) {
          ++rep.unmatched;
          Classifier::Bad(&rep, "response id mismatch");
          ++rep.slo_miss;
          break;
        }
        ++rep.answered;
        const double us = static_cast<double>(t1 - t0) * 1e-3;
        rep.latency_us.push_back(us);
        rep.start_s.push_back(static_cast<double>(t0 - start) * 1e-9);
        rep.rtt_us.push_back(us);
        const bool good = cls.OnReply(e, r, &rep);
        if (!good || us > config.slo_us) ++rep.slo_miss;
        if (good && e.op == LoadEvent::Op::kAdmit && r.admitted) {
          live[e.conn] = true;
        }
      }
      nf_after_admit[static_cast<std::size_t>(c)] = cls.not_found_after_admit();
      std::int64_t prev = last_done.load();
      const std::int64_t now = NowNs();
      while (now > prev && !last_done.compare_exchange_weak(prev, now)) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadReport total;
  std::int64_t nf = 0;
  for (int c = 0; c < n; ++c) {
    nf += nf_after_admit[static_cast<std::size_t>(c)];
    Merge(total, std::move(reports[static_cast<std::size_t>(c)]));
  }
  Reconcile(nf, &total);
  total.elapsed_s = static_cast<double>(last_done.load() - start) * 1e-9;
  return total;
}

LoadReport RunOpenLoop(const std::string& socket,
                       const std::vector<LoadEvent>& events,
                       const OpenLoopConfig& config) {
  LoadReport rep;
  const std::size_t total = std::min(
      events.size(),
      static_cast<std::size_t>(config.rate * config.seconds));
  const int nconn = config.connections;
  std::vector<RpcConn> conns(static_cast<std::size_t>(nconn));
  for (RpcConn& c : conns) {
    std::string error;
    if (!c.Connect(socket, &error)) {
      ++rep.attempted;
      Classifier::Bad(&rep, "connect: " + error);
      ++rep.slo_miss;
      return rep;
    }
  }
  const auto conn_of = [&](const LoadEvent& e) {
    return e.conn == drtp::kInvalidConn
               ? 0
               : static_cast<int>(e.conn % nconn);
  };

  std::vector<std::int64_t> due(total), sent(total, 0), recv(total, 0);
  std::vector<Reply> replies(total);
  const std::int64_t start = NowNs() + 2'000'000;  // 2 ms to get going
  const double period_ns = 1e9 / config.rate;
  for (std::size_t i = 0; i < total; ++i) {
    due[i] = start + static_cast<std::int64_t>(static_cast<double>(i) *
                                               period_ns);
  }
  std::atomic<std::size_t> sent_count{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> load_done{false};
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    for (std::size_t i = 0; i < total; ++i) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due[i])));
      sent[i] = NowNs();
      if (!conns[static_cast<std::size_t>(conn_of(events[i]))].Send(
              RenderEvent(static_cast<std::int64_t>(i), events[i]))) {
        send_failed = true;
        break;
      }
      sent_count = i + 1;
    }
    sender_done = true;
  });

  std::int64_t answered = 0;
  std::thread receiver([&] {
    std::vector<pollfd> fds;
    for (RpcConn& c : conns) fds.push_back({c.fd(), POLLIN, 0});
    std::vector<std::string> frames;
    std::int64_t drain_deadline = 0;
    int open = nconn;
    while (open > 0) {
      // Read the flag first: the sender publishes its count before it.
      const bool done = sender_done;
      const std::size_t s = sent_count.load();
      if (done && answered == static_cast<std::int64_t>(s)) break;
      if (done && drain_deadline == 0) {
        drain_deadline =
            NowNs() + static_cast<std::int64_t>(config.drain_timeout_s * 1e9);
      }
      if (drain_deadline != 0 && NowNs() > drain_deadline) break;
      if (poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (pollfd& p : fds) {
        if (p.fd < 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        frames.clear();
        const bool alive =
            conns[static_cast<std::size_t>(&p - fds.data())].Pump(&frames);
        const std::int64_t now = NowNs();
        for (const std::string& f : frames) {
          Reply r = ParseReply(f);
          if (!r.parsed || r.id < 0 || static_cast<std::size_t>(r.id) >= total ||
              recv[static_cast<std::size_t>(r.id)] != 0) {
            ++rep.unmatched;
            continue;
          }
          recv[static_cast<std::size_t>(r.id)] = now;
          replies[static_cast<std::size_t>(r.id)] = std::move(r);
          ++answered;
        }
        if (!alive) {
          p.fd = -1;
          --open;
        }
      }
    }
    load_done = true;
  });

  std::thread control;
  if (config.stats_interval_s > 0.0) {
    control = std::thread([&] {
      RpcConn c;
      std::string error;
      const bool connected = c.Connect(socket, &error);
      for (std::int64_t k = 1; !load_done; ++k) {
        const std::int64_t at =
            start + static_cast<std::int64_t>(static_cast<double>(k) *
                                              config.stats_interval_s * 1e9);
        while (!load_done && NowNs() < at) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (load_done) break;
        const std::int64_t t0 = NowNs();
        std::optional<std::string> frame;
        // Control ids sit far above any data-plane id.
        if (connected && c.Send(StatsRequest((std::int64_t{1} << 50) + k,
                                             false))) {
          frame = c.Recv();
        }
        const std::int64_t t1 = NowNs();
        if (!frame.has_value() || !ParseReply(*frame).ok) {
          rep.stats_rtt_ms.push_back(-1.0);  // marks a failed poll
          break;
        }
        rep.stats_rtt_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }
    });
  }
  sender.join();
  receiver.join();
  if (control.joinable()) control.join();

  Classifier cls;
  std::int64_t last = start;
  const std::size_t nsent = sent_count.load();
  for (std::size_t i = 0; i < total; ++i) {
    if (i >= nsent) break;
    ++rep.attempted;
    if (recv[i] == 0) {
      Classifier::Bad(&rep, "no response to request " + std::to_string(i));
      ++rep.slo_miss;
      continue;
    }
    ++rep.answered;
    last = std::max(last, recv[i]);
    const double us = static_cast<double>(recv[i] - due[i]) * 1e-3;
    rep.latency_us.push_back(us);
    rep.start_s.push_back(static_cast<double>(due[i] - start) * 1e-9);
    rep.rtt_us.push_back(static_cast<double>(recv[i] - sent[i]) * 1e-3);
    rep.send_lag_us.push_back(static_cast<double>(sent[i] - due[i]) * 1e-3);
    const bool good = cls.OnReply(events[i], replies[i], &rep);
    if (!good || us > config.slo_us) ++rep.slo_miss;
  }
  if (send_failed) Classifier::Bad(&rep, "send failed");
  for (const double ms : rep.stats_rtt_ms) {
    ++rep.attempted;
    if (ms < 0) Classifier::Bad(&rep, "stats poll failed");
  }
  Reconcile(cls.not_found_after_admit(), &rep);
  rep.elapsed_s = static_cast<double>(last - start) * 1e-9;
  return rep;
}

}  // namespace drtpbench
