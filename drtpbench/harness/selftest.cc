// The load client's own accounting, checked against a scripted in-process
// server that speaks drtp.rpc/1 over a unix socket:
// - a server that stops answering for a known pause must show the pause in
//   the open loop's p99 latency (timed from due time) and in its send lag,
//   and a run without the pause must not;
// - blocked admits (every third connection) and the not_found releases
//   that follow them in the open loop are not failures.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "client.h"
#include "common/json.h"
#include "net/generators.h"
#include "svc/rpc.h"
#include "svc/wire.h"
#include "workloads.h"

namespace drtpbench {

namespace {

namespace svc = drtp::svc;

class ScriptedServer {
 public:
  /// After `pause_after` answers, holds every connection for `pause_ms`.
  ScriptedServer(std::string path, std::int64_t pause_after, int pause_ms)
      : path_(std::move(path)), pause_after_(pause_after), pause_ms_(pause_ms) {
    std::remove(path_.c_str());
    std::string error;
    listen_ = drtp::ListenUnix(path_, 16, &error);
    if (!listen_.valid()) {
      std::fprintf(stderr, "selftest: listen: %s\n", error.c_str());
      return;
    }
    acceptor_ = std::thread([this] { Accept(); });
  }
  ~ScriptedServer() {
    stop_ = true;
    acceptor_.join();
    for (std::thread& t : handlers_) t.join();
    std::remove(path_.c_str());
  }
  bool ok() const { return listen_.valid(); }

 private:
  void Accept() {
    while (!stop_) {
      pollfd p{listen_.get(), POLLIN, 0};
      if (poll(&p, 1, 20) <= 0) continue;
      const int fd = accept(listen_.get(), nullptr, nullptr);
      if (fd >= 0) handlers_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int raw) {
    drtp::UniqueFd fd(raw);
    svc::FrameReader reader;
    char buf[4096];
    for (;;) {
      const long n = drtp::RecvSome(fd.get(), buf, sizeof buf);
      if (n <= 0) return;
      reader.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto frame = reader.Next()) {
        const std::string reply = Answer(svc::DecodeRequest(*frame));
        const std::string out = svc::EncodeFrame(reply);
        if (!drtp::SendAll(fd.get(), out.data(), out.size())) return;
      }
    }
  }

  std::string Answer(const svc::DecodedRequest& d) {
    std::lock_guard<std::mutex> lk(mu_);
    if (++answered_ == pause_after_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms_));
    }
    const svc::Request& r = d.request;
    drtp::JsonWriter w;
    w.BeginObject();
    switch (r.method) {
      case svc::Method::kAdmit: {
        const bool admit = r.conn % 3 != 0;
        if (admit) live_.insert(r.conn);
        w.Key("admitted").Bool(admit);
        w.Key("conn").Int(r.conn);
        break;
      }
      case svc::Method::kRelease:
        if (live_.erase(r.conn) == 0) {
          return svc::RenderErrorResponse(d.id, svc::kErrNotFound, "none");
        }
        w.Key("released").Bool(true);
        break;
      default:
        w.Key("changed").Bool(false);
        break;
    }
    w.EndObject();
    return svc::RenderOkResponse(d.id, w.str());
  }

  std::string path_;
  std::int64_t pause_after_;
  int pause_ms_;
  drtp::UniqueFd listen_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> handlers_;  // touched by the acceptor only
  std::mutex mu_;
  std::int64_t answered_ = 0;
  std::unordered_set<drtp::ConnId> live_;
};

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::fprintf(stderr, "selftest: %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int RunSelfTest(const Options& o) {
  const std::string sock = o.workdir + "/selftest.sock";
  const drtp::net::Topology topo = drtp::net::MakeGrid(4, 4, drtp::Mbps(30));
  const std::vector<LoadEvent> events =
      MakeStream(topo, {.lambda = 1.0, .min_events = 40000, .seed = 3});
  constexpr int kPauseMs = 1000;
  const OpenLoopConfig open{.connections = 2,
                            .rate = 5000.0,
                            .seconds = 3.0,
                            .slo_us = 1e9,
                            .stats_interval_s = 0.0};

  {
    ScriptedServer server(sock, 0, 0);
    Check(server.ok(), "scripted server listens");
    const LoadReport closed = RunClosedLoop(
        sock, events, {.clients = 2, .seconds = 1.0, .slo_us = 1e9});
    Check(closed.blocked > 0, "closed loop saw blocked admits (" +
                                  std::to_string(closed.blocked) + ")");
    Check(closed.attempted > 0 && closed.failed == 0,
          "closed loop fail_ratio is 0 (" + std::to_string(closed.failed) +
              " failed of " + std::to_string(closed.attempted) + ")");
    const LoadReport calm = RunOpenLoop(sock, events, open);
    std::vector<double> lat = calm.latency_us;
    Check(calm.failed == 0 && calm.not_found_expected > 0,
          "open loop counts not_found after a blocked admit as expected (" +
              std::to_string(calm.not_found_expected) + ", " +
              std::to_string(calm.failed) + " failed)");
    Check(Quantile(lat, 0.99) < 0.2 * kPauseMs * 1e3,
          "open loop p99 without a pause is " +
              std::to_string(Quantile(lat, 0.99)) + " us");
    Check(Mean(calm.send_lag_us) < 0.05 * kPauseMs * 1e3,
          "open loop send lag without a pause is " +
              std::to_string(Mean(calm.send_lag_us)) + " us");
  }
  {
    ScriptedServer server(sock, 2000, kPauseMs);
    const LoadReport paused = RunOpenLoop(sock, events, open);
    std::vector<double> lat = paused.latency_us, lag = paused.send_lag_us;
    Check(paused.failed == 0, "paused open loop has no failures");
    Check(Quantile(lat, 0.99) >= 0.8 * kPauseMs * 1e3,
          "a " + std::to_string(kPauseMs) + " ms pause shows in p99: " +
              std::to_string(Quantile(lat, 0.99)) + " us");
    // A third of the requests fall due during the pause, but only the
    // socket buffers' worth were sent in it: timing from send time would
    // leave p80 near the calm run's.
    Check(Quantile(lat, 0.8) >= 0.25 * kPauseMs * 1e3,
          "latency is timed from due time: p80 " +
              std::to_string(Quantile(lat, 0.8)) + " us");
    Check(Quantile(lag, 1.0) >= 0.25 * kPauseMs * 1e3,
          "the pause shows in the send lag: max " +
              std::to_string(Quantile(lag, 1.0)) + " us, mean " +
              std::to_string(Mean(lag)) + " us");
  }
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace drtpbench
