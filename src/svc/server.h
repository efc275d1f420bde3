// svc::Server — unix-socket front end for the admission daemon.
//
// One poll()-driven acceptor thread reads length-prefixed frames from any
// number of local clients and submits them to the Pipeline; responses are
// written back from the engine thread (per-client write mutex, so the
// acceptor's bad_frame rejections cannot interleave mid-frame with
// pipeline responses). Responses to one client always arrive in the order
// its requests were submitted.
//
// Shutdown is a self-pipe: Shutdown() writes one byte (async-signal-safe,
// callable from a SIGTERM handler) and Run() then stops reading, drains
// the pipeline — every frame already received is decoded, executed, and
// answered — closes all clients, and removes the socket file. Framing
// violations (oversized header) get one bad_frame response and the
// connection is dropped; a peer that dies mid-frame is logged and
// forgotten.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/socket.h"
#include "svc/engine.h"
#include "svc/pipeline.h"
#include "svc/wire.h"

namespace drtp::svc {

struct ServerOptions {
  std::string socket_path;
  PipelineOptions pipeline;
  /// Invoked on the poll thread after TriggerUserEvent() (e.g. a SIGUSR1
  /// handler requesting a flight-recorder dump). Serving continues.
  std::function<void()> on_user_signal;
};

class Server {
 public:
  Server(Engine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path. False + *error on failure.
  bool Start(std::string* error);

  /// Serves until Shutdown(). On return every received frame has been
  /// answered, all connections are closed, and the socket file removed.
  /// The caller owns post-drain steps (final audit, drain snapshot).
  void Run();

  /// Requests Run() to stop and drain. Async-signal-safe; idempotent.
  void Shutdown();

  /// Requests one on_user_signal callback on the poll thread, without
  /// stopping the server. Async-signal-safe.
  void TriggerUserEvent();

  std::int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct ClientConn {
    UniqueFd fd;
    FrameReader reader;
    std::mutex write_mu;
  };

  void HandleReadable(std::uint64_t id, const std::shared_ptr<ClientConn>& c);
  void SendToClient(const std::shared_ptr<ClientConn>& c,
                    std::string_view payload);
  void RemoveClient(std::uint64_t id);

  Engine& engine_;
  ServerOptions options_;
  Pipeline pipeline_;
  UniqueFd listen_;
  UniqueFd wake_r_;
  UniqueFd wake_w_;

  std::mutex clients_mu_;
  std::map<std::uint64_t, std::shared_ptr<ClientConn>> clients_;
  std::uint64_t next_client_ = 1;
  std::atomic<std::int64_t> connections_accepted_{0};
};

}  // namespace drtp::svc
