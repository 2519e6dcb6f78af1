// The churn rounds' wire: an in-process NetServer host and a
// blocking request/reply loopback connection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "net/server.h"

namespace perfbench {

class Report;

/// An engine behind an in-process NetServer on an ephemeral loopback port
/// with one worker per hardware thread, its event loop on a thread of its
/// own; the destructor drains and joins.
class ServerHost {
 public:
  explicit ServerHost(Report& rep);
  ~ServerHost();
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  parhc::ClusteringEngine& engine() { return engine_; }
  uint16_t port() const { return server_->port(); }

 private:
  parhc::ClusteringEngine engine_;
  std::unique_ptr<parhc::net::NetServer> server_;
  std::thread loop_;
};

/// Blocking loopback connection. Requests are text lines or binary frames;
/// every reply the churn rounds ask for is one text line.
class Conn {
 public:
  explicit Conn(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request and returns its reply line with its '\n' ("" if the
  /// connection broke).
  std::string Call(const std::string& request);

 private:
  int fd_ = -1;
  std::string in_;
};

}  // namespace perfbench
