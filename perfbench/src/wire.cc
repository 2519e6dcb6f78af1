#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "harness.h"

namespace perfbench {

namespace {

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

ServerHost::ServerHost(Report& rep) {
  parhc::net::NetServerOptions opts;
  opts.workers =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  server_ = std::make_unique<parhc::net::NetServer>(engine_, opts);
  std::string err = server_->Start();
  rep.Check(err.empty(), "server start: " + err);
  if (err.empty()) loop_ = std::thread([this] { server_->Run(); });
}

ServerHost::~ServerHost() {
  if (loop_.joinable()) {
    server_->Shutdown();
    loop_.join();
  }
}

Conn::Conn(uint16_t port) : fd_(Connect(port)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Conn::Call(const std::string& request) {
  if (fd_ < 0) return "";
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return "";
    off += static_cast<size_t>(n);
  }
  for (;;) {
    size_t nl = in_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = in_.substr(0, nl + 1);
      in_.erase(0, nl + 1);
      return reply;
    }
    char buf[4096];
    ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    in_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
