#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "net/inbox.hpp"
#include "util/log.hpp"

namespace poly::net {

namespace {

/// Maximum accepted frame payload (16 MiB): anything larger is a corrupt
/// length prefix, not a legitimate protocol message.
constexpr std::uint32_t kMaxFrame = 16u << 20;

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Parses "127.0.0.1:port" into a sockaddr.  Returns false on syntax error.
bool parse_address(const Address& addr, sockaddr_in& out) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = addr.substr(0, colon);
  const int port = std::atoi(addr.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

TcpTransport::TcpTransport(Inbox* inbox, const TcpDirectory* directory)
    : inbox_(inbox), directory_(directory) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: bind/listen failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  address_ = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_handler(MessageHandler handler) {
  util::MutexLock lk(handler_mu_);
  handler_ = std::move(handler);
}

void TcpTransport::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listening socket closed → shut down
    if (stopped_.load()) {
      ::close(fd);
      return;
    }
    util::MutexLock lk(readers_mu_);
    readers_.push_back(
        Reader{fd, std::thread([this, fd] { read_loop(fd); })});
  }
}

void TcpTransport::read_loop(int fd) {
  for (;;) {
    std::uint32_t length = 0;
    if (!read_all(fd, &length, sizeof length)) break;
    if (length > kMaxFrame) {
      util::log_warn("TcpTransport: oversized frame dropped, closing");
      break;
    }
    std::vector<std::uint8_t> payload(length);
    if (!read_all(fd, payload.data(), payload.size())) break;

    Message msg{std::move(payload)};
    if (inbox_ != nullptr)
      inbox_->post(*this, std::move(msg));
    else
      dispatch(msg);
  }
  // The fd is closed by shutdown() after the join: closing it here could
  // race with shutdown()'s ::shutdown(fd) against a reused descriptor.
  ::shutdown(fd, SHUT_RDWR);
}

void TcpTransport::dispatch(Message& msg) {
  MessageHandler handler;
  {
    util::MutexLock lk(handler_mu_);
    handler = handler_;
  }
  if (handler && !stopped_.load()) handler(msg);
}

int TcpTransport::connection_to(const Address& to) {
  {
    util::MutexLock lk(conn_mu_);
    auto it = outgoing_.find(to);
    if (it != outgoing_.end()) return it->second;
  }
  sockaddr_in addr{};
  if (!parse_address(to, addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  util::MutexLock lk(conn_mu_);
  auto [it, inserted] = outgoing_.emplace(to, fd);
  if (!inserted) {
    // Lost a connect race; keep the established one.
    ::close(fd);
  }
  return it->second;
}

EndpointId TcpTransport::resolve(LiveNodeId node) const {
  if (directory_ == nullptr || node >= directory_->size() ||
      (*directory_)[node].empty())
    return kInvalidEndpointId;
  return static_cast<EndpointId>(node);
}

bool TcpTransport::send(EndpointId to, std::vector<std::uint8_t> payload) {
  if (directory_ == nullptr || to >= directory_->size()) return false;
  return send((*directory_)[to], std::move(payload));
}

bool TcpTransport::send(const Address& to, std::vector<std::uint8_t> payload) {
  if (stopped_.load()) return false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = connection_to(to);
    if (fd < 0) return false;
    const auto length = static_cast<std::uint32_t>(payload.size());
    util::MutexLock lk(conn_mu_);
    // Re-check the cached fd is still ours (shutdown/drop race).
    auto it = outgoing_.find(to);
    if (it == outgoing_.end() || it->second != fd) continue;
    if (write_all(fd, &length, sizeof length) &&
        write_all(fd, payload.data(), payload.size()))
      return true;
    // Stale connection (peer restarted/crashed): drop and retry once.
    ::close(it->second);
    outgoing_.erase(it);
  }
  return false;
}

void TcpTransport::shutdown() {
  if (stopped_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    util::MutexLock lk(conn_mu_);
    // DETLINT-ALLOW(unordered-iter): teardown-only close() of every cached
    // socket; close order is invisible to peers and nothing is derived
    for (auto& [addr, fd] : outgoing_) ::close(fd);
    outgoing_.clear();
  }
  std::vector<Reader> readers;
  {
    util::MutexLock lk(readers_mu_);
    readers.swap(readers_);
  }
  // Force readers blocked in recv() to wake with EOF, join, then release
  // the descriptors.
  for (auto& r : readers) ::shutdown(r.fd, SHUT_RDWR);
  for (auto& r : readers)
    if (r.thread.joinable()) r.thread.join();
  for (auto& r : readers) ::close(r.fd);
  // Readers are joined: nothing more reaches the inbox for us.
  if (inbox_ != nullptr) inbox_->discard(*this);
  {
    util::MutexLock lk(handler_mu_);
    handler_ = nullptr;
  }
}

}  // namespace poly::net
