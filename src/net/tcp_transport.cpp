#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace poly::net {

namespace {

/// Maximum accepted frame payload (16 MiB): anything larger is a corrupt
/// length prefix, not a legitimate protocol message.
constexpr std::uint32_t kMaxFrame = 16u << 20;

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

bool would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

// ---- TcpHub -----------------------------------------------------------------

std::unique_ptr<TcpTransport> TcpHub::make_endpoint(LiveNodeId node) {
  // Polled::slot holds a peer's node id in 32 bits.
  if (node >= std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("TcpHub: node id out of range");
  if (endpoint_of(node) != nullptr)
    throw std::invalid_argument("TcpHub: node " + std::to_string(node) +
                                " already has a live endpoint");
  auto t = std::unique_ptr<TcpTransport>(new TcpTransport(*this, node));
  if (node >= endpoints_.size()) endpoints_.resize(node + 1, nullptr);
  endpoints_[node] = t.get();
  return t;
}

void TcpHub::unbind(const TcpTransport& t) {
  endpoints_[t.node_] = nullptr;
  for (TcpTransport* peer : endpoints_)
    if (peer != nullptr && t.node_ < peer->out_.size())
      TcpTransport::close(peer->out_[t.node_]);
  poll_set_.clear();
  polled_.clear();
}

std::size_t TcpHub::wait(std::chrono::nanoseconds timeout) {
  poll_set_.clear();
  polled_.clear();
  auto add = [this](int fd, short events, Polled what) {
    poll_set_.push_back(pollfd{fd, events, 0});
    polled_.push_back(what);
  };
  for (TcpTransport* t : endpoints_) {
    if (t == nullptr) continue;
    add(t->listen_fd_, POLLIN, {t, Role::kListen, 0});
    std::erase_if(t->in_, [](const TcpTransport::Conn& c) { return c.fd < 0; });
    for (std::size_t i = 0; i < t->in_.size(); ++i)
      add(t->in_[i].fd, POLLIN,
          {t, Role::kInbound, static_cast<std::uint32_t>(i)});
    for (std::size_t peer = 0; peer < t->out_.size(); ++peer) {
      const TcpTransport::Conn& c = t->out_[peer];
      if (c.fd >= 0 && !c.buf.empty())
        add(c.fd, POLLOUT,
            {t, Role::kOutbound, static_cast<std::uint32_t>(peer)});
    }
  }
  // ppoll, not poll: a timeout in whole milliseconds would oversleep the
  // paced loop's deadline by up to 1 ms per wait.
  const std::int64_t ns = std::max<std::int64_t>(timeout.count(), 0);
  const timespec ts{static_cast<std::time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  // A failed or interrupted wait counts as nothing ready.
  const int ready = ::ppoll(poll_set_.data(), poll_set_.size(), &ts, nullptr);
  return ready > 0 ? static_cast<std::size_t>(ready) : 0;
}

std::size_t TcpHub::deliver() {
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < poll_set_.size(); ++i) {
    if (poll_set_[i].revents == 0) continue;
    const Polled p = polled_[i];
    switch (p.role) {
      case Role::kListen:
        p.endpoint->accept_pending();
        break;
      case Role::kInbound:
        delivered += p.endpoint->read_frames(p.endpoint->in_[p.slot]);
        break;
      case Role::kOutbound: {
        TcpTransport::Conn& c = p.endpoint->out_[p.slot];
        if (!TcpTransport::flush(c)) TcpTransport::close(c);
        break;
      }
    }
  }
  poll_set_.clear();
  polled_.clear();
  return delivered;
}

// ---- TcpTransport -----------------------------------------------------------

TcpTransport::TcpTransport(TcpHub& hub, LiveNodeId node)
    : hub_(&hub), node_(node) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  // Between two polls every peer may connect: the backlog must hold them
  // all, or connects beyond it wait out a SYN retransmit.
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, SOMAXCONN) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTransport: bind/listen failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  address_ = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_handler(MessageHandler handler) {
  handler_ = std::move(handler);
}

bool TcpTransport::send(LiveNodeId to, std::vector<std::uint8_t> payload) {
  const TcpTransport* peer = stopped_ ? nullptr : hub_->endpoint_of(to);
  if (peer == nullptr) return false;
  if (to >= out_.size()) out_.resize(to + 1);
  Conn& c = out_[to];
  if (c.fd < 0) {
    sockaddr_in addr{};
    if (!parse_address(peer->address_, addr)) return false;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Non-blocking: a refused connect shows as the flush's send error, and
    // until the handshake ends the frame waits in the queue.
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 &&
        errno != EINPROGRESS) {
      close(c);
      return false;
    }
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::uint8_t prefix[sizeof length];
  std::memcpy(prefix, &length, sizeof length);
  c.buf.insert(c.buf.end(), prefix, prefix + sizeof prefix);
  c.buf.insert(c.buf.end(), payload.begin(), payload.end());
  if (flush(c)) return true;
  close(c);
  return false;
}

bool TcpTransport::flush(Conn& c) {
  std::size_t written = 0;
  while (written < c.buf.size()) {
    const ssize_t w = ::send(c.fd, c.buf.data() + written,
                             c.buf.size() - written, MSG_NOSIGNAL);
    if (w < 0) {
      if (!would_block()) return false;
      break;
    }
    written += static_cast<std::size_t>(w);
  }
  c.buf.erase(c.buf.begin(),
              c.buf.begin() + static_cast<std::ptrdiff_t>(written));
  return true;
}

void TcpTransport::close(Conn& c) {
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.buf.clear();
}

void TcpTransport::accept_pending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    // Drained (or failed: a connect still queued shows at the next poll).
    if (fd < 0) return;
    in_.push_back(Conn{fd, {}});
  }
}

std::size_t TcpTransport::read_frames(Conn& c) {
  std::uint8_t chunk[1 << 16];
  const ssize_t r = ::recv(c.fd, chunk, sizeof chunk, 0);
  if (r < 0 && would_block()) return 0;
  if (r <= 0) {
    close(c);
    return 0;
  }
  c.buf.insert(c.buf.end(), chunk, chunk + r);
  std::size_t delivered = 0;
  std::size_t at = 0;
  std::uint32_t length = 0;
  while (c.buf.size() - at >= sizeof length) {
    std::memcpy(&length, c.buf.data() + at, sizeof length);
    if (length > kMaxFrame) {
      util::log_warn("TcpTransport: oversized frame dropped, closing");
      close(c);
      return delivered;
    }
    if (c.buf.size() - at - sizeof length < length) break;
    const auto first =
        c.buf.begin() + static_cast<std::ptrdiff_t>(at + sizeof length);
    Message msg{std::vector<std::uint8_t>(first, first + length)};
    at += sizeof length + length;
    if (handler_) {
      handler_(msg);
      ++delivered;
    }
  }
  c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<std::ptrdiff_t>(at));
  return delivered;
}

void TcpTransport::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  hub_->unbind(*this);
  ::close(listen_fd_);
  for (Conn& c : in_) close(c);
  for (Conn& c : out_) close(c);
  in_.clear();
  out_.clear();
  handler_ = nullptr;
}

}  // namespace poly::net
