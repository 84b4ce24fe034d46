#include "net/inbox.hpp"

#include <algorithm>

#include "net/tcp_transport.hpp"

namespace poly::net {

void Inbox::post(TcpTransport& to, Message msg) {
  {
    util::MutexLock lk(mu_);
    queued_.push_back(Frame{&to, std::move(msg)});
  }
  cv_.notify_one();
}

void Inbox::discard(const TcpTransport& to) {
  util::MutexLock lk(mu_);
  std::erase_if(queued_, [&to](const Frame& f) { return f.to == &to; });
}

std::size_t Inbox::queued() const {
  util::MutexLock lk(mu_);
  return queued_.size();
}

void Inbox::wait_until(std::chrono::steady_clock::time_point deadline) {
  util::MutexLock lk(mu_);
  cv_.wait_until(mu_, deadline,
                 [this]() REQUIRES(mu_) { return !queued_.empty(); });
}

std::size_t Inbox::deliver() {
  {
    util::MutexLock lk(mu_);
    batch_.swap(queued_);
  }
  for (Frame& f : batch_) f.to->dispatch(f.msg);
  const std::size_t n = batch_.size();
  batch_.clear();  // keeps its capacity for the next swap
  return n;
}

}  // namespace poly::net
