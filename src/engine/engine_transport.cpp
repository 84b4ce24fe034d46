#include "engine/engine_transport.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace poly::engine {

// ---- EngineTransport --------------------------------------------------------

EngineTransport::EngineTransport(EngineHub* hub, EndpointId id,
                                 std::uint32_t node)
    : hub_(hub), id_(id), node_(node) {}

EngineTransport::~EngineTransport() { shutdown(); }

net::Address EngineTransport::address() const {
  return "node-" + std::to_string(node_);
}

void EngineTransport::set_handler(net::MessageHandler handler) {
  handler_ = std::move(handler);
}

bool EngineTransport::send(net::LiveNodeId to,
                           std::vector<std::uint8_t> payload) {
  if (stopped_) return false;
  return hub_->send_from(*this, to, std::move(payload));
}

std::vector<std::uint8_t> EngineTransport::acquire_buffer() {
  return hub_->acquire_buffer();
}

void EngineTransport::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  hub_->unregister(*this);
}

void EngineTransport::dispatch(net::Message& msg) {
  if (!stopped_ && handler_) handler_(msg);
}

// ---- EngineHub --------------------------------------------------------------

EngineHub::EngineHub(EventEngine& engine, LinkModel link)
    : engine_(engine), link_(link), rng_(engine.split_rng()) {}

std::unique_ptr<EngineTransport> EngineHub::make_endpoint(
    net::LiveNodeId node) {
  thread_check_.check("EngineHub::make_endpoint");
  if (node >= kNoEndpoint)
    throw std::invalid_argument("EngineHub: node id out of range");
  if (endpoint_of(node) != kNoEndpoint)
    throw std::invalid_argument("EngineHub: node " + std::to_string(node) +
                                " already has a live endpoint");
  const auto id = static_cast<EndpointId>(transports_.size());
  auto ep = std::unique_ptr<EngineTransport>(
      new EngineTransport(this, id, static_cast<std::uint32_t>(node)));
  transports_.push_back(ep.get());
  clamp_keys_.emplace_back();
  if (node >= node_ep_.size()) node_ep_.resize(node + 1, kNoEndpoint);
  node_ep_[node] = id;
  return ep;
}

std::vector<std::uint8_t> EngineHub::acquire_buffer() {
  if (pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void EngineHub::release_buffer(std::vector<std::uint8_t> buf) {
  if (buf.capacity() == 0 || pool_.size() >= kPoolCap) return;
  buf.clear();
  pool_.push_back(std::move(buf));
}

std::size_t EngineHub::approx_bytes() const {
  std::size_t b = transports_.capacity() * sizeof(EngineTransport*) +
                  clamp_keys_.capacity() * sizeof(std::vector<std::uint64_t>) +
                  node_ep_.capacity() * sizeof(EndpointId) +
                  pool_.capacity() * sizeof(std::vector<std::uint8_t>);
  for (const auto& keys : clamp_keys_)
    b += keys.capacity() * sizeof(std::uint64_t);
  // Hash table: node + bucket estimate per entry (implementation detail,
  // but stable enough for an audit line).
  b += fifo_clamp_.size() * (sizeof(std::uint64_t) + sizeof(SimTime) +
                             3 * sizeof(void*));
  for (const auto& buf : pool_) b += buf.capacity();
  return b;
}

void EngineHub::unregister(const EngineTransport& ep) {
  transports_[ep.id_] = nullptr;
  node_ep_[ep.node_] = kNoEndpoint;
  // Drop the dead endpoint's FIFO-clamp entries: it can never send or
  // receive again, and long churn scenarios would otherwise accumulate
  // clamp state for every node that ever lived.  The per-endpoint key
  // index makes this O(degree); the partner's index keeps a stale key,
  // erased as a cheap no-op when the partner dies.  Frames in flight to
  // the endpoint stay scheduled: they fire, find it dead, and discard.
  for (const std::uint64_t key : clamp_keys_[ep.id_]) fifo_clamp_.erase(key);
  clamp_keys_[ep.id_] = {};
}

bool EngineHub::send_from(const EngineTransport& from, net::LiveNodeId to_node,
                          std::vector<std::uint8_t> payload) {
  thread_check_.check("EngineHub::send_from");
  const EndpointId to = endpoint_of(to_node);
  if (to == kNoEndpoint) {
    release_buffer(std::move(payload));
    return false;  // contact failure
  }
  ++sent_;
  if (link_.drop(rng_)) {
    ++dropped_;
    release_buffer(std::move(payload));
    return true;  // accepted, lost in flight
  }
  // Fault plane (docs/FAULTS.md): one consultation per frame that passed
  // the dead-destination check and the link model's own drop draw.  With
  // no plane (or no rules) this is a single predictable branch and zero
  // RNG draws — trajectories are bit-identical to a plane-free hub.
  fault::FrameFate fate;
  if (plane_ != nullptr && plane_->active())
    fate = plane_->fate(from.node_, static_cast<std::uint32_t>(to_node),
                        payload.size(), engine_.now());
  if (fate.blackholed) {
    // Silent in-flight loss: the sender observes success, exactly like a
    // link-model drop — a partitioned peer looks slow/lossy, not dead.
    release_buffer(std::move(payload));
    return true;
  }
  SimTime at = engine_.now() + link_.latency(rng_) + fate.extra_latency;
  if (link_.may_reorder() ||
      (plane_ != nullptr && plane_->may_jitter())) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(from.id_) << 32) | to;
    auto [it, inserted] = fifo_clamp_.try_emplace(key, at);
    if (inserted) {
      clamp_keys_[from.id_].push_back(key);
      clamp_keys_[to].push_back(key);
    } else {
      if (at < it->second) at = it->second;  // keep per-pair FIFO
      it->second = at;
    }
  }
  // Reorder jitter lands *after* the FIFO clamp on purpose: breaking
  // per-pair ordering is the entire point of a reorder rule.  The clamp
  // entry above recorded the pre-jitter time, so later frames on the pair
  // are not dragged behind the straggler.
  at += fate.reorder_latency;
  if (fate.corrupt) plane_->corrupt_payload(payload);
  // Duplicates are byte-identical copies (corruption included), each its
  // own event at the original's instant.
  for (std::uint32_t c = 1; c < fate.copies; ++c) {
    std::vector<std::uint8_t> dup = acquire_buffer();
    dup.assign(payload.begin(), payload.end());
    engine_.schedule_at(at, Delivery{this, to, std::move(dup)});
  }
  engine_.schedule_at(at, Delivery{this, to, std::move(payload)});
  return true;
}

void EngineHub::deliver(EndpointId to, std::vector<std::uint8_t>& payload) {
  // Route at delivery time: the receiver may have crashed since the send,
  // and its endpoint id is never reused, so the frame dies with it.
  EngineTransport* ep = transports_[to];
  if (ep != nullptr) {
    ++delivered_;
    net::Message msg{std::move(payload)};
    ep->dispatch(msg);
    payload = std::move(msg.payload);  // reclaim unless the handler kept it
  }
  release_buffer(std::move(payload));
}

}  // namespace poly::engine
