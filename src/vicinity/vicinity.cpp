#include "vicinity/vicinity.hpp"

#include <algorithm>
#include <stdexcept>

namespace poly::vicinity {

VicinityProtocol::VicinityProtocol(sim::Network& net,
                                   const space::MetricSpace& space,
                                   rps::RpsProtocol& rps,
                                   const sim::FailureDetector& fd,
                                   VicinityConfig cfg)
    : net_(net), space_(space), rps_(rps), fd_(fd), cfg_(cfg) {
  if (cfg_.view_size == 0 || cfg_.gossip_size == 0)
    throw std::invalid_argument(
        "VicinityConfig: view_size/gossip_size must be > 0");
}

void VicinityProtocol::on_node_added(sim::NodeId id, const space::Point& pos) {
  if (id != views_.size())
    throw std::invalid_argument("VicinityProtocol: nodes must register in order");
  views_.emplace_back();
  pos_.push_back(pos);
  version_.push_back(1);
}

void VicinityProtocol::bootstrap_node(sim::NodeId id) {
  util::Rng& rng = net_.node_rng(id);
  candidates_.clear();
  for (sim::NodeId peer : rps_.random_peers(id, cfg_.init_view, rng)) {
    if (peer == id || !net_.alive(peer)) continue;
    candidates_.push_back(VicinityEntry{peer, pos_[peer], version_[peer], 0});
  }
  views_[id].clear();
  tman::merge_ranked(views_[id], candidates_, id, pos_[id], space_,
                     cfg_.view_size, rank_scratch_);
}

void VicinityProtocol::bootstrap_all() {
  for (sim::NodeId id = 0; id < views_.size(); ++id)
    if (net_.alive(id)) bootstrap_node(id);
}

void VicinityProtocol::set_position(sim::NodeId id, const space::Point& pos) {
  if (pos_[id] == pos) return;
  pos_[id] = pos;
  ++version_[id];
}

void VicinityProtocol::round() {
  for (sim::NodeId p : net_.shuffled_alive_ids()) {
    refresh_positions(p);
    exchange(p);
  }
}

void VicinityProtocol::refresh_positions(sim::NodeId p) {
  // As with our T-Man: moving nodes must refresh the positions advertised
  // in views each round (billed per changed descriptor).
  auto& view = views_[p];
  std::size_t updated = 0;
  for (auto& e : view) {
    if (version_[e.id] > e.version) {
      e.pos = pos_[e.id];
      e.version = version_[e.id];
      ++updated;
    }
  }
  if (updated > 0) {
    net_.traffic().add(
        sim::Channel::kTman,
        static_cast<double>(updated) *
            sim::TrafficMeter::descriptor_units(space_.dimension()));
    tman::rank_view(view, pos_[p], space_, rank_scratch_);
  }
}

void VicinityProtocol::build_buffer(sim::NodeId p, sim::NodeId q,
                                    std::vector<VicinityEntry>& buf) {
  util::Rng& rng = net_.node_rng(p);
  // Own descriptor + Vicinity view + a slice of the peer-sampling view —
  // the two-layer candidate pool of the original protocol.
  candidates_.clear();
  for (const rps::RpsEntry& r : rps_.random_view_entries(p, cfg_.rps_mix, rng)) {
    if (r.id == p || r.id == q || !net_.alive(r.id)) continue;
    // Descriptors minted from the peer-sampling layer carry the RPS view's
    // own age: p never contacted r, so advertising r as fresh (age 0)
    // would rejuvenate stale entries across the network and delay the
    // Cyclon-style flushing of dead nodes after a catastrophe.
    candidates_.push_back(
        VicinityEntry{r.id, pos_[r.id], version_[r.id], r.age});
  }
  const auto& view = views_[p];
  buf.clear();
  buf.push_back(VicinityEntry{p, pos_[p], version_[p], 0});
  // No early exit: set_position does not re-rank, so the view may be in
  // the order of p's previous position.
  for (std::uint32_t i :
       tman::pick_closest(view, candidates_, q, pos_[q], p, space_,
                          cfg_.gossip_size, rank_scratch_, nullptr))
    buf.push_back(i < view.size() ? view[i] : candidates_[i - view.size()]);
}

void VicinityProtocol::merge(sim::NodeId self, sim::NodeId from,
                             const std::vector<VicinityEntry>& incoming) {
  auto& view = views_[self];
  // set_position does not re-rank, so the view may still be in the order
  // of the node's previous position: rank it before merging into it.
  tman::rank_view(view, pos_[self], space_, rank_scratch_);
  tman::merge_ranked(
      view, incoming, self, pos_[self], space_, cfg_.view_size, rank_scratch_,
      [from](VicinityEntry& kept, const VicinityEntry& arriving) {
        // Only direct contact proves liveness: the exchange partner's own
        // descriptor resets the age, but relayed descriptors must not — a
        // min-merge would let third-hand (and RPS-minted age-0)
        // descriptors keep dead entries young without any contact.
        if (arriving.id == from) kept.age = 0;
      });
}

void VicinityProtocol::prune_suspected(sim::NodeId id) {
  auto& view = views_[id];
  view.erase(std::remove_if(view.begin(), view.end(),
                            [&](const VicinityEntry& e) {
                              return fd_.suspects(id, e.id);
                            }),
             view.end());
}

bool VicinityProtocol::exchange(sim::NodeId p) {
  prune_suspected(p);
  auto& view = views_[p];
  for (auto& e : view) ++e.age;

  // Partner selection: the *oldest* alive entry (Cyclon-style).  Entries
  // found dead on contact are dropped — Vicinity's healing.
  sim::NodeId q = sim::kInvalidNode;
  while (!view.empty()) {
    auto oldest = std::max_element(view.begin(), view.end(),
                                   [](const VicinityEntry& a,
                                      const VicinityEntry& b) {
                                     return a.age < b.age;
                                   });
    if (!fd_.suspects(p, oldest->id) && net_.alive(oldest->id)) {
      q = oldest->id;
      oldest->age = 0;
      break;
    }
    view.erase(oldest);
  }
  if (q == sim::kInvalidNode) {
    bootstrap_node(p);
    return false;
  }

  build_buffer(p, q, buf_pq_);
  prune_suspected(q);
  build_buffer(q, p, buf_qp_);
  net_.traffic().add(
      sim::Channel::kTman,
      static_cast<double>(buf_pq_.size() + buf_qp_.size()) *
          sim::TrafficMeter::descriptor_units(space_.dimension()));
  merge(q, p, buf_pq_);
  merge(p, q, buf_qp_);
  return true;
}

std::vector<sim::NodeId> VicinityProtocol::closest_alive(sim::NodeId id,
                                                         std::size_t k) const {
  std::vector<sim::NodeId> out;
  out.reserve(k);
  for (const auto& e : views_[id]) {
    if (out.size() >= k) break;
    if (net_.alive(e.id)) out.push_back(e.id);
  }
  return out;
}

}  // namespace poly::vicinity
