#include "tman/tman.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

namespace poly::tman {

namespace {
constexpr std::uint64_t kNeverPruned =
    std::numeric_limits<std::uint64_t>::max();
}  // namespace

TmanProtocol::TmanProtocol(sim::Network& net, const space::MetricSpace& space,
                           rps::RpsProtocol& rps,
                           const sim::FailureDetector& fd, TmanConfig cfg)
    : net_(net), space_(space), rps_(rps), fd_(fd), cfg_(cfg) {
  if (cfg_.view_cap == 0 || cfg_.msg_size == 0 || cfg_.psi == 0)
    throw std::invalid_argument("TmanConfig: view_cap/msg_size/psi must be > 0");
}

void TmanProtocol::on_node_added(sim::NodeId id, const space::Point& pos) {
  if (id != views_.size())
    throw std::invalid_argument("TmanProtocol: nodes must register in order");
  views_.emplace_back();
  pos_.push_back(pos);
  version_.push_back(1);
  pruned_at_.push_back(kNeverPruned);
}

void TmanProtocol::bootstrap_node(sim::NodeId id) {
  sample_candidates(id, cfg_.init_view, sim::kInvalidNode);
  views_[id].clear();
  merge_ranked(views_[id], candidates_, id, pos_[id], space_, cfg_.view_cap,
               rank_scratch_);
}

void TmanProtocol::bootstrap_all() {
  for (sim::NodeId id = 0; id < views_.size(); ++id)
    if (net_.alive(id)) bootstrap_node(id);
}

void TmanProtocol::set_position(sim::NodeId id, const space::Point& pos) {
  if (pos_[id] == pos) return;
  pos_[id] = pos;
  ++version_[id];
  // The node's own ranking criterion changed: every key moved.
  rank_view(views_[id], pos_[id], space_, rank_scratch_);
}

void TmanProtocol::round() {
  if (cfg_.refresh_positions) refresh_all_views();
  for (sim::NodeId p : net_.shuffled_alive_ids()) exchange(p);
}

void TmanProtocol::refresh_all_views() {
  const double unit = sim::TrafficMeter::descriptor_units(space_.dimension());
  for (sim::NodeId p = 0; p < views_.size(); ++p) {
    if (!net_.alive(p)) continue;
    const std::size_t updated = refresh_ranked(views_[p], pos_, version_,
                                               pos_[p], space_, rank_scratch_);
    // Each refreshed entry costs one descriptor on the wire — the
    // position-update traffic that dominates the paper's Fig. 7b.
    if (updated > 0)
      net_.traffic().add(sim::Channel::kTman,
                         static_cast<double>(updated) * unit);
  }
}

void TmanProtocol::prune_suspected(sim::NodeId id) {
  // Skipping the scan under the epoch of the view's last prune is exact.
  // The suspected set has not grown since, and each descriptor that entered
  // the view meanwhile is unsuspected: it came from a buffer built from a
  // view pruned under the same epoch, from the alive-filtered RPS
  // candidates, or is p's or q's own descriptor, and a detector with an
  // epoch suspects no alive node.
  const std::optional<std::uint64_t> epoch = fd_.epoch();
  if (epoch && *epoch == pruned_at_[id]) return;
  auto& view = views_[id];
  view.erase(std::remove_if(view.begin(), view.end(),
                            [&](const Descriptor& d) {
                              return fd_.suspects(id, d.id);
                            }),
             view.end());
  if (epoch) pruned_at_[id] = *epoch;
}

void TmanProtocol::sample_candidates(sim::NodeId p, std::size_t k,
                                     sim::NodeId skip) {
  const auto& peers = rps_.view(p);
  net_.node_rng(p).sample_indices_into(peers.size(),
                                       std::min(k, peers.size()), sample_);
  candidates_.clear();
  for (std::size_t i : sample_) {
    const sim::NodeId r = peers[i].id;
    if (r == p || r == skip || !net_.alive(r)) continue;
    candidates_.push_back(Descriptor{r, pos_[r], version_[r]});
  }
}

void TmanProtocol::build_buffer(sim::NodeId p, sim::NodeId q,
                                std::vector<Descriptor>& buf) {
  // Candidates: own view plus a fresh random sample from the RPS layer
  // ("augmented in some protocols by additional random neighbors returned
  //  by the peer-sampling overlay", §II-B — this is what guarantees
  //  convergence from arbitrary states), ranked by distance to *q*.
  sample_candidates(p, cfg_.rps_fresh, q);
  const auto& view = views_[p];
  buf.clear();
  buf.push_back(Descriptor{p, pos_[p], version_[p]});  // own, always first
  // set_position re-ranks at once, so p's view is ranked around pos_[p]
  // and the scan may stop early.
  for (std::uint32_t i : pick_closest(view, candidates_, q, pos_[q], p, space_,
                                      cfg_.msg_size, rank_scratch_, &pos_[p]))
    buf.push_back(i < view.size() ? view[i] : candidates_[i - view.size()]);
}

bool TmanProtocol::exchange(sim::NodeId p) {
  prune_suspected(p);
  auto& view = views_[p];
  if (view.empty()) {
    bootstrap_node(p);
    if (view.empty()) return false;
  }

  // selectPeer(): uniformly among the ψ closest entries (view is ranked).
  util::Rng& rng = net_.node_rng(p);
  const std::size_t horizon = std::min(cfg_.psi, view.size());
  const sim::NodeId q = view[rng.index(horizon)].id;
  if (!net_.alive(q)) {
    // Contact failure: heal the link and retry next round.
    view.erase(std::remove_if(view.begin(), view.end(),
                              [q](const Descriptor& d) { return d.id == q; }),
               view.end());
    return false;
  }

  // Symmetric push-pull of m-descriptor buffers.
  build_buffer(p, q, buf_pq_);
  prune_suspected(q);
  build_buffer(q, p, buf_qp_);

  const double unit = sim::TrafficMeter::descriptor_units(space_.dimension());
  net_.traffic().add(
      sim::Channel::kTman,
      static_cast<double>(buf_pq_.size() + buf_qp_.size()) * unit);

  merge_ranked(views_[q], buf_pq_, q, pos_[q], space_, cfg_.view_cap,
               rank_scratch_);
  merge_ranked(view, buf_qp_, p, pos_[p], space_, cfg_.view_cap,
               rank_scratch_);
  return true;
}

std::vector<sim::NodeId> TmanProtocol::closest_alive(sim::NodeId id,
                                                     std::size_t k) const {
  std::vector<sim::NodeId> out;
  out.reserve(k);
  for (const auto& d : views_[id]) {
    if (out.size() >= k) break;
    if (net_.alive(d.id)) out.push_back(d.id);
  }
  return out;
}

}  // namespace poly::tman
