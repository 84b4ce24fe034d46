#include "rps/rps.hpp"

#include <algorithm>
#include <stdexcept>

namespace poly::rps {

RpsProtocol::RpsProtocol(sim::Network& net, RpsConfig cfg)
    : net_(net), cfg_(cfg) {
  if (cfg_.view_size == 0)
    throw std::invalid_argument("RpsConfig: view_size must be > 0");
  if (cfg_.shuffle_length == 0 || cfg_.shuffle_length > cfg_.view_size)
    throw std::invalid_argument(
        "RpsConfig: shuffle_length must be in [1, view_size]");
  views_.reserve(net.num_total());
  for (sim::NodeId id = 0; id < net.num_total(); ++id) on_node_added(id);
}

void RpsProtocol::on_node_added(sim::NodeId id) {
  if (id != views_.size())
    throw std::invalid_argument("RpsProtocol: nodes must register in order");
  views_.emplace_back();
  views_.back().reserve(cfg_.view_size);
}

void RpsProtocol::bootstrap_node(sim::NodeId id) {
  auto& view = views_[id];
  view.clear();
  util::Rng& rng = net_.node_rng(id);
  // Up to view_size distinct alive peers; bounded retries keep this robust
  // in tiny networks where fewer peers exist than view slots.
  const std::size_t want = std::min(cfg_.view_size, net_.num_alive() - 1);
  std::size_t attempts = 0;
  while (view.size() < want && attempts < 50 * cfg_.view_size) {
    ++attempts;
    const sim::NodeId peer = net_.random_alive(rng);
    if (peer == sim::kInvalidNode || knows(id, peer)) continue;
    view.push_back(RpsEntry{peer, 0});
  }
}

void RpsProtocol::bootstrap_all() {
  for (sim::NodeId id = 0; id < net_.num_total(); ++id)
    if (net_.alive(id)) bootstrap_node(id);
}

void RpsProtocol::round() {
  for (sim::NodeId p : net_.shuffled_alive_ids()) shuffle(p);
}

bool RpsProtocol::shuffle(sim::NodeId p) {
  auto& view = views_[p];
  for (auto& e : view) ++e.age;  // Cyclon step 1: age the view.

  // Step 2: pick the oldest *alive* neighbour; stale entries found dead on
  // contact are discarded (this is Cyclon's self-healing).
  sim::NodeId q = sim::kInvalidNode;
  while (!view.empty()) {
    auto oldest = std::max_element(
        view.begin(), view.end(),
        [](const RpsEntry& a, const RpsEntry& b) { return a.age < b.age; });
    if (net_.alive(oldest->id)) {
      q = oldest->id;
      break;
    }
    view.erase(oldest);  // contact failed: drop the dead entry
  }
  if (q == sim::kInvalidNode) {
    // View exhausted (e.g. right after a catastrophe): re-bootstrap.
    bootstrap_node(p);
    return false;
  }

  // Step 3: build p's buffer = own fresh descriptor + (l-1) random others
  // (excluding the entry for q, which is removed from p's view — swap
  // semantics).  Entries after the first are the ones p ships out, the
  // candidates to replace on merge.
  remove_entry(p, q);
  buf_p_.clear();
  buf_p_.push_back(RpsEntry{p, 0});
  net_.node_rng(p).sample_indices_into(
      view.size(), std::min(cfg_.shuffle_length - 1, view.size()), picks_);
  for (std::size_t i : picks_) buf_p_.push_back(view[i]);

  // q builds its reply from its own view before merging p's buffer.
  const auto& qview = views_[q];
  buf_q_.clear();
  net_.node_rng(q).sample_indices_into(
      qview.size(), std::min(cfg_.shuffle_length, qview.size()), picks_);
  for (std::size_t i : picks_) buf_q_.push_back(qview[i]);

  // Traffic: RPS descriptors carry an id (+age, which we do not bill —
  // the paper excludes RPS from its cost figures anyway).
  net_.traffic().add(sim::Channel::kRps,
                     static_cast<double>(buf_p_.size() + buf_q_.size()) *
                         sim::TrafficMeter::kIdUnits);

  merge(q, buf_p_, buf_q_);
  merge(p, buf_q_, std::span<const RpsEntry>(buf_p_).subspan(1));
  return true;
}

void RpsProtocol::remove_entry(sim::NodeId self, sim::NodeId target) {
  auto& view = views_[self];
  view.erase(std::remove_if(view.begin(), view.end(),
                            [target](const RpsEntry& e) {
                              return e.id == target;
                            }),
             view.end());
}

bool RpsProtocol::knows(sim::NodeId self, sim::NodeId id) const {
  const auto& view = views_[self];
  return id == self ||
         std::any_of(view.begin(), view.end(),
                     [id](const RpsEntry& e) { return e.id == id; });
}

void RpsProtocol::merge(sim::NodeId self, std::span<const RpsEntry> incoming,
                        std::span<const RpsEntry> sent) {
  auto& view = views_[self];
  for (const auto& e : incoming) {
    if (knows(self, e.id)) continue;  // drop self-references/duplicates
    if (view.size() < cfg_.view_size) {
      view.push_back(e);
      continue;
    }
    // View full: replace one of the entries shipped out in this shuffle.
    bool replaced = false;
    for (const RpsEntry& victim : sent) {
      auto it = std::find_if(view.begin(), view.end(),
                             [&](const RpsEntry& x) {
                               return x.id == victim.id;
                             });
      if (it != view.end()) {
        *it = e;
        replaced = true;
        break;
      }
    }
    if (!replaced) break;  // no replaceable slot left
  }
}

sim::NodeId RpsProtocol::random_peer(sim::NodeId self, util::Rng& rng) const {
  const auto& view = views_[self];
  if (view.empty()) return sim::kInvalidNode;
  return view[rng.index(view.size())].id;
}

std::vector<sim::NodeId> RpsProtocol::random_peers(sim::NodeId self,
                                                   std::size_t k,
                                                   util::Rng& rng) const {
  std::vector<sim::NodeId> out;
  for (const RpsEntry& e : random_view_entries(self, k, rng))
    out.push_back(e.id);
  return out;
}

std::vector<RpsEntry> RpsProtocol::random_view_entries(sim::NodeId self,
                                                       std::size_t k,
                                                       util::Rng& rng) const {
  const auto& view = views_[self];
  std::vector<RpsEntry> out;
  for (std::size_t i : rng.sample_indices(view.size(),
                                          std::min(k, view.size())))
    out.push_back(view[i]);
  return out;
}

double RpsProtocol::dead_entry_fraction() const {
  std::size_t total = 0;
  std::size_t dead = 0;
  for (sim::NodeId id = 0; id < views_.size(); ++id) {
    if (!net_.alive(id)) continue;
    for (const auto& e : views_[id]) {
      ++total;
      if (!net_.alive(e.id)) ++dead;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(dead) / total;
}

}  // namespace poly::rps
