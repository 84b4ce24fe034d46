#include "net/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "space/medoid.hpp"
#include "util/log.hpp"

namespace poly::net {

namespace {

void to_point_set_into(const std::vector<WirePoint>& wire,
                       core::PointSet& out) {
  out.clear();
  out.reserve(wire.size());
  for (const auto& p : wire) out.push_back({p.id, p.pos});
  core::normalize(out);
}

core::PointSet to_point_set(const std::vector<WirePoint>& wire) {
  core::PointSet out;
  to_point_set_into(wire, out);
  return out;
}

void to_wire_into(const core::PointSet& set, std::vector<WirePoint>& out) {
  out.resize(set.size());
  for (std::size_t i = 0; i < set.size(); ++i)
    out[i] = WirePoint{set[i].id, set[i].pos};
}

/// First index of the greatest age (the one std::max_element returns).
std::size_t oldest_index(const PeerList& view) {
  std::size_t oldest = 0;
  for (std::size_t i = 1; i < view.size(); ++i)
    if (view[i].age > view[oldest].age) oldest = i;
  return oldest;
}

PeerEntry to_entry(const WirePeer& p) {
  return PeerEntry{p.id, p.age, p.pos, p.version};
}

/// Address slots go out empty: peers know each other by id alone.
WirePeer to_wire(const PeerEntry& e) {
  return WirePeer{e.id, {}, e.age, e.pos, e.version};
}

}  // namespace

// ---- AsyncScratch -----------------------------------------------------------

void AsyncScratch::bind(util::Arena& arena, const AsyncConfig& cfg) {
  backup_targets.bind(arena, static_cast<std::uint32_t>(cfg.replication));
  mig_candidates.bind(arena, static_cast<std::uint32_t>(cfg.psi + 1));
}

// ---- AsyncNode --------------------------------------------------------------

AsyncNode::AsyncNode(LiveNodeId id,
                     std::shared_ptr<const space::MetricSpace> space,
                     std::unique_ptr<Transport> transport,
                     std::optional<space::DataPoint> initial,
                     AsyncConfig config, std::uint64_t seed, ClockFn clock,
                     util::Arena& arena, AsyncScratch& scratch)
    : id_(id),
      space_(std::move(space)),
      transport_(std::move(transport)),
      cfg_(config),
      clock_(std::move(clock)),
      rng_(seed),
      scratch_(&scratch) {
  rps_view_.bind(arena, static_cast<std::uint32_t>(cfg_.rps_view));
  tman_view_.bind(arena, tman_phys_cap(cfg_));
  backups_.bind(arena, static_cast<std::uint32_t>(cfg_.replication));
  ghosts_.bind(arena, static_cast<std::uint32_t>(cfg_.replication + 2));
  if (initial) {
    guests_.push_back(*initial);
    pos_ = initial->pos;
  }
  transport_->set_handler([this](Message& msg) { on_message(msg); });
}

AsyncNode::~AsyncNode() { transport_->shutdown(); }

void AsyncNode::bootstrap(std::span<const LiveNodeId> seeds) {
  for (const LiveNodeId s : seeds) {
    if (s == id_) continue;
    if (rps_view_.size() < cfg_.rps_view)
      rps_view_.push_back(PeerEntry{s, 0, {}, 0});
  }
}

void AsyncNode::crash() {
  // Peers immediately see contact failures, and no further handler
  // invocations can touch our state.
  transport_->shutdown();
}

void AsyncNode::recover(std::unique_ptr<Transport> transport) {
  transport_ = std::move(transport);
  transport_->set_handler([this](Message& msg) { on_message(msg); });
  // Any half-open migration handshake died with the old endpoint; the
  // partner timed out during the outage and kept its guests.
  migrating_ = false;
}

void AsyncNode::tick() {
  step_rps();
  step_tman();
  step_recovery();
  step_backup();
  step_migration();
}

Header AsyncNode::header(MsgType type) const {
  return Header{type, id_, {}};
}

const std::vector<WirePoint>& AsyncNode::wire_guests() const {
  to_wire_into(guests_, scratch_->wire_guests);
  return scratch_->wire_guests;
}

bool AsyncNode::send_to(LiveNodeId peer, std::vector<std::uint8_t> frame) {
  if (transport_->send(peer, std::move(frame))) return true;
  peer_unreachable(peer);
  return false;
}

void AsyncNode::peer_unreachable(LiveNodeId peer) {
  const auto is_peer = [peer](const auto& e) { return e.id == peer; };
  erase_where(rps_view_, is_peer);
  erase_where(tman_view_, is_peer);
  erase_where(backups_, is_peer);
  if (migrating_ && migrate_partner_ == peer) {
    migrating_ = false;  // exchange aborted; our guests were never released
  }
}

// ---- message dispatch --------------------------------------------------------

void AsyncNode::on_message(Message& msg) {
  try {
    util::ByteReader r(msg.payload);
    const Header h = decode_header(r);
    switch (h.type) {
      case MsgType::kRpsShuffleReq:
        decode_peers_into(r, scratch_->in_peers);
        handle_rps(h, scratch_->in_peers, /*is_req=*/true);
        break;
      case MsgType::kRpsShuffleResp:
        decode_peers_into(r, scratch_->in_peers);
        handle_rps(h, scratch_->in_peers, /*is_req=*/false);
        break;
      case MsgType::kTmanReq:
        decode_descriptors_into(r, scratch_->in_descriptors);
        handle_tman(h, scratch_->in_descriptors, /*is_req=*/true);
        break;
      case MsgType::kTmanResp:
        decode_descriptors_into(r, scratch_->in_descriptors);
        handle_tman(h, scratch_->in_descriptors, /*is_req=*/false);
        break;
      case MsgType::kBackupPush:
        decode_points_into(r, scratch_->in_points);
        handle_backup_push(h, scratch_->in_points);
        break;
      case MsgType::kMigrateReq: {
        const space::Point pos = decode_point(r);
        decode_points_into(r, scratch_->in_points);
        handle_migrate_req(h, pos, scratch_->in_points);
        break;
      }
      case MsgType::kMigrateResp: {
        const bool accepted = r.u8() != 0;
        decode_points_into(r, scratch_->in_points);
        handle_migrate_resp(h, accepted, scratch_->in_points);
        break;
      }
    }
  } catch (const util::CodecError& e) {
    // The decode boundary is the trust boundary: anything malformed —
    // truncated, corrupted, out-of-range — lands here, is counted, and is
    // dropped before it can touch protocol state (the scratch it decoded
    // into is overwritten by the next frame).
    ++frames_rejected_;
    // Under sustained corruption (the fault plane's `corrupt` verb) this
    // fires thousands of times — log the first few, the counter has the
    // rest.
    if (frames_rejected_ <= 3)
      util::log_warn(std::string("AsyncNode: dropping malformed frame: ") +
                     e.what());
  }
}

// ---- RPS --------------------------------------------------------------------

void AsyncNode::step_rps() {
  if (rps_view_.empty()) return;
  for (auto& e : rps_view_) ++e.age;
  const std::size_t oldest = oldest_index(rps_view_);
  const PeerEntry target = rps_view_[oldest];
  rps_view_.erase(oldest);  // swap semantics, as in Cyclon

  auto& out = scratch_->out_peers;
  out.clear();
  out.push_back(WirePeer{id_, {}, 0, pos_, pos_version_});
  rng_.sample_indices_into(rps_view_.size(),
                           std::min(cfg_.rps_shuffle - 1, rps_view_.size()),
                           scratch_->samples);
  for (std::size_t i : scratch_->samples) out.push_back(to_wire(rps_view_[i]));

  util::ByteWriter w = frame_writer();
  encode_rps(w, header(MsgType::kRpsShuffleReq), out);
  send_to(target.id, w.take());
}

void AsyncNode::handle_rps(const Header& h, const std::vector<WirePeer>& peers,
                           bool is_req) {
  if (is_req) {
    // Reply with a random sample of our view before merging.
    auto& out = scratch_->out_peers;
    out.clear();
    rng_.sample_indices_into(rps_view_.size(),
                             std::min(cfg_.rps_shuffle, rps_view_.size()),
                             scratch_->samples);
    for (std::size_t i : scratch_->samples)
      out.push_back(to_wire(rps_view_[i]));
    util::ByteWriter w = frame_writer();
    encode_rps(w, header(MsgType::kRpsShuffleResp), out);
    send_to(h.sender, w.take());
  }
  // Merge: drop self/duplicates, cap by replacing the oldest entries.
  // The view never exceeds cfg_.rps_view, whatever the frame carried.
  for (const auto& p : peers) {
    if (p.id == id_) continue;
    if (PeerEntry* e = find_id(rps_view_, p.id)) {
      if (p.age < e->age) e->age = p.age;  // keep the fresher view
      if (p.version > e->version) {
        e->pos = p.pos;
        e->version = p.version;
      }
      continue;
    }
    if (rps_view_.size() < cfg_.rps_view) {
      rps_view_.push_back(to_entry(p));
    } else {
      PeerEntry& oldest = rps_view_[oldest_index(rps_view_)];
      if (oldest.age > p.age) oldest = to_entry(p);
    }
  }
}

// ---- T-Man -------------------------------------------------------------------

void AsyncNode::step_tman() {
  // Age the view and evict the unheard-of.  First-hand contact resets an
  // entry's age (handle_tman); anything past the TTL is a member we have
  // no recent evidence for — crashed, or moved far enough that gossip no
  // longer circulates its descriptors here, in which case its advertised
  // position is a lie that would rank as "nearby" forever.  The erase
  // keeps the order, so an already-ranked view stays ranked.
  bool expired = false;
  for (TmanEntry& e : tman_view_) {
    if (e.age <= kTmanTtl) ++e.age;  // saturating: no wraparound
    expired = expired || e.age > kTmanTtl;
  }
  if (expired)
    erase_where(tman_view_,
                [](const TmanEntry& e) { return e.age > kTmanTtl; });
  // Random-candidate injection — the role the RPS layer plays in the
  // T-Man paper: every tick, offer the view the random sample's known
  // descriptors.  Almost all are far away and rejected by the cheap
  // pre-filter without dirtying the ranked view; the rare nearby one is
  // how two neighbourhoods whose mutual links all aged out rediscover
  // each other (routing across such a seam otherwise dead-ends forever:
  // both sides gossip strictly away from it).  Injected entries count
  // as second-hand, exactly as if a gossip partner had forwarded them.
  // They may fill the view past tman_view up to its physical cap, until
  // the next merge truncates (docs/ARCHITECTURE.md, "Kept fleet rules").
  for (const PeerEntry& p : rps_view_) {
    if (p.version == 0 || p.id == id_) continue;
    if (TmanEntry* e = find_id(tman_view_, p.id)) {
      if (p.version > e->version) {
        e->pos = p.pos;
        e->version = p.version;
        tman_ranked_ = false;
      }
      e->age = std::min(e->age, kTmanForwardAge);
      continue;
    }
    if (tman_ranked_ && tman_view_.size() >= cfg_.tman_view) {
      // A candidate no closer than the worst ranked entry cannot enter a
      // full view — reject without touching the rank.
      const TmanEntry& worst = tman_view_.back();
      if (space_->distance2(pos_, p.pos) >= space_->distance2(pos_, worst.pos))
        continue;
    }
    if (tman_view_.size() >= tman_phys_cap(cfg_)) {
      tman::rank_view(tman_view_, pos_, *space_, scratch_->rank);
      tman_view_.resize(cfg_.tman_view);
    }
    tman_view_.push_back(TmanEntry{p.id, p.version, p.pos, kTmanForwardAge});
    tman_ranked_ = false;
  }
  if (tman_view_.empty()) {
    // Cold start (no peer has a known position yet): seed the topology
    // view with placeholder descriptors so there is someone to contact.
    for (const PeerEntry& p : rps_view_)
      tman_view_.push_back(TmanEntry{p.id, 0, pos_, 0});
    if (tman_view_.empty()) return;
    tman_ranked_ = false;
  }
  // Rank by distance to our position, pick among the ψ closest.  The rank
  // is lazy: only a view that an injection or a reprojection left unranked
  // is re-ranked here (docs/ARCHITECTURE.md, "Kept fleet rules").
  if (!tman_ranked_) {
    tman::rank_view(tman_view_, pos_, *space_, scratch_->rank);
    tman_ranked_ = true;
  }
  const std::size_t horizon = std::min(cfg_.psi, tman_view_.size());
  const TmanEntry target = tman_view_[rng_.index(horizon)];
  util::ByteWriter w = frame_writer();
  encode_tman(w, header(MsgType::kTmanReq), tman_buffer(target.id, target.pos));
  send_to(target.id, w.take());
}

const std::vector<WireDescriptor>& AsyncNode::tman_buffer(
    LiveNodeId receiver, const space::Point& receiver_pos) {
  // The tman_msg entries closest to the receiver are walked in order,
  // skipping the receiver and what the forwarding rule rejects, so a frame
  // often carries fewer than tman_msg - 1 entries; filtering before the
  // cut would fill it but cost greedy routing its shortcuts
  // (docs/ARCHITECTURE.md, "Kept fleet rules").  The rule: version-0
  // entries are bootstrap placeholders carrying our *own* position as a
  // stand-in for the member's — forwarded, such a guess would rank as
  // nearby in third-party views and never heal.  And only first-hand-fresh
  // entries are forwarded (see kTmanForwardAge): second-hand copies
  // arrive exactly at the horizon and are never re-forwarded, so rumors
  // about dead or moved members cannot outlive their last confirmation.
  auto forwardable = [](const TmanEntry& e) {
    return e.version != 0 && e.age < kTmanForwardAge;
  };
  auto& out = scratch_->out_descriptors;
  out.clear();
  out.push_back(WireDescriptor{id_, {}, pos_, pos_version_});
  // No early exit: the view is re-ranked lazily (tman_ranked_), so it may
  // be in the order of an older position.
  for (std::uint32_t i :
       tman::pick_closest(tman_view_, {}, receiver, receiver_pos, id_, *space_,
                          cfg_.tman_msg, scratch_->rank, nullptr,
                          forwardable)) {
    const TmanEntry& e = tman_view_[i];
    out.push_back({e.id, {}, e.pos, e.version});
  }
  return out;
}

void AsyncNode::handle_tman(const Header& h,
                            const std::vector<WireDescriptor>& descriptors,
                            bool is_req) {
  if (is_req) {
    // Symmetric reply: our descriptor + entries closest to the sender.
    const space::Point sender_pos =
        descriptors.empty() ? pos_ : descriptors.front().pos;
    util::ByteWriter w = frame_writer();
    encode_tman(w, header(MsgType::kTmanResp),
                tman_buffer(h.sender, sender_pos));
    send_to(h.sender, w.take());
  }
  // First-hand contact (the member itself is talking to us) proves it
  // alive *now*: age 0.  A forwarded copy only proves someone heard from
  // it within the forwarding horizon, so it arrives that old and can
  // lower — never raise — the age we already track.
  // Merging m ids costs O(m · (view + m)), so a frame longer than the
  // view's physical cap (an in-spec one carries at most tman_msg) is
  // counted and cut to it.
  const std::size_t n =
      std::min<std::size_t>(descriptors.size(), tman_phys_cap(cfg_));
  if (n < descriptors.size()) ++frames_overlong_;
  auto& in = scratch_->in_tman;
  in.clear();
  for (const WireDescriptor& d : std::span(descriptors).first(n))
    in.push_back(TmanEntry{d.id, d.version, d.pos,
                           d.id == h.sender ? 0 : kTmanForwardAge});
  // Merge the staged frame, then truncate to tman_view.
  if (!tman_ranked_) tman::rank_view(tman_view_, pos_, *space_, scratch_->rank);
  tman::merge_ranked(tman_view_, in, id_, pos_, *space_, cfg_.tman_view,
                     scratch_->rank,
                     [](TmanEntry& kept, const TmanEntry& arriving) {
                       kept.age = std::min(kept.age, arriving.age);
                     });
  tman_ranked_ = true;
}

// ---- Backup & recovery ----------------------------------------------------------

void AsyncNode::step_backup() {
  // Top up to K targets from the peer-sampling view.
  std::size_t attempts = 0;
  while (backups_.size() < cfg_.replication &&
         attempts++ < 4 * cfg_.replication && !rps_view_.empty()) {
    PeerEntry cand = rps_view_[rng_.index(rps_view_.size())];
    if (cand.id == id_ || find_id(backups_, cand.id) != nullptr) continue;
    cand.age = 0;
    backups_.push_back(cand);
  }
  // Push guests (full copy; doubles as the origin's heartbeat).  Iterate
  // over a scratch copy: send failures mutate backups_ via
  // peer_unreachable.
  auto& targets = scratch_->backup_targets;
  targets.assign(backups_);
  // Every target gets the identical frame: encode once into the scratch,
  // then byte-copy per target instead of re-encoding field by field.
  util::ByteWriter master(std::move(scratch_->frame));
  encode_backup_push(master, header(MsgType::kBackupPush), wire_guests());
  scratch_->frame = master.take();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    util::ByteWriter w = frame_writer();
    w.bytes(scratch_->frame.data(), scratch_->frame.size());
    send_to(targets[i].id, w.take());
  }
}

void AsyncNode::handle_backup_push(const Header& h,
                                   const std::vector<WirePoint>& guests) {
  GhostTable::Slot& slot = ghosts_.find_or_insert(h.sender);
  to_point_set_into(guests, slot.points);
  slot.last_push = clock_();
}

void AsyncNode::step_recovery() {
  if (migrating_) return;  // guests frozen during an exchange
  const auto now = clock_();
  bool changed = false;
  for (std::size_t i = 0; i < ghosts_.size();) {
    if (now - ghosts_[i].last_push > cfg_.origin_timeout) {
      guests_ = core::union_by_id(guests_, ghosts_[i].points);
      ghosts_.erase(i);  // ascending-id order, as with the old map
      changed = true;
    } else {
      ++i;
    }
  }
  if (changed) reproject();
}

// ---- Migration -------------------------------------------------------------------

void AsyncNode::step_migration() {
  if (migrating_) {
    if (--migrate_ticks_left_ <= 0) migrating_ = false;  // timed out
    return;
  }
  // Candidates: ψ closest topology neighbours (view is kept ranked) plus
  // one random peer from the sampling view (Algorithm 3).
  auto& candidates = scratch_->mig_candidates;
  candidates.clear();
  for (const TmanEntry& e : tman_view_) {
    if (candidates.size() >= cfg_.psi) break;
    candidates.push_back({e.id, 0, e.pos, e.version});
  }
  if (!rps_view_.empty()) {
    const PeerEntry& r = rps_view_[rng_.index(rps_view_.size())];
    if (r.id != id_ &&
        std::none_of(candidates.begin(), candidates.end(),
                     [&](const auto& c) { return c.id == r.id; }))
      candidates.push_back(r);
  }
  if (candidates.empty() || guests_.empty()) return;

  const auto& q = candidates[rng_.index(candidates.size())];
  migrating_ = true;
  migrate_partner_ = q.id;
  migrate_ticks_left_ = 4;
  util::ByteWriter w = frame_writer();
  encode_migrate_req(w, header(MsgType::kMigrateReq), pos_, wire_guests());
  if (!send_to(q.id, w.take())) {
    migrating_ = false;
  }
}

void AsyncNode::handle_migrate_req(const Header& h,
                                   const space::Point& initiator_pos,
                                   const std::vector<WirePoint>& guests) {
  if (migrating_) {
    // Busy: our guests are frozen by our own outstanding exchange.
    util::ByteWriter w = frame_writer();
    encode_migrate_resp(w, header(MsgType::kMigrateResp),
                        /*accepted=*/false, {});
    send_to(h.sender, w.take());
    return;
  }
  // Pool and split: we keep for_q, the initiator gets for_p back.
  const core::PointSet pool =
      core::union_by_id(to_point_set(guests), guests_);
  auto result = core::split(cfg_.split_kind, pool, initiator_pos, pos_,
                            *space_, rng_);
  guests_ = std::move(result.for_q);
  reproject();
  to_wire_into(result.for_p, scratch_->out_points);
  util::ByteWriter w = frame_writer();
  encode_migrate_resp(w, header(MsgType::kMigrateResp),
                      /*accepted=*/true, scratch_->out_points);
  send_to(h.sender, w.take());
}

void AsyncNode::handle_migrate_resp(const Header& h, bool accepted,
                                    const std::vector<WirePoint>& guests) {
  if (!migrating_ || h.sender != migrate_partner_) return;  // stale reply
  migrating_ = false;
  if (!accepted) return;  // partner was busy; keep our guests
  guests_ = to_point_set(guests);
  reproject();
}

void AsyncNode::reproject() {
  if (guests_.empty()) return;
  // Threshold-routed: exact medoid at steady-state guest-set sizes, the
  // sampled/grid-assisted variant on oversized post-catastrophe pools.
  const space::Point m = space::medoid(guests_, *space_, rng_);
  if (m == pos_) return;
  pos_ = m;
  ++pos_version_;
  tman_ranked_ = false;  // the view's ranking criterion just moved
}

// ---- inspection --------------------------------------------------------------------

space::Point AsyncNode::position() const { return pos_; }

AsyncNode::ViewHop AsyncNode::closest_view_member(
    const space::Point& target, bool (*accept)(void* ctx, LiveNodeId id),
    void* ctx) const {
  ViewHop best;
  for (const TmanEntry& d : tman_view_) {
    if (accept != nullptr && !accept(ctx, d.id)) continue;
    const double dist = space_->distance(d.pos, target);
    if (!best.found || dist < best.distance ||
        (dist == best.distance && d.id < best.id)) {
      best.id = d.id;
      best.distance = dist;
      best.found = true;
    }
  }
  return best;
}

void AsyncNode::for_each_view_member(
    void (*fn)(void* ctx, LiveNodeId id, const space::Point& advertised,
               std::uint64_t version),
    void* ctx) const {
  for (const TmanEntry& d : tman_view_) fn(ctx, d.id, d.pos, d.version);
}

core::PointSet AsyncNode::guests() const { return guests_; }

std::size_t AsyncNode::ghost_point_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ghosts_.size(); ++i)
    n += ghosts_[i].points.size();
  return n;
}

std::size_t AsyncNode::tman_view_size() const { return tman_view_.size(); }

std::size_t AsyncNode::rps_view_size() const { return rps_view_.size(); }

std::size_t AsyncNode::backup_target_count() const { return backups_.size(); }

std::size_t AsyncNode::state_heap_bytes() const {
  return guests_.capacity() * sizeof(space::DataPoint) + ghosts_.heap_bytes();
}

}  // namespace poly::net
