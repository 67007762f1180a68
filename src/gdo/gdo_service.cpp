#include "gdo/gdo_service.hpp"

#include <algorithm>
#include <map>

#include "check/events.hpp"
#include "common/logging.hpp"

namespace lotec {

GdoService::GdoService(Transport& transport, GdoConfig config,
                       MetricsRegistry* metrics)
    : transport_(transport), config_(config),
      partitions_(transport.num_nodes()) {
  if (partitions_.empty()) throw UsageError("GdoService: no nodes");
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  stats_.resolve(*metrics);
  ring_stats_.resolve(*metrics);
  if (config_.ring.enabled)
    placement_ = std::make_unique<RingPlacement>(
        partitions_.size(), config_.ring.seed, config_.ring.virtual_nodes,
        config_.ring.mirror_group);
  else
    placement_ = std::make_unique<ModuloPlacement>(partitions_.size());
}

NodeId GdoService::home_of(ObjectId id) const {
  return placement_->owner_of(id);
}

NodeId GdoService::mirror_of(ObjectId id) const {
  return placement_->successor(id, 1);
}

NodeId GdoService::resident_of(ObjectId id) const {
  return placement_->resident_of(id);
}

std::uint64_t GdoService::ring_epoch() const { return placement_->epoch(); }

std::vector<NodeId> GdoService::ring_members() const {
  return placement_->members();
}

std::size_t GdoService::pending_migrations() const {
  return placement_->pending().size();
}

std::vector<NodeId> GdoService::failover_chain(ObjectId id) const {
  const NodeId resident = placement_->resident_of(id);
  std::vector<NodeId> chain;
  for (std::size_t k = 1;; ++k) {
    const NodeId cand = placement_->successor(id, k);
    if (!cand.valid()) return chain;
    if (cand != resident) chain.push_back(cand);
  }
}

template <class F>
void GdoService::for_each_mirror(ObjectId id, NodeId serving, F&& f) const {
  // The first mirror_group() successors of the owner other than `serving`
  // (while a shard migration lags, the resident can sit among them).
  for (std::size_t k = 1, found = 0; found < placement_->mirror_group();
       ++k) {
    const NodeId target = placement_->successor(id, k);
    if (!target.valid()) return;
    if (target == serving) continue;
    ++found;
    f(target);
  }
}

bool GdoService::in_mirror_group(ObjectId id, NodeId serving,
                                 NodeId node) const {
  bool found = false;
  for_each_mirror(id, serving, [&](NodeId t) { found = found || t == node; });
  return found;
}

bool GdoService::ring_set_member(NodeId node, bool joined) {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: ring member out of range");
  if (!placement_->set_member(node, joined)) return false;
  ring_stats_.changes->add();
  if (check_ != nullptr)
    check_->on_ring_change(placement_->epoch(), node, joined);
  return true;
}

namespace {

/// Wire payload of a whole entry handoff: lock record + page map + the
/// holder/waiter transaction lists (same unit costs as a grant).
std::uint64_t entry_wire_bytes(const GdoEntry& e) noexcept {
  std::uint64_t txns = 0;
  for (const auto& [fam, h] : e.holders) txns += h.txns.size();
  for (const WaiterFamily& w : e.waiters) txns += w.txns.size();
  return wire::kLockRecordBytes + e.page_map.wire_bytes() +
         txns * wire::kTxnNodePairBytes;
}

}  // namespace

void GdoService::retire_stale_copies(ObjectId id, NodeId serving) {
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId cand(static_cast<std::uint32_t>(p));
    if (cand == serving || in_mirror_group(id, serving, cand)) continue;
    Partition& part = partitions_[p];
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    part.mirrors.erase(id);
  }
}

bool GdoService::migrate_entry(ObjectId id) {
  const NodeId from = placement_->resident_of(id);
  const NodeId to = placement_->owner_of(id);
  if (from == to) return true;  // a later change re-owned it back
  if (!transport_.reachable(to)) return false;  // target down: stay queued

  // Directory-lane span: migration is environment work, not a family's.
  ScopedSpan span(tracer_, SpanPhase::kShardMigrate, 0, to.value(),
                  id.value());
  GdoEntry moved;
  bool have_copy = false;
  if (transport_.reachable(from)) {
    Partition& src = partitions_[from.value()];
    std::lock_guard<std::mutex> lock(src.mu);
    const auto it = src.entries.find(id);
    if (it != src.entries.end()) {
      moved = it->second;
      have_copy = true;
    }
  }
  NodeId source = from;
  if (!have_copy) {
    // Source down (or wiped by a crash): recover the newest surviving
    // mirror copy from any quorum survivor, preferring the chain head on a
    // version tie (lock-state changes do not bump the version counter).
    for (const NodeId cand : failover_chain(id)) {
      if (cand == to || !transport_.reachable(cand)) continue;
      const Partition& part = partitions_[cand.value()];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      const auto it = part.mirrors.find(id);
      if (it == part.mirrors.end()) continue;
      if (!have_copy ||
          it->second.version_counter > moved.version_counter) {
        moved = it->second;
        source = cand;
        have_copy = true;
      }
    }
    // The target's own mirror map may hold the newest copy (free to adopt).
    {
      const Partition& part = partitions_[to.value()];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      const auto it = part.mirrors.find(id);
      if (it != part.mirrors.end() &&
          (!have_copy || it->second.version_counter > moved.version_counter)) {
        moved = it->second;
        source = to;
        have_copy = true;
      }
    }
    if (!have_copy) return false;  // nothing recoverable yet: stay queued
  }

  try {
    transport_.send({MessageKind::kShardMigrateRequest, to, source, id,
                     wire::kLockRecordBytes});
    transport_.send({MessageKind::kShardMigrateReply, source, to, id,
                     entry_wire_bytes(moved)});
  } catch (const Error&) {
    return false;  // an endpoint died at this tick: the entry stays put
  }

  // Handoff applied as one unit against crash events, like every directory
  // mutation: erase at the source, install at the target, re-mirror.
  FaultAtomicSection atomic(transport_.fault_hooks());
  if (source == from && transport_.reachable(from)) {
    Partition& src = partitions_[from.value()];
    std::lock_guard<std::mutex> lock(src.mu);
    src.entries.erase(id);
  }
  {
    Partition& dst = partitions_[to.value()];
    std::lock_guard<std::mutex> lock(dst.mu);
    dst.entries[id] = moved;
  }
  placement_->set_resident(id, to);
  ring_stats_.migrations->add();
  if (check_ != nullptr)
    check_->on_shard_move(id, from, to, placement_->epoch());
  // Refresh the new owner's mirror group and retire every other copy: the
  // fenced ex-owner's mirrors freeze the moment the shard moves.
  replicate(id, moved, to);
  retire_stale_copies(id, to);
  return true;
}

std::size_t GdoService::pump_migrations(std::size_t budget) {
  std::size_t moved = 0;
  // Entries that refused to move this pump (unreachable endpoint); skipped
  // for the rest of the pump and retried on the next one.
  std::vector<ObjectId> blocked;
  for (std::size_t round = 0; round < budget; ++round) {
    // Re-read the queue every round: a membership change fired by a
    // migration message re-derives it.  Ascending id = deterministic order.
    const std::vector<ObjectId> queue = placement_->pending();
    const auto next =
        std::find_if(queue.begin(), queue.end(), [&](ObjectId id) {
          return std::find(blocked.begin(), blocked.end(), id) ==
                 blocked.end();
        });
    if (next == queue.end()) break;
    if (migrate_entry(*next)) {
      ++moved;
      placement_->dequeue(*next);
    } else {
      blocked.push_back(*next);
    }
  }
  return moved;
}

void GdoService::drain_migrations() {
  while (const std::size_t pending = placement_->pending().size())
    if (pump_migrations(pending) == 0) return;  // stuck: nothing reachable
}

void GdoService::catch_up(ObjectId id) {
  if (!placement_->queued(id)) return;
  // Priority pull: the operation needs this shard at its true owner now.
  if (migrate_entry(id)) {
    ring_stats_.pulls->add();
    placement_->dequeue(id);
  }
}

void GdoService::prep_request(ObjectId id, NodeId requester,
                              MessageKind kind) {
  catch_up(id);
  const NodeId believed = placement_->refresh_view(requester, id);
  if (!believed.valid()) return;  // the requester's view was current
  // The stale view only costs messages when it would have misrouted this
  // request to a live fenced ex-owner; a down node or a correct guess is
  // caught by the ordinary routing.
  if (believed == placement_->resident_of(id) || believed == requester)
    return;
  if (!transport_.reachable(believed)) return;
  transport_.send({kind, requester, believed, id, wire::kLockRecordBytes});
  transport_.send({MessageKind::kShardRedirect, believed, requester, id,
                   wire::kLockRecordBytes});
  if (tracer_ != nullptr)
    tracer_->instant(SpanPhase::kShardRedirect, 0, believed.value(),
                     id.value());
  ring_stats_.redirects->add();
  if (check_ != nullptr) check_->on_shard_redirect(id, believed, requester);
}

GdoService::Route GdoService::route(ObjectId id) const {
  const NodeId resident = placement_->resident_of(id);
  if (transport_.reachable(resident)) return {resident, false};
  if (config_.replicate) {
    // Without the fault engine only the canonical mirror takes over.  With
    // it the whole failover chain is walked, so service survives the
    // mirror dying too: replicate_failover keeps a copy one hop ahead of
    // every failure.
    const std::vector<NodeId> chain = failover_chain(id);
    const std::size_t depth =
        transport_.fault_hooks() != nullptr ? chain.size() : 1;
    for (std::size_t i = 0; i < depth && i < chain.size(); ++i)
      if (transport_.reachable(chain[i])) return {chain[i], true};
  }
  throw NodeUnreachable(resident);
}

GdoService::Served GdoService::locate(ObjectId id, const char* op) {
  const Route r = route(id);
  Partition& part = partitions_[r.node.value()];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  const auto it = map.find(id);
  if (it == map.end()) {
    if (r.failover && transport_.fault_hooks() != nullptr) {
      // The surviving chain node has no copy of this entry (yet): the
      // object's directory data is temporarily unavailable, not misused.
      // Callers treat this like the resident being down and retry.
      const NodeId down = placement_->resident_of(id);
      throw NodeUnreachable(down, down);
    }
    throw UsageError(std::string("GdoService::") + op + ": unknown object " +
                     std::to_string(id.value()));
  }
  return {r, std::move(lock), it->second};
}

GdoService::Served GdoService::begin_serve(ObjectId id, const char* op) {
  Served s = locate(id, op);
  // Unfenced serves feed the ring-ownership oracle.
  if (check_ != nullptr && !s.route.failover)
    check_->on_shard_serve(id, s.route.node, placement_->epoch());
  return s;
}

void GdoService::mirror_sync(ObjectId id, const GdoEntry& entry, Route r) {
  if (r.failover) replicate_failover(id, entry, r.node);
  else replicate(id, entry, r.node);
}

void GdoService::stamp_epoch(WaiterFamily& w) const {
  if (const FaultHooks* hooks = transport_.fault_hooks())
    w.epoch = hooks->crash_count(w.node);
}

void GdoService::reap_dead_locked(ObjectId id, GdoEntry& e, NodeId serving,
                                  bool ignore_leases,
                                  std::vector<Grant>& wakeups) {
  const FaultHooks* hooks = transport_.fault_hooks();
  if (hooks == nullptr) return;
  const std::uint64_t tick = hooks->now();
  // Waiters of dead incarnations can never consume a grant: purge.
  const std::size_t before = e.waiters.size();
  std::erase_if(e.waiters, [&](const WaiterFamily& w) {
    return hooks->crash_count(w.node) > w.epoch;
  });
  stats_.purged->add(before - e.waiters.size());
  // Holders of dead incarnations are reclaimed once their lease runs out.
  // Like an abort release, reclamation carries no dirty-page info: the page
  // map is left untouched (the restart path restores exactly what the map
  // attributes to the node).
  bool freed = false;
  for (auto it = e.holders.begin(); it != e.holders.end();) {
    const HolderFamily& h = it->second;
    if (hooks->crash_count(h.node) > h.epoch &&
        (ignore_leases || tick >= h.lease_expiry)) {
      if (h.mode == LockMode::kRead) --e.read_count;
      it = e.holders.erase(it);
      stats_.reclaimed->add();
      freed = true;
    } else {
      ++it;
    }
  }
  if (e.holders.empty()) {
    e.state = GdoLockState::kFree;
    e.read_count = 0;
  }
  // Cached-holder markers of dead incarnations follow the same lease
  // discipline as live holders: the site's unflushed (cached-committed)
  // updates died with it, so reclamation applies no page report — the map
  // keeps pointing at the last *published* versions, which is what the
  // restart path restores from the durable journal.
  if (!e.cached.empty()) {
    const std::size_t removed =
        std::erase_if(e.cached, [&](const CachedHolder& c) {
          return hooks->crash_count(c.node) > c.epoch &&
                 (ignore_leases || tick >= c.lease_expiry);
        });
    stats_.reclaimed->add(removed);
    if (removed > 0) freed = true;
  }
  if (freed) grant_waiters(id, e, serving, wakeups);
}

bool GdoService::marker_conflicts(const GdoEntry& e, LockMode mode) noexcept {
  for (const CachedHolder& c : e.cached)
    if (conflicts(c.mode, mode)) return true;
  return false;
}

void GdoService::apply_flush(ObjectId id, GdoEntry& e, NodeId site,
                             const std::vector<std::pair<PageIndex, Lsn>>& recs,
                             Lsn advance_to) {
  e.version_counter = std::max(e.version_counter, advance_to);
  // record_current's version guard makes replayed/stale records harmless.
  // Deferred-flush publications carry tick 0: the lock cache defers the
  // stamping itself, which is why validate() rejects lock_cache + mv_read.
  for (const auto& [p, v] : recs) {
    e.page_map.record_current(p, site, v);
    if (check_ != nullptr) check_->on_directory_stamp(id, p, v, site, 0);
  }
}

void GdoService::revoke_conflicting_cached(ObjectId id, GdoEntry& e,
                                           NodeId serving, NodeId requester,
                                           LockMode mode) {
  if (e.cached.empty()) return;
  const FaultHooks* hooks = transport_.fault_hooks();
  // The requester's own marker never needs a callback: the site consults
  // its cache before going remote, so reaching acquire() proves it already
  // flushed (or could not use) the entry.  Drop the marker silently.
  std::erase_if(e.cached,
                [&](const CachedHolder& c) { return c.node == requester; });
  // Deterministic revocation order (markers are appended in request order,
  // which can differ between runs of different configs): by node id.
  std::vector<NodeId> targets;
  for (const CachedHolder& c : e.cached)
    if (conflicts(c.mode, mode)) targets.push_back(c.node);
  std::sort(targets.begin(), targets.end(),
            [](NodeId a, NodeId b) { return a.value() < b.value(); });
  // The revocation round lives on the directory lane (family 0): it is
  // directory-side work triggered by, but not attributable to, the
  // requesting family.
  ScopedSpan round(targets.empty() ? nullptr : tracer_,
                   SpanPhase::kCallbackRound, 0, serving.value(), id.value());
  // One revocation round = one batch window: repeated callbacks from the
  // serving node (and the replica syncs apply_flush triggers) coalesce per
  // destination.
  BatchWindow window(transport_);
  for (const NodeId site : targets) {
    const std::size_t i = e.cached_index(site);
    if (i == static_cast<std::size_t>(-1)) continue;
    CachedHolder& c = e.cached[i];
    if (hooks != nullptr && hooks->crash_count(c.node) > c.epoch) {
      // Dead incarnation: its cached updates are already lost, but the
      // lease is the only proof of death a real directory would have —
      // leave the marker to block the request until reap_dead_locked
      // collects it (immediately if the lease already ran out).
      if (hooks->now() >= c.lease_expiry) {
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        stats_.reclaimed->add();
      }
      continue;
    }
    CachedFlush flush;
    try {
      transport_.send({MessageKind::kLockCallback, serving, site, id,
                       wire::kLockRecordBytes});
      if (callback_handler_) flush = callback_handler_(id, site, mode);
      transport_.send(
          {MessageKind::kCallbackReply, site, serving, id,
           wire::kLockRecordBytes +
               flush.records.size() * wire::kDirtyPageRecordBytes});
    } catch (const Error&) {
      if (hooks != nullptr && hooks->crash_count(site) > c.epoch) {
        // The site died at this very tick: its flush is lost with it, and
        // the crash we just witnessed *is* the proof of death the lease
        // would otherwise have to provide — reclaim the marker now.
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        stats_.reclaimed->add();
        continue;
      }
      if (hooks == nullptr) {
        // Legacy failover (no fault engine, no leases): an unreachable
        // caching site is simply dead; discard its marker.
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      throw;  // transient (partition/drop): the requester retries
    }
    stats_.cache_callbacks->add();
    apply_flush(id, e, site, flush.records, flush.advance_to);
    if (mode == LockMode::kRead) {
      // A read request only needs writers out of the way: the site keeps
      // its (now flushed, clean) cache entry in read mode.
      c.mode = LockMode::kRead;
    } else {
      e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  window.close();
}

void GdoService::register_object(ObjectId id, std::size_t num_pages,
                                 NodeId creator) {
  if (num_pages == 0) throw UsageError("GdoService: object with zero pages");
  const NodeId home = placement_->owner_of(id);
  FaultAtomicSection atomic(transport_.fault_hooks());
  // Home down at creation time (fault engine): register at the failover
  // serving node — its mirror map is the authoritative copy until the home
  // restarts and rebuilds from it.  Inserting into the home's map instead
  // would hand the only record to the pending wipe.  The residency still
  // names the down home, exactly like any failover.
  const Route r = !transport_.reachable(home) && config_.replicate &&
                          transport_.fault_hooks() != nullptr
                      ? route(id)
                      : Route{home, false};
  Partition& part = partitions_[r.node.value()];
  std::lock_guard<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  auto [it, inserted] = map.try_emplace(id);
  if (!inserted)
    throw UsageError("GdoService: object " + std::to_string(id.value()) +
                     " already registered");
  GdoEntry& e = it->second;
  e.num_pages = num_pages;
  e.page_map = PageMap(num_pages, creator);
  e.caching_sites.insert(creator);
  placement_->set_resident(id, home);
  mirror_sync(id, e, r);
}

AcquireResult GdoService::acquire(ObjectId id, const TxnId& txn,
                                  NodeId requester, LockMode mode) {
  prep_request(id, requester, MessageKind::kLockAcquireRequest);
  auto [r, lock, e] = begin_serve(id, "acquire");
  const NodeId serving = r.node;
  const FamilyId fam = txn.family;

  transport_.send({MessageKind::kLockAcquireRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  // Directory-side serve span: the emulation's call is synchronous, so the
  // requester's context is still on this thread — the span lands on the
  // serving node's directory lane, causally linked to the requester's
  // gdo.round.  Everything the serve does (callback rounds, grant sends)
  // nests inside it.
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());

  // The request could fail (drop, partition, crash); from here on the
  // mutation and its replica sync are one atomic unit against crash events.
  FaultAtomicSection atomic(transport_.fault_hooks());

  // Fault recovery: before serving, purge dead waiters / expired orphan
  // leases, and reclaim this family's own stale holder immediately — a new
  // request under the same FamilyId proves the incarnation that held the
  // lock is gone (the runner re-acquires from scratch after a crash).
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    std::vector<Grant> scratch;  // grants reach their sites via the hook
    reap_dead_locked(id, e, serving, /*ignore_leases=*/false, scratch);
    if (const auto self = e.holders.find(fam);
        self != e.holders.end() &&
        hooks->crash_count(self->second.node) > self->second.epoch) {
      if (self->second.mode == LockMode::kRead) --e.read_count;
      e.holders.erase(self);
      stats_.reclaimed->add();
      if (e.holders.empty()) {
        e.state = GdoLockState::kFree;
        e.read_count = 0;
      }
      grant_waiters(id, e, serving, scratch);
    }
  }

  // Lock caching: call back every cached holder whose marker conflicts with
  // this request (no-op — and no cost — while the cache is disabled and the
  // marker list stays empty).  Only lease-protected markers of crashed
  // sites can survive this; the request then queues until the lease runs
  // out.
  revoke_conflicting_cached(id, e, serving, requester, mode);
  const bool marker_blocked = marker_conflicts(e, mode);

  // --- upgrade path: family holds read, wants write ----------------------
  if (e.held_by(fam)) {
    HolderFamily& h = e.holders.at(fam);
    if (!(mode == LockMode::kWrite && h.mode == LockMode::kRead)) {
      if (transport_.fault_hooks() == nullptr)
        throw UsageError(
            "GdoService::acquire: family already holds a covering lock "
            "(intra-family requests belong to the local algorithm)");
      // Idempotent re-grant under fault injection: the holder is this same
      // live incarnation (a crashed one was reclaimed above), so the family
      // restarted an attempt without managing to release — its abort's
      // release message died with a crashed or partitioned serving node.
      // Hand the lock back and renew the lease; the covering mode stands.
      const bool new_txn =
          std::find(h.txns.begin(), h.txns.end(), txn) == h.txns.end();
      transport_.send(
          {MessageKind::kLockAcquireGrant, serving, requester, id,
           grant_payload_bytes(e, h.txns.size() + (new_txn ? 1 : 0))});
      if (new_txn) h.txns.push_back(txn);
      h.node = requester;
      if (const FaultHooks* hooks = transport_.fault_hooks())
        h.lease_expiry = hooks->now() + hooks->lease_term();
      mirror_sync(id, e, r);
      AcquireResult res;
      res.status = AcquireStatus::kGranted;
      res.page_map = e.page_map;
      return res;
    }
    if (e.holders.size() == 1 && !marker_blocked) {
      // Sole reader: upgrade in place.  The grant message goes out before
      // the entry mutates so a fault thrown mid-send leaves a clean state.
      const bool new_txn =
          std::find(h.txns.begin(), h.txns.end(), txn) == h.txns.end();
      // Upgrade grants need no page map: the family held the lock
      // throughout, so no other family can have produced newer pages.
      transport_.send({MessageKind::kLockAcquireGrant, serving, requester, id,
                       wire::kLockRecordBytes +
                           (h.txns.size() + (new_txn ? 1 : 0)) *
                               wire::kTxnNodePairBytes});
      h.mode = LockMode::kWrite;
      if (new_txn) h.txns.push_back(txn);
      if (const FaultHooks* hooks = transport_.fault_hooks())
        h.lease_expiry = hooks->now() + hooks->lease_term();  // renewal
      e.state = GdoLockState::kWrite;
      e.read_count = 0;
      mirror_sync(id, e, r);
      AcquireResult res;
      res.status = AcquireStatus::kGranted;
      res.upgrade = true;
      return res;
    }
    // Other readers present: queue the upgrade ahead of ordinary waiters
    // (behind any earlier upgraders).
    transport_.send({MessageKind::kLockAcquireQueued, serving, requester, id,
                     wire::kLockRecordBytes});
    WaiterFamily w{fam, requester, LockMode::kWrite, /*upgrade=*/true, {txn}};
    stamp_epoch(w);
    std::size_t pos = 0;
    while (pos < e.waiters.size() && e.waiters[pos].upgrade) ++pos;
    e.waiters.insert(e.waiters.begin() + static_cast<std::ptrdiff_t>(pos),
                     std::move(w));
    mirror_sync(id, e, r);
    return AcquireResult{};  // queued
  }

  // --- fresh acquisition --------------------------------------------------
  // A queued *upgrade* always blocks new readers: an upgrader needs the
  // holder set to drain to itself, so admitting fresh readers would starve
  // it (and livelock deadlock-victim retries).  Ordinary queued writers
  // block new readers only under fair_readers; the paper's Algorithm 4.2
  // grants reads whenever the lock is read-held.
  const bool upgrade_pending =
      std::any_of(e.waiters.begin(), e.waiters.end(),
                  [](const auto& w) { return w.upgrade; });
  const bool read_shared =
      e.state == GdoLockState::kRead && mode == LockMode::kRead &&
      !upgrade_pending &&
      (!config_.fair_readers ||
       std::none_of(e.waiters.begin(), e.waiters.end(), [](const auto& w) {
         return w.mode == LockMode::kWrite;
       }));

  if ((!e.held() || read_shared) && !marker_blocked) {
    // Send before mutating: a fault thrown from the grant send (requester
    // crashed at this very tick) must not leave an orphaned holder.
    transport_.send({MessageKind::kLockAcquireGrant, serving, requester, id,
                     grant_payload_bytes(e, 1)});
    WaiterFamily w{fam, requester, mode, false, {txn}};
    stamp_epoch(w);
    install_holder(e, w);
    e.caching_sites.insert(requester);
    mirror_sync(id, e, r);
    AcquireResult res;
    res.status = AcquireStatus::kGranted;
    res.page_map = e.page_map;
    return res;
  }

  // --- conflict: enqueue on the NonHolders list ---------------------------
  transport_.send({MessageKind::kLockAcquireQueued, serving, requester, id,
                   wire::kLockRecordBytes});
  const std::size_t idx = e.waiter_index(fam);
  if (idx != static_cast<std::size_t>(-1)) {
    // "IF there is a list ... for the requesting transaction's family THEN
    //  link the requesting transaction into its family's list."
    e.waiters[idx].txns.push_back(txn);
  } else {
    WaiterFamily w{fam, requester, mode, false, {txn}};
    stamp_epoch(w);
    e.waiters.push_back(std::move(w));
  }
  mirror_sync(id, e, r);
  return AcquireResult{};  // queued
}

void GdoService::install_holder(GdoEntry& e, const WaiterFamily& w) {
  HolderFamily h{w.family, w.node, w.mode, w.txns};
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    h.epoch = hooks->crash_count(w.node);
    h.lease_expiry = hooks->now() + hooks->lease_term();
  }
  e.holders.emplace(w.family, std::move(h));
  if (w.mode == LockMode::kRead) {
    ++e.read_count;
    e.state = GdoLockState::kRead;
  } else {
    e.state = GdoLockState::kWrite;
  }
}

Lsn GdoService::apply_release(ObjectId id, GdoEntry& e, FamilyId family,
                              NodeId serving, const ReleaseInfo* info,
                              std::vector<Grant>& wakeups) {
  Lsn stamped = 0;
  const auto hit = e.holders.find(family);
  if (hit == e.holders.end())
    throw UsageError("GdoService::release: family " +
                     std::to_string(family.value()) +
                     " does not hold object " + std::to_string(id.value()));
  const NodeId releasing_node = hit->second.node;

  if (info != nullptr) {
    if (info->advance_to > 0) {
      // Deferred-flush release (lock cache): the site stamped versions
      // itself while releases were cached; apply its explicit records and
      // catch the counter up instead of minting a fresh version.
      apply_flush(id, e, releasing_node, info->stamped, info->advance_to);
      stamped = info->advance_to;
    }
    if (!info->dirty.empty()) {
      stamped = ++e.version_counter;
      e.page_map.record_update(info->dirty, releasing_node, stamped,
                               info->commit_tick);
      if (check_ != nullptr)
        for (const PageIndex p : info->dirty.to_vector())
          check_->on_directory_stamp(id, p, stamped, releasing_node,
                                     info->commit_tick);
    }
    for (const auto& [p, v] : info->current)
      e.page_map.record_current(p, releasing_node, v);
  }

  if (hit->second.mode == LockMode::kRead) --e.read_count;
  e.holders.erase(hit);
  if (e.holders.empty()) e.state = GdoLockState::kFree;

  // Defensive: a releasing (aborting) family must not linger in the queue.
  std::erase_if(e.waiters,
                [&](const WaiterFamily& w) { return w.family == family; });

  grant_waiters(id, e, serving, wakeups);
  return stamped;
}

ReleaseResult GdoService::release_family(ObjectId id, FamilyId family,
                                         NodeId node,
                                         const ReleaseInfo* info) {
  prep_request(id, node, MessageKind::kLockReleaseRequest);
  auto [r, lock, e] = begin_serve(id, "release_family");
  const NodeId serving = r.node;

  const std::uint64_t records = info ? info->record_count() : 0;
  transport_.send({MessageKind::kLockReleaseRequest, node, serving, id,
                   wire::kLockRecordBytes +
                       records * wire::kDirtyPageRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  if (config_.release_acks)
    transport_.send({MessageKind::kLockReleaseAck, serving, node, id, 0});

  // Release applied + waiters granted + replica synced: atomic against
  // crash events (the request/ack above stay interruptible).
  FaultAtomicSection atomic(transport_.fault_hooks());

  ReleaseResult res;
  res.stamped_version = apply_release(id, e, family, serving, info,
                                      res.wakeups);
  mirror_sync(id, e, r);
  return res;
}

BatchReleaseResult GdoService::release_batch(
    FamilyId family, NodeId node, const std::vector<ReleaseItem>& items) {
  // Releases are charged per object: attributing a combined message to a
  // single object would skew the per-object byte accounting the Figure 2-5
  // experiments report, and the locking traffic is identical across the
  // compared protocols anyway.  The batch window below changes none of
  // that — it only lets the per-object release/replica-sync messages bound
  // for the same destination share one physical frame.
  BatchWindow window(transport_);
  BatchReleaseResult res;
  for (const auto& item : items) {
    ReleaseResult one = release_family(item.object, family, node,
                                       item.info ? &*item.info : nullptr);
    res.stamped_versions[item.object] = one.stamped_version;
    for (auto& g : one.wakeups) res.wakeups.push_back(std::move(g));
  }
  window.close();
  return res;
}

void GdoService::grant_waiters(ObjectId id, GdoEntry& e, NodeId serving,
                               std::vector<Grant>& out) {
  const FaultHooks* hooks = transport_.fault_hooks();
  if (hooks != nullptr) {
    // Never grant to a dead incarnation: its site cannot consume the wakeup.
    const std::size_t before = e.waiters.size();
    std::erase_if(e.waiters, [&](const WaiterFamily& w) {
      return hooks->crash_count(w.node) > w.epoch;
    });
    stats_.purged->add(before - e.waiters.size());
  }
  const auto emit = [&](Grant g) {
    // Stamp the directory-side causal context (the enclosing gdo.serve) so
    // the woken family's lock.grant instant links back across lanes.
    if (tracer_ != nullptr && tracer_->enabled())
      g.trace = tracer_->current_context();
    if (grant_delivery_) grant_delivery_(g);
    out.push_back(std::move(g));
  };
  // Each branch sends the wakeup *before* mutating the entry: a fault event
  // can crash the waiter's node at the send's very tick, and the grant must
  // then not have happened — the waiter is purged and the loop continues.
  const auto send_wakeup = [&](const WaiterFamily& w,
                               std::uint64_t payload) -> bool {
    try {
      transport_.send(
          {MessageKind::kLockGrantWakeup, serving, w.node, id, payload});
      return true;
    } catch (const Error&) {
      if (hooks == nullptr) throw;
      return false;
    }
  };
  while (!e.waiters.empty()) {
    WaiterFamily& w = e.waiters.front();
    // A lingering cached-holder marker (only possible for a crashed site
    // still inside its lease — live conflicts are revoked before a request
    // may queue) blocks grants the same way a live holder would.
    if (marker_conflicts(e, w.upgrade ? LockMode::kWrite : w.mode)) break;
    if (w.upgrade) {
      const bool sole_reader =
          e.holders.size() == 1 && e.holders.count(w.family) == 1;
      if (!sole_reader) break;
      if (!send_wakeup(w, wire::kLockRecordBytes +
                              w.txns.size() * wire::kTxnNodePairBytes)) {
        e.waiters.pop_front();
        stats_.purged->add();
        continue;
      }
      HolderFamily& h = e.holders.at(w.family);
      h.mode = LockMode::kWrite;
      for (const TxnId& t : w.txns)
        if (std::find(h.txns.begin(), h.txns.end(), t) == h.txns.end())
          h.txns.push_back(t);
      if (hooks != nullptr)
        h.lease_expiry = hooks->now() + hooks->lease_term();
      e.state = GdoLockState::kWrite;
      e.read_count = 0;
      emit(Grant{w.family, w.node, w.txns.front(), LockMode::kWrite,
                 /*upgrade=*/true, PageMap{}, id});
      e.waiters.pop_front();
      break;  // write lock granted; nothing further is grantable
    }
    if (w.mode == LockMode::kWrite) {
      if (!e.holders.empty()) break;
      if (!send_wakeup(w, grant_payload_bytes(e, w.txns.size()))) {
        e.waiters.pop_front();
        stats_.purged->add();
        continue;
      }
      Grant g{w.family, w.node, w.txns.front(), LockMode::kWrite,
              /*upgrade=*/false, e.page_map, id};
      install_holder(e, w);
      e.caching_sites.insert(w.node);
      emit(std::move(g));
      e.waiters.pop_front();
      break;
    }
    // Read waiter.
    if (!(e.holders.empty() || e.state == GdoLockState::kRead)) break;
    if (!send_wakeup(w, grant_payload_bytes(e, w.txns.size()))) {
      e.waiters.pop_front();
      stats_.purged->add();
      continue;
    }
    Grant g{w.family, w.node, w.txns.front(), LockMode::kRead,
            /*upgrade=*/false, e.page_map, id};
    install_holder(e, w);
    e.caching_sites.insert(w.node);
    emit(std::move(g));
    e.waiters.pop_front();
    if (!config_.grant_read_batches) break;
  }
}

std::vector<Grant> GdoService::cancel_waiter(ObjectId id, FamilyId family) {
  catch_up(id);
  auto [r, lock, e] = begin_serve(id, "cancel_waiter");
  FaultAtomicSection atomic(transport_.fault_hooks());
  std::erase_if(e.waiters,
                [&](const WaiterFamily& w) { return w.family == family; });
  std::vector<Grant> wakeups;
  grant_waiters(id, e, r.node, wakeups);
  mirror_sync(id, e, r);
  return wakeups;
}

bool GdoService::retain_release(ObjectId id, FamilyId family, NodeId node) {
  catch_up(id);
  auto [r, lock, e] = begin_serve(id, "retain_release");
  const auto hit = e.holders.find(family);
  if (hit == e.holders.end()) return false;
  // Retention must never starve a queued family: with anyone waiting the
  // site releases normally (and the waiters are granted).
  if (!e.waiters.empty()) return false;
  FaultAtomicSection atomic(transport_.fault_hooks());
  const LockMode mode = hit->second.mode;
  if (mode == LockMode::kRead) --e.read_count;
  e.holders.erase(hit);
  if (e.holders.empty()) {
    e.state = GdoLockState::kFree;
    e.read_count = 0;
  }
  CachedHolder c{node, mode, 0, 0};
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    c.epoch = hooks->crash_count(node);
    c.lease_expiry = hooks->now() + hooks->lease_term();
  }
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) {
    e.cached.push_back(c);
  } else {
    // The site already has a marker (another of its families retained
    // earlier): keep the strongest mode and renew the lease.
    CachedHolder& old = e.cached[i];
    if (c.mode == LockMode::kWrite) old.mode = LockMode::kWrite;
    old.epoch = c.epoch;
    old.lease_expiry = c.lease_expiry;
  }
  mirror_sync(id, e, r);
  return true;
}

std::optional<LockMode> GdoService::local_regrant(ObjectId id,
                                                  const TxnId& txn,
                                                  NodeId node,
                                                  LockMode wanted) {
  catch_up(id);
  auto [r, lock, e] = begin_serve(id, "local_regrant");
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) return std::nullopt;
  const CachedHolder c = e.cached[i];
  FaultHooks* const hooks = transport_.fault_hooks();
  // A marker left by a dead incarnation of this same site is unusable (the
  // crash wiped the cached pages); fall back to a full acquire, which
  // reclaims it.
  if (hooks != nullptr && hooks->crash_count(node) != c.epoch)
    return std::nullopt;
  // The cached mode must cover the request — regranting at the *cached*
  // mode (not the wanted one) keeps later intra-family upgrades on the
  // standard path.
  if (wanted == LockMode::kWrite && c.mode == LockMode::kRead)
    return std::nullopt;
  FaultAtomicSection atomic(hooks);
  e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  WaiterFamily w{txn.family, node, c.mode, /*upgrade=*/false, {txn}};
  stamp_epoch(w);
  install_holder(e, w);
  e.caching_sites.insert(node);
  stats_.cache_regrants->add();
  mirror_sync(id, e, r);
  return c.mode;
}

void GdoService::forget_cached(ObjectId id, NodeId node) {
  catch_up(id);
  auto [r, lock, e] = begin_serve(id, "forget_cached");
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) return;
  FaultAtomicSection atomic(transport_.fault_hooks());
  e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  mirror_sync(id, e, r);
}

void GdoService::flush_cached(
    ObjectId id, NodeId node,
    const std::vector<std::pair<PageIndex, Lsn>>& records, Lsn advance_to) {
  prep_request(id, node, MessageKind::kLockReleaseRequest);
  auto [r, lock, e] = begin_serve(id, "flush_cached");
  const NodeId serving = r.node;
  // The deferred release finally goes on the wire, at the same cost it
  // would have had at root-commit time.
  transport_.send(
      {MessageKind::kLockReleaseRequest, node, serving, id,
       wire::kLockRecordBytes +
           records.size() * wire::kDirtyPageRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  if (config_.release_acks)
    transport_.send({MessageKind::kLockReleaseAck, serving, node, id, 0});
  FaultAtomicSection atomic(transport_.fault_hooks());
  apply_flush(id, e, node, records, advance_to);
  const std::size_t i = e.cached_index(node);
  if (i != static_cast<std::size_t>(-1))
    e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  stats_.cache_flushes->add();
  mirror_sync(id, e, r);
}

PageMap GdoService::lookup_page_map(ObjectId id, NodeId requester) {
  prep_request(id, requester, MessageKind::kGdoLookupRequest);
  auto [r, lock, e] = begin_serve(id, "lookup_page_map");
  const NodeId serving = r.node;
  transport_.send({MessageKind::kGdoLookupRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  transport_.send({MessageKind::kGdoLookupReply, serving, requester, id,
                   e.page_map.wire_bytes()});
  return e.page_map;
}

GdoService::SnapshotMap GdoService::snapshot_lookup(ObjectId id,
                                                    NodeId requester) {
  auto [r, lock, e] = begin_serve(id, "snapshot_lookup");
  const NodeId serving = r.node;
  // Pure directory read: no lock state consulted or mutated, no queueing
  // behind writers — the whole point of the snapshot path.  The reply
  // carries the map (same entry format as a grant payload) plus the commit
  // tick it is current as of, riding in the reply header.
  transport_.send({MessageKind::kSnapshotMapRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  transport_.send({MessageKind::kSnapshotMapReply, serving, requester, id,
                   e.page_map.wire_bytes()});
  return SnapshotMap{e.page_map, current_commit_tick()};
}

std::vector<NodeId> GdoService::caching_sites(ObjectId id) const {
  const auto [r, lock, e] =
      const_cast<GdoService*>(this)->locate(id, "caching_sites");
  return {e.caching_sites.begin(), e.caching_sites.end()};
}

void GdoService::note_caching_site(ObjectId id, NodeId node) {
  catch_up(id);
  locate(id, "note_caching_site").entry.caching_sites.insert(node);
}

std::vector<GdoService::WaitEdge> GdoService::wait_edges() const {
  std::vector<WaitEdge> edges;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part.mu);
    for (const auto& [id, e] : part.entries) {
      for (std::size_t wi = 0; wi < e.waiters.size(); ++wi) {
        const WaiterFamily& w = e.waiters[wi];
        // Wait on conflicting holders (an upgrader waits on every *other*
        // holder regardless of mode — they must all drain first).
        for (const auto& [fam, h] : e.holders) {
          if (fam == w.family) continue;
          if (w.upgrade || conflicts(h.mode, w.mode))
            edges.push_back({w.family, fam, id});
        }
        // Wait on conflicting earlier-queued waiters (FIFO grant order).
        for (std::size_t wj = 0; wj < wi; ++wj) {
          const WaiterFamily& earlier = e.waiters[wj];
          if (earlier.family == w.family) continue;
          if (conflicts(earlier.mode, w.mode))
            edges.push_back({w.family, earlier.family, id});
        }
      }
    }
  }
  return edges;
}

GdoEntry GdoService::snapshot(ObjectId id) const {
  return const_cast<GdoService*>(this)->locate(id, "snapshot").entry;
}

std::size_t GdoService::num_objects() const {
  std::size_t n = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part.mu);
    n += part.entries.size();
  }
  return n;
}

std::vector<ObjectId> GdoService::objects_homed_at(NodeId node) const {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  const Partition& part = partitions_[node.value()];
  std::lock_guard<std::mutex> lock(part.mu);
  std::vector<ObjectId> out;
  out.reserve(part.entries.size());
  for (const auto& [id, e] : part.entries) out.push_back(id);
  return out;
}

void GdoService::replicate(ObjectId id, const GdoEntry& entry,
                           NodeId serving) {
  if (!config_.replicate) return;
  // Sync the mutation to the mirror group and count acks.  k+1 copies
  // exist (serving node + group); the mutation is quorum-committed on
  // ceil((k+1)/2) acks — the serving copy always counts, so k=1 is the
  // classic best-effort single mirror.  An unreachable member, or one that
  // crashes mid-sync, is skipped: replication runs after the mutation, so a
  // failure must not unwind an already-applied release/grant.
  std::size_t acks = 1;
  for_each_mirror(id, serving, [&](NodeId t) {
    if (!transport_.reachable(t)) return;
    try {
      transport_.send({MessageKind::kGdoReplicaSync, serving, t, id,
                       wire::kLockRecordBytes + entry.page_map.wire_bytes()});
      transport_.send({MessageKind::kGdoReplicaAck, t, serving, id, 0});
    } catch (const Error&) {
      return;
    }
    Partition& tp = partitions_[t.value()];
    std::lock_guard<std::mutex> lock(tp.mirror_mu);
    tp.mirrors[id] = entry;
    ++acks;
  });
  if (config_.ring.enabled) {  // quorum tallies are the elastic directory's
    const bool quorum = acks >= (placement_->mirror_group() + 2) / 2;
    (quorum ? ring_stats_.quorum_commits : ring_stats_.quorum_degrades)->add();
  }
}

void GdoService::replicate_failover(ObjectId id, const GdoEntry& entry,
                                    NodeId serving) {
  if (!config_.replicate || transport_.fault_hooks() == nullptr) return;
  // Copy the mutation one hop further down the failover chain: the first
  // reachable node after `serving`, wrapping past the chain's end, so a
  // second failure still finds a complete entry.
  std::vector<NodeId> chain = failover_chain(id);
  const auto at = std::find(chain.begin(), chain.end(), serving);
  if (at != chain.end()) std::rotate(chain.begin(), at + 1, chain.end());
  for (const NodeId cand : chain) {
    if (cand == serving || !transport_.reachable(cand)) continue;
    try {
      transport_.send({MessageKind::kGdoReplicaSync, serving, cand, id,
                       wire::kLockRecordBytes + entry.page_map.wire_bytes()});
      transport_.send({MessageKind::kGdoReplicaAck, cand, serving, id, 0});
    } catch (const Error&) {
      continue;  // candidate crashed mid-sync: try the next survivor
    }
    // Both mirror maps may be touched only under their own mirror_mu; the
    // token scheduler runs one family at a time, so this nesting is safe.
    Partition& cpart = partitions_[cand.value()];
    std::lock_guard<std::mutex> lock(cpart.mirror_mu);
    cpart.mirrors[id] = entry;
    return;
  }
}

void GdoService::on_node_crash(NodeId node) {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  Partition& part = partitions_[node.value()];
  {
    std::lock_guard<std::mutex> lock(part.mu);
    part.entries.clear();
  }
  {
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    part.mirrors.clear();
  }
  // The dead site caches nothing and cannot receive eager pushes.
  for (Partition& p : partitions_) {
    {
      std::lock_guard<std::mutex> lock(p.mu);
      for (auto& [id, e] : p.entries) e.caching_sites.erase(node);
    }
    {
      std::lock_guard<std::mutex> lock(p.mirror_mu);
      for (auto& [id, e] : p.mirrors) e.caching_sites.erase(node);
    }
  }
}

bool GdoService::pull_copy(NodeId node, NodeId holder, ObjectId id,
                           const GdoEntry& copy) {
  try {
    transport_.send({MessageKind::kGdoRebuildRequest, node, holder, id,
                     wire::kLockRecordBytes});
    transport_.send({MessageKind::kGdoRebuildReply, holder, node, id,
                     wire::kLockRecordBytes + copy.page_map.wire_bytes()});
  } catch (const Error&) {
    return false;  // an endpoint died mid-rebuild: the copy stays missing
  }
  return true;
}

template <class Pred>
std::map<ObjectId, GdoService::ChainCopy> GdoService::newest_copies(
    NodeId node, Pred&& wanted) const {
  // Newest copy wins, by the entry's commit version counter; on a tie the
  // copy earliest in the entry's failover chain — the canonical mirror,
  // which every normal mutation refreshes — beats a stale failover copy
  // further out (lock-state changes do not bump the version counter, so
  // ties are common).
  std::map<ObjectId, ChainCopy> best;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId holder(static_cast<std::uint32_t>(p));
    if (holder == node || !transport_.reachable(holder)) continue;
    std::vector<std::pair<ObjectId, GdoEntry>> copies;
    {
      const Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      for (const auto& [id, e] : part.mirrors)
        if (wanted(id)) copies.emplace_back(id, e);
    }
    for (auto& [id, e] : copies) {
      const std::vector<NodeId> chain = failover_chain(id);
      const std::size_t pos = static_cast<std::size_t>(
          std::find(chain.begin(), chain.end(), holder) - chain.begin());
      const auto it = best.find(id);
      if (it == best.end() ||
          e.version_counter > it->second.entry.version_counter ||
          (e.version_counter == it->second.entry.version_counter &&
           pos < it->second.chain_pos))
        best[id] = {std::move(e), holder, pos};
    }
  }
  return best;
}

std::size_t GdoService::rebuild_node(NodeId node) {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  if (!config_.replicate) return 0;
  Partition& mine = partitions_[node.value()];

  // 1. Re-adopt the entries resident here from the surviving mirror copies
  //    anywhere in their chains (re-mirroring may have moved them past the
  //    first successor), re-mirror each, and retire every other chain copy:
  //    they freeze the moment this node serves again, and a later rebuild
  //    must not be able to resurrect one.
  std::size_t rebuilt = 0;
  for (auto& [id, c] : newest_copies(node, [&](ObjectId id) {
         return placement_->resident_of(id) == node;
       })) {
    if (!pull_copy(node, c.holder, id, c.entry)) continue;
    {
      std::lock_guard<std::mutex> lock(mine.mu);
      mine.entries[id] = c.entry;
    }
    replicate(id, c.entry, node);
    retire_stale_copies(id, node);
    ++rebuilt;
  }

  // 2. Refresh the copies this node hosts in live residents' mirror groups
  //    (ascending id per resident), so it serves as a failover target and
  //    counts toward their quorums again.
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId res(static_cast<std::uint32_t>(p));
    if (res == node || !transport_.reachable(res)) continue;
    std::map<ObjectId, GdoEntry> to_mirror;
    {
      const Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mu);
      for (const auto& [id, e] : part.entries)
        if (in_mirror_group(id, res, node)) to_mirror.emplace(id, e);
    }
    for (auto& [id, e] : to_mirror) {
      if (!pull_copy(node, res, id, e)) continue;
      std::lock_guard<std::mutex> lock(mine.mirror_mu);
      mine.mirrors[id] = std::move(e);
    }
  }

  // 3. Step 2 could not consult residents that are down — yet this node
  //    belongs to some of their mirror groups, and the next failover (or
  //    the next double failover after another crash) routes requests here.
  //    Without a copy it would serve them blind: every request would bounce
  //    as a transient NodeUnreachable until the resident returns.  Adopt
  //    the newest surviving group copy for each (same tie-break as step 1).
  if (transport_.fault_hooks() != nullptr) {
    for (auto& [id, c] : newest_copies(node, [&](ObjectId id) {
           const NodeId res = placement_->resident_of(id);
           return !transport_.reachable(res) && in_mirror_group(id, res, node);
         })) {
      if (!pull_copy(node, c.holder, id, c.entry)) continue;
      std::lock_guard<std::mutex> lock(mine.mirror_mu);
      mine.mirrors[id] = std::move(c.entry);
    }
  }
  return rebuilt;
}

void GdoService::reclaim_crashed(bool ignore_leases) {
  if (transport_.fault_hooks() == nullptr) return;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    std::vector<ObjectId> ids;
    {
      std::lock_guard<std::mutex> lock(part.mu);
      ids.reserve(part.entries.size());
      for (const auto& [id, e] : part.entries) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(),
              [](ObjectId a, ObjectId b) { return a.value() < b.value(); });
    for (const ObjectId id : ids) {
      std::lock_guard<std::mutex> lock(part.mu);
      const auto it = part.entries.find(id);
      if (it == part.entries.end()) continue;
      FaultAtomicSection atomic(transport_.fault_hooks());
      const std::uint64_t before = stats_.reclaimed->value() + stats_.purged->value();
      std::vector<Grant> wakeups;
      reap_dead_locked(id, it->second,
                       NodeId(static_cast<std::uint32_t>(p)), ignore_leases,
                       wakeups);
      // A reap that freed or purged anything diverged from the mirror copy;
      // sync it like any other mutation (a crash right after the reap must
      // not resurrect the reclaimed holder from the stale mirror).
      if (stats_.reclaimed->value() + stats_.purged->value() != before)
        replicate(id, it->second, placement_->resident_of(id));
    }
  }
}

}  // namespace lotec
