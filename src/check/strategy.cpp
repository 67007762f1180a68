#include "check/strategy.hpp"

#include <algorithm>

namespace lotec::check {

namespace {
std::uint32_t choice_count(const std::vector<std::size_t>& runnable,
                           std::size_t spawn_candidate) noexcept {
  return static_cast<std::uint32_t>(
      runnable.size() +
      (spawn_candidate != Strategy::kNoSpawn ? 1 : 0));
}
}  // namespace

// --- RandomWalkStrategy ----------------------------------------------------

bool RandomWalkStrategy::begin_schedule(std::uint64_t index) {
  rng_ = Rng(mix64(seed_ ^ (index * 0x9e3779b97f4a7c15ULL)));
  return true;
}

std::uint32_t RandomWalkStrategy::pick(
    const std::vector<std::size_t>& runnable, std::size_t spawn_candidate) {
  return static_cast<std::uint32_t>(
      rng_.below(choice_count(runnable, spawn_candidate)));
}

// --- PctStrategy -----------------------------------------------------------

bool PctStrategy::begin_schedule(std::uint64_t index) {
  rng_ = Rng(mix64(seed_ ^ (index * 0xd1342543de82ef95ULL)));
  prio_.clear();
  change_at_.clear();
  for (std::uint32_t i = 0; i < changepoints_; ++i)
    change_at_.push_back(rng_.below(std::max<std::uint64_t>(est_steps_, 1)));
  std::sort(change_at_.begin(), change_at_.end());
  next_change_ = 0;
  messages_ = 0;
  demote_next_ = (1ULL << 32);
  return true;
}

std::uint64_t PctStrategy::priority_of(std::size_t candidate) {
  auto [it, inserted] = prio_.try_emplace(candidate, 0);
  // Random priorities keep the top bit set so demotions (counting down from
  // 2^32) always rank strictly below every never-demoted candidate.
  if (inserted) it->second = rng_.next() | (1ULL << 63);
  return it->second;
}

std::uint32_t PctStrategy::pick(const std::vector<std::size_t>& runnable,
                                std::size_t spawn_candidate) {
  std::vector<std::size_t> candidates = runnable;
  if (spawn_candidate != kNoSpawn) candidates.push_back(spawn_candidate);

  auto leader = [&]() -> std::uint32_t {
    std::uint32_t best = 0;
    std::uint64_t best_prio = 0;
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      const std::uint64_t p = priority_of(candidates[i]);
      if (i == 0 || p > best_prio) {
        best = i;
        best_prio = p;
      }
    }
    return best;
  };

  std::uint32_t choice = leader();
  while (next_change_ < change_at_.size() &&
         messages_ >= change_at_[next_change_]) {
    // Changepoint reached: the current leader drops to the bottom of the
    // priority order and the next-highest candidate takes over.
    ++next_change_;
    prio_[candidates[choice]] = --demote_next_;
    choice = leader();
  }
  return choice;
}

void PctStrategy::end_schedule() {
  // Adapt the changepoint range to the observed schedule length.
  if (messages_ > 0) est_steps_ = messages_;
}

// --- DfsStrategy -----------------------------------------------------------

bool DfsStrategy::independent(const Footprint& a,
                              const Footprint& b) noexcept {
  if (a.finished || b.finished) return true;
  if (a.object != b.object) return true;
  return !a.write && !b.write;
}

bool DfsStrategy::pruned(const NodeRec& node, std::size_t slot) const {
  const Footprint& fp = node.choices[slot].fp;
  if (!fp.known) return false;  // must explore to learn the footprint
  bool any_explored = false;
  for (const Choice& c : node.choices) {
    if (!c.explored) continue;
    any_explored = true;
    if (!independent(fp, c.fp)) return false;
  }
  return any_explored;
}

bool DfsStrategy::advance() {
  while (!stack_.empty()) {
    NodeRec& node = stack_.back();
    for (std::size_t slot = 0; slot < node.choices.size(); ++slot) {
      if (node.choices[slot].explored || pruned(node, slot)) continue;
      node.chosen = static_cast<std::uint32_t>(slot);
      node.choices[slot].explored = true;
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

bool DfsStrategy::begin_schedule(std::uint64_t /*index*/) {
  if (exhausted_) return false;
  if (first_) {
    first_ = false;
  } else if (!advance()) {
    exhausted_ = true;
    return false;
  }
  depth_ = 0;
  watchers_.clear();
  return true;
}

std::uint32_t DfsStrategy::pick(const std::vector<std::size_t>& runnable,
                                std::size_t spawn_candidate) {
  const std::uint32_t k = choice_count(runnable, spawn_candidate);
  if (depth_ < stack_.size()) {
    // Replaying the committed prefix.  Determinism guarantees the same
    // candidates reappear; re-arm watchers for still-unknown footprints.
    NodeRec& node = stack_[depth_];
    for (std::size_t slot = 0; slot < node.choices.size(); ++slot)
      if (!node.choices[slot].fp.known)
        watchers_.push_back({depth_, slot, node.choices[slot].key});
    ++depth_;
    return node.chosen < k ? node.chosen : 0;
  }
  if (stack_.size() >= max_depth_) return 0;  // untracked tail
  NodeRec node;
  node.choices.reserve(k);
  for (const std::size_t f : runnable) node.choices.push_back({f, {}, false});
  if (spawn_candidate != kNoSpawn)
    node.choices.push_back({spawn_candidate, {}, false});
  node.chosen = 0;
  node.choices[0].explored = true;
  stack_.push_back(std::move(node));
  for (std::size_t slot = 0; slot < k; ++slot)
    watchers_.push_back({depth_, slot, stack_.back().choices[slot].key});
  ++depth_;
  return 0;
}

void DfsStrategy::note_lock_op(std::uint64_t family, std::uint64_t object,
                               bool write) {
  // A watcher resolves on its family's FIRST lock op after registration;
  // every unresolved watcher for this family was registered before this op
  // with no intervening op by the family, so this op is "first" for all.
  for (auto it = watchers_.begin(); it != watchers_.end();) {
    if (it->key == family) {
      Footprint& fp = stack_[it->node].choices[it->slot].fp;
      fp.known = true;
      fp.finished = false;
      fp.object = object;
      fp.write = write;
      it = watchers_.erase(it);
    } else {
      ++it;
    }
  }
}

void DfsStrategy::end_schedule() {
  // A family that never performed another lock op conflicts with nothing.
  for (const Watcher& w : watchers_) {
    Footprint& fp = stack_[w.node].choices[w.slot].fp;
    fp.known = true;
    fp.finished = true;
  }
  watchers_.clear();
}

// --- ReplayStrategy --------------------------------------------------------

std::uint32_t ReplayStrategy::pick(const std::vector<std::size_t>& runnable,
                                   std::size_t spawn_candidate) {
  const std::uint32_t k = choice_count(runnable, spawn_candidate);
  if (pos_ >= trace_.decisions.size()) return 0;
  const Decision d = trace_.decisions[pos_++];
  return d.pick < k ? d.pick : 0;
}

}  // namespace lotec::check
