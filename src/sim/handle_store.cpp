#include "sim/handle_store.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"
#include "support/env.hpp"

namespace catrsm::sim {

HandleStore::HandleStore(int p) : p_(p) {
  CATRSM_CHECK(p >= 1, "HandleStore: machine needs at least one rank");
  // -1 (or unset) means unlimited; 0 is a legal degenerate budget (every
  // evictable entry is dropped as soon as it is idle — always re-upload).
  const long long budget =
      env::int64_or("CATRSM_HANDLE_BUDGET", -1, -1,
                    std::numeric_limits<long long>::max());
  byte_budget_ =
      budget < 0 ? kUnlimited : static_cast<std::uint64_t>(budget);
}

std::uint64_t HandleStore::create() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  auto entry = std::make_unique<Entry>();
  entry->locals.resize(static_cast<std::size_t>(p_));
  entry->epoch = ++writes_;
  entry->lru_tick = ++lru_clock_;
  entries_.emplace(id, std::move(entry));
  return id;
}

void HandleStore::release(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  release_locked(id);
}

void HandleStore::release_locked(std::uint64_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const std::unique_ptr<Entry> e = std::move(it->second);
  entries_.erase(it);
  if (e->resident) resident_bytes_ -= e->bytes;
  if (Entry* parent = find(e->parent)) std::erase(parent->children, id);
  for (const std::uint64_t child : e->children) release_locked(child);
}

bool HandleStore::attach(std::uint64_t child, std::uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* c = find(child);
  CATRSM_CHECK(c != nullptr && c->parent == 0,
               "HandleStore: attach needs a live, unattached child");
  Entry* pa = find(parent);
  if (pa == nullptr) return false;
  c->parent = parent;
  pa->children.push_back(child);
  return true;
}

std::size_t HandleStore::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

HandleStore::Entry* HandleStore::find(std::uint64_t id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.get();
}

HandleStore::Entry& HandleStore::entry(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  return *e;
}

la::Matrix& HandleStore::local(std::uint64_t id, int rank) {
  CATRSM_CHECK(rank >= 0 && rank < p_, "HandleStore: rank out of range");
  return entry(id).locals[static_cast<std::size_t>(rank)];
}

std::uint64_t HandleStore::epoch(std::uint64_t id) const {
  return entry(id).epoch;
}

void HandleStore::poison(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  if (e == nullptr) return;
  e->poisoned = true;
  e->epoch = ++writes_;  // invalidate every content-keyed cache
}

bool HandleStore::poisoned(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find(id);
  return e != nullptr && e->poisoned;
}

void HandleStore::unpoison(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  e->poisoned = false;
  e->epoch = ++writes_;  // fresh stamp for the repaired contents
}

// ---------------------------------------------------------------------------
// Byte budget & LRU eviction

std::uint64_t HandleStore::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void HandleStore::set_byte_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
}

std::uint64_t HandleStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::uint64_t HandleStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

bool HandleStore::resident(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  return e->resident;
}

void HandleStore::set_evictable(std::uint64_t id, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  e->evictable = on;
}

void HandleStore::touch_locked(Entry& e) {
  if (e.resident) resident_bytes_ -= e.bytes;
  std::uint64_t bytes = 0;
  for (const la::Matrix& m : e.locals)
    bytes += static_cast<std::uint64_t>(m.size()) * sizeof(double);
  e.bytes = bytes;
  e.resident = true;
  e.lru_tick = ++lru_clock_;
  resident_bytes_ += bytes;
}

void HandleStore::touch(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  touch_locked(*e);
}

void HandleStore::pin(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  ++e->pins;
}

void HandleStore::unpin(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  if (e == nullptr) return;  // unpin may race release in shutdown paths
  CATRSM_CHECK(e->pins > 0, "HandleStore: unpin without pin");
  --e->pins;
}

bool HandleStore::pinned(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  return e->pins > 0;
}

void HandleStore::evict_to_budget_locked() {
  while (resident_bytes_ > byte_budget_) {
    Entry* victim = nullptr;
    for (auto& [id, e] : entries_) {
      if (!e->resident || !e->evictable || e->poisoned || e->pins > 0 ||
          e->busy > 0 || e->bytes == 0)
        continue;
      if (victim == nullptr || e->lru_tick < victim->lru_tick)
        victim = e.get();
    }
    if (victim == nullptr) return;  // nothing eligible: stay over budget
    // Drop only the blocks; id, epoch and flags survive so the api layer
    // re-scatters the identical bytes on the next use (epoch unchanged:
    // content-keyed caches remain valid across the round trip).
    for (la::Matrix& m : victim->locals) m = la::Matrix{};
    resident_bytes_ -= victim->bytes;
    victim->bytes = 0;
    victim->resident = false;
    ++evictions_;
  }
}

void HandleStore::evict_to_budget() {
  std::lock_guard<std::mutex> lock(mu_);
  evict_to_budget_locked();
}

// ---------------------------------------------------------------------------
// Run-use marks

void HandleStore::acquire_run_use(const std::vector<std::uint64_t>& ids) {
  std::unique_lock<std::mutex> lock(mu_);
  busy_cv_.wait(lock, [&] {
    for (const std::uint64_t id : ids) {
      const Entry* e = find(id);
      CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
      if (e->busy > 0) return false;
    }
    return true;
  });
  for (const std::uint64_t id : ids) ++find(id)->busy;
}

void HandleStore::release_run_use(const std::vector<std::uint64_t>& ids) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint64_t id : ids) {
      Entry* e = find(id);
      if (e == nullptr) continue;  // released mid-run teardown
      CATRSM_CHECK(e->busy > 0, "HandleStore: run-use release without acquire");
      --e->busy;
    }
  }
  busy_cv_.notify_all();
}

void HandleStore::wait_run_idle(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  busy_cv_.wait(lock, [&] {
    const Entry* e = find(id);
    return e == nullptr || e->busy == 0;
  });
}

}  // namespace catrsm::sim
