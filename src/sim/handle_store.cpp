#include "sim/handle_store.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace catrsm::sim {

HandleStore::HandleStore(int p) : p_(p) {
  CATRSM_CHECK(p >= 1, "HandleStore: machine needs at least one rank");
}

std::uint64_t HandleStore::create() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  auto entry = std::make_unique<Entry>();
  entry->locals.resize(static_cast<std::size_t>(p_));
  entry->epoch = ++writes_;
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
  resident_bytes_ -= e->bytes;
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

std::span<la::Matrix> HandleStore::slots(std::uint64_t id) {
  return entry(id).locals;
}

la::Matrix& HandleStore::local(std::uint64_t id, int rank) {
  CATRSM_CHECK(rank >= 0 && rank < p_, "HandleStore: rank out of range");
  return slots(id)[static_cast<std::size_t>(rank)];
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

std::uint64_t HandleStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void HandleStore::touch(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find(id);
  CATRSM_CHECK(e != nullptr, "HandleStore: unknown handle id");
  std::uint64_t bytes = 0;
  for (const la::Matrix& m : e->locals)
    bytes += static_cast<std::uint64_t>(m.size()) * sizeof(double);
  resident_bytes_ = resident_bytes_ - e->bytes + bytes;
  e->bytes = bytes;
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
