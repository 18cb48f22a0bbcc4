#include "core/context_pool.h"

namespace claims {

void ContextPool::Release(std::unique_ptr<IteratorContext> context,
                          int core_id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(Entry{std::move(context), core_id});
}

std::unique_ptr<IteratorContext> ContextPool::Acquire(int core_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].core_id == core_id) {
      std::unique_ptr<IteratorContext> out = std::move(entries_[i].context);
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      ++reuse_count_;
      return out;
    }
  }
  return nullptr;
}

std::vector<std::unique_ptr<IteratorContext>> ContextPool::TakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_ptr<IteratorContext>> out;
  out.reserve(entries_.size());
  for (Entry& e : entries_) out.push_back(std::move(e.context));
  entries_.clear();
  return out;
}

size_t ContextPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t ContextPool::reuse_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reuse_count_;
}

}  // namespace claims
