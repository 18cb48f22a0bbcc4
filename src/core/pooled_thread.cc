#include "core/pooled_thread.h"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mem/block_pool.h"

namespace claims {

/// A parked thread's mailbox. Tickets number the tasks handed to it; a task
/// is done once `finished` reaches its ticket.
struct PooledThread::Slot {
  std::thread thread;  ///< runs ThreadPark::Run until the process exits
  std::mutex mu;
  std::condition_variable work_cv;  ///< a task was handed over
  std::condition_variable done_cv;  ///< a task finished
  std::function<void()> task;       ///< guarded by mu
  uint64_t issued = 0;              ///< guarded by mu
  uint64_t finished = 0;            ///< guarded by mu
};

namespace {

/// The process-wide park. Lock order: mu_, then a slot's mu. A slot on the
/// idle list has no task in flight (issued == finished).
class ThreadPark {
 public:
  static ThreadPark& Global() {
    // Leaked on purpose: parked threads wait on it until the process exits.
    static ThreadPark* park = new ThreadPark;
    return *park;
  }

  /// Hands `task` to a parked thread (or a new one); returns its slot and
  /// sets `*ticket` to the task's number on it.
  PooledThread::Slot* Dispatch(std::function<void()> task, uint64_t* ticket) {
    PooledThread::Slot* slot = nullptr;
    bool fresh = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (idle_.empty()) {
        slots_.push_back(std::make_unique<PooledThread::Slot>());
        slot = slots_.back().get();
        fresh = true;
      } else {
        slot = idle_.back();  // LIFO: the most recently parked, warmest stack
        idle_.pop_back();
      }
    }
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      slot->task = std::move(task);
      *ticket = ++slot->issued;
    }
    if (fresh) {
      slot->thread = std::thread([this, slot] { Run(slot); });
    } else {
      slot->work_cv.notify_one();
    }
    return slot;
  }

 private:
  void Run(PooledThread::Slot* slot) {
    std::unique_lock<std::mutex> lock(slot->mu);
    while (true) {
      slot->work_cv.wait(lock,
                         [slot] { return slot->issued != slot->finished; });
      std::function<void()> task = std::move(slot->task);
      slot->task = nullptr;
      const uint64_t ticket = slot->issued;
      lock.unlock();

      task();
      task = nullptr;  // the callable's captures die before join() returns
      // A parked thread keeps no magazines: its caches go back to the pools'
      // central tiers now, as they would have at thread exit.
      BlockPool::RetireCallingThreadCaches();

      // Park before publishing completion, so a task dispatched after join()
      // returns finds this thread idle.
      std::lock_guard<std::mutex> park_lock(mu_);
      idle_.push_back(slot);
      lock.lock();
      slot->finished = ticket;
      slot->done_cv.notify_all();
    }
  }

  std::mutex mu_;
  /// Every thread the park started; never shrinks (guarded by mu_).
  std::vector<std::unique_ptr<PooledThread::Slot>> slots_;
  std::vector<PooledThread::Slot*> idle_;  ///< guarded by mu_
};

}  // namespace

PooledThread::PooledThread(std::function<void()> task) {
  slot_ = ThreadPark::Global().Dispatch(std::move(task), &ticket_);
}

PooledThread::PooledThread(PooledThread&& other) noexcept
    : slot_(std::exchange(other.slot_, nullptr)), ticket_(other.ticket_) {}

PooledThread& PooledThread::operator=(PooledThread&& other) noexcept {
  if (joinable()) std::terminate();
  slot_ = std::exchange(other.slot_, nullptr);
  ticket_ = other.ticket_;
  return *this;
}

PooledThread::~PooledThread() {
  if (joinable()) std::terminate();
}

void PooledThread::join() {
  if (!joinable()) std::terminate();
  {
    std::unique_lock<std::mutex> lock(slot_->mu);
    slot_->done_cv.wait(lock, [this] { return slot_->finished >= ticket_; });
  }
  slot_ = nullptr;
}

}  // namespace claims
