#include "common/thread_pool.h"

#include <atomic>
#include <memory>

namespace bolt {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (n == 1 || workers_.empty()) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared claim counter: workers and the caller race to claim indices, so
  // a busy pool degrades gracefully to caller-executed work (no deadlock
  // for nested ParallelFor).
  //
  // Exception safety: `fn` may throw.  Every body call runs inside a
  // try/catch that records the first exception; once a failure is
  // recorded, later-claimed indices are skipped (fail-fast) but still
  // counted, so `done` always reaches `n`.  The caller therefore never
  // unwinds while a helper could still dereference `fn` (which points at
  // the caller's stack frame), and a throw inside a pool worker can never
  // escape WorkerLoop into std::terminate.  The first exception is
  // rethrown on the calling thread after every claimed iteration has
  // finished.
  struct LoopState {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::atomic<bool> failed{false};
    int64_t n = 0;
    const std::function<void(int64_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first error; guarded by mu
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;

  auto drain = [](const std::shared_ptr<LoopState>& s) {
    int64_t i;
    while ((i = s->next.fetch_add(1)) < s->n) {
      if (!s->failed.load(std::memory_order_acquire)) {
        try {
          (*s->fn)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(s->mu);
            if (s->error == nullptr) s->error = std::current_exception();
          }
          s->failed.store(true, std::memory_order_release);
        }
      }
      if (s->done.fetch_add(1) + 1 == s->n) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(workers_.size()), n - 1);
  for (int64_t h = 0; h < helpers; ++h) {
    Submit([state, drain] { drain(state); });
  }
  drain(state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done.load() == n; });
  }
  // Rethrow from a local that owns the only reference: helpers may still
  // hold `state`, and the last exception_ptr released on a helper thread
  // would free the exception concurrently with the caller's catch.
  std::exception_ptr error = std::move(state->error);
  state->error = nullptr;
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace bolt
