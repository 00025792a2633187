// One worker crew per call: the calling thread is worker 0, and the
// W - 1 helper threads start once, when the crew is built, and wait
// between steps. run(step) runs step(w) on every worker w = 0..W-1 and
// returns once all of them have finished it, so a step ends at a barrier:
// plain writes made in one step are visible in the next, and in the
// caller's serial code between steps, without further synchronization.
//
// An exception a worker raises in a step is held until every worker has
// finished that step; run then rethrows the lowest worker's. The crew
// stays usable, later steps run on every worker, and the destructor
// joins the helpers whether or not a step threw. A crew of one worker
// starts no thread: run calls step(0) on the caller, so every allocation
// of such a call comes from the caller's malloc arena.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace eclat::exec {

class Crew {
 public:
  /// Starts max(workers, 1) - 1 helper threads.
  explicit Crew(std::size_t workers)
      : errors_(std::max<std::size_t>(workers, 1)) {
    helpers_.reserve(errors_.size() - 1);
    try {
      for (std::size_t w = 1; w < errors_.size(); ++w) {
        helpers_.emplace_back([this, w] { serve(w); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Crew() { stop(); }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Runs step(w) on every worker w, worker 0 on the calling thread, and
  /// returns when all have finished; then rethrows the lowest worker's
  /// exception, if any. Only the thread that built the crew may call it.
  template <typename Step>
  void run(const Step& step) {
    if (helpers_.empty()) {
      step(std::size_t{0});
      return;
    }
    post([](const void* body, std::size_t w) {
      (*static_cast<const Step*>(body))(w);
    }, &step);
  }

 private:
  using Call = void (*)(const void*, std::size_t);

  // Runs the posted step as worker w, holding any exception for run.
  void work(std::size_t w) noexcept {
    try {
      call_(body_, w);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
  }

  void post(Call call, const void* body) {
    {
      const std::lock_guard lock(mutex_);
      call_ = call;
      body_ = body;
      busy_ = helpers_.size();
      ++step_;
    }
    posted_.notify_all();
    work(0);
    {
      std::unique_lock lock(mutex_);
      finished_.wait(lock, [this] { return busy_ == 0; });
    }
    const auto first = std::find_if(errors_.begin(), errors_.end(),
                                    [](const std::exception_ptr& error) {
                                      return error != nullptr;
                                    });
    if (first == errors_.end()) return;
    const std::exception_ptr error = *first;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    std::rethrow_exception(error);
  }

  // A helper's loop: wait for a step it has not run, run it, report.
  void serve(std::size_t w) {
    for (std::uint64_t seen = 0;;) {
      {
        std::unique_lock lock(mutex_);
        posted_.wait(lock, [&] { return stopping_ || step_ != seen; });
        if (stopping_) return;
        seen = step_;
      }
      work(w);
      const std::lock_guard lock(mutex_);
      if (--busy_ == 0) finished_.notify_one();
    }
  }

  void stop() noexcept {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    posted_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  std::mutex mutex_;
  std::condition_variable posted_;    ///< a step was posted, or stopping_
  std::condition_variable finished_;  ///< busy_ reached 0
  std::uint64_t step_ = 0;            ///< steps posted so far
  std::size_t busy_ = 0;              ///< helpers still in the step
  bool stopping_ = false;
  Call call_ = nullptr;
  const void* body_ = nullptr;
  std::vector<std::exception_ptr> errors_;  ///< one per worker
  std::vector<std::thread> helpers_;        ///< workers 1..W-1
};

}  // namespace eclat::exec
