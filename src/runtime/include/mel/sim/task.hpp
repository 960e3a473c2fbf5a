// Coroutine task types: RankTask for simulated rank main procedures, Task
// for nested coroutines they await.
//
// A RankTask is the top-level coroutine of one simulated MPI rank. It is
// eagerly created but lazily started (initial_suspend = suspend_always); the
// Simulator resumes it at virtual time 0 and thereafter whenever an awaited
// communication operation completes. The Simulator owns the coroutine frame
// for the whole run (final_suspend = suspend_always), so rank-local state
// held in the frame stays alive until Simulator destruction.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "mel/sim/time.hpp"

namespace mel::sim {

class Simulator;

class RankTask {
 public:
  struct promise_type {
    RankTask get_return_object() {
      return RankTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // On completion, tell the simulator this rank is done, then stay
    // suspended so the simulator controls frame destruction.
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }

    Simulator* sim = nullptr;
    Rank rank = -1;
    std::exception_ptr error;
  };

  RankTask() = default;
  explicit RankTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  RankTask(RankTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  RankTask& operator=(RankTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  RankTask(const RankTask&) = delete;
  RankTask& operator=(const RankTask&) = delete;
  ~RankTask() { destroy(); }

  std::coroutine_handle<promise_type> handle() const { return handle_; }
  bool valid() const { return handle_ != nullptr; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// A nested coroutine that a RankTask (or another Task) co_awaits, so a
/// multi-step communication pattern can live in a function of its own.
/// It starts when awaited, resumes its awaiter by symmetric transfer when
/// it finishes, and rethrows there whatever it threw. The awaiting frame
/// owns it: a rank frozen inside one (a crashed rank) keeps the nested
/// frame alive until the rank's own frame is destroyed.
class [[nodiscard]] Task {
 public:
  struct promise_type {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        return h.promise().awaiter;
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }

    std::coroutine_handle<> awaiter;
    std::exception_ptr error;
  };

  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&&) = delete;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().awaiter = awaiter;
    return handle_;
  }
  void await_resume() const {
    if (handle_.promise().error) std::rethrow_exception(handle_.promise().error);
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace mel::sim
