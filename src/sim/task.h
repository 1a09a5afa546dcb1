// Coroutine task type for the discrete-event simulator.
//
// `Task<T>` is a lazy coroutine: it does not run until awaited (or handed to
// `Simulator::spawn`, which detaches it: the frame itself is the scheduled
// event and frees itself at final suspend). Awaiting a Task transfers
// control symmetrically into the child and resumes the parent when the
// child finishes — no simulated time passes across a plain Task boundary;
// time only advances through the Simulator's awaitables (delay, channels,
// resources).
//
// Lifetime rules (C++ Core Guidelines CP.51/CP.53 apply throughout this
// project): coroutines are functions or member functions, never capturing
// lambdas, and take parameters by value so the coroutine frame owns them.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

namespace hpres::sim {

template <typename T>
class Task;

namespace detail {

// Frame recycler. Simulation processes create and destroy millions of
// short-lived coroutine frames of a handful of sizes, so every promise type
// here allocates its frame through a bounded per-thread freelist: one list
// per 16-byte size class, each capped at kFrameCacheCap blocks. Frames
// larger than the largest class, and frees past the cap, go straight to
// ::operator new/delete, so the cache holds at most a fixed number of idle
// blocks per thread. Frames are plain memory with no thread affinity: a
// frame freed on another thread simply joins that thread's cache. Under
// AddressSanitizer the recycler is compiled out, so every frame's lifetime
// stays visible to the sanitizer.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kFrameRecycling = false;
#else
inline constexpr bool kFrameRecycling = true;
#endif

inline constexpr std::size_t kFrameGranule = 16;
inline constexpr std::size_t kFrameClasses = 128;  // frames up to 2 KiB
inline constexpr std::size_t kMaxRecycledFrame = kFrameGranule * kFrameClasses;
inline constexpr std::uint32_t kFrameCacheCap = 256;

struct FreeFrame {
  FreeFrame* next;
};

/// One thread's idle frames. Trivially destructible and constant-
/// initialized, so access needs no TLS guard; a separate thread_local
/// (FrameCacheDrain) returns the blocks when the thread exits.
struct FrameCache {
  FreeFrame* head[kFrameClasses];
  std::uint32_t count[kFrameClasses];
  bool attached;  ///< the exit-time drain is registered on this thread
  bool closed;    ///< the drain ran: bypass the cache from now on
};

inline constinit thread_local FrameCache t_frame_cache{};

[[nodiscard]] inline constexpr std::size_t frame_class(
    std::size_t size) noexcept {
  return size == 0 ? 0 : (size - 1) / kFrameGranule;
}

struct FrameCacheDrain {
  FrameCacheDrain() noexcept = default;
  FrameCacheDrain(const FrameCacheDrain&) = delete;
  FrameCacheDrain& operator=(const FrameCacheDrain&) = delete;
  ~FrameCacheDrain() {
    FrameCache& cache = t_frame_cache;
    cache.closed = true;
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (FreeFrame* block = cache.head[c]) {
        cache.head[c] = block->next;
        ::operator delete(block, (c + 1) * kFrameGranule);
      }
      cache.count[c] = 0;
    }
  }
};

/// Registers this thread's exit-time drain (first cached free only).
[[gnu::noinline, gnu::cold]] inline void attach_frame_cache() {
  static thread_local FrameCacheDrain drain;
  static_cast<void>(&drain);
  t_frame_cache.attached = true;
}

/// Idle frames cached in `size`'s class on this thread (for tests).
[[nodiscard]] inline std::uint32_t cached_frames(std::size_t size) noexcept {
  const std::size_t c = frame_class(size);
  return c < kFrameClasses ? t_frame_cache.count[c] : 0;
}

[[nodiscard]] inline void* allocate_frame(std::size_t size) {
  const std::size_t c = frame_class(size);
  if (!kFrameRecycling || c >= kFrameClasses) return ::operator new(size);
  FrameCache& cache = t_frame_cache;
  if (FreeFrame* block = cache.head[c]) {
    cache.head[c] = block->next;
    --cache.count[c];
    return block;
  }
  return ::operator new((c + 1) * kFrameGranule);
}

inline void deallocate_frame(void* frame, std::size_t size) noexcept {
  const std::size_t c = frame_class(size);
  if (!kFrameRecycling || c >= kFrameClasses) {
    ::operator delete(frame, size);
    return;
  }
  FrameCache& cache = t_frame_cache;
  if (cache.count[c] >= kFrameCacheCap || cache.closed) {
    ::operator delete(frame, (c + 1) * kFrameGranule);
    return;
  }
  if (!cache.attached) attach_frame_cache();
  cache.head[c] = ::new (frame) FreeFrame{cache.head[c]};
  ++cache.count[c];
}

/// Base for promise types: routes the coroutine frame through the recycler.
/// The compiler passes operator delete the same size it gave operator new.
struct RecycledFrame {
  static void* operator new(std::size_t size) { return allocate_frame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    deallocate_frame(frame, size);
  }
};

/// Final awaiter: resumes the awaiting ("continuation") coroutine, if any,
/// via symmetric transfer. Keeps the frame alive so the Task destructor can
/// retrieve the result and destroy it.
template <typename Promise>
struct FinalAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    if (auto cont = h.promise().continuation; cont) return cont;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase : RecycledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// Lazy awaitable coroutine returning T (or void).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] bool done() const noexcept {
    return handle_ && handle_.done();
  }

  /// Awaiting a Task starts it (symmetric transfer) and yields its result.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        assert(p.value.has_value() && "Task finished without a value");
        return std::move(*p.value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// void specialization.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    bool detached = false;  ///< spawned: no owner, the frame frees itself

    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    auto final_suspend() noexcept {
      struct Awaiter {
        [[nodiscard]] bool await_ready() const noexcept { return false; }
        std::coroutine_handle<> await_suspend(
            std::coroutine_handle<promise_type> h) noexcept {
          promise_type& p = h.promise();
          if (p.detached) {
            h.destroy();
            return std::noop_coroutine();
          }
          if (p.continuation) return p.continuation;
          return std::noop_coroutine();
        }
        void await_resume() const noexcept {}
      };
      return Awaiter{};
    }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // A detached simulation process has no awaiter to receive the
      // exception; escaping one is always a bug in the process itself.
      if (detached) std::terminate();
      exception = std::current_exception();
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] bool done() const noexcept {
    return handle_ && handle_.done();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      void await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
      }
    };
    return Awaiter{handle_};
  }

  /// Internal (Simulator::spawn): gives up ownership of the frame, which
  /// from now on frees itself when the process finishes.
  std::coroutine_handle<> detach() noexcept {
    handle_.promise().detached = true;
    return std::exchange(handle_, {});
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace hpres::sim
