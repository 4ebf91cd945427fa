#include "sim/engine.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

// Drives one spawned top-level task: forwards its exception to the engine and
// counts completion.  Frames are destroyed by ~Engine (final_suspend keeps
// them suspended so there is never a self-destroying handle the engine might
// also destroy).
struct Engine::DetachedRunner {
  struct promise_type {
    DetachedRunner get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }  // body catches all
  };
  std::coroutine_handle<promise_type> handle;

  static DetachedRunner start(Engine& e, Coro<void> task) {
    try {
      co_await std::move(task);
    } catch (...) {
      e.record_error(std::current_exception());
    }
    ++e.completed_;
  }
};

Engine::~Engine() {
  // Destroy process frames outermost-first; each frame owns its nested tasks,
  // so destruction cascades through suspended call chains.  Queue and trigger
  // handles are non-owning and must not be destroyed here.
  for (auto h : detached_) h.destroy();
}

void Engine::schedule(Time t, std::coroutine_handle<> h) {
  CS_ENSURE(h != nullptr, "scheduling a null coroutine handle");
  queue_.push(Item{std::max(t, now_), seq_++, h, nullptr});
}

void Engine::schedule(Time t, std::function<void()> fn) {
  CS_ENSURE(fn != nullptr, "scheduling a null callback");
  queue_.push(Item{std::max(t, now_), seq_++, nullptr, std::move(fn)});
}

void Engine::spawn(Coro<void> task, Time start) {
  CS_REQUIRE(task.valid(), "spawning an empty task");
  DetachedRunner runner = DetachedRunner::start(*this, std::move(task));
  detached_.push_back(runner.handle);
  ++spawned_;
  schedule(start, static_cast<std::coroutine_handle<>>(runner.handle));
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  CS_SPAN("engine.run");
  const bool tracing = obs::trace_enabled();
  std::uint64_t fired = 0;
  std::size_t peak_depth = queue_.size();
  while (!queue_.empty() && fired < max_events) {
    Item item = queue_.top();
    queue_.pop();
    CS_ENSURE(item.t >= now_, "time went backwards in the event queue");
    now_ = item.t;
    ++fired;
    if (item.h) {
      item.h.resume();
    } else {
      item.fn();
    }
    peak_depth = std::max(peak_depth, queue_.size());
    // Sparse sampling keeps the ring from filling with depth samples while
    // still drawing a usable queue-depth track in the trace viewer.
    if (tracing && (fired & 0x3ff) == 0) {
      obs::counter_sample("engine.queue_depth", static_cast<double>(queue_.size()));
    }
    if (error_) break;
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& events = obs::counter("engine.events_fired");
    static obs::QuantileHisto& depth_peak = obs::quantile_histogram("engine.queue_depth_peak");
    events.add(static_cast<std::int64_t>(fired));
    depth_peak.add(static_cast<double>(peak_depth));
  }
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
  deadlocked_ = queue_.empty() && completed_ < static_cast<int>(spawned_);
  return fired;
}

void Engine::record_error(std::exception_ptr e) {
  if (!error_) error_ = e;  // keep the first failure
}

void Trigger::fire(Time t) {
  CS_ENSURE(!fired_, "Trigger fired twice");
  fired_ = true;
  fire_time_ = t;
  if (waiter_) {
    engine_->schedule(std::max(t, engine_->now()), waiter_);
    waiter_ = nullptr;
  }
}

}  // namespace chronosync
