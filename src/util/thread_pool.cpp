#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace specdag {

ThreadPool::ThreadPool(std::size_t num_threads, const char* name) : name_(name) {
  if (num_threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(num_threads) +
                                " workers exceeds the limit of " +
                                std::to_string(kMaxThreads));
  }
  // 0 = one worker per hardware thread (which itself may report 0 on
  // exotic platforms, hence the final clamp to at least one worker).
  if (num_threads == 0) num_threads = std::thread::hardware_concurrency();
  num_threads = std::max<std::size_t>(1, num_threads);
  if (obs::kObsCompiledIn) {
    const std::string prefix = std::string("pool.") + name_ + ".";
    busy_nanos_ = &obs::Registry::counter(prefix + "busy_nanos");
    idle_nanos_ = &obs::Registry::counter(prefix + "idle_nanos");
    tasks_run_ = &obs::Registry::counter(prefix + "tasks");
    task_wait_us_ = &obs::Registry::histogram(prefix + "task_wait_us");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // std::function requires copyable targets, so the packaged_task rides in
  // a shared_ptr.
  auto packaged = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  post([packaged] { (*packaged)(); });
  return fut;
}

void ThreadPool::post(std::function<void()> task) {
  const std::uint64_t enqueue_ns =
      obs::metrics_enabled() || obs::tracing_enabled() ? obs::now_ns() : 0;
  // Capture the poster's active context so the worker records this task's
  // metrics/trace events into the run that posted it.
  obs::Context* ctx = obs::kObsCompiledIn ? &obs::Context::current() : nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw std::runtime_error("ThreadPool: submit after shutdown");
    tasks_.push(Task{std::move(task), enqueue_ns, ctx});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) f.get();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  obs::set_thread_name(std::string(name_) + "-" + std::to_string(worker_index));
  for (;;) {
    Task task;
    // The idle interval belongs to whichever task ends it, so the clock
    // must start before that task's context is known — hence the gate on
    // compiled-in obs rather than any context's runtime flag.
    std::uint64_t wait_start = 0;
    if (obs::kObsCompiledIn) wait_start = obs::now_ns();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Run the task under the context it was posted from: its counters,
    // spans, and the pool's own accounting attribute to the posting run.
    obs::ContextScope ctx_scope(task.ctx);
    // Metrics and tracing are independent switches: --trace with --obs off
    // must still emit the dequeue instants (and vice versa).
    const bool metrics = obs::metrics_enabled() && busy_nanos_ != nullptr;
    const bool tracing = obs::tracing_enabled();
    if (metrics || tracing) {
      const std::uint64_t run_start = obs::now_ns();
      const std::uint64_t wait_us = task.enqueue_ns != 0 && run_start > task.enqueue_ns
                                        ? (run_start - task.enqueue_ns) / 1000
                                        : 0;
      if (metrics) {
        if (wait_start != 0) idle_nanos_->add(run_start - wait_start);
        if (task.enqueue_ns != 0) task_wait_us_->record(wait_us);
      }
      if (tracing) {
        obs::trace_detail::instant("pool.dequeue", {{"wait_us", wait_us}});
      }
      task.fn();
      if (metrics) {
        tasks_run_->add();
        busy_nanos_->add(obs::now_ns() - run_start);
      }
    } else {
      task.fn();
    }
  }
}

}  // namespace specdag
