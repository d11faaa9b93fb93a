// Per-phase timing breakdown of a simulation run.
//
// Both simulators account wall time into five buckets per client step:
//   * tipsel — biased random walks (approval walks + the reference walk),
//   * train  — local SGD on the averaged parent model,
//   * eval   — trained/reference model evaluations outside the walks
//              (per-step candidate evaluations inside a walk count as
//              tipsel; they are part of Algorithm 1's walk cost),
//   * commit — serialized DAG appends (payload hashing and bookkeeping,
//              but NOT delta encoding),
//   * encode — the store's XOR delta codec plus the base materialization it
//              needs. Synchronous encoding runs inline inside the commit
//              section (the simulators subtract it out of `commit` via
//              ScopedCommitTimer); with store.async_encode it runs on
//              background workers and overlaps the other phases (the
//              scenario runner overwrites this bucket with the store's
//              complete measurement, which also covers encode work outside
//              the commit sections, e.g. attacker-published payloads).
//
// tipsel/train/eval are summed across clients, so with a parallel prepare
// phase they report aggregate busy time (they can exceed the wall clock);
// commit is always serialized and therefore wall time. total_seconds is the
// wall clock spent inside run_round()/run_steps()/run_until() — in a serial
// synchronous run the five buckets partition it (up to scheduling overhead
// outside the buckets), which tests/test_scenario.cpp pins.
//
// Because busy time and wall time mix, a raw bucket comparison across thread
// counts is misleading; utilization() normalizes the mix into one number
// (busy-time sum over wall x threads) that summary.perf reports directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "store/model_store.hpp"
#include "util/timer.hpp"

namespace specdag::sim {

struct PhaseTimings {
  double tipsel_seconds = 0.0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  double commit_seconds = 0.0;
  double encode_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t prepares = 0;  // client steps prepared
  std::size_t commits = 0;   // transactions appended through the simulator

  double phase_sum_seconds() const {
    return tipsel_seconds + train_seconds + eval_seconds + commit_seconds + encode_seconds;
  }

  // Fraction of the available CPU budget (wall x threads) the phase buckets
  // account for. `threads` counts every worker whose busy time lands in a
  // bucket: the prepare workers plus any background encoders. 1.0 = every
  // such worker busy in an accounted phase for the whole run.
  double utilization(std::size_t threads) const {
    if (total_seconds <= 0.0 || threads == 0) return 0.0;
    return phase_sum_seconds() / (total_seconds * static_cast<double>(threads));
  }

  void merge(const PhaseTimings& other) {
    tipsel_seconds += other.tipsel_seconds;
    train_seconds += other.train_seconds;
    eval_seconds += other.eval_seconds;
    commit_seconds += other.commit_seconds;
    encode_seconds += other.encode_seconds;
    total_seconds += other.total_seconds;
    prepares += other.prepares;
    commits += other.commits;
  }
};

// Times one serialized commit section, crediting the delta-encode work the
// store did inline during it to the `encode` bucket instead of `commit`
// (the attribution fix: encoding is codec cost, not append cost).
class ScopedCommitTimer {
 public:
  ScopedCommitTimer(const store::ModelStore& store, PhaseTimings& perf)
      : store_(store), perf_(perf), inline_before_(store.encode_nanos_inline()) {}

  ~ScopedCommitTimer() {
    const double inline_encode =
        static_cast<double>(store_.encode_nanos_inline() - inline_before_) * 1e-9;
    perf_.commit_seconds += std::max(0.0, timer_.elapsed_seconds() - inline_encode);
    perf_.encode_seconds += inline_encode;
  }

  ScopedCommitTimer(const ScopedCommitTimer&) = delete;
  ScopedCommitTimer& operator=(const ScopedCommitTimer&) = delete;

 private:
  const store::ModelStore& store_;
  PhaseTimings& perf_;
  std::uint64_t inline_before_;
  Timer timer_;
};

}  // namespace specdag::sim
