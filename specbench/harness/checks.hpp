// Output checks of the benchmark harness. Every check recomputes a property
// of the method from the run's raw outputs (transaction list, payloads,
// per-round series) instead of trusting the program's own summary, and
// compares it with what the program reports.
#pragma once

#include <string>
#include <vector>

#include "dag/dag.hpp"

namespace specbench {

// One point of the per-round (round simulator) or per-unit (event-driven
// simulator) series, with the fields the scenario runner reports.
struct SeriesPoint {
  std::size_t round = 0;
  double mean_accuracy = 0.0;
  double mean_loss = 0.0;
  std::size_t publishes = 0;
  std::size_t dag_size = 0;
};

// What one scenario run produced, copied out of the live DAG so the checks
// (and their corrupted-input self test) work on plain data.
struct RunFacts {
  std::vector<std::vector<specdag::dag::TxId>> parents;  // by transaction id
  std::vector<int> publisher;                             // by transaction id
  std::vector<specdag::dag::TxId> reported_tips;          // Dag::tips()
  std::size_t genesis_weight = 0;                         // weight index entry of genesis
  std::vector<specdag::store::ContentHash> recorded_hash;  // Dag::payload_hash
  std::vector<specdag::store::ContentHash> payload_hash;   // hash of the materialized payload
  std::vector<int> client_cluster;                        // ground truth, by client
  double reported_pureness = 0.0;                         // metrics::approval_pureness
  double base_pureness = 0.0;
  std::vector<SeriesPoint> series;
  std::size_t client_steps = 0;
  double final_accuracy = 0.0;
};

struct Expectations {
  std::size_t expected_steps = 0;  // 0: not a round workload, not checked
  bool clustered = false;          // pureness must beat the random-approval base
  double accuracy_floor = 0.0;     // 0: no floor
};

struct Failure {
  std::string check;
  std::string message;
};

// Copies the facts out of a finished DAG. Materializes every payload through
// the store, on `threads` threads. With one thread the payloads are read in
// id order and `get_seconds` receives the total time spent in Dag::weights;
// otherwise it is set to 0.
RunFacts collect_facts(const specdag::dag::Dag& dag, std::size_t threads,
                       double& get_seconds);

// Runs every check on `facts`; an empty result means all passed.
std::vector<Failure> check_run(const RunFacts& facts, const Expectations& expect);

// Bit-exact comparison of two series (doubles compared by value, which
// distinguishes every differing bit pattern except signed zeros and NaNs;
// a mean accuracy or loss is never either).
bool series_identical(const std::vector<SeriesPoint>& a, const std::vector<SeriesPoint>& b);

// Shows that each check fails on a deliberately corrupted copy of `facts`:
// a flipped payload byte, a dropped parent, a miscounted tip and one
// corruption per remaining check. `dag` must be the DAG `facts` came from
// (the flipped byte is applied to one of its payloads). Returns one failure
// per corruption that went undetected.
std::vector<Failure> self_test(const RunFacts& facts, const Expectations& expect,
                               const specdag::dag::Dag& dag);

}  // namespace specbench
