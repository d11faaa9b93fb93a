#include "checks.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>
#include <unordered_set>

namespace specbench {
namespace {

using specdag::dag::TxId;

template <typename T>
std::string str(const T& value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

// Same-cluster share of approval edges between non-genesis transactions,
// recounted from the transaction list.
double recount_pureness(const RunFacts& facts) {
  std::size_t total = 0, pure = 0;
  const auto cluster_of = [&](int publisher) {
    if (publisher < 0 || static_cast<std::size_t>(publisher) >= facts.client_cluster.size()) {
      return -1;
    }
    return facts.client_cluster[static_cast<std::size_t>(publisher)];
  };
  for (std::size_t id = 0; id < facts.parents.size(); ++id) {
    const int own = cluster_of(facts.publisher[id]);
    if (facts.publisher[id] < 0 || own == -1) continue;
    for (TxId parent : facts.parents[id]) {
      if (parent >= facts.publisher.size() || facts.publisher[parent] < 0) continue;
      if (static_cast<std::size_t>(facts.publisher[parent]) >= facts.client_cluster.size()) {
        continue;
      }
      ++total;
      if (cluster_of(facts.publisher[parent]) == own) ++pure;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(pure) / static_cast<double>(total);
}

bool has_failure(const std::vector<Failure>& failures, const std::string& check) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const Failure& f) { return f.check == check; });
}

}  // namespace

RunFacts collect_facts(const specdag::dag::Dag& dag, std::size_t threads,
                       double& get_seconds) {
  RunFacts facts;
  const std::size_t n = dag.size();
  facts.parents.resize(n);
  facts.publisher.resize(n);
  facts.recorded_hash.resize(n);
  facts.payload_hash.resize(n);
  for (TxId id = 0; id < n; ++id) {
    facts.parents[id] = dag.parents(id);
    facts.publisher[id] = dag.publisher(id);
    facts.recorded_hash[id] = dag.payload_hash(id);
  }
  get_seconds = 0.0;
  if (threads <= 1) {
    for (TxId id = 0; id < n; ++id) {
      const auto start = std::chrono::steady_clock::now();
      const specdag::dag::WeightsPtr weights = dag.weights(id);
      get_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      facts.payload_hash[id] = specdag::store::hash_weights(*weights);
    }
  } else {
    // Thread t materializes ids t, t + threads, ...: the threads move through
    // the DAG together, so the parents they decode against stay recent.
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          for (TxId id = t; id < n; id += threads) {
            facts.payload_hash[id] = specdag::store::hash_weights(*dag.weights(id));
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
  facts.reported_tips = dag.tips();
  facts.genesis_weight = dag.cumulative_weights_all().at(specdag::dag::kGenesisTx);
  return facts;
}

std::vector<Failure> check_run(const RunFacts& facts, const Expectations& expect) {
  std::vector<Failure> failures;
  const auto fail = [&](const char* check, const std::string& message) {
    failures.push_back({check, message});
  };
  const std::size_t n = facts.parents.size();

  // Every parent id precedes its child; only genesis has no parents.
  for (std::size_t id = 0; id < n; ++id) {
    const auto& parents = facts.parents[id];
    if (id == 0 ? !parents.empty() : parents.empty()) {
      fail("parent_order", "tx " + str(id) + " has " + str(parents.size()) + " parents");
      break;
    }
    const auto late = std::find_if(parents.begin(), parents.end(),
                                   [&](TxId parent) { return parent >= id; });
    if (late != parents.end()) {
      fail("parent_order", "tx " + str(id) + " approves later tx " + str(*late));
      break;
    }
  }

  // The tip set recomputed from the parent lists equals Dag::tips().
  std::vector<char> approved(n, 0);
  for (const auto& parents : facts.parents) {
    for (TxId parent : parents) {
      if (parent < n) approved[parent] = 1;
    }
  }
  std::vector<TxId> tips;
  for (std::size_t id = 0; id < n; ++id) {
    if (!approved[id]) tips.push_back(id);
  }
  std::vector<TxId> reported = facts.reported_tips;
  std::sort(reported.begin(), reported.end());
  if (tips != reported) {
    fail("tips", "recounted " + str(tips.size()) + " tips, Dag::tips() has " +
                     str(reported.size()) + " (or different ids)");
  }

  // Genesis is approved, directly or indirectly, by every transaction.
  if (facts.genesis_weight != n) {
    fail("genesis_weight",
         "genesis cumulative weight " + str(facts.genesis_weight) + " != DAG size " + str(n));
  }

  // Every transaction but genesis entered through a publish.
  std::size_t publishes = 0;
  for (const auto& point : facts.series) publishes += point.publishes;
  if (publishes + 1 != n || (!facts.series.empty() && facts.series.back().dag_size != n)) {
    fail("publishes", "publishes + 1 = " + str(publishes + 1) + ", DAG size " + str(n));
  }

  if (expect.expected_steps != 0 && facts.client_steps != expect.expected_steps) {
    fail("client_steps", str(facts.client_steps) + " client steps, expected rounds x clients = " +
                             str(expect.expected_steps));
  }

  // Every payload, materialized through the store, hashes to its record.
  for (std::size_t id = 0; id < n; ++id) {
    if (!(facts.payload_hash[id] == facts.recorded_hash[id])) {
      fail("payload_hash", "payload of tx " + str(id) + " does not hash to its record");
      break;
    }
  }

  const double pureness = recount_pureness(facts);
  if (pureness != facts.reported_pureness) {
    fail("pureness", "recounted pureness " + str(pureness) + " != reported " +
                         str(facts.reported_pureness));
  }
  if (expect.clustered && !(pureness > facts.base_pureness)) {
    fail("pureness", "pureness " + str(pureness) + " does not exceed base " +
                         str(facts.base_pureness));
  }

  if (expect.accuracy_floor > 0.0 && !(facts.final_accuracy >= expect.accuracy_floor)) {
    fail("accuracy_floor", "final accuracy " + str(facts.final_accuracy) + " below floor " +
                               str(expect.accuracy_floor));
  }
  return failures;
}

bool series_identical(const std::vector<SeriesPoint>& a, const std::vector<SeriesPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].round != b[i].round || a[i].mean_accuracy != b[i].mean_accuracy ||
        a[i].mean_loss != b[i].mean_loss || a[i].publishes != b[i].publishes ||
        a[i].dag_size != b[i].dag_size) {
      return false;
    }
  }
  return true;
}

std::vector<Failure> self_test(const RunFacts& facts, const Expectations& expect,
                               const specdag::dag::Dag& dag) {
  std::vector<Failure> undetected;
  if (!check_run(facts, expect).empty()) {
    undetected.push_back({"self_test", "the uncorrupted facts do not pass"});
    return undetected;
  }
  const std::size_t n = facts.parents.size();
  if (n < 3 || facts.series.empty()) {
    undetected.push_back({"self_test", "DAG too small to corrupt"});
    return undetected;
  }
  const auto expect_detected = [&](const char* corruption, const char* check,
                                   const RunFacts& corrupted, const Expectations& e) {
    if (!has_failure(check_run(corrupted, e), check)) {
      undetected.push_back({"self_test", std::string(corruption) + " not caught by " + check});
    }
  };

  {  // One flipped byte in the last payload.
    RunFacts bad = facts;
    specdag::nn::WeightVector weights = *dag.weights(n - 1);
    unsigned char byte = 0;
    std::memcpy(&byte, weights.data(), 1);
    byte ^= 0x01;
    std::memcpy(weights.data(), &byte, 1);
    bad.payload_hash[n - 1] = specdag::store::hash_weights(weights);
    expect_detected("flipped payload byte", "payload_hash", bad, expect);
  }
  {  // A dropped parent: one whose only approver is the child it is dropped from.
    std::vector<std::size_t> approvals(n, 0);
    for (const auto& parents : facts.parents) {
      for (TxId parent : parents) ++approvals[parent];
    }
    bool dropped = false;
    for (std::size_t id = n; id-- > 1 && !dropped;) {
      const auto& parents = facts.parents[id];
      for (std::size_t k = 0; k < parents.size() && parents.size() > 1; ++k) {
        if (approvals[parents[k]] == 1) {
          RunFacts bad = facts;
          bad.parents[id].erase(bad.parents[id].begin() + static_cast<std::ptrdiff_t>(k));
          expect_detected("dropped parent", "tips", bad, expect);
          dropped = true;
          break;
        }
      }
    }
    if (!dropped) undetected.push_back({"self_test", "no single-approver parent to drop"});
  }
  {  // A miscounted tip.
    RunFacts bad = facts;
    bad.reported_tips.pop_back();
    expect_detected("miscounted tip", "tips", bad, expect);
  }
  {  // A parent that does not precede its child.
    RunFacts bad = facts;
    bad.parents[n - 2].push_back(n - 1);
    expect_detected("forward parent", "parent_order", bad, expect);
  }
  {
    RunFacts bad = facts;
    bad.genesis_weight += 1;
    expect_detected("genesis weight off by one", "genesis_weight", bad, expect);
  }
  {
    RunFacts bad = facts;
    bad.series.front().publishes += 1;
    expect_detected("extra publish", "publishes", bad, expect);
  }
  if (expect.expected_steps != 0) {
    RunFacts bad = facts;
    bad.client_steps -= 1;
    expect_detected("missing client step", "client_steps", bad, expect);
  }
  {  // A reported pureness that the transaction list does not support.
    RunFacts bad = facts;
    bad.reported_pureness = std::nextafter(facts.reported_pureness, 2.0);
    expect_detected("misreported pureness", "pureness", bad, expect);
  }
  if (expect.clustered) {
    // Approvals that ignore the clusters: with every client in a cluster of
    // its own, almost no approval edge stays inside one, so the (correctly
    // recounted) pureness falls below the random-approval base.
    RunFacts bad = facts;
    for (std::size_t c = 0; c < bad.client_cluster.size(); ++c) {
      bad.client_cluster[c] = static_cast<int>(c);
    }
    bad.reported_pureness = recount_pureness(bad);
    expect_detected("cluster-blind approvals", "pureness", bad, expect);
  }
  if (expect.accuracy_floor > 0.0) {
    RunFacts bad = facts;
    bad.final_accuracy = expect.accuracy_floor / 2.0;
    expect_detected("accuracy below floor", "accuracy_floor", bad, expect);
  }
  {
    std::vector<SeriesPoint> perturbed = facts.series;
    perturbed.back().mean_accuracy = std::nextafter(perturbed.back().mean_accuracy, 2.0);
    if (series_identical(facts.series, perturbed)) {
      undetected.push_back({"self_test", "one-ulp series change not caught by determinism"});
    }
  }
  return undetected;
}

}  // namespace specbench
