#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "dag/export.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "scenario/baselines.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace specdag::scenario {
namespace {

// Deterministic fork tags for the dynamics schedules. Distinct from every
// tag used inside the simulators so dynamics never perturb the training
// streams.
constexpr std::uint64_t kChurnTag = 0xC4DA;
constexpr std::uint64_t kStragglerTag = 0x57A6;

sim::ExperimentPreset build_preset(const ScenarioSpec& spec) {
  const sim::PresetOptions options{spec.seed, spec.paper_scale};
  sim::ExperimentPreset preset;
  switch (spec.dataset) {
    case DatasetPreset::kFmnistClustered: preset = sim::fmnist_clustered_preset(options); break;
    case DatasetPreset::kFmnistRelaxed: preset = sim::fmnist_relaxed_preset(options); break;
    case DatasetPreset::kFmnistByAuthor: preset = sim::fmnist_by_author_preset(options); break;
    case DatasetPreset::kPoets: preset = sim::poets_preset(options); break;
    case DatasetPreset::kCifar: preset = sim::cifar_preset(options); break;
    case DatasetPreset::kFedproxSynthetic: preset = sim::fedprox_synthetic_preset(options); break;
  }

  // Dataset-size overrides regenerate the shards with the same element
  // shape, so the preset's model factory stays valid.
  if (spec.num_clients > 0 || spec.samples_per_client > 0) {
    if (spec.dataset == DatasetPreset::kFedproxSynthetic) {
      data::FedProxSyntheticConfig config;
      config.seed = spec.seed;
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      preset.dataset = data::make_fedprox_synthetic(config);
    } else {
      data::SyntheticDigitsConfig config;
      config.seed = spec.seed;
      if (spec.dataset == DatasetPreset::kFmnistRelaxed) {
        config.relax_min = 0.15;
        config.relax_max = 0.20;
      }
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      if (spec.samples_per_client > 0) config.samples_per_client = spec.samples_per_client;
      preset.dataset = spec.dataset == DatasetPreset::kFmnistByAuthor
                           ? data::make_fmnist_by_author(config)
                           : data::make_fmnist_clustered(config);
    }
  }
  return preset;
}

// The seed-derived set of clients that churns out of the network.
std::vector<int> churn_targets(const ScenarioSpec& spec, std::size_t num_clients) {
  const auto count = static_cast<std::size_t>(
      std::floor(spec.dynamics.churn.fraction * static_cast<double>(num_clients)));
  if (count == 0) return {};
  Rng rng = Rng(spec.seed).fork(kChurnTag);
  std::vector<int> targets;
  for (std::size_t idx : rng.sample_without_replacement(num_clients, count)) {
    targets.push_back(static_cast<int>(idx));
  }
  return targets;
}

std::vector<int> partition_groups(const ScenarioSpec& spec,
                                  const data::FederatedDataset& dataset) {
  const std::size_t num_groups = spec.dynamics.partition.num_groups;
  std::vector<int> groups(dataset.clients.size());
  for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
    if (spec.dynamics.partition.by_cluster && dataset.clients[i].true_cluster >= 0) {
      groups[i] = dataset.clients[i].true_cluster % static_cast<int>(num_groups);
    } else {
      groups[i] = static_cast<int>(i % num_groups);
    }
  }
  return groups;
}

// Heavy-tailed training clocks for the straggler workload.
std::vector<sim::AsyncClientProfile> straggler_profiles(const ScenarioSpec& spec,
                                                        std::size_t num_clients) {
  std::vector<sim::AsyncClientProfile> profiles(num_clients);
  if (!spec.dynamics.stragglers.enabled()) return profiles;
  const auto count = static_cast<std::size_t>(
      std::ceil(spec.dynamics.stragglers.fraction * static_cast<double>(num_clients)));
  Rng rng = Rng(spec.seed).fork(kStragglerTag);
  for (std::size_t idx : rng.sample_without_replacement(num_clients, count)) {
    // Pareto(shape) with scale 1: x = (1 - u)^(-1/shape) >= 1. Shape <= 2
    // gives the infinite-variance tails that model real devices dropping in
    // and out of charge/connectivity.
    const double u = rng.uniform();
    const double pareto = std::pow(1.0 - u, -1.0 / spec.dynamics.stragglers.pareto_shape);
    profiles[idx].mean_step_interval = spec.dynamics.stragglers.slowdown * pareto;
  }
  return profiles;
}

// Fires the churn/partition events scheduled for `unit` (a round index or a
// virtual-time boundary — both simulators expose the same hook API).
template <typename Simulator>
void apply_dynamics_at(const ScenarioSpec& spec, const std::vector<int>& churned,
                       std::size_t unit, Simulator& simulator) {
  const ChurnSpec& churn = spec.dynamics.churn;
  if (churn.enabled()) {
    if (unit == churn.leave_round) {
      for (int id : churned) simulator.set_client_active(id, false);
    }
    if (churn.rejoin_round != 0 && unit == churn.rejoin_round) {
      for (int id : churned) simulator.set_client_active(id, true);
    }
  }
  const PartitionSpec& partition = spec.dynamics.partition;
  if (partition.enabled()) {
    if (unit == partition.start_round) {
      simulator.begin_partition(partition_groups(spec, simulator.dataset()));
    }
    if (partition.heal_round != 0 && unit == partition.heal_round) {
      simulator.heal_partition();
    }
  }
}

// Fires the label-flip schedule for `unit`. `target` is either simulator or
// a BaselineBackend — all three expose the same poisoning hooks.
template <typename Target>
void apply_label_flip_at(const ScenarioSpec& spec, std::size_t unit, Target& target,
                         ScenarioResult& result) {
  const LabelFlipAttackSpec& flip = spec.attacks.label_flip;
  if (!flip.enabled()) return;
  if (unit == flip.start_round) {
    result.poisoned_clients =
        target.apply_poisoning(flip.fraction, flip.class_a, flip.class_b).size();
  }
  if (flip.stop_round != 0 && unit == flip.stop_round) target.revert_poisoning();
}

// Checkpoint/resume/replay plumbing shared by the two DAG loops. `restore`
// (when set) seeds the run from a loaded checkpoint instead of unit 0;
// `stop_unit` lets replay_scenario stop before the spec horizon (0 = run to
// spec.rounds); `finalize` is off for replays, which only need the series.
struct RunControl {
  const snapshot::LoadedCheckpoint* restore = nullptr;
  std::size_t stop_unit = 0;
  bool finalize = true;
};

// Replays the label-flip schedule for every unit before `resume_unit`, so
// the dataset (flipped labels, poisoned flags) matches what the checkpointed
// run saw. Pure: the victim set derives from the seed alone. Runs BEFORE
// restore_state — the flips invalidate eval-cache entries, and the restore
// then installs the checkpoint's cache wholesale.
template <typename Simulator>
void replay_label_flips(const ScenarioSpec& spec, std::size_t resume_unit, Simulator& simulator,
                        ScenarioResult& result) {
  for (std::size_t unit = 0; unit < resume_unit; ++unit) {
    apply_label_flip_at(spec, unit, simulator, result);
  }
}

// Writes the periodic checkpoint due after `completed` units (no-op unless
// the spec schedules one there).
template <typename Simulator>
void maybe_write_checkpoint(const ScenarioSpec& spec, std::size_t completed,
                            const ScenarioResult& result, Simulator& simulator,
                            AttackController& attacks) {
  const CheckpointSpec& checkpoint = spec.checkpoint;
  if (!checkpoint.enabled() || completed % checkpoint.every_n_rounds != 0) return;
  std::filesystem::create_directories(checkpoint.dir);
  snapshot::write_checkpoint(snapshot::checkpoint_path(checkpoint.dir, completed), spec,
                             completed, result, simulator, attacks);
  snapshot::prune_checkpoints(checkpoint.dir, checkpoint.keep_last);
}

// Attack steps shared by the round and async DAG loops: publish the junk
// transactions due this unit, then run the label-flip probes when scheduled.
void run_attack_step(std::size_t unit, AttackController& attacks, core::SpecializingDag& net,
                     const data::FederatedDataset& dataset,
                     std::optional<nn::Sequential>& probe, const nn::ModelFactory& factory,
                     ScenarioPoint& point) {
  point.attacker_transactions = attacks.run_random_weights(unit, net.dag());
  if (!attacks.measure_at(unit)) return;
  if (!probe) probe.emplace(factory());
  const LabelFlipProbe measured = attacks.probe_label_flip(net, dataset, *probe);
  point.has_attack_metrics = true;
  point.flip_rate = measured.flip_rate;
  point.approved_poisoned = measured.approved_poisoned;
}

// One raw-vs-delta residency sample for the store time series (queue depth
// of the async encode pipeline, raw/delta entry split, resident bytes).
StoreResidencyPoint sample_store_residency(std::size_t round, const dag::Dag& dag) {
  const store::StoreStats stats = dag.store().stats();
  StoreResidencyPoint point;
  point.round = round;
  point.pending_encodes = stats.pending_encodes;
  point.raw_payloads = stats.anchors + stats.pending_encodes;
  point.delta_payloads = stats.deltas;
  point.resident_bytes = stats.resident_payload_bytes;
  return point;
}

// Per-round obs sampling on the run's own context (installed by ObsSession
// before the dataset is built, so Registry::snapshot() resolves to it).
// The context starts from zero, so the whole-run totals are its final
// snapshot and include the set-up work before the first round (the dataset
// build's pool.data.*); snapshot deltas attribute per round, and stay
// correct even with other runs executing concurrently — each run only ever
// sees its own context's cells. Snapshots happen outside the simulators'
// timed sections, so summary.perf stays comparable.
class ObsRoundSampler {
 public:
  ObsRoundSampler() : enabled_(obs::metrics_enabled()) {
    if (enabled_) previous_ = obs::Registry::snapshot();
  }

  void sample_round(std::size_t round, ScenarioResult& result) {
    if (!enabled_) return;
    obs::MetricsSnapshot now = obs::Registry::snapshot();
    result.obs_series.push_back({round, now.delta_from(previous_)});
    previous_ = std::move(now);
  }

  // Whole-run totals; call after the store's drain barrier so background
  // encode work between the last round sample and quiescence is included.
  void finish(ScenarioResult& result) {
    if (!enabled_) return;
    result.obs_enabled = true;
    result.obs_totals = obs::Registry::snapshot();
  }

 private:
  bool enabled_;
  obs::MetricsSnapshot previous_;
};

// Busy-time sum over (wall x every worker whose busy time the buckets count:
// the prepare workers plus the store's background encoders), so a fully
// busy run reads 1 at any thread count.
double utilization(const ScenarioResult& result) {
  return result.perf.utilization(
      std::max<std::size_t>(1, result.prepare_threads + result.encode_threads));
}

// Attribution-drift check (run after perf and obs totals are final): the
// context-local pool.prepare busy time and summary.perf's phase busy time
// measure the same work from two sides — the pool's task clock and the
// simulator's per-phase timers. If tasks leaked into another run's context
// (or a defunct one), the two diverge. Warn, never abort: both sides are
// wall-clock measurements with legitimate scheduling noise, so the
// tolerance is deliberately loose.
void warn_on_obs_perf_skew(const ScenarioResult& result) {
  if (!result.obs_enabled || result.prepare_threads <= 1) return;
  const double busy_s =
      static_cast<double>(result.obs_totals.counter("pool.prepare.busy_nanos")) * 1e-9;
  const double idle_s =
      static_cast<double>(result.obs_totals.counter("pool.prepare.idle_nanos")) * 1e-9;
  const double phase_busy_s =
      result.perf.tipsel_seconds + result.perf.train_seconds + result.perf.eval_seconds;
  if (busy_s <= 0.0 || phase_busy_s <= 0.0) return;  // pool unused or no samples
  const double tolerance = std::max(0.5, 0.35 * phase_busy_s);
  if (std::abs(busy_s - phase_busy_s) > tolerance) {
    SPECDAG_LOG(Warn) << "obs: pool.prepare busy time (" << busy_s << "s busy, " << idle_s
                      << "s idle) does not reconcile with summary.perf phase busy time ("
                      << phase_busy_s << "s, utilization " << utilization(result)
                      << ") — per-run obs attribution may be skewed";
  }
}

double tail_mean_accuracy(const std::vector<ScenarioPoint>& series) {
  if (series.empty()) return 0.0;
  const std::size_t tail = std::max<std::size_t>(1, series.size() / 10);
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) {
    sum += series[i].mean_accuracy;
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

std::vector<std::size_t> cluster_sizes(const data::FederatedDataset& dataset) {
  std::map<int, std::size_t> sizes;
  for (const auto& client : dataset.clients) {
    if (client.true_cluster >= 0) ++sizes[client.true_cluster];
  }
  std::vector<std::size_t> result;
  for (const auto& [cluster, size] : sizes) result.push_back(size);
  return result;
}

// Louvain community metrics for one series point (Figure 5 curves).
void fill_community_metrics(const ScenarioSpec& spec, const data::FederatedDataset& dataset,
                            const dag::Dag& dag, std::size_t unit, ScenarioPoint& point) {
  const std::size_t every = spec.community_metrics_every;
  if (every == 0 || point.round % every != 0) return;
  const metrics::ClientGraph graph = metrics::build_client_graph(dag, dataset.clients.size());
  Rng rng = Rng(spec.seed).fork(0x10CA0000ULL + unit);
  const metrics::LouvainResult louvain = metrics::louvain(graph, rng);
  std::vector<int> true_clusters;
  for (const auto& client : dataset.clients) true_clusters.push_back(client.true_cluster);
  point.has_community_metrics = true;
  point.modularity = louvain.modularity;
  point.communities = louvain.num_communities;
  point.misclassification =
      metrics::misclassification_fraction(louvain.partition, true_clusters);
}

// Shared final-metrics computation over the (finished) DAG network.
void finalize_result(const ScenarioSpec& spec, const data::FederatedDataset& dataset,
                     const nn::ModelFactory& factory, core::SpecializingDag& net,
                     AttackController& attacks, const RunOptions& options,
                     ScenarioResult& result) {
  std::vector<int> true_clusters;
  for (const auto& client : dataset.clients) true_clusters.push_back(client.true_cluster);

  result.clients = dataset.clients.size();
  result.dag_size = net.dag().size();
  result.final_accuracy = tail_mean_accuracy(result.series);
  result.pureness = metrics::approval_pureness(net.dag(), true_clusters).pureness;
  const std::vector<std::size_t> sizes = cluster_sizes(dataset);
  result.base_pureness = sizes.empty() ? 0.0 : metrics::base_pureness(sizes);

  const metrics::ClientGraph graph = metrics::build_client_graph(net.dag(), dataset.clients.size());
  Rng louvain_rng = Rng(spec.seed).fork(0x10CA);
  const metrics::LouvainResult louvain = metrics::louvain(graph, louvain_rng);
  result.modularity = louvain.modularity;
  result.communities = louvain.num_communities;

  result.attacker_transactions = attacks.total_published();
  if (spec.attacks.random_weights.enabled()) {
    result.junk_reference_fraction =
        attacks.junk_reference_fraction(net, dataset.clients.size());
  }
  if (spec.attacks.label_flip.enabled()) {
    // Figure 14: how the (still-)poisoned clients distribute over the
    // Louvain-inferred communities. Empty when the attack was reverted.
    std::map<int, std::pair<std::size_t, std::size_t>> per_community;
    bool any_poisoned = false;
    for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
      auto& [benign, poisoned] = per_community[louvain.partition[i]];
      if (dataset.clients[i].poisoned) {
        ++poisoned;
        any_poisoned = true;
      } else {
        ++benign;
      }
    }
    if (any_poisoned) {
      for (const auto& [community, counts] : per_community) {
        result.poison_communities.push_back(counts);
      }
    }
  }

  const metrics::DagWeightSummary weights = metrics::dag_weight_summary(net.dag());
  result.mean_cumulative_weight = weights.mean_cumulative_weight;
  result.tips = weights.tips;

  if (spec.evaluate_consensus) {
    nn::Sequential replica = factory();
    double sum = 0.0;
    for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
      const nn::WeightVector consensus = net.consensus_weights(static_cast<int>(i));
      sum += fl::evaluate_weights_on_test(replica, consensus, dataset.clients[i]).accuracy;
    }
    result.consensus_accuracy = sum / static_cast<double>(dataset.clients.size());
  }

  result.store_stats = net.dag().store().stats();
  result.eval_cache_stats = net.eval_cache()->stats();

  if (!options.export_dot.empty()) {
    dag::DotOptions dot;
    dot.client_clusters = true_clusters;
    dag::save_dot(options.export_dot, net.dag(), dot);
  }
  if (!options.export_jsonl.empty()) {
    dag::save_jsonl(options.export_jsonl, net.dag());
  }
}

ScenarioResult run_round_scenario(const ScenarioSpec& spec, sim::ExperimentPreset preset,
                                  const RunOptions& options, const RunControl& control) {
  ScenarioResult result;
  const std::size_t num_clients = preset.dataset.clients.size();

  sim::SimulatorConfig config;
  config.client = spec.client;
  config.rounds = spec.rounds;
  config.clients_per_round = std::min(spec.clients_per_round, num_clients);
  config.parallel_prepare = spec.parallel_prepare;
  config.threads = spec.threads;
  config.visibility_delay_rounds = spec.visibility_delay_rounds;
  config.seed = spec.seed;
  config.store = spec.store;
  // The runner only consumes run_round()'s return value; keeping every
  // round's trained payloads alive would defeat the payload store.
  config.keep_history = false;

  sim::DagSimulator simulator(std::move(preset.dataset), preset.factory, config);

  const std::vector<int> churned = churn_targets(spec, num_clients);
  AttackController attacks(spec.attacks, spec.seed, num_clients);
  std::optional<nn::Sequential> probe;
  ObsRoundSampler obs_sampler;

  std::size_t start_unit = 0;
  if (control.restore != nullptr) {
    result = control.restore->partial;
    replay_label_flips(spec, control.restore->completed_units, simulator, result);
    snapshot::restore_state(*control.restore, simulator, attacks);
    start_unit = control.restore->completed_units;
  }
  const std::size_t stop_unit = control.stop_unit == 0 ? spec.rounds : control.stop_unit;

  for (std::size_t round = start_unit; round < stop_unit; ++round) {
    apply_dynamics_at(spec, churned, round, simulator);
    apply_label_flip_at(spec, round, simulator, result);

    const sim::RoundRecord& record = simulator.run_round();
    ScenarioPoint point;
    point.round = round + 1;
    point.mean_accuracy = record.mean_trained_accuracy();
    point.mean_loss = record.mean_trained_loss();
    point.publishes = record.publish_count();
    point.active_clients = simulator.active_client_count();
    point.partitioned = simulator.partitioned();
    point.mean_walk_seconds = record.mean_walk_seconds();
    if (!record.results.empty()) {
      double evals = 0.0;
      for (const auto& r : record.results) {
        evals += static_cast<double>(r.walk_stats.evaluations);
        if (spec.record_client_accuracies) {
          point.client_accuracies.push_back(r.trained_eval.accuracy);
        }
      }
      point.mean_walk_evaluations = evals / static_cast<double>(record.results.size());
    }
    run_attack_step(round, attacks, simulator.network(), simulator.dataset(), probe,
                    preset.factory, point);
    point.dag_size = simulator.dag().size();
    fill_community_metrics(spec, simulator.dataset(), simulator.dag(), round + 1, point);
    result.series.push_back(point);
    result.store_series.push_back(sample_store_residency(round + 1, simulator.dag()));
    obs_sampler.sample_round(round + 1, result);
    maybe_write_checkpoint(spec, round + 1, result, simulator, attacks);
  }

  // Barrier: let queued async encodes settle so the final store stats (and
  // delta_ratio) match a synchronous run of the same spec.
  simulator.dag().store().drain();
  obs_sampler.finish(result);
  result.perf = simulator.perf();
  result.prepare_threads = simulator.prepare_threads();
  result.encode_threads = simulator.dag().store().encode_workers();
  if (control.finalize) {
    finalize_result(spec, simulator.dataset(), preset.factory, simulator.network(), attacks,
                    options, result);
    // The store's own measurement covers every encode site (inline commits,
    // background workers, attacker-published payloads), so it supersedes the
    // commit-section sampling accumulated by the simulator.
    result.perf.encode_seconds = result.store_stats.encode_seconds;
    warn_on_obs_perf_skew(result);
  }
  return result;
}

ScenarioResult run_async_scenario(const ScenarioSpec& spec, sim::ExperimentPreset preset,
                                  const RunOptions& options, const RunControl& control) {
  ScenarioResult result;
  const std::size_t num_clients = preset.dataset.clients.size();

  sim::AsyncSimulatorConfig config;
  config.client = spec.client;
  config.broadcast_latency = spec.broadcast_latency;
  config.seed = spec.seed;
  config.threads = spec.parallel_prepare ? spec.threads : 1;
  config.store = spec.store;

  sim::AsyncDagSimulator simulator(std::move(preset.dataset), preset.factory, config,
                                   straggler_profiles(spec, num_clients));

  const std::vector<int> churned = churn_targets(spec, num_clients);
  AttackController attacks(spec.attacks, spec.seed, num_clients);
  std::optional<nn::Sequential> probe;
  ObsRoundSampler obs_sampler;

  std::size_t start_unit = 0;
  if (control.restore != nullptr) {
    result = control.restore->partial;
    replay_label_flips(spec, control.restore->completed_units, simulator, result);
    snapshot::restore_state(*control.restore, simulator, attacks);
    start_unit = control.restore->completed_units;
  }
  const std::size_t stop_unit = control.stop_unit == 0 ? spec.rounds : control.stop_unit;

  std::size_t previous_dag_size = simulator.dag().size();
  for (std::size_t unit = start_unit; unit < stop_unit; ++unit) {
    // Dynamics and attacks fire at virtual-time boundaries, mirroring the
    // round-based schedule ("round" == one unit of virtual time).
    apply_dynamics_at(spec, churned, unit, simulator);
    apply_label_flip_at(spec, unit, simulator, result);

    const std::vector<sim::AsyncStepRecord> records =
        simulator.run_until(static_cast<double>(unit + 1));
    ScenarioPoint point;
    point.round = unit + 1;
    if (!records.empty()) {
      double acc = 0.0, loss = 0.0, walk_seconds = 0.0, walk_evals = 0.0;
      for (const auto& record : records) {
        acc += record.result.trained_eval.accuracy;
        loss += record.result.trained_eval.loss;
        walk_seconds += record.result.walk_stats.seconds;
        walk_evals += static_cast<double>(record.result.walk_stats.evaluations);
        if (spec.record_client_accuracies) {
          point.client_accuracies.push_back(record.result.trained_eval.accuracy);
        }
      }
      point.mean_accuracy = acc / static_cast<double>(records.size());
      point.mean_loss = loss / static_cast<double>(records.size());
      point.mean_walk_seconds = walk_seconds / static_cast<double>(records.size());
      point.mean_walk_evaluations = walk_evals / static_cast<double>(records.size());
    }
    // Honest publications of this unit; the attacker's junk is counted
    // separately in attacker_transactions.
    point.publishes = simulator.dag().size() - previous_dag_size;
    run_attack_step(unit, attacks, simulator.network(), simulator.dataset(), probe,
                    preset.factory, point);
    point.dag_size = simulator.dag().size();
    previous_dag_size = point.dag_size;
    point.active_clients = simulator.active_client_count();
    point.partitioned = simulator.partitioned();
    fill_community_metrics(spec, simulator.dataset(), simulator.dag(), unit + 1, point);
    result.series.push_back(point);
    result.store_series.push_back(sample_store_residency(unit + 1, simulator.dag()));
    obs_sampler.sample_round(unit + 1, result);
    maybe_write_checkpoint(spec, unit + 1, result, simulator, attacks);
  }

  // Barrier: let queued async encodes settle so the final store stats (and
  // delta_ratio) match a synchronous run of the same spec.
  simulator.dag().store().drain();
  obs_sampler.finish(result);
  result.perf = simulator.perf();
  result.prepare_threads = simulator.prepare_threads();
  result.encode_threads = simulator.dag().store().encode_workers();
  if (control.finalize) {
    finalize_result(spec, simulator.dataset(), preset.factory, simulator.network(), attacks,
                    options, result);
    // The store's own measurement covers every encode site (inline commits,
    // background workers, attacker-published payloads), so it supersedes the
    // commit-section sampling accumulated by the simulator.
    result.perf.encode_seconds = result.store_stats.encode_seconds;
    warn_on_obs_perf_skew(result);
  }
  return result;
}

// FedAvg/FedProx/gossip behind the same series/summary surface: identical
// dataset preset, rounds, and seed as a DAG run of the same spec, so one
// sweep axis flips the algorithm.
ScenarioResult run_baseline_scenario(const ScenarioSpec& spec, sim::ExperimentPreset preset,
                                     const RunOptions& options) {
  if (!options.export_dot.empty() || !options.export_jsonl.empty()) {
    throw std::invalid_argument("scenario: the " + to_string(spec.algorithm) +
                                " baseline builds no DAG to export");
  }
  ScenarioResult result;
  const std::size_t num_clients = preset.dataset.clients.size();
  const std::size_t per_round = std::min(spec.clients_per_round, num_clients);

  std::unique_ptr<BaselineBackend> backend;
  switch (spec.algorithm) {
    case AlgorithmKind::kFedAvg:
      backend = std::make_unique<FedAvgBackend>(std::move(preset.dataset), preset.factory,
                                                spec.client.train, /*proximal_mu=*/0.0,
                                                per_round, spec.seed);
      break;
    case AlgorithmKind::kFedProx:
      backend = std::make_unique<FedAvgBackend>(std::move(preset.dataset), preset.factory,
                                                spec.client.train, spec.proximal_mu, per_round,
                                                spec.seed);
      break;
    case AlgorithmKind::kGossip:
      backend = std::make_unique<GossipBackend>(std::move(preset.dataset), preset.factory,
                                                spec.client.train, per_round, spec.seed);
      break;
    case AlgorithmKind::kDag:
      throw std::logic_error("run_baseline_scenario: dag is not a baseline");
  }

  const LabelFlipAttackSpec& flip = spec.attacks.label_flip;
  for (std::size_t round = 0; round < spec.rounds; ++round) {
    apply_label_flip_at(spec, round, *backend, result);

    const std::vector<fl::EvalResult> evals = backend->run_round();
    ScenarioPoint point;
    point.round = round + 1;
    if (!evals.empty()) {
      double acc = 0.0, loss = 0.0;
      for (const auto& eval : evals) {
        acc += eval.accuracy;
        loss += eval.loss;
        if (spec.record_client_accuracies) point.client_accuracies.push_back(eval.accuracy);
      }
      point.mean_accuracy = acc / static_cast<double>(evals.size());
      point.mean_loss = loss / static_cast<double>(evals.size());
    }
    point.active_clients = num_clients;
    if (spec.attacks.measure_at(round)) {
      point.has_attack_metrics = true;
      point.flip_rate = backend->mean_benign_flip_rate(flip.class_a, flip.class_b);
    }
    result.series.push_back(std::move(point));
  }

  result.clients = num_clients;
  result.final_accuracy = tail_mean_accuracy(result.series);
  if (spec.evaluate_consensus) {
    result.consensus_accuracy = backend->mean_inference_accuracy();
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) { return run_scenario(spec, RunOptions{}); }

namespace {

// Scopes an obs context to one run: the session OWNS a fresh obs::Context
// (metrics flag from the spec, its own trace buffer) and installs it as the
// calling thread's active context for the whole run. ThreadPool propagates
// it into posted tasks, so pool workers attribute to this run too — which
// is what lets a parallel sweep run many sessions concurrently, each with
// correct summary.obs and its own trace file.
//
// The destructor runs after the dispatched scenario returned — by then the
// simulators (and their worker pools) are destroyed, so no span is left
// open in the trace file — and then *closes* the context: any straggler
// task still recording into it is counted and warned about (see
// Context::note_late_record) instead of silently skewing reported numbers.
class ObsSession {
 public:
  explicit ObsSession(const ObsSpec& spec)
      : context_(spec.metrics), scope_(&context_), tracing_(!spec.trace.empty()) {
    if (tracing_) context_.start_trace(spec.trace);
  }

  ~ObsSession() {
    if (tracing_) context_.stop_trace();
    context_.close();
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Context& context() { return context_; }

 private:
  obs::Context context_;
  obs::ContextScope scope_;
  bool tracing_;
};

// Shared body of run_scenario / resume_scenario / replay_scenario: the only
// difference between a fresh run and a resumed one is the RunControl carrying
// the restored state and loop bounds.
ScenarioResult run_scenario_impl(const ScenarioSpec& spec, const RunOptions& options,
                                 const RunControl& control) {
  spec.validate();
  Timer timer;
  ObsSession obs_session(spec.obs);
  sim::ExperimentPreset preset = build_preset(spec);

  ScenarioResult result;
  if (spec.algorithm != AlgorithmKind::kDag) {
    result = run_baseline_scenario(spec, std::move(preset), options);
  } else {
    result = spec.simulator == SimKind::kRound
                 ? run_round_scenario(spec, std::move(preset), options, control)
                 : run_async_scenario(spec, std::move(preset), options, control);
  }
  result.scenario = spec.name;
  result.seed = spec.seed;
  result.simulator = to_string(spec.simulator);
  result.algorithm = to_string(spec.algorithm);
  result.rounds = spec.rounds;
  result.attacked = spec.attacks.any();
  // Attack-phase means over the measured points (Figures 12/13 headline
  // numbers, independent of the backend). Probes taken after the label-flip
  // window healed stay in the series (recovery data) but are excluded here.
  const std::size_t flip_stop = spec.attacks.label_flip.stop_round;
  double flip_sum = 0.0, poison_sum = 0.0;
  std::size_t measured = 0, poison_measured = 0;
  for (const ScenarioPoint& point : result.series) {
    if (!point.has_attack_metrics) continue;
    if (flip_stop != 0 && point.round - 1 >= flip_stop) continue;
    flip_sum += point.flip_rate;
    ++measured;
    if (point.approved_poisoned >= 0.0) {
      poison_sum += point.approved_poisoned;
      ++poison_measured;
    }
  }
  if (measured > 0) result.mean_flip_rate = flip_sum / static_cast<double>(measured);
  if (poison_measured > 0) {
    result.mean_approved_poisoned = poison_sum / static_cast<double>(poison_measured);
  }
  result.wall_seconds = timer.elapsed_seconds();
  if (!spec.obs.metrics_out.empty()) {
    if (result.obs_enabled) {
      if (!obs::write_prometheus_file(spec.obs.metrics_out, result.obs_totals)) {
        SPECDAG_LOG(Warn) << "failed to write metrics file: " << spec.obs.metrics_out;
      }
    } else {
      SPECDAG_LOG(Warn) << "obs.metrics_out requested but no metrics were collected "
                           "(metrics disabled, compiled out, or baseline algorithm); "
                           "skipping " << spec.obs.metrics_out;
    }
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  return run_scenario_impl(spec, options, RunControl{});
}

ScenarioResult resume_scenario(const std::string& checkpoint_path,
                               const ResumeOverrides& overrides) {
  return resume_scenario(checkpoint_path, RunOptions{}, overrides);
}

ScenarioResult resume_scenario(const std::string& checkpoint_path, const RunOptions& options,
                               const ResumeOverrides& overrides) {
  snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(checkpoint_path);
  ScenarioSpec spec = loaded.spec;
  if (overrides.has_threads) spec.threads = overrides.threads;
  if (loaded.completed_units > spec.rounds) {
    throw snapshot::SnapshotError("snapshot: checkpoint covers " +
                                  std::to_string(loaded.completed_units) +
                                  " units but the spec runs only " +
                                  std::to_string(spec.rounds));
  }
  RunControl control;
  control.restore = &loaded;
  return run_scenario_impl(spec, options, control);
}

ScenarioResult replay_scenario(const std::string& checkpoint_path, std::size_t first_round,
                               std::size_t last_round, const ResumeOverrides& overrides) {
  snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(checkpoint_path);
  ScenarioSpec spec = loaded.spec;
  if (overrides.has_threads) spec.threads = overrides.threads;
  // A replay is a read-only re-execution: never write new checkpoints or obs
  // files from it.
  spec.checkpoint = CheckpointSpec{};
  spec.obs.trace.clear();
  spec.obs.metrics_out.clear();
  if (first_round == 0 || first_round > last_round) {
    throw std::invalid_argument("replay: rounds window must be 1-based and non-empty");
  }
  if (last_round > spec.rounds) {
    throw std::invalid_argument("replay: window ends at round " + std::to_string(last_round) +
                                " but the scenario has only " + std::to_string(spec.rounds) +
                                " rounds");
  }
  if (first_round <= loaded.completed_units) {
    throw std::invalid_argument("replay: checkpoint already covers round " +
                                std::to_string(first_round) +
                                "; pick an earlier checkpoint to replay it");
  }
  RunControl control;
  control.restore = &loaded;
  control.stop_unit = last_round;
  control.finalize = false;
  ScenarioResult result = run_scenario_impl(spec, RunOptions{}, control);
  // Keep only the requested window (the checkpoint's partial series covers
  // everything before first_round).
  const auto outside = [&](std::size_t round) {
    return round < first_round || round > last_round;
  };
  std::erase_if(result.series, [&](const ScenarioPoint& p) { return outside(p.round); });
  std::erase_if(result.store_series,
                [&](const StoreResidencyPoint& p) { return outside(p.round); });
  return result;
}

// Compact JSON for one histogram snapshot: count/sum/mean plus bucket-upper-
// bound quantiles (exact bucket counts stay in memory only — the exponential
// bounds make p50/p99/max readable without shipping 65 buckets per metric).
Json histogram_to_json(const obs::HistogramSnapshot& snapshot) {
  Json json = Json::make_object();
  json.set("count", snapshot.count);
  json.set("sum", snapshot.sum);
  json.set("mean", snapshot.mean());
  json.set("p50", snapshot.quantile_upper_bound(0.5));
  json.set("p99", snapshot.quantile_upper_bound(0.99));
  json.set("max", snapshot.max_upper_bound());
  return json;
}

Json metrics_snapshot_to_json(const obs::MetricsSnapshot& snapshot) {
  Json json = Json::make_object();
  Json counters = Json::make_object();
  for (const auto& [name, value] : snapshot.counters) counters.set(name, value);
  json.set("counters", std::move(counters));
  Json histograms = Json::make_object();
  for (const auto& [name, hist] : snapshot.histograms) {
    histograms.set(name, histogram_to_json(hist));
  }
  json.set("histograms", std::move(histograms));
  return json;
}

namespace {

// One series point as a JSON object (shared by the summary's series array
// and the JSONL stream).
Json point_to_json(const ScenarioPoint& point) {
  Json row = Json::make_object();
  row.set("round", point.round);
  row.set("mean_accuracy", point.mean_accuracy);
  row.set("mean_loss", point.mean_loss);
  row.set("publishes", point.publishes);
  row.set("dag_size", point.dag_size);
  row.set("active_clients", point.active_clients);
  if (point.partitioned) row.set("partitioned", true);
  if (point.mean_walk_seconds > 0.0) {
    row.set("mean_walk_seconds", point.mean_walk_seconds);
    row.set("mean_walk_evaluations", point.mean_walk_evaluations);
  }
  if (point.attacker_transactions > 0) {
    row.set("attacker_transactions", point.attacker_transactions);
  }
  if (point.has_attack_metrics) {
    row.set("flip_rate", point.flip_rate);
    if (point.approved_poisoned >= 0.0) row.set("approved_poisoned", point.approved_poisoned);
  }
  if (!point.client_accuracies.empty()) {
    Json accuracies = Json::make_array();
    for (double accuracy : point.client_accuracies) {
      accuracies.as_array().push_back(Json(accuracy));
    }
    row.set("client_accuracies", std::move(accuracies));
  }
  if (point.has_community_metrics) {
    row.set("modularity", point.modularity);
    row.set("communities", point.communities);
    row.set("misclassification", point.misclassification);
  }
  return row;
}

}  // namespace

Json result_to_json(const ScenarioResult& result, bool include_series) {
  Json json = Json::make_object();
  json.set("scenario", result.scenario);
  json.set("seed", result.seed);
  json.set("simulator", result.simulator);
  json.set("algorithm", result.algorithm);
  json.set("rounds", result.rounds);
  json.set("clients", result.clients);

  Json summary = Json::make_object();
  summary.set("final_accuracy", result.final_accuracy);
  if (result.consensus_accuracy >= 0.0) {
    summary.set("consensus_accuracy", result.consensus_accuracy);
  }
  summary.set("wall_seconds", result.wall_seconds);

  // DAG-structure metrics only exist for the dag algorithm (every DAG run
  // holds at least the genesis transaction).
  if (result.dag_size > 0) {
    summary.set("dag_size", result.dag_size);
    summary.set("pureness", result.pureness);
    summary.set("base_pureness", result.base_pureness);
    summary.set("modularity", result.modularity);
    summary.set("communities", result.communities);
    summary.set("mean_cumulative_weight", result.mean_cumulative_weight);
    summary.set("tips", result.tips);

    Json store = Json::make_object();
    store.set("payloads", result.store_stats.payloads);
    store.set("anchors", result.store_stats.anchors);
    store.set("deltas", result.store_stats.deltas);
    store.set("dedup_hits", result.store_stats.dedup_hits);
    store.set("resident_payload_bytes", result.store_stats.resident_payload_bytes);
    store.set("full_payload_bytes", result.store_stats.full_payload_bytes);
    store.set("delta_ratio", result.store_stats.delta_ratio());
    store.set("lru_bytes", result.store_stats.lru_bytes);
    store.set("lru_entries", result.store_stats.lru_entries);
    store.set("lru_hit_rate", result.store_stats.lru_hit_rate());
    store.set("decoded_payloads", result.store_stats.decoded_payloads);
    // Async encode pipeline: pending_encodes is 0 after the runner's drain
    // barrier; the peak and the per-point residency array show how deep the
    // queue ran and how the raw-vs-delta split evolved during the run.
    store.set("pending_encodes", result.store_stats.pending_encodes);
    store.set("peak_pending_encodes", result.store_stats.peak_pending_encodes);
    store.set("async_encoded", result.store_stats.async_encoded);
    if (!result.store_series.empty()) {
      Json residency = Json::make_array();
      for (const StoreResidencyPoint& sample : result.store_series) {
        Json row = Json::make_object();
        row.set("round", sample.round);
        row.set("pending_encodes", sample.pending_encodes);
        row.set("raw_payloads", sample.raw_payloads);
        row.set("delta_payloads", sample.delta_payloads);
        row.set("resident_bytes", sample.resident_bytes);
        residency.as_array().push_back(std::move(row));
      }
      store.set("residency", std::move(residency));
    }
    summary.set("store", std::move(store));

    Json eval_cache = Json::make_object();
    eval_cache.set("hits", result.eval_cache_stats.hits);
    eval_cache.set("misses", result.eval_cache_stats.misses);
    eval_cache.set("entries", result.eval_cache_stats.entries);
    eval_cache.set("hit_rate", result.eval_cache_stats.hit_rate());
    eval_cache.set("invalidations", result.eval_cache_stats.invalidations);
    summary.set("eval_cache", std::move(eval_cache));

    // Per-phase timing breakdown of the simulation (see sim/perf.hpp):
    // tipsel/train/eval are aggregate busy seconds over the prepared
    // clients, commit is serialized wall time.
    if (result.perf.prepares > 0) {
      Json perf = Json::make_object();
      perf.set("tipsel_seconds", result.perf.tipsel_seconds);
      perf.set("train_seconds", result.perf.train_seconds);
      perf.set("eval_seconds", result.perf.eval_seconds);
      perf.set("commit_seconds", result.perf.commit_seconds);
      perf.set("encode_seconds", result.perf.encode_seconds);
      perf.set("total_seconds", result.perf.total_seconds);
      perf.set("prepares", result.perf.prepares);
      perf.set("commits", result.perf.commits);
      perf.set("threads", result.prepare_threads);
      perf.set("encode_threads", result.encode_threads);
      // Normalizes the busy/wall bucket mix into one comparable number
      // across thread counts.
      perf.set("utilization", utilization(result));
      summary.set("perf", std::move(perf));
    }

    // Obs metrics rollup (src/obs): whole-run registry deltas plus the
    // per-round samples. Timing-dependent, so it lives here in the summary
    // (like store.residency), never in the per-point series/JSONL.
    if (result.obs_enabled) {
      Json obs = metrics_snapshot_to_json(result.obs_totals);
      if (!result.obs_series.empty()) {
        Json rounds = Json::make_array();
        for (const ObsRoundPoint& sample : result.obs_series) {
          Json row = Json::make_object();
          row.set("round", sample.round);
          Json counters = Json::make_object();
          for (const auto& [name, value] : sample.delta.counters) {
            if (value > 0) counters.set(name, value);
          }
          row.set("counters", std::move(counters));
          rounds.as_array().push_back(std::move(row));
        }
        obs.set("rounds", std::move(rounds));
      }
      summary.set("obs", std::move(obs));
    }
  }

  if (result.attacked) {
    Json attack = Json::make_object();
    attack.set("attacker_transactions", result.attacker_transactions);
    if (result.junk_reference_fraction >= 0.0) {
      attack.set("junk_reference_fraction", result.junk_reference_fraction);
    }
    attack.set("poisoned_clients", result.poisoned_clients);
    if (result.mean_flip_rate >= 0.0) attack.set("mean_flip_rate", result.mean_flip_rate);
    if (result.mean_approved_poisoned >= 0.0) {
      attack.set("mean_approved_poisoned", result.mean_approved_poisoned);
    }
    if (!result.poison_communities.empty()) {
      Json communities = Json::make_array();
      for (const auto& [benign, poisoned] : result.poison_communities) {
        Json row = Json::make_object();
        row.set("benign", benign);
        row.set("poisoned", poisoned);
        communities.as_array().push_back(std::move(row));
      }
      attack.set("poison_communities", std::move(communities));
    }
    summary.set("attack", std::move(attack));
  }

  json.set("summary", std::move(summary));

  if (include_series) {
    Json series = Json::make_array();
    for (const ScenarioPoint& point : result.series) {
      series.as_array().push_back(point_to_json(point));
    }
    json.set("series", std::move(series));
  }
  return json;
}

void write_series_csv(const ScenarioResult& result, const std::string& path) {
  CsvWriter csv(path, {"round", "mean_accuracy", "mean_loss", "publishes", "dag_size",
                       "active_clients", "partitioned", "attacker_transactions", "flip_rate",
                       "approved_poisoned"});
  for (const ScenarioPoint& point : result.series) {
    csv.row({std::to_string(point.round), std::to_string(point.mean_accuracy),
             std::to_string(point.mean_loss), std::to_string(point.publishes),
             std::to_string(point.dag_size), std::to_string(point.active_clients),
             point.partitioned ? "1" : "0", std::to_string(point.attacker_transactions),
             point.has_attack_metrics ? std::to_string(point.flip_rate) : "",
             point.has_attack_metrics && point.approved_poisoned >= 0.0
                 ? std::to_string(point.approved_poisoned)
                 : ""});
  }
}

void write_series_jsonl(const ScenarioResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_series_jsonl: cannot open " + path);
  write_series_jsonl(result, out);
}

void write_series_jsonl(const ScenarioResult& result, std::ostream& out) {
  for (const ScenarioPoint& point : result.series) {
    Json row = point_to_json(point);
    row.set("scenario", result.scenario);
    row.set("algorithm", result.algorithm);
    row.set("seed", result.seed);
    out << row.dump() << "\n";
  }
}

}  // namespace specdag::scenario
