// specbench: times one named workload of the specdag simulator, checks its
// outputs, and prints one JSON result line.
//
//   specbench --workload-file W.json --seed N --seconds S --trace 0|1
//             [--trace-out spans.json]
//
// A workload file holds a scenario spec plus the benchmark's settings for it
// (see README.md). The run's inputs are `inputs` scenario seeds derived from
// --seed; the run takes them in turn, each at least once, for about
// --seconds seconds. Each scenario run ("rep") mirrors scenario::run_scenario
// for a spec without dynamics or attacks: build the preset's dataset and
// model, construct the simulator, run every round (or unit of virtual time),
// drain the store, and compute the final metrics. The harness makes these
// calls itself so it can time each of them and inspect the finished DAG.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, for which every input runs twice (untraced, then with the
// harness's spans and layer probes) so the run also reports its own tracing
// overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "data/synthetic_digits.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "store/delta_codec.hpp"

namespace specbench {
namespace {

namespace sd = specdag;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Harness-side spans: name, start and duration on the main thread, kept in
// memory and written as Chrome trace-event JSON at the end of the run.
class Tracer {
 public:
  void add(const char* name, Clock::time_point start, std::size_t rep) {
    spans_.push_back({name, start, Clock::now(), rep});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
      };
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start - kProcessStart)
          << ",\"dur\":" << us(s.end - s.start) << ",\"args\":{\"rep\":" << s.rep << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::size_t rep;
  };
  std::vector<Span> spans_;
};

// Times `fn`, adding its duration to `seconds` and, when tracing, a span.
template <typename Fn>
auto timed(const char* name, double& seconds, Tracer* tracer, std::size_t rep, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  struct Finish {
    const char* name;
    double& seconds;
    Tracer* tracer;
    std::size_t rep;
    Clock::time_point start;
    ~Finish() {
      seconds += seconds_since(start);
      if (tracer) tracer->add(name, start, rep);
    }
  } finish{name, seconds, tracer, rep, start};
  return fn();
}

struct Workload {
  sd::scenario::ScenarioSpec spec;
  std::size_t inputs = 1;        // distinct scenario seeds per run
  double accuracy_floor = 0.0;   // 0 = no floor
  bool clustered = false;        // pureness must beat the random-approval base
  bool serial_replay = false;    // compare with scenario::run_scenario at 1 worker
};

Workload load_workload(const std::string& path) {
  const sd::scenario::Json json = sd::scenario::Json::parse_file(path);
  for (const auto& [key, value] : json.as_object()) {
    if (key != "spec" && key != "inputs" && key != "accuracy_floor" && key != "clustered" &&
        key != "serial_replay" && key != "why") {
      throw std::invalid_argument(path + ": unknown key " + key);
    }
  }
  Workload w;
  const sd::scenario::Json* spec = json.find("spec");
  if (spec == nullptr) throw std::invalid_argument(path + ": no spec");
  w.spec = sd::scenario::spec_from_json(*spec);
  w.spec.validate();
  if (w.spec.algorithm != sd::scenario::AlgorithmKind::kDag || w.spec.dynamics.any() ||
      w.spec.attacks.any() || w.spec.threads == 0 || w.spec.checkpoint.enabled() ||
      !w.spec.obs.trace.empty() || w.spec.community_metrics_every != 0) {
    throw std::invalid_argument(path + ": the harness runs DAG specs with a fixed worker count "
                                       "and no dynamics, attacks, checkpoints or traces");
  }
  w.inputs = json.uint_or("inputs", 1);
  if (w.inputs == 0) throw std::invalid_argument(path + ": inputs must be >= 1");
  w.accuracy_floor = json.number_or("accuracy_floor", 0.0);
  w.clustered = json.bool_or("clustered", false);
  w.serial_replay = json.bool_or("serial_replay", false);
  return w;
}

// The scenario runner's dataset construction (runner.cpp build_preset).
sd::sim::ExperimentPreset build_preset(const sd::scenario::ScenarioSpec& spec) {
  using sd::scenario::DatasetPreset;
  const sd::sim::PresetOptions options{spec.seed, spec.paper_scale};
  sd::sim::ExperimentPreset preset;
  switch (spec.dataset) {
    case DatasetPreset::kFmnistClustered: preset = sd::sim::fmnist_clustered_preset(options); break;
    case DatasetPreset::kFmnistRelaxed: preset = sd::sim::fmnist_relaxed_preset(options); break;
    case DatasetPreset::kFmnistByAuthor: preset = sd::sim::fmnist_by_author_preset(options); break;
    case DatasetPreset::kPoets: preset = sd::sim::poets_preset(options); break;
    case DatasetPreset::kCifar: preset = sd::sim::cifar_preset(options); break;
    case DatasetPreset::kFedproxSynthetic:
      preset = sd::sim::fedprox_synthetic_preset(options);
      break;
  }
  if (spec.num_clients > 0 || spec.samples_per_client > 0) {
    if (spec.dataset == DatasetPreset::kFedproxSynthetic) {
      sd::data::FedProxSyntheticConfig config;
      config.seed = spec.seed;
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      preset.dataset = sd::data::make_fedprox_synthetic(config);
    } else {
      sd::data::SyntheticDigitsConfig config;
      config.seed = spec.seed;
      if (spec.dataset == DatasetPreset::kFmnistRelaxed) {
        config.relax_min = 0.15;
        config.relax_max = 0.20;
      }
      if (spec.num_clients > 0) config.num_clients = spec.num_clients;
      if (spec.samples_per_client > 0) config.samples_per_client = spec.samples_per_client;
      preset.dataset = spec.dataset == DatasetPreset::kFmnistByAuthor
                           ? sd::data::make_fmnist_by_author(config)
                           : sd::data::make_fmnist_clustered(config);
    }
  }
  return preset;
}

// Per-layer probes: timed calls into the store and codec on the payloads of
// a finished run (traced reps only).
struct Probes {
  double put_seconds = 0.0;
  std::size_t puts = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  double codec_bytes = 0.0;
};

struct Rep {
  double setup_from_start = 0.0;  // first rep of the process only
  double build_s = 0.0, construct_s = 0.0, sim_s = 0.0, run_s = 0.0;
  double pureness_s = 0.0, client_graph_s = 0.0, louvain_s = 0.0;
  double get_s = 0.0;
  std::size_t gets = 0;
  std::size_t workers = 0;  // prepare workers plus async encode workers
  sd::sim::PhaseTimings perf;
  sd::store::StoreStats store;
  sd::store::EvalCacheStats cache;
  sd::obs::MetricsSnapshot obs;
  Probes probes;
  std::vector<SeriesPoint> series;
  double final_accuracy = 0.0;
  std::vector<Failure> failures;
};

// Replays the finished DAG's payloads into a fresh store (Store::put with
// the parents' payloads as delta bases) and round-trips up to `codec_sample`
// of the newest payloads through the delta codec against their parents'
// average. Reports a failure if either changes a payload.
Probes run_probes(const sd::dag::Dag& dag, const sd::store::StoreConfig& config,
                  std::vector<Failure>& failures) {
  constexpr std::size_t kCodecSample = 256;
  Probes probes;
  const std::size_t n = dag.size();
  {
    sd::store::ModelStore store(config);
    std::vector<sd::store::PayloadId> ids(n);
    for (sd::dag::TxId id = 0; id < n; ++id) {
      std::vector<sd::store::PayloadId> bases;
      for (sd::dag::TxId parent : dag.parents(id)) bases.push_back(ids[parent]);
      sd::store::WeightsPtr weights = dag.weights(id);
      const Clock::time_point start = Clock::now();
      ids[id] = store.put(std::move(weights), bases);
      probes.put_seconds += seconds_since(start);
      ++probes.puts;
    }
    store.drain();
    for (sd::dag::TxId id = 0; id < n; ++id) {
      if (!(store.hash_of(ids[id]) == dag.payload_hash(id))) {
        failures.push_back({"payload_hash", "store replay changed the payload of tx " +
                                                std::to_string(id)});
        break;
      }
    }
  }
  const std::size_t first = n > kCodecSample ? n - kCodecSample : 1;
  std::vector<float> base, decoded;
  for (sd::dag::TxId id = first; id < n; ++id) {
    const sd::store::WeightsPtr values = dag.weights(id);
    const std::vector<sd::dag::TxId> parents = dag.parents(id);
    base.assign(values->size(), 0.0f);
    for (sd::dag::TxId parent : parents) {
      const sd::store::WeightsPtr p = dag.weights(parent);
      for (std::size_t i = 0; i < base.size(); ++i) base[i] += (*p)[i];
    }
    for (float& b : base) b /= static_cast<float>(parents.size());
    decoded.assign(values->size(), 0.0f);
    Clock::time_point start = Clock::now();
    const std::vector<std::uint8_t> encoded =
        sd::store::encode_delta(values->data(), base.data(), values->size());
    probes.encode_seconds += seconds_since(start);
    start = Clock::now();
    sd::store::decode_delta(encoded.data(), encoded.size(), base.data(), decoded.data(),
                            decoded.size());
    probes.decode_seconds += seconds_since(start);
    probes.codec_bytes += static_cast<double>(values->size() * sizeof(float));
    if (std::memcmp(decoded.data(), values->data(), decoded.size() * sizeof(float)) != 0) {
      failures.push_back({"payload_hash", "delta codec round trip changed tx " +
                                              std::to_string(id)});
      break;
    }
  }
  return probes;
}

double tail_mean_accuracy(const std::vector<SeriesPoint>& series) {
  if (series.empty()) return 0.0;
  const std::size_t tail = std::max<std::size_t>(1, series.size() / 10);
  double sum = 0.0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) {
    sum += series[i].mean_accuracy;
  }
  return sum / static_cast<double>(tail);
}

void simulate(sd::sim::DagSimulator& sim, const sd::scenario::ScenarioSpec& spec,
              std::vector<SeriesPoint>& series, Tracer* tracer, std::size_t rep) {
  for (std::size_t round = 0; round < spec.rounds; ++round) {
    const Clock::time_point start = Clock::now();
    const sd::sim::RoundRecord& record = sim.run_round();
    series.push_back({round + 1, record.mean_trained_accuracy(), record.mean_trained_loss(),
                      record.publish_count(), sim.dag().size()});
    if (tracer) tracer->add("sim.round", start, rep);
  }
}

void simulate(sd::sim::AsyncDagSimulator& sim, const sd::scenario::ScenarioSpec& spec,
              std::vector<SeriesPoint>& series, Tracer* tracer, std::size_t rep) {
  std::size_t previous_size = sim.dag().size();
  for (std::size_t unit = 0; unit < spec.rounds; ++unit) {
    const Clock::time_point start = Clock::now();
    const std::vector<sd::sim::AsyncStepRecord> records =
        sim.run_until(static_cast<double>(unit + 1));
    SeriesPoint point{unit + 1, 0.0, 0.0, sim.dag().size() - previous_size, sim.dag().size()};
    if (!records.empty()) {
      for (const auto& r : records) {
        point.mean_accuracy += r.result.trained_eval.accuracy;
        point.mean_loss += r.result.trained_eval.loss;
      }
      point.mean_accuracy /= static_cast<double>(records.size());
      point.mean_loss /= static_cast<double>(records.size());
    }
    previous_size = point.dag_size;
    series.push_back(point);
    if (tracer) tracer->add("sim.unit", start, rep);
  }
}

std::unique_ptr<sd::sim::DagSimulator> make_simulator(sd::sim::ExperimentPreset& preset,
                                                      const sd::scenario::ScenarioSpec& spec,
                                                      sd::sim::DagSimulator*) {
  sd::sim::SimulatorConfig config;
  config.client = spec.client;
  config.rounds = spec.rounds;
  config.clients_per_round = std::min(spec.clients_per_round, preset.dataset.clients.size());
  config.parallel_prepare = spec.parallel_prepare;
  config.threads = spec.threads;
  config.visibility_delay_rounds = spec.visibility_delay_rounds;
  config.seed = spec.seed;
  config.store = spec.store;
  config.keep_history = false;
  return std::make_unique<sd::sim::DagSimulator>(std::move(preset.dataset), preset.factory,
                                                 config);
}

std::unique_ptr<sd::sim::AsyncDagSimulator> make_simulator(
    sd::sim::ExperimentPreset& preset, const sd::scenario::ScenarioSpec& spec,
    sd::sim::AsyncDagSimulator*) {
  sd::sim::AsyncSimulatorConfig config;
  config.client = spec.client;
  config.broadcast_latency = spec.broadcast_latency;
  config.seed = spec.seed;
  config.threads = spec.parallel_prepare ? spec.threads : 1;
  config.store = spec.store;
  return std::make_unique<sd::sim::AsyncDagSimulator>(std::move(preset.dataset), preset.factory,
                                                      config);
}

struct RepOptions {
  std::size_t index = 0;
  Tracer* tracer = nullptr;  // non-null: traced rep (spans and layer probes)
  bool first = false;        // first rep of the process: report cold set-up
  bool self_test = false;    // prove the checks on corrupted copies of this rep
};

template <typename Sim>
Rep run_rep(const Workload& w, std::uint64_t seed, const RepOptions& opt) {
  sd::scenario::ScenarioSpec spec = w.spec;
  spec.seed = seed;
  sd::obs::Context context(spec.obs.metrics);
  sd::obs::ContextScope scope(&context);
  Tracer* tracer = opt.tracer;
  Rep rep;

  const Clock::time_point run_start = Clock::now();
  sd::sim::ExperimentPreset preset =
      timed("data.build", rep.build_s, tracer, opt.index, [&] { return build_preset(spec); });
  std::unique_ptr<Sim> sim = timed("sim.construct", rep.construct_s, tracer, opt.index,
                                         [&] { return make_simulator(preset, spec, (Sim*)nullptr); });
  if (opt.first) rep.setup_from_start = seconds_since(kProcessStart);
  timed("sim.simulate", rep.sim_s, tracer, opt.index, [&] {
    simulate(*sim, spec, rep.series, tracer, opt.index);
    sim->dag().store().drain();
  });

  const sd::dag::Dag& dag = sim->dag();
  std::vector<int> clusters;
  for (const auto& client : sim->dataset().clients) clusters.push_back(client.true_cluster);
  rep.final_accuracy = tail_mean_accuracy(rep.series);
  const sd::metrics::PurenessResult pureness = timed(
      "metrics.pureness", rep.pureness_s, tracer, opt.index,
      [&] { return sd::metrics::approval_pureness(dag, clusters); });
  std::map<int, std::size_t> sizes;
  for (int c : clusters) {
    if (c >= 0) ++sizes[c];
  }
  std::vector<std::size_t> cluster_sizes;
  for (const auto& [cluster, size] : sizes) cluster_sizes.push_back(size);
  const double base_pureness =
      cluster_sizes.empty() ? 0.0 : sd::metrics::base_pureness(cluster_sizes);
  const sd::metrics::ClientGraph graph =
      timed("metrics.client_graph", rep.client_graph_s, tracer, opt.index,
            [&] { return sd::metrics::build_client_graph(dag, clusters.size()); });
  timed("metrics.louvain", rep.louvain_s, tracer, opt.index, [&] {
    sd::Rng louvain_rng = sd::Rng(spec.seed).fork(0x10CA);
    return sd::metrics::louvain(graph, louvain_rng);
  });
  // The runner also reports the weight summary; computed for its cost only.
  sd::metrics::dag_weight_summary(dag);
  rep.run_s = seconds_since(run_start);

  rep.store = dag.store().stats();
  rep.perf = sim->perf();
  rep.perf.encode_seconds = rep.store.encode_seconds;  // as the runner reports it
  rep.workers = sim->prepare_threads() + (spec.store.async_encode ? spec.store.encode_threads : 0);
  rep.cache = sim->network().eval_cache()->stats();
  rep.obs = context.snapshot();

  RunFacts facts = collect_facts(dag, tracer ? 1 : spec.threads, rep.get_s);
  rep.gets = dag.size();
  facts.client_cluster = clusters;
  facts.reported_pureness = pureness.pureness;
  facts.base_pureness = base_pureness;
  facts.series = rep.series;
  facts.client_steps = rep.perf.prepares;
  facts.final_accuracy = rep.final_accuracy;
  Expectations expect;
  if (spec.simulator == sd::scenario::SimKind::kRound) {
    expect.expected_steps = spec.rounds * std::min(spec.clients_per_round, clusters.size());
  }
  expect.clustered = w.clustered;
  expect.accuracy_floor = w.accuracy_floor;
  rep.failures = check_run(facts, expect);
  if (opt.self_test) {
    for (Failure& f : self_test(facts, expect, dag)) rep.failures.push_back(std::move(f));
  }
  if (tracer) rep.probes = run_probes(dag, spec.store, rep.failures);
  // run_scenario's caller also waits for the simulator's teardown.
  timed("sim.destroy", rep.run_s, tracer, opt.index, [&] { sim.reset(); });
  context.close();
  return rep;
}

Rep run_rep(const Workload& w, std::uint64_t seed, const RepOptions& opt) {
  return w.spec.simulator == sd::scenario::SimKind::kRound
             ? run_rep<sd::sim::DagSimulator>(w, seed, opt)
             : run_rep<sd::sim::AsyncDagSimulator>(w, seed, opt);
}

// scenario::run_scenario at one prepare worker on the first input: its
// per-round series must equal the harness's multi-worker one bit for bit.
void serial_replay(const Workload& w, std::uint64_t seed, const Rep& reference,
                   std::vector<Failure>& failures) {
  sd::scenario::ScenarioSpec spec = w.spec;
  spec.seed = seed;
  spec.threads = 1;
  const sd::scenario::ScenarioResult result = sd::scenario::run_scenario(spec);
  std::vector<SeriesPoint> series;
  for (const auto& p : result.series) {
    series.push_back({p.round, p.mean_accuracy, p.mean_loss, p.publishes, p.dag_size});
  }
  if (!series_identical(series, reference.series) ||
      result.final_accuracy != reference.final_accuracy) {
    failures.push_back({"determinism", "run_scenario at 1 worker differs from the harness run "
                                       "at " + std::to_string(w.spec.threads) + " workers"});
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload_file;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload-file") {
      args.workload_file = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload_file.empty() || !have_seed || !have_seconds || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: specbench --workload-file W.json --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE]");
  }
  return args;
}

// Scenario seed of input `i` of a run: distinct per (--seed, i), and never
// the same for two --seed values.
std::uint64_t input_seed(std::uint64_t seed, std::size_t i) { return seed * 1000 + i + 1; }

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  const Workload w = load_workload(args.workload_file);
  std::optional<Tracer> tracer;
  if (args.trace) tracer.emplace();

  std::vector<Rep> untraced, traced;
  std::vector<std::vector<SeriesPoint>> first_series(w.inputs);
  std::vector<double> input_accuracy(w.inputs);
  std::vector<Failure> failures;
  // `reference`: the input's first untraced rep, which later reps of the
  // same input must reproduce bit for bit.
  const auto record = [&](Rep rep, std::size_t input, bool reference, bool is_traced) {
    std::fprintf(stderr,
                 "specbench: input %zu%s run_s %.3f build_s %.3f construct_s %.3f sim_s %.3f "
                 "steps %zu get_s %.3f at %.3f\n",
                 input, is_traced ? " (traced)" : "", rep.run_s, rep.build_s, rep.construct_s,
                 rep.sim_s, static_cast<std::size_t>(rep.perf.prepares), rep.get_s,
                 seconds_since(kProcessStart));
    for (Failure& f : rep.failures) failures.push_back(std::move(f));
    if (reference) {
      first_series[input] = rep.series;
      input_accuracy[input] = rep.final_accuracy;
    } else if (!series_identical(rep.series, first_series[input])) {
      failures.push_back({"determinism", "input " + std::to_string(input) +
                                             " gave a different series on a repeated run"});
    }
    (is_traced ? traced : untraced).push_back(std::move(rep));
  };

  // Input k % inputs runs k-th, so every input runs once before any runs
  // again; after that the run stops at the scenario-run boundary nearest to
  // the requested run length.
  const Clock::time_point loop_start = Clock::now();
  std::size_t reps = 0;
  for (std::size_t k = 0;; ++k) {
    const Clock::time_point step_start = Clock::now();
    const std::size_t input = k % w.inputs;
    const std::uint64_t seed = input_seed(args.seed, input);
    RepOptions opt;
    opt.index = reps;
    opt.first = k == 0;
    opt.self_test = k == 0;
    record(run_rep(w, seed, opt), input, k < w.inputs, false);
    ++reps;
    if (args.trace) {
      opt = RepOptions{};
      opt.index = reps;
      opt.tracer = &*tracer;
      record(run_rep(w, seed, opt), input, false, true);
      ++reps;
    }
    if (k + 1 >= w.inputs &&
        seconds_since(loop_start) + seconds_since(step_start) / 2.0 >= args.seconds) {
      break;
    }
  }
  const double rss_mb = peak_rss_mb();
  if (w.serial_replay) serial_replay(w, input_seed(args.seed, 0), untraced.front(), failures);
  for (const Failure& f : failures) {
    std::cerr << "specbench: check " << f.check << " failed: " << f.message << "\n";
  }

  const auto sum = [](const std::vector<Rep>& reps, auto field) {
    double total = 0.0;
    for (const Rep& r : reps) total += static_cast<double>(field(r));
    return total;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<Metric> metrics;
  if (!args.trace) {
    double accuracy = 0.0;
    for (double a : input_accuracy) accuracy += a;
    // Medians over the scenario runs: a run caught in one of the host's slow
    // phases moves them by at most one rank.
    const auto median = [&](auto field) {
      std::vector<double> values;
      for (const Rep& r : untraced) values.push_back(static_cast<double>(field(r)));
      std::sort(values.begin(), values.end());
      const std::size_t mid = values.size() / 2;
      return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
    };
    metrics = {
        {"run_s", median([](const Rep& r) { return r.run_s; }), "s"},
        {"setup_s", untraced.front().setup_from_start, "s"},
        {"client_steps_per_s",
         median([&](const Rep& r) { return ratio(static_cast<double>(r.perf.prepares), r.sim_s); }),
         "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"final_accuracy", accuracy / static_cast<double>(w.inputs), "fraction"},
    };
  } else {
    const std::vector<Rep>& t = traced;
    const double n = static_cast<double>(t.size());
    const auto mean = [&](auto field) { return sum(t, field) / n; };
    const auto counter = [](const char* name) {
      return [name](const Rep& r) { return r.obs.counter(name); };
    };
    const double train_samples = static_cast<double>(w.spec.client.train.local_epochs *
                                                     w.spec.client.train.local_batches *
                                                     w.spec.client.train.batch_size);
    const double batches = sum(t, counter("train.batches"));
    const double lru_hits = sum(t, [](const Rep& r) { return r.store.lru_hits; });
    const double lru_lookups =
        lru_hits + sum(t, [](const Rep& r) { return r.store.lru_misses; });
    const double cache_hits = sum(t, [](const Rep& r) { return r.cache.hits; });
    metrics = {
        {"data.build_s", mean([](const Rep& r) { return r.build_s; }), "s"},
        {"sim.construct_s", mean([](const Rep& r) { return r.construct_s; }), "s"},
        {"sim.idle_share",
         1.0 - ratio(sum(t, [](const Rep& r) { return r.perf.phase_sum_seconds(); }),
                     sum(t, [](const Rep& r) {
                       return r.perf.total_seconds * static_cast<double>(r.workers);
                     })),
         "fraction"},
        {"tipsel.walk_us",
         1e6 * ratio(sum(t, [](const Rep& r) { return r.perf.tipsel_seconds; }),
                     sum(t, counter("tipsel.walks"))),
         "us"},
        {"tipsel.walk_steps",
         mean([](const Rep& r) { return r.obs.histogram("tipsel.walk_steps").sum; }), "count"},
        {"tipsel.evaluations", mean(counter("tipsel.evaluations")), "count"},
        {"store.evalcache_hit_share",
         ratio(cache_hits, cache_hits + sum(t, [](const Rep& r) { return r.cache.misses; })),
         "fraction"},
        {"fl.train_samples_per_s",
         ratio(train_samples * sum(t, [](const Rep& r) { return r.perf.prepares; }),
               sum(t, [](const Rep& r) { return r.perf.train_seconds; })),
         "1/s"},
        {"fl.lanes_per_group",
         batches > 0.0 ? sum(t, counter("train.fused_lanes")) / batches : 1.0, "count"},
        {"fl.eval_models_per_s",
         ratio(2.0 * sum(t, [](const Rep& r) { return r.perf.prepares; }),
               sum(t, [](const Rep& r) { return r.perf.eval_seconds; })),
         "1/s"},
        {"dag.append_us",
         1e6 * ratio(sum(t, [](const Rep& r) { return r.perf.commit_seconds; }),
                     sum(t, [](const Rep& r) { return r.perf.commits; })),
         "us"},
        {"store.put_us",
         1e6 * ratio(sum(t, [](const Rep& r) { return r.probes.put_seconds; }),
                     sum(t, [](const Rep& r) { return r.probes.puts; })),
         "us"},
        {"store.get_us",
         1e6 * ratio(sum(t, [](const Rep& r) { return r.get_s; }),
                     sum(t, [](const Rep& r) { return r.gets; })),
         "us"},
        {"store.lru_hit_share", lru_lookups > 0.0 ? lru_hits / lru_lookups : 1.0, "fraction"},
        {"store.encode_mb_per_s",
         ratio(sum(t, [](const Rep& r) { return r.probes.codec_bytes; }),
               sum(t, [](const Rep& r) { return r.probes.encode_seconds; })) / 1e6,
         "MB/s"},
        {"store.decode_mb_per_s",
         ratio(sum(t, [](const Rep& r) { return r.probes.codec_bytes; }),
               sum(t, [](const Rep& r) { return r.probes.decode_seconds; })) / 1e6,
         "MB/s"},
        {"store.resident_mb",
         mean([](const Rep& r) { return r.store.resident_payload_bytes; }) / 1e6, "MB"},
        {"store.delta_ratio", mean([](const Rep& r) { return r.store.delta_ratio(); }), "ratio"},
        {"metrics.pureness_s", mean([](const Rep& r) { return r.pureness_s; }), "s"},
        {"metrics.client_graph_s", mean([](const Rep& r) { return r.client_graph_s; }), "s"},
        {"metrics.louvain_s", mean([](const Rep& r) { return r.louvain_s; }), "s"},
        {"trace.overhead_ratio",
         ratio(sum(t, [](const Rep& r) { return r.sim_s; }),
               sum(untraced, [](const Rep& r) { return r.sim_s; })),
         "ratio"},
    };
    if (!args.trace_out.empty()) tracer->write(args.trace_out);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": 0, \"metrics\": {",
              failures.empty() ? "true" : "false", reps);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace specbench

int main(int argc, char** argv) {
  try {
    return specbench::run(specbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "specbench: " << e.what() << "\n";
    return 2;
  }
}
