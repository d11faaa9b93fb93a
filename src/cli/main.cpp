// specdag — the scenario-engine command-line front end.
//
//   specdag list                     show the built-in scenario registry
//   specdag show <name>              print a built-in spec as JSON
//   specdag run <name|spec.json>     run one scenario
//   specdag run --resume <ckpt>      continue a checkpointed run
//   specdag replay <ckpt> --rounds A..B   re-execute a round window
//   specdag export <name|spec.json>  run a scenario and export its DAG
//   specdag sweep <grid.json>        run a parameter grid in parallel
//
// `run` options:
//   --rounds N     override the spec's round count / async horizon
//   --seed N       override the spec's seed
//   --clients N    override the spec's client count (resizable presets)
//   --threads N    prepare-phase workers (0 = hardware, 1 = serial, at
//                  most 1024); results are bit-identical across values
//   --delta on|off override the payload store's delta encoding
//   --sync-encode  encode deltas inline on the commit path instead of the
//                  background pipeline (results are bit-identical; this is
//                  the attribution/debug switch for store.async_encode)
//   --no-batch-exec  disable the fused multi-client executor (train.batch=0)
//                  and train/evaluate every client through the scalar
//                  per-model path (results are bit-identical; this is the
//                  perf-comparison oracle switch)
//   --algorithm A  override the algorithm (dag|fedavg|fedprox|gossip)
//   --attack SPEC  replace the spec's adversary schedule: none,
//                  random_weights[=RATE], label_flip[=FRACTION]. Each
//                  attack starts mid-run (at half the rounds); repeat the
//                  flag to combine kinds
//   --trace PATH   write a Chrome trace-event / Perfetto-compatible trace
//                  of the run (open it in ui.perfetto.dev)
//   --obs on|off   toggle the metrics registry (summary.obs); on by default
//   --metrics-out PATH  export the run's metric totals as Prometheus text
//                  exposition (scrape-ready .prom file)
//   --checkpoint-dir D    write checkpoints under D (enables checkpointing
//                  together with --checkpoint-every)
//   --checkpoint-every N  checkpoint every N completed rounds/units
//   --checkpoint-keep N   keep only the N newest checkpoints (0 = all)
//   --series       include the per-round series in the JSON output
//   --csv PATH     also write the series as CSV
//   --jsonl PATH   stream the series as JSONL (one line per round)
//   --quiet        suppress the progress lines (log level -> warn)
// `run --resume <ckpt>` continues from a checkpoint file; the spec comes
//   from the checkpoint, so only --threads (bit-identical by construction),
//   --series, --csv, --jsonl, and --quiet are accepted.
// `replay <ckpt> --rounds A..B` re-executes rounds A..B (1-based, inclusive)
//   deterministically from a checkpoint covering rounds < A and streams the
//   window as JSONL (stdout, or --jsonl PATH); --threads/--quiet as above.
// `export` options: --rounds/--seed/--clients/--delta/--quiet as above, plus
//   --dot PATH     write the final DAG as Graphviz DOT
//   --jsonl PATH   write the final DAG as a JSONL transaction log
//   (without --dot/--jsonl both default to exports/<name>.{dot,jsonl})
// `sweep` options:
//   --out PATH     override the grid's JSONL output path
//   --threads N    override the grid's worker count
//   --trace-dir D  per-run Perfetto traces: <D>/run-<idx>.trace.json
//   --metrics-out PATH  export the merged sweep aggregate as Prometheus text
//   --dry-run      print the expanded grid without running it
//   --resume       reuse finished runs recorded in <out>.partial from an
//                  interrupted sweep and execute only the rest
//
// Global: --log-level debug|info|warn|error|off (any command; the
// SPECDAG_LOG_LEVEL env var sets the same thing, the flag wins).
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace specdag;

// Reads a numeric flag value, exiting with a usage error unless the whole
// token is a non-negative integer no larger than `max`.
std::uint64_t parse_number(const std::string& flag, const std::string& text,
                           std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (const std::optional<std::uint64_t> value = parse_uint(text, max)) return *value;
  std::cerr << flag << ": \"" << text << "\" is not an integer in [0, " << max << "]\n";
  std::exit(2);
}

// Worker counts are capped so a typo cannot ask for millions of threads.
std::size_t parse_threads(const std::string& flag, const std::string& text) {
  return parse_number(flag, text, ThreadPool::kMaxThreads);
}

int usage(std::ostream& out, int code) {
  out << "usage: specdag <command> [options]\n"
         "\n"
         "commands:\n"
         "  list                    show the built-in scenario registry\n"
         "  show <name>             print a built-in spec as JSON\n"
         "  run <name|spec.json>    run one scenario (--rounds N --seed N\n"
         "                          --clients N --threads N --delta on|off\n"
         "                          --sync-encode --no-batch-exec\n"
         "                          --algorithm dag|fedavg|fedprox|gossip\n"
         "                          --attack none|random_weights[=RATE]|\n"
         "                          label_flip[=FRACTION]\n"
         "                          --trace PATH --obs on|off\n"
         "                          --metrics-out PATH\n"
         "                          --checkpoint-dir DIR\n"
         "                          --checkpoint-every N\n"
         "                          --checkpoint-keep N --series\n"
         "                          --csv PATH --jsonl PATH --quiet)\n"
         "  run --resume <ckpt>     continue a checkpointed run (--threads N\n"
         "                          --series --csv PATH --jsonl PATH --quiet)\n"
         "  replay <ckpt> --rounds A..B\n"
         "                          re-execute rounds A..B from a checkpoint\n"
         "                          (--jsonl PATH --threads N --quiet)\n"
         "  export <name|spec.json> run a scenario and export its DAG\n"
         "                          (--dot PATH --jsonl PATH --rounds N\n"
         "                          --seed N --clients N --delta on|off\n"
         "                          --sync-encode --no-batch-exec --quiet)\n"
         "  sweep <grid.json>       run a parameter grid (--out PATH\n"
         "                          --threads N --trace-dir DIR\n"
         "                          --metrics-out PATH --dry-run --resume)\n"
         "\n"
         "global options:\n"
         "  --log-level LEVEL       debug|info|warn|error|off (default info;\n"
         "                          SPECDAG_LOG_LEVEL env var also accepted,\n"
         "                          the flag wins)\n";
  return code;
}

int cmd_list() {
  std::cout << "built-in scenarios:\n";
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    std::string tags = scenario::to_string(spec.simulator);
    if (spec.algorithm != scenario::AlgorithmKind::kDag) {
      tags += ", " + scenario::to_string(spec.algorithm);
    }
    if (spec.dynamics.churn.enabled()) tags += ", churn";
    if (spec.dynamics.stragglers.enabled()) tags += ", stragglers";
    if (spec.dynamics.partition.enabled()) tags += ", partition";
    if (spec.visibility_delay_rounds > 0) tags += ", delayed-visibility";
    if (spec.attacks.random_weights.enabled()) tags += ", random-weights";
    if (spec.attacks.label_flip.enabled()) tags += ", label-flip";
    const std::size_t pad = spec.name.size() < 26 ? 26 - spec.name.size() : 1;
    std::cout << "  " << spec.name << std::string(pad, ' ') << "[" << tags << "] "
              << spec.description << "\n";
  }
  std::cout << "\nrun one with: specdag run <name>  (or pass a JSON spec file)\n";
  return 0;
}

int cmd_show(const std::string& name) {
  std::cout << scenario::spec_to_json(scenario::get_scenario(name)).dump(2) << "\n";
  return 0;
}

scenario::ScenarioSpec resolve_spec(const std::string& name_or_path) {
  if (const scenario::ScenarioSpec* builtin = scenario::find_scenario(name_or_path)) {
    return *builtin;
  }
  if (!std::filesystem::exists(name_or_path)) {
    // get_scenario throws with the list of valid names.
    return scenario::get_scenario(name_or_path);
  }
  return scenario::spec_from_json(scenario::Json::parse_file(name_or_path));
}

// Applies the collected --attack overrides. Deferred until every flag is
// parsed so the mid-run default start (half the — possibly overridden —
// rounds) does not depend on flag order. The overrides REPLACE the spec's
// adversary schedule: the first flag resets the attacks block, then each
// flag enables its kind with a mid-run start ("none" contributes nothing,
// so it disables unless followed by another kind).
void apply_attack_overrides(const std::vector<std::string>& values,
                            scenario::ScenarioSpec& spec) {
  if (values.empty()) return;
  spec.attacks = scenario::AttackSpec{};
  for (const std::string& value : values) {
    std::string kind = value;
    double amount = -1.0;
    if (const std::size_t eq = value.find('='); eq != std::string::npos) {
      kind = value.substr(0, eq);
      const char* amount_text = value.c_str() + eq + 1;
      char* end = nullptr;
      amount = std::strtod(amount_text, &end);
      if (end == amount_text || *end != '\0' || amount < 0.0) {
        std::cerr << "--attack: \"" << amount_text << "\" is not a valid rate/fraction\n";
        std::exit(2);
      }
    }
    if (kind == "none") {
      spec.attacks = scenario::AttackSpec{};
    } else if (kind == "random_weights") {
      spec.attacks.random_weights.rate = amount >= 0.0 ? amount : 1.0;
      spec.attacks.random_weights.start_round = spec.rounds / 2;
    } else if (kind == "label_flip") {
      spec.attacks.label_flip.fraction = amount >= 0.0 ? amount : 0.2;
      spec.attacks.label_flip.start_round = spec.rounds / 2;
      if (spec.attacks.metrics_every == 0) spec.attacks.metrics_every = 1;
    } else {
      std::cerr << "--attack expects none, random_weights[=RATE], or label_flip[=FRACTION]\n";
      std::exit(2);
    }
  }
}

// Spec overrides shared by `run` and `export`: --rounds, --seed, --clients,
// --threads, --delta, --sync-encode, --no-batch-exec, --algorithm, --attack,
// --trace, --obs, --metrics-out.
// Returns true when `flag` was consumed;
// `next` yields the flag's value (exiting with usage error when missing).
// --attack values are only collected here; the caller applies them after
// the whole command line is parsed.
bool apply_spec_override(const std::string& flag,
                         const std::function<const std::string&()>& next,
                         scenario::ScenarioSpec& spec,
                         std::vector<std::string>& attack_overrides) {
  if (flag == "--rounds") {
    spec.rounds = parse_number(flag, next());
  } else if (flag == "--seed") {
    spec.seed = parse_number(flag, next());
  } else if (flag == "--clients") {
    spec.num_clients = parse_number(flag, next());
  } else if (flag == "--threads") {
    spec.threads = parse_threads(flag, next());
  } else if (flag == "--algorithm") {
    spec.algorithm = scenario::algorithm_from_string(next());
  } else if (flag == "--attack") {
    attack_overrides.push_back(next());
  } else if (flag == "--delta") {
    const std::string& value = next();
    if (value == "on" || value == "true" || value == "1") {
      spec.store.delta = true;
    } else if (value == "off" || value == "false" || value == "0") {
      spec.store.delta = false;
    } else {
      std::cerr << "--delta expects on|off\n";
      std::exit(2);
    }
  } else if (flag == "--sync-encode") {
    spec.store.async_encode = false;
  } else if (flag == "--no-batch-exec") {
    spec.client.train.batch = 0;
  } else if (flag == "--trace") {
    spec.obs.trace = next();
  } else if (flag == "--metrics-out") {
    spec.obs.metrics_out = next();
  } else if (flag == "--checkpoint-dir") {
    spec.checkpoint.dir = next();
    if (spec.checkpoint.every_n_rounds == 0) spec.checkpoint.every_n_rounds = 1;
  } else if (flag == "--checkpoint-every") {
    spec.checkpoint.every_n_rounds = parse_number(flag, next());
  } else if (flag == "--checkpoint-keep") {
    spec.checkpoint.keep_last = parse_number(flag, next());
  } else if (flag == "--obs") {
    const std::string& value = next();
    if (value == "on" || value == "true" || value == "1") {
      spec.obs.metrics = true;
    } else if (value == "off" || value == "false" || value == "0") {
      spec.obs.metrics = false;
    } else {
      std::cerr << "--obs expects on|off\n";
      std::exit(2);
    }
  } else {
    return false;
  }
  return true;
}

// Builds the standard missing-value guard for one option-parsing loop.
std::function<const std::string&()> value_getter(const std::vector<std::string>& args,
                                                 std::size_t& i, const char* command) {
  return [&args, &i, command]() -> const std::string& {
    if (i + 1 >= args.size()) {
      std::cerr << command << ": missing value for " << args[i] << "\n";
      std::exit(2);
    }
    return args[++i];
  };
}

// Shared tail of run / run --resume: side outputs + summary JSON on stdout.
int emit_run_result(const scenario::ScenarioResult& result, bool include_series,
                    const std::string& csv_path, const std::string& jsonl_path) {
  const auto ensure_parent = [](const std::string& path_str) {
    const std::filesystem::path path(path_str);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  };
  if (!csv_path.empty()) {
    ensure_parent(csv_path);
    scenario::write_series_csv(result, csv_path);
    SPECDAG_LOG(Info) << "series written to " << csv_path;
  }
  if (!jsonl_path.empty()) {
    ensure_parent(jsonl_path);
    scenario::write_series_jsonl(result, jsonl_path);
    SPECDAG_LOG(Info) << "series written to " << jsonl_path;
  }
  std::cout << scenario::result_to_json(result, include_series).dump(2) << "\n";
  return 0;
}

// `run --resume <ckpt>`: everything semantic comes from the spec embedded in
// the checkpoint, so only output flags and --threads are accepted.
int cmd_run_resume(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr << "run: --resume needs a checkpoint file\n";
    return 2;
  }
  const std::string checkpoint = args[1];
  scenario::ResumeOverrides overrides;
  bool include_series = false;
  std::string csv_path;
  std::string jsonl_path;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = value_getter(args, i, "run");
    if (flag == "--threads") {
      overrides.has_threads = true;
      overrides.threads = parse_threads(flag, next());
    } else if (flag == "--series") {
      include_series = true;
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--jsonl") {
      jsonl_path = next();
    } else if (flag == "--quiet") {
      set_log_level(LogLevel::kWarn);
    } else {
      std::cerr << "run: flag " << flag
                << " is not allowed with --resume (the checkpoint fixes the spec)\n";
      return 2;
    }
  }
  SPECDAG_LOG(Info) << "resuming from " << checkpoint << "...";
  const scenario::ScenarioResult result = scenario::resume_scenario(checkpoint, overrides);
  return emit_run_result(result, include_series, csv_path, jsonl_path);
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "run: missing scenario name or spec file\n";
    return 2;
  }
  if (args[0] == "--resume") return cmd_run_resume(args);
  scenario::ScenarioSpec spec = resolve_spec(args[0]);
  bool include_series = false;
  std::string csv_path;
  std::string jsonl_path;
  std::vector<std::string> attack_overrides;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = value_getter(args, i, "run");
    if (apply_spec_override(flag, next, spec, attack_overrides)) {
    } else if (flag == "--series") {
      include_series = true;
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--jsonl") {
      jsonl_path = next();
    } else if (flag == "--quiet") {
      set_log_level(LogLevel::kWarn);
    } else {
      std::cerr << "run: unknown flag " << flag << "\n";
      return 2;
    }
  }
  apply_attack_overrides(attack_overrides, spec);
  spec.validate();

  SPECDAG_LOG(Info) << "running \"" << spec.name << "\" ("
                    << scenario::to_string(spec.simulator) << ", "
                    << scenario::to_string(spec.algorithm) << ", " << spec.rounds
                    << " rounds, seed " << spec.seed << ")...";
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  return emit_run_result(result, include_series, csv_path, jsonl_path);
}

// `replay <ckpt> --rounds A..B`: re-execute a round window deterministically
// and stream it as JSONL (stdout by default).
int cmd_replay(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "replay: missing checkpoint file\n";
    return 2;
  }
  const std::string checkpoint = args[0];
  scenario::ResumeOverrides overrides;
  std::string rounds_window;
  std::string jsonl_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = value_getter(args, i, "replay");
    if (flag == "--rounds") {
      rounds_window = next();
    } else if (flag == "--threads") {
      overrides.has_threads = true;
      overrides.threads = parse_threads(flag, next());
    } else if (flag == "--jsonl") {
      jsonl_path = next();
    } else if (flag == "--quiet") {
      set_log_level(LogLevel::kWarn);
    } else {
      std::cerr << "replay: unknown flag " << flag << "\n";
      return 2;
    }
  }
  const std::size_t dots = rounds_window.find("..");
  if (rounds_window.empty() || dots == std::string::npos) {
    std::cerr << "replay: --rounds A..B is required (1-based, inclusive)\n";
    return 2;
  }
  const std::size_t first = parse_number("--rounds", rounds_window.substr(0, dots));
  const std::size_t last = parse_number("--rounds", rounds_window.substr(dots + 2));
  SPECDAG_LOG(Info) << "replaying rounds " << first << ".." << last << " from " << checkpoint
                    << "...";
  const scenario::ScenarioResult result =
      scenario::replay_scenario(checkpoint, first, last, overrides);
  if (jsonl_path.empty()) {
    scenario::write_series_jsonl(result, std::cout);
  } else {
    const std::filesystem::path path(jsonl_path);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    scenario::write_series_jsonl(result, jsonl_path);
    SPECDAG_LOG(Info) << "window written to " << jsonl_path;
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "export: missing scenario name or spec file\n";
    return 2;
  }
  scenario::ScenarioSpec spec = resolve_spec(args[0]);
  scenario::RunOptions options;
  std::vector<std::string> attack_overrides;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = value_getter(args, i, "export");
    if (apply_spec_override(flag, next, spec, attack_overrides)) {
    } else if (flag == "--dot") {
      options.export_dot = next();
    } else if (flag == "--jsonl") {
      options.export_jsonl = next();
    } else if (flag == "--quiet") {
      set_log_level(LogLevel::kWarn);
    } else {
      std::cerr << "export: unknown flag " << flag << "\n";
      return 2;
    }
  }
  apply_attack_overrides(attack_overrides, spec);
  spec.validate();
  if (options.export_dot.empty() && options.export_jsonl.empty()) {
    options.export_dot = "exports/" + spec.name + ".dot";
    options.export_jsonl = "exports/" + spec.name + ".jsonl";
  }
  for (const std::string& path : {options.export_dot, options.export_jsonl}) {
    if (path.empty()) continue;
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
  }

  SPECDAG_LOG(Info) << "running \"" << spec.name << "\" ("
                    << scenario::to_string(spec.simulator) << ", " << spec.rounds
                    << " rounds, seed " << spec.seed << ") for export...";
  const scenario::ScenarioResult result = scenario::run_scenario(spec, options);
  if (!options.export_dot.empty()) {
    SPECDAG_LOG(Info) << "DAG written to " << options.export_dot;
  }
  if (!options.export_jsonl.empty()) {
    SPECDAG_LOG(Info) << "transaction log written to " << options.export_jsonl;
  }
  std::cout << scenario::result_to_json(result, false).dump(2) << "\n";
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "sweep: missing grid file\n";
    return 2;
  }
  scenario::SweepSpec sweep = scenario::sweep_from_json(scenario::Json::parse_file(args[0]));
  bool dry_run = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "sweep: missing value for " << flag << "\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (flag == "--out") {
      sweep.out_path = next();
    } else if (flag == "--threads") {
      sweep.threads = parse_threads(flag, next());
    } else if (flag == "--trace-dir") {
      sweep.trace_dir = next();
    } else if (flag == "--metrics-out") {
      sweep.metrics_out = next();
    } else if (flag == "--dry-run") {
      dry_run = true;
    } else if (flag == "--resume") {
      sweep.resume = true;
    } else {
      std::cerr << "sweep: unknown flag " << flag << "\n";
      return 2;
    }
  }

  if (dry_run) {
    for (const auto& [params, seed] : scenario::expand_grid(sweep)) {
      std::cout << "params=" << params.dump() << " seed=" << seed << "\n";
    }
    return 0;
  }

  SPECDAG_LOG(Info) << "sweep: " << sweep.num_runs() << " runs -> " << sweep.out_path;
  const std::vector<scenario::SweepRun> runs = scenario::run_sweep(sweep, &std::cerr);
  SPECDAG_LOG(Info) << "sweep complete: " << runs.size() << " runs written to "
                    << sweep.out_path;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Level precedence: --log-level flag > SPECDAG_LOG_LEVEL env > info. The
  // CLI default is info (progress lines on) even though the library default
  // is warn; --quiet in run/export drops back to warn.
  set_log_level(LogLevel::kInfo);
  init_log_level_from_env();
  std::vector<std::string> raw(argv + 1, argv + argc);
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] == "--log-level") {
      if (i + 1 >= raw.size()) {
        std::cerr << "specdag: missing value for --log-level\n";
        return 2;
      }
      try {
        set_log_level(log_level_from_string(raw[i + 1]));
      } catch (const std::invalid_argument& error) {
        std::cerr << "specdag: " << error.what() << "\n";
        return 2;
      }
      raw.erase(raw.begin() + static_cast<std::ptrdiff_t>(i),
                raw.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  if (raw.empty()) return usage(std::cerr, 2);
  const std::string command = raw[0];
  std::vector<std::string> args(raw.begin() + 1, raw.end());
  try {
    if (command == "list") return cmd_list();
    if (command == "show") {
      if (args.empty()) {
        std::cerr << "show: missing scenario name\n";
        return 2;
      }
      return cmd_show(args[0]);
    }
    if (command == "run") return cmd_run(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "export") return cmd_export(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(std::cout, 0);
    }
    std::cerr << "unknown command \"" << command << "\"\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& error) {
    std::cerr << "specdag: " << error.what() << "\n";
    return 1;
  }
}
