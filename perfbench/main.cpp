// cwbench — the benchmark of record's measuring program.
//
//   cwbench --workload batch|live|serve|ref --seed N --seconds S --trace 0|1
//           [--scale X] [--t24 N] [--epochs K] [--lo QPS] [--hi QPS]
//           [--expect FILE] [--report-out FILE] [--trace-out FILE]
//
// Each workload drives one user-facing path through the public API and then
// serves what it published over HTTP:
//   batch  Experiment context -> advance_to(duration) -> take() -> freeze ->
//          frame -> paper_report_pipelines -> run_pipelines (full_report)
//   live   stream::LiveReport, every epoch rendered with findings and
//          published (cloudwatch_cli serve)
//   serve  a small publishing live run in set-up, then open-loop reads
//   ref    one untimed batch render, written to --report-out (the reference
//          a live or serve run's final epoch must equal)
// With --trace 1 the same path runs traced, plus the per-layer probes (the
// --jobs 1 baselines, an ingest replay, ReportServer::handle() without a
// socket). The last stdout line is one JSON object: the metrics with unit
// and sample count, attempted/failed operation counts, and the correctness
// checks. perfbench/run.py builds this program and wraps that line into the
// benchmark's result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "loadgen.h"
#include "runner/report.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "serve/http.h"
#include "serve/publisher.h"
#include "serve/server.h"
#include "stream/ingest.h"
#include "stream/live_report.h"
#include "trace.h"

namespace cwbench {
namespace {

using cw::core::ExperimentConfig;
using cw::core::ExperimentResult;
using cw::core::LiveExperiment;

const std::uint64_t kDefaultSeed = ExperimentConfig{}.seed;
// Serve-side latency limit for sustained_qps, and the ladder's step.
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kLadderStep = 1.25;
constexpr int kLadderSteps = 10;
// Ingest shards (the cloudwatch_cli default), server handler workers and
// client connections of the read phase.
constexpr std::size_t kShards = 4;
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kConnections = 2;
// Set-ups measured per run; setup_s is their median. A context build takes
// milliseconds; serve's set-up is a whole publishing run.
constexpr int kContextSetups = 200;
constexpr int kServeSetups = 3;
// serve's publishing run is set-up, not the thing measured; on one worker
// it has no thread hand-offs for a busy host to delay, which on a shared VM
// otherwise nearly doubles its time from one minute to the next.
constexpr unsigned kServeSetupJobs = 1;
// Shares of --seconds: batch and live produce reports (repeating whole
// passes) for kProduceShare of it and then serve them for kReadShare; serve
// reads for all of it.
constexpr double kProduceShare = 0.6;
// A traced run makes three passes of its path: a warm-up (the first pass in
// a process runs on a cold heap), an untraced pass and a traced one. The
// last two differ only by tracing; their difference is trace.overhead_ms.
constexpr int kTracedPasses = 3;
constexpr double kReadShare = 0.3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  // Seed of the simulated corpus: --seed, except on serve, whose corpus is
  // a fixed fixture (the default seed) and whose --seed drives the request
  // stream. A small corpus's size swings ~8% from seed to seed, which would
  // otherwise swamp the set-up figures.
  std::uint64_t corpus_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = -1.0;
  int t24 = -1;
  std::size_t epochs = 0;
  unsigned jobs = 0;  // always nproc
  double lo = 0.0;
  double hi = 0.0;
  std::string expect;
  std::string report_out;
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// Everything a run reports.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::string> config;

  void put(const std::string& name, double value, const std::string& unit, std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  // A correctness gate. A failed gate is a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    checks.push_back(Check{name, ok, detail});
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s %s\n", name.c_str(), detail.c_str());
    }
  }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Harrell-Davis estimate of the median: every order statistic weighted by
// the Beta((n+1)/2, (n+1)/2) mass of its rank interval. Epoch intervals
// cluster by epoch (early epochs are short, some later ones long), and
// the plain median then jumps from one cluster to the next when noise
// swaps two samples at its rank; this estimate moves smoothly instead.
double hd_median(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n <= 2) return median(std::move(values));
  std::sort(values.begin(), values.end());
  const double a = (static_cast<double>(n) + 1.0) / 2.0;
  const double log_norm = std::lgamma(2.0 * a) - 2.0 * std::lgamma(a);
  const auto density = [&](double x) {
    if (x <= 0.0 || x >= 1.0) return 0.0;
    return std::exp(log_norm + (a - 1.0) * (std::log(x) + std::log1p(-x)));
  };
  // Each rank interval's Beta mass by Simpson's rule; the weights are
  // normalised afterwards, so the quadrature error cancels to first order.
  constexpr int kSteps = 64;
  double total = 0.0;
  double estimate = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double h = 1.0 / static_cast<double>(n * kSteps);
    double mass = density(lo) + density(lo + h * kSteps);
    for (int k = 1; k < kSteps; ++k) mass += (k % 2 == 1 ? 4.0 : 2.0) * density(lo + h * k);
    mass *= h / 3.0;
    total += mass;
    estimate += mass * values[i];
  }
  return estimate / total;
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// --seed 0 is the experiment's default seed (the one the golden hashes were
// taken at); any other value derives a distinct experiment seed from it.
std::uint64_t experiment_seed(std::uint64_t seed) {
  return seed == 0 ? kDefaultSeed : splitmix64(kDefaultSeed ^ seed);
}

ExperimentConfig experiment_config(const Options& options) {
  ExperimentConfig config;
  config.seed = experiment_seed(options.corpus_seed);
  config.scale = options.scale;
  config.telescope_slash24s = options.t24;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// The exact stdout of examples/full_report for one rendered pipeline set.
std::string full_report_bytes(double scale, std::size_t records,
                              const std::vector<cw::runner::Pipeline>& pipelines,
                              const std::vector<std::string>& outputs) {
  char header[160];
  std::snprintf(header, sizeof(header),
                "== Cloud Watching full report (scale %.2f) ==\n\ncaptured %zu session records\n\n",
                scale, records);
  std::string out(header);
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    out += "--- " + pipelines[i].name + " ---\n" + outputs[i] + "\n";
  }
  return out;
}

bool any_failed(const cw::runner::RunReport& report) {
  for (const auto& metrics : report.pipelines) {
    if (metrics.failed) return true;
  }
  return false;
}

// A pipeline's short id for metric names: its slug up to the last number
// among the first four words ("table-17", "figure-1-port-22",
// "section-3-2"), which keeps names within 64 characters.
std::string pipeline_id(const std::string& name) {
  const std::string slug = cw::stream::table_slug(name);
  std::size_t keep = slug.size();
  std::size_t start = 0;
  for (int word = 0; word < 4 && start < slug.size(); ++word) {
    const std::size_t end = std::min(slug.find('-', start), slug.size());
    const bool digits = end > start && slug.find_first_not_of("0123456789", start) >= end;
    if (digits) keep = end;
    start = end + 1;
  }
  return slug.substr(0, keep);
}

// Per-pipeline metrics of one runner invocation.
void put_runner_metrics(Result& result, const cw::runner::RunReport& report, double speedup) {
  result.put("runner.pipelines_ms", report.total_wall_ms, "ms", 1);
  result.put("runner.pipeline_sum_ms", report.pipeline_wall_ms_sum(), "ms", report.pipelines.size());
  result.put("runner.parallel_speedup", speedup, "x", 1);
  for (const auto& pipeline : report.pipelines) {
    result.put("runner.pipeline_ms." + pipeline_id(pipeline.name), pipeline.wall_ms, "ms", 1);
  }
}

cw::stream::VerdictFactory verdict_factory(const cw::analysis::MaliciousClassifier& classifier) {
  return [&classifier](const cw::capture::EventStore& store) {
    return [&classifier, &store](const cw::capture::SessionRecord& record) {
      switch (classifier.classify(record, store)) {
        case cw::analysis::MeasuredIntent::kMalicious:
          return cw::capture::SessionFrame::Verdict::kMalicious;
        case cw::analysis::MeasuredIntent::kBenign:
          return cw::capture::SessionFrame::Verdict::kBenign;
        case cw::analysis::MeasuredIntent::kUnobservable:
          break;
      }
      return cw::capture::SessionFrame::Verdict::kUnobservable;
    };
  };
}

// ---------------------------------------------------------------------------
// Ingest replay: the live driver's write side rebuilt from public calls, each
// step timed — simulate a slice (buffering what the capture sink delivers),
// append it to IngestShards, seal, fold the segment into a
// SegmentedTableCache, extend the cumulative replica, freeze it and build its
// frame.

struct Buffered {
  cw::capture::SessionRecord record;
  std::string payload;
  std::optional<cw::proto::Credential> credential;
};

struct ReplayStats {
  double setup_ms = 0.0;
  double advance_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  double append_ns = 0.0;
  std::vector<double> seal_ms;
  std::vector<double> add_segment_ms;
  double freeze_ms = 0.0;  // summed over epochs
  double frame_ms = 0.0;   // summed over epochs
  // Cold renders of the final corpus (see replay_live).
  double cold_frame_ms = 0.0;
  double cold_render_ms = 0.0;
  double frame_jobs1_ms = 0.0;
  double render_jobs1_ms = 0.0;
  bool outputs_agree = true;
  std::vector<std::string> final_outputs;
};

// IngestShards plus the segmented cache each sealed segment folds into;
// shared by both replay sources.
struct ReplaySink {
  cw::stream::IngestShards ingest;
  cw::analysis::SegmentedTableCache segmented;
  explicit ReplaySink(std::size_t shards, const cw::analysis::MaliciousClassifier& classifier)
      : ingest(shards), segmented(classifier) {}

  void append(std::vector<Buffered>& slice, Tracer& tracer, int parent, ReplayStats& stats) {
    const std::int64_t t = now_ns();
    {
      const Scope span(tracer, "stream.append", parent);
      for (const Buffered& b : slice) {
        ingest.append(ingest.shard_of(b.record), b.record, b.payload, b.credential);
      }
    }
    stats.append_ns += static_cast<double>(now_ns() - t);
    stats.records += slice.size();
    slice.clear();
  }

  // Seals what was appended and folds the segment into the cache.
  const cw::stream::Segment& seal(const cw::topology::Deployment& deployment,
                                  const cw::stream::VerdictFactory& verdict,
                                  cw::runner::ThreadPool& pool, Tracer& tracer, int parent,
                                  ReplayStats& stats) {
    std::int64_t t = now_ns();
    cw::stream::EpochSnapshot snapshot;
    {
      const Scope span(tracer, "stream.seal", parent);
      snapshot = ingest.seal_epoch(deployment, verdict, &pool, /*verdict_pure=*/true);
    }
    stats.seal_ms.push_back(ms_between(t, now_ns()));
    const cw::stream::Segment& segment = *snapshot.segments().back();
    t = now_ns();
    {
      const Scope span(tracer, "analysis.add_segment", parent);
      segmented.add_segment(segment.frame());
    }
    stats.add_segment_ms.push_back(ms_between(t, now_ns()));
    return segment;
  }
};

// A stored record's payload and credential as values, the way the capture
// sink delivers them.
struct Delivered {
  std::string_view payload;
  std::optional<cw::proto::Credential> credential;
};

Delivered delivered(const cw::capture::EventStore& store,
                    const cw::capture::SessionRecord& record) {
  Delivered out;
  if (record.payload_id != cw::capture::kNoPayload) out.payload = store.payload(record.payload_id);
  if (record.credential_id != cw::capture::kNoCredential) {
    out.credential = store.credential(record.credential_id);
  }
  return out;
}

void extend_replica(cw::capture::EventStore& total, const cw::capture::EventStore& sealed) {
  for (const cw::capture::SessionRecord& record : sealed.records()) {
    const Delivered d = delivered(sealed, record);
    total.append(record, d.payload, d.credential);
  }
}

ReplayStats replay_live(const ExperimentConfig& config, std::size_t epochs, std::size_t shards,
                        unsigned jobs, Tracer& tracer, int parent) {
  ReplayStats stats;
  std::int64_t t = now_ns();
  std::unique_ptr<LiveExperiment> live;
  {
    const Scope span(tracer, "core.setup", parent);
    live = std::make_unique<LiveExperiment>(config);
  }
  stats.setup_ms = ms_between(t, now_ns());
  std::vector<Buffered> slice;
  live->collector().set_store_sink(
      [&slice](const cw::capture::SessionRecord& record, std::string_view payload,
               const std::optional<cw::proto::Credential>& credential) {
        slice.push_back(Buffered{record, std::string(payload), credential});
      });
  const auto& classifier = live->result().classifier();
  const auto verdict = verdict_factory(classifier);
  ReplaySink sink(shards, classifier);
  cw::capture::EventStore total;
  cw::runner::ThreadPool pool(jobs);
  for (std::size_t k = 1; k <= epochs; ++k) {
    const Scope epoch_span(tracer, "replay.epoch", parent, k);
    const auto boundary = static_cast<cw::util::SimTime>(
        (static_cast<unsigned long long>(config.duration) * k) / epochs);
    t = now_ns();
    {
      const Scope span(tracer, "sim.advance", epoch_span.index());
      live->advance_to(k == epochs ? config.duration : boundary);
    }
    stats.advance_ms += ms_between(t, now_ns());
    sink.append(slice, tracer, epoch_span.index(), stats);
    const cw::stream::Segment& segment =
        sink.seal(live->result().deployment(), verdict, pool, tracer, epoch_span.index(), stats);
    live->result().release_derived();
    {
      const Scope span(tracer, "capture.replica_append", epoch_span.index());
      extend_replica(total, segment.store());
    }
    t = now_ns();
    {
      const Scope span(tracer, "capture.freeze", epoch_span.index());
      total.freeze();
    }
    stats.freeze_ms += ms_between(t, now_ns());
    live->result().rebind_store(&total, &sink.segmented);
    t = now_ns();
    {
      const Scope span(tracer, "capture.frame_build", epoch_span.index());
      static_cast<void>(live->result().frame(&pool));
    }
    stats.frame_ms += ms_between(t, now_ns());
  }
  // The final corpus rendered twice more from cold, each time over a fresh
  // segmented cache: on nproc workers and then on one. Both renders rebuild
  // the frame and every partial, so their ratio is the runner's (and the
  // frame build's) parallel speedup; the bytes must agree with each other
  // and with the live run.
  const cw::stream::EpochSnapshot final_snapshot = sink.ingest.snapshot();
  const auto cold_render = [&](unsigned workers, double& frame_ms, double& render_ms) {
    cw::analysis::SegmentedTableCache cache(classifier);
    for (const auto& segment : final_snapshot.segments()) cache.add_segment(segment->frame());
    live->result().rebind_store(&total, &cache);
    cw::runner::ThreadPool cold_pool(workers);
    const std::int64_t start = now_ns();
    {
      const Scope span(tracer, workers == 1 ? "capture.frame_build.jobs1" : "capture.frame_build",
                       parent);
      static_cast<void>(live->result().frame(&cold_pool));
    }
    frame_ms = ms_between(start, now_ns());
    const cw::runner::ReportOptions report_options;
    const auto pipelines = cw::runner::paper_report_pipelines(live->result(), report_options);
    cw::runner::RunResult run;
    {
      const Scope span(tracer, workers == 1 ? "runner.pipelines.jobs1" : "runner.pipelines",
                       parent);
      run = cw::runner::run_pipelines(pipelines, workers);
    }
    render_ms = run.report.total_wall_ms;
    live->result().rebind_store(nullptr, nullptr);
    return std::move(run.outputs);
  };
  stats.final_outputs = cold_render(jobs, stats.cold_frame_ms, stats.cold_render_ms);
  stats.outputs_agree =
      cold_render(1, stats.frame_jobs1_ms, stats.render_jobs1_ms) == stats.final_outputs;
  auto result = live->take();
  stats.events = result->events_processed();
  result->rebind_store(nullptr, nullptr);
  return stats;
}

// The batch corpus replayed in kReplaySlices equal slices of its record
// order (the live workload's epoch count), appended straight from the store
// and un-interned the way the capture sink delivers records; the lookups
// are timed with the appends. Slicing bounds the buffered copy to one slice.
constexpr std::size_t kReplaySlices = 24;

ReplayStats replay_store(const ExperimentResult& result, std::size_t shards, unsigned jobs,
                         Tracer& tracer, int parent) {
  ReplayStats stats;
  ReplaySink sink(shards, result.classifier());
  cw::runner::ThreadPool pool(jobs);
  const auto verdict = verdict_factory(result.classifier());
  const auto& records = result.store().records();
  const cw::capture::EventStore& store = result.store();
  for (std::size_t k = 0; k < kReplaySlices; ++k) {
    const Scope span(tracer, "replay.epoch", parent, k + 1);
    const std::size_t begin = records.size() * k / kReplaySlices;
    const std::size_t end = records.size() * (k + 1) / kReplaySlices;
    const std::int64_t t = now_ns();
    {
      const Scope append_span(tracer, "stream.append", span.index());
      for (std::size_t i = begin; i < end; ++i) {
        const Delivered d = delivered(store, records[i]);
        cw::capture::SessionRecord record = records[i];
        record.payload_id = cw::capture::kNoPayload;
        record.credential_id = cw::capture::kNoCredential;
        sink.ingest.append(sink.ingest.shard_of(record), record, d.payload, d.credential);
      }
    }
    stats.append_ns += static_cast<double>(now_ns() - t);
    stats.records += end - begin;
    static_cast<void>(sink.seal(result.deployment(), verdict, pool, tracer, span.index(), stats));
  }
  return stats;
}

void put_replay_metrics(Result& result, const ReplayStats& replay) {
  result.put("stream.append_ns_per_record",
             replay.records == 0 ? 0.0 : replay.append_ns / static_cast<double>(replay.records),
             "ns", replay.records);
  result.put("stream.seal_ms", median(replay.seal_ms), "ms", replay.seal_ms.size());
  result.put("analysis.add_segment_ms", median(replay.add_segment_ms), "ms",
             replay.add_segment_ms.size());
}

// ---------------------------------------------------------------------------
// Read side: a ReportServer over what the workload published, driven by the
// open-loop generator at the fixed rates and then up a rate ladder.

cw::stream::HttpRequest get_request(const std::string& target) {
  const std::string raw = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  cw::stream::HttpRequest request;
  std::size_t head = 0;
  if (cw::stream::parse_http_request(raw, request, head) != cw::stream::ParseResult::kOk) {
    throw std::runtime_error("unparsable target " + target);
  }
  return request;
}

std::string_view body_of(const std::string& response) {
  const std::size_t head = response.find("\r\n\r\n");
  return head == std::string::npos ? std::string_view{}
                                   : std::string_view(response).substr(head + 4);
}

int status_of(const std::string& response) {
  return response.size() > 12 ? std::atoi(response.c_str() + 9) : 0;
}

// Every route the mix can send, each with the exact response the publisher's
// bytes imply. Expected responses come from a second, never-started server
// over the same publisher, and are themselves checked against the published
// bytes (tables and reports) and statuses.
RouteSet build_routes(const cw::stream::ReportPublisher& publisher, Result& result) {
  RouteSet set;
  set.epochs = publisher.latest_epoch();
  cw::stream::ReportServer reference(publisher);
  bool bodies_ok = true;
  std::string bad;
  auto add = [&](int cls, std::string target) {
    Route route;
    route.target = std::move(target);
    route.expected = reference.handle(get_request(route.target));
    route.cls = cls;
    const int status = status_of(route.expected);
    if ((cls == kNotFound) != (status == 404) || (cls != kNotFound && status != 200)) {
      bodies_ok = false;
      bad = route.target;
    }
    set.by_class[cls].push_back(static_cast<std::uint32_t>(set.routes.size()));
    set.routes.push_back(std::move(route));
    return set.routes.back().expected;
  };
  for (std::uint64_t rank = 0; rank < set.epochs; ++rank) {
    const std::uint64_t k = set.epochs - rank;
    const auto epoch = publisher.epoch(k);
    const std::string token = rank == 0 ? "latest" : std::to_string(k);
    const std::string base = "/epoch/" + token;
    set.tables = epoch->tables.size();
    for (std::size_t i = 0; i < epoch->tables.size(); ++i) {
      const std::string md = add(kTable, base + "/table/" + epoch->table_slugs[i]);
      if (body_of(md) != *epoch->tables[i]) {
        bodies_ok = false;
        bad = base + "/table/" + epoch->table_slugs[i];
      }
      add(kTableJson, base + "/table/" + epoch->table_slugs[i] + "?format=json");
    }
    if (body_of(add(kReport, base + "/report")) != epoch->render_full_report()) {
      bodies_ok = false;
      bad = base + "/report";
    }
    add(kFindings, base + "/findings");
    add(kMeta, base);
    add(kMeta, "/epochs");
    add(kNotFound, base + "/table/no-such-table-" + std::to_string(k));
  }
  set.per_epoch[kTable] = set.tables;
  set.per_epoch[kTableJson] = set.tables;
  set.per_epoch[kReport] = 1;
  set.per_epoch[kFindings] = 1;
  set.per_epoch[kMeta] = 2;
  set.per_epoch[kNotFound] = 1;
  result.check("serve.expected_responses", bodies_ok && set.epochs > 0, bad);
  return set;
}

struct ReadPhase {
  PhaseResult lo;
  PhaseResult hi;
  double sustained_qps = 0.0;
  std::size_t ladder_steps = 0;
  cw::stream::ReportServer::Stats stats;
};

// Tail latencies are taken per slice of a phase (see windowed_percentile):
// kWindows slices for the fixed-rate phases, kStepWindows per ladder step.
constexpr int kWindows = 20;
constexpr int kStepWindows = 5;
constexpr int kRounds = 4;

// A growing backlog: the requests due in the last fifth of a step wait
// longer than the limit at the median. A brief stall cannot do that; a queue
// that grows for the whole step does.
bool backlog_growing(const PhaseResult& phase) {
  std::vector<double> late;
  for (std::size_t i = 0; i < phase.latency_us.size(); ++i) {
    if (phase.due_s[i] >= 0.8 * phase.seconds) late.push_back(phase.latency_us[i]);
  }
  return percentile(std::move(late), 0.5) > kLatencyLimitUs;
}

bool meets_limit(const PhaseResult& phase) {
  return phase.failed == 0 && !backlog_growing(phase) &&
         windowed_percentile(phase, 0.99, kStepWindows) <= kLatencyLimitUs;
}

void count_phase(Result& result, const PhaseResult& phase) {
  result.attempted += phase.attempted;
  result.failed += phase.failed;
}

std::unique_ptr<cw::stream::ReportServer> start_server(
    const cw::stream::ReportPublisher& publisher) {
  cw::stream::ReportServerConfig config;
  config.workers = kServeWorkers;
  auto server = std::make_unique<cw::stream::ReportServer>(publisher, config);
  std::string error;
  if (!server->start(&error)) throw std::runtime_error("server start failed: " + error);
  return server;
}

void add_stats(cw::stream::ReportServer::Stats& into, const cw::stream::ReportServer& server) {
  const auto s = server.stats();
  into.accepted += s.accepted;
  into.rejected += s.rejected;
  into.requests += s.requests;
  into.cache_hits += s.cache_hits;
}

// The fixed-rate phases run in kRounds rounds, each on a freshly started
// server (new handler threads, new connections, a cache refilled by a
// warm-up sweep), and pool their samples: how the threads happen to land on
// the CPUs is then averaged over within a run instead of differing between
// runs. The ladder runs on the last round's server.
ReadPhase read_phase(const Options& options, const cw::stream::ReportPublisher& publisher,
                     std::unique_ptr<cw::stream::ReportServer>& server, const RouteSet& routes,
                     double seconds, Tracer& tracer, int parent, Result& result) {
  ReadPhase out;
  LoadConfig load;
  load.connections = kConnections;
  load.seed = options.seed;
  load.tracer = tracer.enabled() ? &tracer : nullptr;
  const double fixed = seconds * 0.25 / kRounds;
  const double step = seconds * 0.5 / (kLadderSteps + 1);
  std::uint64_t warm_mismatched = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      add_stats(out.stats, *server);
      server->stop();
      server = start_server(publisher);
    }
    load.port = server->port();
    {
      const Scope span(tracer, "serve.warm_up", parent);
      warm_mismatched += warm_up(server->port(), routes);
      result.attempted += routes.routes.size();
    }
    const auto id = static_cast<std::uint64_t>(round) * 2;
    {
      const Scope span(tracer, "serve.phase.lo", parent);
      load.parent_span = span.index();
      append_phase(out.lo, run_phase(load, routes, options.lo, fixed, 1 + id));
    }
    {
      const Scope span(tracer, "serve.phase.hi", parent);
      load.parent_span = span.index();
      append_phase(out.hi, run_phase(load, routes, options.hi, fixed, 2 + id));
    }
  }
  result.check("serve.warm_up_bytes", warm_mismatched == 0,
               std::to_string(warm_mismatched) + " mismatched responses");
  count_phase(result, out.lo);
  count_phase(result, out.hi);
  // The ladder: a fixed grid of rates from hi upward (downward, if hi
  // itself misses), stopping after two misses in a row. sustained_qps is
  // where p99 crosses the limit, interpolated on a log-log line between the
  // highest passing rate and the next rate tried above it. Ladder requests
  // probe capacity, so their misses are not failures of the workload; their
  // response bytes are still checked.
  const Scope ladder_span(tracer, "serve.ladder", parent);
  load.parent_span = ladder_span.index();
  const auto effective_p99 = [](const PhaseResult& phase) {
    return phase.failed == 0 && !backlog_growing(phase)
               ? windowed_percentile(phase, 0.99, kStepWindows)
               : std::numeric_limits<double>::infinity();
  };
  std::vector<std::pair<double, double>> points;
  std::uint64_t mismatched = 0;
  bool up = true;
  int misses = 0;
  for (int i = 0; i <= kLadderSteps && misses < 2; ++i) {
    const double rate = options.hi * std::pow(up ? kLadderStep : 1.0 / kLadderStep, i);
    const PhaseResult phase =
        run_phase(load, routes, rate, step, 100 + static_cast<std::uint64_t>(i));
    mismatched += phase.mismatched;
    points.emplace_back(rate, effective_p99(phase));
    const bool pass = meets_limit(phase);
    if (i == 0) up = pass;
    if (!up && pass) break;
    misses = pass ? 0 : misses + (up ? 1 : 0);
  }
  out.ladder_steps = points.size();
  result.check("serve.ladder_bytes", mismatched == 0,
               std::to_string(mismatched) + " mismatched responses");
  std::sort(points.begin(), points.end());
  double pass = 0.0;
  double pass_p99 = 0.0;
  double miss = 0.0;
  double miss_p99 = 0.0;
  for (const auto& [rate, p99] : points) {
    if (p99 <= kLatencyLimitUs) {
      pass = rate;
      pass_p99 = p99;
      miss = 0.0;
    } else if (miss == 0.0) {
      miss = rate;
      miss_p99 = p99;
    }
  }
  if (pass == 0.0) {
    out.sustained_qps = points.front().first / kLadderStep;  // below everything tried
  } else if (miss == 0.0 || !std::isfinite(miss_p99)) {
    out.sustained_qps = pass;
  } else {
    const double f = (std::log(kLatencyLimitUs) - std::log(pass_p99)) /
                     (std::log(miss_p99) - std::log(pass_p99));
    out.sustained_qps = pass * std::pow(miss / pass, f);
  }
  add_stats(out.stats, *server);
  return out;
}

// The server's CPU time per answered request over the fixed-rate phases.
// CPU time leaves out what the host steals from the VM, so unlike the
// request latencies it holds still when the host gets busy.
void put_read_metrics(Result& result, const ReadPhase& read) {
  const std::uint64_t answered =
      read.lo.attempted + read.hi.attempted - read.lo.failed - read.hi.failed;
  result.put("serve_cpu_us", (read.lo.server_cpu_s + read.hi.server_cpu_s) * 1e6 /
                                 static_cast<double>(std::max<std::uint64_t>(answered, 1)),
             "us", answered);
}

void put_read_layer_metrics(Result& result, const ReadPhase& read) {
  result.put("p50_us.lo", percentile(read.lo.latency_us, 0.5), "us", read.lo.latency_us.size());
  result.put("p99_us.lo", windowed_percentile(read.lo, 0.99, kWindows), "us",
             read.lo.latency_us.size());
  result.put("p50_us.hi", percentile(read.hi.latency_us, 0.5), "us", read.hi.latency_us.size());
  result.put("p99_us.hi", windowed_percentile(read.hi, 0.99, kWindows), "us",
             read.hi.latency_us.size());
  result.put("sustained_qps", read.sustained_qps, "1/s", read.ladder_steps);
  const auto& s = read.stats;
  result.put("serve.cache_hit_ratio",
             s.requests == 0 ? 0.0 : static_cast<double>(s.cache_hits) / static_cast<double>(s.requests),
             "ratio", s.requests);
  result.put("serve.rejected", static_cast<double>(s.rejected), "count", s.accepted);
  result.put("serve.backlog_max", static_cast<double>(std::max(read.lo.backlog_max, read.hi.backlog_max)),
             "count", 2);
  result.put("serve.gen_lag_us", percentile(read.hi.gen_lag_us, 0.99), "us", read.hi.gen_lag_us.size());
  // Whole-phase tails, stalls of the machine included.
  result.put("serve.p99_whole_us.lo", percentile(read.lo.latency_us, 0.99), "us",
             read.lo.latency_us.size());
  result.put("serve.p99_whole_us.hi", percentile(read.hi.latency_us, 0.99), "us",
             read.hi.latency_us.size());
}

// ReportServer::handle() with no socket, per route class, on a fresh server
// (so its cache fills the way the socket run's does), after one warm-up
// pass over every route.
void handle_probe(const cw::stream::ReportPublisher& publisher, const RouteSet& routes,
                  double roundtrip_p50_us, Tracer& tracer, int parent, Result& result) {
  const Scope span(tracer, "serve.handle_probe", parent);
  cw::stream::ReportServer server(publisher);
  std::vector<cw::stream::HttpRequest> requests;
  requests.reserve(routes.routes.size());
  for (const Route& route : routes.routes) requests.push_back(get_request(route.target));
  for (const auto& request : requests) static_cast<void>(server.handle(request));
  std::vector<double> by_class[kRouteClasses];
  constexpr int kProbeRounds = 20;
  for (int round = 0; round < kProbeRounds; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::int64_t t = now_ns();
      const std::string response = server.handle(requests[i]);
      const double us = static_cast<double>(now_ns() - t) / 1e3;
      by_class[routes.routes[i].cls].push_back(us);
      if (response != routes.routes[i].expected) {
        result.check("serve.handle_probe", false, routes.routes[i].target);
      }
    }
  }
  // The mix-weighted handle median: class medians weighted like the mix.
  static constexpr double kWeight[kRouteClasses] = {0.69, 0.10, 0.10, 0.05, 0.05, 0.01};
  double weighted = 0.0;
  for (int cls = 0; cls < kRouteClasses; ++cls) {
    const double m = median(by_class[cls]);
    result.put(std::string("serve.handle_us.") + route_class_name(cls), m, "us",
               by_class[cls].size());
    weighted += kWeight[cls] * m;
  }
  result.put("serve.handle_share", roundtrip_p50_us > 0.0 ? weighted / roundtrip_p50_us : 0.0,
             "ratio", 1);
}

// ---------------------------------------------------------------------------
// Workloads.

struct Produced {
  std::unique_ptr<cw::stream::ReportPublisher> publisher;
  std::string report;  // the final report bytes
};

struct ProduceSamples {
  std::vector<double> setup_s;
  std::vector<double> report_s;
  std::vector<double> epoch_ms;
  std::vector<double> render_ms;
  std::vector<double> rest_ms;
  std::vector<double> records_new;
  std::vector<double> publish_ms;
  double traced_report_s = 0.0;
  double untraced_report_s = 0.0;
  double unaccounted_ms = 0.0;
};

// Keeps the untraced and traced passes' report times, and the traced
// report span's self time: the part of report_s no layer span covers.
void record_overhead(const Options& options, int pass, double report_s, const Tracer& tracer,
                     ProduceSamples& s) {
  if (!options.trace) return;
  if (pass == kTracedPasses - 2) s.untraced_report_s = report_s;
  if (pass == kTracedPasses - 1) {
    s.traced_report_s = report_s;
    s.unaccounted_ms = tracer.self_ms_by_name()["report"];
  }
}

// --- batch -------------------------------------------------------------------

struct BatchRun {
  std::unique_ptr<ExperimentResult> result;
  std::vector<cw::runner::Pipeline> pipelines;
  cw::runner::RunResult run;
  double freeze_ms = 0.0;
  double frame_ms = 0.0;
  double advance_ms = 0.0;
};

std::unique_ptr<LiveExperiment> build_context(const ExperimentConfig& config, Tracer& tracer,
                                              int parent, std::vector<double>& setup_s) {
  const std::int64_t t = now_ns();
  const Scope span(tracer, "core.setup", parent);
  auto context = std::make_unique<LiveExperiment>(config);
  setup_s.push_back(ms_between(t, now_ns()) / 1e3);
  return context;
}

// One full_report pass on a constructed context. Returns the report bytes.
std::string batch_report(LiveExperiment& context, const Options& options,
                         const cw::runner::ReportOptions& report_options, Tracer& tracer,
                         int report_span, BatchRun& out) {
  std::int64_t t = now_ns();
  {
    const Scope span(tracer, "sim.advance", report_span);
    context.advance_to(context.config().duration);
  }
  out.advance_ms = ms_between(t, now_ns());
  {
    const Scope span(tracer, "core.take", report_span);
    out.result = context.take();
  }
  t = now_ns();
  {
    const Scope span(tracer, "capture.freeze", report_span);
    out.result->store().freeze();
  }
  out.freeze_ms = ms_between(t, now_ns());
  t = now_ns();
  {
    const Scope span(tracer, "capture.frame_build", report_span);
    cw::runner::ThreadPool pool(options.jobs);
    static_cast<void>(out.result->frame(&pool));
  }
  out.frame_ms = ms_between(t, now_ns());
  {
    const Scope span(tracer, "runner.pipelines", report_span);
    out.pipelines = cw::runner::paper_report_pipelines(*out.result, report_options);
    out.run = cw::runner::run_pipelines(out.pipelines, options.jobs);
  }
  const Scope span(tracer, "report.format", report_span);
  return full_report_bytes(options.scale, out.result->store().size(), out.pipelines,
                           out.run.outputs);
}

// The batch result published as epoch 1, as the live driver would publish a
// rendered epoch: tables, findings, record counts.
std::unique_ptr<cw::stream::ReportPublisher> publish_batch(const BatchRun& batch,
                                                           const Options& options,
                                                           Tracer& tracer, int parent,
                                                           std::vector<double>& publish_ms) {
  cw::stream::EpochReport report;
  {
    const Scope span(tracer, "runner.findings", parent);
    cw::runner::ThreadPool pool(options.jobs);
    report.findings = cw::runner::extract_findings(*batch.result, cw::runner::AnalysisOptions{}, &pool);
  }
  report.findings_extracted = true;
  report.epoch = 1;
  report.now = batch.result->config().duration;
  report.records_total = batch.result->store().size();
  report.records_new = report.records_total;
  report.rendered = true;
  for (const auto& pipeline : batch.pipelines) report.names.push_back(pipeline.name);
  report.outputs = batch.run.outputs;
  auto publisher = std::make_unique<cw::stream::ReportPublisher>();
  const std::int64_t t = now_ns();
  {
    const Scope span(tracer, "serve.publish", parent);
    publisher->publish(cw::stream::PublishedEpoch::from_report(report, options.scale));
  }
  publish_ms.push_back(ms_between(t, now_ns()));
  return publisher;
}

Produced run_batch(const Options& options, Tracer& tracer, Result& result, ProduceSamples& s) {
  const ExperimentConfig config = experiment_config(options);
  const cw::runner::ReportOptions report_options;
  std::unique_ptr<LiveExperiment> context;
  for (int i = 0; i < kContextSetups; ++i) context = build_context(config, tracer, -1, s.setup_s);
  result.put("core.setup_ms", median(s.setup_s) * 1e3, "ms", s.setup_s.size());

  Produced produced;
  BatchRun last;
  std::string first_bytes;
  const std::int64_t budget_end = now_ns() + static_cast<std::int64_t>(options.seconds * kProduceShare * 1e9);
  const int passes_min = options.trace ? kTracedPasses : 1;
  for (int pass = 0; pass < passes_min || (!options.trace && now_ns() < budget_end); ++pass) {
    if (pass > 0) {
      last = BatchRun{};  // one corpus resident at a time
      context = build_context(config, tracer, -1, s.setup_s);
    }
    const bool traced = options.trace && pass == kTracedPasses - 1;
    Tracer quiet(false);
    Tracer& t = traced ? tracer : quiet;
    BatchRun batch;
    const std::int64_t start = now_ns();
    const int report_span = t.begin("report", -1, static_cast<std::uint64_t>(pass));
    std::string bytes = batch_report(*context, options, report_options, t, report_span, batch);
    t.end(report_span);
    const std::int64_t report_end = now_ns();
    context.reset();
    s.report_s.push_back(ms_between(start, report_end) / 1e3);
    ++result.attempted;
    result.check("batch.pipelines_ok", !any_failed(batch.run.report));
    if (first_bytes.empty()) {
      first_bytes = bytes;
    } else {
      result.check("batch.repeat_identical", bytes == first_bytes);
    }
    produced.publisher = publish_batch(batch, options, t, -1, s.publish_ms);
    const double epoch_ms = ms_between(start, now_ns());
    s.epoch_ms.push_back(epoch_ms);
    s.render_ms.push_back(batch.run.report.total_wall_ms);
    s.rest_ms.push_back(epoch_ms - batch.run.report.total_wall_ms);
    s.records_new.push_back(static_cast<double>(batch.result->store().size()));
    result.check("batch.published_bytes", produced.publisher->latest()->render_full_report() == bytes);
    record_overhead(options, pass, s.report_s.back(), tracer, s);
    produced.report = std::move(bytes);
    last = std::move(batch);
  }

  if (options.trace) {
    const ExperimentResult& r = *last.result;
    result.put("sim.advance_ms", last.advance_ms, "ms", 1);
    result.put("sim.events", static_cast<double>(r.events_processed()), "count", 1);
    result.put("capture.records", static_cast<double>(r.store().size()), "count", 1);
    result.put("sim.records_per_s", static_cast<double>(r.store().size()) / (last.advance_ms / 1e3),
               "1/s", 1);
    result.put("capture.freeze_ms", last.freeze_ms, "ms", 1);
    result.put("capture.frame_build_ms", last.frame_ms, "ms", 1);
    // --jobs 1 baselines over the same result: frame rebuilt, pipelines
    // re-run; the bytes must not change with the worker count.
    last.result->release_derived();
    std::int64_t t = now_ns();
    {
      const Scope span(tracer, "capture.frame_build.jobs1", -1);
      cw::runner::ThreadPool pool1(1);
      static_cast<void>(last.result->frame(&pool1));
    }
    const double frame_jobs1_ms = ms_between(t, now_ns());
    result.put("capture.frame_build_ms.jobs1", frame_jobs1_ms, "ms", 1);
    result.put("capture.frame_speedup", frame_jobs1_ms / last.frame_ms, "x", 1);
    cw::runner::RunResult jobs1;
    {
      const Scope span(tracer, "runner.pipelines.jobs1", -1);
      jobs1 = cw::runner::run_pipelines(last.pipelines, 1);
    }
    result.check("batch.jobs1_identical", jobs1.outputs == last.run.outputs);
    put_runner_metrics(result, last.run.report,
                       jobs1.report.total_wall_ms / last.run.report.total_wall_ms);
    last.result->release_derived();
    const ReplayStats replay = replay_store(*last.result, kShards, options.jobs, tracer, -1);
    put_replay_metrics(result, replay);
  }
  return produced;
}

// --- live / serve's publishing run ---------------------------------------------

struct LivePass {
  std::unique_ptr<cw::stream::ReportPublisher> publisher;
  cw::stream::EpochReport final_report;
  double run_s = 0.0;
  std::string bytes;
};

LivePass live_pass(const Options& options, unsigned jobs, Tracer& tracer, Result& result,
                   ProduceSamples& s, std::uint64_t pass_id) {
  cw::stream::LiveReportConfig config;
  config.experiment = experiment_config(options);
  config.epochs = options.epochs;
  config.shards = kShards;
  config.jobs = jobs;
  config.render_intermediate = true;
  config.extract_findings = true;
  LivePass pass;
  pass.publisher = std::make_unique<cw::stream::ReportPublisher>();
  cw::stream::LiveReport live(config);
  const std::int64_t start = now_ns();
  const int report_span = tracer.begin("report", -1, pass_id);
  std::int64_t last = start;
  bool all_rendered = true;
  pass.final_report = live.run([&](const cw::stream::EpochReport& report) {
    const std::int64_t t = now_ns();
    tracer.add("stream.epoch", last, t, report_span, report.epoch);
    s.epoch_ms.push_back(ms_between(last, t));
    s.render_ms.push_back(report.run_report.total_wall_ms);
    s.rest_ms.push_back(ms_between(last, t) - report.run_report.total_wall_ms);
    s.records_new.push_back(static_cast<double>(report.records_new));
    all_rendered = all_rendered && report.rendered && !report.failed;
    {
      const Scope span(tracer, "serve.publish", report_span, report.epoch);
      pass.publisher->publish(cw::stream::PublishedEpoch::from_report(report, options.scale));
    }
    last = now_ns();
    s.publish_ms.push_back(ms_between(t, last));
  });
  {
    const Scope span(tracer, "report.format", report_span);
    pass.bytes = pass.publisher->latest()->render_full_report();
  }
  tracer.end(report_span);
  pass.run_s = ms_between(start, now_ns()) / 1e3;
  s.report_s.push_back(pass.run_s);
  ++result.attempted;
  result.check("live.epochs_rendered",
               all_rendered && pass.publisher->latest_epoch() == options.epochs);
  if (!options.expect.empty()) {
    result.check("live.final_equals_batch", pass.bytes == read_file(options.expect), options.expect);
  }
  return pass;
}

// Set-up that LiveReport::run does internally and does not expose: the
// experiment context, built standalone at the same configuration.
void live_setups(const Options& options, Tracer& tracer, ProduceSamples& s) {
  const ExperimentConfig config = experiment_config(options);
  for (int i = 0; i < kContextSetups; ++i) {
    static_cast<void>(build_context(config, tracer, -1, s.setup_s));
  }
}

// Traced-run layer metrics of a live-style workload: the runner numbers of
// the final epoch and everything the ingest replay measures.
void live_layers(const Options& options, const LivePass& pass, Tracer& tracer, Result& result) {
  const ReplayStats replay = replay_live(experiment_config(options), options.epochs,
                                         kShards, options.jobs, tracer, -1);
  result.put("core.setup_ms", replay.setup_ms, "ms", 1);
  result.put("sim.advance_ms", replay.advance_ms, "ms", options.epochs);
  result.put("sim.events", static_cast<double>(replay.events), "count", 1);
  result.put("capture.records", static_cast<double>(replay.records), "count", 1);
  result.put("sim.records_per_s", static_cast<double>(replay.records) / (replay.advance_ms / 1e3),
             "1/s", 1);
  result.put("capture.freeze_ms", replay.freeze_ms, "ms", options.epochs);
  result.put("capture.frame_build_ms", replay.frame_ms, "ms", options.epochs);
  result.put("capture.frame_build_ms.jobs1", replay.frame_jobs1_ms, "ms", 1);
  result.put("capture.frame_speedup", replay.frame_jobs1_ms / replay.cold_frame_ms, "x", 1);
  put_runner_metrics(result, pass.final_report.run_report,
                     replay.render_jobs1_ms / replay.cold_render_ms);
  put_replay_metrics(result, replay);
  result.check("replay.final_equals_live", replay.final_outputs == pass.final_report.outputs);
  result.check("replay.jobs1_identical", replay.outputs_agree);
}

Produced run_live(const Options& options, Tracer& tracer, Result& result, ProduceSamples& s) {
  live_setups(options, tracer, s);
  Tracer quiet(false);
  Produced produced;
  LivePass last;
  const std::int64_t budget_end = now_ns() + static_cast<std::int64_t>(options.seconds * kProduceShare * 1e9);
  const int passes_min = options.trace ? kTracedPasses : 1;
  for (int pass = 0; pass < passes_min || (!options.trace && now_ns() < budget_end); ++pass) {
    const bool traced = options.trace && pass == kTracedPasses - 1;
    last = LivePass{};  // its publisher pins a whole corpus; one at a time
    LivePass p = live_pass(options, options.jobs, traced ? tracer : quiet, result, s,
                           static_cast<std::uint64_t>(pass));
    record_overhead(options, pass, p.run_s, tracer, s);
    last = std::move(p);
  }
  if (options.trace) live_layers(options, last, tracer, result);
  produced.publisher = std::move(last.publisher);
  produced.report = std::move(last.bytes);
  return produced;
}

// serve: set-up is a whole publishing run plus server start, kServeSetups
// times.
Produced run_serve_setup(const Options& options, Tracer& tracer, Result& result,
                         ProduceSamples& s, std::unique_ptr<cw::stream::ReportServer>& server) {
  Tracer quiet(false);
  LivePass last;
  const int setups = options.trace ? kTracedPasses : kServeSetups;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    last = LivePass{};
    // Hand the last set-up's freed pages back first, so the peak RSS is one
    // publishing run's and not one plus whatever the heap kept of the last.
    ::malloc_trim(0);
    const bool traced = options.trace && i == kTracedPasses - 1;
    const std::int64_t t = now_ns();
    LivePass p = live_pass(options, kServeSetupJobs, traced ? tracer : quiet, result, s,
                           static_cast<std::uint64_t>(i));
    server = start_server(*p.publisher);
    s.setup_s.push_back(ms_between(t, now_ns()) / 1e3);
    record_overhead(options, i, p.run_s, tracer, s);
    last = std::move(p);
  }
  if (options.trace) live_layers(options, last, tracer, result);
  Produced produced;
  produced.publisher = std::move(last.publisher);
  produced.report = std::move(last.bytes);
  return produced;
}

// --- metrics common to every workload ------------------------------------------

void put_proc_metrics(Result& result) {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  result.put("proc.cpu_user_s", seconds(usage.ru_utime), "s", 1);
  result.put("proc.cpu_sys_s", seconds(usage.ru_stime), "s", 1);
  result.put("proc.minflt", static_cast<double>(usage.ru_minflt), "count", 1);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void put_produce_metrics(Result& result, const ProduceSamples& s, bool trace) {
  if (!trace) {
    result.put("setup_s", median(s.setup_s), "s", s.setup_s.size());
    result.put("report_s", median(s.report_s), "s", s.report_s.size());
    result.put("epoch_p50_ms", hd_median(s.epoch_ms), "ms", s.epoch_ms.size());
    return;
  }
  result.put("stream.epoch_ms", hd_median(s.epoch_ms), "ms", s.epoch_ms.size());
  result.put("stream.render_ms", median(s.render_ms), "ms", s.render_ms.size());
  result.put("stream.rest_ms", median(s.rest_ms), "ms", s.rest_ms.size());
  result.put("stream.records_new", median(s.records_new), "count", s.records_new.size());
  result.put("serve.publish_ms", median(s.publish_ms), "ms", s.publish_ms.size());
  result.put("trace.overhead_ms", (s.traced_report_s - s.untraced_report_s) * 1e3, "ms", 2);
  result.put("trace.unaccounted_ms", s.unaccounted_ms, "ms", 1);
}

void print_json(const Options& options, const Result& result) {
  bool correct = true;
  for (const Check& check : result.checks) correct = correct && check.ok;
  std::string out = "{\"workload\":\"" + options.workload + "\",\"seed\":" +
                    std::to_string(options.seed) + ",\"trace\":" + (options.trace ? "1" : "0");
  out += ",\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : result.config) {
    out += (first ? "\"" : ",\"") + key + "\":\"" + value + "\"";
    first = false;
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    const Check& check = result.checks[i];
    out += (i == 0 ? "" : ",");
    out += "{\"name\":\"" + check.name + "\",\"ok\":" + (check.ok ? "true" : "false") +
           ",\"detail\":\"" + cw::stream::json_escape(check.detail) + "\"}";
  }
  out += "],\"metrics\":{";
  first = true;
  char value[64];
  for (const auto& [name, metric] : result.metrics) {
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 1e300);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value + ",\"unit\":\"" +
           metric.unit + "\",\"samples\":" + std::to_string(metric.samples) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void apply_defaults(Options& options) {
  struct Defaults {
    double scale;
    int t24;
    std::size_t epochs;
  };
  const Defaults d = options.workload == "batch" || options.workload == "ref" ? Defaults{1.0, 64, 1}
                     : options.workload == "live"                             ? Defaults{0.5, 16, 24}
                                                                              : Defaults{0.1, 4, 12};
  if (options.scale < 0) options.scale = d.scale;
  if (options.t24 < 0) options.t24 = d.t24;
  if (options.epochs == 0) options.epochs = d.epochs;
  options.jobs = std::max(1U, std::thread::hardware_concurrency());
  options.corpus_seed = options.workload == "serve" ? 0 : options.seed;
}

int run(Options& options) {
  apply_defaults(options);
  Result result;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", options.scale);
  result.config["scale"] = buffer;
  result.config["t24"] = std::to_string(options.t24);
  result.config["epochs"] = std::to_string(options.epochs);
  result.config["shards"] = std::to_string(kShards);
  result.config["jobs"] = std::to_string(options.jobs);
  if (options.workload == "serve") result.config["setup_jobs"] = std::to_string(kServeSetupJobs);
  result.config["experiment_seed"] = std::to_string(experiment_seed(options.corpus_seed));

  if (options.workload == "ref") {
    Tracer off(false);
    BatchRun batch;
    auto context = std::make_unique<LiveExperiment>(experiment_config(options));
    const std::string bytes =
        batch_report(*context, options, cw::runner::ReportOptions{}, off, -1, batch);
    ++result.attempted;
    result.check("ref.pipelines_ok", !any_failed(batch.run.report));
    if (!options.report_out.empty()) write_file(options.report_out, bytes);
    print_json(options, result);
    return result.failed == 0 ? 0 : 1;
  }

  Tracer tracer(options.trace);
  ProduceSamples samples;
  Produced produced;
  std::unique_ptr<cw::stream::ReportServer> server;
  double read_seconds = options.seconds * kReadShare;
  if (options.workload == "batch") {
    produced = run_batch(options, tracer, result, samples);
  } else if (options.workload == "live") {
    produced = run_live(options, tracer, result, samples);
  } else if (options.workload == "serve") {
    produced = run_serve_setup(options, tracer, result, samples, server);
    read_seconds = options.seconds;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (!options.report_out.empty()) write_file(options.report_out, produced.report);
  if (!server) server = start_server(*produced.publisher);
  result.config["lo_qps"] = std::to_string(options.lo);
  result.config["hi_qps"] = std::to_string(options.hi);
  result.config["serve_workers"] = std::to_string(kServeWorkers);
  result.config["connections"] = std::to_string(kConnections);

  const RouteSet routes = build_routes(*produced.publisher, result);
  const int read_span = tracer.begin("serve.read_phase");
  const ReadPhase read = read_phase(options, *produced.publisher, server, routes, read_seconds,
                                    tracer, read_span, result);
  tracer.end(read_span);
  server->stop();

  put_produce_metrics(result, samples, options.trace);
  if (options.trace) {
    put_read_layer_metrics(result, read);
    handle_probe(*produced.publisher, routes, percentile(read.lo.latency_us, 0.5), tracer, -1,
                 result);
    put_proc_metrics(result);
    if (!options.trace_out.empty() && !tracer.write_chrome_json(options.trace_out)) {
      result.check("trace.written", false, options.trace_out);
    }
  } else {
    put_read_metrics(result, read);
    result.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
  }
  print_json(options, result);
  return result.failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--scale") {
      options.scale = std::atof(value);
    } else if (arg == "--t24") {
      options.t24 = std::atoi(value);
    } else if (arg == "--epochs") {
      options.epochs = static_cast<std::size_t>(std::atoi(value));
    } else if (arg == "--lo") {
      options.lo = std::atof(value);
    } else if (arg == "--hi") {
      options.hi = std::atof(value);
    } else if (arg == "--expect") {
      options.expect = value;
    } else if (arg == "--report-out") {
      options.report_out = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && (options.workload == "ref" || (options.lo > 0 && options.hi > 0));
}

}  // namespace
}  // namespace cwbench

int main(int argc, char** argv) {
  cwbench::Options options;
  if (!cwbench::parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: cwbench --workload batch|live|serve|ref --seed N --seconds S --trace 0|1"
                 " --lo QPS --hi QPS [--scale X] [--t24 N] [--epochs K]"
                 " [--expect FILE] [--report-out FILE] [--trace-out FILE]\n");
    return 2;
  }
  try {
    return cwbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cwbench: %s\n", error.what());
    return 1;
  }
}
