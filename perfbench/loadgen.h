// Open-loop HTTP load generator for stream::ReportServer.
//
// Requests arrive on a seeded Poisson schedule, independent of how fast the
// server answers (independent readers, not callers waiting in turn). Each
// connection is a keep-alive socket; the calling thread drives them all,
// sending whatever is due (pipelined) and reading the responses back in
// order, so the generator takes one CPU whatever the connection count.
// A request's latency runs from the time it was *due*, so a stall charges
// the wait it imposes on every request queued behind it; how late the
// generator itself ran is reported separately. Every response is compared
// byte for byte with the response the publisher's bytes imply; a mismatch or
// a missing response counts as failed and as missing every latency limit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace cwbench {

enum RouteClass : int { kTable, kTableJson, kReport, kFindings, kMeta, kNotFound, kRouteClasses };

inline const char* route_class_name(int cls) {
  static const char* const kNames[kRouteClasses] = {"table",    "table_json", "report",
                                                    "findings", "meta",       "notfound"};
  return kNames[cls];
}

struct Route {
  std::string target;    // request target, e.g. /epoch/3/table/<slug>
  std::string expected;  // the complete response bytes the server must send
  int cls = kTable;
};

// The request mix over a set of published epochs: a route class by fixed
// weights (~69% table, 10% ?format=json, 10% report, 5% findings, 5%
// /epochs + /epoch/<k>, 1% unknown slug), then an epoch zipf-skewed toward
// the latest one, then a table uniformly.
struct RouteSet {
  std::vector<Route> routes;
  std::uint64_t epochs = 0;
  std::size_t tables = 0;
  // Per class: route indices, epoch-major (index = rank * per_epoch + j,
  // rank 0 = latest epoch); `per_epoch` entries per epoch (0 = flat list).
  std::vector<std::uint32_t> by_class[kRouteClasses];
  std::size_t per_epoch[kRouteClasses] = {};
};

struct PhaseResult {
  double seconds = 0.0;  // length of the send schedule
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // mismatched or never answered
  std::uint64_t mismatched = 0;  // answered with the wrong bytes
  std::vector<double> latency_us;  // one per request; failed => +inf
  std::vector<double> due_s;       // each request's due time in the phase
  std::vector<double> gen_lag_us;  // send time minus due time
  std::size_t backlog_max = 0;     // most requests outstanding on a connection
  // CPU time the process spent while the phase ran, minus the client
  // thread's own: the server's cost (its handler and acceptor threads).
  double server_cpu_s = 0.0;
};

struct LoadConfig {
  std::uint16_t port = 0;
  unsigned connections = 2;
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  // request spans are sampled into it when on
  int parent_span = Tracer::kNoParent;
};

// Sends an open-loop phase at `rate` for `seconds` and collects every
// response. `phase_id` keys the schedule's random stream.
PhaseResult run_phase(const LoadConfig& config, const RouteSet& routes, double rate,
                      double seconds, std::uint64_t phase_id);

// Requests every route once, in order, on one connection, so the timed
// phases start with the response cache filled the way a running server's
// is. Returns the number of responses that differed from the expected bytes.
std::uint64_t warm_up(std::uint16_t port, const RouteSet& routes);

// Appends `next` to `into` as if it had run right after it: due times are
// shifted by into.seconds, counts and samples add up.
void append_phase(PhaseResult& into, const PhaseResult& next);

double percentile(std::vector<double> values, double q);

// The median, over `windows` equal slices of the phase by due time, of each
// slice's q-quantile latency: the tail a typical stretch of the phase sees.
// A brief stall of the machine lifts one slice's tail, not the estimate.
double windowed_percentile(const PhaseResult& phase, double q, int windows);

}  // namespace cwbench
